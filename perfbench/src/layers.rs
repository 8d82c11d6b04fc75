//! Benchmark-side per-layer timing: accumulators, plus the decomposed
//! forms of the operations the workloads run. Each decomposition calls
//! the layers' public entry points one at a time, with a timer around
//! each call, and checks that the pieces reproduce what the composed call
//! returned.

use cuda_np::tuner::{autotune_with_policy, PolicyTuneResult, TuneCandidate};
use cuda_np::{transform, CostModel, Transformed, TunePolicy};
use np_exec::{capture_launch, replay_launch, Args, KernelReport, SimOptions};
use np_gpu_sim::{CapturedLaunch, DeviceConfig};
use np_kernel_ir::{Dim3, Kernel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Run `f` and return its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Per-layer totals of one traced phase. Keys are the metric names of
/// [`crate::LAYER_METRICS`] plus the internal totals some ratios are
/// derived from (`capture.coded_bytes`, `costmodel.top2`,
/// `costmodel.ranked`, `model.ln_speedup`, `model.speedups`).
#[derive(Debug, Default)]
pub(crate) struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Σ of every benchmark-side timer: the numerator of `trace.coverage`.
    clocked_s: f64,
}

impl Layers {
    /// Time `f` and charge its whole wall time to `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let (r, s) = timed(f);
        self.charge(key, s);
        r
    }

    /// Time `f` without charging a layer yet (the caller splits the time).
    pub fn clock<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let (r, s) = timed(f);
        self.clocked_s += s;
        (r, s)
    }

    /// Charge `s` seconds, timed by the caller, to `key`.
    pub fn charge(&mut self, key: &'static str, s: f64) {
        self.clocked_s += s;
        self.add(key, s);
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_default() += v;
    }

    pub fn set(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }

    fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    pub fn clocked_s(&self) -> f64 {
        self.clocked_s
    }

    /// Book one simulated result for the `model.*` metrics.
    pub fn add_result(&mut self, baseline_cycles: u64, best_cycles: u64) {
        self.add("model.sim_cycles", (baseline_cycles + best_cycles) as f64);
        self.add(
            "model.ln_speedup",
            (baseline_cycles as f64 / best_cycles as f64).ln(),
        );
        self.add("model.speedups", 1.0);
    }

    /// The reported value of metric `name`: ratios from the totals, run
    /// level readings as set, everything else per pass.
    pub fn value(&self, name: &str, passes: u64) -> f64 {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        match name {
            "interp.winst_per_s" => ratio(self.get("interp.winst"), self.get("interp.self_s")),
            "engine.blocks_per_s" => ratio(self.get("engine.blocks"), self.get("engine.self_s")),
            "capture.mb_per_s" => {
                ratio(
                    self.get("capture.coded_bytes"),
                    self.get("capture.encode_s") + self.get("capture.decode_s"),
                ) / 1e6
            }
            "tuner.pool_speedup" => ratio(self.get("tuner.serial_s"), self.get("tuner.wall_s")),
            "costmodel.top2_share" => {
                ratio(self.get("costmodel.top2"), self.get("costmodel.ranked"))
            }
            "model.geomean_speedup" => match self.get("model.speedups") {
                n if n > 0.0 => (self.get("model.ln_speedup") / n).exp(),
                _ => 0.0,
            },
            "trace.coverage" | "trace.overhead_share" | "host.calib_ms" => self.get(name),
            _ => ratio(self.get(name), passes as f64),
        }
    }
}

/// `capture_launch` followed by `replay_launch` of the same capture and a
/// codec round trip. The replay isolates the timing engine's cost, so
/// interpretation is the capture's time minus the replay's. Returns the
/// capture's report, its encoded bytes and the capture call's wall time.
pub(crate) fn capture_and_replay(
    l: &mut Layers,
    dev: &DeviceConfig,
    kernel: &Kernel,
    grid: Dim3,
    args: &mut Args,
    sim: &SimOptions,
) -> Result<(KernelReport, Vec<u8>, f64), String> {
    let (captured, capture_s) = l.clock(|| capture_launch(dev, kernel, grid, args, sim));
    let (report, cap) = captured.map_err(|e| format!("{}: {e}", kernel.name))?;
    let (replayed, replay_s) = l.clock(|| replay_launch(dev, &cap, sim));
    let replayed = replayed.map_err(|e| format!("{}: replay: {e}", kernel.name))?;
    if replayed.cycles != report.cycles {
        return Err(format!(
            "{}: replay gave {} cycles, capture {}",
            kernel.name, replayed.cycles, report.cycles
        ));
    }
    l.add("interp.self_s", capture_s - replay_s);
    l.add("interp.winst", report.profile.total.instructions as f64);
    l.add("engine.self_s", replay_s);
    book_replay(l, &replayed);
    let bytes = l.time("capture.encode_s", || cap.encode());
    let decoded = l.time("capture.decode_s", || CapturedLaunch::decode(&bytes));
    decoded.map_err(|e| format!("{}: decode: {e}", kernel.name))?;
    l.add("capture.bytes", bytes.len() as f64);
    l.add("capture.coded_bytes", 2.0 * bytes.len() as f64);
    Ok((report, bytes, capture_s))
}

/// Book the timing engine's work units for one replayed launch.
pub(crate) fn book_replay(l: &mut Layers, r: &KernelReport) {
    l.add("engine.sim_cycles", r.cycles as f64);
    l.add("engine.blocks", r.timing.blocks_simulated as f64);
}

/// What a decomposed tuning run produced.
pub(crate) struct Tuned {
    pub policy: PolicyTuneResult,
    /// Wall time of the winner's capture in the serial pass: the
    /// race-unchecked cost its race-checked launch is compared against.
    pub winner_capture_s: f64,
}

/// `autotune_with_policy` (the pooled tuner, timed whole), then the same
/// candidates again one at a time through transform, argument set-up and
/// capture, so the tuner's wall time can be set against the serial sum of
/// its parts. Each serial candidate must reproduce the pool's outcome.
pub(crate) fn traced_tune(
    l: &mut Layers,
    kernel: &Kernel,
    dev: &DeviceConfig,
    grid: Dim3,
    make_args: &(dyn Fn(&Transformed) -> Args + Sync),
    sim: &SimOptions,
    candidates: &[TuneCandidate],
) -> Result<Tuned, String> {
    let ranking = l.time("costmodel.self_s", || {
        CostModel::from_kernel(kernel, dev).rank(candidates)
    });
    let policy = l
        .time("tuner.wall_s", || {
            autotune_with_policy(
                kernel,
                dev,
                grid,
                make_args,
                sim,
                candidates,
                TunePolicy::default(),
            )
        })
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    let best = policy.result.best_index;
    l.add("tuner.evaluated", policy.evaluated as f64);
    l.add("costmodel.ranked", 1.0);
    if ranking
        .iter()
        .position(|&i| i == best)
        .is_some_and(|r| r <= 1)
    {
        l.add("costmodel.top2", 1.0);
    }

    let mut winner_capture_s = 0.0;
    for (i, (cand, entry)) in candidates.iter().zip(&policy.result.entries).enumerate() {
        let (t, transform_s) = l.clock(|| transform(kernel, &cand.opts));
        l.add("transform.self_s", transform_s);
        l.add("transform.calls", 1.0);
        let mut serial_s = transform_s;
        let cycles = match t {
            Err(_) => None,
            Ok(t) => {
                let (mut args, args_s) = l.clock(|| make_args(&t));
                l.add("workloads.args_s", args_s);
                serial_s += args_s;
                match capture_and_replay(l, dev, &t.kernel, grid, &mut args, sim) {
                    Ok((report, _, capture_s)) => {
                        serial_s += capture_s;
                        if i == best {
                            winner_capture_s = capture_s;
                        }
                        Some(report.cycles)
                    }
                    Err(_) => None,
                }
            }
        };
        l.add("tuner.serial_s", serial_s);
        if cycles != entry.cycles() {
            return Err(format!(
                "{} candidate {i}: serial evaluation gave {cycles:?} cycles, the tuner {:?}",
                kernel.name,
                entry.cycles()
            ));
        }
    }
    Ok(Tuned {
        policy,
        winner_capture_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_come_from_totals_and_sums_are_per_pass() {
        let mut l = Layers::default();
        l.add("interp.winst", 300.0);
        l.add("interp.self_s", 3.0);
        l.add("tuner.serial_s", 4.0);
        l.add("tuner.wall_s", 2.0);
        l.add_result(400, 100);
        l.add_result(100, 100);
        assert_eq!(l.value("interp.winst", 3), 100.0);
        assert_eq!(l.value("interp.winst_per_s", 3), 100.0);
        assert_eq!(l.value("tuner.pool_speedup", 3), 2.0);
        assert!((l.value("model.geomean_speedup", 3) - 2.0).abs() < 1e-12);
        assert_eq!(
            l.value("engine.blocks_per_s", 3),
            0.0,
            "no engine time, no ratio"
        );
    }
}
