//! `replay-matrix`: re-time frozen captures on three devices. Set-up
//! captures the baseline and every default tuning candidate of the ten
//! test-scale kernels on gtx680 and encodes them (`np-trace-v1`); each op
//! decodes one artifact and replays it on gtx680, k20c and maxwell. No op
//! interprets a kernel, which the run asserts, and the whole workload runs
//! on one thread.

use crate::expect;
use crate::layers::{book_replay, Layers};
use crate::{Bench, Budget, Measured, Rng};
use cuda_np::transform;
use cuda_np::tuner::{alloc_extra_buffers, default_candidates};
use np_exec::{capture_launch, interpretation_count, replay_launch, ExecError, SimOptions};
use np_gpu_sim::replay::ReplayError;
use np_gpu_sim::{CapturedLaunch, DeviceConfig, OccupancyError};
use np_workloads::{all_workloads, Scale};
use std::time::Instant;

const DEVICES: [&str; 3] = ["gtx680", "k20c", "maxwell"];

/// One encoded capture and the cycles each device must replay it in
/// (`None`: the device rejects it with zero residency).
struct Artifact {
    kernel: &'static str,
    baseline: bool,
    sim: SimOptions,
    bytes: Vec<u8>,
    expected: [Option<u64>; 3],
}

pub(crate) struct Matrix {
    devices: Vec<DeviceConfig>,
    artifacts: Vec<Artifact>,
    failures: Vec<String>,
    rng: Rng,
}

/// Replay `cap` on `dev`: `Ok(None)` is the typed zero-residency rejection
/// a device legitimately gives a block it cannot host.
fn replay_cycles(
    dev: &DeviceConfig,
    cap: &CapturedLaunch,
    sim: &SimOptions,
) -> Result<Option<np_exec::KernelReport>, String> {
    match replay_launch(dev, cap, sim) {
        Ok(r) => Ok(Some(r)),
        Err(ExecError::Replay(ReplayError::Occupancy(OccupancyError::ZeroResidency {
            ..
        }))) => Ok(None),
        Err(e) => Err(format!("{} on {}: {e}", cap.kernel_name, dev.name)),
    }
}

impl Matrix {
    pub fn set_up(seed: u64) -> Result<Matrix, String> {
        let devices = DEVICES
            .iter()
            .map(|d| np_gpu_sim::device::from_name(d).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut artifacts = Vec::new();
        for w in all_workloads(Scale::Test) {
            let kernel = w.kernel();
            let grid = w.grid();
            // One interpretation thread: captures are byte-identical for
            // any thread count, and a process that never spawns threads
            // keeps one malloc arena, so its peak RSS does not depend on
            // thread scheduling.
            let sim = w.sim_options().with_interp_threads(Some(1));
            let mut variants = vec![(true, kernel.clone(), w.make_args())];
            for c in default_candidates(kernel.block_dim.x, 1024) {
                if let Ok(t) = transform(&kernel, &c.opts) {
                    let args = alloc_extra_buffers(w.make_args(), &t, grid);
                    variants.push((false, t.kernel, args));
                }
            }
            for (baseline, k, mut args) in variants {
                let (_, cap) = capture_launch(&devices[0], &k, grid, &mut args, &sim)
                    .map_err(|e| format!("{}: capture: {e}", k.name))?;
                let mut expected = [None; 3];
                for (slot, dev) in expected.iter_mut().zip(&devices) {
                    *slot = replay_cycles(dev, &cap, &sim)?.map(|r| r.cycles);
                }
                artifacts.push(Artifact {
                    kernel: w.name(),
                    baseline,
                    sim: sim.clone(),
                    bytes: cap.encode(),
                    expected,
                });
            }
        }
        let failures = check_against_baselines(&artifacts)?;
        Ok(Matrix {
            devices,
            artifacts,
            failures,
            rng: Rng::new(seed),
        })
    }

    /// `(baseline, fastest candidate)` cycles per kernel and device.
    fn results(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for d in 0..DEVICES.len() {
            for a in self.artifacts.iter().filter(|a| a.baseline) {
                let best = self
                    .artifacts
                    .iter()
                    .filter(|c| c.kernel == a.kernel && !c.baseline)
                    .filter_map(|c| c.expected[d])
                    .min();
                if let (Some(base), Some(best)) = (a.expected[d], best) {
                    out.push((base, best));
                }
            }
        }
        out
    }
}

/// Per kernel and device: the baseline capture replays in the committed
/// `baseline_cycles`, the fastest candidate in `best_cycles`, and no more
/// candidates are zero-residency rejections than the committed tuning run
/// had. (Fewer is expected: a capture keeps gtx680's register allocation,
/// which can fit a device where a direct launch, allocating for that
/// device's larger register cap, did not.)
fn check_against_baselines(artifacts: &[Artifact]) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for (d, dev) in DEVICES.iter().enumerate() {
        for (name, want) in expect::baseline(dev)? {
            let of_kernel = || artifacts.iter().filter(|a| a.kernel == name);
            let base = of_kernel().find(|a| a.baseline).and_then(|a| a.expected[d]);
            let cands = || of_kernel().filter(|a| !a.baseline).map(|a| a.expected[d]);
            let best = cands().flatten().min();
            let rejected = cands().filter(Option::is_none).count() as u64;
            if base != Some(want.baseline_cycles)
                || best != Some(want.best_cycles)
                || rejected > want.launch_failed
            {
                failures.push(format!(
                    "{name} on {dev}: baseline {base:?}, best {best:?}, {rejected} rejected; \
                     committed {}/{}/{}",
                    want.baseline_cycles, want.best_cycles, want.launch_failed
                ));
            }
        }
    }
    Ok(failures)
}

impl Bench for Matrix {
    fn setup_failures(&self) -> Vec<String> {
        self.failures.clone()
    }

    fn measure(&mut self, budget: Budget, mut layers: Option<&mut Layers>) -> Measured {
        let mut m = Measured::default();
        let mut order: Vec<usize> = (0..self.artifacts.len()).collect();
        let interpretations = interpretation_count();
        let start = Instant::now();
        while budget.more(start, m.passes()) {
            let pass = Instant::now();
            self.rng.shuffle(&mut order);
            for &i in &order {
                let a = &self.artifacts[i];
                let t = Instant::now();
                let outcome = match layers.as_deref_mut() {
                    None => replay_op(&self.devices, a),
                    Some(l) => traced_replay_op(l, &self.devices, a),
                };
                m.record(t.elapsed().as_secs_f64() * 1e3, outcome);
            }
            if let Some(l) = layers.as_deref_mut() {
                // Every op matched the set-up replays, which matched the
                // committed baselines: the pass's simulated results.
                for (base, best) in self.results() {
                    l.add_result(base, best);
                }
            }
            m.end_pass(pass);
        }
        m.wall_s = start.elapsed().as_secs_f64();
        let interpreted = interpretation_count() - interpretations;
        if interpreted != 0 {
            // The workload's premise is broken: every op is suspect.
            m.failed = m.attempted;
            m.notes.push(format!(
                "{interpreted} interpretations during replay-only ops"
            ));
        }
        m
    }
}

fn check(a: &Artifact, d: usize, got: Option<u64>) -> Result<(), String> {
    if got == a.expected[d] {
        Ok(())
    } else {
        Err(format!(
            "{} on {}: replayed {got:?} cycles, set-up saw {:?}",
            a.kernel, DEVICES[d], a.expected[d]
        ))
    }
}

fn replay_op(devices: &[DeviceConfig], a: &Artifact) -> Result<(), String> {
    let cap = CapturedLaunch::decode(&a.bytes).map_err(|e| format!("{}: decode: {e}", a.kernel))?;
    for (d, dev) in devices.iter().enumerate() {
        check(a, d, replay_cycles(dev, &cap, &a.sim)?.map(|r| r.cycles))?;
    }
    Ok(())
}

/// [`replay_op`] with each call timed, plus a re-encode of the decoded
/// capture that must reproduce the artifact byte for byte.
fn traced_replay_op(l: &mut Layers, devices: &[DeviceConfig], a: &Artifact) -> Result<(), String> {
    let cap = l.time("capture.decode_s", || CapturedLaunch::decode(&a.bytes));
    let cap = cap.map_err(|e| format!("{}: decode: {e}", a.kernel))?;
    let bytes = l.time("capture.encode_s", || cap.encode());
    l.add("capture.bytes", a.bytes.len() as f64);
    l.add("capture.coded_bytes", 2.0 * a.bytes.len() as f64);
    if bytes != a.bytes {
        return Err(format!("{}: re-encoding changed the artifact", a.kernel));
    }
    for (d, dev) in devices.iter().enumerate() {
        let report = l.time("engine.self_s", || replay_cycles(dev, &cap, &a.sim))?;
        if let Some(r) = &report {
            book_replay(l, r);
        }
        check(a, d, report.map(|r| r.cycles))?;
    }
    Ok(())
}
