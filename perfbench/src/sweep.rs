//! `sweep-test` and `tune-paper`: `runner::best_np` (baseline, auto-tune,
//! race re-check) on Table-1 kernels, one kernel per op, on gtx680.

use crate::expect::{self, Expected};
use crate::layers::{capture_and_replay, traced_tune, Layers};
use crate::{Bench, Budget, Measured, Rng};
use cuda_np::tuner::{alloc_extra_buffers, default_candidates};
use cuda_np::{gating_policy, Transformed};
use np_exec::{launch, RaceCheckMode};
use np_gpu_sim::racecheck::RaceCheckOptions;
use np_gpu_sim::DeviceConfig;
use np_workloads::{all_workloads, Scale, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper-scale kernels one run can afford. SS (85 s) and MV (17 s)
/// alone would cost more than the other eight together; they join once
/// interpretation is fast enough.
const PAPER_KERNELS: [&str; 8] = ["MC", "LU", "LE", "LIB", "CFD", "BK", "TMV", "NN"];

pub(crate) struct Sweep {
    dev: DeviceConfig,
    workloads: Vec<Box<dyn Workload>>,
    expected: BTreeMap<String, Expected>,
    rng: Rng,
}

/// The simulated outcome of one op.
struct Outcome {
    baseline_cycles: u64,
    best_cycles: u64,
    race_free: bool,
}

impl Outcome {
    fn check(&self, name: &str, want: &Expected) -> Result<(), String> {
        if (self.baseline_cycles, self.best_cycles) != (want.baseline_cycles, want.best_cycles) {
            return Err(format!(
                "{name}: cycles {}/{} (baseline/best), expected {}/{}",
                self.baseline_cycles, self.best_cycles, want.baseline_cycles, want.best_cycles
            ));
        }
        if !self.race_free {
            return Err(format!("{name}: the race checker reported findings"));
        }
        Ok(())
    }
}

impl Sweep {
    /// Build the workloads and run one unmeasured warm-up pass of their
    /// kernels at test scale. At paper scale a warm-up pass would cost as
    /// much as the measured phase, so set-up instead warms the same kernels
    /// at test scale and generates every kernel's paper-scale inputs once.
    pub fn set_up(scale: Scale, seed: u64) -> Result<Sweep, String> {
        let expected = match scale {
            Scale::Test => expect::baseline("gtx680")?,
            Scale::Paper => expect::paper()?,
        };
        let selected = |name: &str| scale == Scale::Test || PAPER_KERNELS.contains(&name);
        let workloads: Vec<Box<dyn Workload>> = all_workloads(scale)
            .into_iter()
            .filter(|w| selected(w.name()))
            .collect();
        if let Some(w) = workloads.iter().find(|w| !expected.contains_key(w.name())) {
            return Err(format!("no expected cycles for {}", w.name()));
        }
        let dev = DeviceConfig::gtx680();
        for w in all_workloads(Scale::Test)
            .iter()
            .filter(|w| selected(w.name()))
        {
            drop(np_harness::best_np(w.as_ref(), &dev));
        }
        if scale == Scale::Paper {
            for w in &workloads {
                drop(std::hint::black_box(w.make_args()));
            }
        }
        Ok(Sweep {
            dev,
            workloads,
            expected,
            rng: Rng::new(seed),
        })
    }
}

impl Bench for Sweep {
    fn measure(&mut self, budget: Budget, mut layers: Option<&mut Layers>) -> Measured {
        let mut m = Measured::default();
        let mut order: Vec<usize> = (0..self.workloads.len()).collect();
        let start = Instant::now();
        while budget.more(start, m.passes()) {
            let pass = Instant::now();
            self.rng.shuffle(&mut order);
            for &i in &order {
                let w = self.workloads[i].as_ref();
                let t = Instant::now();
                let outcome = match layers.as_deref_mut() {
                    None => np_harness::best_np(w, &self.dev)
                        .map(|r| Outcome {
                            baseline_cycles: r.baseline.cycles,
                            best_cycles: r.tuned.best_report.cycles,
                            race_free: r.race_free(),
                        })
                        .map_err(|e| e.to_string()),
                    Some(l) => traced_best_np(l, w, &self.dev),
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                m.record(
                    ms,
                    outcome.and_then(|o| o.check(w.name(), &self.expected[w.name()])),
                );
            }
            m.end_pass(pass);
        }
        m.wall_s = start.elapsed().as_secs_f64();
        m
    }
}

/// `runner::best_np` as explicit calls: the baseline captured, replayed and
/// launched again with the race checker recording; the tuner plus its
/// serial decomposition; the winner launched with the gated race checker.
/// Race-check cost is each recorded launch minus the unchecked capture of
/// the same kernel.
fn traced_best_np(l: &mut Layers, w: &dyn Workload, dev: &DeviceConfig) -> Result<Outcome, String> {
    let kernel = w.kernel();
    let grid = w.grid();
    let sim = w.sim_options();
    let recorded = sim.clone().with_race_check(RaceCheckMode::Record);

    let mut args = l.time("workloads.args_s", || w.make_args());
    let (base, _, base_capture_s) = capture_and_replay(l, dev, &kernel, grid, &mut args, &sim)?;
    let mut args = l.time("workloads.args_s", || w.make_args());
    let (checked, checked_s) = l.clock(|| launch(dev, &kernel, grid, &mut args, &recorded));
    let checked = checked.map_err(|e| format!("{}: baseline: {e}", w.name()))?;
    l.add("racecheck.self_s", checked_s - base_capture_s);
    if checked.cycles != base.cycles {
        return Err(format!(
            "{}: race-checked baseline took {} cycles, unchecked {}",
            w.name(),
            checked.cycles,
            base.cycles
        ));
    }

    let make_args = |t: &Transformed| alloc_extra_buffers(w.make_args(), t, grid);
    let candidates = default_candidates(kernel.block_dim.x, 1024);
    let tuned = traced_tune(l, &kernel, dev, grid, &make_args, &sim, &candidates)?;
    let winner = &tuned.policy.result.best;
    let mut args = l.time("workloads.args_s", || make_args(winner));
    let gated = recorded.clone().with_race_options(RaceCheckOptions {
        max_findings: None,
        policy: gating_policy(winner),
    });
    let (winner_checked, winner_s) =
        l.clock(|| launch(dev, &winner.kernel, grid, &mut args, &gated));
    let winner_checked = winner_checked.map_err(|e| format!("{}: winner: {e}", w.name()))?;
    l.add("racecheck.self_s", winner_s - tuned.winner_capture_s);

    let best_cycles = tuned.policy.result.best_report.cycles;
    l.add_result(base.cycles, best_cycles);
    Ok(Outcome {
        baseline_cycles: checked.cycles,
        best_cycles,
        race_free: checked.race.is_clean() && winner_checked.race.is_clean(),
    })
}
