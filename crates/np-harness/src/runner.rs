//! Shared machinery: run a workload's baseline, auto-tune its CUDA-NP
//! versions, and aggregate results.
//!
//! Nothing here panics on a kernel fault: baselines and tuning runs return
//! `Result`, so one broken workload (or one faulting transformed variant)
//! cannot take down a whole harness sweep — the failure becomes a `FAULT`
//! row in the summary and the remaining workloads still run.

use cuda_np::tuner::{
    alloc_extra_buffers, autotune_with_policy, default_candidates, TuneError, TuneResult,
};
use cuda_np::{gating_policy, transform, NpOptions, Transformed, TunePolicy};
use np_exec::{launch, Args, ExecError, KernelReport, RaceCheckMode};
use np_gpu_sim::racecheck::{RaceCheckOptions, RaceReport};
use np_gpu_sim::DeviceConfig;
use np_workloads::{all_workloads, Scale, Workload};

/// Baseline + best-NP outcome for one workload.
pub struct BenchResult {
    pub name: &'static str,
    pub baseline: KernelReport,
    pub tuned: TuneResult,
    /// The candidate-selection policy that tuned this workload.
    pub policy: TunePolicy,
    /// Candidates transformed + simulated under `policy` (includes any
    /// fallback rounds).
    pub evaluated: usize,
    /// Candidates the cost model pruned without simulating.
    pub skipped: usize,
    /// A model miss forced falling back to the full sweep.
    pub fell_back: bool,
    /// 0-based rank the static cost model gave the measured winner.
    pub predicted_rank: Option<usize>,
    /// Happens-before report of the tuning winner, re-run with the race
    /// checker armed (the baseline's report rides on `baseline.race`).
    pub winner_race: RaceReport,
}

impl BenchResult {
    /// The headline Figure-10 number.
    pub fn speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.tuned.best_report.cycles as f64
    }

    /// True when both the baseline and the tuning winner came back clean
    /// from the race checker.
    pub fn race_free(&self) -> bool {
        self.baseline.race.is_clean() && self.winner_race.is_clean()
    }
}

/// Why one workload's harness run failed. Non-exhaustive so new failure
/// stages can be added without breaking downstream matches.
#[non_exhaustive]
#[derive(Debug)]
pub enum HarnessError {
    /// The baseline kernel's launch failed (setup error or sanitizer
    /// fault).
    Baseline { workload: &'static str, source: ExecError },
    /// Auto-tuning produced no usable candidate.
    Tuning { workload: &'static str, source: TuneError },
    /// Re-running the tuning winner with the race checker armed failed,
    /// even though the same configuration completed during tuning.
    Recheck { workload: &'static str, source: ExecError },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Baseline { workload, source } => {
                write!(f, "{workload} baseline failed: {source}")
            }
            HarnessError::Tuning { workload, source } => {
                write!(f, "{workload} tuning failed: {source}")
            }
            HarnessError::Recheck { workload, source } => {
                write!(f, "{workload} winner race re-check failed: {source}")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Baseline { source, .. } => Some(source),
            HarnessError::Tuning { source, .. } => Some(source),
            HarnessError::Recheck { source, .. } => Some(source),
        }
    }
}

/// Simulate the baseline kernel of a workload, with the happens-before
/// race checker recording (its report rides on the returned
/// `KernelReport::race`).
pub fn run_baseline(w: &dyn Workload, dev: &DeviceConfig) -> Result<KernelReport, HarnessError> {
    let mut args = w.make_args();
    let sim = w.sim_options().with_race_check(RaceCheckMode::Record);
    launch(dev, &w.kernel(), w.grid(), &mut args, &sim)
        .map_err(|source| HarnessError::Baseline { workload: w.name(), source })
}

/// Auto-tune a workload over the paper's candidate space and return both
/// the baseline report and the tuning table, plus a race-checked re-run of
/// the winner. Individual faulting candidates are recorded in the table
/// and skipped; this errors only when the baseline fails, *every*
/// candidate fails, or the winner's re-check launch fails.
pub fn best_np(w: &dyn Workload, dev: &DeviceConfig) -> Result<BenchResult, HarnessError> {
    best_np_with_policy(w, dev, TunePolicy::default())
}

/// [`best_np`] under an explicit candidate-selection policy. `Pruned` and
/// `Predict` simulate fewer candidates but must land on a winner no slower
/// than the exhaustive sweep's (the tuner falls back on a model miss).
pub fn best_np_with_policy(
    w: &dyn Workload,
    dev: &DeviceConfig,
    policy: TunePolicy,
) -> Result<BenchResult, HarnessError> {
    let kernel = w.kernel();
    let candidates = default_candidates(kernel.block_dim.x, 1024);
    let sim = w.sim_options();
    let grid = w.grid();
    let make_args = |t: &Transformed| alloc_extra_buffers(w.make_args(), t, grid);
    let p = autotune_with_policy(&kernel, dev, grid, &make_args, &sim, &candidates, policy)
        .map_err(|source| HarnessError::Tuning { workload: w.name(), source })?;
    let tuned = p.result;
    // Re-run the winner with the checker armed: tuning runs stay
    // recorder-free (the checker's bookkeeping would pollute nothing, but
    // keeping timing runs identical to the seed keeps cycles comparable).
    let mut args = make_args(&tuned.best);
    let checked_sim = sim
        .with_race_check(RaceCheckMode::Record)
        .with_race_options(RaceCheckOptions { max_findings: None, policy: gating_policy(&tuned.best) });
    let winner_race = launch(dev, &tuned.best.kernel, grid, &mut args, &checked_sim)
        .map_err(|source| HarnessError::Recheck { workload: w.name(), source })?
        .race;
    Ok(BenchResult {
        name: w.name(),
        baseline: run_baseline(w, dev)?,
        tuned,
        policy: p.policy,
        evaluated: p.evaluated,
        skipped: p.skipped,
        fell_back: p.fell_back,
        predicted_rank: p.predicted_rank,
        winner_race,
    })
}

/// Run one specific NP configuration of a workload (None = failed config).
pub fn run_config(
    w: &dyn Workload,
    dev: &DeviceConfig,
    opts: &NpOptions,
) -> Option<KernelReport> {
    let t = transform(&w.kernel(), opts).ok()?;
    let mut args: Args = alloc_extra_buffers(w.make_args(), &t, w.grid());
    launch(dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).ok()
}

/// One workload's end-to-end outcome in a sweep.
pub struct WorkloadOutcome {
    pub name: &'static str,
    pub result: Result<BenchResult, HarnessError>,
}

/// Baseline + auto-tune every Table-1 workload, collecting per-workload
/// `Result`s instead of stopping at the first failure.
pub fn sweep(dev: &DeviceConfig, scale: Scale) -> Vec<WorkloadOutcome> {
    sweep_with_policy(dev, scale, TunePolicy::default())
}

/// [`sweep`] under an explicit candidate-selection policy.
pub fn sweep_with_policy(
    dev: &DeviceConfig,
    scale: Scale,
    policy: TunePolicy,
) -> Vec<WorkloadOutcome> {
    all_workloads(scale)
        .into_iter()
        .map(|w| WorkloadOutcome {
            name: w.name(),
            result: best_np_with_policy(w.as_ref(), dev, policy),
        })
        .collect()
}

/// PASS/FAULT table over sweep outcomes (one line per workload plus a
/// tally).
pub fn summary(outcomes: &[WorkloadOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Workload summary");
    for o in outcomes {
        match &o.result {
            Ok(r) => {
                let races = if r.race_free() {
                    "races none".to_string()
                } else {
                    format!(
                        "RACES {}",
                        r.baseline.race.findings.len() + r.winner_race.findings.len()
                    )
                };
                let _ = writeln!(
                    out,
                    "{:<5} PASS   {:.2}x best-NP speedup   {races}   [{} {}/{}]",
                    o.name,
                    r.speedup(),
                    r.policy.label(),
                    r.evaluated,
                    r.evaluated + r.skipped,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<5} FAULT  {e}", o.name);
            }
        }
    }
    let passed = outcomes.iter().filter(|o| o.result.is_ok()).count();
    let _ = writeln!(out, "{passed}/{} workloads passed", outcomes.len());
    out
}

/// Per-workload counter table over sweep outcomes: the paper's mechanisms
/// (divergence, coalescing, shfl traffic, barriers) for baseline vs. the
/// tuning winner, one row per completed workload.
pub fn counter_table(outcomes: &[WorkloadOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Counter table (baseline -> best NP)");
    let _ = writeln!(
        out,
        "{:<5} {:>23} {:>17} {:>19} {:>16} {:>13}",
        "name", "coalesce", "div.events", "divergent.instr", "shfl b/r/s", "barriers"
    );
    for o in outcomes {
        let Ok(r) = &o.result else { continue };
        let base = &r.baseline.profile.total;
        // The winner's entry carries the same totals as best_report; use
        // the report so the row exists even if entries were pruned.
        let best = &r.tuned.best_report.profile.total;
        let _ = writeln!(
            out,
            "{:<5} {:>10.3} -> {:<10.3} {:>7} -> {:<6} {:>8} -> {:<8} {:>16} {:>6} -> {:<6}",
            o.name,
            base.coalescing_efficiency(),
            best.coalescing_efficiency(),
            base.divergence_events,
            best.divergence_events,
            base.divergent_instructions,
            best.divergent_instructions,
            format!(
                "{}/{}/{}",
                best.shfl_broadcasts, best.shfl_reduction_steps, best.shfl_scan_steps
            ),
            base.barrier_waits,
            best.barrier_waits,
        );
    }
    out
}

/// Per-workload stall table over sweep outcomes: where the cycles went
/// (the timeline flight recorder's attribution), baseline vs. the tuning
/// winner. Percentages are of `simulated_cycles × SMX count`.
pub fn stall_table(outcomes: &[WorkloadOutcome]) -> String {
    use std::fmt::Write as _;
    let pct = |part: u64, st: &np_gpu_sim::StallBreakdown| {
        100.0 * part as f64 / st.total().max(1) as f64
    };
    let mut out = String::new();
    let _ = writeln!(out, "# Stall table (baseline -> best NP, % of SMX cycles)");
    let _ = writeln!(
        out,
        "{:<5} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "name", "issue", "memory", "dram-sat", "barrier", "idle"
    );
    for o in outcomes {
        let Ok(r) = &o.result else { continue };
        let base = &r.baseline.timing.stall;
        let best = &r.tuned.best_report.timing.stall;
        let cell = |b: u64, base_st: &np_gpu_sim::StallBreakdown,
                    n: u64, best_st: &np_gpu_sim::StallBreakdown| {
            format!("{:>5.1} -> {:<5.1}", pct(b, base_st), pct(n, best_st))
        };
        let _ = writeln!(
            out,
            "{:<5} {:>16} {:>16} {:>16} {:>16} {:>16}",
            o.name,
            cell(base.issue + base.issue_limit, base, best.issue + best.issue_limit, best),
            cell(base.memory_pending, base, best.memory_pending, best),
            cell(base.dram_saturated, base, best.dram_saturated, best),
            cell(base.barrier_wait, base, best.barrier_wait, best),
            cell(base.no_block_resident, base, best.no_block_resident, best),
        );
    }
    out
}

/// True when not a single workload completed — the only condition the
/// harness binary treats as a failing exit.
pub fn all_failed(outcomes: &[WorkloadOutcome]) -> bool {
    !outcomes.is_empty() && outcomes.iter().all(|o| o.result.is_err())
}

/// Baseline + auto-tune every Table-1 workload on every device, sharding
/// the `device × workload` matrix across a bounded pool of host threads.
/// Workers claim cells off a shared counter and park each outcome in that
/// cell's slot, so the returned order is `(device, workload)` order no
/// matter how evaluations interleave — the per-device trajectory documents
/// stay byte-identical to a serial run. The result is parallel to
/// `devices`; each inner vector is in Table-1 workload order.
pub fn sweep_matrix(devices: &[DeviceConfig], scale: Scale) -> Vec<Vec<WorkloadOutcome>> {
    sweep_matrix_with_policy(devices, scale, TunePolicy::default())
}

/// [`sweep_matrix`] under an explicit candidate-selection policy.
pub fn sweep_matrix_with_policy(
    devices: &[DeviceConfig],
    scale: Scale,
    policy: TunePolicy,
) -> Vec<Vec<WorkloadOutcome>> {
    let workloads = all_workloads(scale);
    let cells = devices.len() * workloads.len();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<WorkloadOutcome>>> =
        (0..cells).map(|_| std::sync::Mutex::new(None)).collect();
    let n_workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(cells.max(1));
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cells {
                    break;
                }
                let dev = &devices[i / workloads.len()];
                let w = &workloads[i % workloads.len()];
                let outcome = WorkloadOutcome {
                    name: w.name(),
                    result: best_np_with_policy(w.as_ref(), dev, policy),
                };
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });
    let mut it = slots.into_iter().map(|s| {
        s.into_inner().unwrap().expect("every matrix cell ran exactly once")
    });
    devices.iter().map(|_| (&mut it).take(workloads.len()).collect()).collect()
}

/// Geometric mean.
pub fn gm(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_workloads::{tmv::Tmv, Scale};

    #[test]
    fn gm_matches_hand_computation() {
        assert!((gm(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gm(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(gm(&[]), 0.0);
    }

    #[test]
    fn gm_of_empty_slice_is_finite_not_nan() {
        // Regression: the unguarded form `exp(sum/len)` divides 0.0/0 and
        // returns NaN, which then poisons every downstream geomean (a NaN
        // speedup compares false against any gate and silently passes
        // formatting). An all-faulted sweep reaches this path, so the empty
        // slice must map to a well-defined finite sentinel.
        let g = gm(&[]);
        assert!(!g.is_nan(), "geomean of no speedups must not be NaN");
        assert!(g.is_finite());
        assert_eq!(g, 0.0);
        // NaN would also break the summary gate comparison direction:
        assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn tmv_tuning_beats_baseline() {
        let dev = crate::device::default_speedup_device();
        let r = best_np(&Tmv::new(Scale::Test), &dev).expect("TMV tunes cleanly");
        assert!(
            r.speedup() > 1.2,
            "CUDA-NP must speed TMV up, got {:.2}x",
            r.speedup()
        );
        // At least one intra and one inter candidate must have run.
        assert!(r.tuned.entries.iter().any(|e| e.cycles().is_some()));
    }

    #[test]
    fn summary_reports_pass_and_fault_rows() {
        let dev = crate::device::default_speedup_device();
        let pass = WorkloadOutcome {
            name: "TMV",
            result: best_np(&Tmv::new(Scale::Test), &dev),
        };
        let fault = WorkloadOutcome {
            name: "BAD",
            result: Err(HarnessError::Tuning {
                workload: "BAD",
                source: cuda_np::TuneError::NoCandidates,
            }),
        };
        let outcomes = vec![pass, fault];
        let s = summary(&outcomes);
        assert!(s.contains("TMV   PASS"), "{s}");
        assert!(s.contains("races none"), "the race column reports the clean check: {s}");
        assert!(s.contains("BAD   FAULT"), "{s}");
        assert!(s.contains("1/2 workloads passed"), "{s}");
        assert!(!all_failed(&outcomes), "one pass means the run is not a failure");
        assert!(all_failed(&outcomes[1..]));

        // The counter table has a row for the completed workload only.
        let t = counter_table(&outcomes);
        assert!(t.contains("TMV"), "{t}");
        assert!(!t.contains("BAD"), "failed workloads have no counters: {t}");
        assert!(t.contains("->"), "{t}");

        // Same for the stall table, which also carries the attribution
        // header.
        let st = stall_table(&outcomes);
        assert!(st.contains("TMV"), "{st}");
        assert!(!st.contains("BAD"), "{st}");
        assert!(st.contains("% of SMX cycles"), "{st}");
    }
}
