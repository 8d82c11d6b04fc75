//! Auto-tuning (Section 4): CUDA-NP generates a small number of versions —
//! slave counts × {inter-warp, intra-warp} — and picks the fastest by
//! running each on the simulator. Candidates are evaluated on a bounded
//! pool of host threads (`min(available_parallelism, candidates)`) via
//! `std::thread::scope` since each simulation is independent; results are
//! collected into per-candidate slots so [`TuneResult::entries`] stays in
//! candidate order regardless of which worker finished first.

use crate::costmodel::{CostModel, TunePolicy};
use crate::options::{NpOptions, TransformError};
use crate::transform::{transform, Transformed};
use np_exec::{capture_launch, Args, ExecError, KernelReport, SimFault, SimOptions};
use np_gpu_sim::{CapturedLaunch, DeviceConfig};
use np_kernel_ir::kernel::Kernel;
use np_kernel_ir::pragma::NpType;
use np_kernel_ir::types::Dim3;

/// One configuration to evaluate.
#[derive(Debug, Clone)]
pub struct TuneCandidate {
    pub opts: NpOptions,
}

/// Why a candidate's launch never produced a report. Carrying the typed
/// cause (instead of a rendered string) lets serve and the harness classify
/// failures without string matching; [`LaunchFailure::class`] is the stable
/// classification key.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum LaunchFailure {
    /// Launch setup failed with a typed executor error (missing argument,
    /// argument type mismatch, occupancy rejection, replay error, ...).
    Exec(ExecError),
    /// The worker thread evaluating this candidate panicked — a harness or
    /// simulator bug, recorded with the candidate's identity.
    WorkerPanic {
        np_type: NpType,
        slave_size: u32,
        message: String,
    },
}

impl LaunchFailure {
    /// Stable machine-readable class of this failure, for dashboards and
    /// serve payloads (no string matching on rendered messages).
    pub fn class(&self) -> &'static str {
        match self {
            LaunchFailure::Exec(ExecError::MissingArg(_)) => "missing_arg",
            LaunchFailure::Exec(ExecError::ArgTypeMismatch { .. }) => "arg_type_mismatch",
            LaunchFailure::Exec(ExecError::Launch(_)) => "launch",
            LaunchFailure::Exec(ExecError::Replay(_)) => "replay",
            LaunchFailure::Exec(_) => "exec",
            LaunchFailure::WorkerPanic { .. } => "worker_panic",
        }
    }
}

impl std::fmt::Display for LaunchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchFailure::Exec(e) => write!(f, "{e}"),
            LaunchFailure::WorkerPanic { np_type, slave_size, message } => write!(
                f,
                "tuner worker panicked evaluating {np_type:?} slave_size={slave_size}: {message}"
            ),
        }
    }
}

/// How one candidate's evaluation ended. Non-exhaustive: new failure
/// classes may be added, so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum TuneOutcome {
    /// Ran to completion in this many simulated cycles.
    Ok { cycles: u64 },
    /// The transform rejected the configuration (e.g. block too large for
    /// this slave count) — expected pruning, not a kernel bug.
    Rejected(TransformError),
    /// The sanitizer detected a contract violation in the generated kernel
    /// (out-of-bounds access, race, divergent barrier, watchdog, ...).
    Faulted(SimFault),
    /// Launch setup failed (missing argument, occupancy) or the worker
    /// thread itself died — a harness problem rather than a kernel fault.
    LaunchFailed(LaunchFailure),
    /// The cost model pruned this candidate before evaluation (non-default
    /// [`TunePolicy`] only): never transformed, never simulated.
    Skipped,
}

impl TuneOutcome {
    fn from_launch_err(e: ExecError) -> Self {
        match e {
            ExecError::Fault(f) => TuneOutcome::Faulted(*f),
            other => TuneOutcome::LaunchFailed(LaunchFailure::Exec(other)),
        }
    }
}

impl std::fmt::Display for TuneOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneOutcome::Ok { cycles } => write!(f, "ok ({cycles} cycles)"),
            TuneOutcome::Rejected(e) => write!(f, "rejected: {e}"),
            TuneOutcome::Faulted(fault) => write!(f, "faulted: {fault}"),
            TuneOutcome::LaunchFailed(err) => write!(f, "launch failed: {err}"),
            TuneOutcome::Skipped => write!(f, "skipped (pruned by cost model)"),
        }
    }
}

/// Outcome of evaluating one candidate.
#[derive(Debug, Clone)]
pub struct TuneEntry {
    pub slave_size: u32,
    pub np_type: NpType,
    pub outcome: TuneOutcome,
    /// Launch-total profile counters when the candidate ran to completion —
    /// the evidence `npcc --explain` uses to say *why* the winner won.
    pub profile: Option<np_gpu_sim::ProfileCounters>,
    /// Device-wide stall breakdown from the timeline flight recorder, when
    /// the candidate ran to completion (buckets sum to
    /// `simulated_cycles × SMX count`).
    pub stall: Option<np_gpu_sim::StallBreakdown>,
}

impl TuneEntry {
    /// Simulated cycles; `None` unless the candidate ran to completion.
    pub fn cycles(&self) -> Option<u64> {
        match self.outcome {
            TuneOutcome::Ok { cycles } => Some(cycles),
            _ => None,
        }
    }

    /// The sanitizer fault, when this candidate's kernel violated the
    /// CUDA contract.
    pub fn fault(&self) -> Option<&SimFault> {
        match &self.outcome {
            TuneOutcome::Faulted(f) => Some(f),
            _ => None,
        }
    }
}

/// Why an entire auto-tuning run produced no winner. Individual candidate
/// failures are *not* errors — they become [`TuneEntry`] rows and tuning
/// continues; this error means there was nothing left to pick from.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum TuneError {
    /// The candidate set was empty.
    NoCandidates,
    /// Every candidate was rejected, faulted, or failed to launch. The
    /// entries record each candidate's outcome.
    AllFailed(Vec<TuneEntry>),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NoCandidates => write!(f, "no tuning candidates to evaluate"),
            TuneError::AllFailed(entries) => {
                write!(f, "all {} tuning candidates failed:", entries.len())?;
                for e in entries {
                    write!(
                        f,
                        " [{:?} s={}: {}]",
                        e.np_type, e.slave_size, e.outcome
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TuneError {}

/// Result of an auto-tuning run.
#[derive(Debug)]
pub struct TuneResult {
    /// The fastest transformed kernel.
    pub best: Transformed,
    /// Its launch report.
    pub best_report: KernelReport,
    /// The winner's captured interpretation: the frozen block traces its
    /// report was timed from. Re-timing the winner (different watchdog,
    /// artifact export, cache warm-up) replays this instead of
    /// re-interpreting the kernel.
    pub best_capture: CapturedLaunch,
    /// Every candidate's outcome, in candidate order.
    pub entries: Vec<TuneEntry>,
    /// Index of the winner in `entries` (== candidate order). Equal-cycle
    /// ties break toward the *earliest* candidate — an asserted contract,
    /// not an accident of pool scheduling.
    pub best_index: usize,
}

/// A [`TuneResult`] plus the search-policy bookkeeping: how many candidates
/// were actually simulated, how many the cost model skipped, whether a
/// model miss forced the exhaustive fallback, and where the measured winner
/// sat in the model's static ranking (0 = predicted first).
#[derive(Debug)]
pub struct PolicyTuneResult {
    pub result: TuneResult,
    /// The policy that produced this result.
    pub policy: TunePolicy,
    /// Candidates transformed + simulated (includes fallback rounds).
    pub evaluated: usize,
    /// Candidates the cost model pruned (their entries are `Skipped`).
    pub skipped: usize,
    /// A model miss (no runnable winner in the kept set, or an inverted
    /// prediction) forced evaluating the remaining candidates.
    pub fell_back: bool,
    /// 0-based rank the *static* cost model gave the measured winner.
    /// `None` when the model could not score the candidate set.
    pub predicted_rank: Option<usize>,
}

/// The paper's default search space: slave sizes {2, 4, 8, 16, 32} crossed
/// with inter-/intra-warp, filtered by the block-size cap and intra-warp
/// warp-containment.
pub fn default_candidates(master_size: u32, max_block_threads: u32) -> Vec<TuneCandidate> {
    let mut out = Vec::new();
    for s in [2u32, 4, 8, 16, 32] {
        if master_size * s > max_block_threads {
            continue;
        }
        out.push(TuneCandidate { opts: NpOptions::inter(s) });
        if s <= 32 {
            out.push(TuneCandidate { opts: NpOptions::intra(s) });
        }
    }
    out
}

/// Candidate set narrowed by the developer's pragma hints (Section 3.6):
/// `num_threads(N)` pins the slave count, `np_type(inter|intra)` pins the
/// distribution scheme, and `sm(V)` sets the target compute capability for
/// every candidate. Hints are taken from the first pragma loop that
/// specifies each of them; without hints this equals
/// [`default_candidates`].
pub fn candidates_from_pragmas(kernel: &Kernel, max_block_threads: u32) -> Vec<TuneCandidate> {
    use np_kernel_ir::stmt::{visit_stmts, Stmt};
    let mut num_threads: Option<u32> = None;
    let mut np_type: Option<NpType> = None;
    let mut sm: Option<u32> = None;
    visit_stmts(&kernel.body, &mut |s| {
        if let Stmt::For { pragma: Some(p), .. } = s {
            num_threads = num_threads.or(p.num_threads);
            np_type = np_type.or(p.np_type);
            sm = sm.or(p.sm_version);
        }
    });
    let mut out = default_candidates(kernel.block_dim.x, max_block_threads);
    if let Some(n) = num_threads {
        out.retain(|c| c.opts.slave_size == n);
        if out.is_empty() {
            // A hinted size outside the default grid is still honoured.
            out.push(TuneCandidate { opts: NpOptions::inter(n) });
            if n.is_power_of_two() && n <= 32 {
                out.push(TuneCandidate { opts: NpOptions::intra(n) });
            }
        }
    }
    if let Some(t) = np_type {
        out.retain(|c| c.opts.np_type == t);
    }
    if let Some(v) = sm {
        for c in &mut out {
            c.opts.sm_version = v;
        }
    }
    out
}

/// Evaluate the candidates `policy` selects and return the fastest.
/// `make_args` builds the launch arguments for one transformed kernel (it
/// must allocate the `extra_global_buffers` named in the transform report —
/// helper: [`alloc_extra_buffers`]).
///
/// Candidates whose transform is rejected, whose generated kernel faults
/// under the sanitizer, or whose launch fails are recorded as typed
/// [`TuneEntry`] rows and skipped; tuning continues with the remaining
/// candidates and errors only if *every* candidate fails (or the set is
/// empty). A worker thread dying never aborts the run: its candidate is
/// recorded as failed.
///
/// [`TunePolicy::Exhaustive`] evaluates every candidate and emits no
/// `tune.policy` events. The other policies evaluate only the candidates
/// the cost model keeps, falling back to the rest of the sweep on a model
/// miss — the safety net that makes `Pruned` and `Predict` unable to return
/// a slower winner than the candidates they evaluated could justify.
/// `Pruned { margin }` evaluates the statically-scored shortlist;
/// `Predict` evaluates the predicted winner as a pilot, refines the model
/// with the pilot's measured counters, then evaluates the refined
/// shortlist. In both the fallback triggers when the evaluated set
/// produced no runnable winner, or when the measured winner was the
/// *worst*-predicted of the evaluated set (an inverted model is not to be
/// trusted about the candidates it skipped).
pub fn autotune_with_policy(
    kernel: &Kernel,
    dev: &DeviceConfig,
    grid: Dim3,
    make_args: &(dyn Fn(&Transformed) -> Args + Sync),
    sim: &SimOptions,
    candidates: &[TuneCandidate],
    policy: TunePolicy,
) -> Result<PolicyTuneResult, TuneError> {
    if candidates.is_empty() {
        return Err(TuneError::NoCandidates);
    }
    let model = CostModel::from_kernel(kernel, dev);
    let ranking = model.rank(candidates);
    let narrowing = !policy.is_exhaustive();

    let _tune_span = np_obs::span("tune");
    if narrowing {
        np_obs::event(
            np_obs::Level::Debug,
            "tune.policy",
            vec![np_obs::kv("policy", policy.label())],
        );
    }

    // Round 1: the policy's kept set, in candidate order.
    let keep: Vec<usize> = match policy {
        TunePolicy::Exhaustive => (0..candidates.len()).collect(),
        TunePolicy::Pruned { margin } => model.keep_within(candidates, margin),
        TunePolicy::Predict => {
            // Pilot = the model's static first choice (best finite score).
            ranking
                .iter()
                .copied()
                .find(|&i| model.score(&candidates[i]).is_finite())
                .map(|i| vec![i])
                .unwrap_or_else(|| (0..candidates.len()).collect())
        }
    };
    let mut evaluated: Vec<Option<(TuneOutcome, Option<EvalSlot>)>> =
        candidates.iter().map(|_| None).collect();
    let run_round = |idx: &[usize],
                         evaluated: &mut Vec<Option<(TuneOutcome, Option<EvalSlot>)>>| {
        let fresh: Vec<usize> = idx.iter().copied().filter(|&i| evaluated[i].is_none()).collect();
        let results = evaluate_indices(kernel, dev, grid, make_args, sim, candidates, &fresh);
        for (i, r) in fresh.into_iter().zip(results) {
            evaluated[i] = Some(r);
        }
    };
    run_round(&keep, &mut evaluated);

    // Predict round 2: refine the model with the pilot's measured counters
    // and evaluate the refined shortlist (usually 1-2 more candidates).
    // The refined model also prices promotions below, so the pilot's
    // counters inform which skipped candidates still look threatening.
    let mut scoring = model;
    if matches!(policy, TunePolicy::Predict) {
        if let Some(&pilot) = keep.first() {
            if let Some((TuneOutcome::Ok { .. }, Some(slot))) = &evaluated[pilot] {
                scoring.refine(&slot.1.profile.total, &slot.1.timing.stall);
            }
        }
        let shortlist: Vec<usize> = scoring
            .rank(candidates)
            .into_iter()
            .filter(|&i| scoring.score(&candidates[i]).is_finite())
            .take(2)
            .collect();
        run_round(&shortlist, &mut evaluated);
    }

    // Promotion loop — the mechanism that makes pruning *safe* rather than
    // hopeful. The model ranks candidates well, but its absolute scale
    // drifts per workload (score/cycles ranges roughly 0.4–4x across the
    // Table-1 kernels), so "score < measured best" would trust the model
    // exactly where it is weakest. Instead the loop calibrates the scale
    // online: every evaluated candidate yields an observed score/cycles
    // ratio, and a skipped candidate is left unmeasured only if its score
    // clears the measured winner scaled by the *largest* observed ratio
    // times a safety factor — i.e. even under the most pessimistic
    // score-inflation seen on this very workload it still couldn't win.
    // Each round evaluates at least one fresh candidate, so the loop runs
    // at most `candidates.len()` times. If the kept set produced no
    // runnable winner at all, fall back to the full sweep instead.
    const PROMOTE_SAFETY: f64 = 1.5;
    let measured_best_cycles = |evaluated: &[Option<(TuneOutcome, Option<EvalSlot>)>]| {
        evaluated
            .iter()
            .filter_map(|r| match r {
                Some((TuneOutcome::Ok { cycles }, _)) => Some(*cycles),
                _ => None,
            })
            .min()
    };
    let mut fell_back = false;
    if narrowing {
        loop {
            match measured_best_cycles(&evaluated) {
                None => {
                    fell_back = true;
                    let rest: Vec<usize> = (0..candidates.len()).collect();
                    run_round(&rest, &mut evaluated);
                    break;
                }
                Some(best_cycles) => {
                    let max_ratio = (0..candidates.len())
                        .filter_map(|i| match &evaluated[i] {
                            Some((TuneOutcome::Ok { cycles }, _)) if *cycles > 0 => {
                                let s = scoring.score(&candidates[i]);
                                s.is_finite().then_some(s / *cycles as f64)
                            }
                            _ => None,
                        })
                        .fold(0.0f64, f64::max);
                    let threshold = best_cycles as f64 * max_ratio * PROMOTE_SAFETY;
                    let promote: Vec<usize> = (0..candidates.len())
                        .filter(|&i| {
                            evaluated[i].is_none()
                                && scoring.score(&candidates[i]) < threshold
                        })
                        .collect();
                    if promote.is_empty() {
                        break;
                    }
                    run_round(&promote, &mut evaluated);
                }
            }
        }
    }

    let mut slots: Vec<Option<EvalSlot>> = Vec::new();
    let mut entries: Vec<TuneEntry> = Vec::new();
    let mut n_evaluated = 0usize;
    for (i, cand) in candidates.iter().enumerate() {
        let (outcome, slot) = match evaluated[i].take() {
            Some(r) => {
                n_evaluated += 1;
                r
            }
            None => (TuneOutcome::Skipped, None),
        };
        record_outcome(cand, &outcome);
        entries.push(entry_of(cand, outcome, slot.as_ref()));
        slots.push(slot);
    }
    if narrowing {
        np_obs::event(
            np_obs::Level::Debug,
            "tune.policy.summary",
            vec![
                np_obs::kv("evaluated", n_evaluated as u64),
                np_obs::kv("skipped", (candidates.len() - n_evaluated) as u64),
                np_obs::kv("fell_back", if fell_back { "true" } else { "false" }),
            ],
        );
    }
    let result = finish(entries, slots)?;
    let predicted_rank = ranking.iter().position(|&i| i == result.best_index);
    Ok(PolicyTuneResult {
        evaluated: n_evaluated,
        skipped: candidates.len() - n_evaluated,
        fell_back,
        predicted_rank,
        policy,
        result,
    })
}

type EvalSlot = (Transformed, KernelReport, CapturedLaunch);

/// Evaluate the candidates at `indices` on a bounded pool and return their
/// results in `indices` order. Observability: each evaluation records into
/// its own forked recorder; after the pool joins, forks are adopted back in
/// `indices` order — the merged log is a pure function of the index list,
/// never of OS scheduling.
fn evaluate_indices(
    kernel: &Kernel,
    dev: &DeviceConfig,
    grid: Dim3,
    make_args: &(dyn Fn(&Transformed) -> Args + Sync),
    sim: &SimOptions,
    candidates: &[TuneCandidate],
    indices: &[usize],
) -> Vec<(TuneOutcome, Option<EvalSlot>)> {
    type CandResult = (TuneOutcome, Option<EvalSlot>);
    if indices.is_empty() {
        return Vec::new();
    }
    let obs = np_obs::current();
    let forks: Vec<Option<np_obs::Recorder>> = indices
        .iter()
        .map(|_| obs.as_ref().map(|o| o.rec.fork()))
        .collect();

    // A bounded pool, not one OS thread per candidate: workers claim
    // positions off a shared counter and park each result in that
    // position's slot, so result order is `indices` order no matter how
    // evaluations interleave.
    let n_workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(indices.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<CandResult>>> =
        indices.iter().map(|_| std::sync::Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let pos = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&ci) = indices.get(pos) else { break };
                let cand = &candidates[ci];
                let eval = || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> CandResult {
                        let _cand_span = np_obs::span("tune.candidate");
                        let t = match transform(kernel, &cand.opts) {
                            Ok(t) => t,
                            Err(e) => return (TuneOutcome::Rejected(e), None),
                        };
                        let mut args = make_args(&t);
                        // One interpretation per candidate; the report is
                        // timed from the frozen capture, which the winner
                        // carries out so later re-timings replay instead of
                        // re-interpreting.
                        match capture_launch(dev, &t.kernel, grid, &mut args, sim) {
                            Ok((rep, cap)) => {
                                let cycles = rep.cycles;
                                (TuneOutcome::Ok { cycles }, Some((t, rep, cap)))
                            }
                            Err(e) => (TuneOutcome::from_launch_err(e), None),
                        }
                    }))
                };
                let run = match &forks[pos] {
                    Some(fork) => np_obs::scope(
                        fork,
                        obs.as_ref().and_then(|o| o.registry.as_ref()),
                        obs.as_ref().and_then(|o| o.corr.as_deref()),
                        eval,
                    ),
                    None => eval(),
                };
                // A worker can only panic through a bug in make_args or the
                // simulator itself; record which candidate died (and what it
                // said) and keep tuning.
                let result = run.unwrap_or_else(|payload| {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    (
                        TuneOutcome::LaunchFailed(LaunchFailure::WorkerPanic {
                            np_type: cand.opts.np_type,
                            slave_size: cand.opts.slave_size,
                            message,
                        }),
                        None,
                    )
                });
                *results[pos].lock().expect("tuner slot lock") = Some(result);
            });
        }
    });

    // Splice the per-candidate logs back under the tune span, strictly in
    // `indices` order (never completion order).
    if let Some(o) = &obs {
        for fork in forks.iter().flatten() {
            o.rec.adopt(fork, o.parent);
        }
    }

    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("tuner slot lock")
                .expect("every claimed candidate was evaluated")
        })
        .collect()
}

/// Bump the per-outcome counters and emit the `tune.outcome` event for one
/// candidate — always in candidate order, after the pool has joined.
fn record_outcome(cand: &TuneCandidate, outcome: &TuneOutcome) {
    let label = match outcome {
        TuneOutcome::Ok { .. } => "ok",
        TuneOutcome::Rejected(_) => "rejected",
        TuneOutcome::Faulted(_) => "faulted",
        TuneOutcome::LaunchFailed(_) => "launch_failed",
        TuneOutcome::Skipped => "skipped",
    };
    np_obs::bump("tuner.candidates.total");
    np_obs::bump(&format!("tuner.candidates.{label}"));
    let mut fields = vec![
        np_obs::kv("slave_size", cand.opts.slave_size),
        np_obs::kv("np_type", format!("{:?}", cand.opts.np_type)),
        np_obs::kv("outcome", label),
    ];
    if let TuneOutcome::Ok { cycles } = outcome {
        fields.push(np_obs::kv("cycles", *cycles));
    }
    np_obs::event(np_obs::Level::Debug, "tune.outcome", fields);
}

fn entry_of(cand: &TuneCandidate, outcome: TuneOutcome, slot: Option<&EvalSlot>) -> TuneEntry {
    TuneEntry {
        slave_size: cand.opts.slave_size,
        np_type: cand.opts.np_type,
        outcome,
        profile: slot.map(|(_, rep, _)| rep.profile.total.clone()),
        stall: slot.map(|(_, rep, _)| rep.timing.stall.clone()),
    }
}

/// Pick the winner out of the completed entries: fewest cycles, equal-cycle
/// ties broken toward the earliest candidate in declared order.
fn finish(
    entries: Vec<TuneEntry>,
    mut slots: Vec<Option<EvalSlot>>,
) -> Result<TuneResult, TuneError> {
    let best_idx = entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.cycles().map(|c| (i, c)))
        .min_by_key(|&(_, c)| c)
        .map(|(i, _)| i);
    let Some(best_idx) = best_idx else {
        return Err(TuneError::AllFailed(entries));
    };
    // The tie-break contract: no earlier candidate may match the winning
    // cycle count (min_by_key keeps the first minimum; this assertion makes
    // that behaviour a tested invariant rather than an accident).
    debug_assert_eq!(
        entries.iter().position(|e| e.cycles() == entries[best_idx].cycles()),
        Some(best_idx),
        "equal-cycle ties must break toward the earliest candidate"
    );
    // Internal invariant: an Ok entry always has its (Transformed, report,
    // capture).
    let (best, best_report, best_capture) = slots[best_idx].take().expect("winner has a slot");
    Ok(TuneResult { best, best_report, best_capture, entries, best_index: best_idx })
}

/// Add the transform's extra global buffers (relocated local arrays) to an
/// argument set, zero-initialized at the right size for `grid`.
pub fn alloc_extra_buffers(mut args: Args, t: &Transformed, grid: Dim3) -> Args {
    for (name, elems_per_block) in &t.report.extra_global_buffers {
        let total = (elems_per_block * grid.count()) as usize;
        args = args.buf_f32(name, vec![0.0; total]);
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::KernelBuilder;

    /// The exhaustive sweep under full simulation options.
    fn tune_all(
        k: &Kernel,
        dev: &DeviceConfig,
        grid: Dim3,
        make_args: &(dyn Fn(&Transformed) -> Args + Sync),
        candidates: &[TuneCandidate],
    ) -> Result<TuneResult, TuneError> {
        let sim = SimOptions::full();
        autotune_with_policy(k, dev, grid, make_args, &sim, candidates, TunePolicy::Exhaustive)
            .map(|p| p.result)
    }

    fn kernel_with_pragma(text: &str) -> Kernel {
        let mut b = KernelBuilder::new("k", 64);
        b.param_global_f32("out");
        b.decl_f32("s", f(0.0));
        b.pragma_for(text, "i", i(0), i(16), |b| {
            b.assign("s", v("s") + f(1.0));
        });
        b.store("out", tidx(), v("s"));
        b.finish()
    }

    #[test]
    fn default_candidates_respect_block_cap() {
        let c = default_candidates(512, 1024);
        assert!(c.iter().all(|c| 512 * c.opts.slave_size <= 1024));
        assert!(!c.is_empty());
    }

    #[test]
    fn num_threads_hint_pins_slave_size() {
        let k = kernel_with_pragma("np parallel for reduction(+:s) num_threads(8)");
        let c = candidates_from_pragmas(&k, 1024);
        assert!(!c.is_empty());
        assert!(c.iter().all(|c| c.opts.slave_size == 8), "{c:?}");
    }

    #[test]
    fn np_type_hint_pins_scheme() {
        let k = kernel_with_pragma("np parallel for reduction(+:s) np_type(intra)");
        let c = candidates_from_pragmas(&k, 1024);
        assert!(!c.is_empty());
        assert!(c.iter().all(|c| c.opts.np_type == NpType::IntraWarp));
    }

    #[test]
    fn sm_hint_propagates_to_all_candidates() {
        let k = kernel_with_pragma("np parallel for reduction(+:s) sm(20)");
        let c = candidates_from_pragmas(&k, 1024);
        assert!(c.iter().all(|c| c.opts.sm_version == 20));
        // sm 20 means intra-warp candidates exist but cannot use shfl.
        assert!(c
            .iter()
            .filter(|c| c.opts.np_type == NpType::IntraWarp)
            .all(|c| !c.opts.shfl_enabled()));
    }

    #[test]
    fn without_hints_equals_default() {
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let c = candidates_from_pragmas(&k, 1024);
        assert_eq!(c.len(), default_candidates(64, 1024).len());
    }

    #[test]
    fn faulting_candidate_is_recorded_and_skipped() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        assert!(candidates.len() > 2, "need a mixed candidate set");
        // Sabotage exactly the slave_size-4 variants: a 1-element output
        // buffer makes their generated kernels store out of bounds.
        let make_args = |t: &Transformed| {
            let n = if t.report.slave_size == 4 { 1 } else { 64 };
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; n]), t, grid)
        };
        let r = tune_all(&k, &dev, grid, &make_args, &candidates)
            .expect("non-faulting candidates remain");
        let faulted: Vec<_> = r.entries.iter().filter(|e| e.fault().is_some()).collect();
        assert!(!faulted.is_empty(), "sabotaged candidates must be recorded");
        assert!(faulted.iter().all(|e| e.slave_size == 4), "{faulted:?}");
        assert!(matches!(
            faulted[0].fault().unwrap().kind,
            np_exec::FaultKind::OutOfBounds { .. }
        ));
        assert_ne!(r.best.report.slave_size, 4, "a faulting variant must not win");
        let min = r.entries.iter().filter_map(|e| e.cycles()).min().unwrap();
        assert_eq!(r.best_report.cycles, min, "winner is the fastest clean candidate");
    }

    #[test]
    fn entries_record_profiles_for_completed_candidates() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        let make_args = |t: &Transformed| {
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 64]), t, grid)
        };
        let r = tune_all(&k, &dev, grid, &make_args, &candidates).expect("tuning succeeds");
        for e in &r.entries {
            match &e.outcome {
                TuneOutcome::Ok { .. } => {
                    let p = e.profile.as_ref().expect("completed candidate has counters");
                    assert!(p.instructions > 0);
                    let eff = p.coalescing_efficiency();
                    assert!(eff > 0.0 && eff <= 1.0);
                    let st = e.stall.as_ref().expect("completed candidate has a breakdown");
                    assert!(st.issue > 0, "a completed run must have issued: {st:?}");
                }
                _ => {
                    assert!(e.profile.is_none(), "failed candidate must not carry counters");
                    assert!(e.stall.is_none(), "failed candidate must not carry a breakdown");
                }
            }
        }
        // The winner's entry counters equal the winning report's totals.
        let w = r
            .entries
            .iter()
            .find(|e| e.cycles() == Some(r.best_report.cycles))
            .expect("winner entry");
        assert_eq!(w.profile.as_ref().unwrap(), &r.best_report.profile.total);
    }

    #[test]
    fn panicking_worker_is_recorded_with_candidate_identity() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        assert!(candidates.len() > 2, "need a mixed candidate set");
        // make_args blows up for exactly the inter-warp slave_size-4
        // candidate; every other candidate must still be evaluated.
        let make_args = |t: &Transformed| {
            if t.report.slave_size == 4 && t.report.np_type == Some(NpType::InterWarp) {
                panic!("boom in make_args");
            }
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 64]), t, grid)
        };
        let r = tune_all(&k, &dev, grid, &make_args, &candidates)
            .expect("surviving candidates still produce a winner");
        assert_eq!(r.entries.len(), candidates.len());
        // Entries stay in candidate order.
        for (e, c) in r.entries.iter().zip(&candidates) {
            assert_eq!(e.slave_size, c.opts.slave_size);
            assert_eq!(e.np_type, c.opts.np_type);
        }
        let dead: Vec<_> = r
            .entries
            .iter()
            .filter(|e| matches!(e.outcome, TuneOutcome::LaunchFailed(_)))
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", r.entries);
        assert_eq!(dead[0].slave_size, 4);
        assert_eq!(dead[0].np_type, NpType::InterWarp);
        let TuneOutcome::LaunchFailed(err) = &dead[0].outcome else { unreachable!() };
        // The typed failure carries the candidate identity and the payload…
        assert_eq!(err.class(), "worker_panic");
        assert!(matches!(
            err,
            LaunchFailure::WorkerPanic { np_type: NpType::InterWarp, slave_size: 4, .. }
        ));
        // …and the rendered message keeps the pre-typed wording.
        let msg = err.to_string();
        assert!(msg.contains("slave_size=4"), "{msg}");
        assert!(msg.contains("InterWarp"), "{msg}");
        assert!(msg.contains("boom in make_args"), "{msg}");
        assert!(
            !(r.best.report.np_type == Some(NpType::InterWarp) && r.best.report.slave_size == 4),
            "the panicked candidate must not win"
        );
    }

    #[test]
    fn all_candidates_faulting_is_a_typed_error() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        // Every variant stores past this 1-element output buffer.
        let make_args =
            |t: &Transformed| alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 1]), t, grid);
        let err = tune_all(&k, &dev, grid, &make_args, &candidates).unwrap_err();
        match err {
            TuneError::AllFailed(entries) => {
                assert_eq!(entries.len(), candidates.len());
                assert!(entries.iter().all(|e| e.fault().is_some()), "{entries:?}");
            }
            other => panic!("expected AllFailed, got {other:?}"),
        }
    }

    #[test]
    fn empty_candidate_set_is_a_typed_error() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let err = tune_all(&k, &dev, Dim3::x1(1), &|_| Args::new(), &[]).unwrap_err();
        assert!(matches!(err, TuneError::NoCandidates));
    }

    #[test]
    fn equal_cycle_ties_break_toward_declared_candidate_order() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        // Duplicate configurations: the simulator is deterministic, so the
        // two copies tie exactly — the winner must be the first declared,
        // not whichever worker finished first.
        let one = TuneCandidate { opts: NpOptions::inter(4) };
        let candidates = vec![one.clone(), one.clone(), one];
        let make_args = |t: &Transformed| {
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 64]), t, grid)
        };
        for _ in 0..4 {
            let r = tune_all(&k, &dev, grid, &make_args, &candidates).expect("tuning succeeds");
            let cycles: Vec<_> = r.entries.iter().map(|e| e.cycles().unwrap()).collect();
            assert_eq!(cycles[0], cycles[1]);
            assert_eq!(cycles[1], cycles[2]);
            assert_eq!(r.best_index, 0, "tie must break toward the earliest candidate");
        }
    }

    #[test]
    fn best_index_points_at_the_winning_entry() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        let make_args = |t: &Transformed| {
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 64]), t, grid)
        };
        let r = tune_all(&k, &dev, grid, &make_args, &candidates).expect("tuning succeeds");
        assert_eq!(r.entries[r.best_index].cycles(), Some(r.best_report.cycles));
        // No earlier candidate matches the winning cycles (the tie-break).
        assert!(r.entries[..r.best_index]
            .iter()
            .all(|e| e.cycles() != Some(r.best_report.cycles)));
    }

    #[test]
    fn exhaustive_policy_is_plain_autotune_plus_bookkeeping() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        let make_args = |t: &Transformed| {
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 64]), t, grid)
        };
        let p = autotune_with_policy(
            &k, &dev, grid, &make_args, &SimOptions::full(), &candidates,
            TunePolicy::Exhaustive,
        )
        .expect("tuning succeeds");
        let cycles: Vec<u64> = p.result.entries.iter().filter_map(TuneEntry::cycles).collect();
        assert_eq!(cycles.len(), candidates.len(), "every candidate is simulated");
        assert_eq!(Some(p.result.best_report.cycles), cycles.iter().copied().min());
        assert_eq!(p.evaluated, candidates.len());
        assert_eq!(p.skipped, 0);
        assert!(!p.fell_back);
        assert!(p.predicted_rank.is_some());
    }

    #[test]
    fn pruned_policy_never_picks_a_slower_winner_and_marks_skips() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        let make_args = |t: &Transformed| {
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; 64]), t, grid)
        };
        let exhaustive = tune_all(&k, &dev, grid, &make_args, &candidates)
            .expect("tuning succeeds");
        for policy in [
            TunePolicy::Pruned { margin: crate::costmodel::DEFAULT_PRUNE_MARGIN },
            TunePolicy::Predict,
        ] {
            let p = autotune_with_policy(
                &k, &dev, grid, &make_args, &SimOptions::full(), &candidates, policy,
            )
            .expect("tuning succeeds");
            assert!(
                p.result.best_report.cycles <= exhaustive.best_report.cycles,
                "{policy:?} returned a slower winner: {} > {}",
                p.result.best_report.cycles,
                exhaustive.best_report.cycles
            );
            assert_eq!(p.evaluated + p.skipped, candidates.len());
            assert_eq!(p.result.entries.len(), candidates.len());
            let skipped = p
                .result
                .entries
                .iter()
                .filter(|e| matches!(e.outcome, TuneOutcome::Skipped))
                .count();
            assert_eq!(skipped, p.skipped);
            // Skipped entries carry no counters: they were never simulated.
            assert!(p
                .result
                .entries
                .iter()
                .filter(|e| matches!(e.outcome, TuneOutcome::Skipped))
                .all(|e| e.profile.is_none() && e.stall.is_none()));
        }
    }

    #[test]
    fn pruned_policy_falls_back_when_kept_set_cannot_run() {
        let dev = DeviceConfig::gtx680();
        let k = kernel_with_pragma("np parallel for reduction(+:s)");
        let grid = Dim3::x1(1);
        let candidates = default_candidates(64, 1024);
        // Compute which candidates a zero-margin prune keeps, then sabotage
        // exactly those: the fallback must evaluate the rest and still
        // find a winner.
        let model = crate::costmodel::CostModel::from_kernel(&k, &dev);
        let keep = model.keep_within(&candidates, 0.0);
        assert!(keep.len() < candidates.len(), "prune must actually prune");
        let kept: Vec<(u32, NpType)> = keep
            .iter()
            .map(|&i| (candidates[i].opts.slave_size, candidates[i].opts.np_type))
            .collect();
        let make_args = move |t: &Transformed| {
            let sabotaged = kept
                .iter()
                .any(|&(s, n)| t.report.slave_size == s && t.report.np_type == Some(n));
            let len = if sabotaged { 1 } else { 64 };
            alloc_extra_buffers(Args::new().buf_f32("out", vec![0.0; len]), t, grid)
        };
        let p = autotune_with_policy(
            &k, &dev, grid, &make_args, &SimOptions::full(), &candidates,
            TunePolicy::Pruned { margin: 0.0 },
        )
        .expect("fallback finds the surviving candidates");
        assert!(p.fell_back, "an unrunnable kept set must trigger the fallback");
        assert_eq!(p.skipped, 0, "fallback evaluates everything");
        assert!(matches!(
            p.result.entries[p.result.best_index].outcome,
            TuneOutcome::Ok { .. }
        ));
    }

    #[test]
    fn off_grid_hint_is_still_honoured() {
        let k = kernel_with_pragma("np parallel for reduction(+:s) num_threads(6)");
        let c = candidates_from_pragmas(&k, 1024);
        assert_eq!(c.len(), 1, "6 is not a power of two: inter-warp only");
        assert_eq!(c[0].opts.slave_size, 6);
        assert_eq!(c[0].opts.np_type, NpType::InterWarp);
    }
}
