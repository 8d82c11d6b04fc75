//! Kernel launching: binds arguments, checks occupancy, streams block
//! traces from the interpreter into the timing engine, and packages the
//! result.
//!
//! ## Parallel per-block interpretation
//!
//! Thread blocks of one kernel launch are independent except for global
//! memory, and the CUDA-NP transform never introduces inter-block
//! communication — so functional interpretation (the hot path) can fan
//! out across host threads. Each worker runs whole blocks against an
//! immutable snapshot of global memory, journaling its stores instead of
//! applying them; the main thread then *merges in block order*, which
//! keeps every observable byte — output buffers, golden counters, race
//! reports, chrome traces — identical to a sequential run:
//!
//! * a block that read an element some earlier block wrote (cross-block
//!   read-after-write, possible only for arrays the kernel both loads and
//!   stores) invalidates the snapshot run; the launch falls back to plain
//!   sequential interpretation from the untouched pre-launch state;
//! * the watchdog budget is a whole-launch bound, so each worker runs
//!   with the full budget and the merge re-cuts: a block whose step count
//!   exceeds the budget remaining *at its sequential position* becomes a
//!   watchdog fault, and its journaled stores are applied only up to the
//!   cut;
//! * a real fault in block `b` stops the merge exactly where a sequential
//!   run would have stopped: earlier blocks' stores land, later blocks'
//!   never ran as far as the caller can tell;
//! * each worker race-checks its block with a recorder of its own, pcs
//!   counted from the block's first step; the merge appends the block
//!   reports in block order, rebasing pcs by the cumulative step count
//!   and applying the finding cap across blocks — reproducing the
//!   sequential report byte for byte.
//!
//! Fault injection (one seeded counter across blocks) and
//! [`RaceCheckMode::Fatal`] (mid-launch abort at an exact global step)
//! are inherently sequential and force the fallback path.

use crate::fault::{FaultKind, SimFault};
use crate::interp::{bit_set, bitmaps_intersect, BlockLog, LaunchCtx, StoreRec, Vm};
use crate::machine::{Args, ExecError, GlobalState};
use crate::program::Program;
use crate::resources::estimate_resources;
use np_gpu_sim::capture::CapturedLaunch;
use np_gpu_sim::config::DeviceConfig;
use np_gpu_sim::engine::simulate_blocks;
use np_gpu_sim::mem::inject::InjectConfig;
use np_gpu_sim::occupancy::{occupancy, KernelResources, Occupancy};
use np_gpu_sim::profile::ProfileReport;
use np_gpu_sim::racecheck::{RaceCheckOptions, RaceRecorder, RaceReport};
/// Re-exported from the simulator, where captures record it.
pub use np_gpu_sim::racecheck::RaceCheckMode;
use np_gpu_sim::replay::ReplayError;
use np_gpu_sim::stats::TimingReport;
use np_gpu_sim::trace::BlockTrace;
use np_kernel_ir::kernel::Kernel;
use np_kernel_ir::slots::InternedKernel;
use np_kernel_ir::types::Dim3;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotone count of functional kernel interpretations this process has
/// performed (one per [`launch`] or [`capture_launch`]; replays do not
/// count). Tests use deltas of this to assert "interpret once, replay
/// many" — e.g. that a tuner sweep interprets each transformed kernel
/// exactly once.
static INTERPRETATIONS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide interpretation counter.
pub fn interpretation_count() -> u64 {
    INTERPRETATIONS.load(Ordering::SeqCst)
}

/// Default watchdog budget: far above anything a legitimate workload
/// interprets, yet reached within seconds by a runaway empty loop.
pub const DEFAULT_WATCHDOG_STEPS: u64 = 1 << 28;

/// A wall-clock bound on one launch. Unlike the watchdog's deterministic
/// step budget this depends on host speed and load: it exists so a serving
/// layer can promise "a stuck worker frees itself within the request's
/// deadline" regardless of how expensive a step happens to be. Expiry
/// surfaces as [`FaultKind::Deadline`], which
/// [`FaultKind::transient`] classifies as retryable.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineSpec {
    /// Absolute expiry instant.
    pub at: std::time::Instant,
    /// The budget the deadline was derived from (carried into the fault so
    /// clients see what they asked for, not what remained at admission).
    pub budget_ms: u64,
}

impl DeadlineSpec {
    /// A deadline `budget_ms` milliseconds from now.
    pub fn in_ms(budget_ms: u64) -> Self {
        DeadlineSpec {
            at: std::time::Instant::now() + std::time::Duration::from_millis(budget_ms),
            budget_ms,
        }
    }

    /// Already past?
    pub fn expired(&self) -> bool {
        std::time::Instant::now() >= self.at
    }
}

/// Simulation options for one launch.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Simulate at most this many thread blocks and scale cycles linearly
    /// to the full grid (wave sampling). Functional output is then only
    /// produced for the simulated blocks — use full simulation whenever the
    /// numerical result matters.
    pub max_blocks: Option<u64>,
    /// Watchdog: fault with [`crate::FaultKind::Watchdog`] once the launch
    /// has interpreted this many steps. `None` disables the watchdog
    /// entirely; the default budget is [`DEFAULT_WATCHDOG_STEPS`].
    pub watchdog_steps: Option<u64>,
    /// Wall-clock deadline for the whole launch. Checked every
    /// [`DEADLINE_CHECK_MASK`]+1 interpreted steps; expiry faults with
    /// [`FaultKind::Deadline`]. Arming a deadline forces the sequential
    /// interpretation path (a wall-clock cut has no deterministic
    /// per-block merge position). `None` (the default) disables it.
    pub deadline: Option<DeadlineSpec>,
    /// Seeded memory fault injection (bit flips and forced faults); see
    /// [`np_gpu_sim::mem::inject`]. Off by default.
    pub fault_injection: Option<InjectConfig>,
    /// The thread-granular happens-before race checker (shared + global
    /// spaces, barrier epochs): [`RaceCheckMode::Record`] fills
    /// [`KernelReport::race`], [`RaceCheckMode::Fatal`] faults with
    /// [`FaultKind::RaceDetected`] at the first finding. Off by default.
    pub check_races: RaceCheckMode,
    /// Finding cap and master/slave gating policy for the race checker.
    pub race_options: RaceCheckOptions,
    /// Host threads for per-block functional interpretation. `None` (the
    /// default) uses `min(available_parallelism, simulated blocks)`;
    /// `Some(1)` forces the sequential path. Purely a host-side throughput
    /// knob: every observable byte of the report is identical either way.
    pub interp_threads: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_blocks: None,
            watchdog_steps: Some(DEFAULT_WATCHDOG_STEPS),
            deadline: None,
            fault_injection: None,
            check_races: RaceCheckMode::Off,
            race_options: RaceCheckOptions::default(),
            interp_threads: None,
        }
    }
}

impl SimOptions {
    /// Full simulation, derived resources.
    pub fn full() -> Self {
        SimOptions::default()
    }

    /// Sampled simulation of at most `n` blocks.
    pub fn sampled(n: u64) -> Self {
        SimOptions { max_blocks: Some(n), ..Default::default() }
    }

    /// Replace the watchdog step budget (`None` disables it).
    pub fn with_watchdog(mut self, steps: Option<u64>) -> Self {
        self.watchdog_steps = steps;
        self
    }

    /// Arm a wall-clock deadline (`None` disarms).
    pub fn with_deadline(mut self, deadline: Option<DeadlineSpec>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Arm a wall-clock deadline `budget_ms` milliseconds from now.
    pub fn with_deadline_ms(self, budget_ms: u64) -> Self {
        self.with_deadline(Some(DeadlineSpec::in_ms(budget_ms)))
    }

    /// Arm seeded memory fault injection.
    pub fn with_injection(mut self, cfg: InjectConfig) -> Self {
        self.fault_injection = Some(cfg);
        self
    }

    /// Arm the happens-before race checker in the given mode.
    pub fn with_race_check(mut self, mode: RaceCheckMode) -> Self {
        self.check_races = mode;
        self
    }

    /// Set the race checker's finding cap / gating policy.
    pub fn with_race_options(mut self, opts: RaceCheckOptions) -> Self {
        self.race_options = opts;
        self
    }

    /// Full simulation with the happens-before checker recording findings.
    pub fn race_checked() -> Self {
        SimOptions::default().with_race_check(RaceCheckMode::Record)
    }

    /// Pin the interpreter worker-pool size (`Some(1)` forces the
    /// sequential path, `None` restores the automatic choice).
    pub fn with_interp_threads(mut self, n: Option<usize>) -> Self {
        self.interp_threads = n;
        self
    }
}

/// Everything a launch produces besides the functional output (which lands
/// back in the [`Args`] buffers).
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub kernel_name: String,
    pub timing: TimingReport,
    pub occupancy: Occupancy,
    pub resources: KernelResources,
    /// Deterministic per-launch hardware counters, exact for every simulated
    /// block (never scaled by wave sampling).
    pub profile: ProfileReport,
    /// Happens-before race findings (`checked == false` when the launch ran
    /// with [`RaceCheckMode::Off`]).
    pub race: RaceReport,
    /// Total cycles (same as `timing.cycles`, hoisted for convenience).
    pub cycles: u64,
    /// Wall time at the device clock.
    pub time_us: f64,
}

impl KernelReport {
    /// Effective global-memory bandwidth achieved in GB/s.
    pub fn bandwidth_gbps(&self, dev: &DeviceConfig) -> f64 {
        let bytes = if self.timing.is_sampled() && self.timing.blocks_simulated > 0 {
            // Scale sampled traffic up to the full grid. The simulated-block
            // guard matters: an empty sample (blocks_simulated == 0 with a
            // nonzero grid) would otherwise multiply the already-total byte
            // count by blocks_total — double counting.
            self.timing.global_bytes as f64 * self.timing.blocks_total as f64
                / self.timing.blocks_simulated as f64
        } else {
            self.timing.global_bytes as f64
        };
        dev.bandwidth_gbps(bytes as u64, self.cycles)
    }

    /// Chrome-trace (about://tracing) export: the profile counter events
    /// plus one duration-event track per SMX from the timeline flight
    /// recorder (`tid` "smx N", `ts`/`dur` in cycles).
    pub fn chrome_trace(&self) -> String {
        let s = self.profile.to_chrome_trace(&self.kernel_name);
        let tl = self.timing.timeline.chrome_trace_events(&self.kernel_name);
        if tl.is_empty() {
            return s;
        }
        let base = s.strip_suffix("\n]").unwrap_or(&s);
        let sep = if base == "[" { "\n" } else { ",\n" };
        format!("{base}{sep}{tl}\n]")
    }
}

/// Tag the current obs scope with the device every simulation entry point
/// ran on: name plus descriptor digest, so a log reader can join spans
/// against the exact parameter set (not just the marketing name).
fn device_event(dev: &DeviceConfig) {
    np_obs::event(
        np_obs::Level::Debug,
        "exec.device",
        vec![
            np_obs::kv("device", dev.name.as_str()),
            np_obs::kv("device_digest", dev.digest_hex()),
        ],
    );
}

/// Launch `kernel` over `grid` blocks on `dev`. The kernel's own
/// `block_dim` supplies the block shape. Buffers move out of `args` during
/// execution and are returned (with stores applied) on completion.
///
/// Kernel contract violations (out-of-bounds accesses, races under
/// [`RaceCheckMode::Fatal`], divergent barriers, watchdog timeouts, injected
/// faults)
/// never panic: they return [`ExecError::Fault`]. Buffers are returned to
/// `args` even on a fault, holding whatever partial stores preceded it.
pub fn launch(
    dev: &DeviceConfig,
    kernel: &Kernel,
    grid: Dim3,
    args: &mut Args,
    opts: &SimOptions,
) -> Result<KernelReport, ExecError> {
    let _obs = np_obs::span("exec.launch");
    device_event(dev);
    let (run, resources, occ) = interpret_launch(dev, kernel, grid, args, opts)?;
    let timing = {
        let _t = np_obs::span("exec.timing");
        simulate_blocks(dev, &occ, &run.traces, grid.count())
    };
    Ok(KernelReport {
        kernel_name: kernel.name.clone(),
        cycles: timing.cycles,
        time_us: dev.cycles_to_us(timing.cycles),
        timing,
        occupancy: occ,
        resources,
        profile: run.profile,
        race: run.race,
    })
}

/// Run `kernel` once and freeze its interpretation into a replayable
/// [`CapturedLaunch`] alongside the usual report. The report is built *by
/// replaying the capture*, so `capture_launch` + [`replay_launch`] is
/// byte-identical to [`launch`] by construction on the capture side, and
/// the equivalence suites gate the launch side.
///
/// Faulting launches return `Err` and produce no artifact (the fault is
/// the outcome; buffers still come back with partial stores applied, as
/// with [`launch`]).
pub fn capture_launch(
    dev: &DeviceConfig,
    kernel: &Kernel,
    grid: Dim3,
    args: &mut Args,
    opts: &SimOptions,
) -> Result<(KernelReport, CapturedLaunch), ExecError> {
    let _obs = np_obs::span("exec.capture");
    device_event(dev);
    let (run, resources, _occ) = interpret_launch(dev, kernel, grid, args, opts)?;
    let total_blocks = grid.count();
    let sim_blocks = run.traces.len() as u64;
    let cap = CapturedLaunch {
        kernel_name: kernel.name.clone(),
        grid: [grid.x, grid.y, grid.z],
        block_dim: [kernel.block_dim.x, kernel.block_dim.y, kernel.block_dim.z],
        total_blocks,
        sim_blocks,
        max_blocks: opts.max_blocks,
        txn_bytes: dev.txn_bytes,
        l1_line: dev.l1_line,
        resources,
        race_mode: opts.check_races,
        total_steps: run.steps,
        race: run.race,
        blocks: run.traces,
    };
    let report = {
        let _r = np_obs::span("exec.replay");
        replay_report(dev, &cap)?
    };
    Ok((report, cap))
}

/// Re-time a capture under `opts` without re-interpreting. The
/// interpretation-affecting options must match what the capture ran under
/// — sampling and race-checker arming — otherwise replay is rejected with a
/// typed [`ExecError::Replay`]: a sampled capture can never be replayed as
/// if full, and a race-unchecked capture can never impersonate a checked
/// run.
/// The watchdog budget *may* differ: the capture records its total
/// interpreted steps, so any budget's verdict is reproduced exactly
/// (over-budget captures fault with [`FaultKind::Watchdog`], as a direct
/// run would). Wall-clock deadlines are ignored — replay performs no
/// interpretation steps for one to expire at.
pub fn replay_launch(
    dev: &DeviceConfig,
    cap: &CapturedLaunch,
    opts: &SimOptions,
) -> Result<KernelReport, ExecError> {
    if opts.fault_injection.is_some() {
        return Err(ExecError::Replay(ReplayError::NeedsInterpretation {
            what: "fault injection",
        }));
    }
    if opts.max_blocks != cap.max_blocks {
        return Err(ExecError::Replay(ReplayError::SamplingMismatch {
            captured: cap.max_blocks,
            requested: opts.max_blocks,
        }));
    }
    if opts.check_races != cap.race_mode {
        return Err(ExecError::Replay(ReplayError::RaceConfigMismatch {
            captured: cap.race_mode.tag(),
            requested: opts.check_races.tag(),
        }));
    }
    if let Some(limit) = opts.watchdog_steps {
        if cap.total_steps > limit {
            return Err(SimFault::new(&cap.kernel_name, FaultKind::Watchdog { limit }).into());
        }
    }
    let _obs = np_obs::span("exec.replay");
    device_event(dev);
    replay_report(dev, cap)
}

/// Time `cap` on `dev` and build its report. [`capture_launch`] and
/// [`replay_launch`] both report through here, so a capture's report and
/// any later replay of it on the same device are byte-identical.
fn replay_report(dev: &DeviceConfig, cap: &CapturedLaunch) -> Result<KernelReport, ExecError> {
    let replayed = np_gpu_sim::replay::replay(dev, cap).map_err(ExecError::Replay)?;
    Ok(KernelReport {
        kernel_name: cap.kernel_name.clone(),
        cycles: replayed.timing.cycles,
        time_us: dev.cycles_to_us(replayed.timing.cycles),
        timing: replayed.timing,
        occupancy: replayed.occupancy,
        resources: cap.resources,
        profile: replayed.profile,
        race: cap.race.clone(),
    })
}

/// Shared front half of [`launch`] and [`capture_launch`]: bind, intern,
/// interpret (parallel when possible), unbind — everything up to but not
/// including the timing engine. Counts one interpretation on the probe.
fn interpret_launch(
    dev: &DeviceConfig,
    kernel: &Kernel,
    grid: Dim3,
    args: &mut Args,
    opts: &SimOptions,
) -> Result<(InterpRun, KernelResources, Occupancy), ExecError> {
    let resources = estimate_resources(kernel, dev.max_registers_per_thread);
    let occ = occupancy(dev, &resources).map_err(|e| ExecError::Launch(e.to_string()))?;

    let mut globals = GlobalState::bind(kernel, args)?;

    // All name resolution happens once, here: the interpreter itself works
    // over dense slot indices.
    let ik = InternedKernel::from_kernel(kernel);

    let total_blocks = grid.count();
    let sim_blocks = opts.max_blocks.map_or(total_blocks, |m| m.min(total_blocks)).max(
        if total_blocks == 0 { 0 } else { 1 },
    );
    let warps_per_block = kernel.block_dim.count().div_ceil(32);
    let local_per_thread = resources.local_per_thread;

    let pool = opts
        .interp_threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(sim_blocks.max(1) as usize)
        .max(1);
    let can_parallel = pool > 1
        && sim_blocks > 1
        && opts.fault_injection.is_none()
        && opts.deadline.is_none()
        && opts.check_races != RaceCheckMode::Fatal;

    let prog = Program::lower(&ik, &globals.scalars, grid);
    let env = RunEnv {
        dev,
        ik: &ik,
        prog: &prog,
        grid,
        sim_blocks,
        warps_per_block,
        local_per_thread,
        opts,
    };
    INTERPRETATIONS.fetch_add(1, Ordering::SeqCst);
    let run = {
        let _i = np_obs::span("exec.interpret");
        let run = if can_parallel { interpret_parallel(&env, &mut globals, pool) } else { None };
        match run {
            Some(r) => r,
            None => interpret_sequential(&env, &mut globals),
        }
    };
    if run.race.checked {
        np_obs::event(
            np_obs::Level::Debug,
            "exec.race",
            vec![
                np_obs::kv("blocks_checked", run.race.blocks_checked),
                np_obs::kv("accesses_checked", run.race.accesses_checked),
                np_obs::kv("barriers_seen", run.race.barriers_seen),
                np_obs::kv("findings", run.race.findings.len() as u64),
            ],
        );
    }

    // Return buffers even on a fault so callers keep their data (holding
    // whatever partial stores completed before the violation).
    globals.unbind(args);
    if let Some(f) = run.fault {
        return Err(f.into());
    }
    Ok((run, resources, occ))
}

/// Per-launch invariants shared by both interpretation strategies.
struct RunEnv<'a> {
    dev: &'a DeviceConfig,
    ik: &'a InternedKernel,
    prog: &'a Program,
    grid: Dim3,
    sim_blocks: u64,
    warps_per_block: u64,
    local_per_thread: u32,
    opts: &'a SimOptions,
}

impl<'a> RunEnv<'a> {
    fn block_idx(&self, bx: u64) -> (u32, u32) {
        ((bx % self.grid.x as u64) as u32, (bx / self.grid.x as u64) as u32)
    }

    /// A worker's interpreter, reused for every block it runs.
    fn vm(&self) -> Vm<'a> {
        Vm::new(self.prog, self.ik, self.dev, self.local_per_thread)
    }
}

/// What interpretation produces: the materialized block traces, race
/// report, profile, interpreted step total, and the first fault (which,
/// when present, makes the caller discard the rest). Timing is *not* here
/// — the caller hands `traces` to the engine (or freezes them into a
/// [`CapturedLaunch`] and replays later; both roads lead to
/// [`simulate_blocks`]).
struct InterpRun {
    traces: Vec<BlockTrace>,
    race: RaceReport,
    profile: ProfileReport,
    fault: Option<SimFault>,
    steps: u64,
}

/// The classic path: one launch-scoped context, blocks interpreted in
/// order.
fn interpret_sequential(env: &RunEnv, globals: &mut GlobalState) -> InterpRun {
    let opts = env.opts;
    let mut fault: Option<SimFault> = None;
    let mut profile = ProfileReport::default();
    let mut traces: Vec<BlockTrace> = Vec::with_capacity(env.sim_blocks as usize);
    let recorder = match opts.check_races {
        RaceCheckMode::Off => None,
        RaceCheckMode::Record => Some((RaceRecorder::new(opts.race_options.clone()), false)),
        RaceCheckMode::Fatal => Some((RaceRecorder::new(opts.race_options.clone()), true)),
    };
    let mut ctx = LaunchCtx::new(
        globals,
        opts.watchdog_steps,
        opts.deadline,
        opts.fault_injection.clone(),
        recorder,
    );
    let mut vm = env.vm();
    for bx in 0..env.sim_blocks {
        match vm.run_block(&mut ctx, env.block_idx(bx), env.grid, bx * env.warps_per_block) {
            Ok(trace) => {
                profile.record_block(&trace);
                traces.push(trace);
            }
            Err(f) => {
                fault = Some(f);
                break;
            }
        }
    }
    let steps = ctx.steps();
    let race = ctx.take_race().map(|rec| rec.finish()).unwrap_or_default();
    InterpRun { traces, race, profile, fault, steps }
}

/// One worker's result for one block: the trace (when the block ran to
/// completion) and the store journal and race report either way.
enum Outcome {
    Ok(BlockTrace, BlockLog),
    Fault(SimFault, BlockLog),
}

/// Fan blocks out across `pool` worker threads against an immutable
/// snapshot of `globals`, then merge in block order. Returns `None` when a
/// cross-block read-after-write invalidates the snapshot run — `globals`
/// is untouched in that case, so the caller reruns sequentially from the
/// pristine pre-launch state.
fn interpret_parallel(env: &RunEnv, globals: &mut GlobalState, pool: usize) -> Option<InterpRun> {
    let opts = env.opts;
    let ik = env.ik;
    let rw: Vec<bool> = ik.array_params.iter().map(|p| p.loaded && p.stored).collect();
    let check_races = opts.check_races == RaceCheckMode::Record;
    let sim_blocks = env.sim_blocks;

    let next = AtomicU64::new(0);
    // Lowest faulting block index seen so far: no sequential run ever gets
    // past it, so workers stop claiming blocks beyond it.
    let fault_floor = AtomicU64::new(u64::MAX);
    let results: Vec<Mutex<Option<Outcome>>> =
        (0..sim_blocks).map(|_| Mutex::new(None)).collect();
    {
        let base: &GlobalState = globals;
        std::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(|| {
                    let mut vm = env.vm();
                    loop {
                        let bx = next.fetch_add(1, Ordering::Relaxed);
                        if bx >= sim_blocks || bx > fault_floor.load(Ordering::Relaxed) {
                            break;
                        }
                        let recorder =
                            check_races.then(|| RaceRecorder::new(opts.race_options.clone()));
                        let mut ctx =
                            LaunchCtx::new_logged(base, &rw, opts.watchdog_steps, recorder);
                        let first_warp = bx * env.warps_per_block;
                        let r = vm.run_block(&mut ctx, env.block_idx(bx), env.grid, first_warp);
                        let log = ctx.finish_logged();
                        let outcome = match r {
                            Ok(trace) => Outcome::Ok(trace, log),
                            Err(f) => {
                                fault_floor.fetch_min(bx, Ordering::Relaxed);
                                Outcome::Fault(f, log)
                            }
                        };
                        *results[bx as usize].lock().expect("worker slot lock") = Some(outcome);
                    }
                });
            }
        });
    }

    // Ordered merge: each block's journal is validated, cut, and applied
    // exactly as a sequential run would have executed it.
    let limit = opts.watchdog_steps;
    let n_arrays = globals.buffers.len();
    let mut written_so_far: Vec<Vec<u64>> = vec![Vec::new(); n_arrays];
    let mut cum_steps: u64 = 0;
    let mut fault: Option<SimFault> = None;
    let mut traces: Vec<BlockTrace> = Vec::with_capacity(sim_blocks as usize);
    let mut race = RaceReport { checked: check_races, ..Default::default() };
    for bx in 0..sim_blocks {
        let outcome = results[bx as usize]
            .lock()
            .expect("merge slot lock")
            .take()
            .expect("every block before the first fault was executed");
        let (trace, log, wfault) = match outcome {
            Outcome::Ok(t, l) => (Some(t), l, None),
            Outcome::Fault(f, l) => (None, l, Some(f)),
        };
        // A block that read an element some earlier block wrote saw a
        // stale snapshot: nothing in its journal can be trusted.
        for (ai, reads) in log.reads_before_write.iter().enumerate() {
            if !reads.is_empty() && bitmaps_intersect(reads, &written_so_far[ai]) {
                return None;
            }
        }
        // Re-cut the whole-launch watchdog budget at this block's
        // sequential position: the worker ran with the full budget.
        let t_avail = limit.map(|l| l.saturating_sub(cum_steps));
        if t_avail.is_some_and(|t| log.steps > t) {
            apply_stores(globals, &log.stores, t_avail);
            fault = Some(SimFault::new(
                &ik.name,
                FaultKind::Watchdog { limit: limit.expect("t_avail implies a limit") },
            ));
            break;
        }
        apply_stores(globals, &log.stores, None);
        if let Some(f) = wfault {
            fault = Some(f);
            break;
        }
        for s in &log.stores {
            if rw[s.arr as usize] {
                let len = globals.buffers[s.arr as usize].len();
                bit_set(&mut written_so_far[s.arr as usize], s.idx as usize, len);
            }
        }
        traces.push(trace.expect("fault-free outcome carries a trace"));
        // The block's pcs count from its own first step; a sequential run
        // would have stamped them after every earlier block's steps.
        race.append(log.race, cum_steps, &opts.race_options);
        cum_steps += log.steps;
    }

    let mut profile = ProfileReport::default();
    for t in &traces {
        profile.record_block(t);
    }

    Some(InterpRun { traces, race, profile, fault, steps: cum_steps })
}

/// Apply a block's journaled stores to the real buffers, optionally cut at
/// a watchdog step boundary (journal entries are step-ordered).
fn apply_stores(globals: &mut GlobalState, stores: &[StoreRec], cut: Option<u64>) {
    for s in stores {
        if cut.is_some_and(|c| s.step > c) {
            break;
        }
        globals.buffers[s.arr as usize].write_bits(s.idx as usize, s.bits);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexed loops mirror kernel code
mod tests {
    use super::*;
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::KernelBuilder;

    /// Vector add: out[i] = a[i] + b[i].
    fn vecadd_kernel() -> Kernel {
        let mut b = KernelBuilder::new("vecadd", 64);
        b.param_global_f32("a");
        b.param_global_f32("b");
        b.param_global_f32("out");
        b.decl_i32("t", tidx() + bidx() * bdimx());
        b.store("out", v("t"), load("a", v("t")) + load("b", v("t")));
        b.finish()
    }

    #[test]
    fn vecadd_computes_correctly() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let n = 256usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let mut args = Args::new()
            .buf_f32("a", a)
            .buf_f32("b", b)
            .buf_f32("out", vec![0.0; n]);
        let rep =
            launch(&dev, &k, Dim3::x1(4), &mut args, &SimOptions::full()).unwrap();
        let out = args.get_f32("out").unwrap();
        for i in 0..n {
            assert_eq!(out[i], 3.0 * i as f32);
        }
        assert!(rep.cycles > 0);
        assert_eq!(rep.timing.blocks_simulated, 4);
    }

    #[test]
    fn missing_buffer_is_a_setup_error() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let mut args = Args::new();
        assert!(launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).is_err());
    }

    #[test]
    fn sampling_reduces_simulated_blocks_but_scales_cycles() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let n = 64 * 64;
        let mk_args = || {
            Args::new()
                .buf_f32("a", vec![1.0; n])
                .buf_f32("b", vec![1.0; n])
                .buf_f32("out", vec![0.0; n])
        };
        let mut full_args = mk_args();
        let full =
            launch(&dev, &k, Dim3::x1(64), &mut full_args, &SimOptions::full()).unwrap();
        let mut s_args = mk_args();
        let sampled =
            launch(&dev, &k, Dim3::x1(64), &mut s_args, &SimOptions::sampled(16)).unwrap();
        assert_eq!(sampled.timing.blocks_simulated, 16);
        assert!(sampled.timing.is_sampled());
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sampled estimate should be in the ballpark: {ratio}"
        );
    }

    #[test]
    fn divergent_if_executes_both_paths() {
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("div", 32);
        b.param_global_f32("out");
        b.decl_i32("t", tidx());
        b.if_else(
            lt(v("t"), i(16)),
            |b| b.store("out", v("t"), f(1.0)),
            |b| b.store("out", v("t"), f(2.0)),
        );
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        let out = args.get_f32("out").unwrap();
        for i in 0..32 {
            assert_eq!(out[i], if i < 16 { 1.0 } else { 2.0 });
        }
    }

    #[test]
    fn loop_with_runtime_bound_works() {
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("sumk", 32);
        b.param_global_f32("out");
        b.param_scalar_i32("n");
        b.decl_f32("acc", f(0.0));
        b.for_loop("i", i(0), p("n"), |b| {
            b.assign("acc", v("acc") + f(1.0));
        });
        b.store("out", tidx(), v("acc"));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]).i32("n", 17);
        launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        assert!(args.get_f32("out").unwrap().iter().all(|&x| x == 17.0));
    }

    #[test]
    fn shared_memory_and_barrier_communicate_across_warps() {
        let dev = DeviceConfig::small_test();
        // Warp 1 reads what warp 0 wrote, through shared memory + barrier,
        // in reverse order.
        let mut b = KernelBuilder::new("smem", 64);
        b.param_global_f32("out");
        b.shared_array("tile", np_kernel_ir::Scalar::F32, 64);
        b.decl_i32("t", tidx());
        b.store("tile", v("t"), cast(np_kernel_ir::Scalar::F32, v("t")));
        b.sync();
        b.store("out", v("t"), load("tile", i(63) - v("t")));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        let out = args.get_f32("out").unwrap();
        for i in 0..64 {
            assert_eq!(out[i], (63 - i) as f32);
        }
    }

    #[test]
    fn local_array_round_trips_per_thread() {
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("locals", 32);
        b.param_global_f32("out");
        b.local_array("buf", np_kernel_ir::Scalar::F32, 8);
        b.decl_i32("t", tidx());
        b.for_loop("i", i(0), i(8), |b| {
            b.store("buf", v("i"), cast(np_kernel_ir::Scalar::F32, v("t") * i(10) + v("i")));
        });
        b.decl_f32("acc", f(0.0));
        b.for_loop("i", i(0), i(8), |b| {
            b.assign("acc", v("acc") + load("buf", v("i")));
        });
        b.store("out", v("t"), v("acc"));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        let out = args.get_f32("out").unwrap();
        for t in 0..32 {
            // sum over i of (t*10 + i) = 80 t + 28
            assert_eq!(out[t], (80 * t + 28) as f32);
        }
    }

    #[test]
    fn shfl_broadcast_from_lane_zero() {
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("shflk", 32);
        b.param_global_f32("out");
        b.decl_f32("x", cast(np_kernel_ir::Scalar::F32, tidx()));
        // Broadcast lane 0's value within groups of 8.
        b.assign("x", shfl(v("x"), i(0), 8));
        b.store("out", tidx(), v("x"));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        let out = args.get_f32("out").unwrap();
        for t in 0..32 {
            assert_eq!(out[t], ((t / 8) * 8) as f32, "lane {t}");
        }
    }

    #[test]
    fn out_of_bounds_access_faults_with_context() {
        use crate::fault::FaultKind;
        use np_kernel_ir::types::MemSpace;
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("oob", 32);
        b.param_global_f32("out");
        b.store("out", tidx() + i(100), f(1.0));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        let err = launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap_err();
        let ExecError::Fault(fault) = err else { panic!("expected a fault, got {err:?}") };
        assert_eq!(fault.kernel, "oob");
        assert_eq!(fault.warp, Some(0));
        assert_eq!(fault.lane, Some(0), "lane 0 is the first out of bounds");
        match fault.kind {
            FaultKind::OutOfBounds { space, ref array, index, len, write } => {
                assert_eq!(space, MemSpace::Global);
                assert_eq!(array, "out");
                assert_eq!(index, 100);
                assert_eq!(len, 32);
                assert!(write);
            }
            ref other => panic!("expected OutOfBounds, got {other:?}"),
        }
        // Buffers come back even after a fault.
        assert_eq!(args.get_f32("out").unwrap().len(), 32);
    }

    #[test]
    fn bandwidth_does_not_double_count_with_empty_sample() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let n = 256usize;
        let mut args = Args::new()
            .buf_f32("a", vec![1.0; n])
            .buf_f32("b", vec![1.0; n])
            .buf_f32("out", vec![0.0; n]);
        let mut rep =
            launch(&dev, &k, Dim3::x1(4), &mut args, &SimOptions::full()).unwrap();
        let honest = rep.bandwidth_gbps(&dev);
        // Forge the pathological report shape: sampling looks on
        // (blocks_total > blocks_simulated) yet no block was simulated.
        // The byte count must pass through unscaled instead of being
        // multiplied by blocks_total.
        rep.timing.blocks_simulated = 0;
        rep.timing.blocks_total = 1000;
        let guarded = rep.bandwidth_gbps(&dev);
        assert!(
            (guarded - honest).abs() < 1e-9,
            "empty sample must not scale bytes: {guarded} vs {honest}"
        );
    }

    #[test]
    fn profile_counts_divergence_and_uniform_branches() {
        let dev = DeviceConfig::small_test();
        // Divergent: lanes split 16/16 inside each warp.
        let mut b = KernelBuilder::new("div", 32);
        b.param_global_f32("out");
        b.decl_i32("t", tidx());
        b.if_else(
            lt(v("t"), i(16)),
            |b| b.store("out", v("t"), f(1.0)),
            |b| b.store("out", v("t"), f(2.0)),
        );
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        let rep = launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        assert_eq!(rep.profile.total.divergence_events, 1);
        assert!(rep.profile.total.divergent_instructions > 0);

        // Uniform: every lane takes the same path -> zero divergence.
        let mut b = KernelBuilder::new("uni", 32);
        b.param_global_f32("out");
        b.decl_i32("t", tidx());
        b.if_else(
            lt(i(0), i(16)),
            |b| b.store("out", v("t"), f(1.0)),
            |b| b.store("out", v("t"), f(2.0)),
        );
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        let rep = launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        assert_eq!(rep.profile.total.divergence_events, 0);
        assert_eq!(rep.profile.total.divergent_instructions, 0);
    }

    #[test]
    fn profile_counts_memory_shfl_and_barriers() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let n = 256usize;
        let mut args = Args::new()
            .buf_f32("a", vec![1.0; n])
            .buf_f32("b", vec![1.0; n])
            .buf_f32("out", vec![0.0; n]);
        let rep = launch(&dev, &k, Dim3::x1(4), &mut args, &SimOptions::full()).unwrap();
        let p = &rep.profile.total;
        // 2 loads + 1 store per warp, 2 warps per block, 4 blocks; each
        // access moves 32 lanes x 4 bytes.
        assert_eq!(p.global_bytes, 3 * 128 * 2 * 4);
        assert!(p.global_transactions >= p.ideal_global_transactions);
        let e = rep.profile.coalescing_efficiency();
        assert!(e > 0.0 && e <= 1.0);
        assert_eq!(rep.profile.blocks.len(), 4);
        // Per-block totals sum to the launch total.
        let mut sum = np_gpu_sim::profile::ProfileCounters::default();
        for bp in &rep.profile.blocks {
            sum.add(&bp.total);
        }
        assert_eq!(&sum, p);
    }

    #[test]
    fn profile_json_is_byte_identical_across_reruns() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let n = 256usize;
        let run = || {
            let mut args = Args::new()
                .buf_f32("a", vec![1.0; n])
                .buf_f32("b", vec![2.0; n])
                .buf_f32("out", vec![0.0; n]);
            launch(&dev, &k, Dim3::x1(4), &mut args, &SimOptions::full()).unwrap()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.profile.to_json(), r2.profile.to_json());
        assert_eq!(r1.chrome_trace(), r2.chrome_trace());
        let trace = r1.chrome_trace();
        assert!(trace.contains("\"pid\":\"vecadd\""));
        // The timeline flight recorder contributes per-SMX duration tracks
        // and the spliced array stays well-formed.
        assert!(trace.contains("\"tid\":\"smx 0\""), "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.starts_with('[') && trace.ends_with(']'), "{trace}");
        assert!(!trace.contains(",,") && !trace.contains("],["), "{trace}");
    }

    #[test]
    fn two_dimensional_blocks_linearize_like_cuda() {
        let dev = DeviceConfig::small_test();
        // blockDim (8, 4): thread (x,y) has linear id y*8+x.
        let mut b = KernelBuilder::new("twod", 8);
        b.param_global_f32("out");
        b.store("out", tidy() * i(8) + tidx(), cast(np_kernel_ir::Scalar::F32, tidy()));
        let mut k = b.finish();
        k.block_dim = np_kernel_ir::Dim3::xy(8, 4);
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        let out = args.get_f32("out").unwrap();
        for t in 0..32 {
            assert_eq!(out[t], (t / 8) as f32);
        }
    }
}

#[cfg(test)]
mod hb_race_tests {
    use super::*;
    use crate::fault::FaultKind;
    use np_gpu_sim::racecheck::{GatingPolicy, RaceFinding};
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::{Dim3 as KDim3, KernelBuilder, Scalar};

    /// tile[t] then read tile[63 - t]: threads conflict without a barrier.
    fn racy_kernel(with_sync: bool) -> Kernel {
        let mut b = KernelBuilder::new("racy", 64);
        b.param_global_f32("out");
        b.shared_array("tile", Scalar::F32, 64);
        b.decl_i32("t", tidx());
        b.store("tile", v("t"), cast(Scalar::F32, v("t")));
        if with_sync {
            b.sync();
        }
        b.store("out", v("t"), load("tile", i(63) - v("t")));
        b.finish()
    }

    #[test]
    fn record_mode_reports_both_access_sites() {
        let dev = DeviceConfig::small_test();
        let k = racy_kernel(false);
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        let rep =
            launch(&dev, &k, KDim3::x1(1), &mut args, &SimOptions::race_checked()).unwrap();
        assert!(rep.race.checked);
        assert!(!rep.race.is_clean());
        match &rep.race.findings[0] {
            RaceFinding::MemoryRace { array, first, second, .. } => {
                assert_eq!(array, "tile");
                assert_ne!(first.thread, second.thread);
                assert!(first.pc < second.pc, "sites are ordered by interpreter step");
                assert_eq!(first.epoch, second.epoch, "same barrier epoch = unordered");
            }
            other => panic!("expected MemoryRace, got {other:?}"),
        }
    }

    #[test]
    fn barrier_makes_the_report_clean() {
        let dev = DeviceConfig::small_test();
        let k = racy_kernel(true);
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        let rep =
            launch(&dev, &k, KDim3::x1(1), &mut args, &SimOptions::race_checked()).unwrap();
        assert!(rep.race.checked && rep.race.is_clean(), "{:?}", rep.race.findings);
        assert!(rep.race.barriers_seen > 0);
        assert!(rep.race.accesses_checked > 0);
    }

    #[test]
    fn fatal_mode_faults_with_race_detected() {
        let dev = DeviceConfig::small_test();
        let k = racy_kernel(false);
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        let opts = SimOptions::default().with_race_check(RaceCheckMode::Fatal);
        let err = launch(&dev, &k, KDim3::x1(1), &mut args, &opts).unwrap_err();
        let ExecError::Fault(fault) = err else { panic!("expected a fault, got {err:?}") };
        match &fault.kind {
            FaultKind::RaceDetected { detail } => {
                assert!(detail.contains("tile["), "{detail}");
                assert!(detail.contains("thread"), "{detail}");
            }
            other => panic!("expected RaceDetected, got {other:?}"),
        }
    }

    #[test]
    fn same_warp_conflict_is_caught_at_thread_granularity() {
        // Warp-synchronous execution earns no exemption: the CUDA-NP
        // transform never relies on implicit warp sync for shared-memory
        // communication.
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("onewarp", 32);
        b.param_global_f32("out");
        b.shared_array("tile", Scalar::F32, 32);
        b.store("tile", tidx(), f(1.0));
        b.store("out", tidx(), load("tile", i(31) - tidx()));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        let rep =
            launch(&dev, &k, KDim3::x1(1), &mut args, &SimOptions::race_checked()).unwrap();
        assert!(!rep.race.is_clean());
    }

    #[test]
    fn global_space_write_write_race_is_reported() {
        let dev = DeviceConfig::small_test();
        // Every thread writes out[0]: 63 conflicting pairs, one finding
        // (per-word dedupe).
        let mut b = KernelBuilder::new("gracy", 64);
        b.param_global_f32("out");
        b.store("out", i(0), cast(Scalar::F32, tidx()));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 4]);
        let rep =
            launch(&dev, &k, KDim3::x1(1), &mut args, &SimOptions::race_checked()).unwrap();
        assert_eq!(rep.race.findings.len(), 1, "{:?}", rep.race.findings);
        match &rep.race.findings[0] {
            RaceFinding::MemoryRace { space, array, index, .. } => {
                assert_eq!(*space, np_gpu_sim::racecheck::RaceSpace::Global);
                assert_eq!(array, "out");
                assert_eq!(*index, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjoint_global_writes_are_clean_across_blocks() {
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("vec", 32);
        b.param_global_f32("out");
        b.store("out", tidx() + bidx() * bdimx(), f(1.0));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 128]);
        let rep =
            launch(&dev, &k, KDim3::x1(4), &mut args, &SimOptions::race_checked()).unwrap();
        assert!(rep.race.is_clean());
        assert_eq!(rep.race.blocks_checked, 4);
    }

    #[test]
    fn gating_policy_reports_slave_writes_through_launch() {
        let dev = DeviceConfig::small_test();
        // 32x2 block; policy says threadIdx.y is the slave id and "stage"
        // is master-only — yet every thread stores to it.
        let mut b = KernelBuilder::new("gate", 32);
        b.param_global_f32("out");
        b.shared_array("stage", Scalar::F32, 32);
        b.store("stage", tidx(), cast(Scalar::F32, tidy()));
        b.sync();
        b.store("out", tidx() + tidy() * bdimx(), load("stage", tidx()));
        let mut k = b.finish();
        k.block_dim = np_kernel_ir::Dim3::xy(32, 2);
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        let opts = SimOptions::race_checked().with_race_options(RaceCheckOptions {
            max_findings: None,
            policy: Some(GatingPolicy {
                master_size: 32,
                slave_size: 2,
                intra: false,
                master_only: vec!["stage".into()],
            }),
        });
        let rep = launch(&dev, &k, KDim3::x1(1), &mut args, &opts).unwrap();
        assert!(rep
            .race
            .findings
            .iter()
            .any(|f| matches!(f, RaceFinding::MasterGatingViolation { .. })),
            "{:?}",
            rep.race.findings
        );
    }

    #[test]
    fn off_mode_reports_unchecked() {
        let dev = DeviceConfig::small_test();
        let k = racy_kernel(false);
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        let rep = launch(&dev, &k, KDim3::x1(1), &mut args, &SimOptions::full()).unwrap();
        assert!(!rep.race.checked);
        assert!(rep.race.is_clean(), "vacuously clean when unchecked");
    }

    #[test]
    fn race_report_json_is_byte_identical_across_reruns() {
        let dev = DeviceConfig::small_test();
        for clean in [false, true] {
            let k = racy_kernel(clean);
            let run = || {
                let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
                launch(&dev, &k, KDim3::x1(1), &mut args, &SimOptions::race_checked())
                    .unwrap()
                    .race
                    .to_json()
            };
            assert_eq!(run(), run());
        }
    }

    /// Vector add: out[i] = a[i] + b[i] (local copy; the sibling tests
    /// module keeps its own).
    fn vecadd_kernel() -> Kernel {
        let mut b = KernelBuilder::new("vecadd", 64);
        b.param_global_f32("a");
        b.param_global_f32("b");
        b.param_global_f32("out");
        b.decl_i32("t", tidx() + bidx() * bdimx());
        b.store("out", v("t"), load("a", v("t")) + load("b", v("t")));
        b.finish()
    }

    fn vecadd_args(n: usize) -> Args {
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        Args::new().buf_f32("a", a).buf_f32("b", b).buf_f32("out", vec![0.0; n])
    }

    /// Everything a report says, as one comparable string.
    fn fingerprint(r: &KernelReport) -> String {
        format!(
            "{:?}|{}|{}|{}|{}",
            r.timing,
            r.profile.to_json(),
            r.race.to_json(),
            r.chrome_trace(),
            r.cycles
        )
    }

    #[test]
    fn capture_then_replay_is_byte_identical_to_direct_launch() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let opts = SimOptions::full();

        let mut direct_args = vecadd_args(256);
        let direct = launch(&dev, &k, Dim3::x1(4), &mut direct_args, &opts).unwrap();

        let mut cap_args = vecadd_args(256);
        let (at_capture, cap) =
            capture_launch(&dev, &k, Dim3::x1(4), &mut cap_args, &opts).unwrap();
        assert_eq!(direct_args.get_f32("out"), cap_args.get_f32("out"));
        assert_eq!(fingerprint(&direct), fingerprint(&at_capture));

        let replayed = replay_launch(&dev, &cap, &opts).unwrap();
        assert_eq!(fingerprint(&direct), fingerprint(&replayed));

        // And through the codec: decode(encode(cap)) replays identically.
        let decoded = CapturedLaunch::decode(&cap.encode()).unwrap();
        let re_replayed = replay_launch(&dev, &decoded, &opts).unwrap();
        assert_eq!(fingerprint(&direct), fingerprint(&re_replayed));
    }

    #[test]
    fn capture_counts_one_interpretation_and_replay_counts_none() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let opts = SimOptions::full();
        let before = interpretation_count();
        let (_, cap) =
            capture_launch(&dev, &k, Dim3::x1(4), &mut vecadd_args(256), &opts).unwrap();
        let after_capture = interpretation_count();
        // Other tests run concurrently in this process, so assert "at
        // least mine" rather than an exact delta.
        assert!(after_capture > before);
        for _ in 0..3 {
            replay_launch(&dev, &cap, &opts).unwrap();
        }
        // Replays never interpret; nothing this test did since the capture
        // bumped the counter. (Concurrent launches may have, so this can't
        // be asserted exactly here — the serial probe lives in the
        // replay-equivalence suite.)
        let _ = after_capture;
    }

    #[test]
    fn sampled_capture_cannot_replay_as_full() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let n = 64 * 64;
        let mk = || {
            Args::new()
                .buf_f32("a", vec![1.0; n])
                .buf_f32("b", vec![1.0; n])
                .buf_f32("out", vec![0.0; n])
        };
        let (_, cap) =
            capture_launch(&dev, &k, Dim3::x1(64), &mut mk(), &SimOptions::sampled(16)).unwrap();
        assert!(cap.is_sampled());
        let err = replay_launch(&dev, &cap, &SimOptions::full()).unwrap_err();
        assert!(
            matches!(err, ExecError::Replay(ReplayError::SamplingMismatch { .. })),
            "expected SamplingMismatch, got {err:?}"
        );
        // With the matching sampling config it replays fine.
        replay_launch(&dev, &cap, &SimOptions::sampled(16)).unwrap();
    }

    #[test]
    fn replay_reproduces_watchdog_verdict_for_any_budget() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let opts = SimOptions::full();
        let (_, cap) =
            capture_launch(&dev, &k, Dim3::x1(4), &mut vecadd_args(256), &opts).unwrap();
        assert!(cap.total_steps > 0);

        // A generous budget replays clean.
        let generous = opts.clone().with_watchdog(Some(cap.total_steps));
        replay_launch(&dev, &cap, &generous).unwrap();

        // A budget below the recorded step count faults, exactly as the
        // direct run would have.
        let tight = opts.clone().with_watchdog(Some(cap.total_steps - 1));
        let err = replay_launch(&dev, &cap, &tight).unwrap_err();
        let fault = err.fault().expect("watchdog fault");
        assert!(matches!(fault.kind, FaultKind::Watchdog { .. }));

        let mut direct_args = vecadd_args(256);
        let direct_err =
            launch(&dev, &k, Dim3::x1(4), &mut direct_args, &tight).unwrap_err();
        let direct_fault = direct_err.fault().expect("direct watchdog fault");
        assert!(matches!(direct_fault.kind, FaultKind::Watchdog { .. }));
    }

    #[test]
    fn race_config_mismatch_is_rejected_at_replay() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let (_, cap) =
            capture_launch(&dev, &k, Dim3::x1(4), &mut vecadd_args(256), &SimOptions::full())
                .unwrap();
        let err = replay_launch(&dev, &cap, &SimOptions::race_checked()).unwrap_err();
        assert!(
            matches!(err, ExecError::Replay(ReplayError::RaceConfigMismatch { .. })),
            "expected RaceConfigMismatch, got {err:?}"
        );
    }

    #[test]
    fn race_checked_capture_preserves_findings_through_codec() {
        let dev = DeviceConfig::small_test();
        let k = racy_kernel(false);
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        let (report, cap) =
            capture_launch(&dev, &k, Dim3::x1(2), &mut args, &SimOptions::race_checked())
                .unwrap();
        assert!(report.race.checked);
        assert!(!report.race.is_clean());
        let decoded = CapturedLaunch::decode(&cap.encode()).unwrap();
        let replayed = replay_launch(&dev, &decoded, &SimOptions::race_checked()).unwrap();
        assert_eq!(report.race.to_json(), replayed.race.to_json());
    }

    #[test]
    fn fault_injection_cannot_replay() {
        let dev = DeviceConfig::small_test();
        let k = vecadd_kernel();
        let (_, cap) =
            capture_launch(&dev, &k, Dim3::x1(4), &mut vecadd_args(256), &SimOptions::full())
                .unwrap();
        let opts = SimOptions::full().with_injection(InjectConfig::bitflips(1, 2));
        let err = replay_launch(&dev, &cap, &opts).unwrap_err();
        assert!(
            matches!(err, ExecError::Replay(ReplayError::NeedsInterpretation { .. })),
            "expected NeedsInterpretation, got {err:?}"
        );
    }

    #[test]
    fn faulting_capture_launch_returns_error_and_no_artifact() {
        let dev = DeviceConfig::small_test();
        let mut b = KernelBuilder::new("oob_cap", 32);
        b.param_global_f32("out");
        b.store("out", tidx() + i(100), f(1.0));
        let k = b.finish();
        let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
        let err = capture_launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full())
            .unwrap_err();
        assert!(err.fault().is_some());
    }
}
