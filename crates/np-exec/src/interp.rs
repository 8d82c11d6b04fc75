//! The SIMT interpreter: functional lockstep execution of one thread block,
//! emitting a timing trace as a side effect.
//!
//! Execution model:
//! * warps execute statements in SIMT lockstep with an active-lane mask;
//!   `If`/`For` divergence serializes both paths / extra iterations, which
//!   shows up in the trace exactly as it would on hardware;
//! * statements that contain no `__syncthreads` execute warp-at-a-time;
//!   statements that do contain a barrier (bare syncs, uniform loops or
//!   conditionals with syncs inside) execute in block-level lockstep, and
//!   the interpreter *checks* the CUDA contract that control flow around
//!   barriers is uniform across the block;
//! * warps of one block run sequentially in warp-id order between barriers,
//!   so functional results are deterministic even for racy kernels.
//!
//! The interpreter runs over the slot-indexed
//! [`InternedKernel`](np_kernel_ir::slots::InternedKernel): every scalar
//! register, array, and parameter was resolved to a dense index before the
//! first block ran, so the hot path performs no string hashing.
//!
//! Contract violations never panic: every check surfaces as a typed
//! [`SimFault`] threaded out through `Result` (see [`crate::fault`]). The
//! per-launch [`LaunchCtx`] additionally carries the watchdog step budget
//! and the optional memory fault injector.
//!
//! For parallel per-block interpretation, a block can run against a
//! [`GlobalMem::Logged`] view: reads come from an immutable base snapshot
//! (or the block's own prior writes), stores are journaled instead of
//! applied, and the block is race-checked by a recorder of its own — see
//! `launch.rs` for the ordered merge that makes the parallel path
//! byte-identical to sequential execution.

// Interpreter internals thread `SimFault` by value so detection sites can
// chain `.at_warp()/.at_lane()/.with_context()` without re-boxing at every
// hop; a fault occurs at most once per launch, and the public boundary
// (`ExecError::Fault`) boxes it.
#![allow(clippy::result_large_err)]

use crate::fault::{FaultKind, SimFault};
use crate::machine::{ArgValue, ArrayBinding, Buffer, GlobalState};
use crate::value::{lanes, Mask, ValueError, WVal, LANES};
use np_gpu_sim::config::DeviceConfig;
use np_gpu_sim::mem::inject::{FaultInjector, InjectConfig, InjectSpace, Injection};
use np_gpu_sim::mem::local::LocalLayout;
use np_gpu_sim::mem::LaneAddrs;
use np_gpu_sim::racecheck::{RaceRecorder, RaceReport, RaceSpace};
use np_gpu_sim::trace::{BlockTrace, ShflKind, TraceBuilder};
use np_kernel_ir::expr::{BinOp, ShflMode, Special};
use np_kernel_ir::slots::{ArrayRef, IExpr, IStmt, InternedKernel, ParamRef};
use np_kernel_ir::types::{Dim3, MemSpace, Scalar};

/// Watchdog state: a per-launch budget of interpreted steps.
struct Watchdog {
    left: u64,
    limit: u64,
}

/// How often (in interpreted steps) the wall-clock deadline is consulted:
/// every `DEADLINE_CHECK_MASK + 1` steps. `Instant::now()` is tens of
/// nanoseconds — amortized over 4096 steps it vanishes from the hot path
/// while still bounding deadline overshoot to well under a millisecond.
const DEADLINE_CHECK_MASK: u64 = 0xFFF;

/// One journaled global-memory store: array-parameter slot, element index,
/// raw bits, and the interpreted step that produced it (used to cut the
/// journal at a watchdog boundary during the ordered merge).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreRec {
    pub arr: u32,
    pub idx: u32,
    pub bits: u32,
    pub step: u64,
}

/// Where a race-checker access landed: a slot whose name the recorder
/// interns once per context.
#[derive(Debug, Clone, Copy)]
enum ArraySite {
    /// Index into [`InternedKernel::shared`].
    Shared(u32),
    /// Index into [`InternedKernel::array_params`].
    GlobalParam(u32),
}

impl ArraySite {
    fn space(self) -> RaceSpace {
        match self {
            ArraySite::Shared(_) => RaceSpace::Shared,
            ArraySite::GlobalParam(_) => RaceSpace::Global,
        }
    }

    fn name(self, ik: &InternedKernel) -> &str {
        match self {
            ArraySite::Shared(i) => &ik.shared[i as usize].name,
            ArraySite::GlobalParam(i) => &ik.array_params[i as usize].name,
        }
    }
}

/// Global-memory view for one interpreting context.
pub(crate) enum GlobalMem<'a> {
    /// Sequential execution: reads and writes go straight to the bound
    /// buffers.
    Direct(&'a mut GlobalState),
    /// Parallel worker: reads come from the immutable pre-launch snapshot
    /// (or this block's own earlier writes), writes are journaled.
    Logged(LoggedMem<'a>),
}

/// The journaling view one parallel worker runs a block against.
pub(crate) struct LoggedMem<'a> {
    base: &'a GlobalState,
    /// Per array-parameter slot: does the kernel body both load and store
    /// it? Only such arrays can observe a cross-block read-after-write.
    rw: &'a [bool],
    /// Lazy copy-on-write overlay per read-write array, so the block reads
    /// its own earlier stores.
    overlays: Vec<Option<Buffer>>,
    /// Bitmap of elements this block wrote (read-write arrays only).
    written: Vec<Vec<u64>>,
    /// Bitmap of elements this block read *before* writing them itself
    /// (read-write arrays only): the block's cross-block input set.
    reads: Vec<Vec<u64>>,
    stores: Vec<StoreRec>,
}

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

pub(crate) fn bit_set(bits: &mut Vec<u64>, i: usize, len: usize) {
    if bits.is_empty() {
        bits.resize(len.div_ceil(64), 0);
    }
    bits[i / 64] |= 1 << (i % 64);
}

/// True when two element bitmaps share any set bit.
pub(crate) fn bitmaps_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

impl GlobalMem<'_> {
    fn scalar(&self, slot: usize) -> &ArgValue {
        match self {
            GlobalMem::Direct(g) => &g.scalars[slot],
            GlobalMem::Logged(m) => &m.base.scalars[slot],
        }
    }

    fn binding(&self, slot: usize) -> ArrayBinding {
        match self {
            GlobalMem::Direct(g) => g.bindings[slot],
            GlobalMem::Logged(m) => m.base.bindings[slot],
        }
    }

    fn buf_ty_len(&self, slot: usize) -> (Scalar, usize) {
        let b = match self {
            GlobalMem::Direct(g) => &g.buffers[slot],
            GlobalMem::Logged(m) => &m.base.buffers[slot],
        };
        (b.ty(), b.len())
    }

    fn load_bits(&mut self, slot: usize, idx: usize) -> u32 {
        match self {
            GlobalMem::Direct(g) => g.buffers[slot].read_bits(idx),
            GlobalMem::Logged(m) => {
                if m.rw[slot] {
                    if bit_get(&m.written[slot], idx) {
                        // Internal invariant: a written bit implies the
                        // overlay exists.
                        return m.overlays[slot].as_ref().expect("overlay").read_bits(idx);
                    }
                    let len = m.base.buffers[slot].len();
                    bit_set(&mut m.reads[slot], idx, len);
                }
                m.base.buffers[slot].read_bits(idx)
            }
        }
    }

    fn store_bits(&mut self, slot: usize, idx: usize, bits: u32, step: u64) {
        match self {
            GlobalMem::Direct(g) => g.buffers[slot].write_bits(idx, bits),
            GlobalMem::Logged(m) => {
                m.stores.push(StoreRec { arr: slot as u32, idx: idx as u32, bits, step });
                if m.rw[slot] {
                    let base = &m.base.buffers[slot];
                    let len = base.len();
                    let buf = m.overlays[slot].get_or_insert_with(|| base.clone());
                    buf.write_bits(idx, bits);
                    bit_set(&mut m.written[slot], idx, len);
                }
            }
        }
    }
}

/// Where race-checker accesses go for this context.
enum RaceSink {
    Off,
    /// Feed the recorder; `fatal` turns the first finding into a
    /// [`FaultKind::RaceDetected`] fault.
    Recorder { rec: Box<RaceRecorder>, fatal: bool },
}

/// Everything a parallel worker hands back for one block, besides the
/// trace itself.
pub(crate) struct BlockLog {
    pub stores: Vec<StoreRec>,
    /// Per read-write array: elements read before this block's own write.
    pub reads_before_write: Vec<Vec<u64>>,
    /// The block's race report, its pcs counted from the block's first
    /// step (unchecked when the launch is not race-checked).
    pub race: RaceReport,
    /// Interpreted steps this block consumed.
    pub steps: u64,
}

/// Per-launch sanitizer state shared by every block of one launch: the
/// bound globals, the watchdog budget, and the fault injector. Keeping it
/// launch-scoped makes the watchdog a whole-kernel bound and the injector's
/// access counter monotone across blocks (so seeded runs are reproducible).
/// Parallel workers instead create one context per block over a
/// [`GlobalMem::Logged`] view.
pub(crate) struct LaunchCtx<'a> {
    pub mem: GlobalMem<'a>,
    watchdog: Option<Watchdog>,
    /// Wall-clock bound; only the sequential path ever arms it.
    deadline: Option<crate::launch::DeadlineSpec>,
    injector: Option<FaultInjector>,
    race: RaceSink,
    /// Cached recorder-interned array ids, slot-indexed (shared, param):
    /// the hot path pays one string hash per array per launch instead of
    /// one per lane access.
    race_ids: (Vec<Option<u32>>, Vec<Option<u32>>),
    /// Monotone interpreted-step counter: the deterministic "pc" race
    /// findings use to name access sites.
    step: u64,
}

impl<'a> LaunchCtx<'a> {
    pub fn new(
        globals: &'a mut GlobalState,
        watchdog_steps: Option<u64>,
        deadline: Option<crate::launch::DeadlineSpec>,
        injection: Option<InjectConfig>,
        race: Option<(RaceRecorder, bool)>,
    ) -> Self {
        LaunchCtx {
            mem: GlobalMem::Direct(globals),
            watchdog: watchdog_steps.map(|limit| Watchdog { left: limit, limit }),
            deadline,
            injector: injection.map(FaultInjector::new),
            race: match race {
                Some((rec, fatal)) => RaceSink::Recorder { rec: Box::new(rec), fatal },
                None => RaceSink::Off,
            },
            race_ids: (Vec::new(), Vec::new()),
            step: 0,
        }
    }

    /// A per-block journaling context for one parallel worker. The worker
    /// gets the *full* watchdog budget; the ordered merge later decides
    /// whether a sequential run would have hit the budget earlier. `race`
    /// is the block's own recorder, when the launch is race-checked.
    pub fn new_logged(
        base: &'a GlobalState,
        rw: &'a [bool],
        watchdog_steps: Option<u64>,
        race: Option<RaceRecorder>,
    ) -> Self {
        let n = base.buffers.len();
        LaunchCtx {
            mem: GlobalMem::Logged(LoggedMem {
                base,
                rw,
                overlays: (0..n).map(|_| None).collect(),
                written: vec![Vec::new(); n],
                reads: vec![Vec::new(); n],
                stores: Vec::new(),
            }),
            watchdog: watchdog_steps.map(|limit| Watchdog { left: limit, limit }),
            // Deadlines force the sequential path; a logged worker never
            // carries one.
            deadline: None,
            injector: None,
            race: match race {
                Some(rec) => RaceSink::Recorder { rec: Box::new(rec), fatal: false },
                None => RaceSink::Off,
            },
            race_ids: (Vec::new(), Vec::new()),
            step: 0,
        }
    }

    /// Tear a worker context down into its journal.
    pub fn finish_logged(mut self) -> BlockLog {
        let steps = self.step;
        let race = self.take_race().map(RaceRecorder::finish).unwrap_or_default();
        match self.mem {
            GlobalMem::Logged(m) => {
                BlockLog { stores: m.stores, reads_before_write: m.reads, race, steps }
            }
            GlobalMem::Direct(_) => {
                BlockLog { stores: Vec::new(), reads_before_write: Vec::new(), race, steps }
            }
        }
    }

    /// Charge one interpreted step against the watchdog budget and, every
    /// [`DEADLINE_CHECK_MASK`]+1 steps, against the wall-clock deadline.
    fn tick(&mut self, kernel_name: &str) -> Result<(), SimFault> {
        self.step += 1;
        if let Some(dl) = &self.deadline {
            if self.step & DEADLINE_CHECK_MASK == 0 && dl.expired() {
                return Err(SimFault::new(
                    kernel_name,
                    FaultKind::Deadline { budget_ms: dl.budget_ms },
                ));
            }
        }
        let Some(wd) = &mut self.watchdog else { return Ok(()) };
        if wd.left == 0 {
            return Err(SimFault::new(kernel_name, FaultKind::Watchdog { limit: wd.limit }));
        }
        wd.left -= 1;
        Ok(())
    }

    /// Consult the injector for one lane load.
    fn inject(&mut self, space: InjectSpace, addr: u64) -> Option<Injection> {
        self.injector.as_mut()?.decide(space, addr)
    }

    /// Feed one thread-granular access to the race checker; in fatal mode a
    /// triggered finding becomes a fault at the second access's warp.
    #[allow(clippy::too_many_arguments)]
    fn race_access(
        &mut self,
        ik: &InternedKernel,
        site: ArraySite,
        index: u32,
        thread: u32,
        write: bool,
        warp: u64,
    ) -> Result<(), SimFault> {
        let pc = self.step;
        match &mut self.race {
            RaceSink::Off => Ok(()),
            RaceSink::Recorder { rec, fatal } => {
                let (shared_ids, param_ids) = &mut self.race_ids;
                let cached = match site {
                    ArraySite::Shared(sl) => {
                        let sl = sl as usize;
                        if shared_ids.len() <= sl {
                            shared_ids.resize(sl + 1, None);
                        }
                        &mut shared_ids[sl]
                    }
                    ArraySite::GlobalParam(pl) => {
                        let pl = pl as usize;
                        if param_ids.len() <= pl {
                            param_ids.resize(pl + 1, None);
                        }
                        &mut param_ids[pl]
                    }
                };
                let id = match *cached {
                    Some(id) => id,
                    None => {
                        let id = rec.intern_id(site.name(ik));
                        *cached = Some(id);
                        id
                    }
                };
                let finding =
                    rec.record_access_by_id(site.space(), id, index, thread, write, pc);
                if *fatal {
                    if let Some(f) = finding {
                        return Err(SimFault::new(
                            &ik.name,
                            FaultKind::RaceDetected { detail: f.to_string() },
                        )
                        .at_warp(warp)
                        .at_lane(thread as usize % LANES));
                    }
                }
                Ok(())
            }
        }
    }

    /// Every thread of the current block passed a barrier.
    fn race_barrier_all(&mut self) {
        if let RaceSink::Recorder { rec, .. } = &mut self.race {
            rec.barrier_all();
        }
    }

    /// Begin / end race tracking for one block.
    fn race_begin_block(&mut self, block: u64, n_threads: u32) {
        if let RaceSink::Recorder { rec, .. } = &mut self.race {
            rec.begin_block(block, n_threads);
        }
    }

    fn race_end_block(&mut self) {
        if let RaceSink::Recorder { rec, .. } = &mut self.race {
            rec.end_block();
        }
    }

    fn race_armed(&self) -> bool {
        !matches!(self.race, RaceSink::Off)
    }

    /// Total interpreted steps so far (whole-launch on the sequential path).
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Take the recorder out (launch or block teardown).
    pub fn take_race(&mut self) -> Option<RaceRecorder> {
        match std::mem::replace(&mut self.race, RaceSink::Off) {
            RaceSink::Recorder { rec, .. } => Some(*rec),
            RaceSink::Off => None,
        }
    }
}

/// Typed raw storage for a shared or local array (element-major for local:
/// index `i` of lane `l` lives at `i * LANES + l`).
struct RawArray {
    ty: Scalar,
    bits: Vec<u32>,
    byte_offset: u32,
    len: u32,
    /// True for register-file arrays: functionally per-thread like local
    /// memory, but accesses cost only ALU work.
    in_registers: bool,
}

/// Per-warp interpreter state. Registers and local arrays are slot-indexed
/// by the interned kernel's numbering.
struct WarpCtx {
    regs: Vec<Option<WVal>>,
    local: Vec<RawArray>,
    tid: [WVal; 3],
    exist_mask: Mask,
    warp_global_id: u64,
    /// Block-local warp index: lane `l` of this warp is block-linear
    /// thread `warp_in_block * 32 + l` (race findings are thread-granular).
    warp_in_block: u32,
    builder: TraceBuilder,
}

/// Per-block interpreter state.
struct BlockCtx {
    shared: Vec<RawArray>,
    block_idx: (u32, u32),
    block_dim: Dim3,
    grid_dim: Dim3,
    local_layout: LocalLayout,
}

/// Wrap a lane-vector operation error into a fault at a known warp.
fn vfault(ik: &InternedKernel, warp: u64, e: ValueError) -> SimFault {
    let kind = if e.ill_typed {
        FaultKind::IllTyped { detail: e.msg }
    } else {
        FaultKind::InvalidOperation { detail: e.msg }
    };
    let mut f = SimFault::new(&ik.name, kind).at_warp(warp);
    if let Some(l) = e.lane {
        f = f.at_lane(l);
    }
    f
}

/// Execute one thread block functionally; returns its timing trace, or the
/// first fault the sanitizer detected.
pub(crate) fn run_block(
    ik: &InternedKernel,
    dev: &DeviceConfig,
    ctx: &mut LaunchCtx,
    block_idx: (u32, u32),
    grid_dim: Dim3,
    first_warp_global_id: u64,
    local_bytes_per_thread: u32,
) -> Result<BlockTrace, SimFault> {
    let block_dim = ik.block_dim;
    let n_threads = block_dim.count() as usize;
    let n_warps = n_threads.div_ceil(LANES);

    // The interning pre-pass already walked the declarations (same order,
    // same byte-offset cursors as the old per-block scan); an invalid
    // declaration space still faults before anything executes.
    if let Some((name, other)) = &ik.bad_decl {
        return Err(SimFault::new(
            &ik.name,
            FaultKind::InvalidOperation {
                detail: format!("cannot declare array {name:?} in {other:?} space"),
            },
        ));
    }

    let shared: Vec<RawArray> = ik
        .shared
        .iter()
        .map(|d| RawArray {
            ty: d.ty,
            bits: vec![0; d.len as usize],
            byte_offset: d.byte_offset,
            len: d.len,
            in_registers: false,
        })
        .collect();

    let mut block = BlockCtx {
        shared,
        block_idx,
        block_dim,
        grid_dim,
        local_layout: LocalLayout {
            bytes_per_thread: local_bytes_per_thread.max(ik.local_decl_bytes).max(1),
        },
    };

    let n_regs = ik.reg_names.len();
    let mut warps: Vec<WarpCtx> = (0..n_warps)
        .map(|w| {
            let mut tx = [0i32; LANES];
            let mut ty_ = [0i32; LANES];
            let mut tz = [0i32; LANES];
            let mut exist: Mask = 0;
            for l in 0..LANES {
                let t = w * LANES + l;
                if t < n_threads {
                    exist |= 1 << l;
                    tx[l] = (t as u32 % block_dim.x) as i32;
                    ty_[l] = ((t as u32 / block_dim.x) % block_dim.y) as i32;
                    tz[l] = (t as u32 / (block_dim.x * block_dim.y)) as i32;
                }
            }
            let local = ik
                .local
                .iter()
                .map(|d| RawArray {
                    ty: d.ty,
                    bits: vec![0; d.len as usize * LANES],
                    byte_offset: d.byte_offset,
                    len: d.len,
                    in_registers: d.in_registers,
                })
                .collect();
            WarpCtx {
                regs: vec![None; n_regs],
                local,
                tid: [WVal::I32(tx), WVal::I32(ty_), WVal::I32(tz)],
                exist_mask: exist,
                warp_global_id: first_warp_global_id + w as u64,
                warp_in_block: w as u32,
                builder: TraceBuilder::new(dev.txn_bytes, dev.l1_line),
            }
        })
        .collect();

    let block_linear = block_idx.1 as u64 * grid_dim.x as u64 + block_idx.0 as u64;
    ctx.race_begin_block(block_linear, n_threads as u32);
    exec_block_level(&ik.body, ik, &mut warps, &mut block, ctx)?;
    ctx.race_end_block();

    Ok(BlockTrace { warps: warps.into_iter().map(|w| w.builder.finish()).collect() })
}

/// Execute statements at block level, switching between warp-at-a-time and
/// lockstep execution around barriers.
fn exec_block_level(
    stmts: &[IStmt],
    ik: &InternedKernel,
    warps: &mut [WarpCtx],
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
) -> Result<(), SimFault> {
    for s in stmts {
        if !s.has_sync() {
            for w in warps.iter_mut() {
                let mask = w.exist_mask;
                exec_stmt_warp(s, ik, w, block, ctx, mask)?;
            }
            continue;
        }
        match s {
            IStmt::SyncThreads => {
                ctx.tick(&ik.name)?;
                ctx.race_barrier_all();
                for w in warps.iter_mut() {
                    w.builder.bar();
                }
            }
            IStmt::If { cond, then_body, else_body, .. } => {
                ctx.tick(&ik.name)?;
                let c = eval_uniform_cond(cond, ik, warps, block, ctx)?;
                if c {
                    exec_block_level(then_body, ik, warps, block, ctx)?;
                } else {
                    exec_block_level(else_body, ik, warps, block, ctx)?;
                }
            }
            IStmt::For { var, init, bound, step, body, .. } => {
                // Lockstep loop: every thread follows the same trip count.
                for w in warps.iter_mut() {
                    let mask = w.exist_mask;
                    let v = eval(init, ik, w, block, ctx, mask)?;
                    set_reg(w, *var, v, mask, ik)?;
                }
                loop {
                    ctx.tick(&ik.name)?;
                    // Inlined `var < bound`: reading the register emits no
                    // trace ops, the bound may, the compare costs one ALU op
                    // — the same sequence the old expression tree produced.
                    if !uniform_loop_cond(*var, bound, ik, warps, block, ctx)? {
                        break;
                    }
                    exec_block_level(body, ik, warps, block, ctx)?;
                    for w in warps.iter_mut() {
                        let mask = w.exist_mask;
                        let va = read_reg(w, *var, ik)?;
                        let vs = eval(step, ik, w, block, ctx, mask)?;
                        w.builder.alu(1);
                        let wid = w.warp_global_id;
                        let stepped = WVal::binary(BinOp::Add, &va, &vs, mask)
                            .map_err(|e| vfault(ik, wid, e))?;
                        set_reg(w, *var, stepped, mask, ik)?;
                    }
                }
            }
            // Internal invariant: has_sync() is true only for the
            // statement shapes handled above.
            other => unreachable!("statement cannot contain a barrier: {other:?}"),
        }
    }
    Ok(())
}

/// Fold one per-warp boolean into the block-uniform result, faulting on any
/// divergence (required for barrier-containing control flow).
fn fold_uniform(
    result: &mut Option<bool>,
    t: Mask,
    mask: Mask,
    wid: u64,
    ik: &InternedKernel,
) -> Result<(), SimFault> {
    if t != 0 && t != mask {
        return Err(SimFault::new(
            &ik.name,
            FaultKind::BarrierDivergence {
                detail: "barrier under divergent control flow (condition not warp-uniform)"
                    .to_string(),
            },
        )
        .at_warp(wid));
    }
    let this = t == mask && mask != 0;
    match *result {
        None => *result = Some(this),
        Some(prev) => {
            if prev != this {
                return Err(SimFault::new(
                    &ik.name,
                    FaultKind::BarrierDivergence {
                        detail:
                            "barrier under divergent control flow (condition differs across warps)"
                                .to_string(),
                    },
                )
                .at_warp(wid));
            }
        }
    }
    Ok(())
}

/// Evaluate a condition that must be uniform across the entire block.
fn eval_uniform_cond(
    cond: &IExpr,
    ik: &InternedKernel,
    warps: &mut [WarpCtx],
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
) -> Result<bool, SimFault> {
    let mut result: Option<bool> = None;
    for w in warps.iter_mut() {
        let mask = w.exist_mask;
        let c = eval(cond, ik, w, block, ctx, mask)?;
        let wid = w.warp_global_id;
        let t = c.true_mask(mask).map_err(|e| vfault(ik, wid, e))?;
        fold_uniform(&mut result, t, mask, wid, ik)?;
    }
    Ok(result.unwrap_or(false))
}

/// Block-uniform `var < bound` for a lockstep loop, with the register read
/// inlined (no per-iteration expression-tree construction).
fn uniform_loop_cond(
    var: u32,
    bound: &IExpr,
    ik: &InternedKernel,
    warps: &mut [WarpCtx],
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
) -> Result<bool, SimFault> {
    let mut result: Option<bool> = None;
    for w in warps.iter_mut() {
        let mask = w.exist_mask;
        let va = read_reg(w, var, ik)?;
        let vb = eval(bound, ik, w, block, ctx, mask)?;
        w.builder.alu(1);
        let wid = w.warp_global_id;
        let c = WVal::binary(BinOp::Lt, &va, &vb, mask).map_err(|e| vfault(ik, wid, e))?;
        let t = c.true_mask(mask).map_err(|e| vfault(ik, wid, e))?;
        fold_uniform(&mut result, t, mask, wid, ik)?;
    }
    Ok(result.unwrap_or(false))
}

/// Read a register slot, faulting like `Expr::Var` evaluation does.
fn read_reg(w: &WarpCtx, slot: u32, ik: &InternedKernel) -> Result<WVal, SimFault> {
    w.regs[slot as usize].clone().ok_or_else(|| {
        SimFault::new(
            &ik.name,
            FaultKind::UndeclaredName { name: ik.reg_names[slot as usize].clone() },
        )
        .at_warp(w.warp_global_id)
        .with_context("use of undeclared scalar")
    })
}

fn set_reg(
    w: &mut WarpCtx,
    slot: u32,
    val: WVal,
    mask: Mask,
    ik: &InternedKernel,
) -> Result<(), SimFault> {
    let wid = w.warp_global_id;
    match &mut w.regs[slot as usize] {
        Some(existing) => existing.merge_from(&val, mask).map_err(|e| {
            vfault(ik, wid, e)
                .with_context(format!("assignment to {:?}", ik.reg_names[slot as usize]))
        })?,
        r @ None => {
            let mut fresh = WVal::zero(val.ty());
            // Internal invariant: fresh has val's own type.
            fresh.merge_from(&val, mask).expect("fresh register matches value type");
            *r = Some(fresh);
        }
    }
    Ok(())
}

/// Execute one statement for one warp under `mask`.
fn exec_stmt_warp(
    s: &IStmt,
    ik: &InternedKernel,
    w: &mut WarpCtx,
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
    mask: Mask,
) -> Result<(), SimFault> {
    if mask == 0 {
        return Ok(());
    }
    ctx.tick(&ik.name)?;
    match s {
        IStmt::DeclScalar { slot, ty, init } => {
            let val = match init {
                Some(e) => eval(e, ik, w, block, ctx, mask)?,
                None => WVal::zero(*ty),
            };
            if val.ty() != *ty {
                return Err(SimFault::new(
                    &ik.name,
                    FaultKind::IllTyped {
                        detail: format!(
                            "initializer type mismatch for {:?}: declared {ty:?}, got {:?}",
                            ik.reg_names[*slot as usize],
                            val.ty()
                        ),
                    },
                )
                .at_warp(w.warp_global_id));
            }
            // A declaration (re-)initializes: overwrite under mask, default
            // elsewhere if previously absent.
            set_reg(w, *slot, val, mask, ik)?;
        }
        IStmt::DeclArray => { /* pre-created in run_block */ }
        IStmt::Assign { slot, value } => {
            let val = eval(value, ik, w, block, ctx, mask)?;
            set_reg(w, *slot, val, mask, ik)?;
        }
        IStmt::Store { array, index, value } => {
            let idx = eval(index, ik, w, block, ctx, mask)?;
            let val = eval(value, ik, w, block, ctx, mask)?;
            store_array(*array, &idx, &val, ik, w, block, ctx, mask)?;
        }
        IStmt::If { cond, then_body, else_body, .. } => {
            let c = eval(cond, ik, w, block, ctx, mask)?;
            let wid = w.warp_global_id;
            let t_mask = c.true_mask(mask).map_err(|e| vfault(ik, wid, e))?;
            let e_mask = mask & !t_mask;
            // Both sides populated: the warp serializes through each path.
            let diverged = t_mask != 0 && e_mask != 0;
            if diverged {
                w.builder.divergence_event();
                w.builder.enter_divergent();
            }
            // A fault unwinds past the exit_divergent below; that's fine —
            // the faulted launch discards its builder and counters.
            if t_mask != 0 {
                for st in then_body {
                    exec_stmt_warp(st, ik, w, block, ctx, t_mask)?;
                }
            }
            if e_mask != 0 {
                for st in else_body {
                    exec_stmt_warp(st, ik, w, block, ctx, e_mask)?;
                }
            }
            if diverged {
                w.builder.exit_divergent();
            }
        }
        IStmt::For { var, init, bound, step, body, .. } => {
            let v0 = eval(init, ik, w, block, ctx, mask)?;
            set_reg(w, *var, v0, mask, ik)?;
            let mut active = mask;
            // Lanes exit a warp-level loop independently; once the live set
            // shrinks below the entry mask the remaining iterations run
            // divergent (the mask only ever shrinks, so enter once).
            let mut partial = false;
            loop {
                ctx.tick(&ik.name)?;
                // Inlined `var < bound` under the live mask; emission order
                // matches the old expression-tree evaluation exactly.
                let va = read_reg(w, *var, ik)?;
                let vb = eval(bound, ik, w, block, ctx, active)?;
                w.builder.alu(1);
                let wid = w.warp_global_id;
                let c =
                    WVal::binary(BinOp::Lt, &va, &vb, active).map_err(|e| vfault(ik, wid, e))?;
                active = c.true_mask(active).map_err(|e| vfault(ik, wid, e))?;
                if active == 0 {
                    break;
                }
                if !partial && active != mask {
                    partial = true;
                    w.builder.divergence_event();
                    w.builder.enter_divergent();
                }
                for st in body {
                    exec_stmt_warp(st, ik, w, block, ctx, active)?;
                }
                let va = read_reg(w, *var, ik)?;
                let vs = eval(step, ik, w, block, ctx, active)?;
                w.builder.alu(1);
                let stepped =
                    WVal::binary(BinOp::Add, &va, &vs, active).map_err(|e| vfault(ik, wid, e))?;
                set_reg(w, *var, stepped, active, ik)?;
            }
            if partial {
                w.builder.exit_divergent();
            }
        }
        IStmt::SyncThreads => {
            // Internal invariant: exec_block_level routes every
            // barrier-containing statement away from the warp path.
            unreachable!("barrier must be handled at block level")
        }
    }
    Ok(())
}

/// Evaluate an expression for one warp under `mask`, emitting trace ops.
fn eval(
    e: &IExpr,
    ik: &InternedKernel,
    w: &mut WarpCtx,
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
    mask: Mask,
) -> Result<WVal, SimFault> {
    let out = match e {
        IExpr::ImmF32(x) => WVal::splat_f32(*x),
        IExpr::ImmI32(x) => WVal::splat_i32(*x),
        IExpr::ImmU32(x) => WVal::splat_u32(*x),
        IExpr::ImmBool(x) => WVal::splat_bool(*x),
        IExpr::Var(slot) => read_reg(w, *slot, ik)?,
        IExpr::Param(p) => match p {
            ParamRef::Scalar(s) => match ctx.mem.scalar(*s as usize) {
                ArgValue::F32(x) => WVal::splat_f32(*x),
                ArgValue::I32(x) => WVal::splat_i32(*x),
                ArgValue::U32(x) => WVal::splat_u32(*x),
                // Internal invariant: bind() stores only scalar values in
                // scalar slots.
                ArgValue::Buf(_) => unreachable!("scalar slot holds a buffer"),
            },
            ParamRef::Unknown(u) => {
                return Err(SimFault::new(
                    &ik.name,
                    FaultKind::UndeclaredName { name: ik.unknown_names[*u as usize].clone() },
                )
                .at_warp(w.warp_global_id)
                .with_context("parameter is not a bound scalar"))
            }
        },
        IExpr::Special(s) => match s {
            Special::ThreadIdxX => w.tid[0].clone(),
            Special::ThreadIdxY => w.tid[1].clone(),
            Special::ThreadIdxZ => w.tid[2].clone(),
            Special::BlockIdxX => WVal::splat_i32(block.block_idx.0 as i32),
            Special::BlockIdxY => WVal::splat_i32(block.block_idx.1 as i32),
            Special::BlockDimX => WVal::splat_i32(block.block_dim.x as i32),
            Special::BlockDimY => WVal::splat_i32(block.block_dim.y as i32),
            Special::BlockDimZ => WVal::splat_i32(block.block_dim.z as i32),
            Special::GridDimX => WVal::splat_i32(block.grid_dim.x as i32),
            Special::GridDimY => WVal::splat_i32(block.grid_dim.y as i32),
        },
        IExpr::Unary(op, a) => {
            let va = eval(a, ik, w, block, ctx, mask)?;
            if op.is_sfu() {
                w.builder.sfu(1);
            } else {
                w.builder.alu(1);
            }
            let wid = w.warp_global_id;
            WVal::unary(*op, &va, mask).map_err(|e| vfault(ik, wid, e))?
        }
        IExpr::Binary(op, a, b) => {
            let va = eval(a, ik, w, block, ctx, mask)?;
            let vb = eval(b, ik, w, block, ctx, mask)?;
            w.builder.alu(1);
            let wid = w.warp_global_id;
            WVal::binary(*op, &va, &vb, mask).map_err(|e| vfault(ik, wid, e))?
        }
        IExpr::Select(c, a, b) => {
            let vc = eval(c, ik, w, block, ctx, mask)?;
            let va = eval(a, ik, w, block, ctx, mask)?;
            let vb = eval(b, ik, w, block, ctx, mask)?;
            w.builder.alu(1);
            let wid = w.warp_global_id;
            let tm = vc.true_mask(mask).map_err(|e| vfault(ik, wid, e))?;
            let mut out = vb;
            out.merge_from(&va, tm)
                .map_err(|e| vfault(ik, wid, e).with_context("select arms"))?;
            out
        }
        IExpr::Cast(ty, a) => {
            let va = eval(a, ik, w, block, ctx, mask)?;
            w.builder.alu(1);
            va.cast(*ty, mask)
        }
        IExpr::Load { array, index } => {
            let idx = eval(index, ik, w, block, ctx, mask)?;
            load_array(*array, &idx, ik, w, block, ctx, mask)?
        }
        IExpr::Shfl { mode, value, lane, width } => {
            let vv = eval(value, ik, w, block, ctx, mask)?;
            let vl = eval(lane, ik, w, block, ctx, mask)?;
            w.builder.shfl(match mode {
                ShflMode::Idx => ShflKind::Broadcast,
                ShflMode::Xor => ShflKind::Xor,
                ShflMode::Up => ShflKind::Up,
                ShflMode::Down => ShflKind::Down,
            });
            let wid = w.warp_global_id;
            shfl_permute(*mode, &vv, &vl, *width, mask, &ik.name).map_err(|f| f.at_warp(wid))?
        }
    };
    Ok(out)
}

/// CUDA `__shfl` family semantics over a warp-wide value.
fn shfl_permute(
    mode: ShflMode,
    value: &WVal,
    lane_arg: &WVal,
    width: u32,
    mask: Mask,
    kernel_name: &str,
) -> Result<WVal, SimFault> {
    if !(width.is_power_of_two() && width >= 1 && width as usize <= LANES) {
        return Err(SimFault::new(
            kernel_name,
            FaultKind::InvalidOperation {
                detail: format!("__shfl width must be a power of two in [1, 32], got {width}"),
            },
        ));
    }
    let wm = width as i64;
    let mut out = value.clone();
    let mut src = [0usize; LANES];
    for (l, s) in src.iter_mut().enumerate() {
        let arg = lane_arg.lane_index(l).ok_or_else(|| {
            SimFault::new(
                kernel_name,
                FaultKind::IllTyped {
                    detail: format!(
                        "__shfl lane argument must be an integer, found {:?}",
                        lane_arg.ty()
                    ),
                },
            )
            .at_lane(l)
        })?;
        let base = (l as i64 / wm) * wm;
        *s = match mode {
            ShflMode::Idx => (base + arg.rem_euclid(wm)) as usize,
            ShflMode::Up => {
                let x = l as i64 - arg;
                if x < base {
                    l
                } else {
                    x as usize
                }
            }
            ShflMode::Down => {
                let x = l as i64 + arg;
                if x >= base + wm {
                    l
                } else {
                    x as usize
                }
            }
            ShflMode::Xor => {
                let x = l as i64 ^ arg;
                if x >= base + wm || x < base {
                    l
                } else {
                    x as usize
                }
            }
        };
    }
    let bits: [u32; LANES] = std::array::from_fn(|l| value.lane_bits(src[l]));
    let permuted = WVal::from_bits(value.ty(), bits);
    // Internal invariant: permuted has value's own type.
    out.merge_from(&permuted, mask).expect("shfl preserves the value type");
    Ok(out)
}

/// The lane's index value as an integer, or an `IllTyped` fault.
fn lane_index(
    idx: &WVal,
    lane: usize,
    array: &str,
    kernel_name: &str,
) -> Result<i64, SimFault> {
    idx.lane_index(lane).ok_or_else(|| {
        SimFault::new(
            kernel_name,
            FaultKind::IllTyped {
                detail: format!("index into {array:?} must be an integer, found {:?}", idx.ty()),
            },
        )
        .at_lane(lane)
    })
}

#[allow(clippy::too_many_arguments)]
fn check_index(
    array: &str,
    idx: i64,
    len: usize,
    space: MemSpace,
    write: bool,
    kernel_name: &str,
    lane: usize,
) -> Result<usize, SimFault> {
    if idx >= 0 && (idx as usize) < len {
        Ok(idx as usize)
    } else {
        Err(SimFault::new(
            kernel_name,
            FaultKind::OutOfBounds { space, array: array.to_string(), index: idx, len, write },
        )
        .at_lane(lane))
    }
}


#[allow(clippy::too_many_arguments)]
fn load_array(
    aref: ArrayRef,
    idx: &WVal,
    ik: &InternedKernel,
    w: &mut WarpCtx,
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
    mask: Mask,
) -> Result<WVal, SimFault> {
    let wid = w.warp_global_id;
    match aref {
        ArrayRef::Shared(si) => {
            let si = si as usize;
            let name = ik.shared[si].name.as_str();
            let mut addrs: LaneAddrs = [None; LANES];
            let mut bits = [0u32; LANES];
            let mut touched = [(0usize, 0usize); LANES];
            let mut ntouched = 0usize;
            let inj = ctx.injector.is_some();
            let arr = &block.shared[si];
            let ty = arr.ty;
            let arr_len = arr.len as usize;
            let byte_offset = arr.byte_offset;
            for l in lanes(mask) {
                let li = lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                let i = check_index(name, li, arr_len, MemSpace::Shared, false, &ik.name, l)
                    .map_err(|f| f.at_warp(wid))?;
                let addr = byte_offset as u64 + i as u64 * 4;
                addrs[l] = Some(addr);
                bits[l] = arr.bits[i];
                if inj {
                    match ctx.inject(InjectSpace::Shared, addr) {
                        Some(Injection::BitFlip(b)) => bits[l] ^= 1 << b,
                        Some(Injection::Fault) => {
                            return Err(SimFault::new(
                                &ik.name,
                                FaultKind::Injected { space: InjectSpace::Shared, addr },
                            )
                            .at_warp(wid)
                            .at_lane(l)
                            .with_context(format!("load {name}[{li}]")))
                        }
                        None => {}
                    }
                }
                touched[ntouched] = (l, i);
                ntouched += 1;
            }
            if ctx.race_armed() {
                let warp_base = w.warp_in_block * LANES as u32;
                for &(l, i) in &touched[..ntouched] {
                    ctx.race_access(
                        ik,
                        ArraySite::Shared(si as u32),
                        i as u32,
                        warp_base + l as u32,
                        false,
                        wid,
                    )?;
                }
            }
            w.builder.shared(&addrs, false);
            Ok(WVal::from_bits(ty, bits))
        }
        ArrayRef::Local(li_slot) => {
            let arr = &w.local[li_slot as usize];
            let name = ik.local[li_slot as usize].name.as_str();
            let mut offsets = [None; LANES];
            let mut bits = [0u32; LANES];
            let ty = arr.ty;
            let in_regs = arr.in_registers;
            let arr_len = arr.len as usize;
            let byte_offset = arr.byte_offset;
            let inj = ctx.injector.is_some();
            for l in lanes(mask) {
                let li = lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                let i = check_index(name, li, arr_len, MemSpace::Local, false, &ik.name, l)
                    .map_err(|f| f.at_warp(wid))?;
                let off = byte_offset + i as u32 * 4;
                offsets[l] = Some(off);
                bits[l] = arr.bits[i * LANES + l];
                // Register-file arrays are not memory: the injector skips
                // them.
                if inj && !in_regs {
                    match ctx.inject(InjectSpace::Local, off as u64) {
                        Some(Injection::BitFlip(b)) => bits[l] ^= 1 << b,
                        Some(Injection::Fault) => {
                            return Err(SimFault::new(
                                &ik.name,
                                FaultKind::Injected {
                                    space: InjectSpace::Local,
                                    addr: off as u64,
                                },
                            )
                            .at_warp(wid)
                            .at_lane(l)
                            .with_context(format!("load {name}[{li}]")))
                        }
                        None => {}
                    }
                }
            }
            if in_regs {
                w.builder.alu(1);
            } else {
                let layout = block.local_layout;
                w.builder.local(layout, wid, &offsets, false);
            }
            Ok(WVal::from_bits(ty, bits))
        }
        ArrayRef::Param(ai) => {
            let ai = ai as usize;
            let name = ik.array_params[ai].name.as_str();
            let binding = ctx.mem.binding(ai);
            let (ty, buf_len) = ctx.mem.buf_ty_len(ai);
            let mut addrs: LaneAddrs = [None; LANES];
            let mut bits = [0u32; LANES];
            let mut loaded = [(0usize, 0i64, 0u64); LANES];
            let mut nloaded = 0usize;
            // Hoist the memory-view dispatch out of the lane loop: on the
            // sequential (Direct) path every lane reads one borrowed buffer;
            // the journaling path keeps its per-lane bookkeeping.
            match &mut ctx.mem {
                GlobalMem::Direct(g) => {
                    let buf = &g.buffers[ai];
                    for l in lanes(mask) {
                        let li =
                            lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                        let i =
                            check_index(name, li, buf_len, binding.space, false, &ik.name, l)
                                .map_err(|f| f.at_warp(wid))?;
                        let addr = binding.base_addr + i as u64 * 4;
                        addrs[l] = Some(addr);
                        bits[l] = buf.read_bits(i);
                        loaded[nloaded] = (l, li, addr);
                        nloaded += 1;
                    }
                }
                mem @ GlobalMem::Logged(_) => {
                    for l in lanes(mask) {
                        let li =
                            lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                        let i =
                            check_index(name, li, buf_len, binding.space, false, &ik.name, l)
                                .map_err(|f| f.at_warp(wid))?;
                        let addr = binding.base_addr + i as u64 * 4;
                        addrs[l] = Some(addr);
                        bits[l] = mem.load_bits(ai, i);
                        loaded[nloaded] = (l, li, addr);
                        nloaded += 1;
                    }
                }
            }
            if ctx.race_armed() && binding.space == MemSpace::Global {
                let warp_base = w.warp_in_block * LANES as u32;
                for &(l, li, _) in &loaded[..nloaded] {
                    ctx.race_access(
                        ik,
                        ArraySite::GlobalParam(ai as u32),
                        li as u32,
                        warp_base + l as u32,
                        false,
                        wid,
                    )?;
                }
            }
            if ctx.injector.is_some() {
                for &(l, li, addr) in &loaded[..nloaded] {
                    match ctx.inject(InjectSpace::Global, addr) {
                        Some(Injection::BitFlip(b)) => bits[l] ^= 1 << b,
                        Some(Injection::Fault) => {
                            return Err(SimFault::new(
                                &ik.name,
                                FaultKind::Injected { space: InjectSpace::Global, addr },
                            )
                            .at_warp(wid)
                            .at_lane(l)
                            .with_context(format!("load {name}[{li}]")))
                        }
                        None => {}
                    }
                }
            }
            match binding.space {
                MemSpace::Global => w.builder.global(&addrs, 4, false),
                MemSpace::Texture => w.builder.tex(&addrs),
                MemSpace::Constant => w.builder.constant(&addrs),
                // Internal invariant: bind() only creates these three
                // spaces.
                _ => unreachable!(),
            }
            Ok(WVal::from_bits(ty, bits))
        }
        ArrayRef::Unknown(u) => Err(SimFault::new(
            &ik.name,
            FaultKind::UndeclaredName { name: ik.unknown_names[u as usize].clone() },
        )
        .at_warp(wid)
        .with_context("load from unknown array")),
    }
}

#[allow(clippy::too_many_arguments)]
fn store_array(
    aref: ArrayRef,
    idx: &WVal,
    val: &WVal,
    ik: &InternedKernel,
    w: &mut WarpCtx,
    block: &mut BlockCtx,
    ctx: &mut LaunchCtx,
    mask: Mask,
) -> Result<(), SimFault> {
    let wid = w.warp_global_id;
    match aref {
        ArrayRef::Shared(si) => {
            let si = si as usize;
            let name = ik.shared[si].name.as_str();
            let arr = &mut block.shared[si];
            if val.ty() != arr.ty {
                return Err(
                    ill_typed_store(&ik.name, "shared", name, arr.ty, val.ty()).at_warp(wid)
                );
            }
            let mut addrs: LaneAddrs = [None; LANES];
            let mut touched = [(0usize, 0usize); LANES];
            let mut ntouched = 0usize;
            let arr_len = arr.len as usize;
            for l in lanes(mask) {
                let li = lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                let i = check_index(name, li, arr_len, MemSpace::Shared, true, &ik.name, l)
                    .map_err(|f| f.at_warp(wid))?;
                addrs[l] = Some(arr.byte_offset as u64 + i as u64 * 4);
                arr.bits[i] = val.lane_bits(l);
                touched[ntouched] = (l, i);
                ntouched += 1;
            }
            if ctx.race_armed() {
                let warp_base = w.warp_in_block * LANES as u32;
                for &(l, i) in &touched[..ntouched] {
                    ctx.race_access(
                        ik,
                        ArraySite::Shared(si as u32),
                        i as u32,
                        warp_base + l as u32,
                        true,
                        wid,
                    )?;
                }
            }
            w.builder.shared(&addrs, true);
            Ok(())
        }
        ArrayRef::Local(li_slot) => {
            let arr = &mut w.local[li_slot as usize];
            let name = ik.local[li_slot as usize].name.as_str();
            if val.ty() != arr.ty {
                return Err(
                    ill_typed_store(&ik.name, "local", name, arr.ty, val.ty()).at_warp(wid)
                );
            }
            let mut offsets = [None; LANES];
            let arr_len = arr.len as usize;
            for l in lanes(mask) {
                let li = lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                let i = check_index(name, li, arr_len, MemSpace::Local, true, &ik.name, l)
                    .map_err(|f| f.at_warp(wid))?;
                offsets[l] = Some(arr.byte_offset + i as u32 * 4);
                arr.bits[i * LANES + l] = val.lane_bits(l);
            }
            let in_regs = arr.in_registers;
            if in_regs {
                w.builder.alu(1);
            } else {
                let layout = block.local_layout;
                w.builder.local(layout, wid, &offsets, true);
            }
            Ok(())
        }
        ArrayRef::Param(ai) => {
            let ai = ai as usize;
            let name = ik.array_params[ai].name.as_str();
            let binding = ctx.mem.binding(ai);
            if binding.space != MemSpace::Global {
                return Err(SimFault::new(
                    &ik.name,
                    FaultKind::InvalidOperation {
                        detail: format!(
                            "stores are only legal to global memory ({name:?} is {:?})",
                            binding.space
                        ),
                    },
                )
                .at_warp(wid));
            }
            let (buf_ty, buf_len) = ctx.mem.buf_ty_len(ai);
            if val.ty() != buf_ty {
                return Err(
                    ill_typed_store(&ik.name, "global", name, buf_ty, val.ty()).at_warp(wid)
                );
            }
            let mut addrs: LaneAddrs = [None; LANES];
            let mut stored = [(0usize, 0usize); LANES];
            let mut nstored = 0usize;
            // Same dispatch hoist as the load path: Direct writes go
            // straight to one borrowed buffer, journaled writes keep their
            // per-lane step stamps.
            let step = ctx.step;
            match &mut ctx.mem {
                GlobalMem::Direct(g) => {
                    let buf = &mut g.buffers[ai];
                    for l in lanes(mask) {
                        let li =
                            lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                        let i =
                            check_index(name, li, buf_len, MemSpace::Global, true, &ik.name, l)
                                .map_err(|f| f.at_warp(wid))?;
                        addrs[l] = Some(binding.base_addr + i as u64 * 4);
                        buf.write_bits(i, val.lane_bits(l));
                        stored[nstored] = (l, i);
                        nstored += 1;
                    }
                }
                mem @ GlobalMem::Logged(_) => {
                    for l in lanes(mask) {
                        let li =
                            lane_index(idx, l, name, &ik.name).map_err(|f| f.at_warp(wid))?;
                        let i =
                            check_index(name, li, buf_len, MemSpace::Global, true, &ik.name, l)
                                .map_err(|f| f.at_warp(wid))?;
                        addrs[l] = Some(binding.base_addr + i as u64 * 4);
                        mem.store_bits(ai, i, val.lane_bits(l), step);
                        stored[nstored] = (l, i);
                        nstored += 1;
                    }
                }
            }
            if ctx.race_armed() {
                let warp_base = w.warp_in_block * LANES as u32;
                for &(l, i) in &stored[..nstored] {
                    ctx.race_access(
                        ik,
                        ArraySite::GlobalParam(ai as u32),
                        i as u32,
                        warp_base + l as u32,
                        true,
                        wid,
                    )?;
                }
            }
            w.builder.global(&addrs, 4, true);
            Ok(())
        }
        ArrayRef::Unknown(u) => Err(SimFault::new(
            &ik.name,
            FaultKind::UndeclaredName { name: ik.unknown_names[u as usize].clone() },
        )
        .at_warp(wid)
        .with_context("store to unknown array")),
    }
}

fn ill_typed_store(
    kernel_name: &str,
    space: &str,
    array: &str,
    expected: Scalar,
    got: Scalar,
) -> SimFault {
    SimFault::new(
        kernel_name,
        FaultKind::IllTyped {
            detail: format!(
                "store type mismatch into {space} {array:?}: array is {expected:?}, value is {got:?}"
            ),
        },
    )
}
