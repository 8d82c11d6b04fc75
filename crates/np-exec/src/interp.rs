//! The SIMT interpreter: functional lockstep execution of one thread block
//! from its compiled [`Program`], emitting a timing trace as a side effect.
//!
//! Execution model:
//! * warps execute ops in SIMT lockstep with an active-lane mask;
//!   `If`/`For` divergence serializes both paths / extra iterations, which
//!   shows up in the trace exactly as it would on hardware;
//! * statements that contain no `__syncthreads` execute warp-at-a-time;
//!   statements that do contain a barrier (bare syncs, uniform loops or
//!   conditionals with syncs inside) execute in block-level lockstep, and
//!   the interpreter *checks* the CUDA contract that control flow around
//!   barriers is uniform across the block;
//! * warps of one block run sequentially in warp-id order, one statement
//!   at a time, so functional results are deterministic even for racy
//!   kernels.
//!
//! Each block worker owns one [`Vm`]: a value file per warp (registers,
//! specials, constants, temporaries; see [`crate::program`]), the block's
//! shared arrays and the mask stack, reused from block to block. Types are
//! checked per op from the operands' tags, so ill-typed code faults only
//! when a lane reaches it.
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
use crate::machine::{ArrayBinding, Buffer, GlobalState};
use crate::program::{ArrayRef, BlockOp, Op, Program, Slot, BLOCK_IDX, SPECIALS, TID};
use crate::value::{self, blend, bool_mask, lanes, Lanes, Mask, ValueError, FULL_MASK, LANES};
use np_gpu_sim::config::DeviceConfig;
use np_gpu_sim::mem::inject::{FaultInjector, InjectConfig, InjectSpace, Injection};
use np_gpu_sim::mem::local::LocalLayout;
use np_gpu_sim::mem::LaneAddrs;
use np_gpu_sim::racecheck::{RaceRecorder, RaceReport, RaceSpace};
use np_gpu_sim::trace::{BlockTrace, ShflKind, TraceBuilder};
use np_kernel_ir::expr::{BinOp, ShflMode};
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
    /// Index into [`Program::shared`].
    Shared(u32),
    /// Index into [`Program::params`].
    GlobalParam(u32),
}

impl ArraySite {
    fn space(self) -> RaceSpace {
        match self {
            ArraySite::Shared(_) => RaceSpace::Shared,
            ArraySite::GlobalParam(_) => RaceSpace::Global,
        }
    }

    fn name(self, prog: &Program) -> &str {
        match self {
            ArraySite::Shared(i) => &prog.shared[i as usize].name,
            ArraySite::GlobalParam(i) => &prog.params[i as usize].name,
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

    /// Read array `slot` at `idx` into `bits` for the lanes of `mask`.
    fn load_lanes(&mut self, slot: usize, idx: &Lanes, mask: Mask, bits: &mut Lanes) {
        match self {
            GlobalMem::Direct(g) => g.buffers[slot].read_lanes(idx, mask, bits),
            GlobalMem::Logged(m) if !m.rw[slot] => m.base.buffers[slot].read_lanes(idx, mask, bits),
            mem => lanes(mask).for_each(|l| bits[l] = mem.load_bits(slot, idx[l] as usize)),
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
    Recorder {
        rec: Box<RaceRecorder>,
        fatal: bool,
    },
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
        let Some(wd) = &mut self.watchdog else {
            return Ok(());
        };
        if wd.left == 0 {
            return Err(SimFault::new(kernel_name, FaultKind::Watchdog { limit: wd.limit }));
        }
        wd.left -= 1;
        Ok(())
    }

    /// Consult the injector for lane `lane` of `at` loading `bits` from
    /// `addr` (element `site`): a bit flip corrupts the lane, a forced fault
    /// stops the load.
    fn inject(
        &mut self,
        prog: &Program,
        (space, addr): (InjectSpace, u64),
        bits: &mut u32,
        at: &Index,
        lane: usize,
        site: (&str, u32),
    ) -> Result<(), SimFault> {
        match self.injector.as_mut().and_then(|inj| inj.decide(space, addr)) {
            Some(Injection::BitFlip(b)) => *bits ^= 1 << b,
            Some(Injection::Fault) => {
                return Err(SimFault::new(&prog.name, FaultKind::Injected { space, addr })
                    .at_warp(at.warp)
                    .at_lane(lane)
                    .with_context(format!("load {}[{}]", site.0, site.1)))
            }
            None => {}
        }
        Ok(())
    }

    /// Feed one warp access to `site`, thread-granular and in lane order, to
    /// the race checker; in fatal mode a triggered finding becomes a fault
    /// at the second access's warp and lane.
    fn race_lanes(
        &mut self,
        prog: &Program,
        site: ArraySite,
        at: &Index,
        write: bool,
    ) -> Result<(), SimFault> {
        let pc = self.step;
        let RaceSink::Recorder { rec, fatal } = &mut self.race else { return Ok(()) };
        let (shared_ids, param_ids) = &mut self.race_ids;
        let (ids, slot) = match site {
            ArraySite::Shared(s) => (shared_ids, s as usize),
            ArraySite::GlobalParam(p) => (param_ids, p as usize),
        };
        if ids.len() <= slot {
            ids.resize(slot + 1, None);
        }
        let id = *ids[slot].get_or_insert_with(|| rec.intern_id(site.name(prog)));
        for l in lanes(at.mask) {
            let thread = at.base + l as u32;
            let finding = rec.record_access_by_id(site.space(), id, at.idx[l], thread, write, pc);
            if let (true, Some(f)) = (*fatal, finding) {
                return Err(SimFault::new(
                    &prog.name,
                    FaultKind::RaceDetected { detail: f.to_string() },
                )
                .at_warp(at.warp)
                .at_lane(l));
            }
        }
        Ok(())
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

/// Wrap a lane-vector operation error into a fault at a known warp.
fn vfault(prog: &Program, warp: u64, e: ValueError) -> SimFault {
    let kind = if e.ill_typed {
        FaultKind::IllTyped { detail: e.msg }
    } else {
        FaultKind::InvalidOperation { detail: e.msg }
    };
    let mut f = SimFault::new(&prog.name, kind).at_warp(warp);
    if let Some(l) = e.lane {
        f = f.at_lane(l);
    }
    f
}

fn ill_typed(prog: &Program, warp: u64, detail: String) -> SimFault {
    SimFault::new(&prog.name, FaultKind::IllTyped { detail }).at_warp(warp)
}

/// One warp's state: its value file and its per-thread arrays.
struct Warp {
    bits: Vec<Lanes>,
    /// `None` marks a register no lane of this warp has assigned yet.
    tags: Vec<Option<Scalar>>,
    /// Local and register-file arrays, element-major: index `i` of lane
    /// `l` lives at `i * LANES + l`.
    local: Vec<Vec<u32>>,
    exist: Mask,
    /// Global warp id within the launch.
    gid: u64,
    /// Block-linear thread id of lane 0 (race findings are thread-granular).
    base: u32,
    builder: TraceBuilder,
}

impl Warp {
    /// The type of the value in `slot`; a register no lane has assigned
    /// faults.
    #[inline(always)]
    fn ty(&self, slot: Slot, prog: &Program) -> Result<Scalar, SimFault> {
        match self.tags[slot as usize] {
            Some(t) => Ok(t),
            None => Err(self.undeclared(slot, prog)),
        }
    }

    #[cold]
    fn undeclared(&self, slot: Slot, prog: &Program) -> SimFault {
        let name = prog.reg_names[slot as usize].clone();
        SimFault::new(&prog.name, FaultKind::UndeclaredName { name })
            .at_warp(self.gid)
            .with_context("use of undeclared scalar")
    }

    #[inline]
    fn put(&mut self, dst: Slot, ty: Scalar, v: Lanes) {
        self.bits[dst as usize] = v;
        self.tags[dst as usize] = Some(ty);
    }

    /// Assign `src` to register `reg` under `mask`. A register takes its
    /// type from its first assignment, zero in the lanes outside the mask.
    fn assign(&mut self, reg: Slot, src: Slot, mask: Mask, prog: &Program) -> Result<(), SimFault> {
        let (r, ty) = (reg as usize, self.ty(src, prog)?);
        let old = match self.tags[r] {
            Some(t) if t != ty => {
                return Err(ill_typed(
                    prog,
                    self.gid,
                    format!("type mismatch in assignment: {t:?} = {ty:?}"),
                )
                .with_context(format!("assignment to {:?}", prog.reg_names[r])))
            }
            Some(_) => self.bits[r],
            None => [0; LANES],
        };
        let v = blend(mask, &self.bits[src as usize], &old);
        self.put(reg, ty, v);
        Ok(())
    }
}

/// Mask-stack entry of a warp-level `If` (`other` = the else lanes, `flag`
/// = diverged) or loop (`flag` = ran with a partial mask).
struct Frame {
    saved: Mask,
    other: Mask,
    flag: bool,
}

/// What a memory op touches besides its warp.
struct Mem<'v, 'c, 'g> {
    prog: &'v Program,
    ctx: &'c mut LaunchCtx<'g>,
    shared: &'v mut [Vec<u32>],
    layout: LocalLayout,
}

/// One memory op's index operand, with the warp and lanes it runs on.
struct Index {
    ty: Scalar,
    idx: Lanes,
    mask: Mask,
    warp: u64,
    /// Block-linear thread id of lane 0.
    base: u32,
}

impl Index {
    /// Check the index over the active lanes: it must be an integer.
    /// Returns the lanes that take effect — those before the first
    /// out-of-bounds lane — and that lane's fault, which follows them.
    fn bounds(
        &self,
        prog: &Program,
        (array, len): (&str, usize),
        space: MemSpace,
        write: bool,
    ) -> Result<(Mask, Option<Box<SimFault>>), SimFault> {
        let (ty, idx, mask) = (self.ty, &self.idx, self.mask);
        if !matches!(ty, Scalar::I32 | Scalar::U32) {
            let detail = format!("index into {array:?} must be an integer, found {ty:?}");
            return Err(ill_typed(prog, self.warp, detail).at_lane(mask.trailing_zeros() as usize));
        }
        // Every lane in bounds (the common case) needs no per-lane mask.
        let len32 = u32::try_from(len).unwrap_or(u32::MAX);
        if idx.iter().fold(0, |any, &i| any | (i >= len32) as u32) == 0 {
            return Ok((mask, None));
        }
        let bad =
            idx.iter().enumerate().fold(0, |m, (l, &i)| m | ((i as usize >= len) as u32) << l);
        let Some(lane) = (bad & mask != 0).then(|| (bad & mask).trailing_zeros() as usize) else {
            return Ok((mask, None));
        };
        let index = if ty == Scalar::I32 { idx[lane] as i32 as i64 } else { idx[lane] as i64 };
        let kind = FaultKind::OutOfBounds { space, array: array.to_string(), index, len, write };
        let fault = SimFault::new(&prog.name, kind).at_warp(self.warp).at_lane(lane);
        Ok((mask & ((1 << lane) - 1), Some(Box::new(fault))))
    }

    fn addr(&self, base: u64, l: usize) -> u64 {
        base + self.idx[l] as u64 * 4
    }
}

fn unknown_array(prog: &Program, warp: u64, u: u32, what: &str) -> SimFault {
    let name = prog.unknown_names[u as usize].clone();
    SimFault::new(&prog.name, FaultKind::UndeclaredName { name })
        .at_warp(warp)
        .with_context(format!("{what} unknown array"))
}

impl Warp {
    fn index(&self, idx: Slot, mask: Mask, prog: &Program) -> Result<Index, SimFault> {
        let ty = self.ty(idx, prog)?;
        Ok(Index { ty, idx: self.bits[idx as usize], mask, warp: self.gid, base: self.base })
    }

    /// Load into `bits` (zeroed) from `array` at `idx`; returns the
    /// element type.
    fn load(
        &mut self,
        m: &mut Mem,
        array: ArrayRef,
        idx: Slot,
        mask: Mask,
        bits: &mut Lanes,
    ) -> Result<Scalar, SimFault> {
        let prog = m.prog;
        let at = self.index(idx, mask, prog)?;
        let inject = m.ctx.injector.is_some();
        let ty = match array {
            ArrayRef::Shared(s) => {
                let d = &prog.shared[s as usize];
                let (ok, oob) =
                    at.bounds(prog, (&d.name, d.len as usize), MemSpace::Shared, false)?;
                let mut addrs: LaneAddrs = [None; LANES];
                for l in lanes(ok) {
                    let addr = at.addr(d.byte_offset as u64, l);
                    addrs[l] = Some(addr);
                    bits[l] = m.shared[s as usize][at.idx[l] as usize];
                    if inject {
                        let (space, site) = (InjectSpace::Shared, (d.name.as_str(), at.idx[l]));
                        m.ctx.inject(prog, (space, addr), &mut bits[l], &at, l, site)?;
                    }
                }
                oob.map_or(Ok(()), |f| Err(*f))?;
                m.ctx.race_lanes(prog, ArraySite::Shared(s), &at, false)?;
                self.builder.shared(&addrs, false);
                d.ty
            }
            ArrayRef::Local(s) => {
                let d = &prog.local[s as usize];
                let (ok, oob) =
                    at.bounds(prog, (&d.name, d.len as usize), MemSpace::Local, false)?;
                let mut offsets = [None; LANES];
                for l in lanes(ok) {
                    let off = d.byte_offset + at.idx[l] * 4;
                    offsets[l] = Some(off);
                    bits[l] = self.local[s as usize][at.idx[l] as usize * LANES + l];
                    // Register-file arrays are not memory: the injector
                    // skips them.
                    if inject && !d.in_registers {
                        let (space, site) = (InjectSpace::Local, (d.name.as_str(), at.idx[l]));
                        m.ctx.inject(prog, (space, off as u64), &mut bits[l], &at, l, site)?;
                    }
                }
                oob.map_or(Ok(()), |f| Err(*f))?;
                if d.in_registers {
                    self.builder.alu(1);
                } else {
                    self.builder.local(m.layout, at.warp, &offsets, false);
                }
                d.ty
            }
            ArrayRef::Param(p) => {
                let (name, pi) = (prog.params[p as usize].name.as_str(), p as usize);
                let binding = m.ctx.mem.binding(pi);
                let (ty, len) = m.ctx.mem.buf_ty_len(pi);
                let (ok, oob) = at.bounds(prog, (name, len), binding.space, false)?;
                let mut addrs: LaneAddrs = [None; LANES];
                lanes(ok).for_each(|l| addrs[l] = Some(at.addr(binding.base_addr, l)));
                m.ctx.mem.load_lanes(pi, &at.idx, ok, bits);
                oob.map_or(Ok(()), |f| Err(*f))?;
                if binding.space == MemSpace::Global {
                    m.ctx.race_lanes(prog, ArraySite::GlobalParam(p), &at, false)?;
                }
                for l in lanes(if inject { mask } else { 0 }) {
                    let (space, addr) = (InjectSpace::Global, at.addr(binding.base_addr, l));
                    m.ctx.inject(prog, (space, addr), &mut bits[l], &at, l, (name, at.idx[l]))?;
                }
                match binding.space {
                    MemSpace::Global => self.builder.global(&addrs, 4, false),
                    MemSpace::Texture => self.builder.tex(&addrs),
                    MemSpace::Constant => self.builder.constant(&addrs),
                    // Internal invariant: bind() only creates these three
                    // spaces.
                    _ => unreachable!(),
                }
                ty
            }
            ArrayRef::Unknown(u) => return Err(unknown_array(prog, at.warp, u, "load from")),
        };
        if ty == Scalar::Bool {
            *bits = bits.map(|b| (b != 0) as u32);
        }
        Ok(ty)
    }

    fn store(
        &mut self,
        m: &mut Mem,
        array: ArrayRef,
        idx: Slot,
        val: Slot,
        mask: Mask,
    ) -> Result<(), SimFault> {
        let prog = m.prog;
        let at = self.index(idx, mask, prog)?;
        let (tv, val) = (self.ty(val, prog)?, self.bits[val as usize]);
        let mismatch = |space: &str, array: &str, want: Scalar| {
            let detail = format!(
                "store type mismatch into {space} {array:?}: array is {want:?}, value is {tv:?}"
            );
            Err(ill_typed(prog, at.warp, detail))
        };
        match array {
            ArrayRef::Shared(s) => {
                let d = &prog.shared[s as usize];
                if tv != d.ty {
                    return mismatch("shared", &d.name, d.ty);
                }
                let (ok, oob) =
                    at.bounds(prog, (&d.name, d.len as usize), MemSpace::Shared, true)?;
                let mut addrs: LaneAddrs = [None; LANES];
                for l in lanes(ok) {
                    addrs[l] = Some(at.addr(d.byte_offset as u64, l));
                    m.shared[s as usize][at.idx[l] as usize] = val[l];
                }
                oob.map_or(Ok(()), |f| Err(*f))?;
                m.ctx.race_lanes(prog, ArraySite::Shared(s), &at, true)?;
                self.builder.shared(&addrs, true);
            }
            ArrayRef::Local(s) => {
                let d = &prog.local[s as usize];
                if tv != d.ty {
                    return mismatch("local", &d.name, d.ty);
                }
                let (ok, oob) =
                    at.bounds(prog, (&d.name, d.len as usize), MemSpace::Local, true)?;
                let mut offsets = [None; LANES];
                for l in lanes(ok) {
                    offsets[l] = Some(d.byte_offset + at.idx[l] * 4);
                    self.local[s as usize][at.idx[l] as usize * LANES + l] = val[l];
                }
                oob.map_or(Ok(()), |f| Err(*f))?;
                if d.in_registers {
                    self.builder.alu(1);
                } else {
                    self.builder.local(m.layout, at.warp, &offsets, true);
                }
            }
            ArrayRef::Param(p) => {
                let (name, pi) = (prog.params[p as usize].name.as_str(), p as usize);
                let binding = m.ctx.mem.binding(pi);
                if binding.space != MemSpace::Global {
                    let space = binding.space;
                    let detail =
                        format!("stores are only legal to global memory ({name:?} is {space:?})");
                    let kind = FaultKind::InvalidOperation { detail };
                    return Err(SimFault::new(&prog.name, kind).at_warp(at.warp));
                }
                let (buf_ty, len) = m.ctx.mem.buf_ty_len(pi);
                if tv != buf_ty {
                    return mismatch("global", name, buf_ty);
                }
                let (ok, oob) = at.bounds(prog, (name, len), MemSpace::Global, true)?;
                let mut addrs: LaneAddrs = [None; LANES];
                let step = m.ctx.step;
                for l in lanes(ok) {
                    addrs[l] = Some(at.addr(binding.base_addr, l));
                    m.ctx.mem.store_bits(pi, at.idx[l] as usize, val[l], step);
                }
                oob.map_or(Ok(()), |f| Err(*f))?;
                m.ctx.race_lanes(prog, ArraySite::GlobalParam(p), &at, true)?;
                self.builder.global(&addrs, 4, true);
            }
            ArrayRef::Unknown(u) => return Err(unknown_array(prog, at.warp, u, "store to")),
        }
        Ok(())
    }
}

/// CUDA `__shfl` family semantics: active lanes read their source lane,
/// inactive lanes keep their own value.
fn shfl(mode: ShflMode, width: u32, lane_ty: Scalar, v: &Lanes, arg: &Lanes, mask: Mask) -> Lanes {
    let wm = width as i64;
    std::array::from_fn(|l| {
        if mask & (1 << l) == 0 {
            return v[l];
        }
        let a = if lane_ty == Scalar::I32 { arg[l] as i32 as i64 } else { arg[l] as i64 };
        let (li, base) = (l as i64, l as i64 / wm * wm);
        let src = match mode {
            ShflMode::Idx => base + a.rem_euclid(wm),
            ShflMode::Up if li - a < base => li,
            ShflMode::Up => li - a,
            ShflMode::Down if li + a >= base + wm => li,
            ShflMode::Down => li + a,
            ShflMode::Xor if (li ^ a) >= base + wm || (li ^ a) < base => li,
            ShflMode::Xor => li ^ a,
        };
        v[src as usize]
    })
}

/// Fold one per-warp boolean into the block-uniform result, faulting on any
/// divergence (required for barrier-containing control flow).
fn fold_uniform(
    result: &mut Option<bool>,
    t: Mask,
    mask: Mask,
    wid: u64,
    prog: &Program,
) -> Result<(), SimFault> {
    let divergence = |detail: &str| {
        SimFault::new(
            &prog.name,
            FaultKind::BarrierDivergence {
                detail: format!("barrier under divergent control flow ({detail})"),
            },
        )
        .at_warp(wid)
    };
    if t != 0 && t != mask {
        return Err(divergence("condition not warp-uniform"));
    }
    let this = t == mask && mask != 0;
    if *result.get_or_insert(this) != this {
        return Err(divergence("condition differs across warps"));
    }
    Ok(())
}

/// One block worker's interpreter, reused for every block it runs.
pub(crate) struct Vm<'p> {
    prog: &'p Program,
    dev: &'p DeviceConfig,
    layout: LocalLayout,
    warps: Vec<Warp>,
    shared: Vec<Vec<u32>>,
    frames: Vec<Frame>,
}

impl<'p> Vm<'p> {
    pub fn new(prog: &'p Program, dev: &'p DeviceConfig, local_bytes_per_thread: u32) -> Self {
        let dim = prog.block_dim;
        let n_threads = dim.count() as usize;
        let specials = prog.reg_names.len();
        let consts = specials + SPECIALS;
        let warps = (0..n_threads.div_ceil(LANES))
            .map(|w| {
                let mut bits = vec![[0; LANES]; prog.n_slots];
                let mut tags = vec![None; prog.n_slots];
                let live = (n_threads - w * LANES).min(LANES);
                let tid = |f: &dyn Fn(u32) -> u32| -> Lanes {
                    std::array::from_fn(|l| if l < live { f((w * LANES + l) as u32) } else { 0 })
                };
                bits[specials + TID] = tid(&|t| t % dim.x);
                bits[specials + TID + 1] = tid(&|t| (t / dim.x) % dim.y);
                bits[specials + TID + 2] = tid(&|t| t / (dim.x * dim.y));
                tags[specials..consts].fill(Some(Scalar::I32));
                for (i, &(ty, v)) in prog.consts.iter().enumerate() {
                    bits[consts + i] = [v; LANES];
                    tags[consts + i] = Some(ty);
                }
                Warp {
                    bits,
                    tags,
                    local: prog.local.iter().map(|d| vec![0; d.len as usize * LANES]).collect(),
                    exist: if live == LANES { FULL_MASK } else { (1 << live) - 1 },
                    gid: 0,
                    base: (w * LANES) as u32,
                    builder: TraceBuilder::new(dev.txn_bytes, dev.l1_line),
                }
            })
            .collect();
        Vm {
            prog,
            dev,
            layout: LocalLayout {
                bytes_per_thread: local_bytes_per_thread.max(prog.local_decl_bytes).max(1),
            },
            warps,
            shared: prog.shared.iter().map(|d| vec![0; d.len as usize]).collect(),
            frames: Vec::new(),
        }
    }

    /// Execute one thread block functionally; returns its timing trace, or
    /// the first fault the sanitizer detected.
    pub fn run_block(
        &mut self,
        ctx: &mut LaunchCtx,
        block_idx: (u32, u32),
        grid_dim: Dim3,
        first_warp_global_id: u64,
    ) -> Result<BlockTrace, SimFault> {
        let prog = self.prog;
        // An invalid declaration space faults before anything executes.
        if let Some((name, other)) = &prog.bad_decl {
            return Err(SimFault::new(
                &prog.name,
                FaultKind::InvalidOperation {
                    detail: format!("cannot declare array {name:?} in {other:?} space"),
                },
            ));
        }
        self.shared.iter_mut().for_each(|a| a.fill(0));
        self.frames.clear();
        let (n_regs, dev) = (prog.reg_names.len(), self.dev);
        for (w, warp) in self.warps.iter_mut().enumerate() {
            warp.tags[..n_regs].fill(None);
            warp.local.iter_mut().for_each(|a| a.fill(0));
            warp.gid = first_warp_global_id + w as u64;
            warp.bits[n_regs + BLOCK_IDX] = [block_idx.0; LANES];
            warp.bits[n_regs + BLOCK_IDX + 1] = [block_idx.1; LANES];
            warp.builder = TraceBuilder::new(dev.txn_bytes, dev.l1_line);
        }
        let block_linear = block_idx.1 as u64 * grid_dim.x as u64 + block_idx.0 as u64;
        ctx.race_begin_block(block_linear, prog.block_dim.count() as u32);
        let mut bp = 0;
        while let Some(&op) = self.prog.block.get(bp) {
            bp += 1;
            match op {
                BlockOp::Warps { start, end } => {
                    for w in 0..self.warps.len() {
                        self.run_warp(w, start, end, ctx)?;
                    }
                }
                BlockOp::Sync => {
                    ctx.tick(&prog.name)?;
                    ctx.race_barrier_all();
                    self.warps.iter_mut().for_each(|w| w.builder.bar());
                }
                BlockOp::Cond { start, end, cond, else_at } => {
                    ctx.tick(&prog.name)?;
                    let mut result = None;
                    for w in 0..self.warps.len() {
                        self.run_warp(w, start, end, ctx)?;
                        let warp = &self.warps[w];
                        let ty = warp.ty(cond, prog)?;
                        let t = value::true_mask(ty, &warp.bits[cond as usize], warp.exist)
                            .map_err(|e| vfault(prog, warp.gid, e))?;
                        fold_uniform(&mut result, t, warp.exist, warp.gid, prog)?;
                    }
                    if !result.unwrap_or(false) {
                        bp = else_at as usize;
                    }
                }
                BlockOp::Jump { to } => bp = to as usize,
            }
        }
        ctx.race_end_block();
        let fresh = || TraceBuilder::new(dev.txn_bytes, dev.l1_line);
        let warps = self.warps.iter_mut();
        Ok(BlockTrace {
            warps: warps.map(|w| std::mem::replace(&mut w.builder, fresh()).finish()).collect(),
        })
    }

    /// Run warp `w` over `ops[start..end]`, one statement of the block's
    /// code, starting with every existing lane active.
    fn run_warp(
        &mut self,
        w: usize,
        start: u32,
        end: u32,
        ctx: &mut LaunchCtx,
    ) -> Result<(), SimFault> {
        let Vm { prog, warps, shared, frames, layout, .. } = self;
        let (ops, prog) = (&prog.ops[..end as usize], *prog);
        let warp = &mut warps[w];
        let mut m = Mem { prog, ctx, shared, layout: *layout };
        let mut mask = warp.exist;
        let mut pc = start as usize;
        while let Some(&op) = ops.get(pc) {
            pc += 1;
            let wid = warp.gid;
            match op {
                Op::Tick => m.ctx.tick(&prog.name)?,
                Op::CheckReg { reg } => {
                    warp.ty(reg, prog)?;
                }
                Op::UnknownParam { name } => {
                    return Err(SimFault::new(
                        &prog.name,
                        FaultKind::UndeclaredName {
                            name: prog.unknown_names[name as usize].clone(),
                        },
                    )
                    .at_warp(wid)
                    .with_context("parameter is not a bound scalar"))
                }
                Op::Unary { op, dst, a } => {
                    if op.is_sfu() {
                        warp.builder.sfu(1);
                    } else {
                        warp.builder.alu(1);
                    }
                    let ty = warp.ty(a, prog)?;
                    let mut r = [0; LANES];
                    value::unary(op, ty, &warp.bits[a as usize], mask, &mut r)
                        .map_err(|e| vfault(prog, wid, e))?;
                    warp.put(dst, ty, r);
                }
                Op::Binary { op, dst, a, b } => {
                    warp.builder.alu(1);
                    let a = (warp.ty(a, prog)?, &warp.bits[a as usize]);
                    let b = (warp.ty(b, prog)?, &warp.bits[b as usize]);
                    let mut r = [0; LANES];
                    let ty =
                        value::binary(op, a, b, mask, &mut r).map_err(|e| vfault(prog, wid, e))?;
                    warp.put(dst, ty, r);
                }
                Op::Select { dst, c, a, b } => {
                    warp.builder.alu(1);
                    let (tc, ta, tb) = (warp.ty(c, prog)?, warp.ty(a, prog)?, warp.ty(b, prog)?);
                    let t = value::true_mask(tc, &warp.bits[c as usize], mask)
                        .map_err(|e| vfault(prog, wid, e))?;
                    if ta != tb {
                        let detail = format!("type mismatch in assignment: {tb:?} = {ta:?}");
                        return Err(ill_typed(prog, wid, detail).with_context("select arms"));
                    }
                    let r = blend(t, &warp.bits[a as usize], &warp.bits[b as usize]);
                    warp.put(dst, ta, r);
                }
                Op::Cast { ty, dst, a } => {
                    warp.builder.alu(1);
                    let from = warp.ty(a, prog)?;
                    let r = value::cast(from, &warp.bits[a as usize], ty, mask);
                    warp.put(dst, ty, r);
                }
                Op::Shfl { mode, width, dst, value, lane } => {
                    warp.builder.shfl(match mode {
                        ShflMode::Idx => ShflKind::Broadcast,
                        ShflMode::Xor => ShflKind::Xor,
                        ShflMode::Up => ShflKind::Up,
                        ShflMode::Down => ShflKind::Down,
                    });
                    let (tv, tl) = (warp.ty(value, prog)?, warp.ty(lane, prog)?);
                    if !(width.is_power_of_two() && width as usize <= LANES) {
                        let detail =
                            format!("__shfl width must be a power of two in [1, 32], got {width}");
                        return Err(SimFault::new(
                            &prog.name,
                            FaultKind::InvalidOperation { detail },
                        )
                        .at_warp(wid));
                    }
                    if !matches!(tl, Scalar::I32 | Scalar::U32) {
                        let detail =
                            format!("__shfl lane argument must be an integer, found {tl:?}");
                        return Err(ill_typed(prog, wid, detail).at_lane(0));
                    }
                    let r = shfl(
                        mode,
                        width,
                        tl,
                        &warp.bits[value as usize],
                        &warp.bits[lane as usize],
                        mask,
                    );
                    warp.put(dst, tv, r);
                }
                Op::Load { array, dst, idx } => {
                    let mut r = [0; LANES];
                    let ty = warp.load(&mut m, array, idx, mask, &mut r)?;
                    warp.put(dst, ty, r);
                }
                Op::Store { array, idx, value } => warp.store(&mut m, array, idx, value, mask)?,
                Op::Decl { reg, ty, src } => {
                    let got = warp.ty(src, prog)?;
                    if got != ty {
                        let name = &prog.reg_names[reg as usize];
                        let detail = format!(
                            "initializer type mismatch for {name:?}: declared {ty:?}, got {got:?}"
                        );
                        return Err(ill_typed(prog, wid, detail));
                    }
                    warp.assign(reg, src, mask, prog)?;
                }
                Op::Assign { reg, src } => warp.assign(reg, src, mask, prog)?,
                Op::If { cond, else_pc } => {
                    let t = value::true_mask(warp.ty(cond, prog)?, &warp.bits[cond as usize], mask)
                        .map_err(|e| vfault(prog, wid, e))?;
                    let e = mask & !t;
                    // Both sides populated: the warp serializes through
                    // each path.
                    let diverged = t != 0 && e != 0;
                    if diverged {
                        warp.builder.divergence_event();
                        warp.builder.enter_divergent();
                    }
                    frames.push(Frame { saved: mask, other: e, flag: diverged });
                    if t != 0 {
                        mask = t;
                    } else {
                        mask = e;
                        pc = else_pc as usize;
                    }
                }
                Op::Else { end_pc } => {
                    let other = frames.last().expect("open if").other;
                    if other != 0 {
                        mask = other;
                    } else {
                        pc = end_pc as usize;
                    }
                }
                Op::EndIf | Op::EndLoop => {
                    let f = frames.pop().expect("open if or loop");
                    if f.flag {
                        warp.builder.exit_divergent();
                    }
                    mask = f.saved;
                }
                Op::Loop => frames.push(Frame { saved: mask, other: 0, flag: false }),
                Op::LoopTest { var, bound, exit_pc } => {
                    warp.builder.alu(1);
                    let a = (warp.ty(var, prog)?, &warp.bits[var as usize]);
                    let b = (warp.ty(bound, prog)?, &warp.bits[bound as usize]);
                    let mut c = [0; LANES];
                    value::binary(BinOp::Lt, a, b, mask, &mut c)
                        .map_err(|e| vfault(prog, wid, e))?;
                    let active = bool_mask(&c, mask);
                    if active == 0 {
                        pc = exit_pc as usize;
                        continue;
                    }
                    // Lanes exit independently; once the live set shrinks
                    // below the entry mask the remaining iterations run
                    // divergent (the mask only shrinks, so enter once).
                    let f = frames.last_mut().expect("open loop");
                    if !f.flag && active != f.saved {
                        f.flag = true;
                        warp.builder.divergence_event();
                        warp.builder.enter_divergent();
                    }
                    mask = active;
                }
                Op::LoopStep { var, step, head_pc } => {
                    warp.builder.alu(1);
                    let a = (warp.ty(var, prog)?, &warp.bits[var as usize]);
                    let b = (warp.ty(step, prog)?, &warp.bits[step as usize]);
                    let mut r = [0; LANES];
                    let ty = value::binary(BinOp::Add, a, b, mask, &mut r)
                        .map_err(|e| vfault(prog, wid, e))?;
                    let v = blend(mask, &r, &warp.bits[var as usize]);
                    warp.put(var, ty, v);
                    pc = head_pc as usize;
                }
            }
        }
        Ok(())
    }
}
