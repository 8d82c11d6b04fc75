//! The compiled warp program: an [`InternedKernel`] lowered once per launch
//! into flat three-address ops that every block worker shares read-only.
//!
//! Each warp owns a value file of lane slots: the kernel's registers first,
//! then the warp's thread indices and the block's indices, then the
//! launch's constants (immediates, scalar parameters, block and grid
//! dimensions), then the expression temporaries. An operand is a slot
//! number, so a register, immediate or parameter is read in place rather
//! than copied into a temporary first.
//!
//! Expressions lower in post-order, operands left to right before their
//! operator: that order fixes trace emission, ALU folding and which fault
//! comes first, and `tests/interp_digests.rs` in `cuda-np` pins it.
//! Warp-level `If` and `For` become branch and loop ops whose join targets
//! are precomputed; the interpreter keeps the active-lane masks on a stack.
//! Statements that contain a barrier become [`BlockOp`]s, which run every
//! warp over one statement's code range, in warp order, before the next.
//!
//! The interpreter charges one step per [`Op::Tick`] and per
//! [`BlockOp::Cond`] and [`BlockOp::Sync`]: a tick heads every warp
//! statement and every warp-level loop test, and each barrier-containing
//! `If`, loop test and barrier at block level charges its own.

use crate::machine::ArgValue;
use np_kernel_ir::expr::{BinOp, ShflMode, Special, UnOp};
use np_kernel_ir::slots::{ArrayRef, IExpr, IStmt, InternedKernel, ParamRef};
use np_kernel_ir::types::{Dim3, Scalar};

/// A slot in a warp's value file.
pub(crate) type Slot = u32;

/// Slots right after the registers: threadIdx.x/y/z, then blockIdx.x/y.
pub(crate) const TID: usize = 0;
pub(crate) const BLOCK_IDX: usize = 3;
pub(crate) const SPECIALS: usize = 5;

/// Temporaries are numbered from here while lowering, and moved behind the
/// constants once their count is known.
const TEMP: Slot = 1 << 30;

/// One warp instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Charge one interpreted step.
    Tick,
    /// Fault unless some lane of the warp has assigned the register: a
    /// read the lowering could not prove follows an assignment.
    CheckReg {
        reg: Slot,
    },
    /// A parameter that names no bound scalar: faults when reached.
    UnknownParam {
        name: u32,
    },
    Unary {
        op: UnOp,
        dst: Slot,
        a: Slot,
    },
    Binary {
        op: BinOp,
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Select {
        dst: Slot,
        c: Slot,
        a: Slot,
        b: Slot,
    },
    Cast {
        ty: Scalar,
        dst: Slot,
        a: Slot,
    },
    Shfl {
        mode: ShflMode,
        width: u32,
        dst: Slot,
        value: Slot,
        lane: Slot,
    },
    Load {
        array: ArrayRef,
        dst: Slot,
        idx: Slot,
    },
    Store {
        array: ArrayRef,
        idx: Slot,
        value: Slot,
    },
    /// A scalar declaration: the value must have the declared type.
    Decl {
        reg: Slot,
        ty: Scalar,
        src: Slot,
    },
    Assign {
        reg: Slot,
        src: Slot,
    },
    /// Split the mask on `cond`: run the then-code under the true lanes,
    /// or jump to `else_pc` when there are none.
    If {
        cond: Slot,
        else_pc: u32,
    },
    /// End of the then-code: run on under the false lanes, or jump to
    /// `end_pc` when there are none.
    Else {
        end_pc: u32,
    },
    EndIf,
    /// Enter a warp-level loop.
    Loop,
    /// `var < bound` over the live lanes; the lanes that pass stay live,
    /// and with none left the loop exits to `exit_pc`.
    LoopTest {
        var: Slot,
        bound: Slot,
        exit_pc: u32,
    },
    /// `var += step` over the live lanes, then back to `head_pc`.
    LoopStep {
        var: Slot,
        step: Slot,
        head_pc: u32,
    },
    EndLoop,
}

/// One block-level step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockOp {
    /// Every warp runs `ops[start..end]`, in warp order.
    Warps {
        start: u32,
        end: u32,
    },
    /// `__syncthreads()`.
    Sync,
    /// Charge a step, let every warp run `ops[start..end]` and fold the
    /// `Bool` in `cond`, which must agree across the block; when false,
    /// continue at `else_at`.
    Cond {
        start: u32,
        end: u32,
        cond: Slot,
        else_at: u32,
    },
    Jump {
        to: u32,
    },
}

/// A kernel compiled for one launch.
pub(crate) struct Program {
    pub ops: Vec<Op>,
    pub block: Vec<BlockOp>,
    pub n_regs: usize,
    /// Splat constants: `(type, bits)` for slot `n_regs + SPECIALS + i`.
    pub consts: Vec<(Scalar, u32)>,
    pub n_slots: usize,
}

impl Program {
    /// Lower `ik` for a launch over `grid` with the bound scalar
    /// parameters `scalars`, which become constants.
    pub fn lower(ik: &InternedKernel, scalars: &[ArgValue], grid: Dim3) -> Program {
        let n_regs = ik.reg_names.len();
        let mut l = Lower {
            ik,
            scalars,
            grid,
            ops: Vec::new(),
            block: Vec::new(),
            consts: Vec::new(),
            temps: 0,
            max_temps: 0,
            assigned: vec![false; n_regs],
        };
        for s in &ik.body {
            l.block_stmt(s);
        }
        let temp_base = (n_regs + SPECIALS + l.consts.len()) as Slot;
        let fix = |s: &mut Slot| {
            if *s >= TEMP {
                *s = *s - TEMP + temp_base;
            }
        };
        for op in &mut l.ops {
            match op {
                Op::Select { dst, c, a, b } => [dst, c, a, b].into_iter().for_each(fix),
                Op::Binary { dst, a, b, .. } | Op::Shfl { dst, value: a, lane: b, .. } => {
                    [dst, a, b].into_iter().for_each(fix)
                }
                Op::Unary { dst, a, .. }
                | Op::Cast { dst, a, .. }
                | Op::Load { dst, idx: a, .. }
                | Op::Store { idx: dst, value: a, .. }
                | Op::Decl { reg: dst, src: a, .. }
                | Op::Assign { reg: dst, src: a }
                | Op::LoopTest { var: dst, bound: a, .. }
                | Op::LoopStep { var: dst, step: a, .. } => [dst, a].into_iter().for_each(fix),
                Op::If { cond, .. } => fix(cond),
                _ => {}
            }
        }
        for b in &mut l.block {
            if let BlockOp::Cond { cond, .. } = b {
                fix(cond);
            }
        }
        Program {
            ops: l.ops,
            block: l.block,
            n_regs,
            n_slots: temp_base as usize + l.max_temps as usize,
            consts: l.consts,
        }
    }
}

struct Lower<'a> {
    ik: &'a InternedKernel,
    scalars: &'a [ArgValue],
    grid: Dim3,
    ops: Vec<Op>,
    block: Vec<BlockOp>,
    consts: Vec<(Scalar, u32)>,
    temps: u32,
    max_temps: u32,
    /// Registers every lane of every warp that gets here has assigned.
    assigned: Vec<bool>,
}

impl Lower<'_> {
    fn pc(&self) -> u32 {
        self.ops.len() as u32
    }

    fn konst(&mut self, ty: Scalar, bits: u32) -> Slot {
        let i = self.consts.iter().position(|&c| c == (ty, bits)).unwrap_or_else(|| {
            self.consts.push((ty, bits));
            self.consts.len() - 1
        });
        (self.ik.reg_names.len() + SPECIALS + i) as Slot
    }

    fn special(&self, at: usize) -> Slot {
        (self.ik.reg_names.len() + at) as Slot
    }

    /// Release the operands (temporaries are a stack), then emit `op` into
    /// a fresh temporary.
    fn emit(&mut self, srcs: &[Slot], op: impl FnOnce(Slot) -> Op) -> Slot {
        for &s in srcs.iter().rev() {
            self.release(s);
        }
        let dst = TEMP + self.temps;
        self.temps += 1;
        self.max_temps = self.max_temps.max(self.temps);
        self.ops.push(op(dst));
        dst
    }

    fn release(&mut self, s: Slot) {
        if s >= TEMP {
            self.temps -= 1;
            debug_assert_eq!(s, TEMP + self.temps, "temporaries are released in stack order");
        }
    }

    fn expr(&mut self, e: &IExpr) -> Slot {
        use Special::*;
        match e {
            IExpr::ImmF32(x) => self.konst(Scalar::F32, x.to_bits()),
            IExpr::ImmI32(x) => self.konst(Scalar::I32, *x as u32),
            IExpr::ImmU32(x) => self.konst(Scalar::U32, *x),
            IExpr::ImmBool(x) => self.konst(Scalar::Bool, *x as u32),
            IExpr::Var(r) => {
                if !self.assigned[*r as usize] {
                    self.ops.push(Op::CheckReg { reg: *r });
                }
                *r
            }
            IExpr::Param(ParamRef::Scalar(s)) => match self.scalars[*s as usize] {
                ArgValue::F32(x) => self.konst(Scalar::F32, x.to_bits()),
                ArgValue::I32(x) => self.konst(Scalar::I32, x as u32),
                ArgValue::U32(x) => self.konst(Scalar::U32, x),
                // Internal invariant: bind() stores only scalar values in
                // scalar slots.
                ArgValue::Buf(_) => unreachable!("scalar slot holds a buffer"),
            },
            IExpr::Param(ParamRef::Unknown(u)) => {
                self.ops.push(Op::UnknownParam { name: *u });
                self.konst(Scalar::I32, 0)
            }
            IExpr::Special(s) => {
                let dim = |d: u32| (Scalar::I32, d);
                let (ty, v) = match s {
                    ThreadIdxX => return self.special(TID),
                    ThreadIdxY => return self.special(TID + 1),
                    ThreadIdxZ => return self.special(TID + 2),
                    BlockIdxX => return self.special(BLOCK_IDX),
                    BlockIdxY => return self.special(BLOCK_IDX + 1),
                    BlockDimX => dim(self.ik.block_dim.x),
                    BlockDimY => dim(self.ik.block_dim.y),
                    BlockDimZ => dim(self.ik.block_dim.z),
                    GridDimX => dim(self.grid.x),
                    GridDimY => dim(self.grid.y),
                };
                self.konst(ty, v)
            }
            IExpr::Unary(op, a) => {
                let a = self.expr(a);
                self.emit(&[a], |dst| Op::Unary { op: *op, dst, a })
            }
            IExpr::Binary(op, a, b) => {
                let a = self.expr(a);
                let b = self.expr(b);
                self.emit(&[a, b], |dst| Op::Binary { op: *op, dst, a, b })
            }
            IExpr::Select(c, a, b) => {
                let c = self.expr(c);
                let a = self.expr(a);
                let b = self.expr(b);
                self.emit(&[c, a, b], |dst| Op::Select { dst, c, a, b })
            }
            IExpr::Cast(ty, a) => {
                let a = self.expr(a);
                self.emit(&[a], |dst| Op::Cast { ty: *ty, dst, a })
            }
            IExpr::Load { array, index } => {
                let idx = self.expr(index);
                self.emit(&[idx], |dst| Op::Load { array: *array, dst, idx })
            }
            IExpr::Shfl { mode, value, lane, width } => {
                let value = self.expr(value);
                let lane = self.expr(lane);
                self.emit(&[value, lane], |dst| Op::Shfl {
                    mode: *mode,
                    width: *width,
                    dst,
                    value,
                    lane,
                })
            }
        }
    }

    /// Lower `e` and release its slot at once: the consuming op is the
    /// next one emitted.
    fn operand(&mut self, e: &IExpr) -> Slot {
        let s = self.expr(e);
        self.release(s);
        s
    }

    fn assign(&mut self, reg: Slot, src: Slot) {
        self.ops.push(Op::Assign { reg, src });
        self.assigned[reg as usize] = true;
    }

    /// A barrier-free statement, run by one warp under its current mask.
    fn stmt(&mut self, s: &IStmt) {
        self.ops.push(Op::Tick);
        match s {
            IStmt::DeclScalar { slot, ty, init } => {
                let src = match init {
                    Some(e) => self.operand(e),
                    None => self.konst(*ty, 0),
                };
                self.ops.push(Op::Decl { reg: *slot, ty: *ty, src });
                self.assigned[*slot as usize] = true;
            }
            IStmt::DeclArray => {}
            IStmt::Assign { slot, value } => {
                let src = self.operand(value);
                self.assign(*slot, src);
            }
            IStmt::Store { array, index, value } => {
                let idx = self.expr(index);
                let value = self.expr(value);
                self.release(value);
                self.release(idx);
                self.ops.push(Op::Store { array: *array, idx, value });
            }
            IStmt::If { cond, then_body, else_body, .. } => {
                let cond = self.operand(cond);
                let at = self.ops.len();
                self.ops.push(Op::If { cond, else_pc: 0 });
                let entry = self.assigned.clone();
                then_body.iter().for_each(|s| self.stmt(s));
                let after_then = std::mem::replace(&mut self.assigned, entry);
                let else_at = self.ops.len();
                self.ops.push(Op::Else { end_pc: 0 });
                else_body.iter().for_each(|s| self.stmt(s));
                // At least one side runs: what both assign is assigned.
                self.assigned.iter_mut().zip(after_then).for_each(|(a, t)| *a &= t);
                let end = self.pc();
                self.ops.push(Op::EndIf);
                self.ops[at] = Op::If { cond, else_pc: else_at as u32 + 1 };
                self.ops[else_at] = Op::Else { end_pc: end };
            }
            IStmt::For { var, init, bound, step, body, .. } => {
                let src = self.operand(init);
                self.assign(*var, src);
                self.ops.push(Op::Loop);
                let head = self.pc();
                self.ops.push(Op::Tick);
                let bound = self.operand(bound);
                let test = self.ops.len();
                self.ops.push(Op::LoopTest { var: *var, bound, exit_pc: 0 });
                let entry = self.assigned.clone();
                body.iter().for_each(|s| self.stmt(s));
                self.assigned = entry;
                let step = self.operand(step);
                self.ops.push(Op::LoopStep { var: *var, step, head_pc: head });
                self.ops[test] = Op::LoopTest { var: *var, bound, exit_pc: self.pc() };
                self.ops.push(Op::EndLoop);
            }
            // Internal invariant: barrier-containing statements lower at
            // block level.
            IStmt::SyncThreads => unreachable!("barrier must be lowered at block level"),
        }
    }

    /// Code every warp runs in turn, with no tick of its own.
    fn warps(&mut self, start: u32) {
        self.block.push(BlockOp::Warps { start, end: self.pc() });
    }

    fn block_stmt(&mut self, s: &IStmt) {
        if !s.has_sync() {
            let start = self.pc();
            self.stmt(s);
            return self.warps(start);
        }
        match s {
            IStmt::SyncThreads => self.block.push(BlockOp::Sync),
            IStmt::If { cond, then_body, else_body, .. } => {
                let start = self.pc();
                let cond = self.operand(cond);
                let end = self.pc();
                let at = self.block.len();
                self.block.push(BlockOp::Cond { start, end, cond, else_at: 0 });
                let entry = self.assigned.clone();
                then_body.iter().for_each(|s| self.block_stmt(s));
                let after_then = std::mem::replace(&mut self.assigned, entry);
                let jump = self.block.len();
                self.block.push(BlockOp::Jump { to: 0 });
                let else_at = self.block.len() as u32;
                else_body.iter().for_each(|s| self.block_stmt(s));
                self.assigned.iter_mut().zip(after_then).for_each(|(a, t)| *a &= t);
                self.block[at] = BlockOp::Cond { start, end, cond, else_at };
                self.block[jump] = BlockOp::Jump { to: self.block.len() as u32 };
            }
            IStmt::For { var, init, bound, step, body, .. } => {
                // Lockstep loop: every thread follows the same trip count.
                let start = self.pc();
                let src = self.operand(init);
                self.assign(*var, src);
                self.warps(start);
                let head = self.block.len() as u32;
                let start = self.pc();
                let bound = self.expr(bound);
                let cond = self.emit(&[*var, bound], |dst| Op::Binary {
                    op: BinOp::Lt,
                    dst,
                    a: *var,
                    b: bound,
                });
                self.release(cond);
                let at = self.block.len();
                self.block.push(BlockOp::Cond { start, end: self.pc(), cond, else_at: 0 });
                let entry = self.assigned.clone();
                body.iter().for_each(|s| self.block_stmt(s));
                self.assigned = entry;
                let start = self.pc();
                let step = self.expr(step);
                let sum = self.emit(&[*var, step], |dst| Op::Binary {
                    op: BinOp::Add,
                    dst,
                    a: *var,
                    b: step,
                });
                self.release(sum);
                self.assign(*var, sum);
                self.warps(start);
                self.block.push(BlockOp::Jump { to: head });
                let exit = self.block.len() as u32;
                if let BlockOp::Cond { else_at, .. } = &mut self.block[at] {
                    *else_at = exit;
                }
            }
            // Internal invariant: has_sync() is true only for the
            // statement shapes handled above.
            other => unreachable!("statement cannot contain a barrier: {other:?}"),
        }
    }
}
