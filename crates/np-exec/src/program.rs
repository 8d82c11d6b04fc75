//! The compiled warp program: a [`Kernel`] lowered once per launch into
//! flat three-address ops that every block worker shares read-only, with
//! the name tables the interpreter reads beside them.
//!
//! Lowering resolves each name as it emits the op that uses it: a scalar
//! variable to a register, a scalar parameter to a constant holding its
//! bound value, and an array to a shared, then a local, then a parameter
//! array, so a declared array shadows a parameter of the same name. One
//! pre-order pre-scan of the body numbers the registers and lays out the
//! declared arrays first; the first declaration of an array name wins and
//! fixes its byte offset. Array parameters keep their declaration order,
//! the order [`GlobalState::bind`](crate::machine::GlobalState::bind)
//! binds their buffers in. A name that resolves to nothing, and an array
//! declared in a space no body can declare, stay data and fault only when
//! a warp reaches them.
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
use np_kernel_ir::expr::{BinOp, Expr, ShflMode, Special, UnOp};
use np_kernel_ir::kernel::{Kernel, ParamKind};
use np_kernel_ir::stmt::{visit_stmts, Stmt};
use np_kernel_ir::types::{Dim3, MemSpace, Scalar};
use std::collections::HashMap;

/// A slot in a warp's value file.
pub(crate) type Slot = u32;

/// Slots right after the registers: threadIdx.x/y/z, then blockIdx.x/y.
pub(crate) const TID: usize = 0;
pub(crate) const BLOCK_IDX: usize = 3;
pub(crate) const SPECIALS: usize = 5;

/// Temporaries are numbered from here while lowering, and moved behind the
/// constants once their count is known.
const TEMP: Slot = 1 << 30;

/// The array an access resolved to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArrayRef {
    /// Index into [`Program::shared`].
    Shared(u32),
    /// Index into [`Program::local`].
    Local(u32),
    /// Index into [`Program::params`], and into the launch's bound buffers.
    Param(u32),
    /// Index into [`Program::unknown_names`]: the access faults.
    Unknown(u32),
}

/// A shared, local or register-file array the body declares.
pub(crate) struct ArrayDecl {
    pub name: String,
    pub ty: Scalar,
    pub len: u32,
    /// Offset in the block's shared memory or the thread's local memory.
    pub byte_offset: u32,
    /// Register-file array: per-thread storage whose accesses cost only
    /// ALU work.
    pub in_registers: bool,
}

/// An array parameter, with what the body does to it.
pub(crate) struct ArrayParam {
    pub name: String,
    /// Some load resolves to it.
    pub loaded: bool,
    /// Some store resolves to it.
    pub stored: bool,
}

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
    /// The kernel's name, for faults.
    pub name: String,
    pub block_dim: Dim3,
    pub ops: Vec<Op>,
    pub block: Vec<BlockOp>,
    /// Register slot → variable name, for faults.
    pub reg_names: Vec<String>,
    /// Splat constants: `(type, bits)` for slot `n_regs + SPECIALS + i`.
    pub consts: Vec<(Scalar, u32)>,
    pub n_slots: usize,
    pub shared: Vec<ArrayDecl>,
    /// Local and register-file arrays.
    pub local: Vec<ArrayDecl>,
    /// Local-memory bytes the declared local arrays take.
    pub local_decl_bytes: u32,
    /// Array parameters, in declaration order.
    pub params: Vec<ArrayParam>,
    /// Names that resolved to nothing, for faults.
    pub unknown_names: Vec<String>,
    /// The first array declared in a space a body cannot declare: every
    /// block faults before running anything.
    pub bad_decl: Option<(String, MemSpace)>,
}

impl Program {
    /// Lower `kernel` for a launch over `grid` with its bound scalar
    /// parameters `scalars` (in declaration order), which become constants.
    pub fn lower(kernel: &Kernel, scalars: &[ArgValue], grid: Dim3) -> Program {
        let params = kernel.params.iter().filter(|p| !matches!(p.kind, ParamKind::Scalar(_)));
        let mut l = Lower {
            kernel,
            scalars,
            grid,
            regs: HashMap::new(),
            p: Program {
                name: kernel.name.clone(),
                block_dim: kernel.block_dim,
                ops: Vec::new(),
                block: Vec::new(),
                reg_names: Vec::new(),
                consts: Vec::new(),
                n_slots: 0,
                shared: Vec::new(),
                local: Vec::new(),
                local_decl_bytes: 0,
                params: params
                    .map(|p| ArrayParam { name: p.name.clone(), loaded: false, stored: false })
                    .collect(),
                unknown_names: Vec::new(),
                bad_decl: None,
            },
            temps: 0,
            max_temps: 0,
            assigned: Vec::new(),
        };
        l.prescan();
        for s in &kernel.body {
            l.block_stmt(s);
        }
        let mut p = l.p;
        let temp_base = (p.reg_names.len() + SPECIALS + p.consts.len()) as Slot;
        let fix = |s: &mut Slot| {
            if *s >= TEMP {
                *s = *s - TEMP + temp_base;
            }
        };
        for op in &mut p.ops {
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
        for b in &mut p.block {
            if let BlockOp::Cond { cond, .. } = b {
                fix(cond);
            }
        }
        p.n_slots = temp_base as usize + l.max_temps as usize;
        p
    }
}

struct Lower<'a> {
    kernel: &'a Kernel,
    scalars: &'a [ArgValue],
    grid: Dim3,
    /// Variable name → register slot, for every name the body mentions.
    regs: HashMap<&'a str, Slot>,
    p: Program,
    temps: u32,
    max_temps: u32,
    /// Registers every lane of every warp that gets here has assigned.
    assigned: Vec<bool>,
}

impl<'a> Lower<'a> {
    /// Number every register and lay out every declared array, in one
    /// pre-order walk of the body.
    fn prescan(&mut self) {
        let Lower { kernel, regs, p, .. } = self;
        let bytes = |t: &[ArrayDecl]| t.iter().filter(|d| !d.in_registers).map(|d| d.len * 4).sum();
        visit_stmts(&kernel.body, &mut |s| {
            let mut reg = |name: &'a String| {
                let next = regs.len() as Slot;
                regs.entry(name).or_insert_with(|| {
                    p.reg_names.push(name.clone());
                    next
                });
            };
            match s {
                Stmt::DeclScalar { name, .. } | Stmt::Assign { name, .. } => reg(name),
                Stmt::For { var, .. } => reg(var),
                Stmt::DeclArray { name, ty, space, len } => {
                    let table = match space {
                        MemSpace::Shared => &mut p.shared,
                        MemSpace::Local | MemSpace::Register => &mut p.local,
                        other => {
                            p.bad_decl.get_or_insert_with(|| (name.clone(), *other));
                            return;
                        }
                    };
                    if !table.iter().any(|d| d.name == *name) {
                        let in_registers = *space == MemSpace::Register;
                        let byte_offset = if in_registers { 0 } else { bytes(table) };
                        let (name, ty, len) = (name.clone(), *ty, *len);
                        table.push(ArrayDecl { name, ty, len, byte_offset, in_registers });
                    }
                }
                _ => {}
            }
            for e in s.exprs() {
                e.visit(&mut |e| {
                    if let Expr::Var(name) = e {
                        reg(name)
                    }
                });
            }
        });
        p.local_decl_bytes = bytes(&p.local);
        self.assigned = vec![false; self.p.reg_names.len()];
    }

    fn pc(&self) -> u32 {
        self.p.ops.len() as u32
    }

    fn reg(&self, name: &str) -> Slot {
        self.regs[name]
    }

    fn konst(&mut self, ty: Scalar, bits: u32) -> Slot {
        let consts = &mut self.p.consts;
        let i = consts.iter().position(|&c| c == (ty, bits)).unwrap_or_else(|| {
            consts.push((ty, bits));
            consts.len() - 1
        });
        (self.p.reg_names.len() + SPECIALS + i) as Slot
    }

    fn special(&self, at: usize) -> Slot {
        (self.p.reg_names.len() + at) as Slot
    }

    fn unknown(&mut self, name: &str) -> u32 {
        self.p.unknown_names.push(name.to_string());
        self.p.unknown_names.len() as u32 - 1
    }

    /// Resolve an array name: shared, then local, then parameter arrays.
    fn array(&mut self, name: &str, write: bool) -> ArrayRef {
        let find = |t: &[ArrayDecl]| t.iter().position(|d| d.name == name).map(|i| i as u32);
        if let Some(i) = find(&self.p.shared) {
            return ArrayRef::Shared(i);
        }
        if let Some(i) = find(&self.p.local) {
            return ArrayRef::Local(i);
        }
        if let Some(i) = self.p.params.iter().position(|p| p.name == name) {
            let p = &mut self.p.params[i];
            if write {
                p.stored = true;
            } else {
                p.loaded = true;
            }
            return ArrayRef::Param(i as u32);
        }
        ArrayRef::Unknown(self.unknown(name))
    }

    /// A scalar parameter's bound value, as a constant.
    fn param(&mut self, name: &str) -> Slot {
        let mut scalar_params =
            self.kernel.params.iter().filter(|p| matches!(p.kind, ParamKind::Scalar(_)));
        match scalar_params.position(|p| p.name == name).map(|i| &self.scalars[i]) {
            Some(&ArgValue::F32(x)) => self.konst(Scalar::F32, x.to_bits()),
            Some(&ArgValue::I32(x)) => self.konst(Scalar::I32, x as u32),
            Some(&ArgValue::U32(x)) => self.konst(Scalar::U32, x),
            // Internal invariant: bind() stores only scalar values for
            // scalar parameters.
            Some(ArgValue::Buf(_)) => unreachable!("scalar parameter bound to a buffer"),
            None => {
                let name = self.unknown(name);
                self.p.ops.push(Op::UnknownParam { name });
                self.konst(Scalar::I32, 0)
            }
        }
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
        self.p.ops.push(op(dst));
        dst
    }

    fn release(&mut self, s: Slot) {
        if s >= TEMP {
            self.temps -= 1;
            debug_assert_eq!(s, TEMP + self.temps, "temporaries are released in stack order");
        }
    }

    fn expr(&mut self, e: &Expr) -> Slot {
        use Special::*;
        match e {
            Expr::ImmF32(x) => self.konst(Scalar::F32, x.to_bits()),
            Expr::ImmI32(x) => self.konst(Scalar::I32, *x as u32),
            Expr::ImmU32(x) => self.konst(Scalar::U32, *x),
            Expr::ImmBool(x) => self.konst(Scalar::Bool, *x as u32),
            Expr::Var(name) => {
                let r = self.reg(name);
                if !self.assigned[r as usize] {
                    self.p.ops.push(Op::CheckReg { reg: r });
                }
                r
            }
            Expr::Param(name) => self.param(name),
            Expr::Special(s) => {
                let dim = |d: u32| (Scalar::I32, d);
                let (ty, v) = match s {
                    ThreadIdxX => return self.special(TID),
                    ThreadIdxY => return self.special(TID + 1),
                    ThreadIdxZ => return self.special(TID + 2),
                    BlockIdxX => return self.special(BLOCK_IDX),
                    BlockIdxY => return self.special(BLOCK_IDX + 1),
                    BlockDimX => dim(self.p.block_dim.x),
                    BlockDimY => dim(self.p.block_dim.y),
                    BlockDimZ => dim(self.p.block_dim.z),
                    GridDimX => dim(self.grid.x),
                    GridDimY => dim(self.grid.y),
                };
                self.konst(ty, v)
            }
            Expr::Unary(op, a) => {
                let a = self.expr(a);
                self.emit(&[a], |dst| Op::Unary { op: *op, dst, a })
            }
            Expr::Binary(op, a, b) => {
                let a = self.expr(a);
                let b = self.expr(b);
                self.emit(&[a, b], |dst| Op::Binary { op: *op, dst, a, b })
            }
            Expr::Select(c, a, b) => {
                let c = self.expr(c);
                let a = self.expr(a);
                let b = self.expr(b);
                self.emit(&[c, a, b], |dst| Op::Select { dst, c, a, b })
            }
            Expr::Cast(ty, a) => {
                let a = self.expr(a);
                self.emit(&[a], |dst| Op::Cast { ty: *ty, dst, a })
            }
            Expr::Load { array, index } => {
                let array = self.array(array, false);
                let idx = self.expr(index);
                self.emit(&[idx], |dst| Op::Load { array, dst, idx })
            }
            Expr::Shfl { mode, value, lane, width } => {
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
    fn operand(&mut self, e: &Expr) -> Slot {
        let s = self.expr(e);
        self.release(s);
        s
    }

    fn assign(&mut self, reg: Slot, src: Slot) {
        self.p.ops.push(Op::Assign { reg, src });
        self.assigned[reg as usize] = true;
    }

    /// A barrier-free statement, run by one warp under its current mask.
    fn stmt(&mut self, s: &Stmt) {
        self.p.ops.push(Op::Tick);
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                let src = match init {
                    Some(e) => self.operand(e),
                    None => self.konst(*ty, 0),
                };
                let reg = self.reg(name);
                self.p.ops.push(Op::Decl { reg, ty: *ty, src });
                self.assigned[reg as usize] = true;
            }
            Stmt::DeclArray { .. } => {}
            Stmt::Assign { name, value } => {
                let src = self.operand(value);
                self.assign(self.reg(name), src);
            }
            Stmt::Store { array, index, value } => {
                let array = self.array(array, true);
                let idx = self.expr(index);
                let value = self.expr(value);
                self.release(value);
                self.release(idx);
                self.p.ops.push(Op::Store { array, idx, value });
            }
            Stmt::If { cond, then_body, else_body } => {
                let cond = self.operand(cond);
                let at = self.p.ops.len();
                self.p.ops.push(Op::If { cond, else_pc: 0 });
                let entry = self.assigned.clone();
                then_body.iter().for_each(|s| self.stmt(s));
                let after_then = std::mem::replace(&mut self.assigned, entry);
                let else_at = self.p.ops.len();
                self.p.ops.push(Op::Else { end_pc: 0 });
                else_body.iter().for_each(|s| self.stmt(s));
                // At least one side runs: what both assign is assigned.
                self.assigned.iter_mut().zip(after_then).for_each(|(a, t)| *a &= t);
                let end = self.pc();
                self.p.ops.push(Op::EndIf);
                self.p.ops[at] = Op::If { cond, else_pc: else_at as u32 + 1 };
                self.p.ops[else_at] = Op::Else { end_pc: end };
            }
            Stmt::For { var, init, bound, step, body, .. } => {
                let var = self.reg(var);
                let src = self.operand(init);
                self.assign(var, src);
                self.p.ops.push(Op::Loop);
                let head = self.pc();
                self.p.ops.push(Op::Tick);
                let bound = self.operand(bound);
                let test = self.p.ops.len();
                self.p.ops.push(Op::LoopTest { var, bound, exit_pc: 0 });
                let entry = self.assigned.clone();
                body.iter().for_each(|s| self.stmt(s));
                self.assigned = entry;
                let step = self.operand(step);
                self.p.ops.push(Op::LoopStep { var, step, head_pc: head });
                self.p.ops[test] = Op::LoopTest { var, bound, exit_pc: self.pc() };
                self.p.ops.push(Op::EndLoop);
            }
            // Internal invariant: barrier-containing statements lower at
            // block level.
            Stmt::SyncThreads => unreachable!("barrier must be lowered at block level"),
        }
    }

    /// Code every warp runs in turn, with no tick of its own.
    fn warps(&mut self, start: u32) {
        self.p.block.push(BlockOp::Warps { start, end: self.pc() });
    }

    fn block_stmt(&mut self, s: &Stmt) {
        if !s.contains_sync() {
            let start = self.pc();
            self.stmt(s);
            return self.warps(start);
        }
        match s {
            Stmt::SyncThreads => self.p.block.push(BlockOp::Sync),
            Stmt::If { cond, then_body, else_body } => {
                let start = self.pc();
                let cond = self.operand(cond);
                let end = self.pc();
                let at = self.p.block.len();
                self.p.block.push(BlockOp::Cond { start, end, cond, else_at: 0 });
                let entry = self.assigned.clone();
                then_body.iter().for_each(|s| self.block_stmt(s));
                let after_then = std::mem::replace(&mut self.assigned, entry);
                let jump = self.p.block.len();
                self.p.block.push(BlockOp::Jump { to: 0 });
                let else_at = self.p.block.len() as u32;
                else_body.iter().for_each(|s| self.block_stmt(s));
                self.assigned.iter_mut().zip(after_then).for_each(|(a, t)| *a &= t);
                self.p.block[at] = BlockOp::Cond { start, end, cond, else_at };
                self.p.block[jump] = BlockOp::Jump { to: self.p.block.len() as u32 };
            }
            Stmt::For { var, init, bound, step, body, .. } => {
                // Lockstep loop: every thread follows the same trip count.
                let var = self.reg(var);
                let start = self.pc();
                let src = self.operand(init);
                self.assign(var, src);
                self.warps(start);
                let head = self.p.block.len() as u32;
                let start = self.pc();
                let bound = self.expr(bound);
                let cond = self.emit(&[var, bound], |dst| Op::Binary {
                    op: BinOp::Lt,
                    dst,
                    a: var,
                    b: bound,
                });
                self.release(cond);
                let at = self.p.block.len();
                self.p.block.push(BlockOp::Cond { start, end: self.pc(), cond, else_at: 0 });
                let entry = self.assigned.clone();
                body.iter().for_each(|s| self.block_stmt(s));
                self.assigned = entry;
                let start = self.pc();
                let step = self.expr(step);
                let sum = self.emit(&[var, step], |dst| Op::Binary {
                    op: BinOp::Add,
                    dst,
                    a: var,
                    b: step,
                });
                self.release(sum);
                self.assign(var, sum);
                self.warps(start);
                self.p.block.push(BlockOp::Jump { to: head });
                let exit = self.p.block.len() as u32;
                if let BlockOp::Cond { else_at, .. } = &mut self.p.block[at] {
                    *else_at = exit;
                }
            }
            // Internal invariant: contains_sync() is true only for the
            // statement shapes handled above.
            other => unreachable!("statement cannot contain a barrier: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::KernelBuilder;

    fn sample() -> Kernel {
        let mut b = KernelBuilder::new("k", 64);
        b.param_global_f32("a");
        b.param_scalar_i32("n");
        b.param_global_f32("out");
        b.shared_array("tile", Scalar::F32, 64);
        b.local_array("buf", Scalar::F32, 8);
        b.decl_i32("t", tidx());
        b.store("tile", v("t"), load("a", v("t")));
        b.sync();
        b.store("buf", i(0), load("tile", v("t")));
        b.store("out", v("t"), load("buf", i(0)) + cast(Scalar::F32, p("n")));
        b.finish()
    }

    fn lower(k: &Kernel, scalars: &[ArgValue]) -> Program {
        Program::lower(k, scalars, Dim3::x1(1))
    }

    #[test]
    fn array_params_keep_declaration_order_and_scalars_become_constants() {
        let prog = lower(&sample(), &[ArgValue::I32(-7)]);
        let names: Vec<_> = prog.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["a", "out"]);
        assert!(prog.consts.contains(&(Scalar::I32, -7i32 as u32)), "{:?}", prog.consts);
        assert!(prog.unknown_names.is_empty());
    }

    #[test]
    fn usage_flags_distinguish_read_only_from_read_write() {
        let prog = lower(&sample(), &[ArgValue::I32(0)]);
        assert!(prog.params[0].loaded && !prog.params[0].stored, "a is read-only");
        assert!(!prog.params[1].loaded && prog.params[1].stored, "out is write-only");
    }

    #[test]
    fn shared_and_local_offsets_follow_prescan_order() {
        let mut b = KernelBuilder::new("k", 32);
        b.shared_array("s1", Scalar::F32, 16);
        b.shared_array("s2", Scalar::F32, 8);
        b.local_array("l1", Scalar::F32, 4);
        b.if_(lt(tidx(), i(8)), |b| {
            b.local_array("l2", Scalar::F32, 2);
            b.shared_array("s1", Scalar::F32, 99);
        });
        let prog = lower(&b.finish(), &[]);
        let offsets =
            |t: &[ArrayDecl]| t.iter().map(|d| (d.len, d.byte_offset)).collect::<Vec<_>>();
        assert_eq!(offsets(&prog.shared), [(16, 0), (8, 64)], "the first s1 wins");
        assert_eq!(offsets(&prog.local), [(4, 0), (2, 16)]);
        assert_eq!(prog.local_decl_bytes, 24);
    }
}
