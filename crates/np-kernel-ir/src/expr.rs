//! Expressions of the kernel IR.

use crate::types::Scalar;

/// Built-in thread/block identity values (CUDA specials).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    ThreadIdxX,
    ThreadIdxY,
    ThreadIdxZ,
    BlockIdxX,
    BlockIdxY,
    BlockDimX,
    BlockDimY,
    BlockDimZ,
    GridDimX,
    GridDimY,
}

impl Special {
    /// CUDA spelling, used by the pretty-printer.
    pub fn c_name(self) -> &'static str {
        match self {
            Special::ThreadIdxX => "threadIdx.x",
            Special::ThreadIdxY => "threadIdx.y",
            Special::ThreadIdxZ => "threadIdx.z",
            Special::BlockIdxX => "blockIdx.x",
            Special::BlockIdxY => "blockIdx.y",
            Special::BlockDimX => "blockDim.x",
            Special::BlockDimY => "blockDim.y",
            Special::BlockDimZ => "blockDim.z",
            Special::GridDimX => "gridDim.x",
            Special::GridDimY => "gridDim.y",
        }
    }
}

/// Binary operators. Comparison operators yield `Bool`; the rest preserve
/// their operand type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LAnd,
    LOr,
}

impl BinOp {
    /// True when the result type is `Bool` regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    /// C spelling, used by the pretty-printer.
    pub fn c_name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }
}

/// Unary operators. The transcendental ones execute on the SFU pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Abs,
    Floor,
}

impl UnOp {
    /// Does this op use the special-function unit?
    pub fn is_sfu(self) -> bool {
        matches!(self, UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos)
    }

    /// C spelling.
    pub fn c_name(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::Sqrt => "sqrtf",
            UnOp::Exp => "expf",
            UnOp::Log => "logf",
            UnOp::Sin => "sinf",
            UnOp::Cos => "cosf",
            UnOp::Abs => "fabsf",
            UnOp::Floor => "floorf",
        }
    }
}

/// Variants of the Kepler `__shfl` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflMode {
    /// `__shfl(var, lane, width)` — read from an absolute lane in the group.
    Idx,
    /// `__shfl_up(var, delta, width)`.
    Up,
    /// `__shfl_down(var, delta, width)`.
    Down,
    /// `__shfl_xor(var, mask, width)`.
    Xor,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    ImmF32(f32),
    ImmI32(i32),
    ImmU32(u32),
    ImmBool(bool),
    /// A scalar (register) variable.
    Var(String),
    /// A scalar kernel parameter.
    Param(String),
    /// A CUDA special value.
    Special(Special),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`, evaluated without divergence (predication).
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Read `array[index]`; the array's memory space comes from its
    /// declaration or parameter kind.
    Load { array: String, index: Box<Expr> },
    /// A `__shfl`-family register exchange within a warp.
    Shfl { mode: ShflMode, value: Box<Expr>, lane: Box<Expr>, width: u32 },
    /// Type conversion.
    Cast(Scalar, Box<Expr>),
}

impl Expr {
    /// Depth of the tree — used as a cheap register-pressure proxy.
    pub fn depth(&self) -> u32 {
        match self {
            Expr::ImmF32(_)
            | Expr::ImmI32(_)
            | Expr::ImmU32(_)
            | Expr::ImmBool(_)
            | Expr::Var(_)
            | Expr::Param(_)
            | Expr::Special(_) => 1,
            Expr::Unary(_, e) | Expr::Cast(_, e) => 1 + e.depth(),
            Expr::Binary(_, a, b) => 1 + a.depth().max(b.depth()),
            Expr::Select(c, a, b) => 1 + c.depth().max(a.depth()).max(b.depth()),
            Expr::Load { index, .. } => 1 + index.depth(),
            Expr::Shfl { value, lane, .. } => 1 + value.depth().max(lane.depth()),
        }
    }

    /// Visit every sub-expression (pre-order), including `self`.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary(_, e) | Expr::Cast(_, e) => e.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Select(c, a, b) => {
                c.visit(f);
                a.visit(f);
                b.visit(f);
            }
            Expr::Load { index, .. } => index.visit(f),
            Expr::Shfl { value, lane, .. } => {
                value.visit(f);
                lane.visit(f);
            }
            _ => {}
        }
    }

    /// Rewrite the tree bottom-up with `f` applied to every node.
    pub fn rewrite(self, f: &dyn Fn(Expr) -> Expr) -> Expr {
        let e = match self {
            Expr::Unary(op, e) => Expr::Unary(op, Box::new(e.rewrite(f))),
            Expr::Cast(t, e) => Expr::Cast(t, Box::new(e.rewrite(f))),
            Expr::Binary(op, a, b) => {
                Expr::Binary(op, Box::new(a.rewrite(f)), Box::new(b.rewrite(f)))
            }
            Expr::Select(c, a, b) => Expr::Select(
                Box::new(c.rewrite(f)),
                Box::new(a.rewrite(f)),
                Box::new(b.rewrite(f)),
            ),
            Expr::Load { array, index } => {
                Expr::Load { array, index: Box::new(index.rewrite(f)) }
            }
            Expr::Shfl { mode, value, lane, width } => Expr::Shfl {
                mode,
                value: Box::new(value.rewrite(f)),
                lane: Box::new(lane.rewrite(f)),
                width,
            },
            leaf => leaf,
        };
        f(e)
    }

    /// Names of scalar variables read by this expression.
    pub fn vars_read(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Var(name) = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Names of arrays read by this expression.
    pub fn arrays_read(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Load { array, .. } = e {
                if !out.contains(array) {
                    out.push(array.clone());
                }
            }
        });
        out
    }
}

// Operator-overloaded construction sugar so kernels read naturally:
// `v("sum") + load("a", idx) * load("b", idx2)`.
impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Rem, Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

/// Free-function constructors (the kernel-building DSL).
pub mod dsl {
    use super::*;

    /// Scalar variable reference.
    pub fn v(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }
    /// Scalar parameter reference.
    pub fn p(name: &str) -> Expr {
        Expr::Param(name.to_string())
    }
    /// f32 literal.
    pub fn f(x: f32) -> Expr {
        Expr::ImmF32(x)
    }
    /// i32 literal.
    pub fn i(x: i32) -> Expr {
        Expr::ImmI32(x)
    }
    /// u32 literal.
    pub fn u(x: u32) -> Expr {
        Expr::ImmU32(x)
    }
    /// Array load.
    pub fn load(array: &str, index: Expr) -> Expr {
        Expr::Load { array: array.to_string(), index: Box::new(index) }
    }
    /// CUDA special.
    pub fn special(s: Special) -> Expr {
        Expr::Special(s)
    }
    /// threadIdx.x
    pub fn tidx() -> Expr {
        Expr::Special(Special::ThreadIdxX)
    }
    /// threadIdx.y
    pub fn tidy() -> Expr {
        Expr::Special(Special::ThreadIdxY)
    }
    /// blockIdx.x
    pub fn bidx() -> Expr {
        Expr::Special(Special::BlockIdxX)
    }
    /// blockDim.x
    pub fn bdimx() -> Expr {
        Expr::Special(Special::BlockDimX)
    }
    /// blockDim.y
    pub fn bdimy() -> Expr {
        Expr::Special(Special::BlockDimY)
    }
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(a), Box::new(b))
    }
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(a), Box::new(b))
    }
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(a), Box::new(b))
    }
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(a), Box::new(b))
    }
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(a), Box::new(b))
    }
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(a), Box::new(b))
    }
    pub fn land(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::LAnd, Box::new(a), Box::new(b))
    }
    pub fn lor(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::LOr, Box::new(a), Box::new(b))
    }
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Min, Box::new(a), Box::new(b))
    }
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Max, Box::new(a), Box::new(b))
    }
    pub fn shl(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Shl, Box::new(a), Box::new(b))
    }
    pub fn shr(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Shr, Box::new(a), Box::new(b))
    }
    pub fn sqrt(a: Expr) -> Expr {
        Expr::Unary(UnOp::Sqrt, Box::new(a))
    }
    pub fn exp(a: Expr) -> Expr {
        Expr::Unary(UnOp::Exp, Box::new(a))
    }
    pub fn log(a: Expr) -> Expr {
        Expr::Unary(UnOp::Log, Box::new(a))
    }
    pub fn abs(a: Expr) -> Expr {
        Expr::Unary(UnOp::Abs, Box::new(a))
    }
    pub fn select(c: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Select(Box::new(c), Box::new(a), Box::new(b))
    }
    pub fn cast(ty: crate::types::Scalar, e: Expr) -> Expr {
        Expr::Cast(ty, Box::new(e))
    }
    /// `__shfl(value, lane, width)`.
    pub fn shfl(value: Expr, lane: Expr, width: u32) -> Expr {
        Expr::Shfl { mode: ShflMode::Idx, value: Box::new(value), lane: Box::new(lane), width }
    }
    /// `__shfl_xor(value, mask, width)`.
    pub fn shfl_xor(value: Expr, mask: Expr, width: u32) -> Expr {
        Expr::Shfl { mode: ShflMode::Xor, value: Box::new(value), lane: Box::new(mask), width }
    }
    /// `__shfl_up(value, delta, width)`.
    pub fn shfl_up(value: Expr, delta: Expr, width: u32) -> Expr {
        Expr::Shfl { mode: ShflMode::Up, value: Box::new(value), lane: Box::new(delta), width }
    }
    /// `__shfl_down(value, delta, width)`.
    pub fn shfl_down(value: Expr, delta: Expr, width: u32) -> Expr {
        Expr::Shfl { mode: ShflMode::Down, value: Box::new(value), lane: Box::new(delta), width }
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn operator_sugar_builds_trees() {
        let e = v("sum") + load("a", v("i")) * load("b", v("i"));
        match &e {
            Expr::Binary(BinOp::Add, l, r) => {
                assert_eq!(**l, v("sum"));
                assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
            }
            _ => panic!("bad tree"),
        }
    }

    #[test]
    fn vars_and_arrays_read() {
        let e = v("x") + v("y") * load("arr", v("x") + v("z"));
        let mut vars = e.vars_read();
        vars.sort();
        assert_eq!(vars, vec!["x", "y", "z"]);
        assert_eq!(e.arrays_read(), vec!["arr"]);
    }

    #[test]
    fn depth_is_sane() {
        assert_eq!(v("x").depth(), 1);
        assert_eq!((v("x") + v("y")).depth(), 2);
        assert_eq!((v("x") + v("y") * v("z")).depth(), 3);
    }

    #[test]
    fn rewrite_replaces_vars() {
        let e = v("x") + load("a", v("x"));
        let r = e.rewrite(&|e| match e {
            Expr::Var(n) if n == "x" => Expr::Var("master_id".into()),
            other => other,
        });
        let mut vars = r.vars_read();
        vars.sort();
        assert_eq!(vars, vec!["master_id"]);
    }

    #[test]
    fn sfu_classification() {
        assert!(UnOp::Sqrt.is_sfu());
        assert!(UnOp::Exp.is_sfu());
        assert!(!UnOp::Neg.is_sfu());
        assert!(!UnOp::Abs.is_sfu());
    }

    #[test]
    fn comparisons_are_flagged() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
