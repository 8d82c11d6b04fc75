//! Statements of the kernel IR.

use crate::expr::Expr;
use crate::pragma::NpPragma;
use crate::types::{MemSpace, Scalar};

/// A statement. Bodies are plain `Vec<Stmt>`.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare (and optionally initialize) a per-thread scalar.
    DeclScalar { name: String, ty: Scalar, init: Option<Expr> },
    /// Declare an array. `Shared` arrays are per-block; `Local` arrays are
    /// per-thread. (Global/Constant/Texture arrays enter as parameters.)
    DeclArray { name: String, ty: Scalar, space: MemSpace, len: u32 },
    /// `name = value`.
    Assign { name: String, value: Expr },
    /// `array[index] = value`.
    Store { array: String, index: Expr, value: Expr },
    /// Structured conditional. Divergence-aware at execution time.
    If { cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt> },
    /// Canonical counted loop: `for (var = init; var < bound; var += step)`.
    /// `step` must be a positive constant expression in practice; the
    /// CUDA-NP transform requires `step == 1` on pragma loops.
    For {
        var: String,
        init: Expr,
        bound: Expr,
        step: Expr,
        body: Vec<Stmt>,
        /// Present when the loop carries an `np parallel for` directive.
        pragma: Option<NpPragma>,
    },
    /// `__syncthreads()`.
    SyncThreads,
}

impl Stmt {
    /// Does this statement (recursively) contain a barrier?
    pub fn contains_sync(&self) -> bool {
        match self {
            Stmt::SyncThreads => true,
            Stmt::If { then_body, else_body, .. } => {
                contains_sync(then_body) || contains_sync(else_body)
            }
            Stmt::For { body, .. } => contains_sync(body),
            _ => false,
        }
    }

    /// Does this statement (recursively) contain a pragma-marked loop?
    pub fn contains_pragma_loop(&self) -> bool {
        match self {
            Stmt::For { pragma: Some(_), .. } => true,
            Stmt::For { body, .. } => body.iter().any(Stmt::contains_pragma_loop),
            Stmt::If { then_body, else_body, .. } => {
                then_body.iter().any(Stmt::contains_pragma_loop)
                    || else_body.iter().any(Stmt::contains_pragma_loop)
            }
            _ => false,
        }
    }

    /// Scalar variables this statement writes at its own level (not
    /// recursing into bodies). Loop iterators count as writes of the `For`.
    pub fn writes(&self) -> Vec<String> {
        match self {
            Stmt::DeclScalar { name, init: Some(_), .. } => vec![name.clone()],
            Stmt::DeclScalar { .. } => vec![],
            Stmt::Assign { name, .. } => vec![name.clone()],
            Stmt::For { var, .. } => vec![var.clone()],
            _ => vec![],
        }
    }

    /// Expressions read directly by this statement (not recursing).
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Stmt::DeclScalar { init: Some(e), .. } => vec![e],
            Stmt::DeclScalar { .. } | Stmt::DeclArray { .. } | Stmt::SyncThreads => vec![],
            Stmt::Assign { value, .. } => vec![value],
            Stmt::Store { index, value, .. } => vec![index, value],
            Stmt::If { cond, .. } => vec![cond],
            Stmt::For { init, bound, step, .. } => vec![init, bound, step],
        }
    }
}

/// Does any statement in the slice (recursively) contain a barrier?
pub fn contains_sync(stmts: &[Stmt]) -> bool {
    stmts.iter().any(Stmt::contains_sync)
}

/// Visit every statement in a body, recursively, in source order.
pub fn visit_stmts<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::If { then_body, else_body, .. } => {
                visit_stmts(then_body, f);
                visit_stmts(else_body, f);
            }
            Stmt::For { body, .. } => visit_stmts(body, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;

    fn loop_with(body: Vec<Stmt>, pragma: Option<NpPragma>) -> Stmt {
        Stmt::For {
            var: "i".into(),
            init: i(0),
            bound: i(10),
            step: i(1),
            body,
            pragma,
        }
    }

    #[test]
    fn sync_detection_recurses() {
        let s = loop_with(
            vec![Stmt::If {
                cond: lt(v("i"), i(5)),
                then_body: vec![Stmt::SyncThreads],
                else_body: vec![],
            }],
            None,
        );
        assert!(s.contains_sync());
        let s2 = loop_with(vec![Stmt::Assign { name: "x".into(), value: i(1) }], None);
        assert!(!s2.contains_sync());
    }

    #[test]
    fn pragma_loop_detection() {
        let inner = loop_with(vec![], Some(NpPragma::parallel_for()));
        let outer = Stmt::If {
            cond: lt(v("t"), i(16)),
            then_body: vec![inner],
            else_body: vec![],
        };
        assert!(outer.contains_pragma_loop());
    }

    #[test]
    fn visit_covers_nesting() {
        let body = vec![
            Stmt::Assign { name: "a".into(), value: i(1) },
            loop_with(vec![Stmt::Assign { name: "b".into(), value: i(2) }], None),
        ];
        let mut seen = 0;
        visit_stmts(&body, &mut |_| seen += 1);
        assert_eq!(seen, 3);
    }
}
