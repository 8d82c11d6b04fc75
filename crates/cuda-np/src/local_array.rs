//! Live local-memory arrays in parallel sections (Section 3.3, Figure 6).
//!
//! A per-thread local array touched by a parallel loop must become visible
//! to the slave threads. Three rewrites, chosen by the paper's policy:
//!
//! 1. **Partition into registers** (Fig. 6c) — legal when every access in
//!    the parallel loops indexes by the bare loop iterator, so each slave
//!    touches a disjoint cyclic residue class: `arr[i]` → `arr[i / S]` on a
//!    `ceil(N/S)`-element register array.
//! 2. **Shared memory** (Fig. 6b) — `arr[i]` → `arr_sm[master_id * N + i]`.
//! 3. **Global memory** (Fig. 6a) — a new kernel parameter partitioned per
//!    block and strided by `master_size` for coalescing:
//!    `arr[i]` → `arr_g[blockIdx.x * M * N + i * M + master_id]`.
//!
//! Policy (`Auto`): partition when legal; otherwise shared memory when the
//! array fits a 384-byte budget minus the baseline's own shared usage per
//! thread; otherwise global memory.

use crate::mapping::{ThreadMap, MASTER_ID};
use crate::options::{LocalArrayStrategy, TransformError};
use np_kernel_ir::analysis::loops::accesses_only_by_iterator;
use np_kernel_ir::expr::dsl::bidx;
use np_kernel_ir::expr::Expr;
use np_kernel_ir::kernel::{Kernel, Param, ParamKind};
use np_kernel_ir::stmt::Stmt;
use np_kernel_ir::types::MemSpace;

/// Shared-memory budget in bytes per thread for the `Auto` policy (the
/// paper's 384).
const SHARED_BUDGET_PER_THREAD: u32 = 384;

/// What happened to one local array.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalArrayChoice {
    Register { per_slave_len: u32 },
    Shared { total_len: u32 },
    Global { param: String, elems_per_block: u64 },
}

/// Record of one relocated array.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalArrayPlan {
    pub array: String,
    pub choice: LocalArrayChoice,
}

/// Is `array` accessed anywhere in `stmts` (reads or writes)?
fn accessed_in(stmts: &[Stmt], array: &str) -> bool {
    let mut found = false;
    np_kernel_ir::stmt::visit_stmts(stmts, &mut |s| {
        if let Stmt::Store { array: a, .. } = s {
            if a == array {
                found = true;
            }
        }
        for e in s.exprs() {
            e.visit(&mut |e| {
                if let Expr::Load { array: a, .. } = e {
                    if a == array {
                        found = true;
                    }
                }
            });
        }
    });
    found
}

/// Collect `(iterator, init, has_scan, body)` descriptors of every pragma
/// loop in the kernel that touches `array`.
struct TouchingLoop {
    init_is_zero: bool,
    has_scan: bool,
    iterator_only: bool,
}

fn touching_loops(stmts: &[Stmt], array: &str, out: &mut Vec<TouchingLoop>) {
    for s in stmts {
        match s {
            Stmt::For { var, init, body, pragma, .. } => {
                if pragma.is_some() && accessed_in(body, array) {
                    out.push(TouchingLoop {
                        init_is_zero: matches!(init, Expr::ImmI32(0)),
                        has_scan: pragma.as_ref().is_some_and(|p| !p.scans.is_empty()),
                        iterator_only: accesses_only_by_iterator(body, array, var),
                    });
                }
                touching_loops(body, array, out);
            }
            Stmt::If { then_body, else_body, .. } => {
                touching_loops(then_body, array, out);
                touching_loops(else_body, array, out);
            }
            _ => {}
        }
    }
}

/// Is `array` accessed outside of pragma loops (sequential code)?
fn accessed_outside_pragma_loops(stmts: &[Stmt], array: &str) -> bool {
    for s in stmts {
        match s {
            Stmt::For { body, pragma, .. } => {
                if pragma.is_none() && accessed_outside_pragma_loops(body, array) {
                    return true;
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                let mut in_cond = false;
                cond.visit(&mut |e| {
                    if let Expr::Load { array: a, .. } = e {
                        if a == array {
                            in_cond = true;
                        }
                    }
                });
                if in_cond
                    || accessed_outside_pragma_loops(then_body, array)
                    || accessed_outside_pragma_loops(else_body, array)
                {
                    return true;
                }
            }
            other => {
                let mut found = false;
                if let Stmt::Store { array: a, .. } = other {
                    if a == array {
                        found = true;
                    }
                }
                for e in other.exprs() {
                    e.visit(&mut |e| {
                        if let Expr::Load { array: a, .. } = e {
                            if a == array {
                                found = true;
                            }
                        }
                    });
                }
                if found {
                    return true;
                }
            }
        }
    }
    false
}

/// Rewrite every access of `array` in `stmts`: index `e` becomes `f(e)`,
/// and the array name becomes `new_name`.
fn rewrite_accesses(stmts: &mut [Stmt], array: &str, new_name: &str, f: &dyn Fn(Expr) -> Expr) {
    for s in stmts.iter_mut() {
        match s {
            Stmt::Store { array: a, index, .. } if a == array => {
                *index = f(index.clone());
                *a = new_name.to_string();
            }
            _ => {}
        }
        // Rewrite loads inside every expression of the statement.
        let rewrite_expr = |e: Expr| -> Expr {
            e.rewrite(&|e| match e {
                Expr::Load { array: a, index } if a == array => {
                    Expr::Load { array: new_name.to_string(), index: Box::new(f(*index)) }
                }
                other => other,
            })
        };
        match s {
            Stmt::DeclScalar { init: Some(e), .. } => *e = rewrite_expr(e.clone()),
            Stmt::Assign { value, .. } => *value = rewrite_expr(value.clone()),
            Stmt::Store { index, value, .. } => {
                *index = rewrite_expr(index.clone());
                *value = rewrite_expr(value.clone());
            }
            Stmt::If { cond, then_body, else_body } => {
                *cond = rewrite_expr(cond.clone());
                rewrite_accesses(then_body, array, new_name, f);
                rewrite_accesses(else_body, array, new_name, f);
            }
            Stmt::For { init, bound, step, body, .. } => {
                *init = rewrite_expr(init.clone());
                *bound = rewrite_expr(bound.clone());
                *step = rewrite_expr(step.clone());
                rewrite_accesses(body, array, new_name, f);
            }
            _ => {}
        }
    }
}

/// Remove the declaration of `array` from the body, returning its info.
fn take_decl(stmts: &mut Vec<Stmt>, array: &str) -> Option<(np_kernel_ir::types::Scalar, u32, usize)> {
    for (pos, s) in stmts.iter().enumerate() {
        if let Stmt::DeclArray { name, ty, len, .. } = s {
            if name == array {
                let out = (*ty, *len, pos);
                stmts.remove(pos);
                return Some(out);
            }
        }
    }
    None
}

/// Plan and apply the relocation of every live local array. Mutates the
/// kernel in place; returns the plans (including new global parameters the
/// launcher must allocate: `elems_per_block * gridDim.x` elements).
pub fn plan_and_rewrite(
    kernel: &mut Kernel,
    map: &ThreadMap,
    strategy: LocalArrayStrategy,
) -> Result<Vec<LocalArrayPlan>, TransformError> {
    let locals: Vec<(String, u32, np_kernel_ir::types::Scalar)> = kernel
        .declared_arrays()
        .into_iter()
        .filter(|(_, i)| i.space == MemSpace::Local)
        .map(|(n, i)| (n, i.len.unwrap_or(0), i.ty))
        .collect();

    let baseline_shared = kernel.shared_bytes();
    let mut plans = Vec::new();

    for (name, len, _ty) in locals {
        let mut loops = Vec::new();
        touching_loops(&kernel.body, &name, &mut loops);
        if loops.is_empty() {
            continue; // untouched by parallel sections: stays local
        }
        let partition_legal = loops
            .iter()
            .all(|l| l.iterator_only && l.init_is_zero && !l.has_scan)
            && !accessed_outside_pragma_loops(&kernel.body, &name);

        let s = map.slave_size;
        let m = map.master_size;
        let fits_shared = {
            let budget = SHARED_BUDGET_PER_THREAD.saturating_sub(baseline_shared / m.max(1));
            len * 4 <= budget
        };

        let choice = match strategy {
            LocalArrayStrategy::Auto => {
                if partition_legal {
                    LocalArrayChoice::Register { per_slave_len: len.div_ceil(s) }
                } else if fits_shared {
                    LocalArrayChoice::Shared { total_len: m * len }
                } else {
                    LocalArrayChoice::Global {
                        param: format!("{name}_g"),
                        elems_per_block: m as u64 * len as u64,
                    }
                }
            }
            LocalArrayStrategy::ForceRegister => {
                if !partition_legal {
                    return Err(TransformError::NonCanonicalLoop(format!(
                        "local array {name:?} cannot be partitioned into registers: \
                         accesses must use the bare loop iterator of zero-based, \
                         non-scan parallel loops only"
                    )));
                }
                LocalArrayChoice::Register { per_slave_len: len.div_ceil(s) }
            }
            LocalArrayStrategy::ForceShared => LocalArrayChoice::Shared { total_len: m * len },
            LocalArrayStrategy::ForceGlobal => LocalArrayChoice::Global {
                param: format!("{name}_g"),
                elems_per_block: m as u64 * len as u64,
            },
        };

        apply_choice(kernel, map, &name, len, &choice);
        plans.push(LocalArrayPlan { array: name, choice });
    }
    Ok(plans)
}

fn apply_choice(
    kernel: &mut Kernel,
    map: &ThreadMap,
    name: &str,
    len: u32,
    choice: &LocalArrayChoice,
) {
    let s = map.slave_size as i32;
    let m = map.master_size as i32;
    let (ty, _, pos) = take_decl(&mut kernel.body, name).expect("declared local array");
    match choice {
        LocalArrayChoice::Register { per_slave_len } => {
            kernel.body.insert(
                pos,
                Stmt::DeclArray {
                    name: name.to_string(),
                    ty,
                    space: MemSpace::Register,
                    len: *per_slave_len,
                },
            );
            // Cyclic distribution: slave s owns indices i ≡ s (mod S), so
            // element i lives at slot i / S of its own partition.
            rewrite_accesses(&mut kernel.body, name, name, &|e| {
                Expr::Binary(
                    np_kernel_ir::expr::BinOp::Div,
                    Box::new(e),
                    Box::new(Expr::ImmI32(s)),
                )
            });
        }
        LocalArrayChoice::Shared { total_len } => {
            let new = format!("{name}_sm");
            kernel.body.insert(
                pos,
                Stmt::DeclArray {
                    name: new.clone(),
                    ty,
                    space: MemSpace::Shared,
                    len: *total_len,
                },
            );
            // Figure 6b layout: arr_sm[master_id][i].
            let n = len as i32;
            rewrite_accesses(&mut kernel.body, name, &new, &|e| {
                Expr::Var(MASTER_ID.into()) * Expr::ImmI32(n) + e
            });
        }
        LocalArrayChoice::Global { param, .. } => {
            kernel
                .params
                .push(Param { name: param.clone(), kind: ParamKind::GlobalArray(ty) });
            // Figure 6a layout: block-partitioned, strided by master_size
            // so that simultaneous accesses by adjacent masters coalesce.
            let n = len as i32;
            let param_name = param.clone();
            rewrite_accesses(&mut kernel.body, name, &param_name, &|e| {
                bidx() * Expr::ImmI32(m * n)
                    + e * Expr::ImmI32(m)
                    + Expr::Var(MASTER_ID.into())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::pragma::NpType;
    use np_kernel_ir::{KernelBuilder, Scalar};

    fn map() -> ThreadMap {
        ThreadMap { np_type: NpType::InterWarp, master_size: 32, slave_size: 8 }
    }

    /// Figure-5-like kernel: Grad\[150\] written then reduced in pragma loops.
    fn le_like() -> Kernel {
        let mut b = KernelBuilder::new("le", 32);
        b.param_global_f32("src");
        b.param_global_f32("out");
        b.local_array("Grad", Scalar::F32, 150);
        b.decl_f32("sum", f(0.0));
        b.pragma_for("np parallel for", "n", i(0), i(150), |b| {
            b.store("Grad", v("n"), load("src", v("n")));
        });
        b.pragma_for("np parallel for reduction(+:sum)", "n", i(0), i(150), |b| {
            b.assign("sum", v("sum") + load("Grad", v("n")));
        });
        b.store("out", tidx(), v("sum"));
        b.finish()
    }

    #[test]
    fn auto_partitions_iterator_indexed_arrays() {
        let mut k = le_like();
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::Auto).unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].choice, LocalArrayChoice::Register { per_slave_len: 19 });
        // The declaration became a register array of ceil(150/8) = 19.
        let info = k.array_info("Grad").unwrap();
        assert_eq!(info.space, MemSpace::Register);
        assert_eq!(info.len, Some(19));
        // Indices got divided by slave_size.
        let src = np_kernel_ir::printer::print_kernel(&k);
        assert!(src.contains("Grad[(n / 8)]"), "{src}");
    }

    #[test]
    fn force_shared_uses_master_major_layout() {
        let mut k = le_like();
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::ForceShared).unwrap();
        assert_eq!(plans[0].choice, LocalArrayChoice::Shared { total_len: 32 * 150 });
        let info = k.array_info("Grad_sm").unwrap();
        assert_eq!(info.space, MemSpace::Shared);
        let src = np_kernel_ir::printer::print_kernel(&k);
        assert!(src.contains("Grad_sm[((__np_master_id * 150) + n)]"), "{src}");
    }

    #[test]
    fn force_global_adds_a_parameter() {
        let mut k = le_like();
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::ForceGlobal).unwrap();
        match &plans[0].choice {
            LocalArrayChoice::Global { param, elems_per_block } => {
                assert_eq!(param, "Grad_g");
                assert_eq!(*elems_per_block, 32 * 150);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(k.params.iter().any(|p| p.name == "Grad_g"));
        assert!(k.array_info("Grad").is_none(), "old decl removed");
    }

    #[test]
    fn non_iterator_access_forbids_partition() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("out");
        b.local_array("buf", Scalar::F32, 64);
        b.pragma_for("np parallel for", "n", i(0), i(64), |b| {
            b.store("buf", v("n") % i(8), f(0.0)); // not the bare iterator
        });
        b.store("out", tidx(), load("buf", i(0)));
        let mut k = b.finish();
        assert!(matches!(
            plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::ForceRegister),
            Err(TransformError::NonCanonicalLoop(_))
        ));
        // Auto falls back to shared (64*4 = 256 <= 384).
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::Auto).unwrap();
        assert!(matches!(plans[0].choice, LocalArrayChoice::Shared { .. }));
    }

    #[test]
    fn auto_spills_large_arrays_to_global() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("out");
        b.local_array("big", Scalar::F32, 200); // 800 B > 384 B budget
        b.pragma_for("np parallel for", "n", i(0), i(200), |b| {
            // Offset access also blocks partitioning.
            b.store("big", (v("n") + i(1)) % i(200), f(0.0));
        });
        b.store("out", tidx(), load("big", i(0)));
        let mut k = b.finish();
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::Auto).unwrap();
        assert!(matches!(plans[0].choice, LocalArrayChoice::Global { .. }));
    }

    #[test]
    fn arrays_untouched_by_parallel_loops_stay_local() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("out");
        b.local_array("scratch", Scalar::F32, 16);
        b.for_loop("j", i(0), i(16), |b| {
            b.store("scratch", v("j"), f(1.0));
        });
        b.pragma_for("np parallel for", "n", i(0), i(64), |b| {
            b.store("out", v("n"), f(2.0));
        });
        let mut k = b.finish();
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::Auto).unwrap();
        assert!(plans.is_empty());
        assert_eq!(k.array_info("scratch").unwrap().space, MemSpace::Local);
    }

    #[test]
    fn scan_loop_access_disqualifies_partition() {
        let mut b = KernelBuilder::new("k", 32);
        b.param_global_f32("out");
        b.local_array("arr", Scalar::F32, 64);
        b.decl_f32("acc", f(0.0));
        b.pragma_for("np parallel for scan(+:acc)", "n", i(0), i(64), |b| {
            b.assign("acc", v("acc") + load("arr", v("n")));
        });
        b.store("out", tidx(), v("acc"));
        let mut k = b.finish();
        let plans = plan_and_rewrite(&mut k, &map(), LocalArrayStrategy::Auto).unwrap();
        assert!(
            matches!(plans[0].choice, LocalArrayChoice::Shared { .. }),
            "blocked scan distribution is incompatible with cyclic partitioning"
        );
    }
}
