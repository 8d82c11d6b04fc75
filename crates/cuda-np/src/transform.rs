//! The overall CUDA-NP code transformation (Figure 7).
//!
//! The kernel body is walked once. Sequential statements are gated so only
//! master threads (`slave_id == 0`) execute them — unless they are
//! redundantly computable by every slave (Section 3.1). Pragma-marked loops
//! are rewritten so each master's slave group splits the iterations;
//! scalar live-ins are broadcast, live-outs reduced or scanned, and live
//! local arrays relocated (Sections 3.1–3.3).
//!
//! Parallel loops nested under control flow (LU's `master_id < 16` case)
//! are handled by *guard sinking*: the enclosing condition becomes a guard
//! on sequential statements and parallel-loop bodies, while barriers and
//! group communication stay at top level where every thread participates.

use crate::broadcast::broadcast_var;
use crate::liveout::{
    combine_expr, exclusive_scan, identity_expr, reduce_var, scan_vars, slave_identity_init,
};
use crate::local_array::{plan_and_rewrite, LocalArrayChoice, LocalArrayPlan};
use crate::mapping::{ThreadMap, MASTER_ID, SLAVE_ID};
use crate::options::{NpOptions, TransformError};
use crate::preprocess::pad::pad_parallel_loops;
use crate::preprocess::flatten::rewrite_exprs;
use crate::scan::scan_slice;
use np_kernel_ir::analysis::{live_in_of_loop, live_out_candidates, redundant_scalars_seeded, scalars_read};
use np_kernel_ir::expr::dsl::{eq, land, min, v};
use np_kernel_ir::expr::{Expr, Special, UnOp};
use np_kernel_ir::kernel::Kernel;
use np_kernel_ir::pragma::{NpPragma, NpType, RedOp};
use np_kernel_ir::stmt::{visit_stmts, Stmt};
use np_kernel_ir::types::Scalar;
use std::collections::{BTreeMap, BTreeSet};

/// The transformation result.
#[derive(Debug, Clone)]
pub struct Transformed {
    pub kernel: Kernel,
    pub report: TransformReport,
}

/// Everything the transform decided, for logging, testing, and the launch
/// harness (extra buffers).
#[derive(Debug, Clone, Default)]
pub struct TransformReport {
    pub master_size: u32,
    pub slave_size: u32,
    pub np_type: Option<NpType>,
    pub use_shfl: bool,
    /// Variables broadcast master → slaves.
    pub broadcasts: Vec<String>,
    /// Variables recomputed redundantly by slaves.
    pub redundant: Vec<String>,
    pub reductions: Vec<(String, RedOp)>,
    pub scans: Vec<String>,
    pub selects: Vec<String>,
    pub local_arrays: Vec<LocalArrayPlan>,
    /// Global buffers the launcher must allocate: (param name, elements per
    /// block) — total size is `elems_per_block * gridDim.x`.
    pub extra_global_buffers: Vec<(String, u64)>,
    pub padded_loops: u32,
    /// Pragma loops emitted serially (master-only) because their static
    /// trip count fell below `NpOptions::serial_below`: (iterator, trip).
    pub gated_loops: Vec<(String, u32)>,
    /// Per-loop communication overrides that were applied: (pragma loop
    /// index, used __shfl).
    pub comm_overrides: Vec<(usize, bool)>,
}

struct Emitter {
    map: ThreadMap,
    use_shfl: bool,
    redundant_enabled: bool,
    /// Small-loop gating threshold (`NpOptions::serial_below`).
    serial_below: Option<u32>,
    /// Per-loop communication overrides, keyed by pre-order pragma-loop
    /// index.
    loop_comm: BTreeMap<usize, bool>,
    /// Pre-order index of the next pragma loop `emit_parallel_loop` sees.
    pragma_loop_index: usize,
    /// Post-relocation names of live local arrays. Their accesses were
    /// rewritten assuming the cyclic slave distribution (register partitions
    /// especially), so a loop touching one must never be gated to serial.
    relocated_arrays: BTreeSet<String>,
    types: BTreeMap<String, Scalar>,
    redundant: BTreeSet<String>,
    available: BTreeSet<String>,
    top_decls: Vec<Stmt>,
    top_decl_names: BTreeSet<String>,
    out: Vec<Stmt>,
    pending_guarded: Vec<Stmt>,
    pending_guard: Option<Expr>,
    report: TransformReport,
    scan_counter: u32,
}

impl Emitter {
    /// The full guard expression for master-only code under `guard`.
    fn master_guard(&self, guard: &Option<Expr>) -> Expr {
        let base = eq(v(SLAVE_ID), Expr::ImmI32(0));
        match guard {
            Some(g) => land(base, g.clone()),
            None => base,
        }
    }

    fn flush_guarded(&mut self) {
        if self.pending_guarded.is_empty() {
            return;
        }
        let body = std::mem::take(&mut self.pending_guarded);
        let guard = self.pending_guard.take().expect("guard recorded with stmts");
        self.out.push(Stmt::If { cond: guard, then_body: body, else_body: vec![] });
    }

    fn emit_guarded(&mut self, guard: &Option<Expr>, s: Stmt) {
        let g = self.master_guard(guard);
        if self.pending_guard.as_ref() != Some(&g) {
            self.flush_guarded();
            self.pending_guard = Some(g);
        }
        self.pending_guarded.push(s);
    }

    fn emit_unguarded(&mut self, s: Stmt) {
        self.flush_guarded();
        self.out.push(s);
    }

    fn add_top_decl(&mut self, d: Stmt) {
        if let Stmt::DeclArray { name, .. } = &d {
            if !self.top_decl_names.insert(name.clone()) {
                return;
            }
        }
        self.top_decls.push(d);
    }

    fn ty_of(&self, var: &str) -> Scalar {
        *self.types.get(var).unwrap_or(&Scalar::I32)
    }

    /// Make `vars` readable by slave threads, broadcasting when necessary.
    fn ensure_available(&mut self, vars: impl IntoIterator<Item = String>) {
        for var in vars {
            if self.available.contains(&var) {
                continue;
            }
            let ty = self.ty_of(&var);
            let (decls, code) = broadcast_var(&self.map, self.use_shfl, &var, ty);
            for d in decls {
                self.add_top_decl(d);
            }
            for c in code {
                self.emit_unguarded(c);
            }
            self.report.broadcasts.push(var.clone());
            self.available.insert(var);
        }
    }

    fn expr_vars(e: &Expr) -> BTreeSet<String> {
        e.vars_read().into_iter().collect()
    }
}

/// Apply the CUDA-NP transformation to `kernel` with `opts`.
pub fn transform(kernel: &Kernel, opts: &NpOptions) -> Result<Transformed, TransformError> {
    let _obs = np_obs::span("transform");
    if !kernel.has_pragma_loops() {
        return Err(TransformError::NoPragmaLoops);
    }
    if kernel.block_dim.y != 1 || kernel.block_dim.z != 1 {
        return Err(TransformError::MultiDimInput);
    }
    if opts.slave_size < 2 {
        return Err(TransformError::SlaveSizeTooSmall);
    }
    let map = ThreadMap {
        np_type: opts.np_type,
        master_size: kernel.block_dim.x,
        slave_size: opts.slave_size,
    };
    if map.np_type == NpType::IntraWarp && !map.slaves_share_warp() {
        return Err(TransformError::IntraWarpSlaveSize(opts.slave_size));
    }
    if map.total_threads() > opts.max_block_threads {
        return Err(TransformError::BlockTooLarge {
            master: map.master_size,
            slave: map.slave_size,
            max: opts.max_block_threads,
        });
    }
    if opts.use_shfl == Some(true) && opts.sm_version < 30 {
        return Err(TransformError::ShflUnsupported);
    }
    // A per-loop shuffle request is only honest when the mapping keeps each
    // slave group inside one warp and the target has `__shfl` at all.
    if opts
        .loop_comm
        .iter()
        .any(|&(_, sh)| sh && (!map.slaves_share_warp() || opts.sm_version < 30))
    {
        return Err(TransformError::ShflUnsupported);
    }
    let use_shfl = opts.shfl_enabled() && map.slaves_share_warp();

    let mut work = kernel.clone();

    let padded_loops = {
        let _obs = np_obs::span("transform.pad");
        if opts.pad { pad_parallel_loops(&mut work, opts.slave_size)? } else { 0 }
    };

    // Relocate live local arrays before anything else (indices gain
    // references to __np_master_id, defined by the prologue below).
    let local_plans = {
        let _obs = np_obs::span("transform.locals");
        plan_and_rewrite(&mut work, &map, opts.local_array)?
    };

    // Replace the original thread identity with the master id.
    let master_size = map.master_size as i32;
    rewrite_exprs(&mut work.body, &|e| match e {
        Expr::Special(Special::ThreadIdxX) => v(MASTER_ID),
        Expr::Special(Special::BlockDimX) => Expr::ImmI32(master_size),
        other => other,
    });

    // Collect scalar types (for communication buffer declarations).
    let mut types = BTreeMap::new();
    visit_stmts(&work.body, &mut |s| match s {
        Stmt::DeclScalar { name, ty, .. } => {
            types.insert(name.clone(), *ty);
        }
        Stmt::For { var, .. } => {
            types.insert(var.clone(), Scalar::I32);
        }
        _ => {}
    });

    let mut em = Emitter {
        map,
        use_shfl,
        redundant_enabled: opts.redundant_uniform,
        serial_below: opts.serial_below,
        loop_comm: opts.loop_comm.iter().copied().collect(),
        pragma_loop_index: 0,
        relocated_arrays: local_plans
            .iter()
            .map(|p| match &p.choice {
                LocalArrayChoice::Register { .. } => p.array.clone(),
                LocalArrayChoice::Shared { .. } => format!("{}_sm", p.array),
                LocalArrayChoice::Global { param, .. } => param.clone(),
            })
            .collect(),
        types,
        redundant: if opts.redundant_uniform {
            // The master id is shared by every slave of a master, so it
            // seeds the uniform set; the slave id does not.
            redundant_scalars_seeded(&work.body, [MASTER_ID.to_string()].into_iter().collect())
        } else {
            BTreeSet::new()
        },
        available: [MASTER_ID.to_string(), SLAVE_ID.to_string()].into_iter().collect(),
        top_decls: Vec::new(),
        top_decl_names: BTreeSet::new(),
        out: Vec::new(),
        pending_guarded: Vec::new(),
        pending_guard: None,
        report: TransformReport {
            master_size: map.master_size,
            slave_size: map.slave_size,
            np_type: Some(opts.np_type),
            use_shfl,
            padded_loops,
            ..Default::default()
        },
        scan_counter: 0,
    };
    for p in &local_plans {
        if let LocalArrayChoice::Global { param, elems_per_block } = &p.choice {
            em.report.extra_global_buffers.push((param.clone(), *elems_per_block));
        }
    }
    em.report.local_arrays = local_plans;

    {
        let _obs = np_obs::span("transform.emit");
        walk(&mut em, &work.body, &None, &BTreeSet::new())?;
        em.flush_guarded();
    }

    let mut body = vec![
        Stmt::DeclScalar {
            name: MASTER_ID.into(),
            ty: Scalar::I32,
            init: Some(map.master_id_expr()),
        },
        Stmt::DeclScalar {
            name: SLAVE_ID.into(),
            ty: Scalar::I32,
            init: Some(map.slave_id_expr()),
        },
    ];
    body.append(&mut em.top_decls);
    body.append(&mut em.out);

    let out_kernel = Kernel {
        name: format!("{}_np", kernel.name),
        params: work.params,
        block_dim: map.block_dim(),
        body,
    };
    Ok(Transformed { kernel: out_kernel, report: em.report })
}

/// Walk a statement list under `guard`; `after` is the set of scalars read
/// by any code that executes after this list.
fn walk(
    em: &mut Emitter,
    stmts: &[Stmt],
    guard: &Option<Expr>,
    after: &BTreeSet<String>,
) -> Result<(), TransformError> {
    // Suffix read sets: suffix[i] = reads of stmts[i+1..] ∪ after.
    let mut suffix: Vec<BTreeSet<String>> = vec![after.clone(); stmts.len()];
    for i in (0..stmts.len().saturating_sub(1)).rev() {
        let mut s = suffix[i + 1].clone();
        s.extend(scalars_read(std::slice::from_ref(&stmts[i + 1])));
        suffix[i] = s;
    }

    for (i, s) in stmts.iter().enumerate() {
        let after_i = &suffix[i];
        match s {
            Stmt::For { pragma: Some(_), .. } => emit_parallel_loop(em, s, guard, after_i)?,
            Stmt::If { cond, then_body, else_body }
                if s.contains_pragma_loop() || s.contains_sync() =>
            {
                em.ensure_available(Emitter::expr_vars(cond));
                let then_guard = compose_guard(guard, cond.clone());
                let else_guard =
                    compose_guard(guard, Expr::Unary(UnOp::Not, Box::new(cond.clone())));
                walk(em, then_body, &then_guard, after_i)?;
                if !else_body.is_empty() {
                    walk(em, else_body, &else_guard, after_i)?;
                }
            }
            Stmt::For { var, init, bound, step, body, pragma: None }
                if s.contains_pragma_loop() || s.contains_sync() =>
            {
                // A sequential loop enclosing parallel sections runs on
                // every thread so barriers inside stay uniform.
                let mut deps = Emitter::expr_vars(init);
                deps.extend(Emitter::expr_vars(bound));
                deps.extend(Emitter::expr_vars(step));
                em.ensure_available(deps);
                em.flush_guarded();
                let mut body_after = after_i.clone();
                body_after.extend(scalars_read(body));
                let mut inner = Emitter {
                    out: Vec::new(),
                    pending_guarded: Vec::new(),
                    pending_guard: None,
                    top_decls: Vec::new(),
                    top_decl_names: em.top_decl_names.clone(),
                    types: em.types.clone(),
                    redundant: em.redundant.clone(),
                    available: em.available.clone(),
                    report: std::mem::take(&mut em.report),
                    map: em.map,
                    use_shfl: em.use_shfl,
                    redundant_enabled: em.redundant_enabled,
                    serial_below: em.serial_below,
                    loop_comm: em.loop_comm.clone(),
                    pragma_loop_index: em.pragma_loop_index,
                    relocated_arrays: em.relocated_arrays.clone(),
                    scan_counter: em.scan_counter,
                };
                walk(&mut inner, body, guard, &body_after)?;
                inner.flush_guarded();
                em.report = std::mem::take(&mut inner.report);
                em.pragma_loop_index = inner.pragma_loop_index;
                em.scan_counter = inner.scan_counter;
                em.available = inner.available;
                em.top_decl_names = inner.top_decl_names;
                for d in inner.top_decls {
                    em.top_decls.push(d);
                }
                em.available.insert(var.clone());
                em.out.push(Stmt::For {
                    var: var.clone(),
                    init: init.clone(),
                    bound: bound.clone(),
                    step: step.clone(),
                    body: inner.out,
                    pragma: None,
                });
            }
            Stmt::SyncThreads => em.emit_unguarded(Stmt::SyncThreads),
            Stmt::DeclArray { .. } => em.emit_unguarded(s.clone()),
            Stmt::DeclScalar { name, ty, init } => {
                em.types.insert(name.clone(), *ty);
                match init {
                    Some(_)
                        if em.redundant_enabled
                            && guard.is_none()
                            && em.redundant.contains(name) =>
                    {
                        em.emit_unguarded(s.clone());
                        em.available.insert(name.clone());
                        em.report.redundant.push(name.clone());
                    }
                    Some(e) => {
                        em.emit_unguarded(Stmt::DeclScalar {
                            name: name.clone(),
                            ty: *ty,
                            init: None,
                        });
                        em.emit_guarded(
                            guard,
                            Stmt::Assign { name: name.clone(), value: e.clone() },
                        );
                        em.available.remove(name);
                    }
                    None => em.emit_unguarded(s.clone()),
                }
            }
            Stmt::Assign { name, .. } => {
                if em.redundant_enabled && guard.is_none() && em.redundant.contains(name) {
                    em.emit_unguarded(s.clone());
                    em.available.insert(name.clone());
                    em.report.redundant.push(name.clone());
                } else {
                    em.emit_guarded(guard, s.clone());
                    em.available.remove(name);
                }
            }
            Stmt::Store { .. } => em.emit_guarded(guard, s.clone()),
            Stmt::If { .. } | Stmt::For { .. } => {
                // Plain sequential control flow without barriers or pragma
                // loops: master-only as a unit.
                for w in np_kernel_ir::analysis::scalars_written(std::slice::from_ref(s)) {
                    em.available.remove(&w);
                }
                em.emit_guarded(guard, s.clone());
            }
        }
    }
    Ok(())
}

/// Does any statement in `stmts` load or store one of `arrays`?
fn touches_arrays(stmts: &[Stmt], arrays: &BTreeSet<String>) -> bool {
    if arrays.is_empty() {
        return false;
    }
    let mut found = false;
    visit_stmts(stmts, &mut |s| {
        if let Stmt::Store { array, .. } = s {
            if arrays.contains(array) {
                found = true;
            }
        }
        for e in s.exprs() {
            e.visit(&mut |e| {
                if let Expr::Load { array, .. } = e {
                    if arrays.contains(array) {
                        found = true;
                    }
                }
            });
        }
    });
    found
}

fn compose_guard(guard: &Option<Expr>, cond: Expr) -> Option<Expr> {
    Some(match guard {
        Some(g) => land(g.clone(), cond),
        None => cond,
    })
}

fn emit_parallel_loop(
    em: &mut Emitter,
    s: &Stmt,
    guard: &Option<Expr>,
    after: &BTreeSet<String>,
) -> Result<(), TransformError> {
    let Stmt::For { var, init, bound, step, body, pragma: Some(pragma) } = s else {
        unreachable!()
    };
    if *step != Expr::ImmI32(1) {
        return Err(TransformError::NonCanonicalLoop(format!(
            "loop over {var:?} must have unit step"
        )));
    }
    if body.iter().any(Stmt::contains_pragma_loop) {
        return Err(TransformError::NonCanonicalLoop(format!(
            "nested `np parallel for` inside loop over {var:?} is not supported"
        )));
    }
    if np_kernel_ir::stmt::contains_sync(body) {
        return Err(TransformError::NonCanonicalLoop(format!(
            "`__syncthreads` inside parallel loop over {var:?}"
        )));
    }
    let loop_idx = em.pragma_loop_index;
    em.pragma_loop_index += 1;

    // Adaptive gating (cost-model-guided): a loop too short to amortize the
    // group communication runs serially on the master — the pragma is
    // stripped and the loop becomes ordinary master-only sequential code,
    // exactly like the plain control-flow arm of `walk`. Live-outs land in
    // master registers only, so everything the loop writes leaves the
    // slave-visible set (a later parallel loop re-broadcasts on demand).
    if let Some(threshold) = em.serial_below {
        if let Some(trip) = np_kernel_ir::analysis::static_trip_count(init, bound) {
            if trip < threshold && !touches_arrays(body, &em.relocated_arrays) {
                for w in np_kernel_ir::analysis::scalars_written(std::slice::from_ref(s)) {
                    em.available.remove(&w);
                }
                em.emit_guarded(
                    guard,
                    Stmt::For {
                        var: var.clone(),
                        init: init.clone(),
                        bound: bound.clone(),
                        step: step.clone(),
                        body: body.clone(),
                        pragma: None,
                    },
                );
                em.report.gated_loops.push((var.clone(), trip));
                return Ok(());
            }
        }
    }

    // The hybrid hook: this loop's broadcast/reduction/scan scheme may
    // deviate from the kernel-wide choice. Restored below; error paths
    // abort the whole transform, so they need no unwinding.
    let kernel_shfl = em.use_shfl;
    if let Some(&sh) = em.loop_comm.get(&loop_idx) {
        em.use_shfl = sh;
        em.report.comm_overrides.push((loop_idx, sh));
    }

    let s_count = em.map.slave_size;

    // Which scalars must reach the slaves?
    let special: BTreeSet<String> = pragma
        .reductions
        .iter()
        .chain(pragma.scans.iter())
        .map(|(_, n)| n.clone())
        .chain(pragma.select_out.iter().cloned())
        .collect();
    let mut live_in = live_in_of_loop(body, bound, var);
    live_in.extend(Emitter::expr_vars(init));
    live_in.extend(pragma.copy_in.iter().cloned());
    live_in.retain(|n| !special.contains(n));
    em.ensure_available(live_in);

    // Validate live-outs are all covered by clauses.
    let mut live_out = live_out_candidates(body, var);
    live_out.retain(|n| after.contains(n));
    for lo in &live_out {
        if !special.contains(lo) {
            return Err(TransformError::UnhandledLiveOut(lo.clone()));
        }
    }

    // Reduction variables: slaves start from the identity.
    for (op, rvar) in &pragma.reductions {
        let ty = em.ty_of(rvar);
        em.emit_unguarded(slave_identity_init(rvar, *op, ty));
    }
    // Select variables: everyone starts from zero; one iteration writes.
    for svar in &pragma.select_out {
        let ty = em.ty_of(svar);
        em.emit_unguarded(Stmt::Assign {
            name: svar.clone(),
            value: identity_expr(RedOp::Add, ty),
        });
    }

    let guarded_body = |body: Vec<Stmt>| -> Vec<Stmt> {
        match guard {
            Some(g) => vec![Stmt::If { cond: g.clone(), then_body: body, else_body: vec![] }],
            None => body,
        }
    };

    if pragma.scans.is_empty() {
        // Cyclic distribution (Figure 3b): i = init + slave_id; i += S.
        em.emit_unguarded(Stmt::For {
            var: var.clone(),
            init: init.clone() + v(SLAVE_ID),
            bound: bound.clone(),
            step: Expr::ImmI32(s_count as i32),
            body: guarded_body(body.clone()),
            pragma: None,
        });
    } else {
        emit_scan_loop(em, var, init, bound, body, pragma, guard)?;
    }

    // Collect live-outs.
    for (op, rvar) in &pragma.reductions {
        let ty = em.ty_of(rvar);
        let (decls, code) = reduce_var(&em.map, em.use_shfl, rvar, ty, *op);
        for d in decls {
            em.add_top_decl(d);
        }
        for c in code {
            em.emit_unguarded(c);
        }
        em.available.insert(rvar.clone());
        em.report.reductions.push((rvar.clone(), *op));
    }
    for svar in &pragma.select_out {
        let ty = em.ty_of(svar);
        let (decls, code) = reduce_var(&em.map, em.use_shfl, svar, ty, RedOp::Add);
        for d in decls {
            em.add_top_decl(d);
        }
        for c in code {
            em.emit_unguarded(c);
        }
        em.available.insert(svar.clone());
        em.report.selects.push(svar.clone());
    }
    // The iterator's exit value differs across slaves.
    em.available.remove(var);
    em.use_shfl = kernel_shfl;
    Ok(())
}

/// Blocked-distribution scan loop (three phases; see `crate::scan`).
#[allow(clippy::too_many_arguments)]
fn emit_scan_loop(
    em: &mut Emitter,
    var: &str,
    init: &Expr,
    bound: &Expr,
    body: &[Stmt],
    pragma: &NpPragma,
    guard: &Option<Expr>,
) -> Result<(), TransformError> {
    if *init != Expr::ImmI32(0) {
        return Err(TransformError::NonCanonicalLoop(format!(
            "scan loop over {var:?} must start at 0"
        )));
    }
    for (op, _) in &pragma.scans {
        if *op != RedOp::Add {
            return Err(TransformError::ScanNotSliceable(
                "only additive scans are supported".into(),
            ));
        }
    }
    let s_count = em.map.slave_size as i32;
    let id = em.scan_counter;
    em.scan_counter += 1;

    // chunk = ceil(bound / S)
    let chunk = format!("__np_chunk_{id}");
    em.emit_unguarded(Stmt::DeclScalar {
        name: chunk.clone(),
        ty: Scalar::I32,
        init: Some((bound.clone() + Expr::ImmI32(s_count - 1)) / Expr::ImmI32(s_count)),
    });
    let blk_init = v(SLAVE_ID) * v(&chunk);
    let blk_bound = min((v(SLAVE_ID) + Expr::ImmI32(1)) * v(&chunk), bound.clone());

    let guarded = |body: Vec<Stmt>, guard: &Option<Expr>| -> Vec<Stmt> {
        match guard {
            Some(g) => vec![Stmt::If { cond: g.clone(), then_body: body, else_body: vec![] }],
            None => body,
        }
    };

    for (_, svar) in &pragma.scans {
        let ty = em.ty_of(svar);
        let vars = scan_vars(svar);

        // Every thread needs the master's initial value of the scan var.
        em.ensure_available([svar.clone()]);
        let init_copy = format!("__np_scan_init_{svar}");
        em.emit_unguarded(Stmt::DeclScalar {
            name: init_copy.clone(),
            ty,
            init: Some(v(svar)),
        });

        // Phase 1: per-chunk totals via the sliced body.
        em.emit_unguarded(Stmt::DeclScalar {
            name: vars.total.clone(),
            ty,
            init: Some(identity_expr(RedOp::Add, ty)),
        });
        let slice = scan_slice(body, svar, &vars.total)?;
        em.emit_unguarded(Stmt::For {
            var: var.to_string(),
            init: blk_init.clone(),
            bound: blk_bound.clone(),
            step: Expr::ImmI32(1),
            body: guarded(slice, guard),
            pragma: None,
        });

        // Phase 2: exclusive scan of the totals across the group.
        let (decls, code) = exclusive_scan(&em.map, em.use_shfl, svar, ty);
        for d in decls {
            em.add_top_decl(d);
        }
        for c in code {
            em.emit_unguarded(c);
        }

        // Phase 3 setup: offset the scan variable for this chunk.
        em.emit_unguarded(Stmt::Assign {
            name: svar.clone(),
            value: combine_expr(RedOp::Add, v(&init_copy), v(&vars.offset)),
        });
        em.report.scans.push(svar.clone());
    }

    // The real loop over this slave's chunk.
    em.emit_unguarded(Stmt::For {
        var: var.to_string(),
        init: blk_init,
        bound: blk_bound,
        step: Expr::ImmI32(1),
        body: guarded(body.to_vec(), guard),
        pragma: None,
    });

    // After the loop every thread holds the grand total.
    for (_, svar) in &pragma.scans {
        let vars = scan_vars(svar);
        let init_copy = format!("__np_scan_init_{svar}");
        em.emit_unguarded(Stmt::Assign {
            name: svar.clone(),
            value: combine_expr(RedOp::Add, v(&init_copy), v(&vars.grand)),
        });
        em.available.insert(svar.clone());
    }

    Ok(())
}
