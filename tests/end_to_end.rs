//! Cross-crate integration tests: every Table-1 workload runs through the
//! whole stack (IR → transform → interpreter → timing engine) and must
//! match its CPU reference, baseline and transformed alike.

use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{transform, NpOptions, TunePolicy};
use np_exec::{launch, RaceCheckMode, SimOptions};
use np_gpu_sim::DeviceConfig;
use np_workloads::{all_workloads, assert_close, Scale};

#[test]
fn every_workload_baseline_matches_its_reference() {
    let dev = DeviceConfig::gtx680();
    for w in all_workloads(Scale::Test) {
        let mut args = w.make_args();
        launch(&dev, &w.kernel(), w.grid(), &mut args, &w.sim_options())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_close(
            &w.reference(),
            args.get_f32(w.output_name()).unwrap(),
            w.tolerance(),
            w.name(),
        );
    }
}

#[test]
fn every_workload_transforms_and_stays_correct() {
    let dev = DeviceConfig::gtx680();
    for w in all_workloads(Scale::Test) {
        for opts in [NpOptions::inter(4), NpOptions::intra(4)] {
            let t = transform(&w.kernel(), &opts)
                .unwrap_or_else(|e| panic!("{} {:?}: {e}", w.name(), opts.np_type));
            let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
            launch(&dev, &t.kernel, w.grid(), &mut args, &w.sim_options())
                .unwrap_or_else(|e| panic!("{} {:?}: {e}", w.name(), opts.np_type));
            assert_close(
                &w.reference(),
                args.get_f32(w.output_name()).unwrap(),
                w.tolerance().max(1e-3),
                &format!("{} {:?}", w.name(), opts.np_type),
            );
        }
    }
}

#[test]
fn autotuner_only_returns_correct_and_faster_or_equal_versions() {
    let dev = DeviceConfig::gtx680();
    for w in all_workloads(Scale::Test) {
        let kernel = w.kernel();
        let grid = w.grid();
        let candidates = default_candidates(kernel.block_dim.x, 1024);
        let tuned = autotune_with_policy(
            &kernel,
            &dev,
            grid,
            &|t| alloc_extra_buffers(w.make_args(), t, grid),
            &w.sim_options(),
            &candidates,
            TunePolicy::Exhaustive,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
        .result;
        // The winner must be the min over all successful entries.
        let min = tuned
            .entries
            .iter()
            .filter_map(|e| e.cycles())
            .min()
            .expect("at least one candidate succeeded");
        assert_eq!(tuned.best_report.cycles, min, "{}", w.name());
        // And functionally correct.
        let mut args = alloc_extra_buffers(w.make_args(), &tuned.best, grid);
        launch(&dev, &tuned.best.kernel, grid, &mut args, &w.sim_options()).unwrap();
        assert_close(
            &w.reference(),
            args.get_f32(w.output_name()).unwrap(),
            w.tolerance().max(1e-3),
            w.name(),
        );
    }
}

#[test]
fn flatten_preprocessor_composes_with_transform() {
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::{Dim3, KernelBuilder};

    // A 2-D-block kernel (16x2) whose flattened form is then transformed.
    let mut b = KernelBuilder::new("twod", 16);
    b.param_global_f32("src");
    b.param_global_f32("out");
    b.decl_f32("acc", f(0.0));
    b.decl_i32("t", tidy() * i(16) + tidx() + bidx() * i(32));
    b.pragma_for("np parallel for reduction(+:acc)", "j", i(0), i(64), |b| {
        b.assign("acc", v("acc") + load("src", v("t") * i(64) + v("j")));
    });
    b.store("out", v("t"), v("acc"));
    let mut k = b.finish();
    k.block_dim = Dim3::xy(16, 2);

    let dev = DeviceConfig::gtx680();
    let n = 64usize;
    let src: Vec<f32> = (0..n * 64).map(|i| (i % 13) as f32).collect();
    let expect: Vec<f32> = (0..n)
        .map(|t| (0..64).map(|j| src[t * 64 + j]).sum())
        .collect();

    // Multi-dimensional inputs are rejected until flattened.
    assert!(matches!(
        transform(&k, &NpOptions::inter(4)),
        Err(cuda_np::TransformError::MultiDimInput)
    ));

    cuda_np::preprocess::flatten_block(&mut k);
    let t = transform(&k, &NpOptions::inter(4)).unwrap();
    let mut args = np_exec::Args::new()
        .buf_f32("src", src)
        .buf_f32("out", vec![0.0; n]);
    launch(&dev, &t.kernel, Dim3::x1(2), &mut args, &SimOptions::full()).unwrap();
    assert_close(&expect, args.get_f32("out").unwrap(), 1e-4, "flatten+transform");
}

#[test]
fn unroll_preprocessor_composes_with_transform() {
    use np_kernel_ir::expr::dsl::*;
    use np_kernel_ir::{Dim3, KernelBuilder};

    // Hand-unrolled gather re-rolled into a loop, then parallelized.
    let mut b = KernelBuilder::new("unrolled", 32);
    b.param_global_f32("src");
    b.param_global_f32("out");
    b.decl_f32("acc", f(0.0));
    for idx in [3, 8, 21, 44, 45, 59, 60, 61] {
        b.assign("acc", v("acc") + load("src", tidx() * i(64) + i(idx)));
    }
    b.store("out", tidx(), v("acc"));
    let mut k = b.finish();

    let tables = cuda_np::preprocess::recombine_unrolled(&mut k, 4);
    assert_eq!(tables.len(), 1);
    // Attach a pragma to the recombined loop so it can be parallelized.
    for s in &mut k.body {
        if let np_kernel_ir::Stmt::For { pragma, .. } = s {
            *pragma = Some(
                np_kernel_ir::NpPragma::parse("np parallel for reduction(+:acc)").unwrap(),
            );
        }
    }
    let t = transform(&k, &NpOptions::inter(4)).unwrap();

    let dev = DeviceConfig::gtx680();
    let src: Vec<f32> = (0..32 * 64).map(|i| (i % 7) as f32).collect();
    let expect: Vec<f32> = (0..32)
        .map(|t| [3, 8, 21, 44, 45, 59, 60, 61].iter().map(|&x| src[t * 64 + x]).sum())
        .collect();
    let mut args = np_exec::Args::new()
        .buf_f32("src", src)
        .buf_f32("out", vec![0.0; 32]);
    for tab in &tables {
        args = args.buf_i32(&tab.name, tab.values.clone());
    }
    launch(&dev, &t.kernel, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap();
    assert_close(&expect, args.get_f32("out").unwrap(), 1e-4, "unroll+transform");
}

#[test]
fn pre_kepler_target_never_emits_shfl() {
    use np_kernel_ir::stmt::visit_stmts;
    for w in all_workloads(Scale::Test) {
        let mut opts = NpOptions::intra(4);
        opts.sm_version = 20; // Fermi: no __shfl
        let t = match transform(&w.kernel(), &opts) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let mut has_shfl = false;
        visit_stmts(&t.kernel.body, &mut |s| {
            for e in s.exprs() {
                e.visit(&mut |e| {
                    if matches!(e, np_kernel_ir::Expr::Shfl { .. }) {
                        has_shfl = true;
                    }
                });
            }
        });
        assert!(!has_shfl, "{}: sm_20 target used __shfl", w.name());
    }
}

/// Every transformed workload kernel runs to completion under the fatal
/// race checker — a strong check that the transform inserts the barriers
/// its shared-memory communication requires.
#[test]
fn transformed_kernels_are_race_free() {
    let dev = DeviceConfig::gtx680();
    for w in all_workloads(Scale::Test) {
        for opts in [NpOptions::inter(4), NpOptions::intra(4)] {
            let Ok(t) = transform(&w.kernel(), &opts) else { continue };
            let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
            let sim = w.sim_options().with_race_check(RaceCheckMode::Fatal);
            launch(&dev, &t.kernel, w.grid(), &mut args, &sim)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }
}
