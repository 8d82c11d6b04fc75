//! Interpreter behaviour tests: divergence, nested control flow, type
//! system enforcement, barrier contracts, `__shfl` variants, constant /
//! texture paths, and grid geometry.

use np_exec::{launch, Args, SimOptions};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::expr::dsl::*;
use np_kernel_ir::types::Dim3;
use np_kernel_ir::{Kernel, KernelBuilder, Scalar};

fn dev() -> DeviceConfig {
    DeviceConfig::small_test()
}

fn run1(k: &Kernel, args: &mut Args) {
    launch(&dev(), k, Dim3::x1(1), args, &SimOptions::full()).unwrap();
}

#[test]
fn nested_divergence_resolves_per_lane() {
    // Four-way divergence: out = 2*q + (t%2) where q = t/8 parity tree.
    let mut b = KernelBuilder::new("nest", 32);
    b.param_global_f32("out");
    b.decl_i32("t", tidx());
    b.decl_i32("r", i(0));
    b.if_else(
        lt(v("t"), i(16)),
        |b| {
            b.if_else(
                lt(v("t") % i(2), i(1)),
                |b| b.assign("r", i(10)),
                |b| b.assign("r", i(11)),
            );
        },
        |b| {
            b.if_else(
                lt(v("t") % i(2), i(1)),
                |b| b.assign("r", i(20)),
                |b| b.assign("r", i(21)),
            );
        },
    );
    b.store("out", v("t"), cast(Scalar::F32, v("r")));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    run1(&k, &mut args);
    let out = args.get_f32("out").unwrap();
    for (t, &x) in out.iter().enumerate() {
        let expect = if t < 16 { 10 + t % 2 } else { 20 + t % 2 };
        assert_eq!(x, expect as f32, "lane {t}");
    }
}

#[test]
fn divergent_loop_trip_counts() {
    // Each lane loops t times: out[t] = t.
    let mut b = KernelBuilder::new("divloop", 32);
    b.param_global_f32("out");
    b.decl_i32("t", tidx());
    b.decl_f32("c", f(0.0));
    b.for_loop("i", i(0), v("t"), |b| {
        b.assign("c", v("c") + f(1.0));
    });
    b.store("out", v("t"), v("c"));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    run1(&k, &mut args);
    let out = args.get_f32("out").unwrap();
    for (t, &x) in out.iter().enumerate() {
        assert_eq!(x, t as f32);
    }
}

#[test]
fn loop_iterator_scoping_allows_reuse() {
    // The same iterator name in two sequential loops.
    let mut b = KernelBuilder::new("reuse", 32);
    b.param_global_f32("out");
    b.decl_f32("acc", f(0.0));
    b.for_loop("i", i(0), i(3), |b| b.assign("acc", v("acc") + f(1.0)));
    b.for_loop("i", i(0), i(5), |b| b.assign("acc", v("acc") + f(10.0)));
    b.store("out", tidx(), v("acc"));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    run1(&k, &mut args);
    assert!(args.get_f32("out").unwrap().iter().all(|&x| x == 53.0));
}

#[test]
fn shfl_up_down_and_xor_semantics() {
    let mut b = KernelBuilder::new("shfl3", 32);
    b.param_global_f32("up");
    b.param_global_f32("down");
    b.param_global_f32("xor");
    b.decl_f32("x", cast(Scalar::F32, tidx()));
    b.store("up", tidx(), shfl_up(v("x"), i(1), 8));
    b.store("down", tidx(), shfl_down(v("x"), i(2), 8));
    b.store("xor", tidx(), shfl_xor(v("x"), i(3), 8));
    let k = b.finish();
    let mut args = Args::new()
        .buf_f32("up", vec![0.0; 32])
        .buf_f32("down", vec![0.0; 32])
        .buf_f32("xor", vec![0.0; 32]);
    run1(&k, &mut args);
    let (up, down, xor) =
        (args.get_f32("up").unwrap(), args.get_f32("down").unwrap(), args.get_f32("xor").unwrap());
    for l in 0..32usize {
        let base = l / 8 * 8;
        // up: read lane l-1, clamped at the group base.
        let e_up = if l > base { l - 1 } else { l };
        // down: read lane l+2, clamped at the group end.
        let e_down = if l + 2 < base + 8 { l + 2 } else { l };
        let e_xor = l ^ 3; // stays in-group for mask 3 < 8
        assert_eq!(up[l], e_up as f32, "up lane {l}");
        assert_eq!(down[l], e_down as f32, "down lane {l}");
        assert_eq!(xor[l], e_xor as f32, "xor lane {l}");
    }
}

#[test]
fn constant_and_texture_params_read_correctly() {
    let mut b = KernelBuilder::new("ct", 32);
    b.param_const_f32("ctab");
    b.param_tex_f32("ttab");
    b.param_global_f32("out");
    b.store("out", tidx(), load("ctab", tidx() % i(4)) + load("ttab", tidx()));
    let k = b.finish();
    let mut args = Args::new()
        .buf_f32("ctab", vec![10.0, 20.0, 30.0, 40.0])
        .buf_f32("ttab", (0..32).map(|i| i as f32).collect())
        .buf_f32("out", vec![0.0; 32]);
    run1(&k, &mut args);
    let out = args.get_f32("out").unwrap();
    for (t, &x) in out.iter().enumerate() {
        assert_eq!(x, 10.0 * (t % 4 + 1) as f32 + t as f32);
    }
}

#[test]
fn stores_to_read_only_spaces_panic() {
    for make in [
        |b: &mut KernelBuilder| b.param_const_f32("ro"),
        |b: &mut KernelBuilder| b.param_tex_f32("ro"),
    ] {
        let mut b = KernelBuilder::new("wr", 32);
        make(&mut b);
        b.param_global_f32("out");
        b.store("ro", tidx(), f(1.0));
        b.store("out", tidx(), f(0.0));
        let k = b.finish();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut args = Args::new()
                .buf_f32("ro", vec![0.0; 32])
                .buf_f32("out", vec![0.0; 32]);
            run1(&k, &mut args);
        }));
        assert!(result.is_err(), "writing read-only memory must panic");
    }
}

#[test]
fn barrier_under_divergent_control_flow_panics() {
    let mut b = KernelBuilder::new("badbar", 64);
    b.param_global_f32("out");
    b.if_(lt(tidx(), i(10)), |b| b.sync());
    b.store("out", tidx(), f(1.0));
    let k = b.finish();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
        run1(&k, &mut args);
    }));
    let err = result.unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("divergent"), "got {msg:?}");
}

#[test]
fn uniform_conditional_barrier_is_allowed() {
    // Block-uniform condition around a barrier is legal.
    let mut b = KernelBuilder::new("okbar", 64);
    b.param_global_f32("out");
    b.param_scalar_i32("flag");
    b.shared_array("tile", Scalar::F32, 64);
    b.store("tile", tidx(), cast(Scalar::F32, tidx()));
    b.if_(gt(p("flag"), i(0)), |b| {
        b.sync();
        b.store("out", tidx(), load("tile", i(63) - tidx()));
    });
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]).i32("flag", 1);
    run1(&k, &mut args);
    assert_eq!(args.get_f32("out").unwrap()[0], 63.0);
    // And the false branch runs no stores.
    let mut args = Args::new().buf_f32("out", vec![-1.0; 64]).i32("flag", 0);
    run1(&k, &mut args);
    assert!(args.get_f32("out").unwrap().iter().all(|&x| x == -1.0));
}

#[test]
fn integer_and_unsigned_arithmetic() {
    let mut b = KernelBuilder::new("ints", 32);
    b.param_global_i32("out");
    b.decl_i32("t", tidx());
    b.decl_i32("a", v("t") * i(-3) + i(100));
    b.decl_i32("s", shl(i(1), v("t") % i(8)));
    b.decl(
        "u",
        Scalar::U32,
        cast(Scalar::U32, v("t")) + u(1_000_000),
    );
    b.store("out", v("t"), v("a") % i(7) + v("s") + cast(Scalar::I32, v("u") % u(97)));
    let k = b.finish();
    let mut args = Args::new().buf_i32("out", vec![0; 32]);
    run1(&k, &mut args);
    let out = args.get_i32("out").unwrap();
    for t in 0..32i32 {
        let a = t * -3 + 100;
        let s = 1 << (t % 8);
        let u = (t as u32 + 1_000_000) % 97;
        assert_eq!(out[t as usize], a % 7 + s + u as i32, "lane {t}");
    }
}

#[test]
fn multi_block_grids_use_block_indices() {
    let mut b = KernelBuilder::new("grid", 32);
    b.param_global_f32("out");
    b.store(
        "out",
        tidx() + bidx() * bdimx(),
        cast(Scalar::F32, bidx() * i(1000) + tidx()),
    );
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 4 * 32]);
    launch(&dev(), &k, Dim3::x1(4), &mut args, &SimOptions::full()).unwrap();
    let out = args.get_f32("out").unwrap();
    for blk in 0..4 {
        for t in 0..32 {
            assert_eq!(out[blk * 32 + t], (blk * 1000 + t) as f32);
        }
    }
}

#[test]
fn partial_warp_blocks_only_run_real_threads() {
    // 40-thread blocks: lanes 8..32 of warp 1 must not store.
    let mut b = KernelBuilder::new("ragged", 40);
    b.param_global_f32("out");
    b.store("out", tidx(), f(1.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    run1(&k, &mut args);
    let out = args.get_f32("out").unwrap();
    assert!(out[..40].iter().all(|&x| x == 1.0));
    assert!(out[40..].iter().all(|&x| x == 0.0));
}

#[test]
fn select_is_evaluated_without_divergence_cost() {
    // Functional check: both arms evaluated, condition picks per lane.
    let mut b = KernelBuilder::new("sel", 32);
    b.param_global_f32("out");
    b.decl_i32("t", tidx());
    b.store(
        "out",
        v("t"),
        select(eq(v("t") % i(3), i(0)), cast(Scalar::F32, v("t")), f(-1.0)),
    );
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    run1(&k, &mut args);
    let out = args.get_f32("out").unwrap();
    for (t, &x) in out.iter().enumerate() {
        let expect = if t % 3 == 0 { t as f32 } else { -1.0 };
        assert_eq!(x, expect);
    }
}

/// The watchdog's step count, by hand: one step per warp statement, one
/// per warp-level loop test, one per block-level statement and one per
/// block-level loop test. 64 threads = 2 warps, one block.
#[test]
fn steps_count_warp_and_block_level_statements_exactly() {
    let mut b = KernelBuilder::new("steps", 64);
    b.param_global_f32("out");
    b.decl_i32("t", tidx()); // 2 warps x 1 = 2
    b.decl_f32("acc", f(0.0)); // 2
    // Block-level uniform loop holding a barrier: 3 tests (k = 0, 1, 2).
    b.for_loop("k", i(0), i(2), |b| {
        // Per warp and outer trip: 1 statement + 3 tests (lanes with
        // t % 3 == 2 run twice) + 2 body statements = 6, so 12 for both
        // warps.
        b.for_loop("j", i(0), v("t") % i(3), |b| {
            b.assign("acc", v("acc") + f(1.0));
        });
        b.sync(); // 1
    });
    b.store("out", v("t"), v("acc")); // 2
    let k = b.finish();
    // 2 + 2 + 3 + 2 x (12 + 1) + 2
    let steps = 35;

    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let opts = SimOptions::full().with_watchdog(Some(steps));
    launch(&dev(), &k, Dim3::x1(1), &mut args, &opts).expect("exact budget passes");
    for (t, &x) in args.get_f32("out").unwrap().iter().enumerate() {
        assert_eq!(x, (2 * (t % 3)) as f32, "thread {t}");
    }
    let (_, cap) = np_exec::capture_launch(&dev(), &k, Dim3::x1(1), &mut args, &opts).unwrap();
    assert_eq!(cap.total_steps, steps);

    let tight = SimOptions::full().with_watchdog(Some(steps - 1));
    let err = launch(&dev(), &k, Dim3::x1(1), &mut args, &tight).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("kernel fault: watchdog timeout in kernel \"steps\": exceeded {} interpreted steps \
                 (infinite loop?)", steps - 1)
    );
}

#[test]
fn math_intrinsics_match_std() {
    let mut b = KernelBuilder::new("math", 32);
    b.param_global_f32("out");
    b.decl_f32("x", cast(Scalar::F32, tidx()) * f(0.25) + f(0.1));
    b.store(
        "out",
        tidx(),
        sqrt(v("x")) + exp(-v("x")) + log(v("x") + f(1.0)) + abs(-v("x")),
    );
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    run1(&k, &mut args);
    let out = args.get_f32("out").unwrap();
    for (t, &got) in out.iter().enumerate() {
        let x = t as f32 * 0.25 + 0.1;
        let expect = x.sqrt() + (-x).exp() + (x + 1.0).ln() + x;
        assert!((got - expect).abs() < 1e-5, "lane {t}: {got} vs {expect}");
    }
}
