//! The sanitizer's fault matrix: every detection path in the interpreter
//! must surface as a typed [`SimFault`] through `Err(ExecError::Fault(_))`
//! — never a panic — with the warp/lane context the detection site had.
//!
//! Paths covered: out-of-bounds reads *and* writes in global, shared and
//! local memory; shared-memory races under the fatal race checker;
//! barriers under divergent control flow (within a warp and across warps);
//! undeclared scalars, including a register no lane of the warp assigned;
//! ill-typed stores; ill-typed arithmetic and integer division by zero,
//! which fault only when an active lane reaches them; invalid `__shfl`
//! widths; watchdog timeouts on runaway kernels; and one seeded
//! fault-injection run per memory space.

use np_exec::{
    launch, Args, ExecError, FaultKind, KernelReport, RaceCheckMode, SimFault, SimOptions,
};
use np_gpu_sim::mem::inject::{InjectConfig, InjectSpace};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::expr::dsl::*;
use np_kernel_ir::types::MemSpace;
use np_kernel_ir::{Dim3, KernelBuilder, Scalar};

/// Unwrap a launch result into the fault it must carry.
fn fault_of(res: Result<KernelReport, ExecError>) -> SimFault {
    match res {
        Err(ExecError::Fault(f)) => *f,
        Ok(_) => panic!("kernel must fault, but ran to completion"),
        Err(other) => panic!("expected a sanitizer fault, got setup error: {other}"),
    }
}

fn dev() -> DeviceConfig {
    DeviceConfig::small_test()
}

// ---------------------------------------------------------------- OOB ---

#[test]
fn oob_global_read() {
    let mut b = KernelBuilder::new("oobgr", 32);
    b.param_global_f32("a");
    b.param_global_f32("out");
    b.store("out", tidx(), load("a", tidx() + i(100)));
    let k = b.finish();
    let mut args = Args::new().buf_f32("a", vec![0.0; 32]).buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.kernel, "oobgr");
    assert_eq!(f.warp, Some(0));
    assert_eq!(f.lane, Some(0), "lane 0 reads a[100] first");
    match f.kind {
        FaultKind::OutOfBounds { space, ref array, index, len, write } => {
            assert_eq!(space, MemSpace::Global);
            assert_eq!(array, "a");
            assert_eq!(index, 100);
            assert_eq!(len, 32);
            assert!(!write);
        }
        ref other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn oob_global_write() {
    let mut b = KernelBuilder::new("oobgw", 32);
    b.param_global_f32("out");
    b.store("out", tidx() + i(50), f(1.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!((f.warp, f.lane), (Some(0), Some(0)));
    match f.kind {
        FaultKind::OutOfBounds { space, index, len, write, .. } => {
            assert_eq!(space, MemSpace::Global);
            assert_eq!(index, 50);
            assert_eq!(len, 32);
            assert!(write);
        }
        ref other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn oob_shared_read() {
    let mut b = KernelBuilder::new("oobsr", 32);
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, 32);
    b.store("tile", tidx(), f(0.0));
    b.store("out", tidx(), load("tile", i(99)));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!((f.warp, f.lane), (Some(0), Some(0)));
    match f.kind {
        FaultKind::OutOfBounds { space, ref array, index, len, write } => {
            assert_eq!(space, MemSpace::Shared);
            assert_eq!(array, "tile");
            assert_eq!((index, len), (99, 32));
            assert!(!write);
        }
        ref other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn oob_shared_write() {
    let mut b = KernelBuilder::new("oobsw", 32);
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, 32);
    b.store("tile", tidx() + i(10), f(1.0));
    b.store("out", tidx(), load("tile", tidx()));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.warp, Some(0));
    assert_eq!(f.lane, Some(22), "lane 22 is the first with tidx + 10 >= 32");
    match f.kind {
        FaultKind::OutOfBounds { space, index, write, .. } => {
            assert_eq!(space, MemSpace::Shared);
            assert_eq!(index, 32);
            assert!(write);
        }
        ref other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn oob_local_read() {
    let mut b = KernelBuilder::new("ooblr", 32);
    b.param_global_f32("out");
    b.local_array("buf", Scalar::F32, 8);
    b.store("buf", i(0), f(1.0));
    b.store("out", tidx(), load("buf", i(8)));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!((f.warp, f.lane), (Some(0), Some(0)));
    match f.kind {
        FaultKind::OutOfBounds { space, ref array, index, len, write } => {
            assert_eq!(space, MemSpace::Local);
            assert_eq!(array, "buf");
            assert_eq!((index, len), (8, 8));
            assert!(!write);
        }
        ref other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn oob_local_write_negative_index() {
    let mut b = KernelBuilder::new("ooblw", 32);
    b.param_global_f32("out");
    b.local_array("buf", Scalar::F32, 8);
    b.store("buf", i(-1), f(1.0));
    b.store("out", tidx(), load("buf", i(0)));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!((f.warp, f.lane), (Some(0), Some(0)));
    match f.kind {
        FaultKind::OutOfBounds { space, index, write, .. } => {
            assert_eq!(space, MemSpace::Local);
            assert_eq!(index, -1, "negative indices are reported as-is");
            assert!(write);
        }
        ref other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

// -------------------------------------------------------------- races ---

#[test]
fn shared_memory_race_is_typed_and_cross_warp() {
    let mut b = KernelBuilder::new("racy", 64);
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, 64);
    b.store("tile", tidx(), cast(Scalar::F32, tidx()));
    // Missing __syncthreads(): warp 1 reads words warp 0 wrote.
    b.store("out", tidx(), load("tile", i(63) - tidx()));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let opts = SimOptions::full().with_race_check(RaceCheckMode::Fatal);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &opts));
    assert_eq!(f.kernel, "racy");
    match f.kind {
        FaultKind::RaceDetected { ref detail } => {
            // Thread 0 (warp 0) reads the word thread 63 (warp 1) wrote.
            let race = "read-write race on shared tile[63]";
            for needle in [race, "thread 63 write", "thread 0 read"] {
                assert!(detail.contains(needle), "{detail:?} missing {needle:?}");
            }
            assert_eq!(
                (f.warp, f.lane),
                (Some(0), Some(0)),
                "fault is attributed to the second accessor"
            );
        }
        ref other => panic!("expected RaceDetected, got {other:?}"),
    }
}

// ----------------------------------------------------------- barriers ---

#[test]
fn barrier_under_intra_warp_divergence() {
    let mut b = KernelBuilder::new("bardiv", 32);
    b.param_global_f32("out");
    b.if_(lt(tidx(), i(16)), |b| b.sync());
    b.store("out", tidx(), f(1.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.warp, Some(0));
    match f.kind {
        FaultKind::BarrierDivergence { ref detail } => {
            assert!(detail.contains("not warp-uniform"), "{detail}");
        }
        ref other => panic!("expected BarrierDivergence, got {other:?}"),
    }
}

#[test]
fn barrier_under_cross_warp_divergence() {
    // Each warp is internally uniform, but warp 0 takes the branch and
    // warp 1 does not — the whole block must agree around a barrier.
    let mut b = KernelBuilder::new("bardiv2", 64);
    b.param_global_f32("out");
    b.if_(lt(tidx(), i(32)), |b| b.sync());
    b.store("out", tidx(), f(1.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.warp, Some(1), "the disagreeing warp is reported");
    match f.kind {
        FaultKind::BarrierDivergence { ref detail } => {
            assert!(detail.contains("across warps"), "{detail}");
        }
        ref other => panic!("expected BarrierDivergence, got {other:?}"),
    }
}

// -------------------------------------------------- names and typing ---

#[test]
fn undeclared_scalar() {
    let mut b = KernelBuilder::new("undeclared", 32);
    b.param_global_f32("out");
    b.store("out", tidx(), v("nope"));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.warp, Some(0));
    assert!(matches!(f.kind, FaultKind::UndeclaredName { ref name } if name == "nope"));
    assert!(f.context.as_deref().unwrap_or("").contains("undeclared"));
}

#[test]
fn undeclared_array() {
    let mut b = KernelBuilder::new("noarray", 32);
    b.param_global_f32("out");
    b.store("out", tidx(), load("ghost", tidx()));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert!(matches!(f.kind, FaultKind::UndeclaredName { ref name } if name == "ghost"));
}

#[test]
fn ill_typed_store() {
    let mut b = KernelBuilder::new("illstore", 32);
    b.param_global_f32("out");
    b.store("out", tidx(), i(1)); // i32 value into an f32 buffer
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.warp, Some(0));
    assert!(matches!(f.kind, FaultKind::IllTyped { .. }), "{:?}", f.kind);
}

/// Type checks run per executed operation: an ill-typed `f32 + i32` that
/// no lane reaches is never checked, and one that some lane reaches
/// faults at its warp with no lane attached.
#[test]
fn ill_typed_arithmetic_faults_only_where_a_lane_runs_it() {
    let kernel = |name: &str, cond: np_kernel_ir::expr::Expr| {
        let mut b = KernelBuilder::new(name, 64);
        b.param_global_f32("out");
        b.if_(cond, |b| b.store("out", tidx(), f(1.0) + i(1)));
        b.store("out", tidx(), f(2.0));
        b.finish()
    };
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let k = kernel("untaken", lt(tidx(), i(0)));
    launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full())
        .expect("an ill-typed expression no lane reaches does not fault");
    assert!(args.get_f32("out").unwrap().iter().all(|&x| x == 2.0));

    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let k = kernel("taken", ge(tidx(), i(40)));
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(
        f.to_string(),
        "ill-typed in kernel \"taken\", warp 1: type mismatch in binary Add: F32 vs I32 \
         (insert an explicit Cast)"
    );
}

/// Division is checked lane by lane under the active mask: a zero divisor
/// in a masked-off lane is harmless, in an active lane it faults there.
#[test]
fn integer_division_by_zero_faults_only_in_an_active_lane() {
    let mut b = KernelBuilder::new("maskdiv", 32);
    b.param_global_i32("out");
    b.decl_i32("d", tidx() - i(5));
    b.if_(ne(v("d"), i(0)), |b| b.store("out", tidx(), i(100) / v("d")));
    let k = b.finish();
    let mut args = Args::new().buf_i32("out", vec![-1; 32]);
    launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full())
        .expect("the zero divisor sits in a masked-off lane");
    let out = args.get_i32("out").unwrap();
    for (t, &x) in out.iter().enumerate() {
        let expect = if t == 5 { -1 } else { 100 / (t as i32 - 5) };
        assert_eq!(x, expect, "lane {t}");
    }

    let mut b = KernelBuilder::new("div0", 64);
    b.param_global_i32("out");
    b.store("out", tidx(), i(100) / (tidx() - i(37)));
    let k = b.finish();
    let mut args = Args::new().buf_i32("out", vec![0; 64]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(
        f.to_string(),
        "invalid operation in kernel \"div0\", warp 1, lane 5: integer division by zero"
    );
}

/// Registers are per warp and come into existence at their first
/// assignment: a warp none of whose lanes assigned `x` faults reading it,
/// even though another warp did assign it.
#[test]
fn register_read_before_any_lane_assigns_it_is_undeclared() {
    let mut b = KernelBuilder::new("unassigned", 64);
    b.param_global_f32("out");
    b.if_(lt(tidx(), i(32)), |b| b.assign("x", f(1.0)));
    b.store("out", tidx(), v("x"));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(
        f.to_string(),
        "undeclared name in kernel \"unassigned\", warp 1: \"x\" [use of undeclared scalar]"
    );
    assert!(args.get_f32("out").unwrap()[..32].iter().all(|&x| x == 1.0), "warp 0 stored");
}

#[test]
fn invalid_shfl_width() {
    let mut b = KernelBuilder::new("badshfl", 32);
    b.param_global_f32("out");
    b.decl_f32("x", cast(Scalar::F32, tidx()));
    b.assign("x", shfl(v("x"), i(0), 7)); // 7 is not a power of two
    b.store("out", tidx(), v("x"));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    assert_eq!(f.warp, Some(0));
    assert!(matches!(f.kind, FaultKind::InvalidOperation { .. }), "{:?}", f.kind);
}

// ----------------------------------------------------------- watchdog ---

/// A loop that resets its own induction variable never terminates; the
/// watchdog must convert it into a typed fault instead of hanging.
fn infinite_kernel() -> np_kernel_ir::Kernel {
    let mut b = KernelBuilder::new("spin", 32);
    b.param_global_f32("out");
    b.for_loop("i", i(0), i(10), |b| {
        b.assign("i", i(0));
    });
    b.store("out", tidx(), f(1.0));
    b.finish()
}

#[test]
fn watchdog_catches_infinite_loop() {
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let opts = SimOptions::full().with_watchdog(Some(10_000));
    let f = fault_of(launch(&dev(), &infinite_kernel(), Dim3::x1(1), &mut args, &opts));
    assert_eq!(f.kernel, "spin");
    assert!(matches!(f.kind, FaultKind::Watchdog { limit: 10_000 }), "{:?}", f.kind);
    // Buffers survive the fault.
    assert_eq!(args.get_f32("out").unwrap().len(), 32);
}

#[test]
fn watchdog_budget_spares_terminating_kernels() {
    let mut b = KernelBuilder::new("longloop", 32);
    b.param_global_f32("out");
    b.decl_f32("acc", f(0.0));
    b.for_loop("i", i(0), i(2000), |b| {
        b.assign("acc", v("acc") + f(1.0));
    });
    b.store("out", tidx(), v("acc"));
    let k = b.finish();
    // Generous budget: runs clean.
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full().with_watchdog(Some(1 << 20)))
        .expect("terminates well inside the budget");
    assert_eq!(args.get_f32("out").unwrap()[0], 2000.0);
    // Starved budget: same kernel becomes a watchdog fault.
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let f = fault_of(launch(
        &dev(),
        &k,
        Dim3::x1(1),
        &mut args,
        &SimOptions::full().with_watchdog(Some(100)),
    ));
    assert!(matches!(f.kind, FaultKind::Watchdog { limit: 100 }));
}

// ----------------------------------------------------------- deadline ---

#[test]
fn expired_deadline_frees_a_stuck_launch_with_a_typed_fault() {
    // Watchdog disarmed: only the wall-clock deadline can stop the spin.
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let opts = SimOptions::full().with_watchdog(None).with_deadline_ms(0);
    let f = fault_of(launch(&dev(), &infinite_kernel(), Dim3::x1(1), &mut args, &opts));
    assert_eq!(f.kernel, "spin");
    assert!(matches!(f.kind, FaultKind::Deadline { budget_ms: 0 }), "{:?}", f.kind);
    assert!(f.kind.transient(), "deadlines must classify as retryable");
    // Buffers survive the fault, as with every other kind.
    assert_eq!(args.get_f32("out").unwrap().len(), 32);
}

#[test]
fn generous_deadline_spares_terminating_kernels() {
    let mut b = KernelBuilder::new("quick", 32);
    b.param_global_f32("out");
    b.store("out", tidx(), f(3.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let opts = SimOptions::full().with_deadline_ms(60_000);
    launch(&dev(), &k, Dim3::x1(1), &mut args, &opts).expect("finishes well inside a minute");
    assert_eq!(args.get_f32("out").unwrap()[0], 3.0);
}

#[test]
fn deadline_beats_watchdog_when_both_would_fire() {
    // An expired deadline is noticed at the first check boundary even
    // though the (huge) step budget would eventually fire too.
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let opts = SimOptions::full().with_watchdog(Some(u64::MAX)).with_deadline_ms(0);
    let f = fault_of(launch(&dev(), &infinite_kernel(), Dim3::x1(1), &mut args, &opts));
    assert!(matches!(f.kind, FaultKind::Deadline { .. }), "{:?}", f.kind);
}

#[test]
fn watchdog_default_is_armed() {
    assert_eq!(
        SimOptions::default().watchdog_steps,
        Some(np_exec::DEFAULT_WATCHDOG_STEPS),
        "runaway kernels must be caught out of the box"
    );
}

// ---------------------------------------------------- fault injection ---

/// A kernel that reads each space: global a -> local buf -> shared tile ->
/// global out. The forced-fault injector targets one space at a time.
fn staged_copy_kernel() -> np_kernel_ir::Kernel {
    let mut b = KernelBuilder::new("staged", 32);
    b.param_global_f32("a");
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, 32);
    b.local_array("buf", Scalar::F32, 1);
    b.store("buf", i(0), load("a", tidx()));
    b.store("tile", tidx(), load("buf", i(0)));
    b.store("out", tidx(), load("tile", tidx()));
    b.finish()
}

fn injected_fault(space: InjectSpace) -> SimFault {
    let mut args =
        Args::new().buf_f32("a", vec![1.0; 32]).buf_f32("out", vec![0.0; 32]);
    // Rate 1 forces a fault on the first targeted access: deterministic.
    let opts = SimOptions::full().with_injection(InjectConfig::forced(0xF00D, 1, space));
    fault_of(launch(&dev(), &staged_copy_kernel(), Dim3::x1(1), &mut args, &opts))
}

#[test]
fn forced_injection_global() {
    let f = injected_fault(InjectSpace::Global);
    assert_eq!(f.warp, Some(0));
    assert!(f.lane.is_some());
    assert!(f.context.as_deref().unwrap_or("").contains("load"));
    assert!(
        matches!(f.kind, FaultKind::Injected { space: InjectSpace::Global, .. }),
        "{:?}",
        f.kind
    );
}

#[test]
fn forced_injection_shared() {
    let f = injected_fault(InjectSpace::Shared);
    assert_eq!(f.warp, Some(0));
    assert!(f.lane.is_some());
    assert!(
        matches!(f.kind, FaultKind::Injected { space: InjectSpace::Shared, .. }),
        "{:?}",
        f.kind
    );
}

#[test]
fn forced_injection_local() {
    let f = injected_fault(InjectSpace::Local);
    assert_eq!(f.warp, Some(0));
    assert!(f.lane.is_some());
    assert!(
        matches!(f.kind, FaultKind::Injected { space: InjectSpace::Local, .. }),
        "{:?}",
        f.kind
    );
}

#[test]
fn bitflips_corrupt_silently_and_deterministically() {
    let run = |seed: u64| -> Vec<f32> {
        let mut args =
            Args::new().buf_f32("a", vec![1.0; 32]).buf_f32("out", vec![0.0; 32]);
        let opts = SimOptions::full().with_injection(InjectConfig::bitflips(seed, 1));
        launch(&dev(), &staged_copy_kernel(), Dim3::x1(1), &mut args, &opts)
            .expect("bit flips corrupt data but never fault");
        args.get_f32("out").unwrap().to_vec()
    };
    let flipped = run(0xBEEF);
    assert_ne!(flipped, vec![1.0; 32], "rate-1 flips must corrupt the copy");
    assert_eq!(
        flipped.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        run(0xBEEF).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "same seed, same corruption"
    );
}

// ------------------------------------------------- faults are values ---

/// Faults convert into `ExecError` and expose `std::error::Error` sources,
/// so downstream callers can use `?` and error-chain reporting.
#[test]
fn faults_are_ordinary_errors() {
    use std::error::Error as _;
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let mut b = KernelBuilder::new("oob", 32);
    b.param_global_f32("out");
    b.store("out", i(999), f(0.0));
    let k = b.finish();
    let err = launch(&dev(), &k, Dim3::x1(1), &mut args, &SimOptions::full()).unwrap_err();
    assert!(err.fault().is_some());
    let src = err.source().expect("ExecError::Fault chains to the SimFault");
    assert!(src.to_string().contains("out-of-bounds"), "{src}");
}
