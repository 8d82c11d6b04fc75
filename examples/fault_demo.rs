//! Sanitizer tour: run three deliberately broken kernels and one healthy
//! kernel under fault injection, and show that every contract violation
//! comes back as a typed [`np_exec::SimFault`] — never a panic.
//!
//! ```text
//! cargo run --release --example fault_demo
//! ```

use np_exec::{launch, Args, ExecError, FaultKind, RaceCheckMode, SimOptions};
use np_gpu_sim::mem::inject::{InjectConfig, InjectSpace};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::expr::dsl::*;
use np_kernel_ir::types::Dim3;
use np_kernel_ir::KernelBuilder;

fn report(label: &str, res: Result<np_exec::KernelReport, ExecError>) {
    match res {
        Ok(r) => println!("{label:<18} OK     {} cycles", r.cycles),
        Err(e) => {
            let tag = e.fault().map_or("<setup error>", |f| f.kind.tag());
            println!("{label:<18} FAULT  [{tag}] {e}");
        }
    }
}

fn main() {
    let dev = DeviceConfig::gtx680();

    // 1. Out-of-bounds store: every lane writes past the end of `out`.
    let mut b = KernelBuilder::new("oob", 32);
    b.param_global_f32("out");
    b.store("out", tidx() + i(100), f(1.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    report("out-of-bounds", launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()));
    // Buffers survive the fault, holding whatever stores preceded it.
    assert_eq!(args.get_f32("out").unwrap().len(), 32);

    // 2. Shared-memory race: two warps touch the same tile words with no
    //    barrier in between (needs the opt-in race checker in fatal mode).
    let mut b = KernelBuilder::new("racy", 64);
    b.param_global_f32("out");
    b.shared_array("tile", np_kernel_ir::Scalar::F32, 64);
    b.store("tile", tidx(), f(1.0));
    b.store("out", tidx(), load("tile", i(63) - tidx()));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 64]);
    let opts = SimOptions::full().with_race_check(RaceCheckMode::Fatal);
    let res = launch(&dev, &k, Dim3::x1(1), &mut args, &opts);
    assert!(matches!(
        res.as_ref().err().and_then(|e| e.fault()).map(|f| &f.kind),
        Some(FaultKind::RaceDetected { .. })
    ));
    report("shared race", res);

    // 3. Runaway loop: the body keeps resetting the induction variable; the
    //    watchdog converts the hang into a typed fault.
    let mut b = KernelBuilder::new("spin", 32);
    b.param_global_f32("out");
    b.for_loop("i", i(0), i(10), |b| b.assign("i", i(0)));
    b.store("out", tidx(), f(1.0));
    let k = b.finish();
    let mut args = Args::new().buf_f32("out", vec![0.0; 32]);
    let opts = SimOptions::full().with_watchdog(Some(100_000));
    report("runaway loop", launch(&dev, &k, Dim3::x1(1), &mut args, &opts));

    // 4. Healthy kernel under forced fault injection in global memory: the
    //    seeded injector makes the very first targeted load fault.
    let mut b = KernelBuilder::new("copy", 32);
    b.param_global_f32("a");
    b.param_global_f32("out");
    b.store("out", tidx(), load("a", tidx()));
    let k = b.finish();
    let mut args =
        Args::new().buf_f32("a", vec![1.0; 32]).buf_f32("out", vec![0.0; 32]);
    let opts = SimOptions::full().with_injection(InjectConfig::forced(0xF00D, 1, InjectSpace::Global));
    let res = launch(&dev, &k, Dim3::x1(1), &mut args, &opts);
    assert!(matches!(
        res.as_ref().err().and_then(|e| e.fault()).map(|f| &f.kind),
        Some(FaultKind::Injected { .. })
    ));
    report("forced injection", res);

    // 5. The same kernel with injection off runs clean.
    let mut args =
        Args::new().buf_f32("a", vec![1.0; 32]).buf_f32("out", vec![0.0; 32]);
    report("clean run", launch(&dev, &k, Dim3::x1(1), &mut args, &SimOptions::full()));

    println!("\nall faults were ordinary `Err` values; the process never aborted");
}
