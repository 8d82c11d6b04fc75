//! Figure-13-style comparison: TMV baseline vs the CUBLAS-like tuned kernel
//! vs the auto-tuned CUDA-NP version across matrix widths.
//!
//! ```text
//! cargo run --release --example tmv_vs_cublas
//! ```

use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::TunePolicy;
use np_exec::{launch, SimOptions};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::types::Dim3;
use np_workloads::{cublas_like, tmv::Tmv, Workload};

fn main() {
    let dev = DeviceConfig::gtx680();
    let h = 2048usize;
    println!("TMV on simulated GTX 680, h = {h} (times in us)\n");
    println!(
        "{:>7} {:>10} {:>12} {:>10} {:>8} {:>7}",
        "width", "baseline", "cublas-like", "CUDA-NP", "speedup", "config"
    );
    for w in [512usize, 1024, 2048, 4096] {
        let wl = Tmv::with_size(w, h);
        let kernel = wl.kernel();
        let grid = wl.grid();

        let mut base_args = wl.make_args();
        let base =
            launch(&dev, &kernel, grid, &mut base_args, &SimOptions::full()).unwrap();

        let ck = cublas_like::cublas_tmv();
        let mut cargs = wl.make_args();
        let crep = launch(&dev, &ck, Dim3::x1(w as u32 / 128), &mut cargs, &SimOptions::full())
            .unwrap();

        let candidates = default_candidates(kernel.block_dim.x, 1024);
        let tuned = autotune_with_policy(
            &kernel,
            &dev,
            grid,
            &|t| alloc_extra_buffers(wl.make_args(), t, grid),
            &SimOptions::full(),
            &candidates,
            TunePolicy::Exhaustive,
        )
        .unwrap()
        .result;

        println!(
            "{:>7} {:>10.1} {:>12.1} {:>10.1} {:>7.2}x {:>4?}x{}",
            w,
            dev.cycles_to_us(base.cycles),
            dev.cycles_to_us(crep.cycles),
            dev.cycles_to_us(tuned.best_report.cycles),
            crep.cycles as f64 / tuned.best_report.cycles as f64,
            tuned.best.report.np_type.unwrap(),
            tuned.best.report.slave_size,
        );
    }
    println!("\n(The paper reports 4.9x over CUBLAS at width 1k — smaller widths");
    println!(" mean fewer baseline threads, which is exactly what CUDA-NP fixes.)");
}
