//! Golden-counter snapshot suite: every Table-1 workload's deterministic
//! profile counters — baseline and best NP configuration — are pinned
//! byte-for-byte against checked-in JSON goldens under `tests/goldens/`.
//!
//! The counters are a pure function of kernel + arguments + launch config
//! (see `np-gpu-sim::profile`), so any drift means a real behavioural
//! change in the transform, interpreter, or counter accounting. To accept
//! intentional changes, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_counters
//! ```

use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{transform, NpOptions, TunePolicy};
use np_exec::{launch, KernelReport};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::pragma::NpType;
use np_workloads::{all_workloads, nn::Nn, tmv::Tmv, Scale, Workload};
use std::path::PathBuf;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn np_type_str(t: NpType) -> &'static str {
    match t {
        NpType::InterWarp => "inter",
        NpType::IntraWarp => "intra",
    }
}

/// One workload's snapshot document: baseline profile plus the tuning
/// winner's identity and profile. Indentation is fixed so the file is
/// byte-stable and diffs read naturally.
fn snapshot(w: &dyn Workload, dev: &DeviceConfig) -> String {
    let kernel = w.kernel();
    let grid = w.grid();

    let mut args = w.make_args();
    let baseline = launch(dev, &kernel, grid, &mut args, &w.sim_options())
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name()));

    let candidates = default_candidates(kernel.block_dim.x, 1024);
    let tuned = autotune_with_policy(
        &kernel,
        dev,
        grid,
        &|t| alloc_extra_buffers(w.make_args(), t, grid),
        &w.sim_options(),
        &candidates,
        TunePolicy::Exhaustive,
    )
    .unwrap_or_else(|e| panic!("{}: tuning failed: {e}", w.name()))
    .result;
    let best_cycles = tuned.best_report.cycles;
    let winner = tuned
        .entries
        .iter()
        .find(|e| e.cycles() == Some(best_cycles))
        .expect("winner entry exists");

    let indent = |json: &str| json.replace('\n', "\n  ");
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"baseline\": {},\n  \"baseline_stall\": {},\n  \
         \"best\": {{\n    \
         \"np_type\": \"{}\",\n    \"slave_size\": {},\n    \"profile\": {},\n    \
         \"stall\": {}\n  }}\n}}\n",
        w.name(),
        indent(&baseline.profile.to_json()),
        baseline.timing.stall.to_json(),
        np_type_str(winner.np_type),
        winner.slave_size,
        indent(&indent(&tuned.best_report.profile.to_json())),
        tuned.best_report.timing.stall.to_json(),
    )
}

#[test]
fn golden_counters_cover_all_workloads() {
    let dev = DeviceConfig::gtx680();
    let update = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
    }
    let mut drifted = Vec::new();
    for w in all_workloads(Scale::Test) {
        let snap = snapshot(w.as_ref(), &dev);
        let path = goldens_dir().join(format!("{}.json", w.name().to_lowercase()));
        if update {
            std::fs::write(&path, &snap)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden {} ({e}); regenerate with \
                 UPDATE_GOLDENS=1 cargo test --test golden_counters",
                w.name(),
                path.display()
            )
        });
        if snap != golden {
            drifted.push(format!(
                "{}: counters drifted from {}\n--- golden ---\n{golden}\n--- got ---\n{snap}",
                w.name(),
                path.display()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden(s) drifted; if intentional, regenerate with \
         UPDATE_GOLDENS=1 cargo test --test golden_counters\n\n{}",
        drifted.len(),
        drifted.join("\n\n")
    );
}

/// The acceptance criterion from the profiling issue, asserted directly:
/// re-running a workload with the same seed/config yields byte-identical
/// `ProfileReport` JSON (and the snapshot built from it).
#[test]
fn reruns_are_byte_identical() {
    let dev = DeviceConfig::gtx680();
    for w in all_workloads(Scale::Test).into_iter().take(3) {
        let a = snapshot(w.as_ref(), &dev);
        let b = snapshot(w.as_ref(), &dev);
        assert_eq!(a, b, "{}: profile snapshot must be deterministic", w.name());
    }
}

/// Launch `w` untransformed, or transformed with `opts`, on `dev`.
fn run(w: &dyn Workload, dev: &DeviceConfig, opts: Option<NpOptions>) -> KernelReport {
    let Some(opts) = opts else {
        let mut args = w.make_args();
        return launch(dev, &w.kernel(), w.grid(), &mut args, &w.sim_options()).unwrap();
    };
    let t = transform(&w.kernel(), &opts).unwrap();
    let mut args = alloc_extra_buffers(w.make_args(), &t, w.grid());
    launch(dev, &t.kernel, w.grid(), &mut args, &w.sim_options()).unwrap()
}

/// The paper's mechanisms hold in the counters, not only in the cycles: an
/// incidental counter regression fails here even when timing still looks
/// plausible.
#[test]
fn counters_show_the_paper_mechanisms() {
    let dev = DeviceConfig::gtx680();
    let tmv = Tmv::new(Scale::Test);
    let intra8 = |use_shfl: bool| NpOptions { use_shfl: Some(use_shfl), ..NpOptions::intra(8) };
    let baseline = run(&tmv, &dev, None);
    let shfl = run(&tmv, &dev, Some(intra8(true)));
    let shared = run(&tmv, &dev, Some(intra8(false)));

    // Figure 16: the shfl variant combines live-outs in registers; the
    // shared variant stages through shared memory instead.
    assert!(shfl.profile.total.shfl_ops() > 0, "intra+shfl must emit shfl traffic");
    assert_eq!(shared.profile.total.shfl_ops(), 0, "no-shfl variant must not shfl");
    assert!(
        shared.profile.total.shared_accesses > shfl.profile.total.shared_accesses,
        "shared-memory staging must show up in the counters"
    );
    for rep in [&baseline, &shfl, &shared] {
        let e = rep.profile.coalescing_efficiency();
        assert!(e > 0.0 && e <= 1.0, "efficiency out of range: {e}");
        assert!(rep.profile.total.instructions > 0);
    }

    // Section 5.3, on the workload that exhibits it: NN's baseline loop is
    // badly strided, and slave threads coalesce it.
    let nn = Nn::new(Scale::Test);
    let (base_e, np_e) = (
        run(&nn, &dev, None).profile.coalescing_efficiency(),
        run(&nn, &dev, Some(NpOptions::intra(8))).profile.coalescing_efficiency(),
    );
    assert!(np_e > base_e, "NP transform must improve NN coalescing: {base_e:.3} -> {np_e:.3}");
}
