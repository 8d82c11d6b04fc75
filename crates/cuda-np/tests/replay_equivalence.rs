//! The capture/replay equivalence gate: for every Table-1 workload,
//! every transform configuration the issue names (slave sizes {2, 4, 8}
//! crossed with inter-/intra-warp), interpreting once into a
//! `CapturedLaunch` and replaying it must produce a `KernelReport`
//! *byte-identical* to a direct `launch` — timing, stall breakdown,
//! profile counters, race findings, and the rendered chrome trace all
//! included. The same holds through a full encode/decode round trip of
//! the `np-trace-v1` bytes, so an artifact written to disk (or a serve
//! cache) replays to the same answer as the live capture.
//!
//! Also pinned here: the autotuner interprets each runnable candidate
//! exactly once (the interpretation-count probe), and its winner's
//! stored capture replays to the winner's exact report.

use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{transform, NpOptions, TunePolicy};
use np_exec::{
    capture_launch, interpretation_count, launch, replay_launch, KernelReport,
};
use np_gpu_sim::{CapturedLaunch, DeviceConfig};
use np_workloads::{all_workloads, Scale, Workload};
use std::sync::{PoisonError, RwLock};

/// The interpretation-count probe is process-global, so the test that
/// reads it holds this lock exclusively while the tests that only launch
/// share it: no launch of theirs can land inside the probe's window.
static PROBE: RwLock<()> = RwLock::new(());

fn dev() -> DeviceConfig {
    DeviceConfig::gtx680()
}

/// Every observable byte of a report, concatenated. Two reports with the
/// same fingerprint are indistinguishable to any consumer: the timing
/// counters (Debug covers every field), the profile and race JSON
/// documents, the stall breakdown, the chrome trace, and the hoisted
/// cycle count.
fn fingerprint(r: &KernelReport) -> String {
    format!(
        "{:?}|{}|{}|{}|{}|{}",
        r.timing,
        r.timing.stall.to_json(),
        r.profile.to_json(),
        r.race.to_json(),
        r.chrome_trace(),
        r.cycles
    )
}

/// The issue's configuration matrix for one workload's kernel: slave
/// sizes {2, 4, 8} × {inter, intra}, skipping combinations the transform
/// legitimately rejects (e.g. a master size that overflows the block cap).
fn configs() -> Vec<NpOptions> {
    let mut v = Vec::new();
    for s in [2u32, 4, 8] {
        v.push(NpOptions::inter(s));
        v.push(NpOptions::intra(s));
    }
    v
}

#[test]
fn replay_is_byte_identical_to_direct_launch_for_all_workloads() {
    let _shared = PROBE.read().unwrap_or_else(PoisonError::into_inner);
    let dev = dev();
    let mut checked = 0usize;
    for w in all_workloads(Scale::Test) {
        let kernel = w.kernel();
        let grid = w.grid();
        let opts = w.sim_options();

        // Baseline kernel first: capture+replay vs direct.
        check_one(&dev, &kernel, w.as_ref(), &format!("{} baseline", w.name()));
        checked += 1;

        // Then the full transform matrix.
        for np in configs() {
            let label = format!(
                "{} slave={} {:?}",
                w.name(),
                np.slave_size,
                np.np_type
            );
            let t = match transform(&kernel, &np) {
                Ok(t) => t,
                Err(_) => continue, // config rejected for this kernel: not a replay concern
            };
            let mut direct_args = alloc_extra_buffers(w.make_args(), &t, grid);
            let direct = launch(&dev, &t.kernel, grid, &mut direct_args, &opts)
                .unwrap_or_else(|e| panic!("{label}: direct launch failed: {e}"));

            let mut cap_args = alloc_extra_buffers(w.make_args(), &t, grid);
            let (via_capture, cap) =
                capture_launch(&dev, &t.kernel, grid, &mut cap_args, &opts)
                    .unwrap_or_else(|e| panic!("{label}: capture failed: {e}"));
            assert_eq!(
                fingerprint(&direct),
                fingerprint(&via_capture),
                "{label}: capture-path report != direct report"
            );

            // Round-trip the artifact through the codec, then replay the
            // decoded capture: still byte-identical.
            let decoded = CapturedLaunch::decode(&cap.encode())
                .unwrap_or_else(|e| panic!("{label}: round trip failed: {e}"));
            let replayed = replay_launch(&dev, &decoded, &opts)
                .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
            assert_eq!(
                fingerprint(&direct),
                fingerprint(&replayed),
                "{label}: replayed report != direct report"
            );
            checked += 1;
        }
    }
    // 10 workloads × (1 baseline + up to 6 configs): a collapsed matrix
    // means the transform rejected everything, which is its own bug.
    assert!(checked >= 40, "only {checked} configurations exercised");
}

fn check_one(dev: &DeviceConfig, kernel: &np_kernel_ir::Kernel, w: &dyn Workload, label: &str) {
    let grid = w.grid();
    let opts = w.sim_options();
    let direct = launch(dev, kernel, grid, &mut w.make_args(), &opts)
        .unwrap_or_else(|e| panic!("{label}: direct launch failed: {e}"));
    let (via_capture, cap) = capture_launch(dev, kernel, grid, &mut w.make_args(), &opts)
        .unwrap_or_else(|e| panic!("{label}: capture failed: {e}"));
    assert_eq!(
        fingerprint(&direct),
        fingerprint(&via_capture),
        "{label}: capture-path report != direct report"
    );
    let decoded = CapturedLaunch::decode(&cap.encode())
        .unwrap_or_else(|e| panic!("{label}: round trip failed: {e}"));
    let replayed = replay_launch(dev, &decoded, &opts)
        .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
    assert_eq!(
        fingerprint(&direct),
        fingerprint(&replayed),
        "{label}: replayed report != direct report"
    );
}

/// The tuner's winner carries its capture; replaying that capture must
/// reproduce the winner's report exactly, and a second autotune run must
/// elect the same winner with identical entries (the sweep is
/// deterministic end to end).
#[test]
fn autotune_winner_capture_replays_to_winner_report() {
    let _shared = PROBE.read().unwrap_or_else(PoisonError::into_inner);
    let dev = dev();
    for w in all_workloads(Scale::Test) {
        let kernel = w.kernel();
        let grid = w.grid();
        let opts = w.sim_options();
        let candidates = default_candidates(kernel.block_dim.x, 1024);
        let run = |_: ()| {
            autotune_with_policy(
                &kernel,
                &dev,
                grid,
                &|t| alloc_extra_buffers(w.make_args(), t, grid),
                &opts,
                &candidates,
                TunePolicy::Exhaustive,
            )
            .unwrap_or_else(|e| panic!("{}: autotune failed: {e}", w.name()))
            .result
        };
        let a = run(());
        let b = run(());

        // Same winner, same entries, both runs.
        assert_eq!(
            a.best.report.slave_size, b.best.report.slave_size,
            "{}: winner slave size unstable",
            w.name()
        );
        assert_eq!(
            a.best.report.np_type, b.best.report.np_type,
            "{}: winner NP type unstable",
            w.name()
        );
        assert_eq!(a.entries.len(), b.entries.len(), "{}: entry count unstable", w.name());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(
                format!("{:?}", x.outcome),
                format!("{:?}", y.outcome),
                "{}: entry outcome unstable (slave={} {:?})",
                w.name(),
                x.slave_size,
                x.np_type
            );
        }
        assert_eq!(
            fingerprint(&a.best_report),
            fingerprint(&b.best_report),
            "{}: winner report unstable across runs",
            w.name()
        );

        // The stored capture IS the winner's interpretation: replaying it
        // (with the sweep's own options) reproduces the report exactly.
        let replayed = replay_launch(&dev, &a.best_capture, &opts)
            .unwrap_or_else(|e| panic!("{}: winner capture replay failed: {e}", w.name()));
        assert_eq!(
            fingerprint(&a.best_report),
            fingerprint(&replayed),
            "{}: winner capture does not replay to winner report",
            w.name()
        );
    }
}

/// The interpretation-count probe from the acceptance criteria: one
/// autotune sweep interprets each runnable candidate exactly once —
/// replays and report plumbing add zero interpretations. Counted with
/// the process-global probe, so this test holds [`PROBE`] exclusively
/// and the probe delta is measured around a single call.
#[test]
fn autotune_interprets_each_candidate_exactly_once() {
    let _exclusive = PROBE.write().unwrap_or_else(PoisonError::into_inner);
    let dev = dev();
    let w = &all_workloads(Scale::Test)[0]; // MC: every candidate is runnable
    let kernel = w.kernel();
    let grid = w.grid();
    let opts = w.sim_options();
    let candidates = default_candidates(kernel.block_dim.x, 1024);

    let before = interpretation_count();
    let result = autotune_with_policy(
        &kernel,
        &dev,
        grid,
        &|t| alloc_extra_buffers(w.make_args(), t, grid),
        &opts,
        &candidates,
        TunePolicy::Exhaustive,
    )
    .unwrap_or_else(|e| panic!("autotune failed: {e}"))
    .result;
    let interpreted = interpretation_count() - before;

    // Candidates that never reached the simulator (transform rejection)
    // cost zero interpretations; everything else costs exactly one.
    let launched = result
        .entries
        .iter()
        .filter(|e| !matches!(e.outcome, cuda_np::tuner::TuneOutcome::Rejected(_)))
        .count() as u64;
    assert_eq!(
        interpreted, launched,
        "sweep interpreted {interpreted} times for {launched} launched candidates \
         (entries: {})",
        result.entries.len()
    );

    // And replaying the winner afterwards adds none.
    let before = interpretation_count();
    replay_launch(&dev, &result.best_capture, &opts).expect("winner replays");
    assert_eq!(
        interpretation_count() - before,
        0,
        "replay must not interpret"
    );
}
