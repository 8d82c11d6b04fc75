//! np-obs determinism and correlation contracts.
//!
//! The np-obs-v1 determinism contract: after stripping every `wall_*`
//! field, an event log and a registry snapshot are pure functions of the
//! workload — two runs of the same (kernel, config, seed) must be
//! byte-identical, including across the tuner's thread pool (fork/adopt
//! splices candidate logs back in candidate order, never completion
//! order). On top of that, span trees must be well-formed, and in serve
//! every request gets one correlation id that is unique to it, rides on
//! every event it emits, and is echoed in the wire response.

use cuda_np::serve::{soak, synth_args, ChaosConfig, RetryPolicy, ServeConfig, Server, SoakConfig};
use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{transform, NpOptions, TunePolicy};
use np_exec::SimOptions;
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::parse_kernel;
use np_kernel_ir::types::Dim3;
use proptest::prelude::*;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

const TMV: &str = "
// blockDim = (32, 1, 1)
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++) {
    sum += a[i * w + tx] * b[i];
  }
  c[tx] = sum;
}
";

fn event_name(ev: &np_obs::RawEvent) -> &str {
    match &ev.kind {
        np_obs::EvKind::Open { name, .. } => name,
        np_obs::EvKind::Close { name, .. } => name,
        np_obs::EvKind::Event { name, .. } => name,
    }
}

/// One transform + capture + replay pipeline under a fresh recorder and
/// registry; returns the stripped event log and stripped registry doc.
fn record_pipeline(slave_size: u32, intra: bool) -> (String, String) {
    let rec = np_obs::Recorder::buffer(1 << 20);
    let reg = np_obs::Registry::new();
    np_obs::scope(&rec, Some(&reg), None, || {
        let kernel = parse_kernel(TMV).expect("parse");
        let opts =
            if intra { NpOptions::intra(slave_size) } else { NpOptions::inter(slave_size) };
        let t = transform(&kernel, &opts).expect("transform");
        let dev = DeviceConfig::gtx680();
        let grid = Dim3::x1(4);
        let mut args = alloc_extra_buffers(synth_args(&t.kernel), &t, grid);
        let (_rep, cap) = np_exec::capture_launch(&dev, &t.kernel, grid, &mut args, &SimOptions::full())
            .expect("capture");
        let bytes = cap.encode();
        let decoded = np_gpu_sim::CapturedLaunch::decode(&bytes).expect("decode");
        np_exec::replay_launch(&dev, &decoded, &SimOptions::full()).expect("replay");
    });
    assert_eq!(rec.dropped(), 0, "buffered recorder must not overflow");
    let events = rec.drain();
    np_obs::check_well_formed(&events).expect("well-formed span tree");
    assert!(
        events.iter().any(|e| event_name(e) == "trace.decode"),
        "pipeline spans must cover the codec"
    );
    (np_obs::render_jsonl(&events, true), reg.snapshot_json(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two runs of the same (kernel, config) produce byte-identical
    /// stripped logs and registry snapshots, across the NP config space.
    #[test]
    fn reruns_are_byte_identical(log2_slave in 1u32..=3, variant in 0u32..=1) {
        let slave_size = 1u32 << log2_slave;
        let intra = variant == 1;
        let (log_a, reg_a) = record_pipeline(slave_size, intra);
        let (log_b, reg_b) = record_pipeline(slave_size, intra);
        prop_assert!(!log_a.is_empty());
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(reg_a, reg_b);
    }
}

/// The tuner evaluates candidates on a thread pool; fork/adopt must make
/// the merged log independent of completion order, so two sweeps are
/// byte-identical after stripping.
#[test]
fn tuner_fork_adopt_is_deterministic() {
    let run = || {
        let rec = np_obs::Recorder::buffer(1 << 20);
        let reg = np_obs::Registry::new();
        np_obs::scope(&rec, Some(&reg), None, || {
            let kernel = parse_kernel(TMV).expect("parse");
            let dev = DeviceConfig::gtx680();
            let grid = Dim3::x1(4);
            let candidates = default_candidates(kernel.block_dim.x, 1024);
            let make_args = |t: &cuda_np::Transformed| alloc_extra_buffers(synth_args(&t.kernel), t, grid);
            autotune_with_policy(
                &kernel,
                &dev,
                grid,
                &make_args,
                &SimOptions::full(),
                &candidates,
                TunePolicy::Exhaustive,
            )
            .expect("tunes");
        });
        let events = rec.drain();
        np_obs::check_well_formed(&events).expect("well-formed span tree");
        let cand_spans = events
            .iter()
            .filter(|e| matches!(&e.kind, np_obs::EvKind::Open { name, .. } if name == "tune.candidate"))
            .count();
        assert!(cand_spans > 1, "the sweep must have adopted candidate spans, got {cand_spans}");
        (np_obs::render_jsonl(&events, true), reg.snapshot_json(true))
    };
    let (log_a, reg_a) = run();
    let (log_b, reg_b) = run();
    assert_eq!(log_a, log_b, "stripped tuner logs must be byte-identical");
    assert_eq!(reg_a, reg_b, "stripped registry snapshots must be byte-identical");
    assert!(reg_a.contains("\"tuner.candidates.total\""), "{reg_a}");
}

fn req_line(id: &str) -> String {
    format!("{{\"id\":\"{id}\",\"kernel\":\"{}\"}}", np_obs::json::escape(TMV))
}

/// Every serve request — including malformed ones — gets a correlation id
/// that is unique, present on every one of its events, and echoed in the
/// wire response.
#[test]
fn serve_corr_ids_are_unique_and_echoed() {
    let rec = np_obs::Recorder::buffer(1 << 20);
    let srv = Server::start(ServeConfig {
        workers: 2,
        obs: Some(rec.clone()),
        ..Default::default()
    });
    let (tx, rx) = channel();
    const N: usize = 8;
    for i in 0..N {
        srv.submit(&req_line(&format!("r{i}")), &tx);
    }
    srv.submit("this is not json", &tx);
    let mut resp_corrs = Vec::new();
    for _ in 0..N + 1 {
        let resp = rx.recv_timeout(Duration::from_secs(60)).expect("response");
        resp_corrs.push(resp.corr.clone().expect("every response echoes its corr"));
        assert!(resp.to_json_line().contains("\"corr\":\""), "{}", resp.to_json_line());
    }
    let report = srv.shutdown();
    assert!(
        report.registry_json.contains("\"schema\":\"np-obs-registry-v1\""),
        "{}",
        report.registry_json
    );

    // No global well-formedness check here: two workers interleave into
    // one shared recorder, so the merged stream is not a single span tree
    // (that contract applies to single-threaded and fork/adopted logs).
    let events = rec.drain();
    for ev in &events {
        if event_name(ev).starts_with("req.") {
            assert!(ev.corr.is_some(), "request event without corr: {:?}", event_name(ev));
        }
    }
    let mut responds: Vec<String> = events
        .iter()
        .filter(|e| event_name(e) == "req.respond")
        .map(|e| e.corr.clone().unwrap())
        .collect();
    assert_eq!(responds.len(), N + 1, "one req.respond per submission");
    responds.sort();
    responds.dedup();
    assert_eq!(responds.len(), N + 1, "correlation ids must be unique per request");
    let mut echoed = resp_corrs.clone();
    echoed.sort();
    echoed.dedup();
    assert_eq!(echoed.len(), N + 1, "wire responses echo distinct corr ids");
    assert!(responds.iter().all(|c| echoed.contains(c)), "log and wire corr sets agree");
}

/// Under a full chaos soak (delays, panics, faults, corruption, retries),
/// correlation ids stay unique per submission and present on every
/// request-scoped event.
#[test]
fn chaos_soak_keeps_corr_ids_coherent() {
    let rec = np_obs::Recorder::buffer(1 << 21);
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 4,
        chaos: Some(ChaosConfig::standard(42)),
        obs: Some(rec.clone()),
        ..Default::default()
    };
    let srv = Arc::new(Server::start(cfg));
    let report = soak(
        srv,
        &SoakConfig {
            seed: 42,
            clients: 4,
            duration: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        },
    );
    assert!(report.passed(), "soak invariants hold with obs armed: {}", report.summary());

    let events = rec.drain();
    let mut responds = Vec::new();
    for ev in &events {
        if event_name(ev).starts_with("req.") {
            assert!(ev.corr.is_some(), "request event without corr: {:?}", event_name(ev));
        }
        if event_name(ev) == "req.respond" {
            responds.push(ev.corr.clone().unwrap());
        }
    }
    assert!(responds.len() > 10, "the soak must have answered requests, got {}", responds.len());
    let total = responds.len();
    responds.sort();
    responds.dedup();
    assert_eq!(responds.len(), total, "correlation ids must be unique per request");
}
