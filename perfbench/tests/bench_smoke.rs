//! The benchmark through its library entry, one pass per phase: every
//! workload but tune-paper (whose one pass takes ~20 s) runs clean and
//! emits every metric `BENCHMARK.json` declares, replay-matrix interprets
//! nothing, and the deterministic work units repeat exactly.

use cuda_np::serve::json::Json;
use np_perfbench::{run, Config, Report, Workload, E2E_METRICS, LAYER_METRICS};
use std::sync::Mutex;

/// Runs one at a time: replay-matrix asserts on the process-wide
/// interpretation counter, which a concurrent test would move.
static SERIAL: Mutex<()> = Mutex::new(());

fn one_pass(workload: Workload, seed: u64, trace: bool) -> Report {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut cfg = Config::new(workload, seed, 0.0, trace);
    cfg.max_passes = Some(1);
    cfg.setup_reps = 1;
    run(&cfg).unwrap_or_else(|e| panic!("{} set-up: {e}", workload.name()))
}

fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(entries)) = doc.get(section) else {
        panic!("no {section} array")
    };
    entries
        .iter()
        .map(|e| {
            let field = |k| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics_and_workloads() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), owned(&E2E_METRICS));
    assert_eq!(declared(&doc, "per_layer"), owned(&LAYER_METRICS));
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn workloads_run_clean_and_emit_every_metric_with_its_unit() {
    for workload in [
        Workload::SweepTest,
        Workload::ReplayMatrix,
        Workload::ServeMix,
    ] {
        for trace in [false, true] {
            let r = one_pass(workload, 1, trace);
            let want = if trace {
                &LAYER_METRICS[..]
            } else {
                &E2E_METRICS[..]
            };
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            assert!(r.attempted > 0);
            assert_eq!(
                r.failed,
                0,
                "{} trace={trace}: {:?}",
                workload.name(),
                r.notes
            );
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
            }
            let line = r.to_json();
            let doc = Json::parse(&line).expect("result line parses");
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        }
    }
}

#[test]
fn replay_matrix_interprets_nothing() {
    let r = one_pass(Workload::ReplayMatrix, 3, true);
    assert_eq!(r.failed, 0, "{:?}", r.notes);
    assert_eq!(r.metric("interp.winst"), Some(0.0));
    assert_eq!(r.metric("interp.self_s"), Some(0.0));
    assert!(r.metric("engine.sim_cycles").unwrap() > 0.0);
}

#[test]
fn serve_mix_passes_have_a_fixed_cache_path_mix() {
    let r = one_pass(Workload::ServeMix, 5, true);
    assert_eq!(r.failed, 0, "{:?}", r.notes);
    assert_eq!(r.metric("serve.hits"), Some(20.0));
    assert_eq!(r.metric("serve.trace_replays"), Some(15.0));
    assert_eq!(r.metric("serve.misses"), Some(15.0));
    assert_eq!(r.metric("serve.shed"), Some(0.0));
}

#[test]
fn work_units_repeat_exactly_across_runs_and_seeds() {
    const UNITS: [&str; 7] = [
        "interp.winst",
        "engine.sim_cycles",
        "engine.blocks",
        "capture.bytes",
        "tuner.evaluated",
        "transform.calls",
        "model.sim_cycles",
    ];
    for workload in [Workload::SweepTest, Workload::ReplayMatrix] {
        let runs = [
            one_pass(workload, 1, true),
            one_pass(workload, 1, true),
            one_pass(workload, 2, true),
        ];
        for unit in UNITS {
            let values: Vec<f64> = runs.iter().map(|r| r.metric(unit).unwrap()).collect();
            assert!(
                values.iter().all(|&v| v == values[0]),
                "{} {unit} differs: {values:?}",
                workload.name()
            );
        }
        assert!(runs[0].metric("engine.sim_cycles").unwrap() > 0.0);
    }
}
