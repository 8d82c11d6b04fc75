//! Machine-readable bench trajectory: `BENCH_results.json`.
//!
//! One document per sweep, carrying every workload's baseline/best-NP
//! cycles, speedup, winning configuration, stall breakdown (the timeline
//! flight recorder's attribution), and profile counters. The writer is a
//! pure function of the sweep outcomes — the simulator is deterministic, so
//! two consecutive runs produce *byte-identical* files; CI regenerates the
//! document and diffs it against the committed
//! `BENCH_baseline.<device>.json` with a relative cycle tolerance (see
//! [`check_against_baseline`]).
//!
//! The writer is hand-rolled, one workload object per line so diffs read
//! naturally; string values go through [`np_obs::json::quote`]. The
//! baseline check reads both documents with [`np_obs::json::Json`].

use crate::runner::{gm, WorkloadOutcome};
use cuda_np::tuner::{TuneEntry, TuneOutcome};
use np_gpu_sim::DeviceConfig;
use np_obs::json::{quote, Json};

/// Schema tag written into every document; bump when the layout changes.
/// v2 added `device_digest` (the FNV-64 of the device's canonical
/// descriptor), so a trajectory is pinned to the exact device parameters
/// that produced it, not just the device's display name. v3 added the
/// per-workload `"tune"` block (search policy, evaluated/skipped candidate
/// counts, fallback flag, the cost model's rank of the measured winner) and
/// a `"skipped"` counter in `"candidates"`; [`check_against_baseline`] reads
/// only the device digest and cycle fields, so v2 baselines still gate v3
/// documents.
pub const SCHEMA: &str = "np-bench-trajectory-v3";

/// The tuning winner's entry, identified by the tuner's own `best_index`
/// rather than re-deriving it from cycle counts (a skipped or later
/// candidate could alias the winning cycle count).
fn winner_entry(o: &WorkloadOutcome) -> Option<&TuneEntry> {
    let r = o.result.as_ref().ok()?;
    r.tuned.entries.get(r.tuned.best_index)
}

/// Tally the tuner's candidate outcomes for one workload, rendered as the
/// per-workload `"candidates"` object. Robustness regressions — a transform
/// config that starts faulting or failing to launch — show up here as diffs
/// in `BENCH_results.json`, not just as perf drift.
fn candidates_json(entries: &[TuneEntry]) -> String {
    let (mut ok, mut rejected, mut faulted, mut launch_failed, mut skipped) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for e in entries {
        match &e.outcome {
            TuneOutcome::Ok { .. } => ok += 1,
            TuneOutcome::Rejected(_) => rejected += 1,
            TuneOutcome::Faulted(_) => faulted += 1,
            TuneOutcome::LaunchFailed(_) => launch_failed += 1,
            TuneOutcome::Skipped => skipped += 1,
            // `TuneOutcome` is non_exhaustive from outside cuda-np; count
            // unknown future variants as launch failures so they surface.
            _ => launch_failed += 1,
        }
    }
    format!(
        "{{\"total\":{},\"ok\":{ok},\"rejected\":{rejected},\"faulted\":{faulted},\
         \"launch_failed\":{launch_failed},\"skipped\":{skipped}}}",
        entries.len()
    )
}

/// The per-workload `"tune"` block: which search policy ran and how it
/// behaved. Under the default exhaustive policy this renders identically on
/// every run, preserving byte-determinism; under `pruned`/`predict` it makes
/// the cost model's effectiveness auditable straight from the trajectory.
fn tune_json(r: &crate::runner::BenchResult) -> String {
    let rank = match r.predicted_rank {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"policy\":{},\"evaluated\":{},\"skipped\":{},\
         \"fell_back\":{},\"predicted_rank\":{rank}}}",
        quote(&r.policy.label()),
        r.evaluated,
        r.skipped,
        r.fell_back,
    )
}

/// Render sweep outcomes as the `BENCH_results.json` document (trailing
/// newline included). Deterministic: workloads appear in sweep order and
/// every number is either an exact integer or a fixed-precision float.
pub fn to_json(outcomes: &[WorkloadOutcome], dev: &DeviceConfig, scale: &str) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"device\": {},\n  \
         \"device_digest\": \"{}\",\n  \"scale\": {},\n  \"workloads\": [\n",
        quote(&dev.name),
        dev.digest_hex(),
        quote(scale)
    );
    let mut speedups = Vec::new();
    let mut first = true;
    for o in outcomes {
        let Ok(r) = &o.result else {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!("    {{\"name\":{},\"failed\":true}}", quote(o.name)));
            continue;
        };
        speedups.push(r.speedup());
        let (np_type, slave_size) = winner_entry(o)
            .map(|e| (e.np_type.keyword(), e.slave_size))
            .unwrap_or(("?", 0));
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!(
            "    {{\"name\":{},\"baseline_cycles\":{},\"best_cycles\":{},\
             \"speedup\":{:.4},\"np_type\":\"{}\",\"slave_size\":{},\
             \"tune\":{},\"candidates\":{},\
             \"baseline_stall\":{},\"best_stall\":{},\
             \"baseline_profile\":{},\"best_profile\":{}}}",
            quote(o.name),
            r.baseline.cycles,
            r.tuned.best_report.cycles,
            r.speedup(),
            np_type,
            slave_size,
            tune_json(r),
            candidates_json(&r.tuned.entries),
            r.baseline.timing.stall.to_json(),
            r.tuned.best_report.timing.stall.to_json(),
            r.baseline.profile.total.to_json(),
            r.tuned.best_report.profile.total.to_json(),
        ));
    }
    s.push_str(&format!(
        "\n  ],\n  \"geomean_speedup\": {:.4}\n}}\n",
        gm(&speedups)
    ));
    s
}

/// The `"workloads"` array of a parsed trajectory document.
fn workloads(doc: &Json) -> &[Json] {
    match doc.get("workloads") {
        Some(Json::Arr(ws)) => ws,
        _ => &[],
    }
}

fn name_of(w: &Json) -> Option<&str> {
    w.get("name").and_then(Json::as_str)
}

fn digest_of(doc: &Json) -> Option<&str> {
    doc.get("device_digest").and_then(Json::as_str)
}

/// Compare a freshly generated trajectory against a committed baseline.
///
/// A baseline that records a `device_digest` only gates a document from the
/// same device: a differing or missing digest in the current document is
/// one diagnostic, so a renamed or re-parameterised device never passes.
/// For every workload in the baseline, `baseline_cycles` and `best_cycles`
/// must match within relative `tolerance` (e.g. `0.02` = ±2%); a workload
/// missing from the current document, a parse failure, or a cycle count
/// drifting past tolerance each produce one diagnostic. Workloads *added*
/// in the current document are fine (the trajectory grows); `Ok` means the
/// gate is green.
pub fn check_against_baseline(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Result<(), Vec<String>> {
    let (cur, base) = match (Json::parse(current), Json::parse(baseline)) {
        (Ok(cur), Ok(base)) => (cur, base),
        (Err(e), _) => return Err(vec![format!("current results do not parse: {e}")]),
        (_, Err(e)) => return Err(vec![format!("baseline does not parse: {e}")]),
    };
    let mut problems = Vec::new();
    if let Some(want) = digest_of(&base) {
        match digest_of(&cur) {
            Some(got) if got == want => {}
            Some(got) => problems.push(format!(
                "device_digest {got} differs from the baseline's {want}: \
                 the device was renamed or re-parameterised"
            )),
            None => problems.push(format!(
                "device_digest missing from current results (baseline has {want})"
            )),
        }
    }
    if workloads(&base).is_empty() {
        problems.push("baseline document lists no workloads".to_string());
    }
    for b in workloads(&base) {
        let Some(name) = name_of(b) else { continue };
        if b.get("failed").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let Some(c) = workloads(&cur).iter().find(|c| name_of(c) == Some(name)) else {
            problems.push(format!("{name}: missing from current results"));
            continue;
        };
        for key in ["baseline_cycles", "best_cycles"] {
            match (b.get(key).and_then(Json::as_u64), c.get(key).and_then(Json::as_u64)) {
                (Some(want), Some(got)) => {
                    let rel = (got as f64 - want as f64).abs() / (want as f64).max(1.0);
                    if rel > tolerance {
                        problems.push(format!(
                            "{name}: {key} drifted {want} -> {got} \
                             ({:+.1}% > ±{:.1}% tolerance)",
                            100.0 * (got as f64 - want as f64) / (want as f64).max(1.0),
                            100.0 * tolerance
                        ));
                    }
                }
                (Some(_), None) => {
                    problems.push(format!("{name}: {key} missing from current results"))
                }
                (None, _) => problems.push(format!("{name}: {key} missing from baseline")),
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sweep;
    use np_kernel_ir::pragma::NpType;
    use np_workloads::Scale;

    fn doc(workloads: &[(&str, u64, u64)]) -> String {
        let mut s = String::from("{\n  \"workloads\": [\n");
        for (i, (n, b, c)) in workloads.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str(&format!(
                "    {{\"name\":\"{n}\",\"baseline_cycles\":{b},\"best_cycles\":{c},\
                 \"speedup\":1.0}}"
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    #[test]
    fn candidate_tally_partitions_outcomes() {
        use cuda_np::options::TransformError;
        let entry = |outcome| TuneEntry {
            slave_size: 4,
            np_type: NpType::InterWarp,
            outcome,
            profile: None,
            stall: None,
        };
        let entries = vec![
            entry(TuneOutcome::Ok { cycles: 10 }),
            entry(TuneOutcome::Rejected(TransformError::NoPragmaLoops)),
            entry(TuneOutcome::LaunchFailed(cuda_np::LaunchFailure::Exec(
                np_exec::ExecError::Launch("block too large".into()),
            ))),
            entry(TuneOutcome::Skipped),
        ];
        let json = candidates_json(&entries);
        assert_eq!(
            json,
            "{\"total\":4,\"ok\":1,\"rejected\":1,\"faulted\":0,\"launch_failed\":1,\
             \"skipped\":1}"
        );
    }

    #[test]
    fn device_names_are_escaped_in_the_document() {
        let dev = DeviceConfig { name: "lab \"A\" gpu \\ 2".to_string(), ..DeviceConfig::gtx680() };
        let doc = to_json(&[], &dev, "test");
        let parsed = Json::parse(&doc).expect("the trajectory is valid JSON");
        assert_eq!(parsed.get("device").and_then(Json::as_str), Some(dev.name.as_str()));
    }

    #[test]
    fn unparsable_documents_fail_the_gate() {
        let base = doc(&[("TMV", 1000, 400)]);
        let errs = check_against_baseline("{\"workloads\": [", &base, 0.5).unwrap_err();
        assert!(errs[0].starts_with("current results do not parse"), "{errs:?}");
        let errs = check_against_baseline(&base, "not json", 0.5).unwrap_err();
        assert!(errs[0].starts_with("baseline does not parse"), "{errs:?}");
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(&[("TMV", 1000, 400), ("MV", 2000, 900)]);
        check_against_baseline(&d, &d, 0.0).unwrap();
    }

    #[test]
    fn drift_within_tolerance_passes_beyond_fails() {
        let base = doc(&[("TMV", 1000, 400)]);
        let near = doc(&[("TMV", 1010, 404)]);
        let far = doc(&[("TMV", 1500, 400)]);
        check_against_baseline(&near, &base, 0.02).unwrap();
        let errs = check_against_baseline(&far, &base, 0.02).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("baseline_cycles"), "{errs:?}");
        assert!(errs[0].contains("1000 -> 1500"), "{errs:?}");
    }

    #[test]
    fn device_digest_must_match_when_the_baseline_has_one() {
        let with_digest = |digest: &str| {
            doc(&[("TMV", 1000, 400)])
                .replacen("{\n", &format!("{{\n  \"device_digest\": \"{digest}\",\n"), 1)
        };
        let base = with_digest("0297aea925af8380");
        check_against_baseline(&base, &base, 0.0).unwrap();
        let errs = check_against_baseline(&with_digest("fea3122af784bc04"), &base, 0.0)
            .unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("fea3122af784bc04") && errs[0].contains("0297aea925af8380"));
        let errs = check_against_baseline(&doc(&[("TMV", 1000, 400)]), &base, 0.0).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("device_digest missing"), "{errs:?}");
        // A baseline without a digest gates on cycles alone.
        check_against_baseline(&base, &doc(&[("TMV", 1000, 400)]), 0.0).unwrap();
    }

    #[test]
    fn missing_workload_is_flagged_but_additions_are_fine() {
        let base = doc(&[("TMV", 1000, 400)]);
        let cur = doc(&[("MV", 1000, 400)]);
        let errs = check_against_baseline(&cur, &base, 0.5).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("TMV") && e.contains("missing")), "{errs:?}");
        // Extra workloads in current never fail the gate.
        let grown = doc(&[("TMV", 1000, 400), ("NEW", 7, 3)]);
        check_against_baseline(&grown, &base, 0.0).unwrap();
    }

    #[test]
    fn sweep_trajectory_is_byte_identical_and_self_consistent() {
        let dev = crate::device::default_speedup_device();
        let a = to_json(&sweep(&dev, Scale::Test), &dev, "test");
        // The sharded matrix sweep must land on the same bytes as the
        // serial sweep: worker interleaving may not leak into the document.
        let m = crate::runner::sweep_matrix(std::slice::from_ref(&dev), Scale::Test);
        let b = to_json(&m[0], &dev, "test");
        assert_eq!(a, b, "trajectory must be deterministic");
        assert!(a.contains(SCHEMA));
        assert!(a.contains(&format!("\"device_digest\": \"{}\"", dev.digest_hex())));
        assert!(a.contains("\"baseline_stall\""));
        assert!(a.contains("\"geomean_speedup\""));
        // Every workload carries its tuner-candidate outcome tally, and at
        // least one candidate succeeded somewhere (the sweep found winners).
        assert!(a.contains("\"candidates\":{\"total\":"), "{a}");
        assert!(a.contains("\"launch_failed\":"), "{a}");
        // v3: every workload records its search policy; the default sweep is
        // exhaustive, so nothing is skipped and no fallback ever fires.
        assert!(a.contains("\"tune\":{\"policy\":\"exhaustive\","), "{a}");
        assert!(a.contains("\"fell_back\":false"), "{a}");
        assert!(!a.contains("\"fell_back\":true"), "{a}");
        // The freshly generated document passes its own gate exactly.
        check_against_baseline(&a, &a, 0.0).unwrap();
    }
}
