//! Expected simulated results. Test scale comes from the repository's own
//! per-device `BENCH_baseline.<device>.json`; paper scale from the pinned
//! `expected.paper.gtx680.json` next to this package's manifest. Both are
//! compiled in, so a change to simulated cycles has to update the
//! committed expectations to pass.

use cuda_np::serve::json::Json;
use std::collections::BTreeMap;

/// One kernel's expected cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Expected {
    pub baseline_cycles: u64,
    pub best_cycles: u64,
    /// Tuning candidates that cannot launch on the device (zero
    /// residency); absent from the paper-scale file, where it is 0.
    pub launch_failed: u64,
}

const GTX680: &str = include_str!("../../BENCH_baseline.gtx680.json");
const K20C: &str = include_str!("../../BENCH_baseline.k20c.json");
const MAXWELL: &str = include_str!("../../BENCH_baseline.maxwell.json");
const PAPER_GTX680: &str = include_str!("../expected.paper.gtx680.json");

/// Test-scale expectations for `device` (`gtx680`, `k20c` or `maxwell`).
pub(crate) fn baseline(device: &str) -> Result<BTreeMap<String, Expected>, String> {
    let doc = match device {
        "gtx680" => GTX680,
        "k20c" => K20C,
        "maxwell" => MAXWELL,
        other => return Err(format!("no committed baseline for device {other:?}")),
    };
    parse(doc).map_err(|e| format!("BENCH_baseline.{device}.json: {e}"))
}

/// Paper-scale expectations on gtx680.
pub(crate) fn paper() -> Result<BTreeMap<String, Expected>, String> {
    parse(PAPER_GTX680).map_err(|e| format!("expected.paper.gtx680.json: {e}"))
}

fn parse(doc: &str) -> Result<BTreeMap<String, Expected>, String> {
    let root = Json::parse(doc)?;
    let Some(Json::Arr(workloads)) = root.get("workloads") else {
        return Err("no \"workloads\" array".into());
    };
    let mut out = BTreeMap::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let cycles = |key: &str| {
            w.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("{name}: no integer {key:?}"))
        };
        let launch_failed = w
            .get("candidates")
            .and_then(|c| c.get("launch_failed"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out.insert(
            name.to_string(),
            Expected {
                baseline_cycles: cycles("baseline_cycles")?,
                best_cycles: cycles("best_cycles")?,
                launch_failed,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_device_baseline_lists_the_ten_kernels() {
        for dev in ["gtx680", "k20c", "maxwell"] {
            let b = baseline(dev).unwrap();
            assert_eq!(b.len(), 10, "{dev}");
            assert!(b
                .values()
                .all(|e| e.best_cycles > 0 && e.baseline_cycles > 0));
        }
        assert_eq!(baseline("k20c").unwrap()["CFD"].launch_failed, 2);
        assert!(baseline("titan").is_err());
    }

    #[test]
    fn paper_expectations_match_the_measured_fig10_column() {
        // EXPERIMENTS.md, Figure 10, "measured" column.
        let fig10 = [
            ("MC", 1.44),
            ("LU", 1.43),
            ("LE", 4.27),
            ("LIB", 1.57),
            ("CFD", 1.04),
            ("BK", 1.91),
            ("TMV", 2.59),
            ("NN", 1.93),
        ];
        let p = paper().unwrap();
        assert_eq!(p.len(), fig10.len());
        for (name, speedup) in fig10 {
            let e = &p[name];
            let got = e.baseline_cycles as f64 / e.best_cycles as f64;
            assert!(
                (got - speedup).abs() < 0.005,
                "{name}: {got:.3} vs {speedup}"
            );
        }
    }
}
