//! Regenerate the CUDA-NP paper's tables and figures.
//!
//! ```text
//! np-harness [--test-scale] [--device SPEC] [--devices A,B,C]
//!            [--json [PATH]] [--check-bench BASELINE]
//!            [--tolerance FRACTION]
//!            [--tune-policy exhaustive|pruned[:MARGIN]|predict]
//!            [all | sweep | fig01 | table1 | fig10 | fig11 |
//!             fig12 | fig13 | fig14 | fig15 | fig16 | sec6]...
//! ```
//!
//! Default is `all` at paper scale. `--test-scale` uses the small inputs
//! the test suite uses (fast smoke run).
//!
//! `--device SPEC` pins every experiment to one device: a registry name
//! (`gtx680`, `k20c`, `maxwell`, `small_test`) or a descriptor file
//! (`.json`, validated on load). Without it, each experiment runs
//! on the device the paper used for it — speedup figures on the GTX 680,
//! the Figure-1 dynamic-parallelism microbenchmark on the K20c.
//!
//! `--devices A,B,C` runs the full workload sweep on every listed device,
//! sharding the device × workload matrix across a bounded host-thread
//! pool. Output files gain a per-device token: `--json` writes
//! `BENCH_results.<device>.json` and `--check-bench BASE.json` reads
//! `BASE.<device>.json`, each device gated independently against its own
//! committed baseline. Experiment names cannot be combined with
//! `--devices` (the matrix is sweep-only).
//!
//! `--json [PATH]` writes the machine-readable bench trajectory (cycles,
//! speedups, stall breakdowns, profile counters per workload) after the
//! sweep — byte-identical across reruns; PATH defaults to
//! `BENCH_results.json`. `--check-bench BASELINE` additionally diffs the
//! fresh trajectory against a committed baseline and exits 1 on any cycle
//! count outside `--tolerance` (relative, default 0.02 = ±2%). Both flags
//! imply the sweep runs.
//!
//! `--tune-policy` selects the tuner's candidate-search policy for the
//! sweep (default `exhaustive`). `pruned[:MARGIN]` evaluates only the
//! candidates the cost model keeps within MARGIN of its predicted best
//! (falling back to the full sweep on a model miss — it can never return a
//! slower winner); `predict` trusts the model's single top pick the same
//! way. The summary gains a `[policy evaluated/total]` column and the v3
//! trajectory records the per-workload `"tune"` block; committed baselines
//! are generated under the default exhaustive policy.
//!
//! `all` (and the explicit `sweep` command) end with a per-workload
//! PASS/FAULT summary: every workload's baseline + auto-tune runs to a
//! `Result`, faulting workloads are reported, and the remaining workloads
//! still complete. The process exits non-zero only when *every* workload
//! fails (exit code 1), a bench gate trips (1), or when an unknown
//! experiment is named or a flag is malformed (2).

use np_harness::device::{device_tagged_path, device_token, DeviceSel};
use np_harness::{experiments, runner, trajectory};
use np_gpu_sim::DeviceConfig;
use np_workloads::Scale;

/// Write the trajectory document and/or gate it against a baseline.
/// Returns true on any write failure, read failure, or gate trip.
fn bench_gate(
    doc: &str,
    json_path: Option<&str>,
    check_baseline: Option<&str>,
    tolerance: f64,
) -> bool {
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("np-harness: cannot write {path}: {e}");
            return true;
        }
        eprintln!("np-harness: wrote {path}");
    }
    if let Some(base_path) = check_baseline {
        let base = match std::fs::read_to_string(base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("np-harness: cannot read baseline {base_path}: {e}");
                return true;
            }
        };
        match trajectory::check_against_baseline(doc, &base, tolerance) {
            Ok(()) => eprintln!(
                "np-harness: bench trajectory within ±{:.1}% of {base_path}",
                100.0 * tolerance
            ),
            Err(problems) => {
                for p in &problems {
                    eprintln!("np-harness: bench regression: {p}");
                }
                return true;
            }
        }
    }
    false
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    };

    let mut json_path: Option<String> = None;
    let mut check_baseline: Option<String> = None;
    let mut tolerance = 0.02f64;
    let mut tune_policy = cuda_np::TunePolicy::default();
    let mut device_spec: Option<String> = None;
    let mut devices_spec: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--test-scale" => {}
            "--json" => {
                // Optional value: consume the next token unless it is a
                // flag or a subcommand-looking word ending in no '.json'.
                let path = match it.peek() {
                    Some(p) if p.ends_with(".json") => it.next().cloned(),
                    _ => None,
                };
                json_path = Some(path.unwrap_or_else(|| "BENCH_results.json".to_string()));
            }
            "--check-bench" => match it.next() {
                Some(p) => check_baseline = Some(p.clone()),
                None => {
                    eprintln!("--check-bench needs a baseline JSON path");
                    std::process::exit(2);
                }
            },
            "--device" => match it.next() {
                Some(s) => device_spec = Some(s.clone()),
                None => {
                    eprintln!("--device needs a registry name or descriptor path");
                    std::process::exit(2);
                }
            },
            "--devices" => match it.next() {
                Some(s) => devices_spec = Some(s.clone()),
                None => {
                    eprintln!("--devices needs a comma-separated device list");
                    std::process::exit(2);
                }
            },
            "--tune-policy" => match it.next().map(|v| cuda_np::TunePolicy::parse(v)) {
                Some(Ok(p)) => tune_policy = p,
                Some(Err(e)) => {
                    eprintln!("--tune-policy: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--tune-policy needs exhaustive, pruned[:MARGIN], or predict");
                    std::process::exit(2);
                }
            },
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a non-negative fraction (e.g. 0.02)");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with("--") => wanted.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let scale_label = match scale {
        Scale::Test => "test",
        _ => "paper",
    };
    let bench_mode = json_path.is_some() || check_baseline.is_some();

    if device_spec.is_some() && devices_spec.is_some() {
        eprintln!("--device and --devices are mutually exclusive");
        std::process::exit(2);
    }

    // Multi-device matrix mode: sweep every listed device, one trajectory
    // (and one independent baseline gate) per device.
    if let Some(specs) = &devices_spec {
        if !wanted.is_empty() {
            eprintln!("--devices runs the sweep matrix only; drop the experiment names");
            std::process::exit(2);
        }
        let specs: Vec<&str> = specs.split(',').filter(|s| !s.is_empty()).collect();
        if specs.is_empty() {
            eprintln!("--devices needs at least one device");
            std::process::exit(2);
        }
        let mut devices: Vec<DeviceConfig> = Vec::new();
        for spec in &specs {
            match np_gpu_sim::device::resolve(spec) {
                Ok(d) => devices.push(d),
                Err(e) => {
                    eprintln!("np-harness: --devices: {e}");
                    std::process::exit(2);
                }
            }
        }
        let matrix = runner::sweep_matrix_with_policy(&devices, scale, tune_policy);
        let mut failed = false;
        for ((spec, dev), outcomes) in specs.iter().zip(&devices).zip(&matrix) {
            let token = device_token(spec);
            println!("===== device {token} ({}) =====", dev.name);
            print!("{}", runner::summary(outcomes));
            println!();
            print!("{}", runner::counter_table(outcomes));
            println!();
            print!("{}", runner::stall_table(outcomes));
            if bench_mode {
                let doc = trajectory::to_json(outcomes, dev, scale_label);
                failed |= bench_gate(
                    &doc,
                    json_path.as_deref().map(|p| device_tagged_path(p, &token)).as_deref(),
                    check_baseline.as_deref().map(|p| device_tagged_path(p, &token)).as_deref(),
                    tolerance,
                );
            }
            failed |= runner::all_failed(outcomes);
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    let sel = match DeviceSel::parse(device_spec.as_deref()) {
        Ok(sel) => sel,
        Err(e) => {
            eprintln!("np-harness: --device: {e}");
            std::process::exit(2);
        }
    };

    // The sweep: PASS/FAULT summary, counter + stall tables, and (in bench
    // mode) the trajectory document. Returns true when everything failed.
    let run_sweep = || -> bool {
        let dev = sel.speedup();
        let outcomes = runner::sweep_with_policy(&dev, scale, tune_policy);
        print!("{}", runner::summary(&outcomes));
        println!();
        print!("{}", runner::counter_table(&outcomes));
        println!();
        print!("{}", runner::stall_table(&outcomes));
        if bench_mode {
            let doc = trajectory::to_json(&outcomes, &dev, scale_label);
            if bench_gate(&doc, json_path.as_deref(), check_baseline.as_deref(), tolerance) {
                return true;
            }
        }
        runner::all_failed(&outcomes)
    };

    let registry = experiments::experiments();
    if bench_mode && wanted.is_empty() {
        // Bench-trajectory runs default to just the sweep (the experiments
        // prose is noise for CI).
        if run_sweep() {
            std::process::exit(1);
        }
        return;
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        print!("{}", experiments::all(&sel, scale));
        println!("\n===== sweep =====");
        if run_sweep() {
            std::process::exit(1);
        }
        return;
    }
    let mut everything_failed = false;
    for name in &wanted {
        if name == "sweep" {
            everything_failed |= run_sweep();
            continue;
        }
        match registry.iter().find(|(n, _)| *n == name.as_str()) {
            Some((_, f)) => print!("{}", f(&sel, scale)),
            None => {
                eprintln!(
                    "unknown experiment {name:?}; available: sweep, {}",
                    registry.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if everything_failed {
        std::process::exit(1);
    }
}
