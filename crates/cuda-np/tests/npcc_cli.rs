//! End-to-end tests of the `npcc` binary, driven through the printed
//! sources of real paper workloads (the printer/parser round-trip makes
//! this equivalent to feeding hand-written `.cu` files).

use np_kernel_ir::printer::print_kernel;
use np_workloads::{lu::Lu, mv::Mv, Scale, Workload};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn npcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_npcc"))
}

/// Write `w`'s printed source to a file of its own. Tests run in parallel,
/// so a shared path could be truncated by one test while another test's
/// npcc reads it.
fn write_kernel(w: &dyn Workload) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("npcc_cli_{n}_{}.cu", w.name()));
    std::fs::write(&path, print_kernel(&w.kernel())).expect("write kernel source");
    path
}

/// The acceptance criterion: `npcc --timeline` renders a per-SMX stall
/// timeline for (at least) the MV and LU workloads.
#[test]
fn timeline_renders_for_mv_and_lu() {
    let workloads: [Box<dyn Workload>; 2] =
        [Box::new(Mv::new(Scale::Test)), Box::new(Lu::new(Scale::Test))];
    for w in workloads {
        let path = write_kernel(w.as_ref());
        let out = npcc()
            .args(["--slave-size", "4", "--timeline"])
            .arg(&path)
            .output()
            .expect("run npcc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: npcc --timeline failed\nstderr: {stderr}",
            w.name()
        );
        assert!(stdout.contains("__global__"), "{}: kernel still emitted", w.name());
        assert!(stderr.contains("# SMX timeline"), "{}: {stderr}", w.name());
        assert!(stderr.contains("SMX  0 |"), "{}: {stderr}", w.name());
        assert!(stderr.contains("legend:"), "{}: {stderr}", w.name());
        assert!(stderr.contains("device:"), "{}: {stderr}", w.name());
    }
}

/// `--explain` gains the flight-recorder narrative: a cycle-attribution
/// line for the winner and the stall shift vs the baseline.
#[test]
fn explain_reports_stall_attribution() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let out = npcc().arg("--explain").arg(&path).output().expect("run npcc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "npcc --explain failed\nstderr: {stderr}");
    assert!(stderr.contains("cycle attribution:"), "{stderr}");
    assert!(stderr.contains("stall shift vs baseline:"), "{stderr}");
}

/// `--check-races` on a clean transformed workload exits 0 and prints a
/// clean report.
#[test]
fn check_races_exits_zero_on_clean_kernel() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let out = npcc()
        .args(["--slave-size", "4", "--check-races"])
        .arg(&path)
        .output()
        .expect("run npcc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clean kernel must pass\nstderr: {stderr}");
    assert!(stderr.contains("race check for"), "{stderr}");
    assert!(stderr.contains(": clean"), "{stderr}");
    assert!(stderr.contains("\"checked\":true"), "{stderr}");
    assert!(stderr.contains("\"findings\":[]"), "{stderr}");
}

/// `--check-races` with an injected dropped barrier exits nonzero and the
/// report contains a race finding.
#[test]
fn check_races_exits_nonzero_on_dropped_barrier() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let out = npcc()
        .args(["--slave-size", "4", "--check-races", "--mutate", "drop-barrier:1"])
        .arg(&path)
        .output()
        .expect("run npcc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "mutant must fail the gate\nstderr: {stderr}");
    assert!(stderr.contains("RACES FOUND"), "{stderr}");
    assert!(
        stderr.contains("ww-race") || stderr.contains("rw-race"),
        "{stderr}"
    );
}

/// `--explain` with `--check-races` narrates the race: both access sites
/// named by pc, with the space and address of the conflicting word.
#[test]
fn check_races_explain_names_both_access_sites() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let out = npcc()
        .args(["--slave-size", "4", "--check-races", "--explain", "--mutate", "drop-barrier:1"])
        .arg(&path)
        .output()
        .expect("run npcc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    // The narrative names the conflicting word ("shared xs[…]") and both
    // racing accesses by pc.
    assert!(stderr.contains("shared "), "{stderr}");
    assert!(stderr.matches("pc ").count() >= 2, "{stderr}");
    assert!(stderr.contains("block "), "{stderr}");
}

/// An out-of-range or unknown mutation spec is a usage error, not a silent
/// no-op that would let a broken CI gate pass vacuously.
#[test]
fn bad_mutation_specs_are_rejected() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    for spec in ["drop-barrier:99", "unknown-mutation"] {
        let out = npcc()
            .args(["--check-races", "--mutate", spec])
            .arg(&path)
            .output()
            .expect("run npcc");
        assert!(!out.status.success(), "spec {spec:?} must be rejected");
    }
}

/// The `--check-races` report is byte-identical across reruns.
#[test]
fn check_races_report_is_deterministic() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let run = || {
        let out = npcc()
            .args(["--slave-size", "4", "--check-races", "--mutate", "drop-barrier:1"])
            .arg(&path)
            .output()
            .expect("run npcc");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert_eq!(run(), run());
}

/// `--watchdog` threads a step budget into every simulation the CLI runs:
/// `none` disarms it, a generous budget changes nothing, and a starvation
/// budget kills every tuning candidate — which the exit code reports.
#[test]
fn watchdog_flag_gates_runaway_budgets() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    for b in ["none", "100000000"] {
        let out = npcc()
            .args(["--explain", "--watchdog", b])
            .arg(&path)
            .output()
            .expect("run npcc");
        assert!(
            out.status.success(),
            "--watchdog {b} must pass\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = npcc()
        .args(["--explain", "--watchdog", "10"])
        .arg(&path)
        .output()
        .expect("run npcc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a 10-step budget must starve every candidate");
    assert!(stderr.contains("no tuning candidate ran to completion"), "{stderr}");
}

/// A zero or unparsable watchdog budget is a usage error (exit 2), not a
/// silently-disarmed watchdog.
#[test]
fn watchdog_flag_rejects_zero_and_garbage() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    for bad in ["0", "soon"] {
        let out = npcc().args(["--watchdog", bad]).arg(&path).output().expect("run npcc");
        assert!(!out.status.success(), "--watchdog {bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--watchdog"), "{stderr}");
    }
}

/// `npcc serve` smoke over real pipes: one JSONL request on stdin produces
/// exactly one `ok` JSONL response on stdout, then EOF drains the daemon
/// cleanly (exit 0, cache index flushed to stderr).
#[test]
fn serve_answers_jsonl_on_stdio_and_drains_on_eof() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let kernel = "
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
    let escaped = kernel.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
    let mut child = npcc()
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn npcc serve");

    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{{\"id\":\"smoke\",\"kernel\":\"{escaped}\"}}").unwrap();
    drop(stdin); // EOF: the daemon drains and exits.

    let stdout = BufReader::new(child.stdout.take().unwrap());
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    let status = child.wait().expect("npcc serve exits");
    assert!(status.success(), "clean drain must exit 0");
    assert_eq!(lines.len(), 1, "exactly one response line: {lines:?}");
    assert!(lines[0].contains("\"id\":\"smoke\""), "{}", lines[0]);
    assert!(lines[0].contains("\"status\":\"ok\""), "{}", lines[0]);
    assert!(lines[0].contains("\"cycles\":"), "{}", lines[0]);

    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).ok();
    assert!(stderr.contains("np-serve-cache-index-v1"), "{stderr}");
    assert!(stderr.contains("drained cleanly"), "{stderr}");
}

/// Timeline output is deterministic: two invocations render byte-identical
/// Gantt charts.
#[test]
fn timeline_is_deterministic_across_runs() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let run = || {
        let out = npcc()
            .args(["--slave-size", "4", "--timeline"])
            .arg(&path)
            .output()
            .expect("run npcc");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert_eq!(run(), run());
}

/// `--list-devices`: every registry name, its marketing name, and its
/// descriptor digest, one per line on stdout.
#[test]
fn list_devices_prints_registry_and_digests() {
    let out = npcc().arg("--list-devices").output().expect("run npcc");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (name, dev) in ["gtx680", "k20c", "maxwell", "small_test"]
        .iter()
        .zip(np_gpu_sim::REGISTRY.iter().map(|n| np_gpu_sim::device::from_name(n).unwrap()))
    {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("--list-devices missing {name}:\n{stdout}"));
        assert!(line.contains(&dev.name), "{line}");
        assert!(line.contains(&format!("digest {}", dev.digest_hex())), "{line}");
    }
}

/// An unknown `--device` name fails fast (exit 2) and the error names the
/// available registry devices.
#[test]
fn unknown_device_is_rejected_with_the_available_list() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let out = npcc().args(["--device", "titan"]).arg(&path).output().expect("run npcc");
    assert_eq!(out.status.code(), Some(2), "unknown device is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown device 'titan'"), "{stderr}");
    assert!(stderr.contains("gtx680, k20c, maxwell, small_test"), "{stderr}");
}

/// Pull the first `"cycles":N` value out of a replay's report JSON.
fn cycles_of(stdout: &str) -> u64 {
    let at = stdout.find("\"cycles\":").expect("report JSON has cycles");
    stdout[at + 9..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("cycles parse")
}

/// A frozen trace replays under a *different* device config: replay is a
/// pure re-timing, so the device may change freely (same interpretation,
/// new cycle counts), the report echoes the device it was timed on, and a
/// descriptor loaded from a file behaves exactly like its registry twin.
#[test]
fn replay_retimes_under_a_different_device() {
    let w = Mv::new(Scale::Test);
    let path = write_kernel(&w);
    let trace = std::env::temp_dir().join("npcc_cli_device_replay.nptrace");
    let out = npcc()
        .args(["--slave-size", "4", "--emit-trace"])
        .arg(&trace)
        .arg(&path)
        .output()
        .expect("run npcc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let replay = |device: Option<&str>| {
        let mut cmd = npcc();
        cmd.arg("--replay").arg(&trace);
        if let Some(d) = device {
            cmd.args(["--device", d]);
        }
        let out = cmd.output().expect("run npcc --replay");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let default = replay(None);
    assert!(default.contains("\"device\":\"gtx680\""), "{default}");
    let k20c = replay(Some("k20c"));
    assert!(k20c.contains("\"device\":\"k20c\""), "{k20c}");
    assert_ne!(
        cycles_of(&default),
        cycles_of(&k20c),
        "a 13-SMX K20c must not time like an 8-SMX GTX 680"
    );

    // A descriptor *file* with the K20c's parameters times identically to
    // the registry preset — resolution is transparent to the simulation.
    let desc = std::env::temp_dir().join("npcc_cli_k20c_twin.json");
    std::fs::write(&desc, np_gpu_sim::device::from_name("k20c").unwrap().descriptor_json())
        .expect("write descriptor");
    let twin = replay(Some(desc.to_str().unwrap()));
    assert_eq!(cycles_of(&twin), cycles_of(&k20c), "file descriptor must time like its twin");
    assert!(twin.contains(&format!("\"device\":\"{}\"", desc.display())), "{twin}");

    // An invalid descriptor file is rejected with the violated rule.
    let bad = std::env::temp_dir().join("npcc_cli_bad_device.json");
    let mut dev = np_gpu_sim::device::from_name("gtx680").unwrap();
    dev.num_smx = 0;
    std::fs::write(&bad, dev.descriptor_json()).expect("write descriptor");
    let out = npcc().arg("--replay").arg(&trace).arg("--device").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`num_smx` must be greater than zero"), "{stderr}");
}
