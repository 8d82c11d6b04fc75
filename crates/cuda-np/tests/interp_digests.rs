//! Interpreter output digests: every observable byte one interpretation
//! produces, pinned per (device, workload, kernel) cell against a golden
//! generated once and never regenerated since.
//!
//! Cells: gtx680, k20c and maxwell × the ten test-scale workloads × (the
//! baseline kernel, every `default_candidates` configuration that
//! transforms, and the inter-warp slave-4 kernel with its first barrier
//! dropped). Each cell launches through `capture_launch` with the race
//! checker recording and keeps one line: the FNV-64 of the encoded
//! capture — traces, profile counters, `total_steps` and race findings
//! with their pcs — and the FNV-64 of every array argument after the
//! launch. A launch that errors keeps its error text in place of the
//! capture digest.
//!
//! The golden pins the interpreter's behaviour, so an intentional change
//! there is a reviewed event. Regenerate only then, with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cuda-np --test interp_digests
//! ```

use cuda_np::conformance::drop_barrier;
use cuda_np::transform;
use cuda_np::tuner::{alloc_extra_buffers, default_candidates};
use cuda_np::NpOptions;
use np_exec::{capture_launch, ArgValue, Args, RaceCheckMode};
use np_gpu_sim::capture::fnv64;
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::kernel::Kernel;
use np_kernel_ir::pragma::NpType;
use np_workloads::{all_workloads, Scale, Workload};
use std::path::PathBuf;

const DEVICES: [&str; 3] = ["gtx680", "k20c", "maxwell"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/interp_digests.txt")
}

/// FNV-64 over every array argument of `kernel`, in parameter order: the
/// name, then the element bits.
fn buffers_digest(kernel: &Kernel, args: &Args) -> u64 {
    let mut bytes = Vec::new();
    for p in &kernel.params {
        if let Some(ArgValue::Buf(b)) = args.get(&p.name) {
            bytes.extend_from_slice(p.name.as_bytes());
            bytes.push(0);
            for i in 0..b.len() {
                bytes.extend_from_slice(&b.read_bits(i).to_le_bytes());
            }
        }
    }
    fnv64(&bytes)
}

/// One cell's line.
fn cell(
    (dev_name, dev): (&str, &DeviceConfig),
    w: &dyn Workload,
    label: &str,
    kernel: &Kernel,
    mut args: Args,
) -> String {
    let opts = w.sim_options().with_race_check(RaceCheckMode::Record);
    let outcome = match capture_launch(dev, kernel, w.grid(), &mut args, &opts) {
        Ok((_, cap)) => format!("cap={:016x}", fnv64(&cap.encode())),
        Err(e) => format!("error={e}"),
    };
    format!(
        "{dev_name} {} {label} {outcome} out={:016x}\n",
        w.name(),
        buffers_digest(kernel, &args)
    )
}

fn digests() -> String {
    let mut doc = String::new();
    for name in DEVICES {
        let config = np_gpu_sim::device::from_name(name).expect("registry device");
        let dev = (name, &config);
        for w in all_workloads(Scale::Test) {
            let kernel = w.kernel();
            let grid = w.grid();
            doc.push_str(&cell(dev, w.as_ref(), "baseline", &kernel, w.make_args()));
            for c in default_candidates(kernel.block_dim.x, 1024) {
                let Ok(t) = transform(&kernel, &c.opts) else { continue };
                let ty = match c.opts.np_type {
                    NpType::InterWarp => "inter",
                    NpType::IntraWarp => "intra",
                };
                let label = format!("{ty}{}", c.opts.slave_size);
                let args = alloc_extra_buffers(w.make_args(), &t, grid);
                doc.push_str(&cell(dev, w.as_ref(), &label, &t.kernel, args));
            }
            if let Ok(t) = transform(&kernel, &NpOptions::inter(4)) {
                if let Some(mutant) = drop_barrier(&t.kernel, 0) {
                    let args = alloc_extra_buffers(w.make_args(), &t, grid);
                    doc.push_str(&cell(dev, w.as_ref(), "inter4_nobar0", &mutant, args));
                }
            }
        }
    }
    doc
}

#[test]
fn interpreter_digests_match_the_golden() {
    let doc = digests();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    let drifted: Vec<String> = doc
        .lines()
        .zip(golden.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  got    {a}\n  golden {b}"))
        .collect();
    assert!(
        drifted.is_empty() && doc.lines().count() == golden.lines().count(),
        "{} of {} interpreter digests drifted ({} lines now, {} in the golden):\n{}",
        drifted.len(),
        golden.lines().count(),
        doc.lines().count(),
        golden.lines().count(),
        drifted.join("\n")
    );
}
