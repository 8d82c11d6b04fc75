//! `npcc` — the CUDA-NP source-to-source compiler as a command-line tool,
//! mirroring how the paper's Cetus-based implementation was used: feed it a
//! kernel with `np parallel for` pragmas, get the optimized kernel back.
//!
//! ```text
//! npcc [options] <kernel.cu>      (or `-` for stdin)
//!
//!   --slave-size N       threads per master group (default 4)
//!   --np-type inter|intra  distribution scheme (default inter)
//!   --device NAME|PATH   simulate on a registry device (gtx680, k20c,
//!                        maxwell, small_test) or a JSON/TOML descriptor
//!                        file (default gtx680); composes with --explain,
//!                        --timeline, --check-races, --emit-trace, --replay
//!   --list-devices       print the device registry (name, marketing name,
//!                        descriptor digest) and exit
//!   --sm VERSION         target compute capability x10 (default 30)
//!   --local-array auto|global|shared|register
//!   --pad                pad loop trip counts to a slave_size multiple
//!   --no-redundant       broadcast every live-in (disable Section 3.1)
//!   --report             print the transform decisions to stderr
//!   --explain            auto-tune on the simulator with synthesized
//!                        arguments, emit the winning kernel, and print a
//!                        per-candidate counter table to stderr saying why
//!                        the winner won
//!   --tune-policy P      candidate-selection policy for --explain:
//!                        `exhaustive` (default) simulates every candidate;
//!                        `pruned[:M]` simulates only candidates the static
//!                        cost model scores within margin M (default 1.0)
//!                        of the predicted best, falling back to the full
//!                        sweep on a model miss; `predict` pilots the
//!                        model's top pick and re-ranks with its measured
//!                        counters. Pruned/predict never return a slower
//!                        winner than exhaustive — a miss triggers the
//!                        fallback round
//!   --gate-small-loops   enable adaptive NP gating: pragma loops whose
//!                        static trip count falls below the device's
//!                        serial-gate threshold run serially on the master
//!                        instead of being widened
//!   --timeline           simulate the emitted kernel with synthesized
//!                        arguments and render the per-SMX stall timeline
//!                        (Gantt + utilization) to stderr
//!   --check-races        simulate the emitted kernel with the happens-before
//!                        race checker armed and print the report to stderr;
//!                        exit nonzero on any finding. With --explain, also
//!                        print a narrative naming the two racing accesses by
//!                        pc/space/address
//!   --mutate M           apply a conformance mutation to the transformed
//!                        kernel before emitting/checking it:
//!                        drop-barrier[:N] or unguard-broadcast
//!   --watchdog B         interpreter step budget for every simulation this
//!                        invocation runs (a count, or `none` to disarm);
//!                        the same spellings the serve protocol accepts
//!   --emit-trace PATH    freeze the emitted kernel's interpretation into a
//!                        replayable `np-trace-v1` artifact at PATH (with
//!                        --explain, the winner's capture from the tuning
//!                        sweep is written — no extra interpretation)
//!   --obs-out PATH       record the invocation's np-obs spans/events to
//!                        PATH (np-obs-v1 JSONL; the final line embeds the
//!                        metrics-registry snapshot) and write a
//!                        chrome-trace doc to PATH.chrome.json with the
//!                        host span track spliced alongside the SMX
//!                        timeline tracks when --timeline ran
//!
//! npcc obs-strip         read np-obs JSONL on stdin, write it back with
//!                        every wall_* field removed — the determinism
//!                        gate's normalizer (byte-identical across reruns)
//!
//! npcc --replay PATH [--watchdog B]
//!
//!   Re-time a previously emitted trace artifact without re-interpreting:
//!   decode PATH (digest-verified), replay it through the timing engine on
//!   the simulated GTX 680 (or the `--device` choice — replay is a pure
//!   timing recompute, so any device with compatible transaction/line
//!   geometry works), and print the deterministic report JSON to stdout.
//!   The watchdog budget may differ from the capturing run — the recorded
//!   step total reproduces the verdict either way; interpretation-
//!   affecting options (sampling, race checking) come from the artifact.
//!
//! npcc serve [options]   JSONL batch service on stdin/stdout
//!
//!   --workers N          simulation worker threads (default 2)
//!   --queue N            admission queue bound (default 16)
//!   --cache N            result cache capacity in entries (default 256)
//!   --deadline-ms MS     default per-request wall-clock deadline
//!   --watchdog B         default step budget (count or `none`)
//!   --chaos SEED         arm seeded chaos (delays, panics, faults,
//!                        cache corruption)
//!   --soak SECS          run the built-in chaos-soak client driver for
//!                        SECS seconds instead of reading stdin; exits
//!                        nonzero unless the exactly-once and
//!                        byte-identity invariants held
//!   --clients N          soak client threads (default 4)
//!   --bench-out PATH     write BENCH_serve.json here (default
//!                        BENCH_serve.json in soak mode)
//!   --log PATH           stream the daemon's np-obs events to PATH as
//!                        JSONL (request lifecycle with correlation ids,
//!                        cache outcomes, drain/flush records)
//!   --log-level L        level floor for --log: trace|debug|info|warn|
//!                        error (default debug)
//!   --quiet              raise the stderr event floor to errors (stdout
//!                        is pure response JSONL either way)
//! ```

use cuda_np::serve::{
    parse_step_budget, soak, synth_args, ChaosConfig, RetryPolicy, ServeConfig, Server,
    SoakConfig,
};
use cuda_np::tuner::{
    alloc_extra_buffers, autotune_with_policy, candidates_from_pragmas, TuneOutcome,
};
use cuda_np::{
    drop_barrier, drop_broadcast_guard, gating_policy, serial_gate_threshold, transform,
    LocalArrayStrategy, NpOptions, Transformed, TunePolicy,
};
use np_exec::{capture_launch, launch, replay_launch, RaceCheckMode, SimOptions};
use np_gpu_sim::racecheck::RaceCheckOptions;
use np_gpu_sim::{CapturedLaunch, DeviceConfig, ProfileCounters};
use np_kernel_ir::analysis::barriers::count_barriers;
use np_kernel_ir::kernel::Kernel;
use np_kernel_ir::pragma::NpType;
use np_kernel_ir::types::Dim3;
use np_kernel_ir::{parse_kernel, printer};
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: npcc [--slave-size N] [--np-type inter|intra] [--sm V] \
         [--local-array auto|global|shared|register] [--pad] [--no-redundant] \
         [--device NAME|PATH] [--report] [--explain] \
         [--tune-policy exhaustive|pruned[:M]|predict] [--gate-small-loops] \
         [--timeline] \
         [--check-races] [--mutate drop-barrier[:N]|unguard-broadcast] \
         [--watchdog B|none] [--emit-trace PATH] [--obs-out PATH] \
         <kernel.cu | ->\n\
         \x20      npcc --list-devices\n\
         \x20      npcc --replay PATH [--device NAME|PATH] [--watchdog B|none] \
         [--obs-out PATH]\n\
         \x20      npcc obs-strip < events.jsonl\n\
         \x20      npcc serve [--workers N] [--queue N] [--cache N] \
         [--deadline-ms MS] [--watchdog B|none] [--chaos SEED] \
         [--soak SECS] [--clients N] [--bench-out PATH] \
         [--log PATH] [--log-level trace|debug|info|warn|error] [--quiet]"
    );
    std::process::exit(2)
}

fn np_type_str(t: NpType) -> &'static str {
    match t {
        NpType::InterWarp => "inter",
        NpType::IntraWarp => "intra",
    }
}

fn counter_cells(p: &ProfileCounters) -> String {
    format!(
        "{:>9} {:>7} {:>10} {:>9.3} {:>10} {:>12} {:>9} {:>8}",
        p.instructions,
        p.divergence_events,
        p.divergent_instructions,
        p.coalescing_efficiency(),
        p.bank_conflict_replays,
        format!(
            "{}/{}/{}",
            p.shfl_broadcasts, p.shfl_reduction_steps, p.shfl_scan_steps
        ),
        p.shared_broadcasts,
        p.barrier_waits,
    )
}

/// Auto-tune `kernel` on the selected simulated device and print the
/// per-candidate counter table plus a winner analysis to stderr. Returns
/// the winning transform and its captured interpretation (for
/// `--emit-trace` — the sweep already interpreted the winner exactly once,
/// so the artifact costs nothing extra), or `None` when nothing ran to
/// completion.
fn explain(
    kernel: &Kernel,
    dev: &DeviceConfig,
    dev_label: &str,
    sim: &SimOptions,
    policy: TunePolicy,
) -> Option<(Transformed, CapturedLaunch)> {
    let grid = Dim3::x1(4);
    let header = format!(
        "{:<14} {:>10} {:>9} {:>7} {:>10} {:>9} {:>10} {:>12} {:>9} {:>8}",
        "config",
        "cycles",
        "instr",
        "div.ev",
        "div.instr",
        "coalesce",
        "sh.replays",
        "shfl b/r/s",
        "bcast(sh)",
        "barriers"
    );
    eprintln!(
        "npcc: explaining kernel {:?} on {dev_label}, grid {} x {} threads",
        kernel.name,
        grid.count(),
        kernel.block_dim.count()
    );
    eprintln!("{header}");

    let baseline = launch(dev, kernel, grid, &mut synth_args(kernel), sim);
    let base = match &baseline {
        Ok(rep) => {
            eprintln!(
                "{:<14} {:>10} {}",
                "baseline",
                rep.cycles,
                counter_cells(&rep.profile.total)
            );
            Some((rep.cycles, rep.profile.total.clone(), rep.timing.stall.clone()))
        }
        Err(e) => {
            eprintln!("{:<14} {}", "baseline", e);
            None
        }
    };

    let candidates = candidates_from_pragmas(kernel, 1024);
    let make_args =
        |t: &Transformed| alloc_extra_buffers(synth_args(&t.kernel), t, grid);
    let result = autotune_with_policy(kernel, dev, grid, &make_args, sim, &candidates, policy);
    let (entries, winner_idx, winner) = match result {
        Ok(r) => {
            eprintln!(
                "npcc: tune policy {}: evaluated {}/{} candidates ({} pruned){}",
                r.policy,
                r.evaluated,
                candidates.len(),
                r.skipped,
                if r.fell_back { ", fell back to the full sweep on a model miss" } else { "" }
            );
            if let Some(rank) = r.predicted_rank {
                eprintln!(
                    "npcc: cost model ranked the measured winner #{} of {}",
                    rank + 1,
                    candidates.len()
                );
            }
            let cycles = r.result.best_report.cycles;
            (
                r.result.entries,
                Some(r.result.best_index),
                Some((r.result.best, r.result.best_capture, cycles)),
            )
        }
        Err(cuda_np::TuneError::AllFailed(entries)) => (entries, None, None),
        Err(e) => {
            eprintln!("npcc: tuning failed: {e}");
            return None;
        }
    };

    for (i, e) in entries.iter().enumerate() {
        let label = format!("{} s={}", np_type_str(e.np_type), e.slave_size);
        match (&e.outcome, &e.profile) {
            (TuneOutcome::Ok { cycles }, Some(p)) => {
                let mark = if winner_idx == Some(i) { "*" } else { " " };
                eprintln!("{mark}{label:<13} {cycles:>10} {}", counter_cells(p));
            }
            (outcome, _) => eprintln!(" {label:<13} {outcome}"),
        }
    }

    let (best, best_capture, best_cycles) = winner?;
    let best_entry = winner_idx.and_then(|i| entries.get(i));
    let best_p = best_entry.and_then(|e| e.profile.clone()).unwrap_or_default();
    let (w_type, w_size) = best_entry
        .map(|e| (np_type_str(e.np_type), e.slave_size))
        .unwrap_or(("?", best.report.slave_size));
    eprintln!("npcc: winner {w_type} s={w_size} in {best_cycles} cycles");
    // Where the winner's cycles go (the flight-recorder attribution).
    if let Some(st) = best_entry.and_then(|e| e.stall.as_ref()) {
        eprintln!(
            "npcc:   cycle attribution: issue {:.1}%  issue-limit {:.1}%  \
             memory {:.1}%  dram-saturated {:.1}%  barrier {:.1}%  \
             scoreboard {:.1}%  idle {:.1}%",
            100.0 * st.issue as f64 / st.total().max(1) as f64,
            100.0 * st.issue_limit as f64 / st.total().max(1) as f64,
            100.0 * st.memory_pending as f64 / st.total().max(1) as f64,
            100.0 * st.dram_saturated as f64 / st.total().max(1) as f64,
            100.0 * st.barrier_wait as f64 / st.total().max(1) as f64,
            100.0 * st.scoreboard_dependency as f64 / st.total().max(1) as f64,
            100.0 * st.no_block_resident as f64 / st.total().max(1) as f64,
        );
    }
    if let Some((base_cycles, base_p, base_st)) = base {
        eprintln!(
            "npcc:   speedup over baseline: {:.2}x",
            base_cycles as f64 / best_cycles as f64
        );
        if let Some(st) = best_entry.and_then(|e| e.stall.as_ref()) {
            eprintln!(
                "npcc:   stall shift vs baseline: memory {:.1}% -> {:.1}%, \
                 barrier {:.1}% -> {:.1}%, issuing {:.1}% -> {:.1}%",
                100.0 * base_st.memory_fraction(),
                100.0 * st.memory_fraction(),
                100.0 * base_st.barrier_wait as f64 / base_st.total().max(1) as f64,
                100.0 * st.barrier_wait as f64 / st.total().max(1) as f64,
                100.0 * base_st.issue_fraction(),
                100.0 * st.issue_fraction(),
            );
        }
        let why = [
            (
                "coalescing efficiency",
                format!(
                    "{:.3} -> {:.3}",
                    base_p.coalescing_efficiency(),
                    best_p.coalescing_efficiency()
                ),
                best_p.coalescing_efficiency() > base_p.coalescing_efficiency(),
            ),
            (
                "divergent instructions",
                format!(
                    "{} -> {}",
                    base_p.divergent_instructions, best_p.divergent_instructions
                ),
                best_p.divergent_instructions < base_p.divergent_instructions,
            ),
            (
                "shfl replaces shared-memory broadcast",
                format!(
                    "{} shfl vs {} staged broadcasts",
                    best_p.shfl_ops(),
                    best_p.shared_broadcasts
                ),
                best_p.shfl_ops() > 0,
            ),
            (
                "bank-conflict replays",
                format!(
                    "{} -> {}",
                    base_p.bank_conflict_replays, best_p.bank_conflict_replays
                ),
                best_p.bank_conflict_replays < base_p.bank_conflict_replays,
            ),
        ];
        for (name, detail, relevant) in why {
            if relevant {
                eprintln!("npcc:   {name}: {detail}");
            }
        }
    }
    Some((best, best_capture))
}

/// Write a capture as an `np-trace-v1` artifact and log its identity.
fn write_trace(cap: &CapturedLaunch, path: &str) -> bool {
    let bytes = cap.encode();
    match std::fs::write(path, &bytes) {
        Ok(()) => {
            eprintln!(
                "npcc: wrote trace {path}: kernel {:?}, {}/{} blocks, {} bytes, \
                 digest {:016x}",
                cap.kernel_name,
                cap.sim_blocks,
                cap.total_blocks,
                bytes.len(),
                cap.digest()
            );
            true
        }
        Err(e) => {
            eprintln!("npcc: cannot write {path}: {e}");
            false
        }
    }
}

/// Simulate `t`'s emitted kernel once with synthesized arguments and
/// freeze the interpretation into an artifact at `path`.
fn emit_trace(t: &Transformed, dev: &DeviceConfig, sim: &SimOptions, path: &str) -> bool {
    let grid = Dim3::x1(4);
    let mut args = alloc_extra_buffers(synth_args(&t.kernel), t, grid);
    match capture_launch(dev, &t.kernel, grid, &mut args, sim) {
        Ok((_, cap)) => write_trace(&cap, path),
        Err(e) => {
            eprintln!("npcc: --emit-trace simulation failed: {e}");
            false
        }
    }
}

/// `npcc --replay PATH`: decode and re-time a trace artifact without any
/// interpretation. Interpretation-affecting options come from the capture
/// (they must match anyway); only the watchdog budget may be overridden.
fn replay_main(
    path: &str,
    dev: &DeviceConfig,
    dev_label: &str,
    watchdog: Option<Option<u64>>,
) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("npcc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cap = match CapturedLaunch::decode(&bytes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("npcc: {path}: bad trace artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sim = SimOptions::full().with_race_check(cap.race_mode);
    sim.max_blocks = cap.max_blocks;
    if let Some(b) = watchdog {
        sim = sim.with_watchdog(b);
    }
    match replay_launch(dev, &cap, &sim) {
        Ok(rep) => {
            eprintln!(
                "npcc: replayed {:?} from {path} on {dev_label}: {} cycles ({:.1} us), \
                 {}/{} blocks{}",
                cap.kernel_name,
                rep.cycles,
                rep.time_us,
                cap.sim_blocks,
                cap.total_blocks,
                if cap.is_sampled() { " (sampled)" } else { "" }
            );
            println!("{}", cuda_np::serve::proto::report_json(&rep, dev_label));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("npcc: replay of {path} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Apply a `--mutate` spec to the transformed kernel. The mutations are the
/// conformance suite's known-broken variants: they exist so CI (and tests)
/// can assert the race checker actually fires.
fn apply_mutation(t: &Transformed, spec: &str) -> Result<Kernel, String> {
    if let Some(rest) = spec.strip_prefix("drop-barrier") {
        let n: usize = if rest.is_empty() {
            0
        } else {
            rest.strip_prefix(':')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad mutation spec {spec:?}"))?
        };
        drop_barrier(&t.kernel, n).ok_or_else(|| {
            format!(
                "kernel has no barrier site {n} (only {} sites)",
                count_barriers(&t.kernel)
            )
        })
    } else if spec == "unguard-broadcast" {
        drop_broadcast_guard(&t.kernel)
            .ok_or_else(|| "kernel has no guarded broadcast store to un-gate".to_string())
    } else {
        Err(format!("unknown mutation {spec:?} (want drop-barrier[:N] or unguard-broadcast)"))
    }
}

/// Simulate `kernel` (the emitted kernel of `t`, possibly mutated) with the
/// happens-before checker recording and print the report to stderr. Returns
/// true when the run is race-free.
fn check_races(
    t: &Transformed,
    kernel: &Kernel,
    dev: &DeviceConfig,
    dev_label: &str,
    explain: bool,
    sim: &SimOptions,
) -> bool {
    let grid = Dim3::x1(4);
    let mut args = alloc_extra_buffers(synth_args(&t.kernel), t, grid);
    let sim = sim
        .clone()
        .with_race_check(RaceCheckMode::Record)
        .with_race_options(RaceCheckOptions { max_findings: None, policy: gating_policy(t) });
    match launch(dev, kernel, grid, &mut args, &sim) {
        Ok(rep) => {
            eprintln!(
                "npcc: race check for {:?} on {dev_label}, grid {} x {} threads: {}",
                kernel.name,
                grid.count(),
                kernel.block_dim.count(),
                if rep.race.is_clean() { "clean" } else { "RACES FOUND" }
            );
            eprintln!("{}", rep.race.to_json());
            if explain {
                eprint!("{}", rep.race.narrative());
            }
            rep.race.is_clean()
        }
        Err(e) => {
            eprintln!("npcc: race check simulation failed: {e}");
            false
        }
    }
}

/// Simulate `t`'s kernel with synthesized arguments on the selected device
/// and render the per-SMX stall timeline to stderr. Returns the report's
/// chrome-trace doc (for `--obs-out` splicing) on success.
fn render_timeline(
    t: &Transformed,
    dev: &DeviceConfig,
    dev_label: &str,
    sim: &SimOptions,
) -> Option<String> {
    let grid = Dim3::x1(4);
    let mut args = alloc_extra_buffers(synth_args(&t.kernel), t, grid);
    match launch(dev, &t.kernel, grid, &mut args, sim) {
        Ok(rep) => {
            eprintln!(
                "npcc: timeline for {:?} on {dev_label}, grid {} x {} threads",
                t.kernel.name,
                grid.count(),
                t.kernel.block_dim.count()
            );
            eprint!("{}", rep.timing.timeline.render_gantt(96));
            Some(rep.chrome_trace())
        }
        Err(e) => {
            eprintln!("npcc: timeline simulation failed: {e}");
            None
        }
    }
}

/// Everything a one-shot (non-serve) invocation needs, parsed off argv.
struct CompileRun {
    opts: NpOptions,
    /// Resolved `--device` (default: the gtx680 preset).
    dev: DeviceConfig,
    /// The spec the user gave (`gtx680`, `k20c`, a descriptor path), used
    /// in stderr messages so runs say which device they simulated.
    dev_label: String,
    input: Option<String>,
    report: bool,
    explain_flag: bool,
    tune_policy: TunePolicy,
    gate_small_loops: bool,
    timeline_flag: bool,
    check_races_flag: bool,
    mutate: Option<String>,
    emit_trace_path: Option<String>,
    replay_path: Option<String>,
    watchdog: Option<Option<u64>>,
}

/// `npcc --list-devices`: one registry device per line with its marketing
/// name and descriptor digest.
fn list_devices() -> ExitCode {
    for name in np_gpu_sim::device::REGISTRY {
        let dev = np_gpu_sim::device::from_name(name).expect("registry preset");
        println!("{:<12} {:<36} digest {}", name, dev.name, dev.digest_hex());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut opts = NpOptions::inter(4);
    let mut device_spec: Option<String> = None;
    let mut input: Option<String> = None;
    let mut report = false;
    let mut explain_flag = false;
    let mut tune_policy = TunePolicy::default();
    let mut gate_small_loops = false;
    let mut timeline_flag = false;
    let mut check_races_flag = false;
    let mut mutate: Option<String> = None;
    let mut emit_trace_path: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut obs_out: Option<String> = None;
    // `--watchdog` step budget: absent = simulator default,
    // Some(None) = disarmed, Some(Some(n)) = n steps.
    let mut watchdog: Option<Option<u64>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "serve" => return serve_main(args),
            "obs-strip" => return obs_strip_main(),
            "--list-devices" => return list_devices(),
            "--device" => device_spec = Some(args.next().unwrap_or_else(|| usage())),
            "--slave-size" => {
                opts.slave_size = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--np-type" => match args.next().as_deref() {
                Some("inter") => opts.np_type = NpType::InterWarp,
                Some("intra") => opts.np_type = NpType::IntraWarp,
                _ => usage(),
            },
            "--sm" => {
                opts.sm_version =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--local-array" => {
                opts.local_array = match args.next().as_deref() {
                    Some("auto") => LocalArrayStrategy::Auto,
                    Some("global") => LocalArrayStrategy::ForceGlobal,
                    Some("shared") => LocalArrayStrategy::ForceShared,
                    Some("register") => LocalArrayStrategy::ForceRegister,
                    _ => usage(),
                }
            }
            "--pad" => opts.pad = true,
            "--no-redundant" => opts.redundant_uniform = false,
            "--report" => report = true,
            "--explain" => explain_flag = true,
            "--tune-policy" => {
                let spec = args.next().unwrap_or_else(|| usage());
                tune_policy = match TunePolicy::parse(&spec) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("npcc: --tune-policy: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--gate-small-loops" => gate_small_loops = true,
            "--timeline" => timeline_flag = true,
            "--check-races" => check_races_flag = true,
            "--mutate" => mutate = Some(args.next().unwrap_or_else(|| usage())),
            "--emit-trace" => emit_trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--obs-out" => obs_out = Some(args.next().unwrap_or_else(|| usage())),
            "--replay" => replay_path = Some(args.next().unwrap_or_else(|| usage())),
            "--watchdog" => {
                let spec = args.next().unwrap_or_else(|| usage());
                watchdog = match parse_step_budget(&spec) {
                    Ok(b) => Some(b),
                    Err(e) => {
                        eprintln!("npcc: --watchdog: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other if input.is_none() && !other.starts_with("--") => {
                input = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    let dev_label = device_spec.unwrap_or_else(|| "gtx680".to_string());
    let dev = match np_gpu_sim::device::resolve(&dev_label) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("npcc: --device: {e}");
            return ExitCode::from(2);
        }
    };
    let run = CompileRun {
        opts,
        dev,
        dev_label,
        input,
        report,
        explain_flag,
        tune_policy,
        gate_small_loops,
        timeline_flag,
        check_races_flag,
        mutate,
        emit_trace_path,
        replay_path,
        watchdog,
    };
    match obs_out {
        None => run_compile(run, &mut None),
        Some(path) => {
            // One buffered recorder + registry for the whole invocation:
            // drained into `PATH` (np-obs-v1 JSONL, registry doc last) and
            // `PATH.chrome.json` (host span tracks spliced alongside the
            // SMX timeline when `--timeline` ran).
            let rec = np_obs::Recorder::buffer(1 << 20);
            let reg = np_obs::Registry::new();
            let mut chrome = None;
            let code =
                np_obs::scope(&rec, Some(&reg), None, || run_compile(run, &mut chrome));
            if !write_obs_log(&rec, &reg, chrome.as_deref(), &path) {
                return ExitCode::FAILURE;
            }
            code
        }
    }
}

/// `npcc obs-strip`: read an np-obs JSONL stream (or any text embedding
/// one) on stdin and write it back with every `wall_*` field removed —
/// the determinism gate's canonical normalizer, shared with the library
/// so CI and the tests strip identically.
fn obs_strip_main() -> ExitCode {
    let mut s = String::new();
    if std::io::stdin().read_to_string(&mut s).is_err() {
        eprintln!("npcc obs-strip: failed to read stdin");
        return ExitCode::FAILURE;
    }
    print!("{}", np_obs::strip_text(&s));
    ExitCode::SUCCESS
}

/// Drain the invocation's recorder into `path` (JSONL events, then one
/// `registry` line) and `path.chrome.json` (chrome-trace doc: the SMX
/// timeline tracks from `--timeline` when present, plus one host track of
/// np-obs spans).
fn write_obs_log(
    rec: &np_obs::Recorder,
    reg: &np_obs::Registry,
    chrome_sim: Option<&str>,
    path: &str,
) -> bool {
    let events = rec.drain();
    let mut doc = np_obs::render_jsonl(&events, false);
    doc.push_str(&format!(
        "{{\"seq\":{},\"ev\":\"registry\",\"dropped\":{},\"doc\":{}}}\n",
        events.len(),
        rec.dropped(),
        reg.snapshot_json(false).trim_end()
    ));
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("npcc: cannot write {path}: {e}");
        return false;
    }
    let spans = np_obs::chrome_trace_events(&events, "npcc");
    let chrome_doc = match chrome_sim {
        Some(sim) => {
            let base = sim.trim_end();
            let base = base.strip_suffix(']').unwrap_or(base).trim_end();
            let base = base.strip_suffix(',').unwrap_or(base);
            if spans.is_empty() {
                format!("{base}\n]")
            } else {
                format!("{base},\n{spans}\n]")
            }
        }
        None => format!("[\n{spans}\n]"),
    };
    let cpath = format!("{path}.chrome.json");
    if let Err(e) = std::fs::write(&cpath, &chrome_doc) {
        eprintln!("npcc: cannot write {cpath}: {e}");
        return false;
    }
    true
}

/// The one-shot compile/replay pipeline (everything except `serve`). When
/// `--timeline` renders, its chrome-trace doc is handed back through
/// `chrome` for `--obs-out` splicing.
fn run_compile(c: CompileRun, chrome: &mut Option<String>) -> ExitCode {
    let CompileRun {
        mut opts,
        dev,
        dev_label,
        input,
        report,
        explain_flag,
        tune_policy,
        gate_small_loops,
        timeline_flag,
        check_races_flag,
        mutate,
        emit_trace_path,
        replay_path,
        watchdog,
    } = c;
    let _root = np_obs::span("npcc");
    np_obs::event(np_obs::Level::Debug, "npcc.device", vec![np_obs::kv("device", dev_label.as_str())]);
    // `--replay` is a standalone mode: no kernel source involved.
    if let Some(p) = replay_path {
        if input.is_some() {
            eprintln!("npcc: --replay takes no kernel input (the artifact is the input)");
            return ExitCode::from(2);
        }
        return replay_main(&p, &dev, &dev_label, watchdog);
    }
    let Some(path) = input else { usage() };
    // The step budget every simulation in this invocation runs under.
    let sim = match watchdog {
        None => SimOptions::full(),
        Some(b) => SimOptions::full().with_watchdog(b),
    };

    let src = if path == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("npcc: failed to read stdin");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("npcc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let parsed = {
        let _p = np_obs::span("parse");
        parse_kernel(&src)
    };
    let mut kernel = match parsed {
        Ok(k) => k,
        Err(e) => {
            eprintln!("npcc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Preprocess: multi-dimensional blocks are flattened automatically
    // (Section 3.7 item 1).
    cuda_np::preprocess::flatten_block(&mut kernel);

    if gate_small_loops {
        let threshold = serial_gate_threshold(&dev);
        opts.serial_below = Some(threshold);
        eprintln!(
            "npcc: adaptive gating armed: loops with static trips below {threshold} \
             run serially on the master ({dev_label})"
        );
    }

    // `--check-races` pins the config (no autotune): transform, optionally
    // mutate, simulate with the checker armed, and gate the exit code on
    // the report. `--explain` here means "narrate the findings".
    if check_races_flag || mutate.is_some() {
        let t = match transform(&kernel, &opts) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("npcc: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let emitted = match &mutate {
            Some(spec) => match apply_mutation(&t, spec) {
                Ok(k) => k,
                Err(e) => {
                    eprintln!("npcc: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => t.kernel.clone(),
        };
        print!("{}", printer::print_kernel(&emitted));
        if report {
            eprintln!("npcc: {:#?}", t.report);
        }
        if check_races_flag && !check_races(&t, &emitted, &dev, &dev_label, explain_flag, &sim) {
            return ExitCode::FAILURE;
        }
        if let Some(p) = &emit_trace_path {
            if !emit_trace(&t, &dev, &sim, p) {
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    if explain_flag {
        return match explain(&kernel, &dev, &dev_label, &sim, tune_policy) {
            Some((best, best_capture)) => {
                print!("{}", printer::print_kernel(&best.kernel));
                if report {
                    eprintln!("npcc: {:#?}", best.report);
                }
                if timeline_flag {
                    match render_timeline(&best, &dev, &dev_label, &sim) {
                        Some(ct) => *chrome = Some(ct),
                        None => return ExitCode::FAILURE,
                    }
                }
                // The sweep already interpreted the winner; its capture is
                // written as-is.
                if let Some(p) = &emit_trace_path {
                    if !write_trace(&best_capture, p) {
                        return ExitCode::FAILURE;
                    }
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("npcc: {path}: no tuning candidate ran to completion");
                ExitCode::FAILURE
            }
        };
    }

    match transform(&kernel, &opts) {
        Ok(t) => {
            print!("{}", printer::print_kernel(&t.kernel));
            if report {
                eprintln!("npcc: {:#?}", t.report);
            }
            if timeline_flag {
                match render_timeline(&t, &dev, &dev_label, &sim) {
                    Some(ct) => *chrome = Some(ct),
                    None => return ExitCode::FAILURE,
                }
            }
            if let Some(p) = &emit_trace_path {
                if !emit_trace(&t, &dev, &sim, p) {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("npcc: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// SIGTERM/SIGINT flag for the serve loop. Set from a raw C signal
/// handler (no libc crate in this workspace): storing a relaxed atomic
/// bool is async-signal-safe.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

fn install_signal_handlers() {
    #[cfg(unix)]
    {
        unsafe extern "C" {
            /// POSIX `signal(2)`; resolved from the platform libc the
            /// binary already links against.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// `npcc serve`: JSONL requests on stdin, JSONL responses on stdout,
/// operational log on stderr. SIGTERM/SIGINT (or stdin EOF) triggers a
/// graceful drain: accepted jobs finish, the cache index is flushed, and
/// the exit is clean.
fn serve_main(mut args: std::iter::Skip<std::env::Args>) -> ExitCode {
    let mut cfg = ServeConfig { queue_cap: 16, ..ServeConfig::default() };
    let mut chaos_seed: Option<u64> = None;
    let mut soak_secs: Option<u64> = None;
    let mut clients = 4usize;
    let mut bench_out: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut log_level = np_obs::Level::Debug;
    let mut quiet = false;

    let num = |args: &mut std::iter::Skip<std::env::Args>| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workers" => cfg.workers = num(&mut args).max(1) as usize,
            "--queue" => cfg.queue_cap = num(&mut args).max(1) as usize,
            "--cache" => cfg.cache_cap = num(&mut args).max(1) as usize,
            "--deadline-ms" => cfg.default_deadline_ms = Some(num(&mut args)),
            "--watchdog" => {
                let spec = args.next().unwrap_or_else(|| usage());
                cfg.default_watchdog = match parse_step_budget(&spec) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("npcc serve: --watchdog: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--chaos" => chaos_seed = Some(num(&mut args)),
            "--soak" => soak_secs = Some(num(&mut args)),
            "--clients" => clients = num(&mut args).max(1) as usize,
            "--bench-out" => bench_out = Some(args.next().unwrap_or_else(|| usage())),
            "--log" => log_path = Some(args.next().unwrap_or_else(|| usage())),
            "--log-level" => {
                let spec = args.next().unwrap_or_else(|| usage());
                log_level = match np_obs::Level::parse(&spec) {
                    Some(l) => l,
                    None => {
                        eprintln!("npcc serve: --log-level: unknown level {spec:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cfg.chaos = chaos_seed.map(ChaosConfig::standard);

    // The daemon's structured logger: stdout stays pure response JSONL;
    // stderr carries level-filtered np-obs events (everything the daemon
    // used to eprintln), and `--log` adds a JSONL file at `--log-level`.
    // The channel is bounded — overload drops lines and counts them
    // rather than stalling the serve loop.
    let mut targets = vec![np_obs::StreamTarget {
        min_level: if quiet { np_obs::Level::Error } else { np_obs::Level::Info },
        writer: Box::new(std::io::stderr()),
    }];
    if let Some(p) = &log_path {
        match std::fs::File::create(p) {
            Ok(f) => targets.push(np_obs::StreamTarget { min_level: log_level, writer: Box::new(f) }),
            Err(e) => {
                eprintln!("npcc serve: cannot create --log {p}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let rec = np_obs::Recorder::stream(targets, 4096);
    cfg.obs = Some(rec.clone());

    if let Some(secs) = soak_secs {
        let code = soak_main(cfg, chaos_seed, secs, clients, bench_out, &rec);
        rec.shutdown();
        return code;
    }

    install_signal_handlers();
    let server = Server::start(cfg.clone());
    rec.event(
        np_obs::Level::Info,
        "serve.ready",
        None,
        vec![
            np_obs::kv("workers", cfg.workers as u64),
            np_obs::kv("queue", cfg.queue_cap as u64),
            np_obs::kv("cache", cfg.cache_cap as u64),
            np_obs::kv("chaos", chaos_seed.is_some()),
        ],
    );

    // Stdin on its own thread: a blocked read must not stop the main loop
    // from noticing SIGTERM or printing worker responses.
    let (line_tx, line_rx) = channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if line_tx.send(line).is_err() {
                break;
            }
        }
        // Dropping line_tx signals EOF to the main loop.
    });

    let (resp_tx, resp_rx) = channel();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut print = |resp: cuda_np::serve::Response| {
        let _ = writeln!(out, "{}", resp.to_json_line());
        let _ = out.flush();
    };

    let reason = loop {
        if SHUTDOWN.load(Ordering::Relaxed) {
            break "signal";
        }
        match line_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                server.submit(&line, &resp_tx);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break "eof",
        }
        while let Ok(resp) = resp_rx.try_recv() {
            print(resp);
        }
    };

    rec.event(
        np_obs::Level::Info,
        "serve.drain_begin",
        None,
        vec![np_obs::kv("reason", reason), np_obs::kv("queued", server.queue_len() as u64)],
    );
    let end = server.shutdown();
    // Workers are joined: every outstanding response is in the channel.
    while let Ok(resp) = resp_rx.try_recv() {
        print(resp);
    }
    if let Some(path) = &bench_out {
        let doc = end.snapshot.bench_json(chaos_seed, None);
        if let Err(e) = std::fs::write(path, doc) {
            rec.event(
                np_obs::Level::Warn,
                "serve.bench_out_error",
                None,
                vec![np_obs::kv("path", path.as_str()), np_obs::kv("error", e.to_string())],
            );
        }
    }
    // The index doc and the registry snapshot ride as string fields; the
    // drain gate greps for their schema tags as substrings.
    rec.event(
        np_obs::Level::Info,
        "serve.cache_index",
        None,
        vec![np_obs::kv("doc", end.cache_index.trim_end())],
    );
    rec.event(
        np_obs::Level::Debug,
        "serve.registry",
        None,
        vec![np_obs::kv("doc", end.registry_json.as_str())],
    );
    rec.event(
        np_obs::Level::Info,
        "serve.drained",
        None,
        vec![
            np_obs::kv("msg", "drained cleanly"),
            np_obs::kv("answered", end.snapshot.answered),
            np_obs::kv("wall_p50_us", end.snapshot.p50_us),
            np_obs::kv("wall_p99_us", end.snapshot.p99_us),
            np_obs::kv("hits", end.snapshot.cache_hits),
            np_obs::kv("shed", end.snapshot.shed_overloaded),
            np_obs::kv("quarantined", end.snapshot.quarantined_rejects),
            np_obs::kv("worker_panics", end.worker_panics),
        ],
    );
    rec.shutdown();
    if end.worker_panics == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `npcc serve --soak SECS`: hammer an in-process server with the seeded
/// client fleet, write `BENCH_serve.json`, and gate the exit code on the
/// exactly-once + byte-identity invariants.
fn soak_main(
    cfg: ServeConfig,
    chaos_seed: Option<u64>,
    secs: u64,
    clients: usize,
    bench_out: Option<String>,
    rec: &np_obs::Recorder,
) -> ExitCode {
    let seed = chaos_seed.unwrap_or(0);
    rec.event(
        np_obs::Level::Info,
        "soak.begin",
        None,
        vec![
            np_obs::kv("secs", secs),
            np_obs::kv("clients", clients),
            np_obs::kv("workers", cfg.workers),
            np_obs::kv("queue", cfg.queue_cap),
            np_obs::kv("seed", seed),
            np_obs::kv("chaos", cfg.chaos.is_some()),
        ],
    );
    let server = Arc::new(Server::start(cfg));
    let report = soak(
        server,
        &SoakConfig {
            seed,
            clients,
            duration: Duration::from_secs(secs),
            retry: RetryPolicy::default(),
        },
    );
    rec.event(
        np_obs::Level::Info,
        "soak.report",
        None,
        vec![np_obs::kv("summary", report.summary())],
    );
    let path = bench_out.unwrap_or_else(|| "BENCH_serve.json".to_string());
    if let Some(snap) = &report.snapshot {
        let doc = snap.bench_json(chaos_seed, Some(secs));
        match std::fs::write(&path, &doc) {
            Ok(()) => rec.event(
                np_obs::Level::Info,
                "soak.bench_out",
                None,
                vec![np_obs::kv("path", path.as_str())],
            ),
            Err(e) => {
                rec.event(
                    np_obs::Level::Error,
                    "soak.bench_out_error",
                    None,
                    vec![np_obs::kv("path", path.as_str()), np_obs::kv("error", e.to_string())],
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let verdict = if report.passed() { "PASSED" } else { "FAILED" };
    rec.event(
        np_obs::Level::Info,
        "soak.end",
        None,
        vec![np_obs::kv("verdict", verdict)],
    );
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
