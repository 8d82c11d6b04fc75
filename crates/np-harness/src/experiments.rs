//! The experiments, one function per paper table/figure. Every function
//! returns the formatted text it also expects to be printed, so the binary
//! and EXPERIMENTS.md generation share one code path.

use crate::device::DeviceSel;
use crate::runner::{best_np, gm, run_baseline, run_config};
use cuda_np::{LocalArrayStrategy, NpOptions};
use np_exec::{estimate_resources, launch};
use np_gpu_sim::dynpar::{dynpar_cycles, DynParLaunchPlan};
use np_kernel_ir::pragma::NpType;
use np_kernel_ir::types::Dim3;
use np_workloads::spec::characterize;
use np_workloads::{all_workloads, cublas_like, le::Le, lib_mc::Lib, memcopy, mv::Mv, tmv::Tmv, Scale, Workload};
use std::fmt::Write as _;

/// Figure 1: memcpy bandwidth under dynamic parallelism as the child-kernel
/// count grows (m * n fixed at 64M floats on the K20c).
pub fn fig01(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.dynpar();
    let total: usize = match scale {
        Scale::Test => 1 << 20,
        Scale::Paper => 64 << 20,
    };
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 1 — dynamic-parallelism memcpy ({} floats, {})", total, dev.name);
    let plain = memcopy::run_copy(&dev, total, Some(64));
    let _ = writeln!(
        out,
        "{:>12}  {:>10}  {:>9}",
        "launches(m)", "bandwidth", "GB/s"
    );
    let _ = writeln!(out, "{:>12}  {:>10}  {:9.1}", "no-dynpar", "plain", plain.bandwidth_gbps(&dev));
    let enabled = np_gpu_sim::dynpar::enabled_overhead_cycles(&dev, plain.cycles);
    let _ = writeln!(
        out,
        "{:>12}  {:>10}  {:9.1}",
        "0 (enabled)",
        "rdc-only",
        dev.bandwidth_gbps(total as u64 * 8, enabled)
    );
    let mut m = 4u64;
    while total as u64 / m >= 1024 {
        let (_, bw) = memcopy::run_copy_dynpar(&dev, total, m);
        let _ = writeln!(out, "{:>12}  {:>10}  {:9.1}", m, format!("n={}", total as u64 / m), bw);
        m *= 16;
    }
    out
}

/// Table 1: benchmark characteristics and per-thread resource usage,
/// derived from our kernels next to the paper's published numbers.
pub fn table1(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 1 — characteristics (ours vs paper)\n\
         {:<5} {:>3}{:>7} {:>3}  {:>4} | {:>21} | {:>21}",
        "Name", "PL", "LC", "R/S", "", "BL REG/SM/LM (ours)", "BL REG/SM/LM (paper)"
    );
    for w in all_workloads(scale) {
        let k = w.kernel();
        let row = np_workloads::spec::table1_row(w.name()).expect("known benchmark");
        let bindings: Vec<(&str, i64)> = match w.name() {
            "TMV" => vec![("h", 2048)],
            "NN" => vec![("k", 1024)],
            "SS" => vec![("npoints", 8192)],
            _ => vec![],
        };
        let c = characterize(&k, &bindings);
        let res = estimate_resources(&k, dev.max_registers_per_thread);
        let rs = if c.has_scan {
            "S"
        } else if c.has_reduction {
            "R"
        } else {
            "X"
        };
        let _ = writeln!(
            out,
            "{:<5} {:>3}{:>7} {:>3}  {:>4} | {:>6}/{:>5}/{:>5} B | {:>6}/{:>5}/{:>5} B",
            w.name(),
            c.parallel_loops,
            c.max_loop_count,
            rs,
            "",
            res.regs_per_thread * 4,
            res.shared_per_block / k.block_dim.count() as u32,
            res.local_per_thread,
            row.bl_reg,
            row.bl_sm,
            row.bl_lm,
        );
        // Paper agreement on structure is a hard requirement.
        assert_eq!(c.parallel_loops, row.pl, "{} PL", w.name());
        assert_eq!(
            rs, row.rs,
            "{} reduction/scan class",
            w.name()
        );
    }
    out
}

/// Figure 10: best CUDA-NP speedup over baseline per benchmark + GM.
pub fn fig10(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 10 — CUDA-NP speedups over baseline ({})", dev.name);
    let _ = writeln!(
        out,
        "{:<5} {:>9} {:>12} {:>12} {:>7} {:>7}",
        "Name", "speedup", "base cycles", "np cycles", "type", "slaves"
    );
    let mut speedups = Vec::new();
    for w in all_workloads(scale) {
        let r = match best_np(w.as_ref(), &dev) {
            Ok(r) => r,
            Err(e) => {
                let _ = writeln!(out, "{:<5} FAULT: {e}", w.name());
                continue;
            }
        };
        let rep = &r.tuned.best.report;
        let _ = writeln!(
            out,
            "{:<5} {:>8.2}x {:>12} {:>12} {:>7} {:>7}",
            r.name,
            r.speedup(),
            r.baseline.cycles,
            r.tuned.best_report.cycles,
            rep.np_type.map_or("?", NpType::keyword),
            rep.slave_size,
        );
        speedups.push(r.speedup());
    }
    let _ = writeln!(out, "{:<5} {:>8.2}x   (paper: 2.18x, range 1.36-6.69x)", "GM", gm(&speedups));
    out
}

/// Figure 11: inter-warp vs intra-warp across slave sizes.
pub fn fig11(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 11 — inter vs intra-warp NP by slave_size (speedup over baseline)");
    let _ = writeln!(
        out,
        "{:<5} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Name", "scheme", "s=2", "s=4", "s=8", "s=16", "s=32"
    );
    for w in all_workloads(scale) {
        let base = match run_baseline(w.as_ref(), &dev) {
            Ok(rep) => rep.cycles as f64,
            Err(e) => {
                let _ = writeln!(out, "{:<5} FAULT: {e}", w.name());
                continue;
            }
        };
        for np_type in [NpType::InterWarp, NpType::IntraWarp] {
            let mut line = format!("{:<5} {:>10}", w.name(), np_type.keyword());
            for s in [2u32, 4, 8, 16, 32] {
                let opts = NpOptions::new(s, np_type);
                match run_config(w.as_ref(), &dev, &opts) {
                    Some(rep) => {
                        let _ = write!(line, " {:>7.2}x", base / rep.cycles as f64);
                    }
                    None => {
                        let _ = write!(line, " {:>8}", "-");
                    }
                }
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Figure 12: padding vs no-padding on LE (loop count 150).
pub fn fig12(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let w = Le::new(scale);
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 12 — padding (P) vs no padding (NP) on LE, inter-warp");
    let base = match run_baseline(&w, &dev) {
        Ok(rep) => rep.cycles as f64,
        Err(e) => {
            let _ = writeln!(out, "LE    FAULT: {e}");
            return out;
        }
    };
    let _ = writeln!(out, "{:>8} {:>8} {:>10}", "slaves", "mode", "speedup");
    for (s, pad) in [
        (2u32, true),
        (3, false),
        (4, true),
        (5, false),
        (8, true),
        (10, false),
        (15, false),
        (16, true),
    ] {
        let mut opts = NpOptions::inter(s);
        opts.pad = pad;
        match run_config(&w, &dev, &opts) {
            Some(rep) => {
                let _ = writeln!(
                    out,
                    "{:>8} {:>8} {:>9.2}x",
                    s,
                    if pad { "P" } else { "NP" },
                    base / rep.cycles as f64
                );
            }
            None => {
                let _ = writeln!(out, "{:>8} {:>8} {:>10}", s, if pad { "P" } else { "NP" }, "-");
            }
        }
    }
    out
}

/// Figure 13: TMV vs CUBLAS-like vs CUDA-NP over matrix widths (h = 2k).
pub fn fig13(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let h = match scale {
        Scale::Test => 256,
        Scale::Paper => 2048,
    };
    let widths: &[usize] = match scale {
        Scale::Test => &[256, 512],
        Scale::Paper => &[1024, 2048, 4096, 8192],
    };
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 13 — TMV time (us) vs width, h={h}");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "width", "baseline", "cublas-like", "CUDA-NP", "NP vs cublas"
    );
    for &wd in widths {
        let w = Tmv::with_size(wd, h);
        let both = run_baseline(&w, &dev).and_then(|b| best_np(&w, &dev).map(|np| (b, np)));
        let (base, np) = match both {
            Ok(x) => x,
            Err(e) => {
                let _ = writeln!(out, "{wd:>8} FAULT: {e}");
                continue;
            }
        };
        // CUBLAS stand-in.
        let ck = cublas_like::cublas_tmv();
        let mut cargs = w.make_args();
        let crep =
            match launch(&dev, &ck, Dim3::x1(wd as u32 / 128), &mut cargs, &w.sim_options()) {
                Ok(c) => c,
                Err(e) => {
                    let _ = writeln!(out, "{wd:>8} FAULT: cublas-like TMV: {e}");
                    continue;
                }
            };
        let _ = writeln!(
            out,
            "{:>8} {:>12.1} {:>12.1} {:>12.1} {:>13.2}x",
            wd,
            dev.cycles_to_us(base.cycles),
            dev.cycles_to_us(crep.cycles),
            dev.cycles_to_us(np.tuned.best_report.cycles),
            crep.cycles as f64 / np.tuned.best_report.cycles as f64,
        );
    }
    out
}

/// Figure 14: MV — CUDA-NP vs CUBLAS-like vs SMM over heights (w = 2k).
pub fn fig14(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let wd = match scale {
        Scale::Test => 256,
        Scale::Paper => 2048,
    };
    let heights: &[usize] = match scale {
        Scale::Test => &[256, 512],
        Scale::Paper => &[1024, 2048, 8192, 32768, 65536],
    };
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 14 — MV time (us) vs height, w={wd}");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "height", "cublas-like", "SMM [42]", "CUDA-NP"
    );
    for &ht in heights {
        let w = Mv::with_size(wd, ht);
        // SMM == our shared-memory baseline.
        let both = run_baseline(&w, &dev).and_then(|b| best_np(&w, &dev).map(|np| (b, np)));
        let (smm, np) = match both {
            Ok(x) => x,
            Err(e) => {
                let _ = writeln!(out, "{ht:>8} FAULT: {e}");
                continue;
            }
        };
        // CUBLAS-like gemv.
        let ck = cublas_like::cublas_mv();
        let mut cargs = np_exec::Args::new()
            .buf_f32("a", np_workloads::hash_vec(0x4D56, wd * ht))
            .buf_f32("x", np_workloads::hash_vec(0x4D58, wd))
            .buf_f32("out", vec![0.0; ht])
            .i32("w", wd as i32);
        let crep =
            match launch(&dev, &ck, Dim3::x1(ht as u32 / 128), &mut cargs, &w.sim_options()) {
                Ok(c) => c,
                Err(e) => {
                    let _ = writeln!(out, "{ht:>8} FAULT: cublas-like MV: {e}");
                    continue;
                }
            };
        let _ = writeln!(
            out,
            "{:>8} {:>12.1} {:>12.1} {:>12.1}",
            ht,
            dev.cycles_to_us(crep.cycles),
            dev.cycles_to_us(smm.cycles),
            dev.cycles_to_us(np.tuned.best_report.cycles),
        );
    }
    out
}

/// Figure 15: local-array replacement strategy (global / shared / register)
/// on LE and LIB.
pub fn fig15(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 15 — local-array replacement (speedup over baseline, inter-warp s=8)");
    let _ = writeln!(out, "{:<5} {:>10} {:>10} {:>10}", "Name", "global", "shared", "register");
    let les: [Box<dyn Workload>; 2] = [Box::new(Le::new(scale)), Box::new(Lib::new(scale))];
    for w in les {
        let base = match run_baseline(w.as_ref(), &dev) {
            Ok(rep) => rep.cycles as f64,
            Err(e) => {
                let _ = writeln!(out, "{:<5} FAULT: {e}", w.name());
                continue;
            }
        };
        let mut line = format!("{:<5}", w.name());
        for strategy in [
            LocalArrayStrategy::ForceGlobal,
            LocalArrayStrategy::ForceShared,
            LocalArrayStrategy::ForceRegister,
        ] {
            let mut opts = NpOptions::inter(8);
            opts.local_array = strategy;
            match run_config(w.as_ref(), &dev, &opts) {
                Some(rep) => {
                    let _ = write!(line, " {:>9.2}x", base / rep.cycles as f64);
                }
                None => {
                    let _ = write!(line, " {:>10}", "-");
                }
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Figure 16: `__shfl` vs shared memory for the group communication under
/// intra-warp NP, normalized to the best inter-warp version.
pub fn fig16(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 16 — shfl vs shared-memory communication (intra-warp NP)");
    let _ = writeln!(
        out,
        "{:<5} {:>12} {:>12} {:>14}",
        "Name", "shfl/inter", "shared/inter", "shfl speedup"
    );
    for w in all_workloads(scale) {
        // Best inter-warp as the normalization baseline.
        let mut best_inter: Option<u64> = None;
        for s in [2u32, 4, 8, 16, 32] {
            if let Some(rep) = run_config(w.as_ref(), &dev, &NpOptions::inter(s)) {
                best_inter = Some(best_inter.map_or(rep.cycles, |b| b.min(rep.cycles)));
            }
        }
        let Some(inter) = best_inter else { continue };
        // Best intra-warp with and without shfl.
        let best = |use_shfl: bool| -> Option<u64> {
            let mut best: Option<u64> = None;
            for s in [2u32, 4, 8, 16, 32] {
                let mut opts = NpOptions::intra(s);
                opts.use_shfl = Some(use_shfl);
                if let Some(rep) = run_config(w.as_ref(), &dev, &opts) {
                    best = Some(best.map_or(rep.cycles, |b| b.min(rep.cycles)));
                }
            }
            best
        };
        let (Some(with), Some(without)) = (best(true), best(false)) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:<5} {:>11.2}x {:>11.2}x {:>13.2}x",
            w.name(),
            inter as f64 / with as f64,
            inter as f64 / without as f64,
            without as f64 / with as f64,
        );
    }
    out
}

/// Section 6: slowdown of dynamic-parallelism versions (one child launch
/// per parent thread per parallel loop) relative to the plain baseline.
/// Kernels whose parallel loops touch only global memory are *actually
/// split and run* (`cuda_np::dynpar_split`); the rest — exactly the cases
/// the paper calls out as needing manual shared/local staging — fall back
/// to the analytic launch-overhead model.
pub fn sec6(sel: &DeviceSel, scale: Scale) -> String {
    let dev = sel.speedup();
    let mut out = String::new();
    let _ = writeln!(out, "# Section 6 — dynamic-parallelism slowdowns (paper: NN 28.9x, TMV 7.6x, LE 13.4x, LIB 125.7x, CFD 52.3x)");
    let _ = writeln!(
        out,
        "{:<5} {:>10} {:>12} {:>12} {:>9}",
        "Name", "slowdown", "launches", "base cycles", "method"
    );
    for w in all_workloads(scale) {
        if !["NN", "TMV", "LE", "LIB", "CFD"].contains(&w.name()) {
            continue;
        }
        let base = match run_baseline(w.as_ref(), &dev) {
            Ok(rep) => rep,
            Err(e) => {
                let _ = writeln!(out, "{:<5} FAULT: {e}", w.name());
                continue;
            }
        };
        let k = w.kernel();
        match cuda_np::dynpar_split(&k) {
            Ok(sp) => {
                let mut args = w.make_args();
                let rep = match cuda_np::dynpar_run(&dev, &sp, w.grid(), &mut args, &w.sim_options())
                {
                    Ok(rep) => rep,
                    Err(e) => {
                        let _ = writeln!(out, "{:<5} FAULT: split run: {e}", w.name());
                        continue;
                    }
                };
                let _ = writeln!(
                    out,
                    "{:<5} {:>9.2}x {:>12} {:>12} {:>9}",
                    w.name(),
                    rep.cycles as f64 / base.cycles as f64,
                    rep.launches,
                    base.cycles,
                    "split"
                );
            }
            Err(_) => {
                // Shared/local arrays in the loops: model the overhead.
                let c = characterize(&k, &[]);
                let threads = w.grid().count() * k.block_dim.count();
                let launches = threads * c.parallel_loops.max(1) as u64;
                let plan = DynParLaunchPlan {
                    num_launches: launches,
                    child_cycles: (base.cycles / launches).max(1),
                    parent_cycles: base.cycles / 4,
                };
                let dp = dynpar_cycles(&dev, &plan);
                let _ = writeln!(
                    out,
                    "{:<5} {:>9.2}x {:>12} {:>12} {:>9}",
                    w.name(),
                    dp as f64 / base.cycles as f64,
                    launches,
                    base.cycles,
                    "model"
                );
            }
        }
    }
    out
}

/// Every experiment in paper order.
pub fn all(sel: &DeviceSel, scale: Scale) -> String {
    let mut out = String::new();
    for (name, f) in experiments() {
        let _ = writeln!(out, "\n===== {name} =====");
        out.push_str(&f(sel, scale));
    }
    out
}

type ExpFn = fn(&DeviceSel, Scale) -> String;

/// Registry of (name, function) for the binary's dispatch.
pub fn experiments() -> Vec<(&'static str, ExpFn)> {
    vec![
        ("fig01", fig01 as ExpFn),
        ("table1", table1),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("sec6", sec6),
    ]
}
