//! Calibration probe (ignored, never a gate): dumps the cost model's
//! static score next to measured cycles, profile counters, and stall
//! attribution for every tuner candidate of every workload, marking the
//! measured winner — the raw material for retuning the model's
//! constants. Run it with:
//!
//! ```text
//! cargo test --release -p np-harness --test model_probe -- --ignored --nocapture
//! ```
use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{CostModel, Transformed, TunePolicy};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::analysis::pragma_loop_trips;
use np_workloads::{all_workloads, Scale};

#[test]
#[ignore]
fn dump_scores_vs_cycles() {
    for dev in [DeviceConfig::gtx680()] {
        for w in all_workloads(Scale::Test) {
            let kernel = w.kernel();
            let candidates = default_candidates(kernel.block_dim.x, 1024);
            let sim = w.sim_options();
            let grid = w.grid();
            let make_args = |t: &Transformed| alloc_extra_buffers(w.make_args(), t, grid);
            let policy = TunePolicy::Exhaustive;
            let r = autotune_with_policy(&kernel, &dev, grid, &make_args, &sim, &candidates, policy)
                .unwrap()
                .result;
            let model = CostModel::from_kernel(&kernel, &dev);
            println!(
                "== {} @ {}  block={} grid={}",
                w.name(),
                dev.name,
                kernel.block_dim.count(),
                grid.count()
            );
            for l in pragma_loop_trips(&kernel.body) {
                println!(
                    "  loop {} trip={:?} loads={} stores={} branches={} red={} scan={} sel={}",
                    l.var, l.trip, l.loads, l.stores, l.branches,
                    l.has_reduction, l.has_scan, l.has_select
                );
            }
            for (i, (c, e)) in candidates.iter().zip(&r.entries).enumerate() {
                let (txn, sh_rep, barr, div, instr) = e
                    .profile
                    .as_ref()
                    .map(|p| {
                        (
                            p.global_transactions,
                            p.bank_conflict_replays,
                            p.barrier_waits,
                            p.divergent_instructions,
                            p.instructions,
                        )
                    })
                    .unwrap_or_default();
                let stall = e.stall.as_ref().map(|s| {
                    format!(
                        "iss={} mem={} dram={} bar={} sb={} nores={}",
                        s.issue, s.memory_pending, s.dram_saturated,
                        s.barrier_wait, s.scoreboard_dependency, s.no_block_resident
                    )
                });
                println!(
                    "  [{i}] {:?} s={} score={:.0} cycles={:?} txn={txn} shrep={sh_rep} bar={barr} div={div} instr={instr} {}{}",
                    c.opts.np_type,
                    c.opts.slave_size,
                    model.score(c),
                    e.cycles(),
                    stall.unwrap_or_default(),
                    if i == r.best_index { "  <== WINNER" } else { "" }
                );
            }
        }
    }
}
