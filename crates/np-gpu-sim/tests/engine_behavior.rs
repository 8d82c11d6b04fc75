//! Behavioural tests of the timing engine beyond the unit tests: cache
//! interactions, the per-warp memory queue, issue-bandwidth accounting for
//! uncoalesced accesses, and constant/SFU/texture paths.

use np_gpu_sim::config::DeviceConfig;
use np_gpu_sim::mem::lane_addrs;
use np_gpu_sim::occupancy::{occupancy, KernelResources};
use np_gpu_sim::trace::{BlockTrace, TraceBuilder, WarpOp};
use np_gpu_sim::{simulate_blocks, TimingReport};

fn dev() -> DeviceConfig {
    DeviceConfig::small_test()
}

fn occ(d: &DeviceConfig, block: u32) -> np_gpu_sim::Occupancy {
    occupancy(
        d,
        &KernelResources {
            block_size: block,
            regs_per_thread: 8,
            shared_per_block: 0,
            local_per_thread: 0,
        },
    )
    .unwrap()
}

fn one_warp_block(ops: impl FnOnce(&mut TraceBuilder)) -> BlockTrace {
    let d = dev();
    let mut b = TraceBuilder::new(d.txn_bytes, d.l1_line);
    ops(&mut b);
    BlockTrace { warps: vec![b.finish()] }
}

fn run(blocks: &[BlockTrace], block_size: u32) -> TimingReport {
    let d = dev();
    let total = blocks.len() as u64;
    simulate_blocks(&d, &occ(&d, block_size), blocks, total)
}

#[test]
fn uncoalesced_loads_cost_more_issue_and_cycles_than_coalesced() {
    let coalesced = one_warp_block(|b| {
        for i in 0..64u64 {
            let a = lane_addrs((0..32).map(|l| (l, i * 128 + 4 * l as u64)));
            b.global(&a, 4, false);
        }
    });
    // Fresh lines every iteration so the cache cannot mask the stride
    // (each access touches 32 brand-new segments).
    let strided = one_warp_block(|b| {
        for i in 0..64u64 {
            let a = lane_addrs((0..32).map(|l| (l, (i * 32 + l as u64) * 4096)));
            b.global(&a, 4, false);
        }
    });
    let rc = run(&[coalesced], 32);
    let rs = run(&[strided], 32);
    assert_eq!(rc.global_txns, 64);
    assert_eq!(rs.global_txns, 64 * 32);
    // With a single warp both runs are latency-dominated, so the
    // throughput penalty shows as ~2x rather than 32x; the transaction
    // counts above capture the full waste.
    assert!(
        rs.cycles > rc.cycles * 3 / 2,
        "stride-4KB loads should be slower: {} vs {}",
        rs.cycles,
        rc.cycles
    );
}

#[test]
fn l2_absorbs_repeated_global_traffic() {
    // The same 8 lines read 64 times: after the cold pass everything hits L2.
    let bt = one_warp_block(|b| {
        for rep in 0..64u64 {
            let line = (rep % 8) * 128;
            let a = lane_addrs((0..32).map(|l| (l, line + 4 * l as u64)));
            b.global(&a, 4, false);
        }
    });
    let r = run(&[bt], 32);
    assert_eq!(r.l2_misses, 8, "only cold misses reach DRAM");
    assert_eq!(r.l2_hits, 56);
}

#[test]
fn memory_queue_overlaps_independent_loads() {
    // N dependent-latency loads: with queue depth 2 (test device), total
    // time is roughly N/2 * latency rather than N * latency.
    let d = dev();
    let mk = |n: u64| {
        one_warp_block(|b| {
            for i in 0..n {
                let a = lane_addrs((0..32).map(|l| (l, i * 8192 + 4 * l as u64)));
                b.global(&a, 4, false);
            }
        })
    };
    let r = run(&[mk(32)], 32);
    let serial_estimate = 32 * d.global_latency as u64;
    assert!(
        r.cycles < serial_estimate,
        "queue must overlap latency: {} vs fully-serial {}",
        r.cycles,
        serial_estimate
    );
    // But it cannot be free either: at least one full round of latency.
    assert!(r.cycles > d.global_latency as u64);
}

#[test]
fn barrier_drains_the_memory_queue() {
    // A load right before a barrier must complete before the barrier
    // releases, even though the queue would otherwise let the warp run on.
    let d = dev();
    let mut b0 = TraceBuilder::new(d.txn_bytes, d.l1_line);
    let a = lane_addrs((0..32).map(|l| (l, 4 * l as u64)));
    b0.global(&a, 4, false);
    b0.bar();
    b0.alu(1);
    let mut b1 = TraceBuilder::new(d.txn_bytes, d.l1_line);
    b1.bar();
    b1.alu(1);
    let bt = BlockTrace { warps: vec![b0.finish(), b1.finish()] };
    let r = run(&[bt], 64);
    assert!(
        r.cycles >= d.global_latency as u64,
        "barrier must wait for the in-flight load: {}",
        r.cycles
    );
}

#[test]
fn constant_serialization_costs_scale_with_distinct_words() {
    let broadcast = one_warp_block(|b| {
        for _ in 0..256 {
            b.push_raw(WarpOp::ConstLoad { words: 1 });
        }
    });
    let divergent = one_warp_block(|b| {
        for _ in 0..256 {
            b.push_raw(WarpOp::ConstLoad { words: 32 });
        }
    });
    let rb = run(&[broadcast], 32);
    let rd = run(&[divergent], 32);
    assert_eq!(rb.const_serializations, 0);
    assert_eq!(rd.const_serializations, 256 * 31);
    assert!(rd.cycles > rb.cycles * 3, "{} vs {}", rd.cycles, rb.cycles);
}

#[test]
fn sfu_ops_cost_more_than_alu() {
    let alu = one_warp_block(|b| b.alu(512));
    let sfu = one_warp_block(|b| b.sfu(512));
    let ra = run(&[alu], 32);
    let rs = run(&[sfu], 32);
    assert!(rs.cycles > 2 * ra.cycles, "sfu {} vs alu {}", rs.cycles, ra.cycles);
}

#[test]
fn texture_cache_hits_avoid_dram() {
    let bt = one_warp_block(|b| {
        for rep in 0..32u64 {
            let _ = rep;
            b.push_raw(WarpOp::TexLoad { lines: vec![0] });
        }
    });
    let r = run(&[bt], 32);
    assert_eq!(r.tex_misses, 1);
    assert_eq!(r.tex_hits, 31);
    assert_eq!(r.l2_misses, 1, "only the cold fill reaches L2/DRAM");
}

#[test]
fn shared_replays_slow_the_block_down() {
    let clean = one_warp_block(|b| {
        for _ in 0..256 {
            b.push_raw(WarpOp::SharedLoad { passes: 1 });
        }
    });
    let conflicted = one_warp_block(|b| {
        for _ in 0..256 {
            b.push_raw(WarpOp::SharedLoad { passes: 32 });
        }
    });
    let rc = run(&[clean], 32);
    let rx = run(&[conflicted], 32);
    assert_eq!(rx.shared_replays, 256 * 31);
    assert!(rx.cycles > rc.cycles * 2, "{} vs {}", rx.cycles, rc.cycles);
}

#[test]
fn stores_do_not_block_the_warp_but_loads_do() {
    let d = dev();
    let stores = one_warp_block(|b| {
        for i in 0..64u64 {
            let a = lane_addrs((0..32).map(|l| (l, i * 8192 + 4 * l as u64)));
            b.global(&a, 4, true);
        }
    });
    let loads = one_warp_block(|b| {
        for i in 0..64u64 {
            let a = lane_addrs((0..32).map(|l| (l, i * 8192 + 4 * l as u64)));
            b.global(&a, 4, false);
        }
    });
    let rs = run(&[stores], 32);
    let rl = run(&[loads], 32);
    assert!(
        rs.cycles < rl.cycles,
        "write-buffer stores ({}) should beat blocking loads ({})",
        rs.cycles,
        rl.cycles
    );
    let _ = d;
}

#[test]
fn more_resident_blocks_speed_up_latency_bound_grids() {
    // Identical latency-bound blocks: running them 8-at-a-time beats
    // 1-at-a-time (wave effects on the same device).
    let d = dev();
    let mk = |seed: u64| {
        one_warp_block(|b| {
            for i in 0..16u64 {
                let a = lane_addrs(
                    (0..32).map(|l| (l, seed * 1_000_000 + i * 8192 + 4 * l as u64)),
                );
                b.global(&a, 4, false);
                b.alu(2);
            }
        })
    };
    let blocks: Vec<BlockTrace> = (0..8).map(|s| mk(s as u64)).collect();
    let occ_high = occ(&d, 32);
    let r_high = simulate_blocks(&d, &occ_high, &blocks, 8);
    let occ_low = occupancy(
        &d,
        &KernelResources {
            block_size: 32,
            regs_per_thread: 8,
            shared_per_block: d.shared_mem_per_smx,
            local_per_thread: 0,
        },
    )
    .unwrap();
    assert_eq!(occ_low.blocks_per_smx, 1);
    let r_low = simulate_blocks(&d, &occ_low, &blocks, 8);
    assert!(
        r_low.cycles > r_high.cycles,
        "1 block/SMX ({}) must be slower than 8 ({})",
        r_low.cycles,
        r_high.cycles
    );
}
