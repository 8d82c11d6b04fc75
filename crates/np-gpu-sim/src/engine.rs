//! Event-driven SMX timing engine.
//!
//! The engine consumes per-warp instruction traces ([`crate::trace`]) and
//! schedules them on a device: each SMX issues up to `issue_per_cycle` warp
//! instructions per cycle, round-robin among ready warps (earliest-ready
//! first); memory instructions park the warp for their latency; all SMXs
//! share one DRAM interface with finite bandwidth; local/texture accesses
//! probe per-SMX caches; `__syncthreads` implements a block-wide barrier.
//!
//! Modelling notes (first-order, deliberately):
//! * one outstanding memory instruction per warp (no intra-warp MLP) — this
//!   biases low-occupancy kernels toward latency-boundedness, which is the
//!   regime the paper's argument lives in;
//! * in-order single-entry scoreboard per warp: an `Alu { count }` run is
//!   pipelined (1 instruction/cycle) with the dependent-use latency paid
//!   once at the end of the run.
//!
//! Time is kept in *ticks* ([`TICKS_PER_CYCLE`] per cycle) so that sub-cycle
//! DRAM service times stay integral.

use crate::config::{DeviceConfig, TICKS_PER_CYCLE};
use crate::mem::cache::Cache;
use crate::occupancy::Occupancy;
use crate::stats::TimingReport;
use crate::timeline::{SmxState, Timeline};
use crate::trace::{BlockTrace, WarpOp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct WarpRt<'t> {
    /// The warp's trace, borrowed from the caller; empty while the slot is
    /// free.
    ops: &'t [WarpOp],
    pc: usize,
    block: usize,
    active: bool,
    /// In-flight long-latency memory ops (bounded by `mem_queue_depth`):
    /// completion tick plus whether the access queued at the DRAM
    /// interface (bandwidth-bound rather than latency-bound).
    pending: Vec<(u64, bool)>,
    /// Why this warp is currently unready — the stall reason charged to the
    /// scheduler gap it ends when it next issues.
    wait: SmxState,
}

#[derive(Debug)]
struct BlockRt {
    smx: usize,
    warp_slots: Vec<usize>,
    live_warps: u32,
    bar_count: u32,
    bar_max: u64,
    finish_max: u64,
    active: bool,
}

struct Smx {
    issue_free: u64,
    l1: Cache,
    tex: Cache,
    resident_blocks: u32,
}

/// The engine state of one [`simulate_blocks`] call over traces that live
/// for `'t`.
struct Engine<'d, 't> {
    dev: &'d DeviceConfig,
    tick_per_issue: u64,
    txn_ticks: u64,
    dram_free: u64,
    l2: Cache,
    smxs: Vec<Smx>,
    warps: Vec<WarpRt<'t>>,
    free_warps: Vec<usize>,
    blocks: Vec<BlockRt>,
    free_blocks: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    end_time: u64,
    stats: TimingReport,
    timeline: Timeline,
}

impl<'d, 't> Engine<'d, 't> {
    fn new(dev: &'d DeviceConfig) -> Self {
        let smxs = (0..dev.num_smx)
            .map(|_| Smx {
                issue_free: 0,
                l1: Cache::new(dev.l1_bytes, dev.l1_line, dev.l1_assoc),
                tex: Cache::new(dev.tex_cache_bytes, dev.l1_line, dev.l1_assoc),
                resident_blocks: 0,
            })
            .collect();
        Engine {
            dev,
            tick_per_issue: (TICKS_PER_CYCLE / dev.issue_per_cycle as u64).max(1),
            txn_ticks: ((dev.txn_bytes as u64 * TICKS_PER_CYCLE)
                / dev.dram_bytes_per_cycle as u64)
                .max(1),
            dram_free: 0,
            l2: Cache::new(dev.l2_bytes, dev.txn_bytes, dev.l2_assoc),
            smxs,
            warps: Vec::new(),
            free_warps: Vec::new(),
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            end_time: 0,
            stats: TimingReport::default(),
            timeline: Timeline::new(dev.num_smx as usize),
        }
    }

    #[inline]
    fn tk(c: u64) -> u64 {
        c * TICKS_PER_CYCLE
    }

    fn push_event(&mut self, t: u64, warp: usize) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, warp)));
    }

    /// Record a long-latency memory completion in the warp's in-flight
    /// queue. The warp proceeds immediately while fewer than
    /// `mem_queue_depth` ops are outstanding, and otherwise blocks on the
    /// oldest one — approximating compiler-scheduled memory-level
    /// parallelism without per-register dependence tracking. Returns the
    /// warp's ready time plus the stall reason that wait represents.
    fn queue_mem(
        &mut self,
        wslot: usize,
        t_issue: u64,
        completion: u64,
        dram_queued: bool,
    ) -> (u64, SmxState) {
        let depth = self.dev.mem_queue_depth.max(1) as usize;
        let pending = &mut self.warps[wslot].pending;
        pending.push((completion, dram_queued));
        if pending.len() <= depth {
            (t_issue + Self::tk(2), SmxState::ScoreboardDependency)
        } else {
            let oldest = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, _))| t)
                .map(|(i, _)| i)
                .expect("non-empty");
            let (done, queued) = pending.swap_remove(oldest);
            let reason = if queued { SmxState::DramSaturated } else { SmxState::MemoryPending };
            (done.max(t_issue), reason)
        }
    }

    /// Drain the warp's in-flight memory queue (barriers, warp exit).
    fn drain_mem(&mut self, wslot: usize, t: u64) -> u64 {
        let pending = &mut self.warps[wslot].pending;
        let max = pending.iter().map(|&(t, _)| t).fold(t, u64::max);
        pending.clear();
        max
    }

    /// Occupy the shared DRAM interface for `txns` transactions arriving at
    /// `t_issue` — the single accumulation site for `dram_busy_cycles`.
    /// Returns the tick at which the interface finishes this batch and
    /// whether the batch had to queue behind earlier traffic (the signal
    /// behind [`SmxState::DramSaturated`]).
    fn dram_transfer(&mut self, t_issue: u64, txns: u64) -> (u64, bool) {
        let start = t_issue.max(self.dram_free);
        let busy = txns * self.txn_ticks;
        self.dram_free = start + busy;
        self.stats.dram_busy_cycles += busy / TICKS_PER_CYCLE;
        (self.dram_free, start > t_issue)
    }

    /// Serve a set of L1/tex-missed lines through L2 and DRAM; returns the
    /// extra latency in ticks (0 lines = an L1 hit) and whether the request
    /// queued at DRAM. When `blocking` is false only the
    /// bandwidth/occupancy effects are applied.
    fn serve_through_l2(&mut self, t_issue: u64, missed: &[u64], blocking: bool) -> (u64, bool) {
        if missed.is_empty() {
            return (Self::tk(self.dev.l1_hit_latency as u64), false);
        }
        let mut dram_misses = 0u64;
        for line in missed {
            if self.l2.access(*line) {
                self.stats.l2_hits += 1;
            } else {
                self.stats.l2_misses += 1;
                dram_misses += 1;
            }
        }
        if dram_misses > 0 {
            let (done, queued) = self.dram_transfer(t_issue, dram_misses);
            if blocking {
                return ((done - t_issue) + Self::tk(self.dev.global_latency as u64), queued);
            }
        }
        if blocking {
            (Self::tk(self.dev.l2_latency as u64) + Self::tk(missed.len() as u64 - 1), false)
        } else {
            (0, false)
        }
    }

    fn install_block(
        &mut self,
        smx: usize,
        trace: &'t BlockTrace,
        start: u64,
        blocks_per_smx: u32,
    ) {
        debug_assert!(self.smxs[smx].resident_blocks < blocks_per_smx);
        // The CUDA contract: every warp of a block must execute the same
        // number of barriers, otherwise behaviour is undefined. Both trace
        // producers guarantee it: the interpreter faults on a divergent
        // barrier and the trace decoder rejects a block whose warps
        // disagree.
        let bar_counts: Vec<usize> = trace
            .warps
            .iter()
            .map(|w| w.ops.iter().filter(|o| matches!(o, WarpOp::Bar)).count())
            .collect();
        assert!(
            bar_counts.windows(2).all(|w| w[0] == w[1]),
            "warps of one block executed different numbers of barriers: {bar_counts:?}"
        );

        let block_slot = self.free_blocks.pop().unwrap_or_else(|| {
            self.blocks.push(BlockRt {
                smx: 0,
                warp_slots: Vec::new(),
                live_warps: 0,
                bar_count: 0,
                bar_max: 0,
                finish_max: 0,
                active: false,
            });
            self.blocks.len() - 1
        });

        let mut warp_slots = Vec::with_capacity(trace.warps.len());
        let mut live = 0;
        for wt in &trace.warps {
            if wt.ops.is_empty() {
                continue;
            }
            let wslot = self.free_warps.pop().unwrap_or_else(|| {
                self.warps.push(WarpRt {
                    ops: &[],
                    pc: 0,
                    block: 0,
                    active: false,
                    pending: Vec::new(),
                    wait: SmxState::NoBlockResident,
                });
                self.warps.len() - 1
            });
            self.warps[wslot] = WarpRt {
                ops: &wt.ops,
                pc: 0,
                block: block_slot,
                active: true,
                pending: Vec::new(),
                // Until its first issue the warp is inside the block-launch
                // window; a gap it ends counts as no-block-resident time.
                wait: SmxState::NoBlockResident,
            };
            warp_slots.push(wslot);
            live += 1;
        }

        self.blocks[block_slot] = BlockRt {
            smx,
            warp_slots: warp_slots.clone(),
            live_warps: live,
            bar_count: 0,
            bar_max: 0,
            finish_max: start,
            active: true,
        };
        self.smxs[smx].resident_blocks += 1;
        self.stats.blocks_simulated += 1;
        if live == 0 {
            // A block of empty traces still occupies the slot momentarily.
            self.retire_block(block_slot, start);
            return;
        }
        for w in warp_slots {
            self.push_event(start, w);
        }
    }

    fn retire_block(&mut self, block_slot: usize, _at: u64) {
        let smx = self.blocks[block_slot].smx;
        let slots = std::mem::take(&mut self.blocks[block_slot].warp_slots);
        for w in slots {
            self.warps[w].active = false;
            self.warps[w].ops = &[];
            self.free_warps.push(w);
        }
        self.blocks[block_slot].active = false;
        self.free_blocks.push(block_slot);
        self.smxs[smx].resident_blocks -= 1;
    }

    /// Run the simulation to completion, installing blocks in order as
    /// SMX slots free up. `blocks_total` is the logical grid size; if fewer
    /// blocks are given the result is scaled up linearly (wave sampling).
    fn run(
        mut self,
        occ: &Occupancy,
        blocks: &'t [BlockTrace],
        blocks_total: u64,
    ) -> TimingReport {
        let mut source = blocks.iter();
        let launch = Self::tk(self.dev.block_launch_cost as u64);
        // Initial fill, round-robin across SMXs like the hardware work
        // distributor.
        'fill: for _round in 0..occ.blocks_per_smx {
            for smx in 0..self.smxs.len() {
                match source.next() {
                    Some(bt) => self.install_block(smx, bt, launch, occ.blocks_per_smx),
                    None => break 'fill,
                }
            }
        }

        while let Some(Reverse((t, _, wslot))) = self.heap.pop() {
            debug_assert!(self.warps[wslot].active);
            let block_slot = self.warps[wslot].block;
            let smx_id = self.blocks[block_slot].smx;

            if self.warps[wslot].pc >= self.warps[wslot].ops.len() {
                // Warp finished (its last op completed at `t`, pending
                // memory drains now). The scheduler gap it ends is charged
                // to whatever it was waiting on.
                self.timeline.record_stall(
                    smx_id,
                    t / TICKS_PER_CYCLE,
                    self.warps[wslot].wait,
                );
                let drained = self.drain_mem(wslot, t);
                self.warps[wslot].active = false;
                let b = &mut self.blocks[block_slot];
                b.live_warps -= 1;
                b.finish_max = b.finish_max.max(drained);
                if b.live_warps == 0 {
                    let completion = b.finish_max;
                    let smx = b.smx;
                    self.retire_block(block_slot, completion);
                    if let Some(bt) = source.next() {
                        self.install_block(smx, bt, completion + launch, occ.blocks_per_smx);
                    }
                }
                continue;
            }

            let t_issue = t.max(self.smxs[smx_id].issue_free);
            // The op is read in place: the traces outlive the engine.
            let (ops, pc) = (self.warps[wslot].ops, self.warps[wslot].pc);
            let op = &ops[pc];
            self.warps[wslot].pc += 1;

            // The reason this warp was unready until now; it was the
            // earliest-ready warp on the SMX, so the scheduler gap it ends
            // is charged to that reason.
            let gap_reason = self.warps[wslot].wait;
            // Instructions actually issued by this op (folded runs count
            // fully); port slots held beyond these are IssueLimit time.
            let n_instr: u64 = match &op {
                WarpOp::Alu { count } | WarpOp::Sfu { count } => *count as u64,
                _ => 1,
            };

            let mut ready = t_issue;
            let mut at_barrier = false;
            let mut wait = SmxState::ScoreboardDependency;
            match op {
                WarpOp::Alu { count } => {
                    let c = *count as u64;
                    self.smxs[smx_id].issue_free = t_issue + c * self.tick_per_issue;
                    ready = t_issue + Self::tk(c - 1) + Self::tk(self.dev.alu_latency as u64);
                    self.stats.instructions += c;
                }
                WarpOp::Sfu { count } => {
                    let c = *count as u64;
                    self.smxs[smx_id].issue_free = t_issue + 4 * c * self.tick_per_issue;
                    ready =
                        t_issue + Self::tk(4 * (c - 1)) + Self::tk(self.dev.sfu_latency as u64);
                    self.stats.instructions += c;
                }
                WarpOp::GlobalLoad { segs, bytes } => {
                    // Each transaction occupies a load-store-unit slot.
                    self.smxs[smx_id].issue_free =
                        t_issue + segs.len() as u64 * self.tick_per_issue;
                    let mut misses = 0u64;
                    for seg in segs {
                        if self.l2.access(*seg) {
                            self.stats.l2_hits += 1;
                        } else {
                            self.stats.l2_misses += 1;
                            misses += 1;
                        }
                    }
                    self.stats.instructions += 1;
                    self.stats.global_txns += segs.len() as u64;
                    self.stats.global_bytes += *bytes as u64;
                    let (completion, queued) = if misses > 0 {
                        let (done, queued) = self.dram_transfer(t_issue, misses);
                        (done + Self::tk(self.dev.global_latency as u64), queued)
                    } else {
                        (
                            t_issue
                                + Self::tk(self.dev.l2_latency as u64)
                                + Self::tk(segs.len() as u64 - 1),
                            false,
                        )
                    };
                    (ready, wait) = self.queue_mem(wslot, t_issue, completion, queued);
                }
                WarpOp::GlobalStore { segs, bytes } => {
                    self.smxs[smx_id].issue_free =
                        t_issue + segs.len() as u64 * self.tick_per_issue;
                    // Write-allocate into L2; only misses generate DRAM
                    // traffic. Stores retire through the write path without
                    // stalling the warp.
                    let mut misses = 0u64;
                    for seg in segs {
                        if self.l2.access(*seg) {
                            self.stats.l2_hits += 1;
                        } else {
                            self.stats.l2_misses += 1;
                            misses += 1;
                        }
                    }
                    if misses > 0 {
                        let _ = self.dram_transfer(t_issue, misses);
                    }
                    ready = t_issue + Self::tk(4);
                    self.stats.instructions += 1;
                    self.stats.global_txns += segs.len() as u64;
                    self.stats.global_bytes += *bytes as u64;
                }
                WarpOp::SharedLoad { passes } => {
                    let p = *passes as u64;
                    self.smxs[smx_id].issue_free = t_issue + p * self.tick_per_issue;
                    ready = t_issue
                        + Self::tk(
                            self.dev.shared_latency as u64
                                + (p - 1) * self.dev.shared_replay_cost as u64,
                        );
                    self.stats.instructions += 1;
                    self.stats.shared_accesses += 1;
                    self.stats.shared_replays += p - 1;
                }
                WarpOp::SharedStore { passes } => {
                    let p = *passes as u64;
                    self.smxs[smx_id].issue_free = t_issue + p * self.tick_per_issue;
                    ready = t_issue + Self::tk(2 + (p - 1) * self.dev.shared_replay_cost as u64);
                    self.stats.instructions += 1;
                    self.stats.shared_accesses += 1;
                    self.stats.shared_replays += p - 1;
                }
                WarpOp::LocalLoad { lines } => {
                    self.smxs[smx_id].issue_free =
                        t_issue + lines.len() as u64 * self.tick_per_issue;
                    let mut l1_misses: Vec<u64> = Vec::new();
                    for line in lines {
                        if self.smxs[smx_id].l1.access(*line) {
                            self.stats.l1_hits += 1;
                        } else {
                            self.stats.l1_misses += 1;
                            l1_misses.push(*line);
                        }
                    }
                    self.stats.instructions += 1;
                    let (lat, queued) = self.serve_through_l2(t_issue, &l1_misses, true);
                    (ready, wait) = self.queue_mem(wslot, t_issue, t_issue + lat, queued);
                }
                WarpOp::LocalStore { lines } => {
                    self.smxs[smx_id].issue_free =
                        t_issue + lines.len() as u64 * self.tick_per_issue;
                    let mut l1_misses: Vec<u64> = Vec::new();
                    for line in lines {
                        if self.smxs[smx_id].l1.access(*line) {
                            self.stats.l1_hits += 1;
                        } else {
                            self.stats.l1_misses += 1;
                            l1_misses.push(*line);
                        }
                    }
                    self.stats.instructions += 1;
                    // Fills happen below the store; the warp is not stalled.
                    let _ = self.serve_through_l2(t_issue, &l1_misses, false);
                    ready = t_issue + Self::tk(4);
                }
                WarpOp::TexLoad { lines } => {
                    self.smxs[smx_id].issue_free =
                        t_issue + lines.len() as u64 * self.tick_per_issue;
                    let mut t_misses: Vec<u64> = Vec::new();
                    for line in lines {
                        if self.smxs[smx_id].tex.access(*line) {
                            self.stats.tex_hits += 1;
                        } else {
                            self.stats.tex_misses += 1;
                            t_misses.push(*line);
                        }
                    }
                    self.stats.instructions += 1;
                    let (lat, queued) = self.serve_through_l2(t_issue, &t_misses, true);
                    (ready, wait) = self.queue_mem(wslot, t_issue, t_issue + lat, queued);
                }
                WarpOp::ConstLoad { words } => {
                    let w = *words as u64;
                    self.smxs[smx_id].issue_free = t_issue + w * self.tick_per_issue;
                    ready = t_issue
                        + Self::tk(
                            self.dev.const_latency as u64
                                + (w - 1) * self.dev.const_serialize_cost as u64,
                        );
                    self.stats.instructions += 1;
                    self.stats.const_serializations += w - 1;
                }
                WarpOp::Shfl { .. } => {
                    self.smxs[smx_id].issue_free = t_issue + self.tick_per_issue;
                    ready = t_issue + Self::tk(self.dev.shfl_latency as u64);
                    self.stats.instructions += 1;
                    self.stats.shfl_ops += 1;
                }
                WarpOp::Bar => {
                    self.stats.instructions += 1;
                    self.stats.barriers += 1;
                    at_barrier = true;
                    wait = SmxState::BarrierWait;
                    let drained = self.drain_mem(wslot, t_issue);
                    let b = &mut self.blocks[block_slot];
                    b.bar_count += 1;
                    b.bar_max =
                        b.bar_max.max(drained + Self::tk(self.dev.barrier_cost as u64));
                    if b.bar_count == b.live_warps {
                        let release = b.bar_max;
                        b.bar_count = 0;
                        b.bar_max = 0;
                        let slots = b.warp_slots.clone();
                        for w in slots {
                            if self.warps[w].active {
                                self.warps[w].wait = SmxState::BarrierWait;
                                self.push_event(release, w);
                            }
                        }
                    }
                }
            }

            // Flight-recorder attribution for this scheduler decision: the
            // gap before the issue (stall), the issue slots themselves, and
            // any extra serialized port slots (IssueLimit). A barrier holds
            // the port for one slot even though `issue_free` is untouched.
            let port_end = self.smxs[smx_id].issue_free.max(t_issue + self.tick_per_issue);
            let instr_end = (t_issue + n_instr * self.tick_per_issue).min(port_end);
            self.timeline.record_issue(
                smx_id,
                gap_reason,
                t_issue / TICKS_PER_CYCLE,
                instr_end.div_ceil(TICKS_PER_CYCLE),
                port_end.div_ceil(TICKS_PER_CYCLE),
            );
            self.warps[wslot].wait = wait;

            self.end_time = self
                .end_time
                .max(ready)
                .max(self.warps[wslot].pending.iter().map(|&(t, _)| t).max().unwrap_or(0));

            if at_barrier {
                // The warp was either parked (waiting for peers) or already
                // re-queued by the barrier release above.
                continue;
            }

            // Completion (pc may now equal ops.len()) is detected at the
            // next pop, so barrier releases and normal advances share one
            // path.
            self.push_event(ready, wslot);
        }

        // The launch is not over until every pipeline drains: the DRAM
        // interface and each SMX's issue port may still be busy past the
        // last warp's ready time (trailing stores). Folding them in keeps
        // `dram_busy_cycles <= simulated_cycles` and lets the timeline tile
        // exactly.
        self.end_time = self.end_time.max(self.dram_free);
        for smx in &self.smxs {
            self.end_time = self.end_time.max(smx.issue_free);
        }
        let simulated_cycles = self.end_time.div_ceil(TICKS_PER_CYCLE);
        self.timeline.finish(simulated_cycles);
        if let Err(e) = self.timeline.check_total_attribution() {
            debug_assert!(false, "stall attribution must be total: {e}");
        }
        let mut stats = self.stats;
        stats.stall = self.timeline.total();
        stats.timeline = self.timeline;
        stats.simulated_cycles = simulated_cycles;
        stats.blocks_total = blocks_total.max(stats.blocks_simulated);
        stats.cycles = if stats.blocks_simulated > 0 && stats.blocks_total > stats.blocks_simulated
        {
            (simulated_cycles as u128 * stats.blocks_total as u128
                / stats.blocks_simulated as u128) as u64
        } else {
            simulated_cycles
        };
        stats
    }
}

/// Time a launch's block traces, in block order, on `dev`; `occ` bounds
/// the resident blocks per SMX. The engine's one entry point.
pub fn simulate_blocks(
    dev: &DeviceConfig,
    occ: &Occupancy,
    blocks: &[BlockTrace],
    blocks_total: u64,
) -> TimingReport {
    Engine::new(dev).run(occ, blocks, blocks_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::{occupancy, KernelResources};
    use crate::trace::TraceBuilder;

    fn dev() -> DeviceConfig {
        DeviceConfig::small_test()
    }

    fn occ_for(dev: &DeviceConfig, block_size: u32, regs: u32, shared: u32) -> Occupancy {
        occupancy(
            dev,
            &KernelResources {
                block_size,
                regs_per_thread: regs,
                shared_per_block: shared,
                local_per_thread: 0,
            },
        )
        .unwrap()
    }

    fn alu_block(warps: usize, count: u16) -> BlockTrace {
        let mut bt = BlockTrace::default();
        for _ in 0..warps {
            let mut b = TraceBuilder::new(128, 128);
            b.alu(count);
            bt.warps.push(b.finish());
        }
        bt
    }

    #[test]
    fn single_alu_warp_cycle_count() {
        let d = dev();
        let occ = occ_for(&d, 32, 8, 0);
        let r = simulate_blocks(&d, &occ, &[alu_block(1, 10)], 1);
        // launch + (count-1) + alu_latency, within rounding.
        let expect = d.block_launch_cost as u64 + 9 + d.alu_latency as u64;
        assert!(
            r.cycles >= expect && r.cycles <= expect + 2,
            "cycles {} vs expected ~{expect}",
            r.cycles
        );
        assert_eq!(r.instructions, 10);
    }

    #[test]
    fn memory_bound_kernel_saturates_dram() {
        let d = dev();
        let occ = occ_for(&d, 256, 8, 0);
        // Many warps each doing lots of coalesced loads+stores: the DRAM
        // interface must become the bottleneck.
        let mut blocks = Vec::new();
        for blk in 0..8u64 {
            let mut bt = BlockTrace::default();
            for w in 0..8u64 {
                let mut b = TraceBuilder::new(d.txn_bytes, d.l1_line);
                for i in 0..64u64 {
                    let base = (blk * 8 + w) * 64 * 128 + i * 128;
                    let addrs = crate::mem::lane_addrs(
                        (0..32).map(|l| (l, base + 4 * l as u64)),
                    );
                    b.global(&addrs, 4, false);
                    b.global(&addrs, 4, true);
                }
                bt.warps.push(b.finish());
            }
            blocks.push(bt);
        }
        let r = simulate_blocks(&d, &occ, &blocks, 8);
        assert!(
            r.dram_utilization() > 0.8,
            "expected DRAM-bound, utilization {}",
            r.dram_utilization()
        );
        // DRAM-level traffic can never exceed the interface's peak rate
        // (application-level bytes can, via L2 hits).
        let dram_bytes = r.l2_misses * d.txn_bytes as u64;
        let dram_bw = d.bandwidth_gbps(dram_bytes, r.cycles);
        assert!(dram_bw <= d.peak_bandwidth_gbps() + 1e-9, "dram bw {dram_bw}");
        let bw = d.bandwidth_gbps(r.global_bytes, r.cycles);
        assert!(bw > 0.6 * d.peak_bandwidth_gbps(), "bw {bw}");
    }

    #[test]
    fn more_warps_hide_latency() {
        let d = dev();
        // One warp doing dependent loads vs 8 warps doing the same amount of
        // total work: the 8-warp version must be substantially faster.
        let load_block = |warps: u64, loads_per_warp: u64| {
            let mut bt = BlockTrace::default();
            for w in 0..warps {
                let mut b = TraceBuilder::new(d.txn_bytes, d.l1_line);
                for i in 0..loads_per_warp {
                    let base = (w * loads_per_warp + i) * 4096;
                    let addrs =
                        crate::mem::lane_addrs((0..32).map(|l| (l, base + 4 * l as u64)));
                    b.global(&addrs, 4, false);
                    b.alu(4);
                }
                bt.warps.push(b.finish());
            }
            bt
        };
        let occ1 = occ_for(&d, 32, 8, 0);
        let r1 = simulate_blocks(&d, &occ1, &[load_block(1, 64)], 1);
        let occ8 = occ_for(&d, 256, 8, 0);
        let r8 = simulate_blocks(&d, &occ8, &[load_block(8, 8)], 1);
        assert!(
            r8.cycles * 3 < r1.cycles,
            "8 warps ({}) should be >3x faster than 1 warp ({})",
            r8.cycles,
            r1.cycles
        );
    }

    #[test]
    fn barrier_synchronizes_warps() {
        let d = dev();
        let occ = occ_for(&d, 64, 8, 0);
        // Warp 0 does long work then Bar; warp 1 does Bar immediately then
        // short work. Total must reflect warp 1 waiting for warp 0.
        let mut bt = BlockTrace::default();
        let mut b0 = TraceBuilder::new(128, 128);
        b0.alu(1000);
        b0.bar();
        b0.alu(1);
        bt.warps.push(b0.finish());
        let mut b1 = TraceBuilder::new(128, 128);
        b1.bar();
        b1.alu(1);
        bt.warps.push(b1.finish());
        let r = simulate_blocks(&d, &occ, &[bt], 1);
        assert!(r.cycles > 1000, "barrier must make warp 1 wait: {}", r.cycles);
        assert_eq!(r.barriers, 2);
    }

    #[test]
    #[should_panic(expected = "different numbers of barriers")]
    fn mismatched_barrier_counts_panic() {
        let d = dev();
        let occ = occ_for(&d, 64, 8, 0);
        let mut bt = BlockTrace::default();
        let mut b0 = TraceBuilder::new(128, 128);
        b0.bar();
        bt.warps.push(b0.finish());
        let mut b1 = TraceBuilder::new(128, 128);
        b1.alu(1);
        bt.warps.push(b1.finish());
        simulate_blocks(&d, &occ, &[bt], 1);
    }

    #[test]
    fn waves_serialize_when_occupancy_is_low() {
        let d = dev();
        // Latency-bound blocks: one warp issuing dependent global loads.
        // Shared memory limits residency to 1 block per SMX; with 2 SMXs and
        // 8 blocks that is 4 serialized waves of exposed latency. With all
        // blocks resident, the loads overlap.
        let mk_blocks = || {
            (0..8u64)
                .map(|blk| {
                    let mut bt = BlockTrace::default();
                    let mut b = TraceBuilder::new(d.txn_bytes, d.l1_line);
                    for i in 0..16u64 {
                        let base = (blk * 16 + i) * 4096;
                        let addrs = crate::mem::lane_addrs(
                            (0..32).map(|l| (l, base + 4 * l as u64)),
                        );
                        b.global(&addrs, 4, false);
                        b.alu(2);
                    }
                    bt.warps.push(b.finish());
                    bt
                })
                .collect::<Vec<_>>()
        };
        let occ_low = occ_for(&d, 32, 8, d.shared_mem_per_smx);
        assert_eq!(occ_low.blocks_per_smx, 1);
        let r_low = simulate_blocks(&d, &occ_low, &mk_blocks(), 8);
        let occ_high = occ_for(&d, 32, 8, 0);
        assert!(occ_high.blocks_per_smx >= 4);
        let r_high = simulate_blocks(&d, &occ_high, &mk_blocks(), 8);
        assert!(
            r_low.cycles > 2 * r_high.cycles,
            "low occupancy {} vs high {}",
            r_low.cycles,
            r_high.cycles
        );
    }

    #[test]
    fn wave_sampling_scales_cycles() {
        let d = dev();
        let occ = occ_for(&d, 32, 8, 0);
        let r_sampled = simulate_blocks(&d, &occ, &vec![alu_block(1, 100); 4], 16);
        assert!(r_sampled.is_sampled());
        assert_eq!(r_sampled.cycles, r_sampled.simulated_cycles * 4);
    }

    #[test]
    fn l1_thrash_costs_more_than_fit() {
        let d = dev();
        let occ = occ_for(&d, 32, 8, 0);
        let local_block = |distinct_lines: u64| {
            let mut bt = BlockTrace::default();
            let mut b = TraceBuilder::new(d.txn_bytes, d.l1_line);
            for rep in 0..64u64 {
                let line = (rep % distinct_lines) * 128;
                b.push_raw(WarpOp::LocalLoad { lines: vec![line] });
            }
            bt.warps.push(b.finish());
            bt
        };
        let r_fit = simulate_blocks(&d, &occ, &[local_block(4)], 1);
        let r_thrash = simulate_blocks(&d, &occ, &[local_block(64)], 1);
        assert!(r_fit.l1_hit_rate() > 0.9);
        assert!(r_thrash.l1_hit_rate() < 0.1);
        assert!(r_thrash.cycles > 2 * r_fit.cycles);
    }

    #[test]
    fn empty_grid_completes() {
        let d = dev();
        let occ = occ_for(&d, 32, 8, 0);
        let r = simulate_blocks(&d, &occ, &[], 0);
        assert_eq!(r.blocks_simulated, 0);
        assert_eq!(r.cycles, 0);
    }
}
