//! Aggregate statistics produced by one timing simulation.

use crate::timeline::{StallBreakdown, Timeline};

/// Counters and the final cycle count for one kernel launch.
#[derive(Debug, Clone, Default)]
pub struct TimingReport {
    /// Total kernel execution time in core cycles (after wave scaling).
    pub cycles: u64,
    /// Cycles actually simulated (before wave scaling).
    pub simulated_cycles: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Global-memory transactions (loads + stores).
    pub global_txns: u64,
    /// Bytes moved to/from global memory by loads and stores.
    pub global_bytes: u64,
    /// Ticks during which the DRAM interface was busy, in cycles.
    pub dram_busy_cycles: u64,
    /// L1 (local-memory path) hits and misses.
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// Texture / read-only cache hits and misses.
    pub tex_hits: u64,
    pub tex_misses: u64,
    /// Device-wide L2 hits and misses (all paths).
    pub l2_hits: u64,
    pub l2_misses: u64,
    /// Shared-memory accesses and extra bank-conflict replay passes.
    pub shared_accesses: u64,
    pub shared_replays: u64,
    /// Extra serialized constant-cache words beyond the first per access.
    pub const_serializations: u64,
    /// `__shfl` instructions executed.
    pub shfl_ops: u64,
    /// Barriers crossed (per warp).
    pub barriers: u64,
    /// Blocks the timing engine actually simulated.
    pub blocks_simulated: u64,
    /// Blocks in the logical launch (>= blocks_simulated when sampled).
    pub blocks_total: u64,
    /// Device-wide cycle attribution: buckets sum to
    /// `simulated_cycles * num_smx` (checked in the engine).
    pub stall: StallBreakdown,
    /// Per-SMX flight-recorder tracks behind [`Self::stall`]; bounded ring
    /// of coalesced warp-state intervals.
    pub timeline: Timeline,
}

impl TimingReport {
    /// True when the report was extrapolated from a sampled subset of the
    /// grid's thread blocks.
    pub fn is_sampled(&self) -> bool {
        self.blocks_total > self.blocks_simulated
    }

    /// L1 hit rate over the local-memory path, in [0, 1].
    pub fn l1_hit_rate(&self) -> f64 {
        let t = self.l1_hits + self.l1_misses;
        if t == 0 {
            1.0
        } else {
            self.l1_hits as f64 / t as f64
        }
    }

    /// DRAM utilization: busy cycles / total cycles (pre-scaling), in \[0,1\].
    pub fn dram_utilization(&self) -> f64 {
        if self.simulated_cycles == 0 {
            0.0
        } else {
            (self.dram_busy_cycles as f64 / self.simulated_cycles as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_sane() {
        let r = TimingReport::default();
        assert!(!r.is_sampled());
        assert_eq!(r.l1_hit_rate(), 1.0);
        assert_eq!(r.dram_utilization(), 0.0);
    }

    #[test]
    fn sampling_detection() {
        let r = TimingReport { blocks_simulated: 10, blocks_total: 100, ..Default::default() };
        assert!(r.is_sampled());
    }

    #[test]
    fn utilization_is_clamped() {
        let r = TimingReport {
            simulated_cycles: 10,
            dram_busy_cycles: 20,
            ..Default::default()
        };
        assert_eq!(r.dram_utilization(), 1.0);
    }
}
