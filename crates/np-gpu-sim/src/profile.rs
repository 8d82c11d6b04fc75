//! Deterministic per-launch hardware counters.
//!
//! Counters are accumulated at trace-emission time (see
//! [`crate::trace::TraceBuilder`]), which makes them a pure function of the
//! kernel, its arguments, and the launch configuration: no engine scheduling
//! decision, wave-sampling choice, or host-side thread interleaving can
//! change them. Re-running a launch with the same inputs yields a
//! byte-identical [`ProfileReport::to_json`] string — the golden-counter
//! suite relies on this.
//!
//! Each counter maps to a mechanism the CUDA-NP paper argues about:
//! divergence events / divergent instructions (Figures 1, 9), global
//! transactions vs. ideal (coalescing after local-array relocation, §5.3),
//! shared-memory replays (bank conflicts), `__shfl` broadcast / reduction /
//! scan steps vs. shared-memory broadcasts (§5.2), and barrier waits.

use crate::trace::{BlockTrace, WarpTrace};

/// One set of deterministic counters; aggregated per warp, per block, and
/// per launch. All counts are exact (never sampled).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileCounters {
    /// Warp instructions issued (folded ALU/SFU runs counted fully).
    pub instructions: u64,
    /// Branch points where a warp took both paths (or a warp-level loop ran
    /// with a partial mask).
    pub divergence_events: u64,
    /// Instructions issued while at least one enclosing construct was
    /// divergent — the "sequential section" cost of Figure 1.
    pub divergent_instructions: u64,
    /// Global-memory transactions actually issued.
    pub global_transactions: u64,
    /// Minimum transactions had every access been perfectly coalesced.
    pub ideal_global_transactions: u64,
    /// Bytes moved to/from global memory by active lanes.
    pub global_bytes: u64,
    /// Shared-memory warp accesses.
    pub shared_accesses: u64,
    /// Extra serialized bank passes beyond the first (replays).
    pub bank_conflict_replays: u64,
    /// Bytes moved to/from shared memory by active lanes.
    pub shared_bytes: u64,
    /// Shared-memory loads where >= 2 active lanes read one word — the
    /// shared-memory broadcast pattern `__shfl` replaces (paper §5.2).
    pub shared_broadcasts: u64,
    /// Local-memory (per-thread array) warp accesses.
    pub local_accesses: u64,
    /// Bytes moved to/from local memory by active lanes.
    pub local_bytes: u64,
    /// Texture / read-only path warp loads.
    pub tex_accesses: u64,
    /// Bytes read through the texture path by active lanes.
    pub tex_bytes: u64,
    /// Constant-cache warp loads.
    pub const_accesses: u64,
    /// Bytes read through the constant cache by active lanes.
    pub const_bytes: u64,
    /// `__shfl` ops broadcasting one lane's value (idx mode).
    pub shfl_broadcasts: u64,
    /// `__shfl_xor` butterfly steps (live-out reduction combining).
    pub shfl_reduction_steps: u64,
    /// `__shfl_up` / `__shfl_down` steps (exclusive-scan combining).
    pub shfl_scan_steps: u64,
    /// `__syncthreads()` barriers reached by this warp.
    pub barrier_waits: u64,
}

impl ProfileCounters {
    /// Accumulate `other` into `self` field by field.
    pub fn add(&mut self, other: &ProfileCounters) {
        self.instructions += other.instructions;
        self.divergence_events += other.divergence_events;
        self.divergent_instructions += other.divergent_instructions;
        self.global_transactions += other.global_transactions;
        self.ideal_global_transactions += other.ideal_global_transactions;
        self.global_bytes += other.global_bytes;
        self.shared_accesses += other.shared_accesses;
        self.bank_conflict_replays += other.bank_conflict_replays;
        self.shared_bytes += other.shared_bytes;
        self.shared_broadcasts += other.shared_broadcasts;
        self.local_accesses += other.local_accesses;
        self.local_bytes += other.local_bytes;
        self.tex_accesses += other.tex_accesses;
        self.tex_bytes += other.tex_bytes;
        self.const_accesses += other.const_accesses;
        self.const_bytes += other.const_bytes;
        self.shfl_broadcasts += other.shfl_broadcasts;
        self.shfl_reduction_steps += other.shfl_reduction_steps;
        self.shfl_scan_steps += other.shfl_scan_steps;
        self.barrier_waits += other.barrier_waits;
    }

    /// Coalescing efficiency: ideal transactions / issued transactions.
    /// Always in `(0, 1]`; a launch with no global traffic counts as
    /// perfectly coalesced.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.global_transactions == 0 {
            return 1.0;
        }
        self.ideal_global_transactions as f64 / self.global_transactions as f64
    }

    /// Fraction of instructions issued under divergence, in `[0, 1]`.
    pub fn divergence_ratio(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.divergent_instructions as f64 / self.instructions as f64
    }

    /// All `__shfl` exchanges regardless of mode.
    pub fn shfl_ops(&self) -> u64 {
        self.shfl_broadcasts + self.shfl_reduction_steps + self.shfl_scan_steps
    }

    /// The counters in a fixed (name, value) order — the single source of
    /// truth for every serialization below. Field order here *is* the JSON
    /// byte layout; never reorder without regenerating goldens.
    pub fn fields(&self) -> [(&'static str, u64); 20] {
        [
            ("instructions", self.instructions),
            ("divergence_events", self.divergence_events),
            ("divergent_instructions", self.divergent_instructions),
            ("global_transactions", self.global_transactions),
            ("ideal_global_transactions", self.ideal_global_transactions),
            ("global_bytes", self.global_bytes),
            ("shared_accesses", self.shared_accesses),
            ("bank_conflict_replays", self.bank_conflict_replays),
            ("shared_bytes", self.shared_bytes),
            ("shared_broadcasts", self.shared_broadcasts),
            ("local_accesses", self.local_accesses),
            ("local_bytes", self.local_bytes),
            ("tex_accesses", self.tex_accesses),
            ("tex_bytes", self.tex_bytes),
            ("const_accesses", self.const_accesses),
            ("const_bytes", self.const_bytes),
            ("shfl_broadcasts", self.shfl_broadcasts),
            ("shfl_reduction_steps", self.shfl_reduction_steps),
            ("shfl_scan_steps", self.shfl_scan_steps),
            ("barrier_waits", self.barrier_waits),
        ]
    }

    /// One deterministic JSON object (no trailing newline), written by
    /// hand like every artifact in the workspace; integer counters print
    /// exactly and the two derived ratios use a fixed 6-decimal format so
    /// the output is byte-stable.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (name, v) in self.fields() {
            s.push_str(&format!("\"{name}\":{v},"));
        }
        s.push_str(&format!(
            "\"coalescing_efficiency\":{:.6},\"divergence_ratio\":{:.6}}}",
            self.coalescing_efficiency(),
            self.divergence_ratio()
        ));
        s
    }
}

/// Counters of one block: per warp plus the block total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockProfile {
    pub warps: Vec<ProfileCounters>,
    pub total: ProfileCounters,
}

impl BlockProfile {
    /// Aggregate a finished block trace.
    pub fn from_trace(trace: &BlockTrace) -> BlockProfile {
        let warps: Vec<ProfileCounters> =
            trace.warps.iter().map(|w: &WarpTrace| w.counters.clone()).collect();
        let mut total = ProfileCounters::default();
        for w in &warps {
            total.add(w);
        }
        BlockProfile { warps, total }
    }
}

/// The per-launch profile surfaced through `KernelReport`: per-block
/// aggregates (in block-issue order) plus the launch total. When the engine
/// samples waves, `blocks` holds only the simulated blocks — the counters
/// themselves are still exact for those blocks, never scaled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    pub blocks: Vec<BlockProfile>,
    pub total: ProfileCounters,
}

impl ProfileReport {
    /// Record one block's trace (called once per simulated block, in issue
    /// order, which is deterministic).
    pub fn record_block(&mut self, trace: &BlockTrace) {
        let bp = BlockProfile::from_trace(trace);
        self.total.add(&bp.total);
        self.blocks.push(bp);
    }

    /// Launch-total coalescing efficiency, in `(0, 1]`.
    pub fn coalescing_efficiency(&self) -> f64 {
        self.total.coalescing_efficiency()
    }

    /// Deterministic JSON document: launch totals plus per-block totals.
    /// Byte-identical across reruns with the same kernel/args/config.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"total\": ");
        s.push_str(&self.total.to_json());
        s.push_str(",\n  \"blocks\": [");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            s.push_str(&b.total.to_json());
        }
        if !self.blocks.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        s
    }

    /// Chrome-trace (about://tracing) counter events: one `ph:"C"` event per
    /// counter per block, `ts` = block index, plus per-warp instruction
    /// counters on separate tids. Deterministic for the same launch.
    pub fn to_chrome_trace(&self, kernel_name: &str) -> String {
        let pid = np_obs::json::quote(kernel_name);
        let mut s = String::from("[");
        let mut first = true;
        for (bi, b) in self.blocks.iter().enumerate() {
            for (name, v) in b.total.fields() {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!(
                    "\n{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\
                     \"tid\":\"block\",\"ts\":{bi},\"args\":{{\"value\":{v}}}}}"
                ));
            }
            for (wi, w) in b.warps.iter().enumerate() {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!(
                    "\n{{\"name\":\"instructions\",\"ph\":\"C\",\"pid\":{pid},\
                     \"tid\":\"warp {wi}\",\"ts\":{bi},\"args\":{{\"value\":{}}}}}",
                    w.instructions
                ));
            }
        }
        s.push_str("\n]");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ShflKind, TraceBuilder};
    use crate::mem::lane_addrs;

    fn warp_with_traffic() -> WarpTrace {
        let mut b = TraceBuilder::new(128, 128);
        b.alu(5);
        let a = lane_addrs((0..32).map(|l| (l, 4 * l as u64)));
        b.global(&a, 4, false);
        b.shfl(ShflKind::Broadcast);
        b.bar();
        b.finish()
    }

    #[test]
    fn block_profile_sums_warps() {
        let bt = BlockTrace { warps: vec![warp_with_traffic(), warp_with_traffic()] };
        let bp = BlockProfile::from_trace(&bt);
        assert_eq!(bp.warps.len(), 2);
        assert_eq!(bp.total.instructions, 2 * bp.warps[0].instructions);
        assert_eq!(bp.total.shfl_broadcasts, 2);
        assert_eq!(bp.total.barrier_waits, 2);
    }

    #[test]
    fn report_total_is_additive_over_blocks() {
        let bt = BlockTrace { warps: vec![warp_with_traffic()] };
        let mut rep = ProfileReport::default();
        rep.record_block(&bt);
        rep.record_block(&bt);
        let mut expect = ProfileCounters::default();
        expect.add(&rep.blocks[0].total);
        expect.add(&rep.blocks[1].total);
        assert_eq!(rep.total, expect);
    }

    #[test]
    fn coalescing_efficiency_is_one_without_global_traffic() {
        assert_eq!(ProfileCounters::default().coalescing_efficiency(), 1.0);
    }

    #[test]
    fn coalescing_efficiency_in_unit_interval() {
        let mut b = TraceBuilder::new(128, 128);
        // Strided: each lane hits a distinct 128B segment -> 32 txns, ideal 1.
        let a = lane_addrs((0..32).map(|l| (l, 128 * l as u64)));
        b.global(&a, 4, false);
        let c = &b.finish().counters;
        assert_eq!(c.global_transactions, 32);
        assert_eq!(c.ideal_global_transactions, 1);
        let e = c.coalescing_efficiency();
        assert!(e > 0.0 && e <= 1.0, "efficiency out of range: {e}");
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let bt = BlockTrace { warps: vec![warp_with_traffic()] };
        let mut r1 = ProfileReport::default();
        r1.record_block(&bt);
        let mut r2 = ProfileReport::default();
        r2.record_block(&bt);
        assert_eq!(r1.to_json(), r2.to_json());
        let j = r1.to_json();
        let i_instr = j.find("\"instructions\"").unwrap();
        let i_barrier = j.find("\"barrier_waits\"").unwrap();
        assert!(i_instr < i_barrier, "field order must be fixed");
        assert!(j.contains("\"coalescing_efficiency\":1.000000"));
    }

    #[test]
    fn chrome_trace_has_counter_events() {
        let bt = BlockTrace { warps: vec![warp_with_traffic()] };
        let mut rep = ProfileReport::default();
        rep.record_block(&bt);
        let t = rep.to_chrome_trace("k");
        assert!(t.starts_with('['));
        assert!(t.ends_with(']'));
        assert!(t.contains("\"ph\":\"C\""));
        assert!(t.contains("\"tid\":\"warp 0\""));
        assert!(t.contains("\"pid\":\"k\""));
    }

    #[test]
    fn empty_report_serializes() {
        let rep = ProfileReport::default();
        assert!(rep.to_json().contains("\"blocks\": []"));
        assert_eq!(rep.to_chrome_trace("k"), "[\n]");
    }
}
