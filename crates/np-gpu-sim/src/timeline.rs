//! SMX timeline flight recorder: cycle-level stall attribution.
//!
//! The timing engine ([`crate::engine`]) is event-driven, yet every cycle of
//! every SMX ends up in exactly one bucket here: either the SMX *issued*
//! warp instructions, or it was stalled for a typed reason. Attribution is
//! total and checked — per SMX, the recorded intervals tile
//! `[0, simulated_cycles)` with no gaps or overlaps, so the per-launch
//! [`StallBreakdown`] sums exactly to `simulated_cycles × SMX count`. The
//! engine debug-asserts this and the property suite re-checks it.
//!
//! Attribution model (first-order, mirroring the paper's §5–§6 narrative):
//! * a cycle in which the SMX front end was issuing is [`SmxState::Issue`];
//! * extra issue-port slots serialized beyond the instructions themselves
//!   (SFU quarter-rate runs, uncoalesced-transaction replays, bank-conflict
//!   passes) are [`SmxState::IssueLimit`];
//! * a scheduler gap is charged to the reason the *gap-ending* warp was
//!   unready — it was the earliest-ready warp on that SMX, so every other
//!   resident warp was also waiting at least that long. Waiting on a
//!   long-latency load is [`SmxState::MemoryPending`] (or
//!   [`SmxState::DramSaturated`] when the request queued behind earlier DRAM
//!   traffic), waiting for barrier peers is [`SmxState::BarrierWait`], a
//!   short in-order dependence is [`SmxState::ScoreboardDependency`], and
//!   block (re)launch windows or an empty SMX are
//!   [`SmxState::NoBlockResident`].
//!
//! Intervals are coalesced (adjacent same-state spans merge) and each SMX
//! track is a bounded ring buffer: memory stays `O(intervals)` with a hard
//! cap, never `O(cycles)`. The breakdown totals are accumulated separately
//! from the ring, so evicting old intervals never skews the buckets.
//!
//! Everything here is a pure function of the deterministic engine schedule:
//! reruns produce byte-identical JSON, chrome-trace, and Gantt output.

use std::collections::VecDeque;

/// What one SMX was doing during one span of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmxState {
    /// The front end issued warp instructions.
    Issue,
    /// Issue slots serialized behind replays / SFU throughput — the port was
    /// held longer than the instruction count alone requires.
    IssueLimit,
    /// Earliest-ready warp was blocked on an outstanding memory access.
    MemoryPending,
    /// Like `MemoryPending`, but the access had queued behind earlier
    /// traffic at the DRAM interface (bandwidth, not latency, bound).
    DramSaturated,
    /// Earliest-ready warp was parked at a `__syncthreads` waiting for its
    /// block peers.
    BarrierWait,
    /// Earliest-ready warp was serialized behind an in-order register
    /// dependence (ALU/SFU/shared/const/shfl result not yet written back).
    ScoreboardDependency,
    /// No runnable block: SMX idle before its first block, between block
    /// waves (launch window), or drained at the end of the grid.
    NoBlockResident,
}

impl SmxState {
    /// Every state, in the fixed serialization order.
    pub const ALL: [SmxState; 7] = [
        SmxState::Issue,
        SmxState::IssueLimit,
        SmxState::MemoryPending,
        SmxState::DramSaturated,
        SmxState::BarrierWait,
        SmxState::ScoreboardDependency,
        SmxState::NoBlockResident,
    ];

    /// Stable snake_case name (JSON field / chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SmxState::Issue => "issue",
            SmxState::IssueLimit => "issue_limit",
            SmxState::MemoryPending => "memory_pending",
            SmxState::DramSaturated => "dram_saturated",
            SmxState::BarrierWait => "barrier_wait",
            SmxState::ScoreboardDependency => "scoreboard_dependency",
            SmxState::NoBlockResident => "no_block_resident",
        }
    }

    /// One-character glyph for the terminal Gantt renderer.
    pub fn glyph(self) -> char {
        match self {
            SmxState::Issue => '#',
            SmxState::IssueLimit => '+',
            SmxState::MemoryPending => 'm',
            SmxState::DramSaturated => 'D',
            SmxState::BarrierWait => 'b',
            SmxState::ScoreboardDependency => '.',
            SmxState::NoBlockResident => ' ',
        }
    }
}

/// Cycles spent in each [`SmxState`], for one SMX or summed over a device.
/// The buckets of a finished launch sum exactly to
/// `simulated_cycles × SMX count` (the engine asserts it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    pub issue: u64,
    pub issue_limit: u64,
    pub memory_pending: u64,
    pub dram_saturated: u64,
    pub barrier_wait: u64,
    pub scoreboard_dependency: u64,
    pub no_block_resident: u64,
}

impl StallBreakdown {
    /// Add `cycles` to the bucket for `state`.
    pub fn record(&mut self, state: SmxState, cycles: u64) {
        match state {
            SmxState::Issue => self.issue += cycles,
            SmxState::IssueLimit => self.issue_limit += cycles,
            SmxState::MemoryPending => self.memory_pending += cycles,
            SmxState::DramSaturated => self.dram_saturated += cycles,
            SmxState::BarrierWait => self.barrier_wait += cycles,
            SmxState::ScoreboardDependency => self.scoreboard_dependency += cycles,
            SmxState::NoBlockResident => self.no_block_resident += cycles,
        }
    }

    /// Cycles in the bucket for `state`.
    pub fn get(&self, state: SmxState) -> u64 {
        match state {
            SmxState::Issue => self.issue,
            SmxState::IssueLimit => self.issue_limit,
            SmxState::MemoryPending => self.memory_pending,
            SmxState::DramSaturated => self.dram_saturated,
            SmxState::BarrierWait => self.barrier_wait,
            SmxState::ScoreboardDependency => self.scoreboard_dependency,
            SmxState::NoBlockResident => self.no_block_resident,
        }
    }

    /// Accumulate `other` bucket by bucket.
    pub fn add(&mut self, other: &StallBreakdown) {
        for s in SmxState::ALL {
            self.record(s, other.get(s));
        }
    }

    /// Sum over all buckets — `simulated_cycles × SMX count` for a finished
    /// launch.
    pub fn total(&self) -> u64 {
        SmxState::ALL.iter().map(|&s| self.get(s)).sum()
    }

    /// Fraction of attributed cycles spent issuing, in `[0, 1]`.
    pub fn issue_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.issue as f64 / t as f64
        }
    }

    /// Fraction of attributed cycles stalled on memory (latency + DRAM
    /// bandwidth), in `[0, 1]`.
    pub fn memory_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.memory_pending + self.dram_saturated) as f64 / t as f64
        }
    }

    /// The buckets in the fixed (name, value) order — the single source of
    /// truth for serialization; field order *is* the JSON byte layout.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("issue", self.issue),
            ("issue_limit", self.issue_limit),
            ("memory_pending", self.memory_pending),
            ("dram_saturated", self.dram_saturated),
            ("barrier_wait", self.barrier_wait),
            ("scoreboard_dependency", self.scoreboard_dependency),
            ("no_block_resident", self.no_block_resident),
        ]
    }

    /// One deterministic JSON object (no trailing newline); integer buckets
    /// plus the total, byte-stable like [`crate::profile`]'s counters.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (name, v) in self.fields() {
            s.push_str(&format!("\"{name}\":{v},"));
        }
        s.push_str(&format!("\"total_cycles\":{}}}", self.total()));
        s
    }
}

/// One coalesced span of cycles in which an SMX stayed in a single state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First cycle of the span (inclusive).
    pub start: u64,
    /// One past the last cycle of the span (exclusive).
    pub end: u64,
    pub state: SmxState,
}

/// One SMX's recorded track: a bounded ring of coalesced intervals plus its
/// exact (never-evicted) breakdown.
#[derive(Debug, Clone, Default)]
pub struct SmxTrack {
    /// Recent intervals, oldest first. Bounded by the recorder capacity —
    /// when full, the oldest interval is evicted (see `evicted_*`).
    pub intervals: VecDeque<Interval>,
    /// Exact per-state totals for this SMX, unaffected by ring eviction.
    pub breakdown: StallBreakdown,
    /// Number of intervals evicted from the ring.
    pub evicted_intervals: u64,
    /// Cycles covered by evicted intervals (the retained ring starts after
    /// them).
    pub evicted_cycles: u64,
    /// Recorder cursor: next unattributed cycle (internal).
    cursor: u64,
}

impl SmxTrack {
    fn push(&mut self, start: u64, end: u64, state: SmxState, capacity: usize) {
        debug_assert!(start == self.cursor, "track must tile: {start} vs cursor {}", self.cursor);
        debug_assert!(end > start);
        self.cursor = end;
        self.breakdown.record(state, end - start);
        if let Some(last) = self.intervals.back_mut() {
            if last.state == state && last.end == start {
                last.end = end;
                return;
            }
        }
        if self.intervals.len() >= capacity {
            if let Some(old) = self.intervals.pop_front() {
                self.evicted_intervals += 1;
                self.evicted_cycles += old.end - old.start;
            }
        }
        self.intervals.push_back(Interval { start, end, state });
    }
}

/// The flight recorder of one launch: a track per SMX. Built by the engine,
/// finalized at end of run, carried on
/// [`crate::stats::TimingReport::timeline`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub tracks: Vec<SmxTrack>,
    /// One past the last attributed cycle (== `simulated_cycles` once
    /// finished).
    pub end_cycle: u64,
    /// Ring capacity in intervals per SMX track.
    pub capacity: usize,
}

/// Default per-SMX ring capacity: plenty for whole test-scale launches,
/// bounded for paper-scale ones (~100 KiB per SMX worst case).
pub const DEFAULT_TRACK_CAPACITY: usize = 4096;

impl Timeline {
    /// A recorder with one empty track per SMX.
    pub fn new(num_smx: usize) -> Self {
        Timeline::with_capacity(num_smx, DEFAULT_TRACK_CAPACITY)
    }

    /// A recorder with an explicit per-track ring capacity (>= 1).
    pub fn with_capacity(num_smx: usize, capacity: usize) -> Self {
        Timeline {
            tracks: (0..num_smx).map(|_| SmxTrack::default()).collect(),
            end_cycle: 0,
            capacity: capacity.max(1),
        }
    }

    /// Attribute the gap `[cursor, until)` on `smx` to `reason`. No-op when
    /// the cursor is already at or past `until`.
    pub fn record_stall(&mut self, smx: usize, until: u64, reason: SmxState) {
        let cap = self.capacity;
        let t = &mut self.tracks[smx];
        if until > t.cursor {
            t.push(t.cursor, until, reason, cap);
        }
    }

    /// Record an issue window on `smx`: any gap before `issue_start` is
    /// charged to `gap_reason`, `[issue_start, issue_end)` is `Issue`, and
    /// `[issue_end, limit_end)` is `IssueLimit`. Spans already attributed
    /// (same-cycle co-issue) are skipped; the track cursor only moves
    /// forward.
    pub fn record_issue(
        &mut self,
        smx: usize,
        gap_reason: SmxState,
        issue_start: u64,
        issue_end: u64,
        limit_end: u64,
    ) {
        let cap = self.capacity;
        let t = &mut self.tracks[smx];
        if issue_start > t.cursor {
            t.push(t.cursor, issue_start, gap_reason, cap);
        }
        let ie = issue_end.max(t.cursor);
        if ie > t.cursor {
            t.push(t.cursor, ie, SmxState::Issue, cap);
        }
        let le = limit_end.max(t.cursor);
        if le > t.cursor {
            t.push(t.cursor, le, SmxState::IssueLimit, cap);
        }
    }

    /// Close every track at `end_cycle`: trailing unattributed cycles become
    /// `NoBlockResident` (the SMX had drained). After this, every track
    /// tiles `[0, end_cycle)` exactly.
    pub fn finish(&mut self, end_cycle: u64) {
        self.end_cycle = end_cycle;
        let cap = self.capacity;
        for t in &mut self.tracks {
            debug_assert!(
                t.cursor <= end_cycle,
                "track overran the launch: cursor {} > end {end_cycle}",
                t.cursor
            );
            if end_cycle > t.cursor {
                t.push(t.cursor, end_cycle, SmxState::NoBlockResident, cap);
            }
        }
    }

    /// Device-total breakdown (sum over SMX tracks). For a finished launch
    /// `total().total() == end_cycle * tracks.len()`.
    pub fn total(&self) -> StallBreakdown {
        let mut out = StallBreakdown::default();
        for t in &self.tracks {
            out.add(&t.breakdown);
        }
        out
    }

    /// The checked invariant: every track's buckets sum to `end_cycle`.
    /// Returns `Err` naming the first offending SMX.
    pub fn check_total_attribution(&self) -> Result<(), String> {
        for (i, t) in self.tracks.iter().enumerate() {
            let sum = t.breakdown.total();
            if sum != self.end_cycle {
                return Err(format!(
                    "SMX {i}: breakdown sums to {sum} cycles, launch has {}",
                    self.end_cycle
                ));
            }
        }
        Ok(())
    }

    /// Chrome-trace duration events (`ph:"X"`), one per retained interval,
    /// on `tid` "smx N". Returned as a fragment: events joined by `,\n`
    /// with no surrounding brackets, empty string when there are no
    /// intervals. Deterministic.
    pub fn chrome_trace_events(&self, pid: &str) -> String {
        let pid = np_obs::json::quote(pid);
        let mut s = String::new();
        for (i, t) in self.tracks.iter().enumerate() {
            for iv in &t.intervals {
                if !s.is_empty() {
                    s.push_str(",\n");
                }
                s.push_str(&format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":\"smx {i}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{}}}}",
                    iv.state.name(),
                    iv.start,
                    iv.end - iv.start
                ));
            }
        }
        s
    }

    /// Deterministic JSON document: end cycle, per-SMX breakdowns, and the
    /// retained intervals of every track.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"end_cycle\":{},\"smx\":[", self.end_cycle);
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"breakdown\":{},\"evicted_intervals\":{},\"evicted_cycles\":{},\
                 \"intervals\":[",
                t.breakdown.to_json(),
                t.evicted_intervals,
                t.evicted_cycles
            ));
            for (j, iv) in t.intervals.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"state\":\"{}\",\"start\":{},\"end\":{}}}",
                    iv.state.name(),
                    iv.start,
                    iv.end
                ));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Terminal Gantt chart: one row per SMX, `width` columns, each column
    /// showing the state that dominates its cycle bucket (earliest state in
    /// [`SmxState::ALL`] wins ties — deterministic). Followed by a legend
    /// and the per-SMX issue/memory utilization percentages.
    pub fn render_gantt(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let width = width.clamp(8, 512);
        let mut out = String::new();
        let cycles = self.end_cycle.max(1);
        let _ = writeln!(
            out,
            "# SMX timeline ({} cycles, {} SMXs, 1 col = {:.1} cycles)",
            self.end_cycle,
            self.tracks.len(),
            cycles as f64 / width as f64
        );
        for (i, t) in self.tracks.iter().enumerate() {
            let mut row = String::with_capacity(width);
            for col in 0..width {
                let lo = (col as u128 * cycles as u128 / width as u128) as u64;
                let hi = (((col + 1) as u128 * cycles as u128) / width as u128).max(lo as u128 + 1)
                    as u64;
                // Cycles per state inside [lo, hi) over the retained ring.
                let mut counts = StallBreakdown::default();
                for iv in &t.intervals {
                    let s = iv.start.max(lo);
                    let e = iv.end.min(hi);
                    if e > s {
                        counts.record(iv.state, e - s);
                    }
                }
                let covered: u64 = counts.total();
                if covered == 0 {
                    // Before the retained ring (evicted prefix) or empty.
                    row.push(if lo < t.evicted_cycles { '?' } else { ' ' });
                    continue;
                }
                let best = SmxState::ALL
                    .iter()
                    .copied()
                    .max_by_key(|&s| (counts.get(s), std::cmp::Reverse(s)))
                    .unwrap_or(SmxState::NoBlockResident);
                row.push(best.glyph());
            }
            let _ = writeln!(
                out,
                "SMX {i:>2} |{row}| issue {:>5.1}%  mem {:>5.1}%",
                100.0 * t.breakdown.issue_fraction(),
                100.0 * t.breakdown.memory_fraction()
            );
        }
        let legend: Vec<String> = SmxState::ALL
            .iter()
            .map(|s| format!("{}={}", s.glyph(), s.name()))
            .collect();
        let _ = writeln!(out, "legend: {} (?=evicted)", legend.join(" "));
        let total = self.total();
        let grand = total.total().max(1);
        let mut parts = Vec::new();
        for (name, v) in total.fields() {
            if v > 0 {
                parts.push(format!("{name} {:.1}%", 100.0 * v as f64 / grand as f64));
            }
        }
        let _ = writeln!(out, "device: {}", parts.join("  "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_totals() {
        let mut b = StallBreakdown::default();
        b.record(SmxState::Issue, 10);
        b.record(SmxState::MemoryPending, 5);
        b.record(SmxState::Issue, 2);
        assert_eq!(b.issue, 12);
        assert_eq!(b.total(), 17);
        assert!((b.issue_fraction() - 12.0 / 17.0).abs() < 1e-12);
        let mut c = StallBreakdown::default();
        c.add(&b);
        c.add(&b);
        assert_eq!(c.total(), 34);
    }

    #[test]
    fn breakdown_json_is_ordered_and_stable() {
        let mut b = StallBreakdown::default();
        b.record(SmxState::BarrierWait, 3);
        let j = b.to_json();
        assert_eq!(j, b.to_json());
        let i_issue = j.find("\"issue\"").unwrap();
        let i_bar = j.find("\"barrier_wait\"").unwrap();
        assert!(i_issue < i_bar);
        assert!(j.ends_with("\"total_cycles\":3}"));
    }

    #[test]
    fn tracks_tile_and_coalesce() {
        let mut tl = Timeline::new(1);
        tl.record_issue(0, SmxState::NoBlockResident, 4, 6, 6);
        tl.record_issue(0, SmxState::MemoryPending, 10, 11, 13);
        tl.record_issue(0, SmxState::MemoryPending, 13, 14, 14);
        tl.finish(20);
        let t = &tl.tracks[0];
        assert_eq!(t.breakdown.total(), 20);
        assert_eq!(tl.total().total(), 20);
        tl.check_total_attribution().unwrap();
        // [0,4) idle, [4,6) issue, [6,10) mem, [10,11) issue, [11,13) limit,
        // [13,14) issue, [14,20) idle — the two issue intervals around the
        // limit span do NOT merge, but contiguous same-state ones do.
        let states: Vec<(u64, u64, SmxState)> =
            t.intervals.iter().map(|iv| (iv.start, iv.end, iv.state)).collect();
        assert_eq!(
            states,
            vec![
                (0, 4, SmxState::NoBlockResident),
                (4, 6, SmxState::Issue),
                (6, 10, SmxState::MemoryPending),
                (10, 11, SmxState::Issue),
                (11, 13, SmxState::IssueLimit),
                (13, 14, SmxState::Issue),
                (14, 20, SmxState::NoBlockResident),
            ]
        );
    }

    #[test]
    fn same_cycle_reissue_does_not_rewind() {
        let mut tl = Timeline::new(1);
        tl.record_issue(0, SmxState::NoBlockResident, 2, 5, 5);
        // A co-issued op in an already-attributed cycle: cursor stays put.
        tl.record_issue(0, SmxState::ScoreboardDependency, 3, 4, 4);
        tl.finish(5);
        assert_eq!(tl.tracks[0].breakdown.issue, 3);
        tl.check_total_attribution().unwrap();
    }

    #[test]
    fn ring_eviction_keeps_breakdown_exact() {
        let mut tl = Timeline::with_capacity(1, 4);
        for i in 0..100u64 {
            // Alternate so nothing coalesces: issue then a stall per step.
            tl.record_issue(0, SmxState::MemoryPending, 2 * i + 1, 2 * i + 2, 2 * i + 2);
        }
        tl.finish(201);
        let t = &tl.tracks[0];
        assert!(t.intervals.len() <= 4);
        assert!(t.evicted_intervals > 0);
        assert_eq!(t.breakdown.total(), 201, "eviction must not skew buckets");
        tl.check_total_attribution().unwrap();
        // Retained intervals still tile their suffix contiguously.
        for w in t.intervals.iter().collect::<Vec<_>>().windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn empty_timeline_finishes_all_idle() {
        let mut tl = Timeline::new(3);
        tl.finish(7);
        assert_eq!(tl.total().no_block_resident, 21);
        tl.check_total_attribution().unwrap();
        assert_eq!(tl.total().total(), 21);
    }

    #[test]
    fn chrome_trace_and_json_are_deterministic() {
        let build = || {
            let mut tl = Timeline::new(2);
            tl.record_issue(0, SmxState::NoBlockResident, 1, 2, 3);
            tl.record_issue(1, SmxState::BarrierWait, 4, 6, 6);
            tl.finish(8);
            tl
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.chrome_trace_events("k"), b.chrome_trace_events("k"));
        assert_eq!(a.render_gantt(32), b.render_gantt(32));
        assert!(a.chrome_trace_events("k").contains("\"tid\":\"smx 1\""));
        assert!(a.chrome_trace_events("k").contains("\"ph\":\"X\""));
        assert!(a.to_json().contains("\"barrier_wait\""));
    }

    #[test]
    fn gantt_marks_all_smxs_and_legend() {
        let mut tl = Timeline::new(2);
        tl.record_issue(0, SmxState::NoBlockResident, 0, 10, 10);
        tl.finish(10);
        let g = tl.render_gantt(16);
        assert!(g.contains("SMX  0"), "{g}");
        assert!(g.contains("SMX  1"), "{g}");
        assert!(g.contains("legend:"), "{g}");
        assert!(g.contains("issue 100.0%"), "{g}");
    }
}
