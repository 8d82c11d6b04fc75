//! Deterministic happens-before race checking over per-access memory
//! events.
//!
//! The checker consumes the interpreter's access stream (shared and global
//! spaces) plus barrier events and reports typed findings:
//!
//! * **write/write and read/write races** — two different threads of one
//!   block touching the same word with at least one write, not ordered by
//!   an intervening `__syncthreads()`;
//! * **barrier divergence** — threads of one block reaching different
//!   barrier sites or different barrier counts (only reachable through the
//!   per-thread event API: the lockstep interpreter faults on divergent
//!   barriers before the recorder could see them);
//! * **master/slave gating violations** — slave threads writing state the
//!   CUDA-NP transform reserves for the master (broadcast staging buffers).
//!
//! The happens-before model is a per-block *barrier-epoch* order: within a
//! block the only inter-thread synchronization the kernel IR can express is
//! `__syncthreads()`, so a full vector clock degenerates to one epoch
//! counter per thread (incremented at each barrier). Two accesses by
//! different threads conflict exactly when their epochs are equal; an
//! access in an older epoch is ordered before everything after that
//! barrier. Warp-synchronous execution earns **no** exemption: the CUDA-NP
//! transform's shared-memory communication patterns are all
//! barrier-separated (its `__shfl` paths touch no memory), so treating
//! same-warp threads as unordered costs no false positives and still
//! catches a dropped barrier inside a single-warp block. See DESIGN.md §11
//! for the approximations.
//!
//! Determinism: findings are emitted in access order, the interpreter's
//! access order is itself deterministic, and [`RaceReport::to_json`]
//! serializes fields in a fixed layout — re-running a launch yields a
//! byte-identical report.

use std::collections::HashMap;

/// Memory space of a checked access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceSpace {
    Shared,
    Global,
}

impl RaceSpace {
    pub fn tag(self) -> &'static str {
        match self {
            RaceSpace::Shared => "shared",
            RaceSpace::Global => "global",
        }
    }
}

/// One side of a race: which thread touched the word, at which interpreter
/// step ("pc"), in which barrier epoch, and whether it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// Block-linear thread id.
    pub thread: u32,
    /// Monotone interpreter step counter at the access — a deterministic
    /// stand-in for a program counter, unique per dynamic statement.
    pub pc: u64,
    /// The thread's barrier epoch at the access.
    pub epoch: u32,
    pub write: bool,
}

impl AccessSite {
    fn describe(&self) -> String {
        format!(
            "thread {} {} at pc {} (epoch {})",
            self.thread,
            if self.write { "write" } else { "read" },
            self.pc,
            self.epoch
        )
    }
}

/// What kind of unordered conflict a memory race is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    WriteWrite,
    ReadWrite,
}

impl RaceKind {
    pub fn tag(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
        }
    }
}

/// One typed finding. Non-exhaustive so new detectors can be added without
/// breaking downstream matches.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum RaceFinding {
    /// Two threads touched `array[index]` in the same barrier epoch with at
    /// least one write.
    MemoryRace {
        space: RaceSpace,
        block: u64,
        array: String,
        index: u64,
        kind: RaceKind,
        first: AccessSite,
        second: AccessSite,
    },
    /// Threads of one block executed different barrier counts or different
    /// barrier site sequences.
    BarrierDivergence {
        block: u64,
        /// A thread holding the majority/first observed barrier history.
        thread_a: u32,
        count_a: u32,
        /// The first thread whose history disagrees.
        thread_b: u32,
        count_b: u32,
        /// True when the counts match but the site sequences differ.
        sites_differ: bool,
    },
    /// A slave thread wrote master-only state.
    MasterGatingViolation {
        block: u64,
        space: RaceSpace,
        array: String,
        index: u64,
        thread: u32,
        /// The offending thread's slave id under the gating policy.
        slave: u32,
        pc: u64,
    },
}

impl RaceFinding {
    /// Short stable tag for tables and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            RaceFinding::MemoryRace { kind: RaceKind::WriteWrite, .. } => "ww-race",
            RaceFinding::MemoryRace { kind: RaceKind::ReadWrite, .. } => "rw-race",
            RaceFinding::BarrierDivergence { .. } => "barrier-divergence",
            RaceFinding::MasterGatingViolation { .. } => "gating-violation",
        }
    }
}

impl std::fmt::Display for RaceFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceFinding::MemoryRace { space, block, array, index, kind, first, second } => {
                write!(
                    f,
                    "{} race on {} {array}[{index}] in block {block}: {} vs {}",
                    kind.tag(),
                    space.tag(),
                    first.describe(),
                    second.describe()
                )
            }
            RaceFinding::BarrierDivergence {
                block,
                thread_a,
                count_a,
                thread_b,
                count_b,
                sites_differ,
            } => {
                if *sites_differ {
                    write!(
                        f,
                        "barrier divergence in block {block}: thread {thread_a} and thread \
                         {thread_b} passed {count_a} barrier(s) at different sites"
                    )
                } else {
                    write!(
                        f,
                        "barrier divergence in block {block}: thread {thread_a} passed \
                         {count_a} barrier(s), thread {thread_b} passed {count_b}"
                    )
                }
            }
            RaceFinding::MasterGatingViolation { block, space, array, index, thread, slave, pc } => {
                write!(
                    f,
                    "gating violation in block {block}: slave thread {thread} (slave id \
                     {slave}) wrote master-only {} {array}[{index}] at pc {pc}",
                    space.tag()
                )
            }
        }
    }
}

/// Master/slave layout of one CUDA-NP-transformed block, used to flag slave
/// writes to master-only state. Constructed by the transform driver (which
/// knows the thread mapping and the staging buffer names); the checker
/// itself is mapping-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct GatingPolicy {
    pub master_size: u32,
    pub slave_size: u32,
    /// True for the intra-warp mapping (block is `slave_size` ×
    /// `master_size`, slave id = threadIdx.x); false for inter-warp (block
    /// is `master_size` × `slave_size`, slave id = threadIdx.y).
    pub intra: bool,
    /// Arrays only the master (slave id 0) may write.
    pub master_only: Vec<String>,
}

impl GatingPolicy {
    /// Slave id of a block-linear thread under this layout.
    pub fn slave_of(&self, thread: u32) -> u32 {
        if self.intra {
            thread % self.slave_size.max(1)
        } else {
            thread / self.master_size.max(1)
        }
    }

    fn is_master_only(&self, array: &str) -> bool {
        self.master_only.iter().any(|a| a == array)
    }
}

/// Knobs for one checked launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RaceCheckOptions {
    /// Stop filing findings past this many (`truncated` is set instead).
    /// `None` uses [`RaceCheckOptions::DEFAULT_MAX_FINDINGS`].
    pub max_findings: Option<usize>,
    /// When present, slave writes to the policy's master-only arrays are
    /// reported as [`RaceFinding::MasterGatingViolation`].
    pub policy: Option<GatingPolicy>,
}

impl RaceCheckOptions {
    pub const DEFAULT_MAX_FINDINGS: usize = 64;

    fn cap(&self) -> usize {
        self.max_findings.unwrap_or(Self::DEFAULT_MAX_FINDINGS)
    }
}

/// The launch-level result: every finding plus coverage counters proving
/// the check actually ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RaceReport {
    /// False when the launch ran with the checker disarmed — `is_clean()`
    /// is then vacuous and callers asserting cleanliness should also assert
    /// `checked`.
    pub checked: bool,
    pub findings: Vec<RaceFinding>,
    pub blocks_checked: u64,
    pub accesses_checked: u64,
    pub barriers_seen: u64,
    /// True when findings past the cap were dropped.
    pub truncated: bool,
}

impl RaceReport {
    /// No findings. Meaningful only when `checked` is true.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic JSON: field order here *is* the byte layout; findings
    /// appear in detection order. Byte-identical across reruns of the same
    /// launch.
    pub fn to_json(&self) -> String {
        use np_obs::json::quote;
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"checked\":{},\"blocks_checked\":{},\"accesses_checked\":{},\
             \"barriers_seen\":{},\"truncated\":{},\"findings\":[",
            self.checked,
            self.blocks_checked,
            self.accesses_checked,
            self.barriers_seen,
            self.truncated
        );
        for (i, fnd) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"kind\":\"{}\",", fnd.tag());
            match fnd {
                RaceFinding::MemoryRace { space, block, array, index, first, second, .. } => {
                    let site = |a: &AccessSite| {
                        format!(
                            "{{\"thread\":{},\"pc\":{},\"epoch\":{},\"write\":{}}}",
                            a.thread, a.pc, a.epoch, a.write
                        )
                    };
                    let _ = write!(
                        s,
                        "\"space\":\"{}\",\"block\":{block},\"array\":{},\
                         \"index\":{index},\"first\":{},\"second\":{}",
                        space.tag(),
                        quote(array),
                        site(first),
                        site(second)
                    );
                }
                RaceFinding::BarrierDivergence {
                    block,
                    thread_a,
                    count_a,
                    thread_b,
                    count_b,
                    sites_differ,
                } => {
                    let _ = write!(
                        s,
                        "\"block\":{block},\"thread_a\":{thread_a},\"count_a\":{count_a},\
                         \"thread_b\":{thread_b},\"count_b\":{count_b},\
                         \"sites_differ\":{sites_differ}"
                    );
                }
                RaceFinding::MasterGatingViolation { block, space, array, index, thread, slave, pc } => {
                    let _ = write!(
                        s,
                        "\"space\":\"{}\",\"block\":{block},\"array\":{},\
                         \"index\":{index},\"thread\":{thread},\"slave\":{slave},\"pc\":{pc}",
                        space.tag(),
                        quote(array)
                    );
                }
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// One human line per finding (the `--explain` narrative body).
    pub fn narrative(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(s, "{f}");
        }
        if self.truncated {
            let _ = writeln!(s, "... further findings truncated");
        }
        s
    }
}

/// Per-word state: the last write plus the latest read of each reading
/// thread (the FastTrack read-shared representation; exact at epoch
/// granularity because per-thread epochs are monotone).
#[derive(Default)]
struct WordState {
    last_write: Option<AccessSite>,
    reads: Vec<AccessSite>,
    /// Thread -> slot in `reads`, built lazily once a word is read by many
    /// threads (broadcast loads would otherwise make the per-access
    /// dedup scan quadratic in the thread count). Pure index: the `reads`
    /// vector and its order are exactly what they were without it.
    read_map: Option<HashMap<u32, u32>>,
    /// At most one memory-race finding is filed per word, so one dropped
    /// barrier reads as one finding per conflicting word rather than one
    /// per access pair.
    reported: bool,
}

/// Per-block tracking state, reset at block boundaries (the simulator runs
/// blocks sequentially; cross-block ordering is not happens-before and is
/// out of the checker's per-block scope).
struct BlockState {
    block: u64,
    epochs: Vec<u32>,
    /// FNV-1a over the sequence of barrier pcs each thread passed, to
    /// detect same-count-different-sites divergence.
    site_hash: Vec<u64>,
    words: HashMap<(RaceSpace, u32, u64), WordState>,
    gating_reported: Vec<u32>,
}

fn fnv1a(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The event consumer. Feed it `begin_block` / `record_access` / `barrier`
/// (or `barrier_all`) / `end_block` in execution order, then `finish`.
pub struct RaceRecorder {
    opts: RaceCheckOptions,
    report: RaceReport,
    /// Array-name interner shared across blocks so word keys avoid a
    /// `String` per access.
    array_names: Vec<String>,
    array_ids: HashMap<String, u32>,
    cur: Option<BlockState>,
}

impl RaceRecorder {
    pub fn new(opts: RaceCheckOptions) -> Self {
        RaceRecorder {
            opts,
            report: RaceReport { checked: true, ..Default::default() },
            array_names: Vec::new(),
            array_ids: HashMap::new(),
            cur: None,
        }
    }

    fn intern(&mut self, array: &str) -> u32 {
        if let Some(&id) = self.array_ids.get(array) {
            return id;
        }
        let id = self.array_names.len() as u32;
        self.array_names.push(array.to_string());
        self.array_ids.insert(array.to_string(), id);
        id
    }

    /// Intern an array name once and reuse the id across
    /// [`RaceRecorder::record_access_by_id`] calls — callers on the hot
    /// path cache the id instead of paying a string hash per access.
    pub fn intern_id(&mut self, array: &str) -> u32 {
        self.intern(array)
    }

    fn file(&mut self, finding: RaceFinding) -> Option<&RaceFinding> {
        if self.report.findings.len() >= self.opts.cap() {
            self.report.truncated = true;
            return None;
        }
        self.report.findings.push(finding);
        self.report.findings.last()
    }

    /// Start tracking a new block of `n_threads` block-linear threads.
    pub fn begin_block(&mut self, block: u64, n_threads: u32) {
        // An unterminated previous block still gets its divergence check.
        self.close_block();
        self.cur = Some(BlockState {
            block,
            epochs: vec![0; n_threads as usize],
            site_hash: vec![0xcbf29ce484222325; n_threads as usize],
            words: HashMap::new(),
            gating_reported: Vec::new(),
        });
    }

    /// One thread touched `array[index]` in `space`. Returns the finding
    /// this access triggered, if any (for fail-fast callers).
    pub fn record_access(
        &mut self,
        space: RaceSpace,
        array: &str,
        index: u64,
        thread: u32,
        write: bool,
        pc: u64,
    ) -> Option<&RaceFinding> {
        let array_id = self.intern(array);
        self.record_access_by_id(space, array_id, index, thread, write, pc)
    }

    /// [`RaceRecorder::record_access`] with a pre-interned array id (from
    /// [`RaceRecorder::intern_id`]); behaviorally identical.
    pub fn record_access_by_id(
        &mut self,
        space: RaceSpace,
        array_id: u32,
        index: u64,
        thread: u32,
        write: bool,
        pc: u64,
    ) -> Option<&RaceFinding> {
        let array: &str = &self.array_names[array_id as usize];
        let Some(cur) = &mut self.cur else { return None };
        self.report.accesses_checked += 1;
        let epoch = cur.epochs.get(thread as usize).copied().unwrap_or(0);
        let access = AccessSite { thread, pc, epoch, write };
        let block = cur.block;

        // Gating check first: an un-gated broadcast store is both a W/W
        // race and a policy violation; report the policy violation once per
        // array.
        let mut gating: Option<RaceFinding> = None;
        if write {
            if let Some(policy) = &self.opts.policy {
                if policy.is_master_only(array) {
                    let slave = policy.slave_of(thread);
                    if slave != 0 && !cur.gating_reported.contains(&array_id) {
                        cur.gating_reported.push(array_id);
                        gating = Some(RaceFinding::MasterGatingViolation {
                            block,
                            space,
                            array: array.to_string(),
                            index,
                            thread,
                            slave,
                            pc,
                        });
                    }
                }
            }
        }

        let word = cur.words.entry((space, array_id, index)).or_default();
        let mut race: Option<(RaceKind, AccessSite)> = None;
        if !word.reported {
            if let Some(wr) = word.last_write {
                // A same-epoch prior write by another thread always
                // conflicts: W/W if we write, R/W if we read.
                if wr.thread != thread && wr.epoch == epoch {
                    race = Some((
                        if write { RaceKind::WriteWrite } else { RaceKind::ReadWrite },
                        wr,
                    ));
                }
            }
            if race.is_none() && write {
                if let Some(rd) = word
                    .reads
                    .iter()
                    .find(|r| r.thread != thread && r.epoch == epoch)
                {
                    race = Some((RaceKind::ReadWrite, *rd));
                }
            }
        }
        if race.is_some() {
            word.reported = true;
        }

        // Update word state: writes supersede; reads keep one slot per
        // thread (dedup goes through the lazy thread->slot index once the
        // reader set is large; the vector contents and order are
        // unchanged either way).
        if write {
            word.last_write = Some(access);
            word.reads.clear();
            word.read_map = None;
        } else {
            const READ_MAP_AT: usize = 16;
            let slot = if let Some(m) = &word.read_map {
                m.get(&thread).copied()
            } else if word.reads.len() >= READ_MAP_AT {
                let m: HashMap<u32, u32> = word
                    .reads
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.thread, i as u32))
                    .collect();
                let slot = m.get(&thread).copied();
                word.read_map = Some(m);
                slot
            } else {
                word.reads.iter().position(|r| r.thread == thread).map(|i| i as u32)
            };
            match slot {
                Some(i) => word.reads[i as usize] = access,
                None => {
                    if let Some(m) = &mut word.read_map {
                        m.insert(thread, word.reads.len() as u32);
                    }
                    word.reads.push(access);
                }
            }
        }

        let array = self.array_names[array_id as usize].clone();
        if let Some(f) = gating {
            self.file(f);
        }
        if let Some((kind, prev)) = race {
            return self.file(RaceFinding::MemoryRace {
                space,
                block,
                array,
                index,
                kind,
                first: prev,
                second: access,
            });
        }
        None
    }

    /// One thread passed a barrier at site `pc`.
    pub fn barrier(&mut self, thread: u32, pc: u64) {
        let Some(cur) = &mut self.cur else { return };
        if let Some(e) = cur.epochs.get_mut(thread as usize) {
            *e += 1;
        }
        if let Some(h) = cur.site_hash.get_mut(thread as usize) {
            *h = fnv1a(*h, pc);
        }
        self.report.barriers_seen += 1;
    }

    /// Every thread of the block passed one barrier at site `pc` (the
    /// lockstep interpreter's barrier shape).
    pub fn barrier_all(&mut self, pc: u64) {
        let Some(cur) = &mut self.cur else { return };
        for e in &mut cur.epochs {
            *e += 1;
        }
        for h in &mut cur.site_hash {
            *h = fnv1a(*h, pc);
        }
        self.report.barriers_seen += 1;
    }

    /// Finish the current block: run the barrier-divergence check and drop
    /// the per-word state.
    pub fn end_block(&mut self) {
        self.close_block();
    }

    fn close_block(&mut self) {
        let Some(cur) = self.cur.take() else { return };
        self.report.blocks_checked += 1;
        if cur.epochs.is_empty() {
            return;
        }
        let (c0, h0) = (cur.epochs[0], cur.site_hash[0]);
        let divergent = cur
            .epochs
            .iter()
            .zip(&cur.site_hash)
            .position(|(&c, &h)| c != c0 || h != h0);
        if let Some(t) = divergent {
            self.file(RaceFinding::BarrierDivergence {
                block: cur.block,
                thread_a: 0,
                count_a: c0,
                thread_b: t as u32,
                count_b: cur.epochs[t],
                sites_differ: cur.epochs[t] == c0,
            });
        }
    }

    /// Close any open block and return the launch report.
    pub fn finish(mut self) -> RaceReport {
        self.close_block();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> RaceRecorder {
        RaceRecorder::new(RaceCheckOptions::default())
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let mut r = rec();
        r.begin_block(0, 4);
        r.record_access(RaceSpace::Shared, "tile", 5, 0, true, 10);
        assert!(r.record_access(RaceSpace::Shared, "tile", 5, 1, true, 11).is_some());
        let rep = r.finish();
        assert!(!rep.is_clean());
        match &rep.findings[0] {
            RaceFinding::MemoryRace { kind, array, index, first, second, .. } => {
                assert_eq!(*kind, RaceKind::WriteWrite);
                assert_eq!(array, "tile");
                assert_eq!(*index, 5);
                assert_eq!((first.thread, first.pc), (0, 10));
                assert_eq!((second.thread, second.pc), (1, 11));
            }
            other => panic!("expected MemoryRace, got {other:?}"),
        }
    }

    #[test]
    fn barrier_orders_accesses() {
        let mut r = rec();
        r.begin_block(0, 4);
        r.record_access(RaceSpace::Shared, "tile", 5, 0, true, 10);
        r.barrier_all(11);
        assert!(r.record_access(RaceSpace::Shared, "tile", 5, 1, true, 12).is_none());
        let rep = r.finish();
        assert!(rep.is_clean());
        assert_eq!(rep.barriers_seen, 1);
        assert_eq!(rep.accesses_checked, 2);
    }

    #[test]
    fn read_write_and_write_read_race() {
        // write then read by another thread
        let mut r = rec();
        r.begin_block(0, 2);
        r.record_access(RaceSpace::Shared, "a", 0, 0, true, 1);
        assert!(r.record_access(RaceSpace::Shared, "a", 0, 1, false, 2).is_some());
        assert_eq!(r.finish().findings[0].tag(), "rw-race");

        // read then write by another thread
        let mut r = rec();
        r.begin_block(0, 2);
        r.record_access(RaceSpace::Shared, "a", 0, 0, false, 1);
        assert!(r.record_access(RaceSpace::Shared, "a", 0, 1, true, 2).is_some());
        assert_eq!(r.finish().findings[0].tag(), "rw-race");
    }

    #[test]
    fn reads_never_race_with_reads() {
        let mut r = rec();
        r.begin_block(0, 4);
        for t in 0..4 {
            assert!(r.record_access(RaceSpace::Shared, "a", 0, t, false, t as u64).is_none());
        }
        assert!(r.finish().is_clean());
    }

    #[test]
    fn same_thread_reuse_is_not_a_race() {
        let mut r = rec();
        r.begin_block(0, 2);
        r.record_access(RaceSpace::Global, "out", 3, 0, true, 1);
        assert!(r.record_access(RaceSpace::Global, "out", 3, 0, false, 2).is_none());
        assert!(r.record_access(RaceSpace::Global, "out", 3, 0, true, 3).is_none());
        assert!(r.finish().is_clean());
    }

    #[test]
    fn distinct_words_and_spaces_do_not_conflict() {
        let mut r = rec();
        r.begin_block(0, 2);
        r.record_access(RaceSpace::Shared, "a", 0, 0, true, 1);
        r.record_access(RaceSpace::Shared, "a", 1, 1, true, 2);
        r.record_access(RaceSpace::Global, "a", 0, 1, true, 3);
        r.record_access(RaceSpace::Shared, "b", 0, 1, true, 4);
        assert!(r.finish().is_clean());
    }

    #[test]
    fn one_finding_per_word_then_truncation_cap() {
        let mut r = rec();
        r.begin_block(0, 8);
        for t in 0..8 {
            r.record_access(RaceSpace::Shared, "a", 0, t, true, t as u64);
        }
        let rep = r.finish();
        assert_eq!(rep.findings.len(), 1, "per-word dedupe: {:?}", rep.findings);

        let mut r = RaceRecorder::new(RaceCheckOptions {
            max_findings: Some(2),
            policy: None,
        });
        r.begin_block(0, 8);
        for word in 0..4 {
            r.record_access(RaceSpace::Shared, "a", word, 0, true, 1);
            r.record_access(RaceSpace::Shared, "a", word, 1, true, 2);
        }
        let rep = r.finish();
        assert_eq!(rep.findings.len(), 2);
        assert!(rep.truncated);
    }

    #[test]
    fn blocks_are_independent() {
        let mut r = rec();
        r.begin_block(0, 2);
        r.record_access(RaceSpace::Shared, "a", 0, 0, true, 1);
        r.end_block();
        r.begin_block(1, 2);
        // Same word, different block: no conflict.
        assert!(r.record_access(RaceSpace::Shared, "a", 0, 1, true, 2).is_none());
        let rep = r.finish();
        assert!(rep.is_clean());
        assert_eq!(rep.blocks_checked, 2);
    }

    #[test]
    fn barrier_count_divergence_is_flagged() {
        let mut r = rec();
        r.begin_block(0, 4);
        r.barrier(0, 10);
        r.barrier(1, 10);
        // threads 2 and 3 never reach the barrier
        let rep = r.finish();
        assert_eq!(rep.findings.len(), 1);
        match &rep.findings[0] {
            RaceFinding::BarrierDivergence { count_a, count_b, sites_differ, .. } => {
                assert_eq!((*count_a, *count_b), (1, 0));
                assert!(!sites_differ);
            }
            other => panic!("expected BarrierDivergence, got {other:?}"),
        }
    }

    #[test]
    fn barrier_site_divergence_is_flagged() {
        let mut r = rec();
        r.begin_block(0, 2);
        r.barrier(0, 10);
        r.barrier(1, 20); // same count, different site
        let rep = r.finish();
        assert_eq!(rep.findings.len(), 1);
        match &rep.findings[0] {
            RaceFinding::BarrierDivergence { sites_differ, .. } => assert!(sites_differ),
            other => panic!("expected BarrierDivergence, got {other:?}"),
        }
    }

    #[test]
    fn lockstep_barriers_never_diverge() {
        let mut r = rec();
        r.begin_block(0, 64);
        r.barrier_all(10);
        r.barrier_all(20);
        assert!(r.finish().is_clean());
    }

    #[test]
    fn gating_policy_flags_slave_writes() {
        let policy = GatingPolicy {
            master_size: 32,
            slave_size: 4,
            intra: false,
            master_only: vec!["__np_bcast_x".into()],
        };
        // Inter-warp: thread 32..63 are slave id 1.
        assert_eq!(policy.slave_of(0), 0);
        assert_eq!(policy.slave_of(31), 0);
        assert_eq!(policy.slave_of(32), 1);

        let mut r = RaceRecorder::new(RaceCheckOptions {
            max_findings: None,
            policy: Some(policy),
        });
        r.begin_block(0, 128);
        // Master write: fine.
        assert!(r
            .record_access(RaceSpace::Shared, "__np_bcast_x", 0, 5, true, 1)
            .is_none());
        r.barrier_all(2);
        // Slave write: violation (and only one per array despite repeats).
        r.record_access(RaceSpace::Shared, "__np_bcast_x", 1, 40, true, 3);
        r.barrier_all(4);
        r.record_access(RaceSpace::Shared, "__np_bcast_x", 2, 70, true, 5);
        // Slave read: fine.
        r.record_access(RaceSpace::Shared, "__np_bcast_x", 0, 40, false, 6);
        let rep = r.finish();
        let gv: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| matches!(f, RaceFinding::MasterGatingViolation { .. }))
            .collect();
        assert_eq!(gv.len(), 1, "{:?}", rep.findings);
        match gv[0] {
            RaceFinding::MasterGatingViolation { thread, slave, .. } => {
                assert_eq!(*thread, 40);
                assert_eq!(*slave, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn intra_warp_slave_mapping() {
        let policy = GatingPolicy {
            master_size: 32,
            slave_size: 4,
            intra: true,
            master_only: vec![],
        };
        // Intra-warp: block is (4, 32); slave id = t % 4.
        assert_eq!(policy.slave_of(0), 0);
        assert_eq!(policy.slave_of(1), 1);
        assert_eq!(policy.slave_of(4), 0);
        assert_eq!(policy.slave_of(7), 3);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let run = || {
            let mut r = rec();
            r.begin_block(0, 4);
            r.record_access(RaceSpace::Shared, "tile", 5, 0, true, 10);
            r.record_access(RaceSpace::Shared, "tile", 5, 1, false, 11);
            r.barrier_all(12);
            r.record_access(RaceSpace::Global, "out", 0, 0, true, 13);
            r.finish().to_json()
        };
        let j = run();
        assert_eq!(j, run(), "byte-identical across reruns");
        assert!(j.starts_with("{\"checked\":true,\"blocks_checked\":1,"), "{j}");
        assert!(j.contains("\"kind\":\"rw-race\""), "{j}");
        assert!(j.contains("\"array\":\"tile\""), "{j}");
        assert!(j.contains("\"first\":{\"thread\":0,\"pc\":10,\"epoch\":0,\"write\":true}"), "{j}");
        assert!(j.ends_with("]}"), "{j}");
    }

    #[test]
    fn clean_report_json_and_narrative() {
        let mut r = rec();
        r.begin_block(0, 2);
        r.record_access(RaceSpace::Shared, "a", 0, 0, true, 1);
        r.barrier_all(2);
        r.record_access(RaceSpace::Shared, "a", 0, 1, false, 3);
        let rep = r.finish();
        assert!(rep.checked && rep.is_clean());
        assert_eq!(
            rep.to_json(),
            "{\"checked\":true,\"blocks_checked\":1,\"accesses_checked\":2,\
             \"barriers_seen\":1,\"truncated\":false,\"findings\":[]}"
        );
        assert!(rep.narrative().is_empty());

        let unchecked = RaceReport::default();
        assert!(!unchecked.checked);
        assert!(unchecked.is_clean(), "vacuously clean; callers must check `checked`");
    }

    #[test]
    fn narrative_names_both_access_sites() {
        let mut r = rec();
        r.begin_block(3, 4);
        r.record_access(RaceSpace::Shared, "tile", 7, 0, true, 100);
        r.record_access(RaceSpace::Shared, "tile", 7, 2, true, 200);
        let n = r.finish().narrative();
        for needle in ["write-write", "shared tile[7]", "block 3", "pc 100", "pc 200"] {
            assert!(n.contains(needle), "{n:?} missing {needle:?}");
        }
    }
}
