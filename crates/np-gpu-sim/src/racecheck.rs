//! Deterministic happens-before race checking over per-access memory
//! events.
//!
//! This is the stack's only race checker: [`RaceCheckMode::Record`]
//! collects findings into a report, [`RaceCheckMode::Fatal`] is the
//! fail-fast sanitizer that aborts a launch at its first finding. The
//! checker consumes the interpreter's access stream (shared and global
//! spaces) plus barrier events and reports typed findings:
//!
//! * **write/write and read/write races** — two different threads of one
//!   block touching the same word with at least one write, not ordered by
//!   an intervening `__syncthreads()`;
//! * **master/slave gating violations** — slave threads writing state the
//!   CUDA-NP transform reserves for the master (broadcast staging buffers).
//!
//! Divergent barriers never reach the checker: the lockstep interpreter
//! faults on them first, and the trace decoder rejects a capture whose
//! warps disagree on their barrier count.
//!
//! The happens-before model is a per-block *barrier-epoch* order: within a
//! block the only inter-thread synchronization the kernel IR can express is
//! `__syncthreads()`, and the interpreter passes every barrier in block
//! lockstep, so a full vector clock degenerates to one epoch counter per
//! block (incremented at each barrier). Two accesses by different threads
//! conflict exactly when their epochs are equal; an access in an older
//! epoch is ordered before everything after that barrier.
//! Warp-synchronous execution earns **no** exemption: the CUDA-NP
//! transform's shared-memory communication patterns are all
//! barrier-separated (its `__shfl` paths touch no memory), so treating
//! same-warp threads as unordered costs no false positives and still
//! catches a dropped barrier inside a single-warp block. See DESIGN.md §11
//! for the approximations.
//!
//! Determinism: findings are emitted in access order, the interpreter's
//! access order is itself deterministic, and [`RaceReport::to_json`]
//! serializes fields in a fixed layout — re-running a launch yields a
//! byte-identical report. Per-block reports compose: checking each block
//! with its own recorder and joining the reports with
//! [`RaceReport::append`] gives the same bytes as one recorder.
//!
//! Cost: per-word state lives in a dense shadow indexed by word, one block
//! at a time, so a checked access is a few array lookups and no hashing.

/// How the race checker runs for one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceCheckMode {
    /// Not armed; the launch's race report comes back with
    /// `checked == false`.
    #[default]
    Off,
    /// Record every finding into the launch's race report; the launch
    /// itself still succeeds.
    Record,
    /// The first finding aborts the launch with a race-detected fault. A
    /// capture taken in this mode found nothing: a fatal finding leaves no
    /// artifact.
    Fatal,
}

impl RaceCheckMode {
    /// Short stable tag for diagnostics.
    pub fn tag(self) -> &'static str {
        match self {
            RaceCheckMode::Off => "off",
            RaceCheckMode::Record => "record",
            RaceCheckMode::Fatal => "fatal",
        }
    }
}

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
    /// The block's barrier epoch at the access.
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
            RaceFinding::MasterGatingViolation { .. } => "gating-violation",
        }
    }

    /// The same finding with every pc it names moved up by `base` steps.
    fn rebased(mut self, base: u64) -> Self {
        match &mut self {
            RaceFinding::MemoryRace { first, second, .. } => {
                first.pc += base;
                second.pc += base;
            }
            RaceFinding::MasterGatingViolation { pc, .. } => *pc += base,
        }
        self
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

    /// Append the report of a later stretch of the same launch: a block
    /// checked by its own recorder under the same `opts`, with pcs counted
    /// from zero. Counters add, that report's pcs move up by `pc_base` (the
    /// launch steps before the stretch), and the finding cap applies across
    /// both. Appending per-block reports in block order therefore gives the
    /// bytes one recorder fed the whole launch would have produced: what a
    /// block files never depends on what earlier blocks filed.
    pub fn append(&mut self, later: RaceReport, pc_base: u64, opts: &RaceCheckOptions) {
        self.blocks_checked += later.blocks_checked;
        self.accesses_checked += later.accesses_checked;
        self.barriers_seen += later.barriers_seen;
        let room = opts.cap().saturating_sub(self.findings.len());
        self.truncated |= later.truncated || later.findings.len() > room;
        self.findings.extend(later.findings.into_iter().take(room).map(|f| f.rebased(pc_base)));
    }
}

/// One access as the shadow keeps it. Whether it was a write follows from
/// where it is kept.
#[derive(Clone, Copy)]
struct Site {
    thread: u32,
    epoch: u32,
    pc: u64,
}

impl Site {
    fn public(self, write: bool) -> AccessSite {
        AccessSite { thread: self.thread, pc: self.pc, epoch: self.epoch, write }
    }
}

/// [`WordState::flags`] bits.
const HAS_WRITE: u8 = 1;
const HAS_READ: u8 = 2;
/// At most one memory-race finding is filed per word, so one dropped
/// barrier reads as one finding per conflicting word rather than one per
/// access pair.
const REPORTED: u8 = 4;

/// Per-word state: the last write plus the latest read of each reading
/// thread, in the order the threads first read the word since that write
/// (the FastTrack read-shared representation; exact at epoch granularity
/// because the block's epoch is monotone). The first reader is stored
/// inline, so a word read by one thread allocates nothing; later readers
/// go to a [`MoreReads`].
struct WordState {
    last_write: Site,
    first_read: Site,
    /// `Shadow::more[more - 1]` holds the readers after the first (0: none
    /// allocated yet).
    more: u32,
    flags: u8,
}

impl WordState {
    const UNTOUCHED: WordState = WordState {
        last_write: Site { thread: 0, epoch: 0, pc: 0 },
        first_read: Site { thread: 0, epoch: 0, pc: 0 },
        more: 0,
        flags: 0,
    };
}

/// The readers of one word after its first, in slot order.
#[derive(Default)]
struct MoreReads {
    sites: Vec<Site>,
    /// Thread -> index in `sites` + 1 (0: absent), over the block's
    /// threads. Built once the reader set is large: broadcast loads would
    /// otherwise make the per-read dedup scan quadratic in the thread
    /// count. A pure index: `sites` and its order are the same without it.
    slot_of: Vec<u32>,
}

impl MoreReads {
    const INDEX_AT: usize = 16;

    /// Make `site` its thread's latest read, keeping the thread's slot.
    fn read(&mut self, site: Site, n_threads: usize) {
        let t = site.thread as usize;
        let slot = match self.slot_of.get(t) {
            Some(&i) => (i as usize).checked_sub(1),
            None => self.sites.iter().position(|r| r.thread == site.thread),
        };
        if let Some(i) = slot {
            self.sites[i] = site;
            return;
        }
        self.sites.push(site);
        let n = self.sites.len() as u32;
        if let Some(s) = self.slot_of.get_mut(t) {
            *s = n;
        } else if self.slot_of.is_empty() && self.sites.len() == Self::INDEX_AT {
            self.slot_of = vec![0; n_threads];
            for (i, r) in self.sites.iter().enumerate() {
                if let Some(s) = self.slot_of.get_mut(r.thread as usize) {
                    *s = i as u32 + 1;
                }
            }
        }
    }

    /// A write superseded every read.
    fn clear(&mut self) {
        for r in self.sites.drain(..) {
            if let Some(s) = self.slot_of.get_mut(r.thread as usize) {
                *s = 0;
            }
        }
    }
}

/// Words per shadow page: small enough that a block touching a few words
/// per row of a wide matrix wastes little handle space, large enough that
/// the directory costs 4 bytes per 256 words.
const PAGE_BITS: u32 = 8;
const PAGE: usize = 1 << PAGE_BITS;

/// The per-word state of one block, indexed by word: a page directory per
/// (array, space), pages of word handles, and the word states in
/// first-touch order.
#[derive(Default)]
struct Shadow {
    /// Per `array_id * 2 + space`: page number -> page + 1 (0: untouched).
    dirs: Vec<Vec<u32>>,
    /// `PAGE` handles per page: index in `words` + 1 (0: untouched).
    pages: Vec<u32>,
    words: Vec<WordState>,
    more: Vec<MoreReads>,
}

impl Shadow {
    /// The `words` index of `index` in array slot `arr`, created on first
    /// touch.
    fn word(&mut self, arr: usize, index: u32) -> usize {
        if self.dirs.len() <= arr {
            self.dirs.resize_with(arr + 1, Vec::new);
        }
        let dir = &mut self.dirs[arr];
        let p = (index >> PAGE_BITS) as usize;
        if dir.len() <= p {
            dir.resize(p + 1, 0);
        }
        let page = &mut dir[p];
        if *page == 0 {
            self.pages.resize(self.pages.len() + PAGE, 0);
            *page = (self.pages.len() / PAGE) as u32;
        }
        let handle = &mut self.pages[(*page as usize - 1) * PAGE + (index as usize & (PAGE - 1))];
        if *handle == 0 {
            self.words.push(WordState::UNTOUCHED);
            *handle = self.words.len() as u32;
        }
        *handle as usize - 1
    }
}

/// Per-block tracking state, dropped at block boundaries: cross-block
/// ordering is not happens-before and is out of the checker's per-block
/// scope, so one block's state is all a recorder ever holds.
struct BlockState {
    block: u64,
    n_threads: usize,
    /// Barriers the block has passed.
    epoch: u32,
    shadow: Shadow,
    gating_reported: Vec<u32>,
}

/// The event consumer. Feed it `begin_block` / `record_access` /
/// `barrier_all` / `end_block` in execution order, then `finish`.
pub struct RaceRecorder {
    opts: RaceCheckOptions,
    report: RaceReport,
    /// Interned array names; word keys and findings refer to them by id.
    array_names: Vec<String>,
    /// Per interned array: master-only under the gating policy?
    master_only: Vec<bool>,
    cur: Option<BlockState>,
}

impl RaceRecorder {
    pub fn new(opts: RaceCheckOptions) -> Self {
        RaceRecorder {
            opts,
            report: RaceReport { checked: true, ..Default::default() },
            array_names: Vec::new(),
            master_only: Vec::new(),
            cur: None,
        }
    }

    /// Intern an array name once and reuse the id across
    /// [`RaceRecorder::record_access_by_id`] calls — callers on the hot
    /// path cache the id instead of resolving the name per access. The
    /// gating policy is resolved here too, once per array.
    pub fn intern_id(&mut self, array: &str) -> u32 {
        if let Some(id) = self.array_names.iter().position(|a| a == array) {
            return id as u32;
        }
        let master_only = self.opts.policy.as_ref().is_some_and(|p| p.is_master_only(array));
        self.master_only.push(master_only);
        self.array_names.push(array.to_string());
        (self.array_names.len() - 1) as u32
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
        // An unterminated previous block still counts as checked.
        self.end_block();
        self.cur = Some(BlockState {
            block,
            n_threads: n_threads as usize,
            epoch: 0,
            shadow: Shadow::default(),
            gating_reported: Vec::new(),
        });
    }

    /// One thread touched `array[index]` in `space`. Returns the finding
    /// this access triggered, if any (for fail-fast callers).
    pub fn record_access(
        &mut self,
        space: RaceSpace,
        array: &str,
        index: u32,
        thread: u32,
        write: bool,
        pc: u64,
    ) -> Option<&RaceFinding> {
        let array_id = self.intern_id(array);
        self.record_access_by_id(space, array_id, index, thread, write, pc)
    }

    /// [`RaceRecorder::record_access`] with a pre-interned array id (from
    /// [`RaceRecorder::intern_id`]); behaviorally identical.
    pub fn record_access_by_id(
        &mut self,
        space: RaceSpace,
        array_id: u32,
        index: u32,
        thread: u32,
        write: bool,
        pc: u64,
    ) -> Option<&RaceFinding> {
        let Some(cur) = &mut self.cur else { return None };
        self.report.accesses_checked += 1;
        let epoch = cur.epoch;
        let site = Site { thread, epoch, pc };
        let block = cur.block;

        // Gating check first: an un-gated broadcast store is both a W/W
        // race and a policy violation; report the policy violation once per
        // array.
        let mut gating_slave: Option<u32> = None;
        if write && self.master_only[array_id as usize] {
            let slave = self.opts.policy.as_ref().map_or(0, |p| p.slave_of(thread));
            if slave != 0 && !cur.gating_reported.contains(&array_id) {
                cur.gating_reported.push(array_id);
                gating_slave = Some(slave);
            }
        }

        let n_threads = cur.n_threads;
        let sh = &mut cur.shadow;
        let h = sh.word(array_id as usize * 2 + space as usize, index);
        let Shadow { words, more, .. } = sh;
        let word = &mut words[h];
        let mut race: Option<(RaceKind, AccessSite)> = None;
        if word.flags & REPORTED == 0 {
            let wr = word.last_write;
            if word.flags & HAS_WRITE != 0 && wr.thread != thread && wr.epoch == epoch {
                // A same-epoch prior write by another thread always
                // conflicts: W/W if we write, R/W if we read.
                let kind = if write { RaceKind::WriteWrite } else { RaceKind::ReadWrite };
                race = Some((kind, wr.public(true)));
            } else if write && word.flags & HAS_READ != 0 {
                let conflicts = |r: &Site| r.thread != thread && r.epoch == epoch;
                let later = match word.more {
                    0 => &[][..],
                    m => &more[m as usize - 1].sites[..],
                };
                race = std::iter::once(&word.first_read)
                    .chain(later)
                    .find(|r| conflicts(r))
                    .map(|r| (RaceKind::ReadWrite, r.public(false)));
            }
        }
        if race.is_some() {
            word.flags |= REPORTED;
        }

        // Writes supersede; reads keep one slot per thread, in first-read
        // order.
        if write {
            word.last_write = site;
            word.flags = (word.flags | HAS_WRITE) & !HAS_READ;
            if word.more != 0 {
                more[word.more as usize - 1].clear();
            }
        } else if word.flags & HAS_READ == 0 || word.first_read.thread == thread {
            word.first_read = site;
            word.flags |= HAS_READ;
        } else {
            if word.more == 0 {
                more.push(MoreReads::default());
                word.more = more.len() as u32;
            }
            more[word.more as usize - 1].read(site, n_threads);
        }

        if let Some(slave) = gating_slave {
            self.file(RaceFinding::MasterGatingViolation {
                block,
                space,
                array: self.array_names[array_id as usize].clone(),
                index: index.into(),
                thread,
                slave,
                pc,
            });
        }
        let (kind, first) = race?;
        self.file(RaceFinding::MemoryRace {
            space,
            block,
            array: self.array_names[array_id as usize].clone(),
            index: index.into(),
            kind,
            first,
            second: site.public(write),
        })
    }

    /// Every thread of the block passed one barrier (the lockstep
    /// interpreter passes every barrier block-wide).
    pub fn barrier_all(&mut self) {
        let Some(cur) = &mut self.cur else { return };
        cur.epoch += 1;
        self.report.barriers_seen += 1;
    }

    /// Finish the current block and drop its per-word state.
    pub fn end_block(&mut self) {
        if self.cur.take().is_some() {
            self.report.blocks_checked += 1;
        }
    }

    /// Close any open block and return the launch report.
    pub fn finish(mut self) -> RaceReport {
        self.end_block();
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
        r.barrier_all();
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
    fn large_reader_sets_keep_slot_order() {
        // 39 readers in reverse thread order: past the thread -> slot
        // index threshold, and out of thread order.
        let mut r = rec();
        r.begin_block(0, 64);
        for t in (1..40).rev() {
            r.record_access(RaceSpace::Shared, "b", 0, t, false, 100 - t as u64);
        }
        // A re-read moves the site but keeps the slot.
        r.record_access(RaceSpace::Shared, "b", 0, 38, false, 200);
        // Thread 39's own read (slot 0) is no conflict; slot 1 is.
        let f = r.record_access(RaceSpace::Shared, "b", 0, 39, true, 300).cloned();
        match f {
            Some(RaceFinding::MemoryRace { kind, first, second, .. }) => {
                assert_eq!(kind, RaceKind::ReadWrite);
                assert_eq!((first.thread, first.pc, first.write), (38, 200, false));
                assert_eq!((second.thread, second.pc, second.write), (39, 300, true));
            }
            other => panic!("expected a read-write race, got {other:?}"),
        }
    }

    #[test]
    fn appended_block_reports_match_one_recorder() {
        // Each block files two write-write races; the cap of 3 runs out in
        // the second block.
        let check_block = |r: &mut RaceRecorder, block: u64, pc0: u64| {
            r.begin_block(block, 2);
            for word in 0..2u32 {
                let pc = pc0 + 2 * u64::from(word);
                r.record_access(RaceSpace::Shared, "a", word, 0, true, pc);
                r.record_access(RaceSpace::Shared, "a", word, 1, true, pc + 1);
            }
            r.end_block();
        };
        let opts = RaceCheckOptions { max_findings: Some(3), policy: None };
        let mut one = RaceRecorder::new(opts.clone());
        check_block(&mut one, 0, 0);
        check_block(&mut one, 1, 10);
        let want = one.finish();

        let mut launch = RaceReport { checked: true, ..Default::default() };
        for (block, base) in [(0, 0), (1, 10)] {
            let mut r = RaceRecorder::new(opts.clone());
            check_block(&mut r, block, 0);
            launch.append(r.finish(), base, &opts);
        }
        assert_eq!(launch.to_json(), want.to_json());
        assert_eq!((launch.findings.len(), launch.truncated), (3, true));
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
        r.barrier_all();
        // Slave write: violation (and only one per array despite repeats).
        r.record_access(RaceSpace::Shared, "__np_bcast_x", 1, 40, true, 3);
        r.barrier_all();
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
            r.barrier_all();
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
        r.barrier_all();
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
