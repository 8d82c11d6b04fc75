//! Property-based tests of the happens-before race checker: over a family
//! of randomly generated barrier-communication kernels, the clean variant
//! is never flagged, the variant with a randomly removed barrier is always
//! flagged, the variant with an un-gated master-only store is always
//! flagged, every report is byte-identical across reruns, and fatal mode
//! faults exactly on the first finding record mode reports. Over random
//! recorder event streams, the recorder matches a reference model (the
//! earlier hash-map recorder) byte for byte, also when the stream is
//! checked one block at a time and the block reports are appended.

use np_exec::{launch, Args, ExecError, FaultKind, RaceCheckMode, SimOptions};
use np_gpu_sim::racecheck::{
    GatingPolicy, RaceCheckOptions, RaceFinding, RaceRecorder, RaceReport, RaceSpace,
};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::analysis::barriers::{count_barriers, remove_barrier};
use np_kernel_ir::expr::dsl::*;
use np_kernel_ir::types::Dim3;
use np_kernel_ir::{Kernel, KernelBuilder, Scalar};
use proptest::prelude::*;

/// Shape of one generated communication kernel: `warps * 32` threads per
/// block, `rounds` write/sync/read rounds through a shared tile, each
/// round reading the slot `offset` positions away (mod block size), so
/// every round's barrier orders a genuine cross-thread conflict.
#[derive(Debug, Clone)]
struct CommShape {
    warps: u32,
    rounds: u32,
    offset: u32,
    grid: u32,
}

fn arb_shape() -> impl Strategy<Value = CommShape> {
    (1u32..=4, 1u32..=3, 1u32..=127, 1u32..=2).prop_map(|(warps, rounds, offset, grid)| {
        CommShape { warps, rounds, offset: offset % (warps * 32 - 1) + 1, grid }
    })
}

/// Build the kernel: each round writes `tile[tid]`, syncs, then folds
/// `tile[(tid + offset) % n]` into an accumulator that ends in `out`.
/// Every barrier orders a write-then-foreign-read pair, so removing any
/// one of them leaves a same-epoch conflict.
fn comm_kernel(shape: &CommShape) -> Kernel {
    let n = shape.warps * 32;
    let mut b = KernelBuilder::new("comm", n);
    b.param_global_f32("src");
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, n);
    b.decl_f32("acc", f(0.0));
    for r in 0..shape.rounds {
        b.store("tile", tidx(), load("src", tidx() + i(r as i32)) + v("acc"));
        b.sync();
        b.assign(
            "acc",
            v("acc") + load("tile", (tidx() + i(shape.offset as i32)) % i(n as i32)),
        );
        // A trailing barrier between rounds orders this round's reads
        // against the next round's write (write-after-read); the last
        // round needs none — nothing touches the tile afterwards, so a
        // final barrier would be the one removable sync that no conflict
        // depends on.
        if r + 1 < shape.rounds {
            b.sync();
        }
    }
    b.store("out", tidx() + bidx() * bdimx(), v("acc"));
    b.finish()
}

fn comm_args(shape: &CommShape) -> Args {
    let n = (shape.warps * 32) as usize;
    Args::new()
        .buf_f32("src", (0..n + 8).map(|i| ((i * 31 % 67) as f32 - 33.0) / 16.0).collect())
        .buf_f32("out", vec![0.0; n * shape.grid as usize])
}

fn armed(policy: Option<GatingPolicy>) -> SimOptions {
    SimOptions::full()
        .with_race_check(RaceCheckMode::Record)
        .with_race_options(RaceCheckOptions { max_findings: None, policy })
}

fn run_checked(kernel: &Kernel, shape: &CommShape, policy: Option<GatingPolicy>) -> np_exec::KernelReport {
    let mut args = comm_args(shape);
    launch(
        &DeviceConfig::gtx680(),
        kernel,
        Dim3::x1(shape.grid),
        &mut args,
        &armed(policy),
    )
    .expect("record mode never faults on races")
}

/// One event of a random recorder stream. Threads wrap modulo the block
/// size.
#[derive(Debug, Clone)]
enum Ev {
    /// One thread touches one word.
    Access { global: bool, array: usize, index: u32, thread: u32, write: bool },
    /// Every thread reads one shared word, in thread order or reversed: a
    /// broadcast load, so reader sets grow past the recorder's index
    /// threshold.
    Broadcast { index: u32, reversed: bool },
    /// Threads `0..readers` read one shared word, the block passing a
    /// barrier after each odd reader, then `writer` writes the word: reads
    /// spanning epochs, then a write by another thread. Which reader a race
    /// names depends on the reader-slot order.
    ReadsThenWrite { index: u32, readers: u32, writer: u32 },
    /// The whole block passes a barrier.
    BarrierAll,
    /// The block ends and the next one begins.
    NextBlock,
}

/// Arrays of the random streams; the second is master-only under the
/// gating policy.
const ARRAYS: [&str; 2] = ["tile", "__np_bcast_x"];

/// Few words, so events collide; indices on both sides of a shadow page
/// boundary.
fn arb_index() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..3, 255u32..257]
}

fn arb_event() -> impl Strategy<Value = Ev> {
    let access = || {
        (any::<bool>(), 0usize..2, arb_index(), 0u32..40, any::<bool>()).prop_map(
            |(global, array, index, thread, write)| Ev::Access {
                global,
                array,
                index,
                thread,
                write,
            },
        )
    };
    prop_oneof![
        access(),
        access(),
        access(),
        access(),
        (arb_index(), any::<bool>())
            .prop_map(|(index, reversed)| Ev::Broadcast { index, reversed }),
        (arb_index(), 1u32..40, 0u32..40)
            .prop_map(|(index, readers, writer)| Ev::ReadsThenWrite { index, readers, writer }),
        Just(Ev::BarrierAll),
        Just(Ev::NextBlock),
    ]
}

/// One recorder call.
#[derive(Debug, Clone, Copy)]
enum Call {
    Begin(u64),
    Access { space: RaceSpace, array: &'static str, index: u32, thread: u32, write: bool, pc: u64 },
    BarrierAll,
    End,
}

/// Expand `events` into recorder calls over blocks of `n` threads, each
/// access one interpreter step after the last.
fn calls(events: &[Ev], n: u32) -> Vec<Call> {
    let mut out = vec![Call::Begin(0)];
    let mut pc = 0u64;
    let mut block = 0u64;
    let mut access = |out: &mut Vec<Call>, global: bool, array: usize, index, thread, write| {
        pc += 1;
        let space = if global { RaceSpace::Global } else { RaceSpace::Shared };
        out.push(Call::Access { space, array: ARRAYS[array], index, thread, write, pc });
    };
    for ev in events {
        match *ev {
            Ev::Access { global, array, index, thread, write } => {
                access(&mut out, global, array, index, thread % n, write)
            }
            Ev::Broadcast { index, reversed } => {
                for k in 0..n {
                    let t = if reversed { n - 1 - k } else { k };
                    access(&mut out, false, 0, index, t, false);
                }
            }
            Ev::ReadsThenWrite { index, readers, writer } => {
                for t in 0..readers.min(n) {
                    access(&mut out, false, 0, index, t, false);
                    if t % 2 == 1 {
                        out.push(Call::BarrierAll);
                    }
                }
                access(&mut out, false, 0, index, writer % n, true);
            }
            Ev::BarrierAll => out.push(Call::BarrierAll),
            Ev::NextBlock => {
                block += 1;
                out.extend([Call::End, Call::Begin(block)]);
            }
        }
    }
    out.push(Call::End);
    out
}

/// Feed `calls` to the reference model, returning its report and the
/// finding each access returned.
fn run_reference(
    calls: &[Call],
    n: u32,
    opts: &RaceCheckOptions,
) -> (RaceReport, Vec<Option<RaceFinding>>) {
    let mut r = reference::RaceRecorder::new(opts.clone());
    let mut returned = Vec::new();
    for &c in calls {
        match c {
            Call::Begin(block) => r.begin_block(block, n),
            Call::Access { space, array, index, thread, write, pc } => returned
                .push(r.record_access(space, array, index.into(), thread, write, pc).cloned()),
            Call::BarrierAll => r.barrier_all(),
            Call::End => r.end_block(),
        }
    }
    (r.finish(), returned)
}

/// Feed `calls` to the recorder. With `per_block`, every block gets a
/// recorder of its own, sees its pcs counted from the block's start, and
/// its report is appended to the launch report, as the parallel
/// interpreter's merge does.
fn run_recorder(
    calls: &[Call],
    n: u32,
    opts: &RaceCheckOptions,
    per_block: bool,
) -> (RaceReport, Vec<Option<RaceFinding>>) {
    let mut launch = RaceReport { checked: true, ..Default::default() };
    let mut r = RaceRecorder::new(opts.clone());
    let mut base = 0u64;
    let mut last_pc = 0u64;
    let mut returned = Vec::new();
    for &c in calls {
        match c {
            Call::Begin(block) => {
                if per_block {
                    base = last_pc;
                }
                r.begin_block(block, n)
            }
            Call::Access { space, array, index, thread, write, pc } => {
                last_pc = pc;
                let f = r.record_access(space, array, index, thread, write, pc - base);
                returned.push(f.cloned());
            }
            Call::BarrierAll => r.barrier_all(),
            Call::End => {
                r.end_block();
                if per_block {
                    let block = std::mem::replace(&mut r, RaceRecorder::new(opts.clone()));
                    launch.append(block.finish(), base, opts);
                }
            }
        }
    }
    if per_block {
        (launch, returned)
    } else {
        (r.finish(), returned)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean barrier-communication kernels are never flagged, and their
    /// reports are byte-identical across reruns.
    #[test]
    fn clean_comm_kernels_are_never_flagged(shape in arb_shape()) {
        let k = comm_kernel(&shape);
        let rep = run_checked(&k, &shape, None);
        prop_assert!(rep.race.checked);
        prop_assert!(
            rep.race.is_clean(),
            "{shape:?} flagged clean kernel:\n{}",
            rep.race.narrative()
        );
        prop_assert!(rep.race.accesses_checked > 0);
        prop_assert!(rep.race.barriers_seen as u32 >= 2 * shape.rounds - 1);
        let again = run_checked(&k, &shape, None);
        prop_assert_eq!(rep.race.to_json(), again.race.to_json());
    }

    /// Removing ANY one barrier from a communication kernel always leaves
    /// a same-epoch cross-thread conflict, and the checker always reports
    /// it with two distinct access sites in step order.
    #[test]
    fn any_dropped_barrier_is_always_flagged(shape in arb_shape(), pick in 0usize..64) {
        let k = comm_kernel(&shape);
        let total = count_barriers(&k);
        prop_assert_eq!(total as u32, 2 * shape.rounds - 1);
        let site = pick % total;
        let mut mutant = k.clone();
        prop_assert!(remove_barrier(&mut mutant.body, site));
        let rep = run_checked(&mutant, &shape, None);
        prop_assert!(
            !rep.race.is_clean(),
            "{shape:?}: dropped barrier {site}/{total} not flagged"
        );
        let mem = rep.race.findings.iter().find_map(|f| match f {
            RaceFinding::MemoryRace { first, second, space, .. } => {
                Some((*first, *second, *space))
            }
            _ => None,
        });
        let (first, second, space) = mem.expect("a memory race is reported");
        prop_assert_eq!(space, RaceSpace::Shared);
        prop_assert_ne!(first.thread, second.thread);
        prop_assert!(first.pc < second.pc, "sites ordered by interpreter step");
        // Determinism holds for racy reports too.
        let again = run_checked(&mutant, &shape, None);
        prop_assert_eq!(rep.race.to_json(), again.race.to_json());
    }

    /// A store to a master-only staging buffer by any thread of a nonzero
    /// slave group is always reported as a gating violation; the properly
    /// gated version never is.
    #[test]
    fn ungated_master_only_store_is_always_flagged(
        master in prop_oneof![Just(8u32), Just(16), Just(32)],
        slaves in 2u32..=4,
        gated in any::<bool>(),
    ) {
        let n = master * slaves;
        let mut b = KernelBuilder::new("bcast", n);
        b.param_global_f32("src");
        b.param_global_f32("out");
        b.shared_array("__np_bcast_x", Scalar::F32, master);
        // Inter-warp layout: slave id is tid / master, so slave 0 is the
        // first `master` threads.
        if gated {
            b.if_(lt(tidx(), i(master as i32)), |b| {
                b.store("__np_bcast_x", tidx(), load("src", tidx()));
            });
        } else {
            b.store("__np_bcast_x", tidx() % i(master as i32), load("src", tidx()));
        }
        b.sync();
        b.store(
            "out",
            tidx(),
            load("__np_bcast_x", tidx() % i(master as i32)),
        );
        let k = b.finish();

        let policy = GatingPolicy {
            master_size: master,
            slave_size: slaves,
            intra: false,
            master_only: vec!["__np_bcast_x".into()],
        };
        let mut args = Args::new()
            .buf_f32("src", (0..n as usize).map(|i| i as f32).collect())
            .buf_f32("out", vec![0.0; n as usize]);
        let rep = launch(
            &DeviceConfig::gtx680(),
            &k,
            Dim3::x1(1),
            &mut args,
            &armed(Some(policy)),
        )
        .expect("record mode never faults");
        prop_assert!(rep.race.checked);
        let gating = rep
            .race
            .findings
            .iter()
            .any(|f| matches!(f, RaceFinding::MasterGatingViolation { .. }));
        if gated {
            prop_assert!(rep.race.is_clean(), "gated store flagged:\n{}", rep.race.narrative());
        } else {
            prop_assert!(gating, "un-gated store not flagged:\n{}", rep.race.narrative());
        }
    }

    /// Fatal mode is record mode failing fast: the clean kernel runs to
    /// completion, and with any one barrier dropped the launch faults on
    /// exactly the first finding a record run reports, rendered byte for
    /// byte (the record run may take the parallel path, whose per-block
    /// reports are rebased; fatal mode always runs sequentially).
    #[test]
    fn fatal_mode_faults_on_the_first_recorded_finding(
        shape in arb_shape(),
        pick in 0usize..64,
    ) {
        let fatal = SimOptions::full().with_race_check(RaceCheckMode::Fatal);
        let run_fatal = |k: &Kernel| {
            let mut args = comm_args(&shape);
            launch(&DeviceConfig::gtx680(), k, Dim3::x1(shape.grid), &mut args, &fatal)
        };
        let k = comm_kernel(&shape);
        if let Err(e) = run_fatal(&k) {
            prop_assert!(false, "{shape:?}: clean kernel faulted: {e}");
        }
        let mut mutant = k.clone();
        prop_assert!(remove_barrier(&mut mutant.body, pick % count_barriers(&k)));
        let recorded = run_checked(&mutant, &shape, None);
        let first = recorded.race.findings.first().expect("a dropped barrier is flagged");
        match run_fatal(&mutant) {
            Err(ExecError::Fault(f)) => match &f.kind {
                FaultKind::RaceDetected { detail } => {
                    prop_assert_eq!(detail, &first.to_string());
                }
                other => prop_assert!(false, "expected RaceDetected, got {other:?}"),
            },
            other => prop_assert!(false, "expected a race fault, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The recorder against the reference model, over random event
    /// streams with block-wide barriers, a gating policy half the time and
    /// caps of 1 to 8 findings: identical JSON and narrative, identical
    /// findings returned access by access, and the same bytes again when
    /// every block is checked on its own and the reports are appended.
    #[test]
    fn recorder_matches_the_reference_model(
        events in proptest::collection::vec(arb_event(), 1..160),
        n in 2u32..=40,
        cap in 1usize..=8,
        gating in proptest::option::of((1u32..=4, any::<bool>())),
    ) {
        let policy = gating.map(|(slave_size, intra)| GatingPolicy {
            master_size: (n / slave_size).max(1),
            slave_size,
            intra,
            master_only: vec![ARRAYS[1].into()],
        });
        let opts = RaceCheckOptions { max_findings: Some(cap), policy };
        let calls = calls(&events, n);
        let (want, want_returned) = run_reference(&calls, n, &opts);
        let (got, got_returned) = run_recorder(&calls, n, &opts, false);
        prop_assert_eq!(got.to_json(), want.to_json(), "{:?}", events);
        prop_assert_eq!(got.narrative(), want.narrative());
        prop_assert_eq!(got_returned, want_returned);
        let (appended, _) = run_recorder(&calls, n, &opts, true);
        prop_assert_eq!(appended.to_json(), want.to_json(), "{:?}", events);
        prop_assert_eq!(appended.narrative(), want.narrative());
    }
}

/// The recorder as it was before its per-word state became a dense paged
/// shadow: a `HashMap` of words, each with a reader `Vec` in slot order.
/// It is the test-only reference model the recorder must match byte for
/// byte. The code is copied unchanged, except where it called two private
/// helpers, the finding cap and the gating name check, which are written
/// out inline, and without the per-thread barrier and barrier-divergence
/// code the recorder no longer has.
#[allow(dead_code)]
mod reference {
    use np_gpu_sim::racecheck::{
        AccessSite, RaceCheckOptions, RaceFinding, RaceKind, RaceReport, RaceSpace,
    };
    use std::collections::HashMap;

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
        words: HashMap<(RaceSpace, u32, u64), WordState>,
        gating_reported: Vec<u32>,
    }

    /// The event consumer. Feed it `begin_block` / `record_access` /
    /// `barrier_all` / `end_block` in execution order, then `finish`.
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
            if self.report.findings.len()
                >= self.opts.max_findings.unwrap_or(RaceCheckOptions::DEFAULT_MAX_FINDINGS)
            {
                self.report.truncated = true;
                return None;
            }
            self.report.findings.push(finding);
            self.report.findings.last()
        }

        /// Start tracking a new block of `n_threads` block-linear threads.
        pub fn begin_block(&mut self, block: u64, n_threads: u32) {
            self.close_block();
            self.cur = Some(BlockState {
                block,
                epochs: vec![0; n_threads as usize],
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
                    if policy.master_only.iter().any(|a| a == array) {
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

        /// Every thread of the block passed one barrier (the lockstep
        /// interpreter's barrier shape).
        pub fn barrier_all(&mut self) {
            let Some(cur) = &mut self.cur else { return };
            for e in &mut cur.epochs {
                *e += 1;
            }
            self.report.barriers_seen += 1;
        }

        /// Finish the current block and drop the per-word state.
        pub fn end_block(&mut self) {
            self.close_block();
        }

        fn close_block(&mut self) {
            if self.cur.take().is_some() {
                self.report.blocks_checked += 1;
            }
        }

        /// Close any open block and return the launch report.
        pub fn finish(mut self) -> RaceReport {
            self.close_block();
            self.report
        }
    }
}
