//! Property tests for the `np-trace-v1` codec: round-tripping is the
//! identity on arbitrary captures, the content digest is sensitive to
//! every field (a flipped field can never impersonate the original), and
//! decoding adversarial bytes — corrupted, truncated, pure garbage, or
//! digest-valid but impossible (divergent barrier counts, a nonzero
//! reserved byte) — always yields a *typed* error and never panics or
//! returns a silently wrong trace.

use np_gpu_sim::capture::fnv64;
use np_gpu_sim::racecheck::{
    AccessSite, RaceCheckMode, RaceFinding, RaceKind, RaceReport, RaceSpace,
};
use np_gpu_sim::{
    BlockTrace, CapturedLaunch, KernelResources, ProfileCounters, ShflKind, TraceDecodeError,
    WarpOp, WarpTrace, TRACE_MAGIC,
};
use proptest::prelude::*;

/// Deterministically expand a few random scalars into a full capture.
/// The op stream, counters, and race findings are all derived from
/// `seed` via a splitmix64 walk, so one u64 of entropy yields structural
/// variety (every op tag, every finding kind) without a bespoke
/// strategy per field. The warps of a block pass the same number of
/// barriers, at random points of their op streams, as every kernel run's
/// do.
fn make_cap(seed: u64, n_blocks: usize, n_warps: usize, n_ops: usize, sampled: bool) -> CapturedLaunch {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };

    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let bars = next() % 3;
        let mut warps = Vec::with_capacity(n_warps);
        for _ in 0..n_warps {
            let mut ops = Vec::with_capacity(n_ops + bars as usize);
            for _ in 0..n_ops {
                ops.push(match next() % 11 {
                    0 => WarpOp::Alu { count: (next() % 64) as u16 + 1 },
                    1 => WarpOp::Sfu { count: (next() % 8) as u16 + 1 },
                    2 => WarpOp::GlobalLoad {
                        segs: vec![next() % 4096, next() % 4096],
                        bytes: 128,
                    },
                    3 => WarpOp::GlobalStore { segs: vec![next() % 4096], bytes: 128 },
                    4 => WarpOp::SharedLoad { passes: (next() % 4) as u8 + 1 },
                    5 => WarpOp::SharedStore { passes: (next() % 4) as u8 + 1 },
                    6 => WarpOp::LocalLoad { lines: vec![next() % 512] },
                    7 => WarpOp::LocalStore { lines: vec![next() % 512] },
                    8 => WarpOp::TexLoad { lines: vec![next() % 512, next() % 512] },
                    9 => WarpOp::ConstLoad { words: (next() % 3) as u8 + 1 },
                    _ => WarpOp::Shfl {
                        kind: match next() % 4 {
                            0 => ShflKind::Broadcast,
                            1 => ShflKind::Xor,
                            2 => ShflKind::Up,
                            _ => ShflKind::Down,
                        },
                    },
                });
            }
            for _ in 0..bars {
                let at = (next() % (ops.len() as u64 + 1)) as usize;
                ops.insert(at, WarpOp::Bar);
            }
            let counters = ProfileCounters {
                instructions: next() % 10_000,
                global_transactions: next() % 1_000,
                shared_accesses: next() % 1_000,
                barrier_waits: next() % 100,
                ..Default::default()
            };
            warps.push(WarpTrace { ops, counters });
        }
        blocks.push(BlockTrace { warps });
    }

    let total_blocks = if sampled { n_blocks as u64 * 4 } else { n_blocks as u64 };
    let race = if next() % 2 == 0 {
        RaceReport::default()
    } else {
        RaceReport {
            checked: true,
            findings: vec![
                RaceFinding::MemoryRace {
                    space: if next() % 2 == 0 { RaceSpace::Shared } else { RaceSpace::Global },
                    block: next() % 8,
                    array: format!("a{}", next() % 10),
                    index: next() % 256,
                    kind: if next() % 2 == 0 { RaceKind::WriteWrite } else { RaceKind::ReadWrite },
                    first: AccessSite {
                        thread: (next() % 64) as u32,
                        pc: next() % 100,
                        epoch: (next() % 4) as u32,
                        write: next() % 2 == 0,
                    },
                    second: AccessSite {
                        thread: (next() % 64) as u32,
                        pc: next() % 100,
                        epoch: (next() % 4) as u32,
                        write: true,
                    },
                },
                RaceFinding::MasterGatingViolation {
                    block: next() % 8,
                    space: RaceSpace::Shared,
                    array: "tile".into(),
                    index: next() % 64,
                    thread: (next() % 64) as u32,
                    slave: (next() % 8) as u32,
                    pc: next() % 100,
                },
            ],
            blocks_checked: n_blocks as u64,
            accesses_checked: next() % 10_000,
            barriers_seen: next() % 100,
            truncated: next() % 8 == 0,
        }
    };

    CapturedLaunch {
        kernel_name: format!("k{}", seed % 1000),
        grid: [total_blocks as u32, 1, 1],
        block_dim: [(next() % 8 + 1) as u32 * 32, 1, 1],
        total_blocks,
        sim_blocks: n_blocks as u64,
        max_blocks: if sampled { Some(n_blocks as u64) } else { None },
        txn_bytes: 128,
        l1_line: 128,
        resources: KernelResources {
            block_size: 64,
            regs_per_thread: (next() % 63) as u32 + 1,
            shared_per_block: (next() % 48) as u32 * 1024,
            local_per_thread: (next() % 4) as u32 * 64,
        },
        race_mode: match next() % 3 {
            0 => RaceCheckMode::Off,
            1 => RaceCheckMode::Record,
            _ => RaceCheckMode::Fatal,
        },
        total_steps: next() % 1_000_000,
        race,
        blocks,
    }
}

/// The body bytes of a capture's encoding (magic and digest stripped).
fn body_of(cap: &CapturedLaunch) -> Vec<u8> {
    cap.encode()[TRACE_MAGIC.len() + 8..].to_vec()
}

/// Wrap `body` in the magic and its digest: a digest-valid artifact.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.extend_from_slice(&fnv64(body).to_le_bytes());
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(c)) == c, and encode is canonical: re-encoding the
    /// decoded capture reproduces the input bytes exactly. This is the
    /// property golden snapshots and content-addressed caching rest on.
    #[test]
    fn round_trip_is_identity(
        seed in 0u64..u64::MAX,
        n_blocks in 0usize..4,
        n_warps in 0usize..3,
        n_ops in 0usize..12,
        sampled in any::<bool>(),
    ) {
        let cap = make_cap(seed, n_blocks, n_warps, n_ops, sampled);
        let bytes = cap.encode();
        let back = CapturedLaunch::decode(&bytes).expect("valid artifact decodes");
        prop_assert_eq!(&back, &cap);
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.digest(), cap.digest());
    }

    /// Flipping any semantic field moves the digest: two captures that
    /// differ anywhere — geometry, sampling config, race outcome, a single
    /// op — can never share a content address.
    #[test]
    fn digest_is_sensitive_to_every_field(seed in 0u64..u64::MAX) {
        let cap = make_cap(seed, 2, 2, 6, false);
        let d = cap.digest();

        let mut m = cap.clone();
        m.kernel_name.push('x');
        prop_assert_ne!(d, m.digest(), "kernel_name");

        let mut m = cap.clone();
        m.grid[0] += 1;
        prop_assert_ne!(d, m.digest(), "grid");

        let mut m = cap.clone();
        m.block_dim[0] += 32;
        prop_assert_ne!(d, m.digest(), "block_dim");

        let mut m = cap.clone();
        m.total_blocks += 1;
        prop_assert_ne!(d, m.digest(), "total_blocks");

        // The sampling config is part of the digest (satellite: a sampled
        // capture must never impersonate a full one).
        let mut m = cap.clone();
        m.max_blocks = Some(1);
        prop_assert_ne!(d, m.digest(), "max_blocks");

        let mut m = cap.clone();
        m.txn_bytes *= 2;
        prop_assert_ne!(d, m.digest(), "txn_bytes");

        let mut m = cap.clone();
        m.resources.regs_per_thread += 1;
        prop_assert_ne!(d, m.digest(), "resources");

        let mut m = cap.clone();
        m.race_mode = match m.race_mode {
            RaceCheckMode::Off => RaceCheckMode::Record,
            _ => RaceCheckMode::Off,
        };
        prop_assert_ne!(d, m.digest(), "race_mode");

        let mut m = cap.clone();
        m.total_steps += 1;
        prop_assert_ne!(d, m.digest(), "total_steps");

        let mut m = cap.clone();
        m.race.accesses_checked += 1;
        prop_assert_ne!(d, m.digest(), "race report");

        let mut m = cap.clone();
        m.blocks[0].warps[0].ops.push(WarpOp::Bar);
        prop_assert_ne!(d, m.digest(), "ops");

        let mut m = cap.clone();
        m.blocks[0].warps[0].counters.instructions += 1;
        prop_assert_ne!(d, m.digest(), "counters");
    }

    /// Flip any single byte of a valid artifact: the decoder returns a
    /// typed error — body flips fail the digest check, magic flips are
    /// BadMagic, digest-header flips are DigestMismatch. It never panics
    /// and never returns a capture different from the original.
    #[test]
    fn corrupt_byte_yields_typed_error_never_panic(
        seed in 0u64..u64::MAX,
        pos_pick in 0u64..u64::MAX,
        xor in 1u8..=255,
    ) {
        let cap = make_cap(seed, 2, 1, 5, false);
        let mut bytes = cap.encode();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        match CapturedLaunch::decode(&bytes) {
            Err(TraceDecodeError::BadMagic) => {
                prop_assert!(pos < TRACE_MAGIC.len(), "BadMagic from flip at {pos}");
            }
            Err(TraceDecodeError::DigestMismatch { .. }) => {
                prop_assert!(pos >= TRACE_MAGIC.len(), "DigestMismatch from magic flip at {pos}");
            }
            Err(other) => panic!("flip at {pos}: unexpected error {other:?}"),
            // An FNV-64 collision from a single-byte flip is not possible
            // (the hash is injective under single-byte perturbation of
            // fixed-length input only probabilistically — but a *success*
            // must at least reproduce the original capture's bytes, which
            // a flipped buffer cannot).
            Ok(_) => panic!("flip at {pos} decoded successfully"),
        }
    }

    /// Truncating a valid artifact anywhere yields a typed error.
    #[test]
    fn truncation_yields_typed_error(
        seed in 0u64..u64::MAX,
        cut_pick in 0u64..u64::MAX,
    ) {
        let cap = make_cap(seed, 2, 1, 4, false);
        let bytes = cap.encode();
        let cut = (cut_pick % bytes.len() as u64) as usize;
        let err = CapturedLaunch::decode(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                TraceDecodeError::BadMagic
                    | TraceDecodeError::Truncated { .. }
                    | TraceDecodeError::DigestMismatch { .. }
            ),
            "cut at {cut}: {err:?}"
        );
    }

    /// Pure garbage never panics the decoder. A random buffer that happens
    /// to start with the magic must still fail the digest (the odds of
    /// random bytes hashing consistently are 2^-64); anything else is
    /// BadMagic or a header truncation.
    #[test]
    fn garbage_input_never_panics(
        raw in proptest::collection::vec(0u8..=255, 0..200),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = raw;
        if with_magic {
            let mut prefixed = TRACE_MAGIC.to_vec();
            prefixed.extend_from_slice(&bytes);
            bytes = prefixed;
        }
        // A typed error is exactly what we demand; in the vanishingly
        // unlikely event random bytes decode, they must be a genuine
        // fixed point of the codec.
        if let Ok(cap) = CapturedLaunch::decode(&bytes) {
            prop_assert_eq!(cap.encode(), bytes);
        }
    }

    /// Trailing bytes whose digest still verifies are rejected explicitly:
    /// append garbage *and* fix up the header digest — the structural pass
    /// must notice the unconsumed tail.
    #[test]
    fn trailing_bytes_are_rejected(
        seed in 0u64..u64::MAX,
        extra in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let cap = make_cap(seed, 1, 1, 3, false);
        let mut body = body_of(&cap);
        body.extend_from_slice(&extra);
        match CapturedLaunch::decode(&seal(&body)) {
            Err(TraceDecodeError::TrailingBytes { extra: n }) => {
                prop_assert_eq!(n, extra.len());
            }
            // The appended garbage may also derail a length-prefixed field
            // mid-parse; any typed error is acceptable, success is not.
            Err(_) => {}
            Ok(_) => panic!("artifact with {} trailing bytes decoded", extra.len()),
        }
    }

    /// A digest-valid artifact whose warps disagree on one block's barrier
    /// count decodes to a typed error naming that block. No kernel run
    /// produces one, and replaying it would trip the timing engine's
    /// barrier assertion.
    #[test]
    fn divergent_barrier_counts_are_rejected(
        seed in 0u64..u64::MAX,
        n_blocks in 1usize..4,
        n_warps in 2usize..4,
        pick in 0usize..64,
        extra in 1usize..3,
    ) {
        let mut cap = make_cap(seed, n_blocks, n_warps, 5, false);
        let block = pick % n_blocks;
        let warp = pick / n_blocks % n_warps;
        for _ in 0..extra {
            cap.blocks[block].warps[warp].ops.push(WarpOp::Bar);
        }
        // `encode` digests whatever it is given.
        prop_assert_eq!(
            CapturedLaunch::decode(&cap.encode()),
            Err(TraceDecodeError::DivergentBarriers { block: block as u64 })
        );
    }

    /// The byte after the resource estimate is reserved: any value but 0,
    /// re-digested, is an invalid tag.
    #[test]
    fn nonzero_reserved_byte_is_rejected(
        seed in 0u64..u64::MAX,
        sampled in any::<bool>(),
        tag in 1u8..=255,
    ) {
        let cap = make_cap(seed, 1, 1, 3, sampled);
        let mut body = body_of(&cap);
        // name, grid, block_dim, total/sim blocks, max_blocks, txn, l1 line,
        // resources
        let max_blocks = if sampled { 9 } else { 1 };
        let at = 4 + cap.kernel_name.len() + 12 + 12 + 16 + max_blocks + 4 + 4 + 16;
        prop_assert_eq!(body[at], 0);
        body[at] = tag;
        prop_assert_eq!(
            CapturedLaunch::decode(&seal(&body)),
            Err(TraceDecodeError::InvalidTag { what: "reserved", tag })
        );
    }
}
