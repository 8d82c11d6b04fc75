//! Capture artifacts: the functional half of a launch, frozen.
//!
//! A [`CapturedLaunch`] is everything interpretation produces that the
//! timing engine consumes — the per-block [`BlockTrace`]s with their
//! profile counters — plus the launch geometry, the resource estimate, the
//! interpretation-affecting configuration (sampling, race mode, the
//! device's transaction/line sizes that were folded into the traces at
//! emission time), and the interpretation outcomes (race report, total
//! interpreted steps). Given a capture, [`crate::replay`] rebuilds the
//! exact timing report a direct simulation would have produced, without
//! re-interpreting the kernel.
//!
//! ## The `np-trace-v1` byte format
//!
//! ```text
//! magic   12 bytes  b"np-trace-v1\0"
//! digest   8 bytes  FNV-1a 64 of every body byte, little-endian
//! body     ...      field-by-field little-endian encoding (see encode_body)
//! ```
//!
//! The format is versioned by its magic: a future `np-trace-v2` changes
//! the magic, and v1 decoders reject it with [`TraceDecodeError::BadMagic`]
//! rather than misreading it. The digest covers *every* body field —
//! including the sampling configuration (`max_blocks`, `sim_blocks`,
//! `total_blocks`), so a sampled capture can never silently impersonate a
//! full one — and is verified before structural decoding, so any corrupt
//! byte yields a typed error, never a silently wrong trace. A digest-valid
//! artifact no kernel run could produce (warps of one block passing
//! different numbers of barriers) is rejected as well. Encoding is
//! canonical: `decode(encode(c)) == c` and `encode(decode(b)) == b` for
//! every valid artifact, which is what lets golden snapshots pin captures
//! byte-for-byte.

use crate::occupancy::KernelResources;
use crate::profile::ProfileCounters;
use crate::racecheck::{
    AccessSite, RaceCheckMode, RaceFinding, RaceKind, RaceReport, RaceSpace,
};
use crate::trace::{BlockTrace, ShflKind, WarpOp, WarpTrace};

/// Magic prefix naming the format version.
pub const TRACE_MAGIC: &[u8; 12] = b"np-trace-v1\0";

/// FNV-1a 64-bit hash — stable across platforms and builds, the same
/// function the serve cache uses for content addressing. Re-exported
/// from the shared `np-obs` home so the stack has exactly one FNV.
pub use np_obs::fnv::fnv64;

/// One launch's interpretation, frozen into a replayable artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedLaunch {
    /// Kernel name, carried into the replayed report.
    pub kernel_name: String,
    /// Grid dimensions of the launch.
    pub grid: [u32; 3],
    /// Block dimensions of the kernel.
    pub block_dim: [u32; 3],
    /// Blocks in the full grid.
    pub total_blocks: u64,
    /// Blocks actually interpreted (less than `total_blocks` under wave
    /// sampling).
    pub sim_blocks: u64,
    /// The sampling configuration interpretation ran under (`None` = full).
    /// Part of the digest: a sampled capture can never be replayed as full.
    pub max_blocks: Option<u64>,
    /// Global-memory transaction size the traces' coalescing summaries were
    /// computed with. Replay on a device with a different value is rejected.
    pub txn_bytes: u32,
    /// L1 line size folded into the traces' local/texture line addresses.
    pub l1_line: u32,
    /// Resource estimate the launch ran with (drives occupancy at replay).
    pub resources: KernelResources,
    /// How the race checker was armed.
    pub race_mode: RaceCheckMode,
    /// Total interpreted steps across all simulated blocks — lets replay
    /// reproduce the watchdog verdict for any budget without re-running.
    pub total_steps: u64,
    /// The happens-before race outcome of the captured run.
    pub race: RaceReport,
    /// The traces themselves, in block order.
    pub blocks: Vec<BlockTrace>,
}

impl CapturedLaunch {
    /// True when the capture was taken under wave sampling.
    pub fn is_sampled(&self) -> bool {
        self.max_blocks.is_some() || self.sim_blocks < self.total_blocks
    }

    /// FNV-64 content digest over the encoded body (what the header stores).
    pub fn digest(&self) -> u64 {
        let mut body = Vec::new();
        self.encode_body(&mut body);
        fnv64(&body)
    }

    /// Encode into the versioned `np-trace-v1` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let _obs = np_obs::span("trace.encode");
        let mut body = Vec::new();
        self.encode_body(&mut body);
        let mut out = Vec::with_capacity(TRACE_MAGIC.len() + 8 + body.len());
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&fnv64(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Strict round-trip decode: verifies the magic and the content digest
    /// before any structural parsing, then requires every byte to be
    /// consumed and the warps of each block to pass the same number of
    /// barriers. Never panics on arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<CapturedLaunch, TraceDecodeError> {
        let _obs = np_obs::span("trace.decode");
        if bytes.len() < TRACE_MAGIC.len() + 8 {
            if !bytes.starts_with(&TRACE_MAGIC[..bytes.len().min(TRACE_MAGIC.len())]) {
                return Err(TraceDecodeError::BadMagic);
            }
            return Err(TraceDecodeError::Truncated { at: "header" });
        }
        if &bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        let mut digest_bytes = [0u8; 8];
        digest_bytes.copy_from_slice(&bytes[TRACE_MAGIC.len()..TRACE_MAGIC.len() + 8]);
        let stored = u64::from_le_bytes(digest_bytes);
        let body = &bytes[TRACE_MAGIC.len() + 8..];
        let computed = fnv64(body);
        if stored != computed {
            return Err(TraceDecodeError::DigestMismatch { stored, computed });
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        let cap = decode_body(&mut cur)?;
        if cur.pos != body.len() {
            return Err(TraceDecodeError::TrailingBytes { extra: body.len() - cur.pos });
        }
        Ok(cap)
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        put_str(out, &self.kernel_name);
        for d in self.grid {
            put_u32(out, d);
        }
        for d in self.block_dim {
            put_u32(out, d);
        }
        put_u64(out, self.total_blocks);
        put_u64(out, self.sim_blocks);
        match self.max_blocks {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                put_u64(out, m);
            }
        }
        put_u32(out, self.txn_bytes);
        put_u32(out, self.l1_line);
        put_u32(out, self.resources.block_size);
        put_u32(out, self.resources.regs_per_thread);
        put_u32(out, self.resources.shared_per_block);
        put_u32(out, self.resources.local_per_thread);
        // Reserved, always 0; the next format version drops it.
        out.push(0);
        out.push(match self.race_mode {
            RaceCheckMode::Off => 0,
            RaceCheckMode::Record => 1,
            RaceCheckMode::Fatal => 2,
        });
        put_u64(out, self.total_steps);
        encode_race_report(out, &self.race);
        put_u32(out, self.blocks.len() as u32);
        for b in &self.blocks {
            put_u32(out, b.warps.len() as u32);
            for w in &b.warps {
                encode_counters(out, &w.counters);
                put_u32(out, w.ops.len() as u32);
                for op in &w.ops {
                    encode_op(out, op);
                }
            }
        }
    }
}

/// Typed decode failure. Every corrupt or truncated input maps to one of
/// these — decoding never panics and never yields a silently wrong trace
/// (the digest check rejects any body byte flip before structural parsing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The input does not start with the `np-trace-v1` magic (wrong file,
    /// or a future format version).
    BadMagic,
    /// The stored content digest does not match the body bytes.
    DigestMismatch { stored: u64, computed: u64 },
    /// The input ended mid-field.
    Truncated { at: &'static str },
    /// An enum tag byte holds no known value.
    InvalidTag { what: &'static str, tag: u8 },
    /// A string field is not valid UTF-8.
    InvalidUtf8 { what: &'static str },
    /// A length prefix exceeds the bytes actually present.
    LengthOverflow { what: &'static str, len: u64 },
    /// Bytes remain after a complete decode.
    TrailingBytes { extra: usize },
    /// The warps of one block pass different numbers of barriers, which
    /// no kernel run can produce and the timing engine cannot schedule.
    DivergentBarriers { block: u64 },
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "not an np-trace-v1 artifact"),
            TraceDecodeError::DigestMismatch { stored, computed } => write!(
                f,
                "content digest mismatch: header says {stored:#018x}, body hashes to \
                 {computed:#018x}"
            ),
            TraceDecodeError::Truncated { at } => write!(f, "truncated while reading {at}"),
            TraceDecodeError::InvalidTag { what, tag } => {
                write!(f, "invalid {what} tag {tag}")
            }
            TraceDecodeError::InvalidUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            TraceDecodeError::LengthOverflow { what, len } => {
                write!(f, "{what} length {len} exceeds remaining input")
            }
            TraceDecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete artifact")
            }
            TraceDecodeError::DivergentBarriers { block } => {
                write!(f, "the warps of block {block} pass different numbers of barriers")
            }
        }
    }
}

impl std::error::Error for TraceDecodeError {}

// ---- primitive writers ----

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_lines(out: &mut Vec<u8>, lines: &[u64]) {
    put_u32(out, lines.len() as u32);
    for &l in lines {
        put_u64(out, l);
    }
}

fn encode_counters(out: &mut Vec<u8>, c: &ProfileCounters) {
    for (_, v) in c.fields() {
        put_u64(out, v);
    }
}

fn encode_op(out: &mut Vec<u8>, op: &WarpOp) {
    match op {
        WarpOp::Alu { count } => {
            out.push(0);
            put_u16(out, *count);
        }
        WarpOp::Sfu { count } => {
            out.push(1);
            put_u16(out, *count);
        }
        WarpOp::GlobalLoad { segs, bytes } => {
            out.push(2);
            put_lines(out, segs);
            put_u16(out, *bytes);
        }
        WarpOp::GlobalStore { segs, bytes } => {
            out.push(3);
            put_lines(out, segs);
            put_u16(out, *bytes);
        }
        WarpOp::SharedLoad { passes } => {
            out.push(4);
            out.push(*passes);
        }
        WarpOp::SharedStore { passes } => {
            out.push(5);
            out.push(*passes);
        }
        WarpOp::LocalLoad { lines } => {
            out.push(6);
            put_lines(out, lines);
        }
        WarpOp::LocalStore { lines } => {
            out.push(7);
            put_lines(out, lines);
        }
        WarpOp::TexLoad { lines } => {
            out.push(8);
            put_lines(out, lines);
        }
        WarpOp::ConstLoad { words } => {
            out.push(9);
            out.push(*words);
        }
        WarpOp::Shfl { kind } => {
            out.push(10);
            out.push(match kind {
                ShflKind::Broadcast => 0,
                ShflKind::Xor => 1,
                ShflKind::Up => 2,
                ShflKind::Down => 3,
            });
        }
        WarpOp::Bar => out.push(11),
    }
}

fn encode_site(out: &mut Vec<u8>, s: &AccessSite) {
    put_u32(out, s.thread);
    put_u64(out, s.pc);
    put_u32(out, s.epoch);
    out.push(s.write as u8);
}

fn space_byte(s: RaceSpace) -> u8 {
    match s {
        RaceSpace::Shared => 0,
        RaceSpace::Global => 1,
    }
}

fn encode_race_report(out: &mut Vec<u8>, r: &RaceReport) {
    out.push(r.checked as u8);
    put_u64(out, r.blocks_checked);
    put_u64(out, r.accesses_checked);
    put_u64(out, r.barriers_seen);
    out.push(r.truncated as u8);
    put_u32(out, r.findings.len() as u32);
    for finding in &r.findings {
        match finding {
            RaceFinding::MemoryRace { space, block, array, index, kind, first, second } => {
                out.push(0);
                out.push(space_byte(*space));
                put_u64(out, *block);
                put_str(out, array);
                put_u64(out, *index);
                out.push(match kind {
                    RaceKind::WriteWrite => 0,
                    RaceKind::ReadWrite => 1,
                });
                encode_site(out, first);
                encode_site(out, second);
            }
            // Finding tag 1 is unassigned.
            RaceFinding::MasterGatingViolation { block, space, array, index, thread, slave, pc } => {
                out.push(2);
                put_u64(out, *block);
                out.push(space_byte(*space));
                put_str(out, array);
                put_u64(out, *index);
                put_u32(out, *thread);
                put_u32(out, *slave);
                put_u64(out, *pc);
            }
        }
    }
}

// ---- decoding ----

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, at: &'static str) -> Result<&[u8], TraceDecodeError> {
        if self.remaining() < n {
            return Err(TraceDecodeError::Truncated { at });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, at: &'static str) -> Result<u8, TraceDecodeError> {
        Ok(self.take(1, at)?[0])
    }

    fn bool(&mut self, at: &'static str) -> Result<bool, TraceDecodeError> {
        match self.u8(at)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(TraceDecodeError::InvalidTag { what: at, tag }),
        }
    }

    fn u16(&mut self, at: &'static str) -> Result<u16, TraceDecodeError> {
        let b = self.take(2, at)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, at: &'static str) -> Result<u32, TraceDecodeError> {
        let b = self.take(4, at)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, at: &'static str) -> Result<u64, TraceDecodeError> {
        let b = self.take(8, at)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A count prefix for elements at least `elem_size` bytes each; checked
    /// against the remaining input so a corrupt length can never trigger a
    /// huge allocation.
    fn count(
        &mut self,
        at: &'static str,
        elem_size: usize,
    ) -> Result<usize, TraceDecodeError> {
        let n = self.u32(at)? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(TraceDecodeError::LengthOverflow { what: at, len: n as u64 });
        }
        Ok(n)
    }

    fn string(&mut self, at: &'static str) -> Result<String, TraceDecodeError> {
        let n = self.count(at, 1)?;
        let bytes = self.take(n, at)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceDecodeError::InvalidUtf8 { what: at })
    }

    fn lines(&mut self, at: &'static str) -> Result<Vec<u64>, TraceDecodeError> {
        let n = self.count(at, 8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64(at)?);
        }
        Ok(v)
    }
}

fn decode_site(cur: &mut Cursor) -> Result<AccessSite, TraceDecodeError> {
    Ok(AccessSite {
        thread: cur.u32("site.thread")?,
        pc: cur.u64("site.pc")?,
        epoch: cur.u32("site.epoch")?,
        write: cur.bool("site.write")?,
    })
}

fn decode_space(cur: &mut Cursor) -> Result<RaceSpace, TraceDecodeError> {
    match cur.u8("race space")? {
        0 => Ok(RaceSpace::Shared),
        1 => Ok(RaceSpace::Global),
        tag => Err(TraceDecodeError::InvalidTag { what: "race space", tag }),
    }
}

fn decode_race_report(cur: &mut Cursor) -> Result<RaceReport, TraceDecodeError> {
    let checked = cur.bool("race.checked")?;
    let blocks_checked = cur.u64("race.blocks_checked")?;
    let accesses_checked = cur.u64("race.accesses_checked")?;
    let barriers_seen = cur.u64("race.barriers_seen")?;
    let truncated = cur.bool("race.truncated")?;
    let n = cur.count("race findings", 1)?;
    let mut findings = Vec::with_capacity(n);
    for _ in 0..n {
        let finding = match cur.u8("race finding")? {
            0 => {
                let space = decode_space(cur)?;
                let block = cur.u64("finding.block")?;
                let array = cur.string("finding.array")?;
                let index = cur.u64("finding.index")?;
                let kind = match cur.u8("race kind")? {
                    0 => RaceKind::WriteWrite,
                    1 => RaceKind::ReadWrite,
                    tag => return Err(TraceDecodeError::InvalidTag { what: "race kind", tag }),
                };
                let first = decode_site(cur)?;
                let second = decode_site(cur)?;
                RaceFinding::MemoryRace { space, block, array, index, kind, first, second }
            }
            2 => {
                let block = cur.u64("finding.block")?;
                let space = decode_space(cur)?;
                let array = cur.string("finding.array")?;
                let index = cur.u64("finding.index")?;
                let thread = cur.u32("finding.thread")?;
                let slave = cur.u32("finding.slave")?;
                let pc = cur.u64("finding.pc")?;
                RaceFinding::MasterGatingViolation { block, space, array, index, thread, slave, pc }
            }
            tag => return Err(TraceDecodeError::InvalidTag { what: "race finding", tag }),
        };
        findings.push(finding);
    }
    Ok(RaceReport { checked, findings, blocks_checked, accesses_checked, barriers_seen, truncated })
}

fn decode_counters(cur: &mut Cursor) -> Result<ProfileCounters, TraceDecodeError> {
    // Field order is the canonical `ProfileCounters::fields()` order; a
    // debug assertion in the roundtrip tests guards against reordering.
    Ok(ProfileCounters {
        instructions: cur.u64("counters")?,
        divergence_events: cur.u64("counters")?,
        divergent_instructions: cur.u64("counters")?,
        global_transactions: cur.u64("counters")?,
        ideal_global_transactions: cur.u64("counters")?,
        global_bytes: cur.u64("counters")?,
        shared_accesses: cur.u64("counters")?,
        bank_conflict_replays: cur.u64("counters")?,
        shared_bytes: cur.u64("counters")?,
        shared_broadcasts: cur.u64("counters")?,
        local_accesses: cur.u64("counters")?,
        local_bytes: cur.u64("counters")?,
        tex_accesses: cur.u64("counters")?,
        tex_bytes: cur.u64("counters")?,
        const_accesses: cur.u64("counters")?,
        const_bytes: cur.u64("counters")?,
        shfl_broadcasts: cur.u64("counters")?,
        shfl_reduction_steps: cur.u64("counters")?,
        shfl_scan_steps: cur.u64("counters")?,
        barrier_waits: cur.u64("counters")?,
    })
}

fn decode_op(cur: &mut Cursor) -> Result<WarpOp, TraceDecodeError> {
    Ok(match cur.u8("warp op")? {
        0 => WarpOp::Alu { count: cur.u16("alu count")? },
        1 => WarpOp::Sfu { count: cur.u16("sfu count")? },
        2 => WarpOp::GlobalLoad { segs: cur.lines("global segs")?, bytes: cur.u16("global bytes")? },
        3 => {
            WarpOp::GlobalStore { segs: cur.lines("global segs")?, bytes: cur.u16("global bytes")? }
        }
        4 => WarpOp::SharedLoad { passes: cur.u8("shared passes")? },
        5 => WarpOp::SharedStore { passes: cur.u8("shared passes")? },
        6 => WarpOp::LocalLoad { lines: cur.lines("local lines")? },
        7 => WarpOp::LocalStore { lines: cur.lines("local lines")? },
        8 => WarpOp::TexLoad { lines: cur.lines("tex lines")? },
        9 => WarpOp::ConstLoad { words: cur.u8("const words")? },
        10 => WarpOp::Shfl {
            kind: match cur.u8("shfl kind")? {
                0 => ShflKind::Broadcast,
                1 => ShflKind::Xor,
                2 => ShflKind::Up,
                3 => ShflKind::Down,
                tag => return Err(TraceDecodeError::InvalidTag { what: "shfl kind", tag }),
            },
        },
        11 => WarpOp::Bar,
        tag => return Err(TraceDecodeError::InvalidTag { what: "warp op", tag }),
    })
}

fn decode_body(cur: &mut Cursor) -> Result<CapturedLaunch, TraceDecodeError> {
    let kernel_name = cur.string("kernel name")?;
    let grid = [cur.u32("grid")?, cur.u32("grid")?, cur.u32("grid")?];
    let block_dim = [cur.u32("block dim")?, cur.u32("block dim")?, cur.u32("block dim")?];
    let total_blocks = cur.u64("total blocks")?;
    let sim_blocks = cur.u64("sim blocks")?;
    let max_blocks = match cur.u8("max_blocks tag")? {
        0 => None,
        1 => Some(cur.u64("max_blocks")?),
        tag => return Err(TraceDecodeError::InvalidTag { what: "max_blocks tag", tag }),
    };
    let txn_bytes = cur.u32("txn bytes")?;
    let l1_line = cur.u32("l1 line")?;
    let resources = KernelResources {
        block_size: cur.u32("resources")?,
        regs_per_thread: cur.u32("resources")?,
        shared_per_block: cur.u32("resources")?,
        local_per_thread: cur.u32("resources")?,
    };
    match cur.u8("reserved")? {
        0 => {}
        tag => return Err(TraceDecodeError::InvalidTag { what: "reserved", tag }),
    }
    let race_mode = match cur.u8("race mode")? {
        0 => RaceCheckMode::Off,
        1 => RaceCheckMode::Record,
        2 => RaceCheckMode::Fatal,
        tag => return Err(TraceDecodeError::InvalidTag { what: "race mode", tag }),
    };
    let total_steps = cur.u64("total steps")?;
    let race = decode_race_report(cur)?;
    let n_blocks = cur.count("blocks", 4)?;
    let mut blocks = Vec::with_capacity(n_blocks);
    for block in 0..n_blocks as u64 {
        // Counters alone are 160 bytes per warp.
        let n_warps = cur.count("warps", 160)?;
        let mut warps = Vec::with_capacity(n_warps);
        let mut block_bars = None;
        for _ in 0..n_warps {
            let counters = decode_counters(cur)?;
            let n_ops = cur.count("ops", 1)?;
            let mut ops = Vec::with_capacity(n_ops);
            let mut bars = 0usize;
            for _ in 0..n_ops {
                let op = decode_op(cur)?;
                bars += matches!(op, WarpOp::Bar) as usize;
                ops.push(op);
            }
            // Every warp of a block passes every barrier.
            if *block_bars.get_or_insert(bars) != bars {
                return Err(TraceDecodeError::DivergentBarriers { block });
            }
            warps.push(WarpTrace { ops, counters });
        }
        blocks.push(BlockTrace { warps });
    }
    Ok(CapturedLaunch {
        kernel_name,
        grid,
        block_dim,
        total_blocks,
        sim_blocks,
        max_blocks,
        txn_bytes,
        l1_line,
        resources,
        race_mode,
        total_steps,
        race,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CapturedLaunch {
        let mut blocks = Vec::new();
        for b in 0..3u64 {
            let mut warps = Vec::new();
            for w in 0..2u64 {
                let ops = vec![
                    WarpOp::Alu { count: (b * 2 + w) as u16 + 1 },
                    WarpOp::GlobalLoad { segs: vec![0, 128], bytes: 128 },
                    WarpOp::SharedStore { passes: 2 },
                    WarpOp::Shfl { kind: ShflKind::Xor },
                    WarpOp::Bar,
                ];
                let counters = ProfileCounters { instructions: 5 + b, ..Default::default() };
                warps.push(WarpTrace { ops, counters });
            }
            blocks.push(BlockTrace { warps });
        }
        CapturedLaunch {
            kernel_name: "k".into(),
            grid: [3, 1, 1],
            block_dim: [64, 1, 1],
            total_blocks: 3,
            sim_blocks: 3,
            max_blocks: None,
            txn_bytes: 128,
            l1_line: 128,
            resources: KernelResources {
                block_size: 64,
                regs_per_thread: 10,
                shared_per_block: 0,
                local_per_thread: 0,
            },
            race_mode: RaceCheckMode::Off,
            total_steps: 42,
            race: RaceReport::default(),
            blocks,
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let cap = sample();
        let bytes = cap.encode();
        let back = CapturedLaunch::decode(&bytes).unwrap();
        assert_eq!(cap, back);
        assert_eq!(back.encode(), bytes, "encode is canonical");
    }

    #[test]
    fn digest_changes_with_sampling_config() {
        let cap = sample();
        let mut sampled = cap.clone();
        sampled.max_blocks = Some(2);
        assert_ne!(cap.digest(), sampled.digest());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert_eq!(CapturedLaunch::decode(&bytes), Err(TraceDecodeError::BadMagic));
        assert!(matches!(
            CapturedLaunch::decode(b"xx"),
            Err(TraceDecodeError::BadMagic)
        ));
    }

    #[test]
    fn body_corruption_is_a_digest_mismatch() {
        let cap = sample();
        let bytes = cap.encode();
        for i in (TRACE_MAGIC.len() + 8..bytes.len()).step_by(7) {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            match CapturedLaunch::decode(&b) {
                Err(TraceDecodeError::DigestMismatch { .. }) => {}
                other => panic!("flip at {i}: expected digest mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn race_findings_roundtrip() {
        let mut cap = sample();
        cap.race = RaceReport {
            checked: true,
            findings: vec![
                RaceFinding::MemoryRace {
                    space: RaceSpace::Shared,
                    block: 1,
                    array: "tile".into(),
                    index: 7,
                    kind: RaceKind::ReadWrite,
                    first: AccessSite { thread: 3, pc: 10, epoch: 0, write: false },
                    second: AccessSite { thread: 35, pc: 20, epoch: 0, write: true },
                },
                RaceFinding::MasterGatingViolation {
                    block: 2,
                    space: RaceSpace::Global,
                    array: "stage".into(),
                    index: 0,
                    thread: 33,
                    slave: 1,
                    pc: 99,
                },
            ],
            blocks_checked: 3,
            accesses_checked: 100,
            barriers_seen: 6,
            truncated: false,
        };
        let back = CapturedLaunch::decode(&cap.encode()).unwrap();
        assert_eq!(cap, back);
    }

    #[test]
    fn counters_field_order_matches_codec() {
        // The codec writes counters in `fields()` order and decodes them
        // positionally; this pins the two against each other.
        let names: Vec<&str> =
            ProfileCounters::default().fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "instructions",
                "divergence_events",
                "divergent_instructions",
                "global_transactions",
                "ideal_global_transactions",
                "global_bytes",
                "shared_accesses",
                "bank_conflict_replays",
                "shared_bytes",
                "shared_broadcasts",
                "local_accesses",
                "local_bytes",
                "tex_accesses",
                "tex_bytes",
                "const_accesses",
                "const_bytes",
                "shfl_broadcasts",
                "shfl_reduction_steps",
                "shfl_scan_steps",
                "barrier_waits",
            ]
        );
    }

    #[test]
    fn truncated_input_is_typed() {
        let bytes = sample().encode();
        // Any truncation point: header truncations report Truncated, body
        // truncations fail the digest first (it covers fewer bytes).
        for cut in [0, 5, 12, 19, bytes.len() - 1] {
            let err = CapturedLaunch::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceDecodeError::BadMagic
                        | TraceDecodeError::Truncated { .. }
                        | TraceDecodeError::DigestMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }
}
