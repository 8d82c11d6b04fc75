//! Replay: re-time a [`CapturedLaunch`] without re-interpreting it.
//!
//! Interpretation is the expensive half of a simulation (the 161 s
//! paper-scale sweep spends most of its wall clock there); timing a
//! materialized trace through the engine is cheap. Replay feeds a capture's
//! block traces straight into [`crate::engine::simulate_blocks`] and
//! rebuilds the profile report from the traces' counters, reproducing the
//! exact [`TimingReport`] and [`ProfileReport`] a direct simulation under
//! the same device configuration would have produced.
//!
//! Replay *validates* rather than trusts: the trace's memory-cost
//! summaries were computed with the capturing device's transaction and L1
//! line sizes folded in at emission time, so replaying on a device with
//! different values would silently mis-time — [`replay`] rejects that with
//! a typed [`ReplayError`] instead.

use crate::capture::CapturedLaunch;
use crate::config::DeviceConfig;
use crate::engine::simulate_blocks;
use crate::occupancy::{occupancy, Occupancy, OccupancyError};
use crate::profile::ProfileReport;
use crate::stats::TimingReport;

/// Why a capture cannot be replayed as requested. Every variant is a
/// *configuration* problem — a decoded artifact is internally consistent
/// (the codec's digest guarantees that), but not every artifact is valid
/// under every device or simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The replay device's transaction/line geometry differs from what the
    /// traces were emitted under.
    DeviceMismatch { field: &'static str, captured: u32, requested: u32 },
    /// The capture was taken under a different sampling configuration than
    /// the replay requests (a sampled capture can never stand in for a
    /// full run, or vice versa).
    SamplingMismatch { captured: Option<u64>, requested: Option<u64> },
    /// The replay requests a different race-checker arming than the capture
    /// ran under — the race outcome is an interpretation artifact and
    /// cannot be recomputed from traces.
    RaceConfigMismatch { captured: &'static str, requested: &'static str },
    /// The requested option needs interpretation (e.g. fault injection) and
    /// is meaningless against a frozen trace.
    NeedsInterpretation { what: &'static str },
    /// The capture's kernel cannot launch on the replay device at all.
    Occupancy(OccupancyError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::DeviceMismatch { field, captured, requested } => write!(
                f,
                "trace was captured with {field}={captured} but the replay device has \
                 {field}={requested}"
            ),
            ReplayError::SamplingMismatch { captured, requested } => write!(
                f,
                "trace was captured with sampling {captured:?} but replay requests \
                 {requested:?}"
            ),
            ReplayError::RaceConfigMismatch { captured, requested } => write!(
                f,
                "trace was captured with race checking {captured} but replay requests \
                 {requested}"
            ),
            ReplayError::NeedsInterpretation { what } => {
                write!(f, "{what} requires interpretation and cannot be replayed from a trace")
            }
            ReplayError::Occupancy(e) => write!(f, "capture cannot launch on replay device: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What replaying a capture yields: everything a `KernelReport` needs that
/// is not already stored on the capture itself.
#[derive(Debug, Clone)]
pub struct ReplayedLaunch {
    pub timing: TimingReport,
    pub occupancy: Occupancy,
    pub profile: ProfileReport,
}

/// Check that `dev` is compatible with the geometry baked into `cap`'s
/// traces at emission time.
pub fn validate_device(dev: &DeviceConfig, cap: &CapturedLaunch) -> Result<(), ReplayError> {
    if dev.txn_bytes != cap.txn_bytes {
        return Err(ReplayError::DeviceMismatch {
            field: "txn_bytes",
            captured: cap.txn_bytes,
            requested: dev.txn_bytes,
        });
    }
    if dev.l1_line != cap.l1_line {
        return Err(ReplayError::DeviceMismatch {
            field: "l1_line",
            captured: cap.l1_line,
            requested: dev.l1_line,
        });
    }
    Ok(())
}

/// Re-time `cap` on `dev`. Byte-identical to direct simulation: the same
/// engine consumes the same traces under the same occupancy, and the
/// profile report is rebuilt from the traces' counters in block order.
pub fn replay(dev: &DeviceConfig, cap: &CapturedLaunch) -> Result<ReplayedLaunch, ReplayError> {
    validate_device(dev, cap)?;
    let occ = occupancy(dev, &cap.resources).map_err(ReplayError::Occupancy)?;
    let mut profile = ProfileReport::default();
    for b in &cap.blocks {
        profile.record_block(b);
    }
    let timing = simulate_blocks(dev, &occ, &cap.blocks, cap.total_blocks);
    Ok(ReplayedLaunch { timing, occupancy: occ, profile })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::KernelResources;
    use crate::racecheck::{RaceCheckMode, RaceReport};
    use crate::trace::{BlockTrace, TraceBuilder, WarpOp};

    fn capture_of(blocks: Vec<BlockTrace>, total: u64) -> CapturedLaunch {
        CapturedLaunch {
            kernel_name: "k".into(),
            grid: [total as u32, 1, 1],
            block_dim: [64, 1, 1],
            total_blocks: total,
            sim_blocks: blocks.len() as u64,
            max_blocks: None,
            txn_bytes: 128,
            l1_line: 128,
            resources: KernelResources {
                block_size: 64,
                regs_per_thread: 8,
                shared_per_block: 0,
                local_per_thread: 0,
            },
            race_mode: RaceCheckMode::Off,
            total_steps: 10,
            race: RaceReport::default(),
            blocks,
        }
    }

    fn some_blocks(n: usize) -> Vec<BlockTrace> {
        (0..n)
            .map(|i| {
                let mut b = TraceBuilder::new(128, 128);
                b.alu((i + 1) as u16);
                b.push_raw(WarpOp::GlobalLoad { segs: vec![i as u64 * 128], bytes: 128 });
                let mut w = TraceBuilder::new(128, 128);
                w.alu(2);
                BlockTrace { warps: vec![b.finish(), w.finish()] }
            })
            .collect()
    }

    #[test]
    fn replay_matches_direct_simulation() {
        let dev = DeviceConfig::small_test();
        let blocks = some_blocks(4);
        let cap = capture_of(blocks.clone(), 4);
        let occ = occupancy(&dev, &cap.resources).unwrap();
        let direct = simulate_blocks(&dev, &occ, &blocks, 4);
        let replayed = replay(&dev, &cap).unwrap();
        assert_eq!(format!("{direct:?}"), format!("{:?}", replayed.timing));
    }

    #[test]
    fn device_geometry_mismatch_is_rejected() {
        let dev = DeviceConfig::small_test();
        let mut cap = capture_of(some_blocks(1), 1);
        cap.txn_bytes = 32;
        assert!(matches!(
            replay(&dev, &cap),
            Err(ReplayError::DeviceMismatch { field: "txn_bytes", .. })
        ));
        cap.txn_bytes = dev.txn_bytes;
        cap.l1_line = 64;
        assert!(matches!(
            replay(&dev, &cap),
            Err(ReplayError::DeviceMismatch { field: "l1_line", .. })
        ));
    }

    #[test]
    fn impossible_occupancy_is_rejected() {
        let dev = DeviceConfig::small_test();
        let mut cap = capture_of(some_blocks(1), 1);
        cap.resources.regs_per_thread = 100_000;
        assert!(matches!(replay(&dev, &cap), Err(ReplayError::Occupancy(_))));
    }
}
