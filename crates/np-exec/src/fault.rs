//! Typed simulation faults — the compute-sanitizer layer.
//!
//! A [`SimFault`] is a kernel contract violation *detected by the
//! simulator*: out-of-bounds accesses, data races (under
//! [`crate::RaceCheckMode::Fatal`]), divergent barriers, undeclared or
//! ill-typed names, runaway kernels caught by the watchdog, and injected
//! hardware faults. Faults are ordinary values —
//! the interpreter threads them out through `Result` instead of
//! panicking, so one illegal transformed kernel cannot take down an
//! autotuning run or a harness sweep (the paper's Section-5 tuner runs
//! many generated variants; a bad candidate must be *reported*, not
//! fatal).

use np_gpu_sim::mem::inject::InjectSpace;
use np_kernel_ir::types::MemSpace;

/// What went wrong. Marked non-exhaustive: downstream matches must keep a
/// wildcard arm so new detectors can be added without a breaking change.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// An access outside an array's bounds, in any memory space.
    OutOfBounds {
        space: MemSpace,
        array: String,
        /// The lane's index expression value (may be negative).
        index: i64,
        len: usize,
        write: bool,
    },
    /// A `__syncthreads()` executed under non-uniform control flow.
    BarrierDivergence { detail: String },
    /// A scalar, parameter, or array name with no binding.
    UndeclaredName { name: String },
    /// A type error the kernel's own code committed (mismatched store
    /// type, non-integer index, non-bool condition, ...).
    IllTyped { detail: String },
    /// A dynamically invalid operation (division by zero, bad `__shfl`
    /// width, array declared in a non-array space, ...).
    InvalidOperation { detail: String },
    /// The kernel exceeded the interpreter step budget
    /// ([`crate::SimOptions::watchdog_steps`]): an infinite or runaway
    /// loop.
    Watchdog { limit: u64 },
    /// The launch outlived its wall-clock deadline
    /// ([`crate::SimOptions::deadline`]). Unlike [`FaultKind::Watchdog`]
    /// (a deterministic step budget naming a runaway kernel), a deadline
    /// names an *overloaded or slow host* — serving layers classify it as
    /// transient and retryable.
    Deadline { budget_ms: u64 },
    /// A fault forced by the seeded injector
    /// ([`np_gpu_sim::mem::inject`]).
    Injected { space: InjectSpace, addr: u64 },
    /// The happens-before race checker found a violation while running in
    /// fatal mode ([`crate::RaceCheckMode::Fatal`]). The detail is the
    /// finding's rendered narrative, naming both access sites.
    RaceDetected { detail: String },
    /// The host code violated the launch API contract (e.g. binding the
    /// same argument name twice). Detected at launch setup, before any
    /// kernel code runs.
    ContractViolation { detail: String },
}

impl FaultKind {
    /// Short stable tag for summaries and tuning tables.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::OutOfBounds { .. } => "out-of-bounds",
            FaultKind::BarrierDivergence { .. } => "barrier divergence",
            FaultKind::UndeclaredName { .. } => "undeclared name",
            FaultKind::IllTyped { .. } => "ill-typed",
            FaultKind::InvalidOperation { .. } => "invalid operation",
            FaultKind::Watchdog { .. } => "watchdog timeout",
            FaultKind::Deadline { .. } => "deadline exceeded",
            FaultKind::Injected { .. } => "injected fault",
            FaultKind::RaceDetected { .. } => "race detected",
            FaultKind::ContractViolation { .. } => "contract violation",
        }
    }

    /// Whether a retry of the *same* kernel could plausibly succeed.
    ///
    /// Deadlines depend on host load and injected faults model transient
    /// hardware blips; everything else is a deterministic property of the
    /// kernel (re-running reproduces it), so serving layers should report
    /// it as permanent rather than burn retries.
    pub fn transient(&self) -> bool {
        matches!(self, FaultKind::Deadline { .. } | FaultKind::Injected { .. })
    }
}

/// One detected violation, with as much execution context as the
/// detection site had: which kernel, which warp and lane, and what the
/// surrounding statement was doing.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct SimFault {
    pub kernel: String,
    pub kind: FaultKind,
    /// Global warp id (block-major) of the faulting warp, when the fault
    /// is attributable to one warp.
    pub warp: Option<u64>,
    /// Lane within the warp, when attributable to one lane.
    pub lane: Option<usize>,
    /// Free-form statement context, e.g. `"load tile[i]"`.
    pub context: Option<String>,
}

impl SimFault {
    pub fn new(kernel: &str, kind: FaultKind) -> Self {
        SimFault { kernel: kernel.to_string(), kind, warp: None, lane: None, context: None }
    }

    pub fn at_warp(mut self, warp: u64) -> Self {
        self.warp = Some(warp);
        self
    }

    pub fn at_lane(mut self, lane: usize) -> Self {
        self.lane = Some(lane);
        self
    }

    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.context = Some(context.into());
        self
    }
}

impl std::fmt::Display for SimFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in kernel {:?}", self.kind.tag(), self.kernel)?;
        if let Some(w) = self.warp {
            write!(f, ", warp {w}")?;
        }
        if let Some(l) = self.lane {
            write!(f, ", lane {l}")?;
        }
        match &self.kind {
            FaultKind::OutOfBounds { space, array, index, len, write } => write!(
                f,
                ": {} {array}[{index}] (len {len}, {space:?} space)",
                if *write { "write" } else { "read" },
            )?,
            FaultKind::BarrierDivergence { detail } => write!(f, ": {detail}")?,
            FaultKind::UndeclaredName { name } => write!(f, ": {name:?}")?,
            FaultKind::IllTyped { detail } => write!(f, ": {detail}")?,
            FaultKind::InvalidOperation { detail } => write!(f, ": {detail}")?,
            FaultKind::Watchdog { limit } => {
                write!(f, ": exceeded {limit} interpreted steps (infinite loop?)")?
            }
            FaultKind::Deadline { budget_ms } => {
                write!(f, ": exceeded the {budget_ms} ms wall-clock budget")?
            }
            FaultKind::Injected { space, addr } => {
                write!(f, ": forced at {space:?} address {addr:#x}")?
            }
            FaultKind::RaceDetected { detail } => write!(f, ": {detail}")?,
            FaultKind::ContractViolation { detail } => write!(f, ": {detail}")?,
        }
        if let Some(c) = &self.context {
            write!(f, " [{c}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for SimFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_warp_lane_and_context() {
        let f = SimFault::new(
            "k",
            FaultKind::OutOfBounds {
                space: MemSpace::Global,
                array: "out".into(),
                index: 132,
                len: 32,
                write: true,
            },
        )
        .at_warp(3)
        .at_lane(17)
        .with_context("store out[t]");
        let s = f.to_string();
        for needle in ["out-of-bounds", "\"k\"", "warp 3", "lane 17", "132", "len 32", "store out[t]"] {
            assert!(s.contains(needle), "{s:?} missing {needle:?}");
        }
    }

    #[test]
    fn tags_are_distinct() {
        let kinds = [
            FaultKind::BarrierDivergence { detail: String::new() },
            FaultKind::UndeclaredName { name: String::new() },
            FaultKind::IllTyped { detail: String::new() },
            FaultKind::InvalidOperation { detail: String::new() },
            FaultKind::Watchdog { limit: 0 },
            FaultKind::Deadline { budget_ms: 0 },
        ];
        let tags: std::collections::HashSet<_> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), kinds.len());
    }

    #[test]
    fn only_host_dependent_kinds_are_transient() {
        assert!(FaultKind::Deadline { budget_ms: 5 }.transient());
        assert!(FaultKind::Injected { space: InjectSpace::Global, addr: 0 }.transient());
        assert!(!FaultKind::Watchdog { limit: 1 }.transient());
        assert!(!FaultKind::IllTyped { detail: String::new() }.transient());
        assert!(!FaultKind::UndeclaredName { name: String::new() }.transient());
    }
}
