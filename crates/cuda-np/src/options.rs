//! Transformation options and error types.

use np_kernel_ir::pragma::NpType;

/// How to relocate a live local-memory array (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalArrayStrategy {
    /// The paper's policy: partition into registers when legal; else shared
    /// memory when the array fits the 384-byte budget (minus baseline
    /// shared usage); else global memory.
    Auto,
    ForceGlobal,
    ForceShared,
    ForceRegister,
}

/// Options controlling one CUDA-NP transformation.
#[derive(Debug, Clone)]
pub struct NpOptions {
    /// Threads per master group: 1 master + (slave_size - 1) slaves all
    /// working on the parallel loops ("slave_size" in the paper's Figure 3).
    pub slave_size: u32,
    /// Iteration-distribution scheme (Section 3.4).
    pub np_type: NpType,
    /// Targeted compute capability ×10 (30 = sm_30). `__shfl` needs >= 30.
    pub sm_version: u32,
    /// Local-array relocation policy.
    pub local_array: LocalArrayStrategy,
    /// Let slaves redundantly recompute uniform sequential values instead
    /// of broadcasting them (Section 3.1). On by default.
    pub redundant_uniform: bool,
    /// Force shfl usage on/off; `None` = automatic (intra-warp && sm >= 30).
    pub use_shfl: Option<bool>,
    /// Pad parallel loop trip counts up to a multiple of `slave_size`
    /// (Section 3.7, Figure 12). Requires static trip counts.
    pub pad: bool,
    /// Hardware cap on threads per block (1024 on Kepler).
    pub max_block_threads: u32,
    /// Adaptive small-loop gating: a pragma loop whose *static* trip count
    /// is below this threshold is emitted as a master-only serial loop —
    /// the group communication would cost more than the saved iterations.
    /// `None` (the default) disables gating; `costmodel::serial_gate_threshold`
    /// gives the per-device value.
    pub serial_below: Option<u32>,
    /// Per-loop communication overrides: `(pragma loop index in pre-order,
    /// use __shfl)`. The thread mapping stays global (it is physical), but
    /// each loop's broadcast/reduction/scan can independently choose the
    /// shuffle or shared-memory scheme — the hybrid selection hook. A
    /// `true` entry on a mapping whose slave groups do not share a warp is
    /// rejected with [`TransformError::ShflUnsupported`].
    pub loop_comm: Vec<(usize, bool)>,
}

impl NpOptions {
    /// Defaults matching the paper's GTX 680 setup.
    pub fn new(slave_size: u32, np_type: NpType) -> Self {
        NpOptions {
            slave_size,
            np_type,
            sm_version: 30,
            local_array: LocalArrayStrategy::Auto,
            redundant_uniform: true,
            use_shfl: None,
            pad: false,
            max_block_threads: 1024,
            serial_below: None,
            loop_comm: Vec::new(),
        }
    }

    /// Gate pragma loops with static trips below `threshold` to serial
    /// master-only execution (builder style).
    pub fn with_serial_below(mut self, threshold: u32) -> Self {
        self.serial_below = Some(threshold);
        self
    }

    /// Override one pragma loop's communication scheme (builder style).
    pub fn with_loop_comm(mut self, loop_index: usize, use_shfl: bool) -> Self {
        self.loop_comm.push((loop_index, use_shfl));
        self
    }

    /// Inter-warp NP with the given slave count.
    pub fn inter(slave_size: u32) -> Self {
        Self::new(slave_size, NpType::InterWarp)
    }

    /// Intra-warp NP with the given slave count.
    pub fn intra(slave_size: u32) -> Self {
        Self::new(slave_size, NpType::IntraWarp)
    }

    /// Should the generated code use `__shfl` for broadcast/reduction/scan?
    pub fn shfl_enabled(&self) -> bool {
        match self.use_shfl {
            Some(x) => x,
            None => self.np_type == NpType::IntraWarp && self.sm_version >= 30,
        }
    }
}

/// Reasons a kernel cannot be transformed with the given options.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// The kernel has no `np parallel for` loops.
    NoPragmaLoops,
    /// The input must be one-dimensional (run the flatten preprocessor).
    MultiDimInput,
    /// master_size * slave_size exceeds the block-thread cap.
    BlockTooLarge { master: u32, slave: u32, max: u32 },
    /// slave_size must be >= 2 to add any slaves.
    SlaveSizeTooSmall,
    /// Intra-warp NP requires a power-of-two slave_size <= 32 so slave
    /// groups stay inside one warp.
    IntraWarpSlaveSize(u32),
    /// A pragma loop is not in canonical `for (v = e; v < b; v++)` form.
    NonCanonicalLoop(String),
    /// A scalar is written in a parallel loop and read afterwards without a
    /// reduction / scan / select clause covering it.
    UnhandledLiveOut(String),
    /// A scan variable's increment could not be sliced out of the loop body
    /// (it must be `v = v + e` with `e` independent of `v`).
    ScanNotSliceable(String),
    /// Padding was requested but the loop's trip count is not static.
    PadNeedsStaticTrip(String),
    /// `__shfl` requested on a target without support (sm < 30).
    ShflUnsupported,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NoPragmaLoops => {
                write!(f, "kernel has no `np parallel for` pragma loops")
            }
            TransformError::MultiDimInput => {
                write!(f, "input kernel must have 1-D blocks (run preprocess::flatten first)")
            }
            TransformError::BlockTooLarge { master, slave, max } => {
                write!(f, "{master} masters x {slave} threads exceeds {max} threads/block")
            }
            TransformError::SlaveSizeTooSmall => write!(f, "slave_size must be >= 2"),
            TransformError::IntraWarpSlaveSize(s) => {
                write!(f, "intra-warp NP requires a power-of-two slave_size <= 32, got {s}")
            }
            TransformError::NonCanonicalLoop(m) => write!(f, "non-canonical parallel loop: {m}"),
            TransformError::UnhandledLiveOut(v) => write!(
                f,
                "scalar {v:?} is written in a parallel loop and used afterwards; \
                 add a reduction(op:{v}), scan(op:{v}) or select({v}) clause"
            ),
            TransformError::ScanNotSliceable(v) => write!(
                f,
                "scan variable {v:?} must be updated as `{v} = {v} + e` with e independent of {v}"
            ),
            TransformError::PadNeedsStaticTrip(l) => {
                write!(f, "padding requires a static trip count on loop over {l:?}")
            }
            TransformError::ShflUnsupported => {
                write!(f, "__shfl requested but target sm version is below 30")
            }
        }
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shfl_defaults_follow_np_type_and_sm() {
        assert!(NpOptions::intra(8).shfl_enabled());
        assert!(!NpOptions::inter(8).shfl_enabled());
        let mut o = NpOptions::intra(8);
        o.sm_version = 20;
        assert!(!o.shfl_enabled());
        o.use_shfl = Some(true);
        assert!(o.shfl_enabled());
    }

    #[test]
    fn errors_have_readable_messages() {
        let e = TransformError::UnhandledLiveOut("x".into());
        assert!(e.to_string().contains("reduction(op:x)"));
    }
}
