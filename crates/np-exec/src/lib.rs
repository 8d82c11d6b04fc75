//! # np-exec — SIMT interpreter over the timing simulator
//!
//! Executes `np-kernel-ir` kernels *functionally* (lockstep warps,
//! divergence masks, shared/local/global/constant/texture memory, `__shfl`,
//! barriers) while emitting per-warp instruction traces that the
//! `np-gpu-sim` timing engine schedules. One [`launch()`](launch::launch) call therefore
//! yields both the kernel's numerical output (in its argument buffers) and
//! a cycle-level [`KernelReport`].

pub mod fault;
pub mod interp;
pub mod launch;
pub mod machine;
mod program;
pub mod resources;
pub mod value;

pub use fault::{FaultKind, SimFault};
pub use launch::{
    capture_launch, interpretation_count, launch, replay_launch, DeadlineSpec, KernelReport,
    RaceCheckMode, SimOptions, DEFAULT_WATCHDOG_STEPS,
};
pub use machine::{ArgValue, Args, Buffer, ExecError};
pub use resources::estimate_resources;
