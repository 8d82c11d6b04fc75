//! # np-gpu-sim — a Kepler-class SIMT GPU timing simulator
//!
//! Substrate for the CUDA-NP (PPoPP'14) reproduction. The paper evaluates
//! on real GTX 680 / K20c hardware; this crate supplies the equivalent
//! machine: streaming multiprocessors with warp schedulers and bounded
//! occupancy, a coalescing global-memory system with finite DRAM bandwidth,
//! banked shared memory, an L1 cache backing CUDA *local* memory, a
//! constant-cache broadcast path, `__shfl` register exchange, block-wide
//! barriers, and a dynamic-parallelism overhead model.
//!
//! The crate is purely a *timing* machine: it consumes per-warp instruction
//! traces (see [`trace`]) produced by the functional SIMT interpreter in
//! `np-exec`, and produces cycle counts and counters (see [`stats`]).
//!
//! ```
//! use np_gpu_sim::config::DeviceConfig;
//! use np_gpu_sim::occupancy::{occupancy, KernelResources};
//!
//! let dev = DeviceConfig::gtx680();
//! let res = KernelResources {
//!     block_size: 256, regs_per_thread: 22, shared_per_block: 0, local_per_thread: 0,
//! };
//! let occ = occupancy(&dev, &res).unwrap();
//! assert_eq!(occ.blocks_per_smx, 8); // 2048-thread SMX, 256-thread blocks
//! ```

pub mod capture;
pub mod config;
pub mod device;
pub mod dynpar;
pub mod engine;
pub mod mem;
pub mod occupancy;
pub mod profile;
pub mod racecheck;
pub mod replay;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use capture::{CapturedLaunch, TraceDecodeError, TRACE_MAGIC};
pub use config::{DeviceConfig, DynParConfig, TICKS_PER_CYCLE, WARP_SIZE};
pub use device::{DeviceError, DEVICE_SCHEMA, REGISTRY};
pub use engine::simulate_blocks;
pub use occupancy::{occupancy, KernelResources, Limiter, Occupancy, OccupancyError};
pub use profile::{BlockProfile, ProfileCounters, ProfileReport};
pub use racecheck::{
    AccessSite, GatingPolicy, RaceCheckMode, RaceCheckOptions, RaceFinding, RaceKind, RaceRecorder,
    RaceReport, RaceSpace,
};
pub use replay::{replay, ReplayedLaunch, ReplayError};
pub use stats::TimingReport;
pub use timeline::{SmxState, StallBreakdown, Timeline};
pub use trace::{BlockTrace, ShflKind, TraceBuilder, WarpOp, WarpTrace};
