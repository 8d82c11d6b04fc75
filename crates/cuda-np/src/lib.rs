//! # cuda-np — nested thread-level parallelism for GPU kernels
//!
//! Reproduction of **"CUDA-NP: Realizing Nested Thread-Level Parallelism in
//! GPGPU Applications"** (Yang & Zhou, PPoPP 2014): a directive-based
//! compiler that exploits parallel loops *inside* GPU threads without the
//! overhead of dynamic parallelism.
//!
//! Given a kernel whose parallel loops carry `np parallel for` pragmas, the
//! [`transform()`](transform::transform) widens each thread block with slave threads, gates
//! sequential code to the original master threads, splits pragma-loop
//! iterations across each master's slave group, communicates scalar live-ins
//! with `__shfl` or shared memory, reduces/scans live-outs, and relocates
//! live local-memory arrays to registers, shared, or global memory.
//!
//! ```
//! use cuda_np::{transform, NpOptions};
//! use np_kernel_ir::expr::dsl::*;
//! use np_kernel_ir::KernelBuilder;
//!
//! // Figure 2's TMV kernel with its dot-product loop marked parallel.
//! let mut b = KernelBuilder::new("tmv", 128);
//! b.param_global_f32("a");
//! b.param_global_f32("b");
//! b.param_global_f32("c");
//! b.param_scalar_i32("w");
//! b.param_scalar_i32("h");
//! b.decl_f32("sum", f(0.0));
//! b.decl_i32("tx", tidx() + bidx() * bdimx());
//! b.pragma_for("np parallel for reduction(+:sum)", "i", i(0), p("h"), |b| {
//!     b.assign("sum", v("sum") + load("a", v("i") * p("w") + v("tx")) * load("b", v("i")));
//! });
//! b.store("c", v("tx"), v("sum"));
//! let kernel = b.finish();
//!
//! let t = transform(&kernel, &NpOptions::inter(8)).unwrap();
//! assert_eq!(t.kernel.block_dim.count(), 128 * 8);
//! assert_eq!(t.report.reductions.len(), 1);
//! ```

pub mod broadcast;
pub mod conformance;
pub mod costmodel;
pub mod dynpar_split;
pub mod liveout;
pub mod local_array;
pub mod mapping;
pub mod options;
pub mod preprocess;
pub mod scan;
pub mod serve;
pub mod transform;
pub mod tuner;

pub use conformance::{drop_barrier, drop_broadcast_guard, gating_policy, master_only_arrays};
pub use costmodel::{serial_gate_threshold, CostModel, TunePolicy, DEFAULT_PRUNE_MARGIN};
pub use dynpar_split::{split as dynpar_split, run_split as dynpar_run, DynParSplit, DynParSplitError};
pub use local_array::{LocalArrayChoice, LocalArrayPlan};
pub use mapping::{ThreadMap, MASTER_ID, SLAVE_ID};
pub use options::{LocalArrayStrategy, NpOptions, TransformError};
pub use transform::{transform, TransformReport, Transformed};
pub use tuner::{
    autotune_with_policy, LaunchFailure, PolicyTuneResult, TuneCandidate, TuneEntry, TuneError,
    TuneOutcome, TuneResult,
};
