//! `npcc serve`: a crash-isolated batch compile/sim service.
//!
//! The module turns the one-shot compiler pipeline (parse → NP transform →
//! simulate → deterministic report) into a long-running JSONL daemon with
//! the robustness furniture a batch service actually needs:
//!
//! - a **bounded admission queue** in front of a worker pool; a full queue
//!   sheds load with a typed `overloaded` + `retry_after_ms` instead of
//!   queueing unboundedly ([`server`]);
//! - **per-request wall-clock deadlines** threaded into the simulator's
//!   watchdog ([`np_exec::SimOptions::with_deadline`]), so a stuck
//!   interpretation returns a typed `deadline` fault instead of wedging a
//!   worker;
//! - **crash isolation**: worker panics are caught, typed, and counted
//!   against a poison-quarantine list — a kernel that kills a worker twice
//!   is auto-rejected with `quarantined`;
//! - a **content-addressed result cache** keyed by (canonical kernel,
//!   transform config, sim config) with checksummed entries; corruption is
//!   detected, evicted, and recomputed transparently ([`cache`]);
//! - client-facing **retry classification** (`retryable` + backoff hints)
//!   exercised by a built-in retry/soak driver ([`client`]);
//! - **graceful shutdown** that drains accepted work, flushes the cache
//!   index, and rejects new work with `shutdown`;
//! - a **seeded chaos mode** ([`chaos`]) that delays, panics, injects
//!   faults, and corrupts cache entries as a pure function of
//!   `(seed, job)`, behind a soak that proves exactly-once responses and
//!   byte-identical cache hits.
//!
//! See DESIGN.md §13 for the architecture discussion and README.md for the
//! JSONL quickstart.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

/// The wire format's JSON, kept at this path for downstream importers.
pub use np_obs::json;

pub use cache::{cache_key, CacheKey};
pub use chaos::ChaosConfig;
pub use client::{soak, RetryPolicy, SoakConfig, SoakReport};
pub use proto::{parse_step_budget, Request, Response, Status};
pub use server::{ServeConfig, Server, ShutdownReport};

use np_exec::Args;
use np_kernel_ir::kernel::{Kernel, ParamKind};
use np_kernel_ir::types::Scalar;

/// Deterministic synthesized arguments for simulating a kernel nobody
/// supplied real inputs for (serve requests, `npcc --explain`,
/// `--check-races`): every array gets 64Ki elements of reproducible
/// non-trivial data, every integer scalar a plausible dimension — a
/// multiple of the warp width, so tiled loops with bounds like `w / 32`
/// actually run — every float 1.0.
pub fn synth_args(kernel: &Kernel) -> Args {
    let n = 1usize << 16;
    let mut args = Args::new();
    for p in &kernel.params {
        args = match p.kind {
            ParamKind::Scalar(Scalar::F32) => args.f32(&p.name, 1.0),
            ParamKind::Scalar(Scalar::I32) => args.i32(&p.name, 64),
            ParamKind::Scalar(_) => args.u32(&p.name, 64),
            ParamKind::GlobalArray(ty) | ParamKind::TexArray(ty) | ParamKind::ConstArray(ty) => {
                match ty {
                    Scalar::F32 => args.buf_f32(
                        &p.name,
                        (0..n).map(|i| ((i * 37 + 11) % 97) as f32 / 97.0).collect(),
                    ),
                    Scalar::I32 => {
                        args.buf_i32(&p.name, (0..n).map(|i| (i % 7) as i32).collect())
                    }
                    _ => args.buf_u32(&p.name, (0..n).map(|i| (i % 7) as u32).collect()),
                }
            }
        };
    }
    args
}
