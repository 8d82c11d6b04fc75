//! `np-obs` — host-side observability for the CUDA-NP stack: deterministic
//! span tracing, a structured JSONL event log, and a unified metrics
//! registry, with zero dependencies.
//!
//! The simulated GPU already has exact, byte-identical observability
//! (profiler counters, stall timeline, captured traces); this crate gives
//! the *host* pipeline — transform → tune → interpret → capture/replay →
//! time → serve — the same guarantee. Four pieces:
//!
//! * [`recorder`] — spans and events with logical-clock determinism: the
//!   stripped log (`wall_*` fields removed) is a pure function of the
//!   workload, byte-identical across reruns even when work ran on a
//!   thread pool (fork/adopt splicing). Buffered (`npcc --obs-out`) or
//!   streaming with level filters and bounded-buffer backpressure
//!   accounting (`npcc serve --log`).
//! * [`registry`] — named counters/gauges/histograms behind cloneable
//!   handles, one key-sorted `np-obs-registry-v1` snapshot document.
//! * [`fnv`] / [`hist`] — the shared FNV-1a content hash and the shared
//!   nearest-rank histogram (0- and 1-sample safe).
//! * [`json`] — the workspace's one JSON parser and one string escaper.
//!
//! See `DESIGN.md` §15 for the `np-obs-v1` event schema, the determinism
//! contract, and the serve correlation-id lifecycle.

pub mod fnv;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;

pub use fnv::fnv64;
pub use hist::{Histogram, HistSnapshot};
pub use recorder::{
    bump, check_well_formed, chrome_trace_events, current, event, kv, render_jsonl, render_line,
    scope, span, strip_text, EvKind, FieldVal, Fields, Level, ObsCtx, RawEvent, Recorder,
    SpanGuard, StreamTarget, SPAN_LEVEL,
};
pub use registry::{Counter, Gauge, Hist, Registry};
