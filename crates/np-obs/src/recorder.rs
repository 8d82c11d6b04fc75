//! The span/event recorder: a hand-rolled, dependency-free tracing layer
//! with **logical-clock determinism**.
//!
//! ## The determinism contract (`np-obs-v1`)
//!
//! Every recorded line carries two kinds of data:
//!
//! * **Logical fields** — `seq`, span ids, parent links, names, levels,
//!   correlation ids, and caller-supplied fields. For a deterministic
//!   workload these are a pure function of the inputs: two reruns
//!   produce byte-identical logs.
//! * **Wall-clock fields** — any key starting with `wall_` (`wall_us`
//!   span durations, `wall_t_us` start offsets, caller fields named
//!   `wall_*`). These are the only non-deterministic bytes in a log, and
//!   [`strip_text`] / `render_jsonl(.., strip=true)` remove them, which
//!   is exactly what the `obs-determinism` CI gate diffs.
//!
//! ## Parallel sections
//!
//! Thread interleaving must never leak into the log, so parallel workers
//! (the tuner's candidate pool) do not write into a shared buffer.
//! Instead the owner [`Recorder::fork`]s one child recorder per unit of
//! work, each worker records into its own fork, and the owner
//! [`Recorder::adopt`]s the forks back **in deterministic work order**
//! (candidate index), renumbering span ids and sequence numbers during
//! the splice. The merged log is identical no matter how the OS
//! scheduled the workers.
//!
//! ## Sinks
//!
//! A recorder is either **buffered** (events held in memory, drained and
//! rendered at the end — the `npcc --obs-out` / harness mode) or
//! **streaming** (lines rendered immediately and handed to a writer
//! thread over a bounded channel — the `npcc serve --log` mode). A full
//! buffer or channel never blocks the hot path: the event is dropped and
//! counted in `dropped()` (backpressure accounting), surfaced as a final
//! `obs.flush` event and an `obs.events_dropped` registry counter.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::json::{quote, value_end};
use crate::registry::{Counter, Registry};

/// Event severity, ordered. Spans record at [`SPAN_LEVEL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Trace,
    Debug,
    Info,
    Warn,
    Error,
}

/// The level span open/close records carry.
pub const SPAN_LEVEL: Level = Level::Debug;

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "trace" => Level::Trace,
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" => Level::Warn,
            "error" => Level::Error,
            _ => return None,
        })
    }
}

/// A structured field value. No floats: their formatting would be the
/// only platform-sensitive bytes in an otherwise exact format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldVal {
    U64(u64),
    I64(i64),
    Bool(bool),
    Str(String),
}

impl From<u64> for FieldVal {
    fn from(v: u64) -> Self {
        FieldVal::U64(v)
    }
}
impl From<u32> for FieldVal {
    fn from(v: u32) -> Self {
        FieldVal::U64(v as u64)
    }
}
impl From<usize> for FieldVal {
    fn from(v: usize) -> Self {
        FieldVal::U64(v as u64)
    }
}
impl From<i64> for FieldVal {
    fn from(v: i64) -> Self {
        FieldVal::I64(v)
    }
}
impl From<bool> for FieldVal {
    fn from(v: bool) -> Self {
        FieldVal::Bool(v)
    }
}
impl From<&str> for FieldVal {
    fn from(v: &str) -> Self {
        FieldVal::Str(v.to_string())
    }
}
impl From<String> for FieldVal {
    fn from(v: String) -> Self {
        FieldVal::Str(v)
    }
}

/// Ordered event fields (insertion order is preserved in the output).
pub type Fields = Vec<(String, FieldVal)>;

/// Build one field; `np_obs::kv("queue", depth)`.
pub fn kv(k: &str, v: impl Into<FieldVal>) -> (String, FieldVal) {
    (k.to_string(), v.into())
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEvent {
    pub seq: u64,
    pub corr: Option<String>,
    pub kind: EvKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum EvKind {
    /// A span opened. `wall_t_us` is the non-deterministic start offset
    /// from the recorder's epoch (stripped by the determinism gate).
    Open { span: u64, parent: Option<u64>, name: String, wall_t_us: u64 },
    /// A span closed. `wall_us` is its non-deterministic duration.
    Close { span: u64, name: String, wall_us: u64 },
    /// A point event.
    Event { level: Level, name: String, fields: Fields, wall_t_us: u64 },
}

impl EvKind {
    fn level(&self) -> Level {
        match self {
            EvKind::Open { .. } | EvKind::Close { .. } => SPAN_LEVEL,
            EvKind::Event { level, .. } => *level,
        }
    }
}

fn render_field(v: &FieldVal) -> String {
    match v {
        FieldVal::U64(n) => n.to_string(),
        FieldVal::I64(n) => n.to_string(),
        FieldVal::Bool(b) => b.to_string(),
        FieldVal::Str(s) => quote(s),
    }
}

/// Render one event as an `np-obs-v1` JSONL line (no trailing newline).
/// With `strip=true` every `wall_*` key is omitted, leaving only the
/// deterministic bytes.
pub fn render_line(ev: &RawEvent, strip: bool) -> String {
    let mut s = format!("{{\"seq\":{}", ev.seq);
    match &ev.kind {
        EvKind::Open { span, parent, name, wall_t_us } => {
            s.push_str(&format!(",\"ev\":\"open\",\"span\":{span}"));
            if let Some(p) = parent {
                s.push_str(&format!(",\"parent\":{p}"));
            }
            s.push_str(&format!(",\"name\":{}", quote(name)));
            if let Some(c) = &ev.corr {
                s.push_str(&format!(",\"corr\":{}", quote(c)));
            }
            if !strip {
                s.push_str(&format!(",\"wall_t_us\":{wall_t_us}"));
            }
        }
        EvKind::Close { span, name, wall_us } => {
            s.push_str(&format!(
                ",\"ev\":\"close\",\"span\":{span},\"name\":{}",
                quote(name)
            ));
            if let Some(c) = &ev.corr {
                s.push_str(&format!(",\"corr\":{}", quote(c)));
            }
            if !strip {
                s.push_str(&format!(",\"wall_us\":{wall_us}"));
            }
        }
        EvKind::Event { level, name, fields, wall_t_us } => {
            s.push_str(&format!(
                ",\"ev\":\"event\",\"level\":\"{}\",\"name\":{}",
                level.as_str(),
                quote(name)
            ));
            if let Some(c) = &ev.corr {
                s.push_str(&format!(",\"corr\":{}", quote(c)));
            }
            let kept: Vec<&(String, FieldVal)> =
                fields.iter().filter(|(k, _)| !(strip && k.starts_with("wall_"))).collect();
            if !kept.is_empty() {
                s.push_str(",\"fields\":{");
                for (i, (k, v)) in kept.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("{}:{}", quote(k), render_field(v)));
                }
                s.push('}');
            }
            if !strip {
                s.push_str(&format!(",\"wall_t_us\":{wall_t_us}"));
            }
        }
    }
    s.push('}');
    s
}

/// Render a whole event log as JSONL (one line per event, trailing
/// newline after each).
pub fn render_jsonl(events: &[RawEvent], strip: bool) -> String {
    let mut s = String::new();
    for ev in events {
        s.push_str(&render_line(ev, strip));
        s.push('\n');
    }
    s
}

/// Remove every `"wall_*"` member from a JSON/JSONL text — the textual
/// equivalent of `render_jsonl(.., strip=true)`, usable on logs produced
/// by another process (`npcc obs-strip`). The text is scanned for
/// `"wall_*":` keys and each value's extent comes from `json::value_end`, so
/// the rest of the text passes through byte for byte.
pub fn strip_text(input: &str) -> String {
    let b = input.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' && b[i..].starts_with(b"\"wall_") {
            if let Some(rel) = b[i + 1..].iter().position(|&c| c == b'"') {
                let kend = i + 1 + rel; // closing quote of the key
                if b.get(kend + 1) == Some(&b':') {
                    if let Some(vend) = value_end(input, kend + 2) {
                        if out.last() == Some(&b',') {
                            // `,"wall_x":V` — drop the preceding comma too.
                            out.pop();
                            i = vend;
                            continue;
                        }
                        // First member: drop `"wall_x":V` and a trailing
                        // comma if one follows.
                        i = if b.get(vend) == Some(&b',') { vend + 1 } else { vend };
                        continue;
                    }
                }
            }
        }
        out.push(b[i]);
        i += 1;
    }
    String::from_utf8(out).expect("strip_text only removes whole JSON members")
}

/// One output of a streaming recorder: a writer plus its own level floor.
pub struct StreamTarget {
    pub min_level: Level,
    pub writer: Box<dyn Write + Send>,
}

struct StreamState {
    tx: Option<SyncSender<(Level, String)>>,
    handle: Option<JoinHandle<()>>,
}

enum SinkImpl {
    Buffer(Vec<RawEvent>),
    Stream(StreamState),
}

struct Core {
    seq: u64,
    next_span: u64,
    sink: SinkImpl,
}

struct RecInner {
    level: Level,
    cap: usize,
    epoch: Instant,
    dropped: AtomicU64,
    drop_counter: Mutex<Option<Counter>>,
    core: Mutex<Core>,
}

/// A span/event recorder handle. Clone shares the underlying log.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecInner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Recorder{..}")
    }
}

impl Recorder {
    /// An in-memory recorder keeping at most `cap` events (overflow is
    /// counted in `dropped()`, never blocks). Keeps every level.
    pub fn buffer(cap: usize) -> Recorder {
        Recorder::build(Level::Trace, cap, SinkImpl::Buffer(Vec::new()), Instant::now())
    }

    /// A streaming recorder: lines are rendered at record time and handed
    /// to a writer thread over a channel bounded at `cap`; each target
    /// applies its own level floor. A full channel drops the line (and
    /// counts it) rather than stalling the caller.
    pub fn stream(mut targets: Vec<StreamTarget>, cap: usize) -> Recorder {
        let level = targets.iter().map(|t| t.min_level).min().unwrap_or(Level::Error);
        let (tx, rx) = mpsc::sync_channel::<(Level, String)>(cap.max(1));
        let handle = std::thread::Builder::new()
            .name("np-obs-writer".to_string())
            .spawn(move || {
                for (lvl, line) in rx {
                    for t in targets.iter_mut() {
                        if lvl >= t.min_level {
                            let _ = writeln!(t.writer, "{line}");
                        }
                    }
                }
                for t in targets.iter_mut() {
                    let _ = t.writer.flush();
                }
            })
            .expect("spawn np-obs writer thread");
        let sink = SinkImpl::Stream(StreamState { tx: Some(tx), handle: Some(handle) });
        Recorder::build(level, cap, sink, Instant::now())
    }

    fn build(level: Level, cap: usize, sink: SinkImpl, epoch: Instant) -> Recorder {
        Recorder {
            inner: Arc::new(RecInner {
                level,
                cap,
                epoch,
                dropped: AtomicU64::new(0),
                drop_counter: Mutex::new(None),
                core: Mutex::new(Core { seq: 0, next_span: 0, sink }),
            }),
        }
    }

    /// Mirror drops into a registry counter (e.g. `obs.events_dropped`).
    pub fn set_drop_counter(&self, c: Counter) {
        *self.inner.drop_counter.lock().unwrap() = Some(c);
    }

    /// Events lost to backpressure (full buffer or channel) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    fn note_drop(&self) {
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.inner.drop_counter.lock().unwrap().as_ref() {
            c.bump();
        }
    }

    fn push(&self, core: &mut Core, corr: Option<&str>, kind: EvKind) {
        match &mut core.sink {
            SinkImpl::Buffer(events) => {
                if events.len() >= self.inner.cap {
                    self.note_drop();
                    return;
                }
                let seq = core.seq;
                core.seq += 1;
                events.push(RawEvent { seq, corr: map_corr(corr), kind });
            }
            SinkImpl::Stream(st) => {
                let seq = core.seq;
                core.seq += 1;
                let level = kind.level();
                let line = render_line(&RawEvent { seq, corr: map_corr(corr), kind }, false);
                if let Some(tx) = &st.tx {
                    match tx.try_send((level, line)) {
                        Ok(()) => {}
                        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                            self.note_drop();
                        }
                    }
                }
            }
        }
    }

    fn wall_t_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Open a span. Always allocates and returns a span id, even when the
    /// open record itself is filtered or dropped.
    pub fn open_span(&self, parent: Option<u64>, name: &str, corr: Option<&str>) -> u64 {
        let wall_t_us = self.wall_t_us();
        let mut core = self.inner.core.lock().unwrap();
        let span = core.next_span;
        core.next_span += 1;
        if SPAN_LEVEL >= self.inner.level {
            let kind = EvKind::Open { span, parent, name: name.to_string(), wall_t_us };
            self.push(&mut core, corr, kind);
        }
        span
    }

    pub fn close_span(&self, span: u64, name: &str, corr: Option<&str>, wall_us: u64) {
        if SPAN_LEVEL < self.inner.level {
            return;
        }
        let mut core = self.inner.core.lock().unwrap();
        let kind = EvKind::Close { span, name: name.to_string(), wall_us };
        self.push(&mut core, corr, kind);
    }

    pub fn event(&self, level: Level, name: &str, corr: Option<&str>, fields: Fields) {
        if level < self.inner.level {
            return;
        }
        let wall_t_us = self.wall_t_us();
        let mut core = self.inner.core.lock().unwrap();
        let kind = EvKind::Event { level, name: name.to_string(), fields, wall_t_us };
        self.push(&mut core, corr, kind);
    }

    /// A child recorder for one unit of parallel work. Buffered, same
    /// level/capacity/epoch; its span ids are local until [`adopt`]
    /// renumbers them into the parent.
    ///
    /// [`adopt`]: Recorder::adopt
    pub fn fork(&self) -> Recorder {
        Recorder::build(
            self.inner.level,
            self.inner.cap,
            SinkImpl::Buffer(Vec::new()),
            self.inner.epoch,
        )
    }

    /// Splice a finished fork back in. Must be called in deterministic
    /// work order (the forks' logical order, not completion order): span
    /// ids and sequence numbers are renumbered into this recorder's
    /// space, and the fork's root spans are re-parented under `parent`.
    pub fn adopt(&self, child: &Recorder, parent: Option<u64>) {
        let (child_events, child_spans, child_dropped) = {
            let mut ccore = child.inner.core.lock().unwrap();
            let events = match &mut ccore.sink {
                SinkImpl::Buffer(events) => std::mem::take(events),
                SinkImpl::Stream(_) => Vec::new(),
            };
            (events, ccore.next_span, child.inner.dropped.swap(0, Ordering::Relaxed))
        };
        for _ in 0..child_dropped {
            self.note_drop();
        }
        let mut core = self.inner.core.lock().unwrap();
        let offset = core.next_span;
        core.next_span += child_spans;
        let remap = |p: Option<u64>| match p {
            Some(p) => Some(p + offset),
            None => parent,
        };
        for ev in child_events {
            let kind = match ev.kind {
                EvKind::Open { span, parent: p, name, wall_t_us } => {
                    EvKind::Open { span: span + offset, parent: remap(p), name, wall_t_us }
                }
                EvKind::Close { span, name, wall_us } => {
                    EvKind::Close { span: span + offset, name, wall_us }
                }
                kind @ EvKind::Event { .. } => kind,
            };
            self.push(&mut core, ev.corr.as_deref(), kind);
        }
    }

    /// Take the buffered events (empty for streaming recorders).
    pub fn drain(&self) -> Vec<RawEvent> {
        let mut core = self.inner.core.lock().unwrap();
        match &mut core.sink {
            SinkImpl::Buffer(events) => std::mem::take(events),
            SinkImpl::Stream(_) => Vec::new(),
        }
    }

    /// Flush and stop a streaming recorder: emits a final `obs.flush`
    /// event carrying the backpressure tally, closes the channel, and
    /// joins the writer thread. No-op for buffered recorders.
    pub fn shutdown(&self) {
        let handle = {
            let mut core = self.inner.core.lock().unwrap();
            let dropped = self.dropped();
            let seq = core.seq;
            core.seq += 1;
            if let SinkImpl::Stream(st) = &mut core.sink {
                if let Some(tx) = st.tx.take() {
                    let line = render_line(
                        &RawEvent {
                            seq,
                            corr: None,
                            kind: EvKind::Event {
                                level: Level::Info,
                                name: "obs.flush".to_string(),
                                fields: vec![kv("dropped", dropped)],
                                wall_t_us: self.wall_t_us(),
                            },
                        },
                        false,
                    );
                    // Blocking send: the writer is draining, so this
                    // completes once the queue has room.
                    let _ = tx.send((Level::Info, line));
                }
                st.handle.take()
            } else {
                None
            }
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

fn map_corr(corr: Option<&str>) -> Option<String> {
    corr.map(|c| c.to_string())
}

// ---------------------------------------------------------------------
// Thread-local context: lets deep library code record spans without any
// recorder plumbing in its signatures. All entry points are no-ops when
// no scope is installed on the current thread.
// ---------------------------------------------------------------------

struct TlsCtx {
    rec: Recorder,
    registry: Option<Registry>,
    corr: Option<String>,
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<Vec<TlsCtx>> = const { RefCell::new(Vec::new()) };
}

/// A snapshot of the innermost installed scope.
pub struct ObsCtx {
    pub rec: Recorder,
    pub registry: Option<Registry>,
    pub corr: Option<String>,
    /// The innermost open span (fork parents should hang off this).
    pub parent: Option<u64>,
}

/// The innermost scope on this thread, if any.
pub fn current() -> Option<ObsCtx> {
    TLS.with(|t| {
        t.borrow().last().map(|ctx| ObsCtx {
            rec: ctx.rec.clone(),
            registry: ctx.registry.clone(),
            corr: ctx.corr.clone(),
            parent: ctx.stack.last().copied(),
        })
    })
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        TLS.with(|t| {
            t.borrow_mut().pop();
        });
    }
}

/// Install `rec` (and optionally a registry and correlation id) as the
/// current thread's recording context for the duration of `f`. Scopes
/// nest; unwinding pops the scope, so a panicking job inside
/// `catch_unwind` cannot poison the worker's next job.
pub fn scope<R>(
    rec: &Recorder,
    registry: Option<&Registry>,
    corr: Option<&str>,
    f: impl FnOnce() -> R,
) -> R {
    TLS.with(|t| {
        t.borrow_mut().push(TlsCtx {
            rec: rec.clone(),
            registry: registry.cloned(),
            corr: corr.map(|c| c.to_string()),
            stack: Vec::new(),
        });
    });
    let _guard = ScopeGuard;
    f()
}

/// An RAII span handle from [`span`]. Closing records the wall-clock
/// duration; dropping out of order is tolerated (the id is removed from
/// wherever it sits in the stack).
pub struct SpanGuard {
    data: Option<(Recorder, u64, String, Option<String>, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, id, name, corr, start)) = self.data.take() {
            TLS.with(|t| {
                if let Some(ctx) = t.borrow_mut().last_mut() {
                    if ctx.stack.last() == Some(&id) {
                        ctx.stack.pop();
                    } else {
                        ctx.stack.retain(|s| *s != id);
                    }
                }
            });
            rec.close_span(id, &name, corr.as_deref(), start.elapsed().as_micros() as u64);
        }
    }
}

/// Open a span under the current scope (no-op guard without one).
pub fn span(name: &str) -> SpanGuard {
    TLS.with(|t| {
        let mut scopes = t.borrow_mut();
        let Some(ctx) = scopes.last_mut() else {
            return SpanGuard { data: None };
        };
        let parent = ctx.stack.last().copied();
        let id = ctx.rec.open_span(parent, name, ctx.corr.as_deref());
        ctx.stack.push(id);
        SpanGuard {
            data: Some((ctx.rec.clone(), id, name.to_string(), ctx.corr.clone(), Instant::now())),
        }
    })
}

/// Record a point event under the current scope (no-op without one).
pub fn event(level: Level, name: &str, fields: Fields) {
    TLS.with(|t| {
        if let Some(ctx) = t.borrow().last() {
            ctx.rec.event(level, name, ctx.corr.as_deref(), fields);
        }
    });
}

/// Bump a counter in the current scope's registry (no-op without one).
pub fn bump(name: &str) {
    TLS.with(|t| {
        if let Some(ctx) = t.borrow().last() {
            if let Some(reg) = &ctx.registry {
                reg.counter(name).bump();
            }
        }
    });
}

// ---------------------------------------------------------------------
// Analysis over drained logs: chrome-trace export, per-stage host-time
// aggregation, and the well-formedness check the test suite pins.
// ---------------------------------------------------------------------

/// Chrome-trace duration events for the span tree (`ph:"X"`, tid
/// `"host"`), in the same fragment convention as
/// `np_gpu_sim::timeline::Timeline::chrome_trace_events`: events joined
/// by `",\n"`, no surrounding brackets, empty string when no spans
/// closed. Splice it alongside the SMX tracks for one merged timeline.
pub fn chrome_trace_events(events: &[RawEvent], pid: &str) -> String {
    let mut open: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut s = String::new();
    for ev in events {
        match &ev.kind {
            EvKind::Open { span, wall_t_us, .. } => {
                open.insert(*span, *wall_t_us);
            }
            EvKind::Close { span, name, wall_us } => {
                let Some(ts) = open.remove(span) else { continue };
                if !s.is_empty() {
                    s.push_str(",\n");
                }
                let corr = match &ev.corr {
                    Some(c) => format!("{{\"corr\":{}}}", quote(c)),
                    None => "{}".to_string(),
                };
                s.push_str(&format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":\"host\",\
                     \"ts\":{ts},\"dur\":{wall_us},\"args\":{corr}}}",
                    quote(name),
                    quote(pid)
                ));
            }
            EvKind::Event { .. } => {}
        }
    }
    s
}

/// Check span-tree well-formedness of a drained log: strictly increasing
/// `seq`, unique span ids, every close matching the innermost open span
/// (strict nesting), and nothing left open at the end.
pub fn check_well_formed(events: &[RawEvent]) -> Result<(), String> {
    let mut stack: Vec<(u64, String)> = Vec::new();
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut last_seq: Option<u64> = None;
    for ev in events {
        if let Some(prev) = last_seq {
            if ev.seq <= prev {
                return Err(format!("seq {} after {} is not increasing", ev.seq, prev));
            }
        }
        last_seq = Some(ev.seq);
        match &ev.kind {
            EvKind::Open { span, parent, name, .. } => {
                if !seen.insert(*span) {
                    return Err(format!("span id {span} opened twice"));
                }
                let top = stack.last().map(|(id, _)| *id);
                if *parent != top {
                    return Err(format!(
                        "span {span} ({name}) claims parent {parent:?} but innermost open is {top:?}"
                    ));
                }
                stack.push((*span, name.clone()));
            }
            EvKind::Close { span, name, .. } => match stack.pop() {
                Some((id, open_name)) if id == *span && open_name == *name => {}
                Some((id, open_name)) => {
                    return Err(format!(
                        "close of span {span} ({name}) does not match innermost open {id} ({open_name})"
                    ));
                }
                None => return Err(format!("close of span {span} ({name}) with nothing open")),
            },
            EvKind::Event { .. } => {}
        }
    }
    if let Some((id, name)) = stack.last() {
        return Err(format!("span {id} ({name}) never closed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_log_is_well_formed_and_strippable() {
        let rec = Recorder::buffer(1024);
        scope(&rec, None, None, || {
            let _outer = span("outer");
            event(Level::Info, "hello", vec![kv("n", 3u64), kv("wall_probe_us", 9u64)]);
            {
                let _inner = span("inner");
            }
        });
        let events = rec.drain();
        assert_eq!(events.len(), 5, "{events:?}");
        check_well_formed(&events).unwrap();
        let stripped = render_jsonl(&events, true);
        assert!(!stripped.contains("wall_"), "{stripped}");
        assert!(stripped.contains("\"name\":\"inner\""), "{stripped}");
        assert!(stripped.contains("\"fields\":{\"n\":3}"), "{stripped}");
        let full = render_jsonl(&events, false);
        assert_eq!(strip_text(&full), stripped);
    }

    #[test]
    fn two_identical_recordings_are_byte_identical_when_stripped() {
        let run = || {
            let rec = Recorder::buffer(1024);
            scope(&rec, None, Some("c0001"), || {
                let _s = span("stage");
                for i in 0..4u64 {
                    event(Level::Debug, "tick", vec![kv("i", i)]);
                }
            });
            render_jsonl(&rec.drain(), true)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fork_adopt_merges_in_work_order_not_completion_order() {
        let merged = |order: &[usize]| {
            let rec = Recorder::buffer(1024);
            let parent = rec.open_span(None, "tune", None);
            let forks: Vec<Recorder> = (0..3).map(|_| rec.fork()).collect();
            // Simulate arbitrary completion order: record into forks in
            // the given order...
            for &i in order {
                scope(&forks[i], None, None, || {
                    let _s = span(&format!("candidate {i}"));
                    event(Level::Info, "done", vec![kv("i", i as u64)]);
                });
            }
            // ...but adopt strictly in work order.
            for f in &forks {
                rec.adopt(f, Some(parent));
            }
            rec.close_span(parent, "tune", None, 0);
            let events = rec.drain();
            check_well_formed(&events).unwrap();
            render_jsonl(&events, true)
        };
        let a = merged(&[0, 1, 2]);
        let b = merged(&[2, 0, 1]);
        assert_eq!(a, b);
        assert!(a.contains("candidate 0"), "{a}");
        assert!(a.contains("candidate 2"), "{a}");
    }

    #[test]
    fn bounded_buffer_counts_drops_instead_of_blocking() {
        let rec = Recorder::buffer(2);
        for i in 0..5u64 {
            rec.event(Level::Info, "e", None, vec![kv("i", i)]);
        }
        assert_eq!(rec.drain().len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn streaming_recorder_filters_by_level_and_flushes() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rec = Recorder::stream(
            vec![StreamTarget { min_level: Level::Info, writer: Box::new(Shared(buf.clone())) }],
            64,
        );
        rec.event(Level::Debug, "quiet", None, vec![]);
        rec.event(Level::Warn, "loud", None, vec![kv("k", "v")]);
        rec.shutdown();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(!text.contains("quiet"), "{text}");
        assert!(text.contains("\"name\":\"loud\""), "{text}");
        assert!(text.contains("obs.flush"), "{text}");
        assert!(text.contains("\"dropped\":0"), "{text}");
    }

    #[test]
    fn strip_text_handles_first_member_and_nested_values() {
        assert_eq!(strip_text("{\"wall_us\":12}"), "{}");
        assert_eq!(strip_text("{\"wall_us\":12,\"a\":1}"), "{\"a\":1}");
        assert_eq!(strip_text("{\"a\":1,\"wall_t_us\":3}"), "{\"a\":1}");
        assert_eq!(
            strip_text("{\"h\":{\"wall_latency_us\":{\"count\":2,\"p50\":7},\"x\":1}}"),
            "{\"h\":{\"x\":1}}"
        );
        assert_eq!(strip_text("{\"wall_tag\":\"a,b\",\"x\":2}"), "{\"x\":2}");
        // Non-wall keys are untouched even when values contain "wall_".
        let keep = "{\"name\":\"wall_like\",\"n\":1}";
        assert_eq!(strip_text(keep), keep);
    }

    #[test]
    fn chrome_trace_fragment_matches_timeline_convention() {
        let rec = Recorder::buffer(64);
        scope(&rec, None, Some("c7"), || {
            let _s = span("transform");
        });
        let frag = chrome_trace_events(&rec.drain(), "npcc");
        assert!(frag.starts_with("{\"name\":\"transform\",\"ph\":\"X\",\"pid\":\"npcc\",\"tid\":\"host\""), "{frag}");
        assert!(frag.contains("\"args\":{\"corr\":\"c7\"}"), "{frag}");
        assert!(!frag.contains('['), "fragment must not carry brackets: {frag}");
    }

    #[test]
    fn well_formedness_rejects_orphan_and_crossed_spans() {
        let mk = |kind: EvKind, seq: u64| RawEvent { seq, corr: None, kind };
        // Close without open.
        let bad = vec![mk(EvKind::Close { span: 0, name: "x".into(), wall_us: 0 }, 0)];
        assert!(check_well_formed(&bad).is_err());
        // Crossed spans: open a, open b, close a, close b.
        let crossed = vec![
            mk(EvKind::Open { span: 0, parent: None, name: "a".into(), wall_t_us: 0 }, 0),
            mk(EvKind::Open { span: 1, parent: Some(0), name: "b".into(), wall_t_us: 0 }, 1),
            mk(EvKind::Close { span: 0, name: "a".into(), wall_us: 0 }, 2),
            mk(EvKind::Close { span: 1, name: "b".into(), wall_us: 0 }, 3),
        ];
        assert!(check_well_formed(&crossed).is_err());
        // Left open.
        let open = vec![mk(EvKind::Open { span: 0, parent: None, name: "a".into(), wall_t_us: 0 }, 0)];
        assert!(check_well_formed(&open).is_err());
    }

    #[test]
    fn level_parsing_round_trips() {
        for lvl in [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(lvl.as_str()), Some(lvl));
        }
        assert_eq!(Level::parse("verbose"), None);
    }
}
