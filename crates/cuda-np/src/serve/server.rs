//! The serve engine: a bounded admission queue in front of a worker pool,
//! with crash isolation, per-request deadlines, a checksummed result
//! cache, and poison quarantine.
//!
//! Invariant the whole module is built around: **every submitted line gets
//! exactly one terminal [`Response`]**, delivered on the `mpsc::Sender`
//! the caller handed to [`Server::submit`] — whether the job is shed at
//! admission, served from cache, times out in the queue, faults in the
//! simulator, or panics the worker (the panic is caught; the worker
//! thread survives and keeps draining the queue). The chaos soak
//! ([`super::client::soak`]) hammers this invariant with seeded delays,
//! panics, forced faults, and cache corruption.

use super::cache::{cache_key, fnv64, Cache, CacheKey, Lookup};
use super::chaos::{plan, ChaosConfig, ChaosPlan};
use super::metrics::{Metrics, Snapshot};
use super::proto::{report_json, tune_json, Mode, Request, Response, Status};
use super::synth_args;
use crate::transform;
use crate::tuner::{alloc_extra_buffers, autotune_with_policy, candidates_from_pragmas};
use crate::TuneError;
use np_exec::{capture_launch, replay_launch, DeadlineSpec, KernelReport, SimOptions};
use np_gpu_sim::{CapturedLaunch, DeviceConfig};
use np_kernel_ir::types::Dim3;
use np_obs::{kv, Level, Recorder};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Server tuning knobs. `Default` is sized for tests and the CLI daemon
/// alike: a small pool, a queue a few times deeper than the pool.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Admission queue bound; a full queue sheds with `overloaded`.
    pub queue_cap: usize,
    /// Result cache capacity (entries).
    pub cache_cap: usize,
    /// Deadline applied when a request names none (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Watchdog step budget applied when a request names none.
    pub default_watchdog: Option<u64>,
    /// Panics from one kernel before it is quarantined.
    pub quarantine_threshold: u32,
    /// Chaos mode (None = run clean).
    pub chaos: Option<ChaosConfig>,
    /// Observability sink. Every request's admission, queue wait, cache
    /// lookups, execution, and response are recorded here under its
    /// correlation id; the daemon's lifecycle events land here too.
    pub obs: Option<Recorder>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 8,
            cache_cap: 256,
            default_deadline_ms: None,
            default_watchdog: Some(np_exec::DEFAULT_WATCHDOG_STEPS),
            quarantine_threshold: 2,
            chaos: None,
            obs: None,
        }
    }
}

struct Job {
    req: Request,
    /// Monotone admission sequence number — the chaos plan's input.
    seq: u64,
    /// Correlation id derived from `seq` (`c{seq:06}`): unique per
    /// request for a server's lifetime, attached to every event and
    /// echoed in the wire response.
    corr: String,
    /// Wall clock at admission (latency measurement starts here).
    admitted: Instant,
    /// Deadline fixed at admission so queue wait counts against it.
    deadline: Option<DeadlineSpec>,
    reply: Sender<Response>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct Inner {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signals workers: new job or drain started.
    wake: Condvar,
    cache: Mutex<Cache>,
    /// Capture artifacts (`np-trace-v1` bytes) keyed by
    /// (kernel canon, transform config, grid) — the watchdog budget is
    /// deliberately *not* in the key, so a request differing only in its
    /// sim config replays the frozen interpretation instead of recomputing
    /// it.
    trace_cache: Mutex<Cache>,
    /// Panic counts per kernel identity (`fnv64` of the canonical source).
    quarantine: Mutex<HashMap<u64, u32>>,
    metrics: Metrics,
}

impl Inner {
    /// Record one correlated observability event (no-op without a sink).
    fn ev(&self, corr: &str, level: Level, name: &str, fields: np_obs::Fields) {
        if let Some(rec) = &self.cfg.obs {
            rec.event(level, name, Some(corr), fields);
        }
    }
}

/// What a graceful drain leaves behind.
pub struct ShutdownReport {
    pub snapshot: Snapshot,
    /// The flushed `Cache::index_json` document.
    pub cache_index: String,
    /// Worker threads that died to an *uncaught* panic. Always 0 unless
    /// the crash-isolation `catch_unwind` has a hole.
    pub worker_panics: usize,
    /// The key-sorted `np-obs-registry-v1` snapshot of every metric the
    /// daemon registered (serve counters, caches, obs backpressure).
    pub registry_json: String,
}

/// A running serve engine. Dropping without [`Server::shutdown`] aborts
/// workers mid-queue; call `shutdown` for the drain + index flush path.
pub struct Server {
    inner: Arc<Inner>,
    /// Behind a mutex so `shutdown(&self)` can join through an `Arc`.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_seq: std::sync::atomic::AtomicU64,
}

/// Silence the default panic hook for serve workers: their panics are
/// *expected* (chaos injects them on purpose), caught, and converted to
/// typed responses — a backtrace per caught panic would bury the JSONL
/// log. Panics on any other thread keep the previous hook.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let from_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("np-serve-"));
            if !from_worker {
                prev(info);
            }
        }));
    });
}

impl Server {
    pub fn start(cfg: ServeConfig) -> Server {
        install_quiet_panic_hook();
        let metrics = Metrics::new();
        if let Some(rec) = &cfg.obs {
            // Backpressure accounting: events the bounded log buffer had
            // to drop surface in the same registry as everything else.
            rec.set_drop_counter(metrics.registry().counter("obs.events_dropped"));
        }
        let inner = Arc::new(Inner {
            cache: Mutex::new(Cache::new(cfg.cache_cap)),
            trace_cache: Mutex::new(Cache::new(cfg.cache_cap)),
            cfg,
            queue: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            quarantine: Mutex::new(HashMap::new()),
            metrics,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("np-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers: Mutex::new(workers), next_seq: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Admit one JSONL request line. Exactly one terminal response will be
    /// sent on `reply`, either synchronously here (rejections, shedding)
    /// or later from a worker. Returns whether the job was *enqueued*.
    ///
    /// Every line — even an unparseable one — is assigned a correlation
    /// id here, at admission; it rides every event the request generates
    /// and is echoed in the wire response.
    pub fn submit(&self, line: &str, reply: &Sender<Response>) -> bool {
        let admitted = Instant::now();
        let seq = self.next_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let corr = format!("c{seq:06}");
        let m = &self.inner.metrics;
        Metrics::bump(&m.submitted);

        let finish = |mut resp: Response, why: &str| {
            resp.latency_us = admitted.elapsed().as_micros() as u64;
            resp.corr = Some(corr.clone());
            m.observe_latency_us(resp.latency_us);
            self.inner.ev(
                &corr,
                Level::Warn,
                "req.reject",
                vec![kv("reason", why), kv("status", resp.status.as_str())],
            );
            self.inner.ev(
                &corr,
                Level::Info,
                "req.respond",
                vec![kv("status", resp.status.as_str()), kv("wall_latency_us", resp.latency_us)],
            );
            let _ = reply.send(resp);
            false
        };

        let req = match Request::from_json_line(line) {
            Ok(r) => r,
            Err((id, msg)) => {
                Metrics::bump(&m.rejected_malformed);
                return finish(Response::new(id, Status::Rejected).with_error(msg), "malformed");
            }
        };
        let id = Some(req.id.clone());

        let kernel_key = fnv64(req.canon.as_bytes());
        let strikes =
            self.inner.quarantine.lock().unwrap().get(&kernel_key).copied().unwrap_or(0);
        if strikes >= self.inner.cfg.quarantine_threshold {
            Metrics::bump(&m.quarantined_rejects);
            return finish(
                Response::new(id, Status::Quarantined).with_error(format!(
                    "kernel is quarantined: it panicked the worker {strikes} times"
                )),
                "quarantined",
            );
        }

        let deadline_ms = req.deadline_ms.or(self.inner.cfg.default_deadline_ms);

        let mut q = self.inner.queue.lock().unwrap();
        if q.draining {
            Metrics::bump(&m.shutdown_rejects);
            return finish(
                Response::new(id, Status::Shutdown)
                    .with_error("server is draining; resubmit to a live instance"),
                "shutdown",
            );
        }
        if q.jobs.len() >= self.inner.cfg.queue_cap {
            Metrics::bump(&m.shed_overloaded);
            // Backoff hint: assume each queued job costs a few ms; deeper
            // queue, longer hint. Purely advisory.
            let hint = 5 * (q.jobs.len() as u64 + 1);
            return finish(
                Response::new(id, Status::Overloaded)
                    .retryable(Some(hint))
                    .with_error(format!(
                        "admission queue full ({}/{})",
                        q.jobs.len(),
                        self.inner.cfg.queue_cap
                    )),
                "overloaded",
            );
        }
        let depth = q.jobs.len() + 1;
        let device = req.device.clone();
        // Per-device admission counter: the sweep's shards show up as
        // distinct series in the registry snapshot.
        Metrics::bump(&m.registry().counter(&format!("serve.device.{device}")));
        q.jobs.push_back(Job {
            req,
            seq,
            corr: corr.clone(),
            admitted,
            deadline: deadline_ms.map(DeadlineSpec::in_ms),
            reply: reply.clone(),
        });
        drop(q);
        self.inner.ev(
            &corr,
            Level::Info,
            "req.admit",
            vec![kv("queue", depth), kv("device", device.as_str())],
        );
        self.inner.wake.notify_one();
        true
    }

    /// Current queue depth (for tests and the drain log line).
    pub fn queue_len(&self) -> usize {
        self.inner.queue.lock().unwrap().jobs.len()
    }

    pub fn metrics(&self) -> Snapshot {
        self.inner.metrics.snapshot()
    }

    /// The cache index document (see `Cache::index_json`).
    pub fn cache_index_json(&self) -> String {
        self.inner.cache.lock().unwrap().index_json()
    }

    /// Graceful shutdown: stop admitting, let the workers drain every
    /// already-accepted job, join them, and return the final metrics
    /// snapshot plus the flushed cache index. Safe to call through an
    /// `Arc` from any thread; later calls just re-snapshot.
    pub fn shutdown(&self) -> ShutdownReport {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.draining = true;
        }
        self.inner.wake.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        // A worker thread dying is a *bug* — every job panic is supposed to
        // be caught and typed — so escaped panics are counted, not hidden.
        let worker_panics = handles.into_iter().map(|h| h.join()).filter(Result::is_err).count();
        ShutdownReport {
            snapshot: self.inner.metrics.snapshot(),
            cache_index: self.inner.cache.lock().unwrap().index_json(),
            worker_panics,
            registry_json: self.inner.metrics.registry_json(false),
        }
    }

    /// Book one client-side retry (exposed so the retry driver's backoff
    /// loop lands in the same `BENCH_serve.json` counters).
    pub fn note_retry(&self) {
        Metrics::bump(&self.inner.metrics.retries);
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.draining {
                    return;
                }
                q = inner.wake.wait(q).unwrap();
            }
        };
        run_job(inner, job);
    }
}

fn run_job(inner: &Inner, job: Job) {
    // Install the job's observability context on this worker thread so
    // every span and event down the stack (transform, interpretation,
    // capture codec, replay) carries the request's correlation id.
    match inner.cfg.obs.clone() {
        Some(rec) => {
            let corr = job.corr.clone();
            np_obs::scope(&rec, Some(inner.metrics.registry()), Some(&corr), || {
                run_job_inner(inner, job)
            })
        }
        None => run_job_inner(inner, job),
    }
}

fn run_job_inner(inner: &Inner, job: Job) {
    let m = &inner.metrics;
    inner.ev(
        &job.corr,
        Level::Debug,
        "req.dequeue",
        vec![kv("wall_queue_us", job.admitted.elapsed().as_micros() as u64)],
    );
    let chaos = match &inner.cfg.chaos {
        Some(cfg) => plan(cfg, job.seq),
        None => ChaosPlan::none(),
    };
    if let Some(ms) = chaos.delay_ms {
        Metrics::bump(&m.chaos_delays);
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    let mut resp = compute_response(inner, &job, &chaos);

    // Chaos bit rot, after the job (and any insert) completed: flip a byte
    // of some cached entry *without* touching its checksum. A later lookup
    // of that entry must detect, evict, and recompute — never serve it.
    // Both caches rot: result payloads and capture artifacts alike.
    if chaos.corrupt_cache {
        let flip = 0x11 | (job.seq as u8 & 0x2E);
        if inner.cache.lock().unwrap().corrupt_nth(job.seq as usize, flip).is_some() {
            Metrics::bump(&m.chaos_corruptions);
        }
        if inner.trace_cache.lock().unwrap().corrupt_nth(job.seq as usize, flip).is_some() {
            Metrics::bump(&m.chaos_corruptions);
        }
    }

    resp.latency_us = job.admitted.elapsed().as_micros() as u64;
    resp.corr = Some(job.corr.clone());
    m.observe_latency_us(resp.latency_us);
    inner.ev(
        &job.corr,
        Level::Info,
        "req.respond",
        vec![kv("status", resp.status.as_str()), kv("wall_latency_us", resp.latency_us)],
    );
    // A dropped receiver (client gave up) is not a server error.
    let _ = job.reply.send(resp);
}

/// Produce `job`'s terminal response. Never panics outward: the simulate
/// path (and the chaos panic) runs under `catch_unwind`, and a caught
/// panic books a quarantine strike against the kernel.
fn compute_response(inner: &Inner, job: &Job, chaos: &ChaosPlan) -> Response {
    let m = &inner.metrics;
    let req = &job.req;
    let id = Some(req.id.clone());

    // Queue wait already burned the whole budget?
    if let Some(dl) = &job.deadline {
        if dl.expired() {
            Metrics::bump(&m.deadline_exceeded);
            return Response::new(id, Status::Deadline).retryable(Some(10)).with_error(
                format!("deadline of {} ms expired before the job ran", dl.budget_ms),
            );
        }
    }

    if chaos.inject.is_some() {
        Metrics::bump(&m.chaos_faults);
    }
    if chaos.panic {
        Metrics::bump(&m.chaos_panics);
    }

    // Cache lookup — skipped when chaos arms fault injection or a panic,
    // so chaos actually exercises the compute path and an injected run
    // can never be confused with a clean cached result.
    let key = cache_key(&req.canon, &req.transform_config(), &req.sim_config());
    let chaos_taints_result = chaos.inject.is_some() || chaos.panic;
    if !chaos_taints_result {
        match inner.cache.lock().unwrap().lookup(key) {
            Lookup::Hit(payload) => {
                Metrics::bump(&m.cache_hits);
                Metrics::bump(&m.completed_ok);
                inner.ev(&job.corr, Level::Debug, "req.cache", vec![kv("outcome", "hit")]);
                let mut r = Response::new(id, Status::Ok);
                r.cached = true;
                // The verified bytes are the JSON text that was inserted.
                r.payload = Some(String::from_utf8_lossy(&payload).into_owned());
                return r;
            }
            Lookup::CorruptEvicted => {
                Metrics::bump(&m.cache_corrupt_evicted);
                inner.ev(
                    &job.corr,
                    Level::Warn,
                    "req.cache",
                    vec![kv("outcome", "corrupt_evicted")],
                );
            }
            Lookup::Miss => {
                inner.ev(&job.corr, Level::Debug, "req.cache", vec![kv("outcome", "miss")]);
            }
        }
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _exec = np_obs::span("req.exec");
        if chaos.panic {
            panic!("chaos: injected worker panic (job seq {})", job.seq);
        }
        simulate(inner, job, chaos)
    }));

    match outcome {
        Ok(resp) => {
            if resp.status == Status::Ok && !chaos_taints_result {
                if let Some(p) = &resp.payload {
                    inner.cache.lock().unwrap().insert(key, p.as_bytes().to_vec());
                }
            }
            match resp.status {
                Status::Ok => Metrics::bump(&m.completed_ok),
                Status::Deadline => Metrics::bump(&m.deadline_exceeded),
                Status::Faulted => Metrics::bump(&m.faulted),
                Status::Rejected => Metrics::bump(&m.rejected_malformed),
                _ => {}
            }
            resp
        }
        Err(payload) => {
            Metrics::bump(&m.panicked);
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let strikes = {
                let mut q = inner.quarantine.lock().unwrap();
                let e = q.entry(fnv64(req.canon.as_bytes())).or_insert(0);
                *e += 1;
                *e
            };
            inner.ev(
                &job.corr,
                Level::Error,
                "req.panic",
                vec![kv("strikes", strikes as u64)],
            );
            let resp = Response::new(id, Status::Panicked)
                .with_error(format!("worker panicked: {what} (strike {strikes})"));
            if strikes < inner.cfg.quarantine_threshold {
                // One more chance: a panic can be environmental.
                resp.retryable(Some(25))
            } else {
                resp
            }
        }
    }
}

/// Transform + simulate (or auto-tune) one request. Runs inside the
/// worker's `catch_unwind`.
fn simulate(inner: &Inner, job: &Job, chaos: &ChaosPlan) -> Response {
    let req = &job.req;
    let id = Some(req.id.clone());
    let grid = Dim3::x1(req.grid);
    let watchdog = req.watchdog.or(inner.cfg.default_watchdog);
    let mut sim = SimOptions::full()
        .with_watchdog(watchdog)
        .with_deadline(job.deadline)
        // One simulator thread per job: the pool already runs jobs in
        // parallel, and nested pools would oversubscribe the host.
        .with_interp_threads(Some(1));
    if let Some(inj) = &chaos.inject {
        sim = sim.with_injection(inj.clone());
    }

    match req.mode {
        Mode::Transform => {
            let t = match transform(&req.kernel, &req.np_options()) {
                Ok(t) => t,
                Err(e) => {
                    return Response::new(id, Status::Rejected)
                        .with_error(format!("transform rejected the kernel: {e}"))
                }
            };
            // Trace-artifact fast path: a result-cache miss whose
            // interpretation is already frozen (same kernel + transform +
            // grid, e.g. only the watchdog budget differs) replays instead
            // of re-interpreting. Chaos fault injection needs real
            // interpretation, so it skips the artifact entirely.
            let tkey = trace_key(req);
            if chaos.inject.is_none() {
                match replay_cached_trace(inner, &req.dev, tkey, &sim) {
                    Some(Ok(rep)) => {
                        Metrics::bump(&inner.metrics.trace_replays);
                        inner.ev(
                            &job.corr,
                            Level::Debug,
                            "req.trace_replay",
                            vec![kv("outcome", "report")],
                        );
                        let mut r = Response::new(id, Status::Ok);
                        r.payload = Some(report_json(&rep, &req.device));
                        return r;
                    }
                    // The replayed verdict (e.g. the recorded step count
                    // exceeds this request's watchdog budget) is as
                    // terminal as the interpreted one would have been.
                    Some(Err(e)) => {
                        Metrics::bump(&inner.metrics.trace_replays);
                        inner.ev(
                            &job.corr,
                            Level::Debug,
                            "req.trace_replay",
                            vec![kv("outcome", "verdict")],
                        );
                        return fault_response(id, &e);
                    }
                    None => {}
                }
            }
            let mut args = alloc_extra_buffers(synth_args(&t.kernel), &t, grid);
            match capture_launch(&req.dev, &t.kernel, grid, &mut args, &sim) {
                Ok((rep, cap)) => {
                    if chaos.inject.is_none() {
                        inner.trace_cache.lock().unwrap().insert(tkey, cap.encode());
                    }
                    let mut r = Response::new(id, Status::Ok);
                    r.payload = Some(report_json(&rep, &req.device));
                    r
                }
                Err(e) => fault_response(id, &e),
            }
        }
        Mode::Tune => {
            let candidates = candidates_from_pragmas(&req.kernel, 1024);
            let make_args =
                |t: &crate::Transformed| alloc_extra_buffers(synth_args(&t.kernel), t, grid);
            match autotune_with_policy(
                &req.kernel,
                &req.dev,
                grid,
                &make_args,
                &sim,
                &candidates,
                req.tune_policy,
            ) {
                Ok(r) => {
                    let mut resp = Response::new(id, Status::Ok);
                    resp.payload = Some(tune_json(&r, &req.device));
                    resp
                }
                Err(TuneError::AllFailed(entries)) => Response::new(id, Status::Faulted)
                    .with_error(format!(
                        "no tuning candidate ran to completion ({} tried)",
                        entries.len()
                    )),
                Err(e) => Response::new(id, Status::Rejected)
                    .with_error(format!("tuning failed: {e}")),
            }
        }
    }
}

/// The capture-artifact cache key: canonical kernel + transform config +
/// device + grid. Unlike the result-cache key this has no watchdog
/// component — the capture records its interpreted step total, so *any*
/// budget's verdict replays from the same artifact. The device *is* in the
/// key: captures embed device-dependent sampling/occupancy context, so
/// per-device artifacts must never collide.
fn trace_key(req: &Request) -> CacheKey {
    cache_key(
        &req.canon,
        &req.transform_config(),
        &format!("trace;device={};grid={}", req.device, req.grid),
    )
}

/// Try to answer from the capture-artifact cache. `Some(Ok)` is a replayed
/// report, `Some(Err)` a replayed terminal verdict (watchdog), `None`
/// means interpret: a miss, a corrupt artifact (cache checksum *or* codec
/// digest — both are verified, and a bad artifact is dropped, never
/// served), or a sim config the artifact cannot legally stand in for.
fn replay_cached_trace(
    inner: &Inner,
    dev: &DeviceConfig,
    key: CacheKey,
    sim: &SimOptions,
) -> Option<Result<KernelReport, np_exec::ExecError>> {
    let bytes = match inner.trace_cache.lock().unwrap().lookup(key) {
        Lookup::Hit(b) => b,
        Lookup::CorruptEvicted => {
            Metrics::bump(&inner.metrics.trace_corrupt_evicted);
            return None;
        }
        Lookup::Miss => return None,
    };
    let cap = match CapturedLaunch::decode(&bytes) {
        Ok(c) => c,
        Err(_) => {
            // Passed the cache checksum but not the codec: a corrupt
            // insert. Evict so it cannot shadow the slot again.
            Metrics::bump(&inner.metrics.trace_corrupt_evicted);
            inner.trace_cache.lock().unwrap().evict(key);
            return None;
        }
    };
    match replay_launch(dev, &cap, sim) {
        Ok(rep) => Some(Ok(rep)),
        // A faulting verdict (watchdog over budget) is a real answer.
        Err(e @ np_exec::ExecError::Fault(_)) => Some(Err(e)),
        // Any replay-eligibility error means this artifact cannot answer
        // the request: interpret instead.
        Err(_) => None,
    }
}

/// Map a launch error to its terminal status + retryability class.
fn fault_response(id: Option<String>, e: &np_exec::ExecError) -> Response {
    match e.fault() {
        Some(f) if matches!(f.kind, np_exec::FaultKind::Deadline { .. }) => {
            Response::new(id, Status::Deadline)
                .retryable(Some(10))
                .with_error(f.to_string())
        }
        Some(f) if f.kind.transient() => {
            Response::new(id, Status::Faulted).retryable(Some(15)).with_error(f.to_string())
        }
        Some(f) => Response::new(id, Status::Faulted).with_error(f.to_string()),
        // Launch setup problems (missing args, occupancy) are properties
        // of the request, not the service: permanent.
        None => Response::new(id, Status::Rejected).with_error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// Figure-2-shaped TMV kernel, small block so unit tests stay quick.
    const OK_KERNEL: &str = "
// blockDim = (32, 1, 1)
__global__ void tmv(float* a, float* b, float* c, int w, int h) {
  float sum = 0.0f;
  int tx = threadIdx.x + blockIdx.x * blockDim.x;
  #pragma np parallel for reduction(+:sum)
  for (int i = 0; i < h; i++) {
    sum += a[i * w + tx] * b[i];
  }
  c[tx] = sum;
}
";

    fn line(id: &str, extra: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"kernel\":\"{}\"{extra}}}",
            np_obs::json::escape(OK_KERNEL)
        )
    }

    fn submit_wait(srv: &Server, line: &str) -> Response {
        let (tx, rx) = channel();
        srv.submit(line, &tx);
        rx.recv().expect("exactly one terminal response")
    }

    #[test]
    fn simple_transform_request_round_trips() {
        let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
        let resp = submit_wait(&srv, &line("r1", ""));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert!(!resp.cached);
        let payload = resp.payload.expect("ok carries a result");
        assert!(payload.contains("\"cycles\":"), "{payload}");
        let end = srv.shutdown();
        assert_eq!(end.snapshot.completed_ok, 1);
        assert_eq!(end.worker_panics, 0);
    }

    #[test]
    fn identical_requests_hit_the_cache_byte_identically() {
        let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
        let cold = submit_wait(&srv, &line("r1", ""));
        let warm = submit_wait(&srv, &line("r2", ""));
        assert!(!cold.cached);
        assert!(warm.cached, "second identical request must hit");
        assert_eq!(cold.payload, warm.payload, "hit must be byte-identical");
        let end = srv.shutdown();
        assert_eq!(end.snapshot.cache_hits, 1);
        assert!(end.cache_index.contains("\"entries\":1"), "{}", end.cache_index);
    }

    #[test]
    fn malformed_lines_get_typed_rejections_not_crashes() {
        let srv = Server::start(ServeConfig::default());
        for bad in ["", "{", "{\"id\":\"x\"}", "{\"id\":\"x\",\"kernel\":\"int m\"}"] {
            let resp = submit_wait(&srv, bad);
            assert_eq!(resp.status, Status::Rejected, "{bad:?}");
            assert!(!resp.retryable);
        }
        assert_eq!(srv.shutdown().snapshot.rejected_malformed, 4);
    }

    #[test]
    fn watchdog_only_miss_replays_the_cached_capture() {
        let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
        let cold = submit_wait(&srv, &line("r1", ""));
        assert_eq!(cold.status, Status::Ok, "{:?}", cold.error);
        // Same kernel + transform + grid, different (generous) watchdog:
        // the result cache misses but the capture artifact replays — and
        // the report must be byte-identical, because the budget changes
        // nothing about a run that fits it.
        let warm = submit_wait(&srv, &line("r2", ",\"watchdog\":\"500000000\""));
        assert_eq!(warm.status, Status::Ok, "{:?}", warm.error);
        assert!(!warm.cached, "different sim config is a result-cache miss");
        assert_eq!(cold.payload, warm.payload, "replay must be byte-identical");
        let end = srv.shutdown();
        assert_eq!(end.snapshot.trace_replays, 1, "second request replayed");
        assert_eq!(end.snapshot.trace_corrupt_evicted, 0);
    }

    #[test]
    fn replayed_watchdog_verdict_is_a_fault_without_reinterpretation() {
        let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
        let cold = submit_wait(&srv, &line("r1", ""));
        assert_eq!(cold.status, Status::Ok, "{:?}", cold.error);
        // A one-step budget is under any real kernel's step count; the
        // cached capture's recorded total reproduces the watchdog fault
        // without interpreting anything.
        let tight = submit_wait(&srv, &line("r2", ",\"watchdog\":\"1\""));
        assert_eq!(tight.status, Status::Faulted, "{:?}", tight.error);
        assert!(tight.error.as_deref().unwrap_or("").contains("watchdog"), "{:?}", tight.error);
        let end = srv.shutdown();
        assert_eq!(end.snapshot.trace_replays, 1, "the verdict came from the capture");
    }

    #[test]
    fn corrupt_capture_artifact_is_evicted_and_recomputed() {
        let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
        let cold = submit_wait(&srv, &line("r1", ""));
        assert_eq!(cold.status, Status::Ok, "{:?}", cold.error);
        assert!(srv.inner.trace_cache.lock().unwrap().corrupt_nth(0, 0x41).is_some());
        // Different watchdog forces the trace path; the rotten artifact
        // must be detected and the request recomputed, byte-identically.
        let warm = submit_wait(&srv, &line("r2", ",\"watchdog\":\"500000000\""));
        assert_eq!(warm.status, Status::Ok, "{:?}", warm.error);
        assert_eq!(cold.payload, warm.payload, "recompute must match the cold result");
        let end = srv.shutdown();
        assert_eq!(end.snapshot.trace_replays, 0, "corrupt artifact must not replay");
        assert_eq!(end.snapshot.trace_corrupt_evicted, 1);
    }

    #[test]
    fn per_device_results_never_collide_in_either_cache() {
        let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
        let a = submit_wait(&srv, &line("r1", ""));
        let b = submit_wait(&srv, &line("r2", ",\"device\":\"k20c\""));
        assert_eq!(a.status, Status::Ok, "{:?}", a.error);
        assert_eq!(b.status, Status::Ok, "{:?}", b.error);
        assert!(!b.cached, "a different device must miss the result cache");
        assert_ne!(a.payload, b.payload, "payloads echo their own device + timing");
        assert!(a.payload.as_deref().unwrap().contains("\"device\":\"gtx680\""));
        assert!(b.payload.as_deref().unwrap().contains("\"device\":\"k20c\""));
        // Re-ask each device: both must now be warm hits with byte-identical
        // payloads — the device is in the key, so neither evicted the other.
        let a2 = submit_wait(&srv, &line("r3", ""));
        let b2 = submit_wait(&srv, &line("r4", ",\"device\":\"k20c\""));
        assert!(a2.cached && b2.cached);
        assert_eq!(a.payload, a2.payload);
        assert_eq!(b.payload, b2.payload);
        let end = srv.shutdown();
        assert_eq!(end.snapshot.cache_hits, 2);
        assert_eq!(end.snapshot.trace_replays, 0, "neither device replayed the other's capture");
    }

    #[test]
    fn unknown_device_is_rejected_at_admission() {
        let srv = Server::start(ServeConfig::default());
        let resp = submit_wait(&srv, &line("r1", ",\"device\":\"titan\""));
        assert_eq!(resp.status, Status::Rejected);
        assert!(resp.error.as_deref().unwrap_or("").contains("unknown device"), "{:?}", resp.error);
    }

    #[test]
    fn draining_server_rejects_new_work_with_shutdown() {
        let srv = Server::start(ServeConfig::default());
        {
            let mut q = srv.inner.queue.lock().unwrap();
            q.draining = true;
        }
        let resp = submit_wait(&srv, &line("late", ""));
        assert_eq!(resp.status, Status::Shutdown);
    }
}
