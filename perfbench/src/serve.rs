//! `serve-mix`: one closed-loop client against an in-process
//! `serve::Server` with the default configuration (2 workers, queue 8, no
//! chaos). The client submits its next request only after the previous
//! reply, in blocks of fixed composition so that reads and writes sit side
//! by side in every run:
//!
//! - 40% exact repeats of one of its recent requests (result-cache hits);
//! - 30% repeats of a recent transform request with only the watchdog
//!   budget changed (result-cache misses answered from the trace cache);
//! - 30% fresh identities (parse, transform, interpretation, capture and
//!   insert), a fifth of them `mode: tune`.
//!
//! Fresh requests draw a Table-1 test-scale kernel from a seeded rotation,
//! a configuration, a grid multiple and a device, and rename the kernel so
//! the identity is new to both caches. Repeats draw only from completed
//! requests recent enough that neither FIFO cache has evicted them, so
//! every hit and every trace replay is certain.
//!
//! One client, not several: on a host with two cores, concurrent clients
//! (each tune request also runs a two-thread tuner pool) oversubscribe the
//! cores, and the run then measures the scheduler and the neighbours' load
//! more than the server.

use crate::layers::{book_replay, capture_and_replay, traced_tune, Layers};
use crate::{Bench, Budget, Measured, Rng};
use cuda_np::serve::json::{escape, Json};
use cuda_np::serve::{synth_args, Request, Response, ServeConfig, Server, Status};
use cuda_np::tuner::{alloc_extra_buffers, candidates_from_pragmas, default_candidates};
use cuda_np::{transform, Transformed};
use np_exec::{replay_launch, SimOptions, DEFAULT_WATCHDOG_STEPS};
use np_gpu_sim::CapturedLaunch;
use np_kernel_ir::printer::print_kernel;
use np_kernel_ir::{parse_kernel, Dim3, Kernel, NpType};
use np_workloads::{all_workloads, Scale};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEVICES: [&str; 3] = ["gtx680", "k20c", "maxwell"];
const GRID_MULTIPLES: [u32; 2] = [1, 2];
/// Largest transformed block a fresh transform request asks for: every
/// configuration up to it launches on all three devices.
const MAX_BLOCK_THREADS: u32 = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Replay,
    Fresh,
    FreshTune,
}

/// One block (pass) of the request stream.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Hit, 20),
    (Kind::Replay, 15),
    (Kind::Fresh, 12),
    (Kind::FreshTune, 3),
];
/// Hits repeat one of the last `HIT_WINDOW` cache-inserting (non-hit)
/// requests, replays one of the last `REPLAY_WINDOW` fresh transform
/// requests. Both windows stay far inside the server's 256-entry FIFO
/// caches.
const HIT_WINDOW: usize = 40;
const REPLAY_WINDOW: usize = 12;
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Seeds the priming requests' draws, so that set-up does the same work
/// for every `--seed` and `setup_s` compares across seeds.
const PRIMING_SEED: u64 = 0x5EED;

/// A kernel the stream draws from.
struct Spec {
    name: &'static str,
    kernel: Kernel,
    grid: u32,
    /// `(slave_size, np_type)` for fresh transform requests.
    configs: Vec<(u32, &'static str)>,
}

/// A completed request a later one may repeat.
struct Sent {
    /// The request line after its `"id"` member.
    fields: String,
    src: Arc<str>,
    payload: String,
    /// Encoded capture from a traced run's decomposition (fresh transform
    /// requests only).
    capture: Option<Vec<u8>>,
}

/// What a planned request must come back with.
enum Expect {
    /// Byte-identical to an earlier payload.
    Payload(String),
    /// Equal, up to the kernel's unique name, to every other payload of
    /// the same (kernel, configuration, grid, device) class.
    Class { key: String, unique_name: String },
}

struct Planned {
    kind: Kind,
    fields: String,
    src: Arc<str>,
    expect: Expect,
    origin: Option<Arc<Sent>>,
}

struct Client {
    rng: Rng,
    /// Requests sent so far (ids, unique names, watchdog budgets).
    n: u64,
    history: VecDeque<Arc<Sent>>,
    fresh: VecDeque<Arc<Sent>>,
    /// Seeded kernel rotations for fresh transform and tune requests.
    rotation: [Vec<usize>; 2],
    next: [usize; 2],
    classes: HashMap<String, String>,
    tx: Sender<Response>,
    rx: Receiver<Response>,
}

pub(crate) struct Mix {
    specs: Vec<Spec>,
    server: Server,
    client: Client,
}

impl Mix {
    /// Start the server and prime the client with one fresh transform
    /// request per kernel, so the first block already has requests to
    /// repeat. The measured stream is drawn from `seed`.
    pub fn set_up(seed: u64) -> Result<Mix, String> {
        let specs: Vec<Spec> = all_workloads(Scale::Test)
            .into_iter()
            .map(|w| {
                let kernel = w.kernel();
                let configs = default_candidates(kernel.block_dim.x, 1024)
                    .into_iter()
                    .filter(|c| kernel.block_dim.x * c.opts.slave_size <= MAX_BLOCK_THREADS)
                    .map(|c| (c.opts.slave_size, np_type_str(c.opts.np_type)))
                    .collect();
                Spec {
                    name: w.name(),
                    grid: w.grid().count() as u32,
                    kernel,
                    configs,
                }
            })
            .collect();
        let server = Server::start(ServeConfig::default());
        let mut client = Client::new(PRIMING_SEED, specs.len());
        for _ in 0..specs.len() {
            let (_, outcome) = client.op(&server, &specs, Kind::Fresh, None);
            outcome.map_err(|e| format!("priming: {e}"))?;
        }
        client.rng = Rng::new(seed);
        Ok(Mix {
            specs,
            server,
            client,
        })
    }
}

impl Drop for Mix {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

impl Bench for Mix {
    fn measure(&mut self, budget: Budget, mut layers: Option<&mut Layers>) -> Measured {
        let mut m = Measured::default();
        let mut replays = 0;
        let mut kinds: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        let before = self.server.metrics();
        let start = Instant::now();
        while budget.more(start, m.passes()) {
            let block = Instant::now();
            self.client.rng.shuffle(&mut kinds);
            for &kind in &kinds {
                let (ms, outcome) =
                    self.client
                        .op(&self.server, &self.specs, kind, layers.as_deref_mut());
                m.record(ms, outcome);
                replays += u64::from(kind == Kind::Replay);
            }
            m.end_pass(block);
        }
        m.wall_s = start.elapsed().as_secs_f64();
        let after = self.server.metrics();

        let hits = after.cache_hits - before.cache_hits;
        let trace_replays = after.trace_replays - before.trace_replays;
        let shed = after.shed_overloaded - before.shed_overloaded;
        let misses = (after.submitted - before.submitted) - hits - trace_replays - shed;
        if trace_replays != replays {
            // Per-op checks cannot see which path answered a replay; a
            // mismatch means the mix did not exercise what it claims.
            m.failed += trace_replays.abs_diff(replays);
            m.notes.push(format!(
                "{replays} replay requests but {trace_replays} trace replays"
            ));
        }
        if let Some(l) = layers {
            l.add("serve.hits", hits as f64);
            l.add("serve.trace_replays", trace_replays as f64);
            l.add("serve.misses", misses as f64);
            l.add("serve.shed", shed as f64);
        }
        m
    }
}

fn np_type_str(t: NpType) -> &'static str {
    match t {
        NpType::InterWarp => "inter",
        NpType::IntraWarp => "intra",
    }
}

impl Client {
    fn new(seed: u64, kernels: usize) -> Client {
        let (tx, rx) = channel();
        Client {
            rng: Rng::new(seed),
            n: 0,
            history: VecDeque::new(),
            fresh: VecDeque::new(),
            rotation: [(0..kernels).collect(), (0..kernels).collect()],
            next: [kernels, kernels],
            classes: HashMap::new(),
            tx,
            rx,
        }
    }

    /// Next kernel of rotation `which` (0: transform, 1: tune), reshuffled
    /// after every full cycle so each kernel appears equally often.
    fn next_kernel(&mut self, which: usize) -> usize {
        if self.next[which] == self.rotation[which].len() {
            self.rng.shuffle(&mut self.rotation[which]);
            self.next[which] = 0;
        }
        self.next[which] += 1;
        self.rotation[which][self.next[which] - 1]
    }

    fn plan(&mut self, kind: Kind, specs: &[Spec]) -> Planned {
        let repeat =
            |from: &VecDeque<Arc<Sent>>, rng: &mut Rng| from[rng.below(from.len())].clone();
        match kind {
            Kind::Hit => {
                let s = repeat(&self.history, &mut self.rng);
                Planned {
                    kind,
                    fields: s.fields.clone(),
                    src: s.src.clone(),
                    expect: Expect::Payload(s.payload.clone()),
                    origin: Some(s),
                }
            }
            Kind::Replay => {
                let s = repeat(&self.fresh, &mut self.rng);
                // A budget no earlier request used, far above any step count.
                let watchdog = DEFAULT_WATCHDOG_STEPS + 1 + self.n;
                Planned {
                    kind,
                    fields: format!("{},\"watchdog\":{watchdog}", s.fields),
                    src: s.src.clone(),
                    expect: Expect::Payload(s.payload.clone()),
                    origin: Some(s),
                }
            }
            Kind::Fresh | Kind::FreshTune => {
                let tune = kind == Kind::FreshTune;
                let spec = &specs[self.next_kernel(usize::from(tune))];
                let grid = spec.grid * GRID_MULTIPLES[self.rng.below(GRID_MULTIPLES.len())];
                let device = DEVICES[self.rng.below(DEVICES.len())];
                let mut kernel = spec.kernel.clone();
                kernel.name = format!("{}_r{}", kernel.name, self.n);
                let src: Arc<str> = print_kernel(&kernel).into();
                let mut fields = format!(
                    "\"kernel\":\"{}\",\"grid\":{grid},\"device\":\"{device}\"",
                    escape(&src)
                );
                let config = if tune {
                    fields.push_str(",\"mode\":\"tune\"");
                    "tune".to_string()
                } else {
                    let (slave, np) = spec.configs[self.rng.below(spec.configs.len())];
                    fields.push_str(&format!(",\"slave_size\":{slave},\"np_type\":\"{np}\""));
                    format!("{np}{slave}")
                };
                Planned {
                    kind,
                    fields,
                    src,
                    expect: Expect::Class {
                        key: format!("{} {config} grid={grid} {device}", spec.name),
                        unique_name: kernel.name,
                    },
                    origin: None,
                }
            }
        }
    }

    /// Plan, send and check one request; with `layers`, also split it into
    /// explicit timed calls. Returns the submit-to-reply latency in ms.
    fn op(
        &mut self,
        server: &Server,
        specs: &[Spec],
        kind: Kind,
        mut layers: Option<&mut Layers>,
    ) -> (f64, Result<(), String>) {
        let planned = self.plan(kind, specs);
        let line = format!("{{\"id\":\"r{}\",{}}}", self.n, planned.fields);
        self.n += 1;
        let request = layers.as_deref_mut().map(|l| {
            l.add("parse.bytes", planned.src.len() as f64);
            let parsed = l.time("parse.self_s", || parse_kernel(&planned.src));
            let request = l.time("serve.decode_s", || Request::from_json_line(&line));
            match (parsed, request) {
                (Ok(_), Ok(r)) => Ok(r),
                (Err(e), _) => Err(format!("parse: {e}")),
                (_, Err((_, e))) => Err(format!("decode: {e}")),
            }
        });
        let t = Instant::now();
        server.submit(&line, &self.tx);
        let reply = self.rx.recv_timeout(REPLY_TIMEOUT);
        let wait_s = t.elapsed().as_secs_f64();
        if let Some(l) = layers.as_deref_mut() {
            l.charge("serve.wait_s", wait_s);
        }
        let outcome = reply
            .map_err(|_| format!("{kind:?}: no reply within {REPLY_TIMEOUT:?}"))
            .and_then(|resp| self.check(&planned, resp))
            .and_then(|payload| {
                let capture = match (layers, request) {
                    (Some(l), Some(req)) => decompose(l, &planned, &req?, &payload)?,
                    _ => None,
                };
                self.remember(planned, payload, capture);
                Ok(())
            });
        (wait_s * 1e3, outcome)
    }

    /// The reply's payload, if it is what the plan expects.
    fn check(&mut self, p: &Planned, resp: Response) -> Result<String, String> {
        let kind = p.kind;
        if resp.status != Status::Ok {
            return Err(format!(
                "{kind:?}: status {} ({})",
                resp.status.as_str(),
                resp.error.unwrap_or_default()
            ));
        }
        if resp.cached != (kind == Kind::Hit) {
            return Err(format!("{kind:?}: cached={}", resp.cached));
        }
        let payload = resp.payload.unwrap_or_default();
        match &p.expect {
            Expect::Payload(want) if *want != payload => Err(format!(
                "{kind:?}: payload differs from the repeated request's"
            )),
            Expect::Payload(_) => Ok(payload),
            Expect::Class { key, unique_name } => {
                let normalised = payload.replace(unique_name.as_str(), "<kernel>");
                match self.classes.get(key) {
                    Some(prev) if *prev != normalised => Err(format!(
                        "{kind:?}: {key} payload differs from an earlier one"
                    )),
                    Some(_) => Ok(payload),
                    None => {
                        self.classes.insert(key.clone(), normalised);
                        Ok(payload)
                    }
                }
            }
        }
    }

    /// Keep a completed request for later repeats. Hits are not kept: a
    /// repeat must date from its identity's cache insert, or a request
    /// kept alive by repeated hits would outlive its FIFO cache entry.
    fn remember(&mut self, p: Planned, payload: String, capture: Option<Vec<u8>>) {
        if p.kind == Kind::Hit {
            return;
        }
        let sent = Arc::new(Sent {
            fields: p.fields,
            src: p.src,
            payload,
            capture,
        });
        if p.kind == Kind::Fresh {
            self.fresh.push_back(sent.clone());
            if self.fresh.len() > REPLAY_WINDOW {
                self.fresh.pop_front();
            }
        }
        self.history.push_back(sent);
        if self.history.len() > HIT_WINDOW {
            self.history.pop_front();
        }
    }
}

/// The work the server did for a request, redone as explicit calls that
/// must reproduce the served cycles. Hits did no work below the cache;
/// replays decode and re-time a capture (when this run decomposed its
/// origin); fresh requests transform, build arguments and capture; tune
/// requests run the decomposed tuner. Returns the encoded capture of a
/// fresh transform request, for later replays of it.
fn decompose(
    l: &mut Layers,
    p: &Planned,
    req: &Request,
    payload: &str,
) -> Result<Option<Vec<u8>>, String> {
    let grid = Dim3::x1(req.grid);
    let sim = SimOptions::full()
        .with_watchdog(req.watchdog.or(Some(DEFAULT_WATCHDOG_STEPS)))
        .with_interp_threads(Some(1));
    let served = Json::parse(payload)?;
    let served_cycles = |path: &[&str]| {
        path.iter()
            .try_fold(&served, |j, k| j.get(k))
            .and_then(Json::as_u64)
    };
    let expect = |got: u64, path: &[&str]| match served_cycles(path) {
        Some(want) if want == got => Ok(()),
        want => Err(format!(
            "{:?}: decomposed run gave {got} cycles, served {want:?}",
            p.kind
        )),
    };
    match p.kind {
        Kind::Hit => Ok(None),
        Kind::Replay => {
            let Some(bytes) = p.origin.as_ref().and_then(|o| o.capture.as_ref()) else {
                return Ok(None);
            };
            let cap = l.time("capture.decode_s", || CapturedLaunch::decode(bytes));
            let cap = cap.map_err(|e| format!("decode: {e}"))?;
            l.add("capture.bytes", bytes.len() as f64);
            l.add("capture.coded_bytes", bytes.len() as f64);
            let report = l.time("engine.self_s", || replay_launch(&req.dev, &cap, &sim));
            let report = report.map_err(|e| format!("replay: {e}"))?;
            book_replay(l, &report);
            expect(report.cycles, &["cycles"])?;
            Ok(None)
        }
        Kind::Fresh => {
            let t = l.time("transform.self_s", || {
                transform(&req.kernel, &req.np_options())
            });
            let t = t.map_err(|e| format!("transform: {e}"))?;
            l.add("transform.calls", 1.0);
            let mut args = l.time("workloads.args_s", || {
                alloc_extra_buffers(synth_args(&t.kernel), &t, grid)
            });
            let (report, bytes, _) =
                capture_and_replay(l, &req.dev, &t.kernel, grid, &mut args, &sim)?;
            expect(report.cycles, &["cycles"])?;
            Ok(Some(bytes))
        }
        Kind::FreshTune => {
            let make_args = |t: &Transformed| alloc_extra_buffers(synth_args(&t.kernel), t, grid);
            let candidates = candidates_from_pragmas(&req.kernel, 1024);
            let tuned = traced_tune(
                l,
                &req.kernel,
                &req.dev,
                grid,
                &make_args,
                &sim,
                &candidates,
            )?;
            expect(
                tuned.policy.result.best_report.cycles,
                &["winner", "cycles"],
            )?;
            Ok(None)
        }
    }
}
