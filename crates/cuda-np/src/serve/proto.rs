//! The serve-mode wire protocol: JSONL requests in, JSONL responses out.
//!
//! One request per line, one terminal response per accepted line — always
//! exactly one, no matter how the job ends (that exactly-once property is
//! what the chaos soak proves). Responses carry a typed `status`, an
//! explicit `retryable` classification, and for `ok` a `result` payload
//! that reuses the repository's deterministic report JSON (profile
//! counters, stall breakdown, race report), so a cache hit can be compared
//! byte-for-byte against a cold compute.
//!
//! ```text
//! → {"id":"r1","kernel":"__global__ void k(...) { ... }","slave_size":4,
//!    "np_type":"inter","grid":4,"deadline_ms":2000,"watchdog":"200000"}
//! ← {"id":"r1","status":"ok","cached":false,"retryable":false,
//!    "latency_us":1234,"result":{...}}
//! ```

use np_obs::json::{escape, Json};
use crate::costmodel::TunePolicy;
use crate::options::NpOptions;
use crate::tuner::{PolicyTuneResult, TuneOutcome};
use np_exec::KernelReport;
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::kernel::Kernel;
use np_kernel_ir::parse_kernel;
use np_kernel_ir::pragma::NpType;
use np_kernel_ir::printer::print_kernel;

/// What the client wants done with the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Transform at the pinned (slave_size, np_type) and simulate once.
    Transform,
    /// Auto-tune over the candidate space and report the winner + table.
    Tune,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Transform => "transform",
            Mode::Tune => "tune",
        }
    }
}

/// One admitted request, parsed and semantically validated. The kernel is
/// parsed at admission so malformed sources are `rejected` up front and so
/// the *canonical* printed form (not the client's whitespace) feeds the
/// cache key and the quarantine identity.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub kernel: Kernel,
    /// Canonical source: `print_kernel(parse_kernel(input))`.
    pub canon: String,
    pub mode: Mode,
    pub slave_size: u32,
    pub np_type: NpType,
    /// Grid blocks along x.
    pub grid: u32,
    /// Registry name of the device to simulate on (default `gtx680`).
    /// Resolved at admission so unknown names are `rejected` up front, and
    /// part of the cache key so per-device results never collide.
    pub device: String,
    /// The resolved device descriptor for `device`.
    pub dev: DeviceConfig,
    /// Watchdog step budget override (`None` = server default budget).
    pub watchdog: Option<u64>,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Candidate-selection policy for tune mode (`exhaustive` when absent).
    /// Ignored by transform mode and excluded from its cache key.
    pub tune_policy: TunePolicy,
}

/// Parse a `--watchdog`-style step budget: a positive integer number of
/// interpreted steps, or `none`/`off` to disarm the watchdog entirely.
/// Shared between the `npcc --watchdog` flag and the serve protocol's
/// per-request `watchdog` field, so the CLI and the daemon can never
/// drift apart on what a budget spelling means.
pub fn parse_step_budget(s: &str) -> Result<Option<u64>, String> {
    match s {
        "none" | "off" => Ok(None),
        _ => match s.parse::<u64>() {
            Ok(0) => Err("step budget must be positive (or `none` to disarm)".to_string()),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("bad step budget {s:?} (want a count or `none`)")),
        },
    }
}

impl Request {
    /// Parse one JSONL line. On failure returns whatever `id` could be
    /// recovered (so the rejection can still be correlated) plus the
    /// reason.
    pub fn from_json_line(line: &str) -> Result<Request, (Option<String>, String)> {
        let v = Json::parse(line.trim()).map_err(|e| (None, format!("bad JSON: {e}")))?;
        let id = v.get("id").and_then(Json::as_str).map(str::to_string);
        let fail = |msg: String| (id.clone(), msg);

        let id_val = id.clone().ok_or_else(|| fail("missing string field \"id\"".into()))?;
        let src = v
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string field \"kernel\"".into()))?;
        let kernel =
            parse_kernel(src).map_err(|e| fail(format!("kernel does not parse: {e}")))?;
        let mut kernel = kernel;
        crate::preprocess::flatten_block(&mut kernel);
        let canon = print_kernel(&kernel);

        let mode = match v.get("mode").and_then(Json::as_str) {
            None | Some("transform") => Mode::Transform,
            Some("tune") => Mode::Tune,
            Some(other) => {
                return Err(fail(format!("bad mode {other:?} (want transform|tune)")))
            }
        };
        let slave_size = match v.get("slave_size") {
            None => 4,
            Some(j) => j
                .as_u64()
                .filter(|&n| (1..=1024).contains(&n))
                .ok_or_else(|| fail("slave_size must be an integer in 1..=1024".into()))?
                as u32,
        };
        let np_type = match v.get("np_type").and_then(Json::as_str) {
            None | Some("inter") => NpType::InterWarp,
            Some("intra") => NpType::IntraWarp,
            Some(other) => return Err(fail(format!("bad np_type {other:?} (want inter|intra)"))),
        };
        let grid = match v.get("grid") {
            None => 4,
            Some(j) => j
                .as_u64()
                .filter(|&n| (1..=1 << 20).contains(&n))
                .ok_or_else(|| fail("grid must be an integer in 1..=1048576".into()))?
                as u32,
        };
        let device = match v.get("device") {
            None => "gtx680".to_string(),
            Some(j) => j
                .as_str()
                .ok_or_else(|| fail("device must be a registry name string".into()))?
                .to_string(),
        };
        let dev = np_gpu_sim::device::from_name(&device).map_err(|e| fail(e.to_string()))?;
        let watchdog = match v.get("watchdog") {
            None => None,
            Some(j) => {
                let s = match j {
                    Json::Str(s) => s.clone(),
                    Json::Num(_) => j
                        .as_u64()
                        .ok_or_else(|| fail("watchdog must be a whole number".into()))?
                        .to_string(),
                    _ => return Err(fail("watchdog must be a count or \"none\"".into())),
                };
                parse_step_budget(&s).map_err(&fail)?
            }
        };
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(j) => Some(
                j.as_u64().ok_or_else(|| fail("deadline_ms must be a whole number".into()))?,
            ),
        };
        let tune_policy = match v.get("tune_policy") {
            None => TunePolicy::default(),
            Some(j) => {
                let s = j
                    .as_str()
                    .ok_or_else(|| fail("tune_policy must be a string".into()))?;
                TunePolicy::parse(s).map_err(&fail)?
            }
        };

        Ok(Request {
            id: id_val,
            kernel,
            canon,
            mode,
            slave_size,
            np_type,
            grid,
            device,
            dev,
            watchdog,
            deadline_ms,
            tune_policy,
        })
    }

    /// The transform options this request pins (tune mode ignores
    /// slave_size/np_type, which then don't enter the cache key).
    pub fn np_options(&self) -> NpOptions {
        NpOptions::new(self.slave_size, self.np_type)
    }

    /// Canonical transform-config string for the cache key. The tune
    /// policy enters the key only when non-default: pre-policy clients and
    /// explicit `exhaustive` requests must keep hitting the same entries
    /// (the policies' payloads differ — `skipped` entries, the policy
    /// block — so distinct policies must never collide).
    pub fn transform_config(&self) -> String {
        match self.mode {
            Mode::Transform => format!(
                "mode=transform;slave={};np={}",
                self.slave_size,
                np_type_str(self.np_type)
            ),
            Mode::Tune if self.tune_policy.is_exhaustive() => "mode=tune".to_string(),
            Mode::Tune => format!("mode=tune;policy={}", self.tune_policy),
        }
    }

    /// Canonical sim-config string for the cache key. The device name is
    /// part of the key so the same kernel simulated on two devices never
    /// shares an entry. The deadline is deliberately excluded: it bounds
    /// *whether* a result arrives, never what the result is, so two
    /// requests differing only in deadline may share a cache entry.
    pub fn sim_config(&self) -> String {
        format!(
            "device={};grid={};watchdog={}",
            self.device,
            self.grid,
            match self.watchdog {
                Some(n) => n.to_string(),
                None => "default".to_string(),
            }
        )
    }
}

fn np_type_str(t: NpType) -> &'static str {
    match t {
        NpType::InterWarp => "inter",
        NpType::IntraWarp => "intra",
    }
}

/// Terminal status of one request. Every status is terminal — there are no
/// progress messages — and each carries a fixed retryability class
/// (transient statuses name conditions of the *service*, permanent ones
/// name properties of the *kernel*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Completed; `result` carries the report payload.
    Ok,
    /// Shed at admission: the bounded queue was full. Transient.
    Overloaded,
    /// The wall-clock deadline expired (in queue or mid-simulation).
    /// Transient.
    Deadline,
    /// The sanitizer faulted the kernel. Permanent unless the fault kind
    /// itself is transient (injected hardware blips).
    Faulted,
    /// The worker panicked running this job; the kernel is a quarantine
    /// suspect. Transient until the quarantine threshold trips.
    Panicked,
    /// The kernel is on the poison list (panicked the threshold's worth of
    /// times) and was auto-rejected without running. Permanent.
    Quarantined,
    /// The request itself is invalid (bad JSON, unparsable kernel,
    /// transform rejection). Permanent.
    Rejected,
    /// The server is draining and accepted no new work. Permanent for this
    /// server instance.
    Shutdown,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::Deadline => "deadline",
            Status::Faulted => "faulted",
            Status::Panicked => "panicked",
            Status::Quarantined => "quarantined",
            Status::Rejected => "rejected",
            Status::Shutdown => "shutdown",
        }
    }
}

/// One terminal response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoes the request id; `None` only when the line was so malformed
    /// no id could be recovered.
    pub id: Option<String>,
    pub status: Status,
    /// Whether resubmitting the same request could plausibly succeed.
    pub retryable: bool,
    /// Served from the content-addressed cache?
    pub cached: bool,
    /// Backoff hint for transient statuses.
    pub retry_after_ms: Option<u64>,
    /// Human-readable reason for every non-`ok` status.
    pub error: Option<String>,
    /// The deterministic report payload (`ok` only), already-rendered JSON.
    pub payload: Option<String>,
    /// Host-side service latency. Informational (varies run to run); never
    /// part of cache-identity comparisons, which use `payload` alone.
    pub latency_us: u64,
    /// Request-scoped correlation id, minted at admission and attached to
    /// every observability event for this request; echoed here so a client
    /// can join the wire response against the server's event log.
    pub corr: Option<String>,
}

impl Response {
    pub fn new(id: Option<String>, status: Status) -> Self {
        Response {
            id,
            status,
            retryable: false,
            cached: false,
            retry_after_ms: None,
            error: None,
            payload: None,
            latency_us: 0,
            corr: None,
        }
    }

    pub fn retryable(mut self, after_ms: Option<u64>) -> Self {
        self.retryable = true;
        self.retry_after_ms = after_ms;
        self
    }

    pub fn with_error(mut self, e: impl Into<String>) -> Self {
        self.error = Some(e.into());
        self
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{\"id\":");
        match &self.id {
            Some(id) => s.push_str(&format!("\"{}\"", escape(id))),
            None => s.push_str("null"),
        }
        s.push_str(&format!(
            ",\"status\":\"{}\",\"retryable\":{},\"cached\":{}",
            self.status.as_str(),
            self.retryable,
            self.cached
        ));
        if let Some(ms) = self.retry_after_ms {
            s.push_str(&format!(",\"retry_after_ms\":{ms}"));
        }
        if let Some(e) = &self.error {
            s.push_str(&format!(",\"error\":\"{}\"", escape(e)));
        }
        if let Some(c) = &self.corr {
            s.push_str(&format!(",\"corr\":\"{}\"", escape(c)));
        }
        s.push_str(&format!(",\"latency_us\":{}", self.latency_us));
        if let Some(p) = &self.payload {
            s.push_str(&format!(",\"result\":{p}"));
        }
        s.push('}');
        s
    }
}

/// Render one completed launch as the deterministic result payload: a pure
/// function of the report and the device label (every field below is itself
/// deterministic — the simulator's cycles, counters, stall buckets, and
/// race findings are byte-stable across reruns), so cold computes and cache
/// hits of the same key must match byte-for-byte. The device is echoed so
/// a client can tell which hardware model timed the result.
pub fn report_json(rep: &KernelReport, device: &str) -> String {
    format!(
        "{{\"kernel\":\"{}\",\"device\":\"{}\",\"cycles\":{},\"time_us\":{:.3},\"blocks\":{},\
         \"profile\":{},\"stall\":{},\"race\":{}}}",
        escape(&rep.kernel_name),
        escape(device),
        rep.cycles,
        rep.time_us,
        rep.timing.blocks_simulated,
        rep.profile.total.to_json(),
        rep.timing.stall.to_json(),
        rep.race.to_json(),
    )
}

/// Render an auto-tune run: the winner's full report, the selection
/// policy's bookkeeping, plus the per-candidate outcome table (mirroring
/// `TuneEntry`).
pub fn tune_json(p: &PolicyTuneResult, device: &str) -> String {
    let r = &p.result;
    let mut s = format!(
        "{{\"winner\":{{\"np_type\":\"{}\",\"slave_size\":{},\"cycles\":{}}},\
         \"policy\":{{\"name\":\"{}\",\"evaluated\":{},\"skipped\":{},\"fell_back\":{},\
         \"predicted_rank\":{}}},\"entries\":[",
        r.best.report.np_type.map_or("?", np_type_str),
        r.best.report.slave_size,
        r.best_report.cycles,
        escape(&p.policy.label()),
        p.evaluated,
        p.skipped,
        p.fell_back,
        p.predicted_rank.map_or("null".to_string(), |n| n.to_string()),
    );
    for (i, e) in r.entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let outcome = match &e.outcome {
            TuneOutcome::Ok { cycles } => format!("\"ok\",\"cycles\":{cycles}"),
            TuneOutcome::Rejected(err) => {
                format!("\"rejected\",\"detail\":\"{}\"", escape(&err.to_string()))
            }
            TuneOutcome::Faulted(f) => {
                format!("\"faulted\",\"detail\":\"{}\"", escape(&f.to_string()))
            }
            TuneOutcome::LaunchFailed(err) => {
                // The typed failure gives clients a stable machine-readable
                // class; the rendered detail is for humans only.
                format!(
                    "\"launch_failed\",\"class\":\"{}\",\"detail\":\"{}\"",
                    err.class(),
                    escape(&err.to_string())
                )
            }
            TuneOutcome::Skipped => "\"skipped\"".to_string(),
        };
        s.push_str(&format!(
            "{{\"np_type\":\"{}\",\"slave_size\":{},\"outcome\":{outcome}}}",
            np_type_str(e.np_type),
            e.slave_size
        ));
    }
    s.push_str(&format!("],\"report\":{}}}", report_json(&r.best_report, device)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL: &str = "__global__ void k(float* out) {\n  out[threadIdx.x] = 1.0f;\n}\n";

    fn line(extra: &str) -> String {
        format!("{{\"id\":\"r1\",\"kernel\":\"{}\"{extra}}}", escape(KERNEL))
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let r = Request::from_json_line(&line("")).unwrap();
        assert_eq!(r.id, "r1");
        assert_eq!(r.mode, Mode::Transform);
        assert_eq!(r.slave_size, 4);
        assert_eq!(r.np_type, NpType::InterWarp);
        assert_eq!(r.grid, 4);
        assert_eq!(r.watchdog, None);
        assert_eq!(r.deadline_ms, None);
        assert!(r.canon.contains("__global__"));
    }

    #[test]
    fn full_request_parses_every_field() {
        let r = Request::from_json_line(&line(
            ",\"mode\":\"tune\",\"slave_size\":8,\"np_type\":\"intra\",\"grid\":16,\
             \"watchdog\":\"100000\",\"deadline_ms\":250",
        ))
        .unwrap();
        assert_eq!(r.mode, Mode::Tune);
        assert_eq!(r.slave_size, 8);
        assert_eq!(r.np_type, NpType::IntraWarp);
        assert_eq!(r.grid, 16);
        assert_eq!(r.watchdog, Some(100_000));
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn numeric_watchdog_and_none_spelling_both_work() {
        let r = Request::from_json_line(&line(",\"watchdog\":5000")).unwrap();
        assert_eq!(r.watchdog, Some(5000));
        let r = Request::from_json_line(&line(",\"watchdog\":\"none\"")).unwrap();
        assert_eq!(r.watchdog, None);
    }

    #[test]
    fn rejections_recover_the_id_when_present() {
        let (id, msg) = Request::from_json_line("{\"id\":\"r9\"}").unwrap_err();
        assert_eq!(id.as_deref(), Some("r9"));
        assert!(msg.contains("kernel"), "{msg}");

        let (id, _) = Request::from_json_line("not json at all").unwrap_err();
        assert_eq!(id, None);

        let (id, msg) =
            Request::from_json_line("{\"id\":\"r2\",\"kernel\":\"int main\"}").unwrap_err();
        assert_eq!(id.as_deref(), Some("r2"));
        assert!(msg.contains("parse"), "{msg}");
    }

    #[test]
    fn step_budget_parser_is_shared_and_strict() {
        assert_eq!(parse_step_budget("123").unwrap(), Some(123));
        assert_eq!(parse_step_budget("none").unwrap(), None);
        assert_eq!(parse_step_budget("off").unwrap(), None);
        assert!(parse_step_budget("0").is_err());
        assert!(parse_step_budget("-3").is_err());
        assert!(parse_step_budget("fast").is_err());
    }

    #[test]
    fn cache_config_strings_separate_modes_but_not_deadlines() {
        let a = Request::from_json_line(&line(",\"deadline_ms\":10")).unwrap();
        let b = Request::from_json_line(&line(",\"deadline_ms\":99999")).unwrap();
        assert_eq!(a.transform_config(), b.transform_config());
        assert_eq!(a.sim_config(), b.sim_config(), "deadline never enters the key");
        let t = Request::from_json_line(&line(",\"mode\":\"tune\"")).unwrap();
        assert_ne!(a.transform_config(), t.transform_config());
    }

    #[test]
    fn device_field_defaults_resolves_and_separates_cache_keys() {
        let a = Request::from_json_line(&line("")).unwrap();
        assert_eq!(a.device, "gtx680");
        assert_eq!(a.dev.num_smx, 8);
        let b = Request::from_json_line(&line(",\"device\":\"k20c\"")).unwrap();
        assert_eq!(b.device, "k20c");
        assert_eq!(b.dev.num_smx, 13);
        assert_ne!(a.sim_config(), b.sim_config(), "device must enter the cache key");

        let (id, msg) = Request::from_json_line(&line(",\"device\":\"titan\"")).unwrap_err();
        assert_eq!(id.as_deref(), Some("r1"));
        assert!(msg.contains("unknown device 'titan'"), "{msg}");
        assert!(msg.contains("gtx680"), "rejection should list the registry: {msg}");
    }

    #[test]
    fn response_lines_are_single_line_json_and_round_trip() {
        let mut resp = Response::new(Some("r1".into()), Status::Overloaded)
            .retryable(Some(40))
            .with_error("queue full (8/8)");
        resp.latency_us = 17;
        let line = resp.to_json_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_u64), Some(40));
        assert_eq!(v.get("latency_us").and_then(Json::as_u64), Some(17));
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
    }
}
