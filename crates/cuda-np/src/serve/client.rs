//! The built-in client driver: retry-with-backoff submission, and the
//! seeded chaos soak that proves the service's two headline invariants
//! under fire —
//!
//! 1. **exactly-once**: every submission receives exactly one terminal
//!    response (`lost == 0`), and no worker dies to an uncaught panic;
//! 2. **byte-identity**: every `ok` payload for a given request identity
//!    is byte-identical, whether it came from a cold compute or a cache
//!    hit (`byte_mismatches == 0`) — corruption chaos must be absorbed by
//!    the checksummed cache, never served.

use super::proto::{Response, Status};
use super::server::Server;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client-side retry schedule for `retryable` responses: exponential
/// backoff from `base_ms`, capped at `cap_ms`, never below the server's
/// `retry_after_ms` hint.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    pub max_attempts: u32,
    pub base_ms: u64,
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, base_ms: 5, cap_ms: 100 }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt + 1` (0-based), honoring `hint_ms`.
    pub fn backoff_ms(&self, attempt: u32, hint_ms: Option<u64>) -> u64 {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(16)).min(self.cap_ms);
        exp.max(hint_ms.unwrap_or(0))
    }
}

/// How one logical request (possibly several attempts) ended.
#[derive(Debug)]
pub enum Delivery {
    /// A terminal response, after `attempts` submissions.
    Done { resp: Response, attempts: u32 },
    /// Still retryable when the attempt budget ran out; the last response.
    GaveUp { last: Response, attempts: u32 },
    /// A submission got no response at all — the exactly-once invariant
    /// broke (or the server wedged past the grace timeout).
    Lost { attempts: u32 },
}

/// Submit `line` until it reaches a terminal, non-retryable outcome or the
/// policy's attempt budget runs out. Each attempt is a fresh submission
/// (the server treats it as a new job; exactly-once is per submission).
pub fn submit_with_retry(server: &Server, line: &str, policy: &RetryPolicy) -> Delivery {
    let (tx, rx) = channel();
    let mut attempt = 0u32;
    loop {
        server.submit(line, &tx);
        attempt += 1;
        let resp = match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(r) => r,
            Err(_) => return Delivery::Lost { attempts: attempt },
        };
        if !resp.retryable {
            return Delivery::Done { resp, attempts: attempt };
        }
        if attempt >= policy.max_attempts {
            return Delivery::GaveUp { last: resp, attempts: attempt };
        }
        server.note_retry();
        std::thread::sleep(Duration::from_millis(
            policy.backoff_ms(attempt - 1, resp.retry_after_ms),
        ));
    }
}

/// Soak parameters. The request stream is a pure function of `seed`, so a
/// failing soak replays exactly from its seed.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    pub seed: u64,
    pub clients: usize,
    pub duration: Duration,
    pub retry: RetryPolicy,
}

/// Aggregated soak outcome. `passed()` is the CI gate.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Logical requests driven to an outcome.
    pub requests: u64,
    /// Raw submissions (requests plus retries).
    pub submissions: u64,
    pub ok: u64,
    pub ok_cached: u64,
    pub gave_up: u64,
    /// Submissions that received no response: must be 0.
    pub lost: u64,
    /// `ok` payloads that differed from an earlier payload of the same
    /// request identity: must be 0.
    pub byte_mismatches: u64,
    /// Terminal statuses by wire name, for the soak log.
    pub statuses: Vec<(String, u64)>,
    /// Workers killed by uncaught panics: must be 0.
    pub worker_panics: usize,
    /// The server's final counters (latency percentiles, hit/shed/retry).
    pub snapshot: Option<super::metrics::Snapshot>,
    /// The flushed cache index document.
    pub cache_index: String,
}

impl SoakReport {
    pub fn passed(&self) -> bool {
        self.lost == 0 && self.byte_mismatches == 0 && self.worker_panics == 0 && self.ok > 0
    }

    pub fn summary(&self) -> String {
        let statuses: Vec<String> =
            self.statuses.iter().map(|(s, n)| format!("{s}={n}")).collect();
        format!(
            "soak: {} requests / {} submissions, ok={} (cached {}), gave_up={}, \
             lost={}, byte_mismatches={}, worker_panics={} [{}]",
            self.requests,
            self.submissions,
            self.ok,
            self.ok_cached,
            self.gave_up,
            self.lost,
            self.byte_mismatches,
            self.worker_panics,
            statuses.join(" ")
        )
    }
}

/// One synthetic kernel per variant index: Figure-2 TMV with a
/// variant-specific accumulator seed, so variants hash to distinct cache
/// keys but all terminate quickly at test scale.
pub fn variant_kernel(v: u64) -> String {
    format!(
        "\n// blockDim = (32, 1, 1)\n\
         __global__ void tmv{v}(float* a, float* b, float* c, int w, int h) {{\n\
         \x20 float sum = {v}.0f;\n\
         \x20 int tx = threadIdx.x + blockIdx.x * blockDim.x;\n\
         \x20 #pragma np parallel for reduction(+:sum)\n\
         \x20 for (int i = 0; i < h; i++) {{\n\
         \x20   sum += a[i * w + tx] * b[i];\n\
         \x20 }}\n\
         \x20 c[tx] = sum;\n\
         }}\n"
    )
}

/// One seeded request: returns `(identity, jsonl_line)`. The identity
/// captures everything that determines the result payload — any two `ok`
/// payloads with the same identity must be byte-identical.
fn gen_request(rng: &mut SmallRng, client: usize, n: u64) -> (String, String) {
    // Variants roll forward in generations of four: dense enough for
    // plenty of cache hits within a generation, but chaos-quarantined
    // kernels age out instead of starving the whole soak of clean work.
    let v = (n / 48) * 4 + rng.gen_range(0..4);
    let slave = [2u64, 4][rng.gen_range(0..2) as usize];
    let grid = [2u64, 4][rng.gen_range(0..2) as usize];
    let tune = rng.gen_bool(0.08);
    // A dead deadline now and then exercises the queue-expiry path.
    let deadline = if rng.gen_bool(0.05) { Some(0u64) } else { None };
    let identity = if tune {
        format!("v{v};tune;grid={grid}")
    } else {
        format!("v{v};transform;slave={slave};grid={grid}")
    };
    let mut line = format!(
        "{{\"id\":\"c{client}-{n}\",\"kernel\":\"{}\",\"grid\":{grid}",
        np_obs::json::escape(&variant_kernel(v))
    );
    if tune {
        line.push_str(",\"mode\":\"tune\"");
    } else {
        line.push_str(&format!(",\"slave_size\":{slave}"));
    }
    if let Some(d) = deadline {
        line.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    line.push('}');
    (identity, line)
}

/// Run the chaos soak: `clients` seeded request streams hammer `server`
/// for `duration`, with retries, while chaos (armed in the server's
/// config) delays, panics, faults, and corrupts. Drains the server and
/// folds its shutdown report in.
pub fn soak(server: Arc<Server>, cfg: &SoakConfig) -> SoakReport {
    // identity -> first ok payload seen; later payloads must match it.
    let canon: Arc<Mutex<HashMap<String, String>>> = Arc::new(Mutex::new(HashMap::new()));
    let report = Arc::new(Mutex::new(SoakReport::default()));
    let start = Instant::now();

    let threads: Vec<_> = (0..cfg.clients.max(1))
        .map(|c| {
            let server = Arc::clone(&server);
            let canon = Arc::clone(&canon);
            let report = Arc::clone(&report);
            let policy = cfg.retry.clone();
            let duration = cfg.duration;
            let mut rng = SmallRng::seed_from_u64(
                cfg.seed ^ (c as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            );
            std::thread::spawn(move || {
                let mut n = 0u64;
                while start.elapsed() < duration {
                    let (identity, line) = gen_request(&mut rng, c, n);
                    n += 1;
                    let outcome = submit_with_retry(&server, &line, &policy);
                    let mut rep = report.lock().unwrap();
                    rep.requests += 1;
                    match outcome {
                        Delivery::Done { resp, attempts } => {
                            rep.submissions += attempts as u64;
                            let name = resp.status.as_str().to_string();
                            match rep.statuses.iter_mut().find(|(s, _)| *s == name) {
                                Some((_, cnt)) => *cnt += 1,
                                None => rep.statuses.push((name, 1)),
                            }
                            if resp.status == Status::Ok {
                                rep.ok += 1;
                                if resp.cached {
                                    rep.ok_cached += 1;
                                }
                                let payload = resp.payload.unwrap_or_default();
                                let mut seen = canon.lock().unwrap();
                                match seen.get(&identity) {
                                    Some(first) if *first != payload => {
                                        rep.byte_mismatches += 1
                                    }
                                    Some(_) => {}
                                    None => {
                                        seen.insert(identity, payload);
                                    }
                                }
                            }
                        }
                        Delivery::GaveUp { attempts, .. } => {
                            rep.submissions += attempts as u64;
                            rep.gave_up += 1;
                        }
                        Delivery::Lost { attempts } => {
                            rep.submissions += attempts as u64;
                            rep.lost += 1;
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }

    let end = server.shutdown();
    let mut rep = std::mem::take(&mut *report.lock().unwrap());
    rep.worker_panics = end.worker_panics;
    rep.snapshot = Some(end.snapshot);
    rep.cache_index = end.cache_index;
    rep.statuses.sort();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_honors_hints() {
        let p = RetryPolicy { max_attempts: 5, base_ms: 5, cap_ms: 40 };
        assert_eq!(p.backoff_ms(0, None), 5);
        assert_eq!(p.backoff_ms(1, None), 10);
        assert_eq!(p.backoff_ms(2, None), 20);
        assert_eq!(p.backoff_ms(3, None), 40);
        assert_eq!(p.backoff_ms(10, None), 40, "capped");
        assert_eq!(p.backoff_ms(0, Some(33)), 33, "server hint wins when larger");
    }

    #[test]
    fn variant_kernels_parse_and_differ() {
        for v in 0..4 {
            let k = np_kernel_ir::parse_kernel(&variant_kernel(v)).expect("variant parses");
            assert!(k.has_pragma_loops());
        }
        assert_ne!(variant_kernel(0), variant_kernel(1));
    }

    #[test]
    fn request_stream_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for n in 0..50 {
            assert_eq!(gen_request(&mut a, 1, n), gen_request(&mut b, 1, n));
        }
    }
}
