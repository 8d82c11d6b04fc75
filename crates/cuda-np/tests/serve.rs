//! Integration tests for `cuda_np::serve`: the crash-isolated batch
//! compile/sim service behind `npcc serve`.
//!
//! Each test stands up a real [`Server`] (worker pool, bounded queue,
//! checksummed cache) and drives it through one failure mode — overload
//! shedding, queue-expired deadlines, panic quarantine, cache corruption —
//! plus a short seeded chaos soak exercising all of them at once. Chaos
//! rates are per-hazard, so a test can arm exactly the hazard it is about
//! (e.g. `panic_one_in: 1` panics every job) and leave the rest off.

use cuda_np::serve::{soak, ChaosConfig, RetryPolicy, ServeConfig, Server, SoakConfig, Status};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

/// Figure-2-shaped TMV kernel: pragma loop, 32-thread block, terminates in
/// a couple thousand simulated cycles at the default synthetic scale.
const TMV: &str = "
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
    format!("{{\"id\":\"{id}\",\"kernel\":\"{}\"{extra}}}", np_obs::json::escape(TMV))
}

/// A chaos config with every hazard off; tests arm one at a time.
fn no_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        delay_one_in: 0,
        delay_max_ms: 0,
        panic_one_in: 0,
        fault_one_in: 0,
        corrupt_one_in: 0,
    }
}

#[test]
fn overload_sheds_with_typed_retryable_responses() {
    // One worker that sleeps on every job, a queue of one: a rapid burst
    // must shed most of its jobs with `overloaded`, never block or drop.
    let srv = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        chaos: Some(ChaosConfig { delay_one_in: 1, delay_max_ms: 30, ..no_chaos(5) }),
        ..Default::default()
    });
    let (tx, rx) = channel();
    const BURST: usize = 10;
    for i in 0..BURST {
        srv.submit(&line(&format!("b{i}"), ""), &tx);
    }
    let responses: Vec<_> = (0..BURST).map(|_| rx.recv().expect("one response per submit")).collect();
    assert!(rx.try_recv().is_err(), "no duplicate responses");

    let shed: Vec<_> =
        responses.iter().filter(|r| r.status == Status::Overloaded).collect();
    assert!(!shed.is_empty(), "a burst of {BURST} into a queue of 1 must shed");
    for r in &shed {
        assert!(r.retryable, "overload is transient");
        assert!(r.retry_after_ms.is_some(), "overload carries a backoff hint");
    }
    let end = srv.shutdown();
    assert_eq!(end.snapshot.shed_overloaded, shed.len() as u64);
    assert_eq!(end.snapshot.submitted, BURST as u64);
    assert_eq!(end.snapshot.answered, BURST as u64, "exactly once each");
    assert_eq!(end.worker_panics, 0);
}

#[test]
fn zero_deadline_expires_in_the_queue() {
    let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
    let (tx, rx) = channel();
    srv.submit(&line("dead", ",\"deadline_ms\":0"), &tx);
    let resp = rx.recv().unwrap();
    assert_eq!(resp.status, Status::Deadline, "{:?}", resp.error);
    assert!(resp.retryable, "a deadline miss is worth one more try");
    assert_eq!(srv.shutdown().snapshot.deadline_exceeded, 1);
}

#[test]
fn panicking_kernel_is_quarantined_after_threshold() {
    // Chaos panics every job; the same kernel strikes out after two and is
    // then rejected at admission without ever reaching a worker.
    let srv = Server::start(ServeConfig {
        workers: 1,
        quarantine_threshold: 2,
        chaos: Some(ChaosConfig { panic_one_in: 1, ..no_chaos(9) }),
        ..Default::default()
    });
    let (tx, rx) = channel();

    srv.submit(&line("p1", ""), &tx);
    let first = rx.recv().unwrap();
    assert_eq!(first.status, Status::Panicked);
    assert!(first.retryable, "first strike: could be environmental");

    srv.submit(&line("p2", ""), &tx);
    let second = rx.recv().unwrap();
    assert_eq!(second.status, Status::Panicked);
    assert!(!second.retryable, "second strike: poison, stop retrying");

    srv.submit(&line("p3", ""), &tx);
    let third = rx.recv().unwrap();
    assert_eq!(third.status, Status::Quarantined, "{:?}", third.error);
    assert!(!third.retryable);

    let end = srv.shutdown();
    assert_eq!(end.snapshot.panicked, 2);
    assert_eq!(end.snapshot.quarantined_rejects, 1);
    assert_eq!(end.worker_panics, 0, "every panic was caught");
}

#[test]
fn corrupted_cache_entry_is_evicted_and_recomputed() {
    // Chaos flips a byte of a cached entry (without fixing the checksum)
    // after every job. The next identical request must detect the damage,
    // evict, recompute — and still produce a byte-identical payload.
    let srv = Server::start(ServeConfig {
        workers: 1,
        chaos: Some(ChaosConfig { corrupt_one_in: 1, ..no_chaos(3) }),
        ..Default::default()
    });
    let (tx, rx) = channel();

    srv.submit(&line("c1", ""), &tx);
    let cold = rx.recv().unwrap();
    assert_eq!(cold.status, Status::Ok, "{:?}", cold.error);
    assert!(!cold.cached);

    srv.submit(&line("c2", ""), &tx);
    let redo = rx.recv().unwrap();
    assert_eq!(redo.status, Status::Ok, "{:?}", redo.error);
    assert!(!redo.cached, "corrupt entry must not be served as a hit");
    assert_eq!(cold.payload, redo.payload, "recompute is byte-identical");

    let end = srv.shutdown();
    assert_eq!(end.snapshot.cache_hits, 0);
    assert!(end.snapshot.cache_corrupt_evicted >= 1);
    assert!(end.snapshot.chaos_corruptions >= 1);
}

#[test]
fn clean_repeat_requests_hit_the_cache() {
    let srv = Server::start(ServeConfig { workers: 1, ..Default::default() });
    let (tx, rx) = channel();
    srv.submit(&line("h1", ""), &tx);
    let cold = rx.recv().unwrap();
    srv.submit(&line("h2", ""), &tx);
    let warm = rx.recv().unwrap();
    assert_eq!((cold.status, warm.status), (Status::Ok, Status::Ok));
    assert!(warm.cached);
    assert_eq!(cold.payload, warm.payload);
    // A different transform config misses: the key covers the config.
    srv.submit(&line("h3", ",\"slave_size\":2"), &tx);
    let other = rx.recv().unwrap();
    assert_eq!(other.status, Status::Ok, "{:?}", other.error);
    assert!(!other.cached, "different slave_size is a different key");
    assert_eq!(srv.shutdown().snapshot.cache_hits, 1);
}

#[test]
fn drain_answers_every_accepted_job_exactly_once() {
    // Submit a burst, then immediately shut down: every submission already
    // answered or still queued must still get exactly one terminal
    // response — accepted jobs drain, they are not dropped.
    let srv = Arc::new(Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        chaos: Some(ChaosConfig { delay_one_in: 2, delay_max_ms: 10, ..no_chaos(11) }),
        ..Default::default()
    }));
    let (tx, rx) = channel();
    const N: usize = 12;
    for i in 0..N {
        srv.submit(&line(&format!("d{i}"), ""), &tx);
    }
    let end = srv.shutdown();
    drop(tx);
    let mut ids: Vec<String> = rx.iter().map(|r| r.id.unwrap()).collect();
    ids.sort();
    let mut want: Vec<String> = (0..N).map(|i| format!("d{i}")).collect();
    want.sort();
    assert_eq!(ids, want, "exactly one response per submission, none lost");
    assert_eq!(end.snapshot.answered, N as u64);
    assert_eq!(end.worker_panics, 0);
}

#[test]
fn short_chaos_soak_holds_the_invariants() {
    // The full chaos mix for about a second: delays, panics, forced sim
    // faults, cache corruption, plus overload shedding from more clients
    // than queue slots. The soak's own gate checks exactly-once delivery,
    // byte-identical ok payloads, and zero escaped worker panics.
    let srv = Arc::new(Server::start(ServeConfig {
        workers: 2,
        queue_cap: 4,
        chaos: Some(ChaosConfig::standard(42)),
        ..Default::default()
    }));
    let report = soak(
        Arc::clone(&srv),
        &SoakConfig {
            seed: 42,
            clients: 4,
            duration: Duration::from_millis(900),
            retry: RetryPolicy::default(),
        },
    );
    assert!(report.passed(), "soak failed: {}", report.summary());
    assert!(report.requests > 0);
    let snap = report.snapshot.as_ref().unwrap();
    assert_eq!(snap.submitted, report.submissions, "server saw every submission");
    assert!(report.cache_index.contains("np-serve-cache-index-v1"));
}
