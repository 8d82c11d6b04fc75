//! # np-perfbench — the host-time benchmark of record
//!
//! One process runs one workload ([`Workload`]) for a fixed wall-clock
//! budget and reports end-to-end metrics ([`E2E_METRICS`]) or, in a
//! separate traced run of the same workload and seed, per-layer metrics
//! ([`LAYER_METRICS`]). Every operation's simulated result is checked
//! against the repository's committed expectations, so a change that
//! speeds the host up by changing simulated cycles fails here instead of
//! posting a gain.
//!
//! The benchmark only calls public API of the layers below it; per-layer
//! times come from benchmark-side timers around explicit calls
//! (parse, transform, cost model, interpretation, race checking, timing
//! engine, trace codec, tuner, serve), never from spans inside the program.

mod expect;
mod layers;
mod replay;
mod serve;
mod sweep;

use layers::Layers;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. Times and
/// counts are per pass (one pass of the workload's fixed op set; for
/// serve-mix one 50-request block), so the work-unit counts repeat exactly
/// from run to run.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("parse.self_s", "s"),
    ("parse.bytes", "B"),
    ("serve.decode_s", "s"),
    ("serve.wait_s", "s"),
    ("transform.self_s", "s"),
    ("transform.calls", "count"),
    ("costmodel.self_s", "s"),
    ("costmodel.top2_share", "fraction"),
    ("interp.self_s", "s"),
    ("interp.winst", "winst"),
    ("interp.winst_per_s", "winst/s"),
    ("racecheck.self_s", "s"),
    ("engine.self_s", "s"),
    ("engine.sim_cycles", "cycles"),
    ("engine.blocks", "blocks"),
    ("engine.blocks_per_s", "blocks/s"),
    ("capture.encode_s", "s"),
    ("capture.decode_s", "s"),
    ("capture.bytes", "B"),
    ("capture.mb_per_s", "MB/s"),
    ("workloads.args_s", "s"),
    ("tuner.wall_s", "s"),
    ("tuner.evaluated", "count"),
    ("tuner.serial_s", "s"),
    ("tuner.pool_speedup", "x"),
    ("serve.hits", "count"),
    ("serve.trace_replays", "count"),
    ("serve.misses", "count"),
    ("serve.shed", "count"),
    ("model.geomean_speedup", "x"),
    ("model.sim_cycles", "cycles"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("host.calib_ms", "ms"),
];

/// How many times each run performs its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `best_np` on the ten Table-1 kernels at test scale (gtx680).
    SweepTest,
    /// `best_np` at paper scale on eight of the Table-1 kernels (gtx680).
    TunePaper,
    /// Decode + replay of ~100 frozen captures on three devices.
    ReplayMatrix,
    /// A closed-loop request mix against an in-process serve engine.
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepTest,
        Workload::TunePaper,
        Workload::ReplayMatrix,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepTest => "sweep-test",
            Workload::TunePaper => "tune-paper",
            Workload::ReplayMatrix => "replay-matrix",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Permutes the op order (and generates the serve-mix request stream).
    /// Simulated results are identical for every seed.
    pub seed: u64,
    /// Wall-clock budget of the measured phase. Whole passes run while
    /// the next one is expected to end within it, and at least one always
    /// runs.
    pub seconds: f64,
    /// Report per-layer metrics from a decomposed run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Stop after this many passes even with budget left. Tests use it to
    /// keep runs short; the command line never sets it.
    pub max_passes: Option<u64>,
    /// Set-up repetitions ([`SETUP_REPS`] outside tests).
    pub setup_reps: usize,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            max_passes: None,
            setup_reps: SETUP_REPS,
        }
    }
}

/// One named metric value.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Ops run (measured phase; a traced run also counts its untraced
    /// reference pass).
    pub attempted: u64,
    /// Ops that errored, got a non-`ok` serve status, found a race, or
    /// disagreed with the expected simulated result.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, failure reasons.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result document:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// When the measured phase stops: before a pass that, at the mean pass
/// time so far, would end after `seconds` of wall clock (passes are never
/// cut short), or after `max_passes`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    pub seconds: f64,
    pub max_passes: Option<u64>,
}

impl Budget {
    pub const ONE_PASS: Budget = Budget {
        seconds: 0.0,
        max_passes: Some(1),
    };

    /// Whether another pass should start.
    pub fn more(&self, start: Instant, passes: u64) -> bool {
        if passes == 0 {
            return true;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + elapsed / passes as f64;
        next_end <= self.seconds && self.max_passes.is_none_or(|m| passes < m)
    }
}

/// One measured phase of a workload.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Wall time of each pass, s.
    pub pass_s: Vec<f64>,
    pub wall_s: f64,
    /// Per-op latency, milliseconds.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Measured {
    /// Book one op's outcome; a failure's reason goes into the notes
    /// (the first few only, so a systematic failure does not flood them).
    pub fn record(&mut self, ms: f64, outcome: Result<(), String>) {
        self.op_ms.push(ms);
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("op failed: {why}"));
            }
        }
    }

    pub fn passes(&self) -> u64 {
        self.pass_s.len() as u64
    }

    pub fn end_pass(&mut self, started: Instant) {
        self.pass_s.push(started.elapsed().as_secs_f64());
    }

    /// Completed ops per second at the median pass: ops per pass over the
    /// median pass wall time. Unlike ops over total wall time, a burst of
    /// host noise inside the phase moves it only if it slows most passes.
    pub fn ops_per_s(&self) -> f64 {
        let ops_per_pass = self.attempted as f64 / self.passes() as f64;
        ops_per_pass / median(&self.pass_s)
    }
}

/// A workload after set-up: it can run measured phases, plain or traced.
pub(crate) trait Bench {
    /// Run whole passes within `budget`. With `layers`, each op is split
    /// into explicit timed calls and the per-layer accumulators fill in.
    fn measure(&mut self, budget: Budget, layers: Option<&mut Layers>) -> Measured;

    /// Set-up failures (checked before any measurement), counted as
    /// failed ops.
    fn setup_failures(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Set a workload up `reps` times (the median is `setup_s`) and keep the
/// last instance.
fn set_up(cfg: &Config) -> Result<(Box<dyn Bench>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        // Tear the previous instance down outside the timed region.
        drop(bench.take());
        let t = Instant::now();
        let b: Box<dyn Bench> = match cfg.workload {
            Workload::SweepTest => {
                Box::new(sweep::Sweep::set_up(np_workloads::Scale::Test, cfg.seed)?)
            }
            Workload::TunePaper => {
                Box::new(sweep::Sweep::set_up(np_workloads::Scale::Paper, cfg.seed)?)
            }
            Workload::ReplayMatrix => Box::new(replay::Matrix::set_up(cfg.seed)?),
            Workload::ServeMix => Box::new(serve::Mix::set_up(cfg.seed)?),
        };
        times.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    Ok((bench.expect("at least one set-up ran"), times))
}

/// Run one configuration: set up, measure, check, and collect the metrics
/// of the run's kind (end-to-end, or per-layer when `cfg.trace`).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let calib_start = host_calib_ms();
    let (mut bench, setup_times) = set_up(cfg)?;
    let setup_failures = bench.setup_failures();
    let budget = Budget {
        seconds: cfg.seconds,
        max_passes: cfg.max_passes,
    };
    // A traced run first times one plain pass, the base of
    // `trace.overhead_share`.
    let plain = bench.measure(if cfg.trace { Budget::ONE_PASS } else { budget }, None);
    let mut layers = Layers::default();
    let traced = cfg.trace.then(|| bench.measure(budget, Some(&mut layers)));
    let peak_rss = peak_rss_mb();
    drop(bench);
    let calib_end = host_calib_ms();

    let mut notes: Vec<String> = setup_failures
        .iter()
        .map(|f| format!("set-up: {f}"))
        .collect();
    notes.push(format!(
        "{} CPUs available; host calibration {calib_start:.2} ms at start, {calib_end:.2} ms \
         at end",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let mut metrics = Vec::new();
    let mut attempted = plain.attempted;
    let mut failed = plain.failed + setup_failures.len() as u64;
    match traced {
        None => {
            let mut lat = plain.op_ms.clone();
            lat.sort_by(f64::total_cmp);
            let beyond = lat.len() - band(lat.len(), 0.90).end;
            notes.push(format!(
                "{} ops in {} passes over {:.3} s; {beyond} samples lie beyond the op_p90_ms band",
                lat.len(),
                plain.passes(),
                plain.wall_s
            ));
            let values = [
                median(&setup_times),
                plain.ops_per_s(),
                percentile(&lat, 0.50),
                percentile(&lat, 0.90),
                peak_rss,
            ];
            for ((name, unit), value) in E2E_METRICS.into_iter().zip(values) {
                metrics.push(Metric { name, unit, value });
            }
        }
        Some(traced) => {
            let plain_pass_s = plain.wall_s / plain.passes() as f64;
            let traced_pass_s = traced.wall_s / traced.passes() as f64;
            layers.set("trace.coverage", layers.clocked_s() / traced.wall_s);
            layers.set("trace.overhead_share", 1.0 - plain_pass_s / traced_pass_s);
            layers.set("host.calib_ms", (calib_start + calib_end) / 2.0);
            notes.push(format!(
                "traced {} passes over {:.3} s",
                traced.passes(),
                traced.wall_s
            ));
            for (name, unit) in LAYER_METRICS {
                metrics.push(Metric {
                    name,
                    unit,
                    value: layers.value(name, traced.passes()),
                });
            }
            attempted += traced.attempted;
            failed += traced.failed;
            notes.extend(traced.notes);
        }
    }
    notes.extend(plain.notes);
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Median of a sample (mean of the middle two for even counts).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Index range of the ascending samples ranked within ±5 percentile
/// points of `p` (at least one sample).
fn band(n: usize, p: f64) -> std::ops::Range<usize> {
    // The nudge keeps products like 0.55 * 100 = 55.000000000000007 on
    // their exact integer.
    let lo = (((p - 0.05) * n as f64 + 1e-9).floor() as usize).min(n.saturating_sub(1));
    let hi = (((p + 0.05) * n as f64 - 1e-9).ceil() as usize).clamp(lo + 1, n.max(1));
    lo..hi
}

/// Percentile `p` of an ascending sample, as the mean of the samples in
/// its ±5-point band. Every workload repeats a fixed set of ops whose
/// latencies form one cluster per kind of op, and a percentile at a
/// multiple of 10% falls exactly on a cluster edge, where a single order
/// statistic is the most extreme sample of one cluster; the band mean
/// straddles the edge instead.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let b = &sorted[band(sorted.len(), p)];
    b.iter().sum::<f64>() / b.len() as f64
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time of a fixed pointer chase through an 8 MiB ring, in ms: how
/// fast this host's memory answers right now, independent of the code
/// under test. (A register-only loop stays flat while neighbours' memory
/// traffic slows the workloads; memory latency moves with them.)
///
/// The ring is built from 64 KiB chunks, below glibc's mmap threshold, and
/// freed after the reading: one large block would be mmapped, and freeing
/// it would raise the allocator's mmap threshold for the rest of the run
/// and change the workload's own peak RSS.
fn host_calib_ms() -> f64 {
    const CHUNK: usize = 1 << 14;
    const ENTRIES: usize = 1 << 21;
    let mut ring: Vec<Vec<u32>> = (0..ENTRIES / CHUNK)
        .map(|c| ((c * CHUNK) as u32..((c + 1) * CHUNK) as u32).collect())
        .collect();
    // Sattolo's shuffle: a random permutation that is one single cycle.
    let mut rng = Rng::new(0x5EED);
    for i in (1..ENTRIES).rev() {
        let j = rng.below(i);
        let (a, b) = (ring[i / CHUNK][i % CHUNK], ring[j / CHUNK][j % CHUNK]);
        ring[i / CHUNK][i % CHUNK] = b;
        ring[j / CHUNK][j % CHUNK] = a;
    }
    let t = Instant::now();
    let mut at = 0usize;
    for _ in 0..1_000_000 {
        at = ring[at / CHUNK][at % CHUNK] as usize;
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

/// Small seeded generator (splitmix64) for op orders and request streams.
pub(crate) struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_average_a_band_around_the_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.5);
        assert_eq!(percentile(&v, 0.9), 9.5);
        assert_eq!(percentile(&v[..1], 0.9), 1.0);
        // Two latency clusters meeting at the median: the band straddles
        // the edge instead of returning the first cluster's extreme.
        let clusters: Vec<f64> = [1.0; 50].into_iter().chain([2.0; 50]).collect();
        assert_eq!(percentile(&clusters, 0.5), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_pass_starts_only_if_it_should_end_within_the_budget() {
        let budget = Budget {
            seconds: 10.0,
            max_passes: None,
        };
        let started = |secs| Instant::now() - std::time::Duration::from_secs(secs);
        assert!(budget.more(started(60), 0), "the first pass always runs");
        assert!(
            budget.more(started(6), 2),
            "3 s passes: the third ends at 9 s"
        );
        assert!(
            !budget.more(started(6), 1),
            "a second 6 s pass would end at 12 s"
        );
        let capped = Budget {
            max_passes: Some(2),
            ..budget
        };
        assert!(!capped.more(started(0), 2));
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let perm = |seed| {
            let mut v: Vec<usize> = (0..10).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(perm(7), perm(7));
        assert_ne!(perm(7), perm(8));
        let mut sorted = perm(7);
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn report_json_is_one_line_with_every_metric() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
            notes: vec![],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
