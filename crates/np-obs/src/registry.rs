//! A unified metrics registry: named counters, gauges, and nearest-rank
//! histograms behind cheap cloneable handles.
//!
//! `serve::metrics`, the serve caches, and the tuner candidate tallies all
//! register here, so the whole stack has **one** snapshot format:
//! a single-line, key-sorted `np-obs-registry-v1` JSON document that is
//! byte-identical across reruns of a deterministic workload.
//!
//! ## Determinism convention
//!
//! Metric *values* are deterministic whenever the workload is (counters
//! count logical events, not wall time). The only intrinsically
//! non-deterministic instruments are wall-clock histograms; by convention
//! their name's final dot-segment starts with `wall_` (e.g.
//! `serve.wall_latency_us`), and `snapshot_json(strip=true)` omits them —
//! that stripped snapshot is what the `obs-determinism` CI gate diffs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;

/// A monotone event counter. Clone is cheap (`Arc`); bumps are lock-free.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level that can move both ways (queue depth, live workers).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registered histogram handle (short mutex around a sample push).
#[derive(Clone, Debug)]
pub struct Hist(Arc<Mutex<Histogram>>);

impl Hist {
    pub fn record(&self, v: u64) {
        self.0.lock().unwrap().record(v);
    }

    pub fn snapshot(&self) -> crate::hist::HistSnapshot {
        self.0.lock().unwrap().snapshot()
    }
}

#[derive(Default)]
struct RegInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Hist>>,
}

/// The registry itself. Clone shares the underlying maps.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Registry{..}")
    }
}

/// True when a metric name marks itself non-deterministic: its final
/// dot-segment starts with `wall_`.
pub fn is_wall_metric(name: &str) -> bool {
    name.rsplit('.').next().is_some_and(|seg| seg.starts_with("wall_"))
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create a counter. The same name always returns a handle to
    /// the same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.counters.lock().unwrap().entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.gauges.lock().unwrap().entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Hist {
        self.inner
            .hists
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Hist(Arc::new(Mutex::new(Histogram::new()))))
            .clone()
    }

    /// One-line, key-sorted `np-obs-registry-v1` snapshot. With
    /// `strip=true`, metrics named by the `wall_` convention are omitted,
    /// making the document a pure function of the workload.
    pub fn snapshot_json(&self, strip: bool) -> String {
        let mut s = String::from("{\"schema\":\"np-obs-registry-v1\",\"counters\":{");
        let counters = self.inner.counters.lock().unwrap();
        let mut first = true;
        for (name, c) in counters.iter() {
            if strip && is_wall_metric(name) {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("{}:{}", crate::json::quote(name), c.get()));
        }
        drop(counters);
        s.push_str("},\"gauges\":{");
        let gauges = self.inner.gauges.lock().unwrap();
        let mut first = true;
        for (name, g) in gauges.iter() {
            if strip && is_wall_metric(name) {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("{}:{}", crate::json::quote(name), g.get()));
        }
        drop(gauges);
        s.push_str("},\"histograms\":{");
        let hists = self.inner.hists.lock().unwrap();
        let mut first = true;
        for (name, h) in hists.iter() {
            if strip && is_wall_metric(name) {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{}:{}",
                crate::json::quote(name),
                h.snapshot().to_json()
            ));
        }
        drop(hists);
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_one_cell() {
        let r = Registry::new();
        let a = r.counter("tuner.candidates.ok");
        let b = r.counter("tuner.candidates.ok");
        a.bump();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn snapshot_is_key_sorted_and_single_line() {
        let r = Registry::new();
        r.counter("z.last").bump();
        r.counter("a.first").add(5);
        r.gauge("queue.depth").set(-2);
        r.histogram("cycles").record(10);
        let doc = r.snapshot_json(false);
        assert_eq!(doc.lines().count(), 1);
        let a = doc.find("\"a.first\":5").unwrap();
        let z = doc.find("\"z.last\":1").unwrap();
        assert!(a < z, "{doc}");
        assert!(doc.contains("\"queue.depth\":-2"), "{doc}");
        assert!(doc.contains("\"cycles\":{\"count\":1,\"min\":10,\"max\":10,\"p50\":10,\"p99\":10}"), "{doc}");
        assert!(doc.starts_with("{\"schema\":\"np-obs-registry-v1\""), "{doc}");
    }

    #[test]
    fn strip_omits_wall_metrics_only() {
        let r = Registry::new();
        r.counter("serve.submitted").bump();
        r.histogram("serve.wall_latency_us").record(123);
        r.histogram("serve.queue_depth").record(4);
        let full = r.snapshot_json(false);
        assert!(full.contains("wall_latency_us"), "{full}");
        let stripped = r.snapshot_json(true);
        assert!(!stripped.contains("wall_latency_us"), "{stripped}");
        assert!(stripped.contains("\"serve.submitted\":1"), "{stripped}");
        assert!(stripped.contains("\"serve.queue_depth\""), "{stripped}");
    }

    #[test]
    fn wall_convention_matches_final_segment_only() {
        assert!(is_wall_metric("serve.wall_latency_us"));
        assert!(is_wall_metric("wall_total_us"));
        assert!(!is_wall_metric("serve.wallpaper_count.total"));
        assert!(!is_wall_metric("serve.submitted"));
    }
}
