//! Lightweight pipeline telemetry.
//!
//! Every stage of the RealConfig pipeline (dataflow engine, EC model,
//! policy checker) records what it does into a shared [`Telemetry`]
//! registry: monotonic [`Counter`]s, point-in-time [`Gauge`]s, and
//! log2-bucketed [`Histogram`]s. Updates are single atomic operations,
//! so instrumentation stays cheap enough to leave on in benchmarks;
//! the registry itself is keyed by name and lock-protected, so hot
//! paths should obtain a handle once and reuse it.
//!
//! [`Telemetry::snapshot`] produces a [`MetricsSnapshot`] — a plain,
//! serde-serializable view of every metric, sorted by name — which the
//! verifier embeds in its reports and the CLI/bench harnesses dump as
//! JSON.
//!
//! # Naming convention
//!
//! Metric names are dot-separated, stage-prefixed:
//! `dataflow.work.join`, `apkeep.ecs`, `policy.affected_ecs`. The
//! registry imposes nothing; the convention keeps snapshots greppable.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

/// A monotonically increasing count. Cheap to clone (shared atomic).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value. Cheap to clone (shared atomic).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` holds values whose bit length is
/// `i` (0 itself lands in bucket 0), so bucket 64 holds `u64::MAX`-ish.
const BUCKETS: usize = 65;

struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log2-bucketed distribution of `u64` samples. Records exact count,
/// sum, min and max; percentiles are approximate (bucket upper bounds).
/// Cheap to clone (shared atomics).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()) as usize;
        c.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let count = c.count.load(Ordering::Relaxed);
        let sum = c.sum.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            (c.min.load(Ordering::Relaxed), c.max.load(Ordering::Relaxed))
        };
        let buckets: Vec<u64> = c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        // A bucket's upper bound: bit length `i` means values < 2^i.
        let upper = |i: usize| -> u64 {
            if i == 0 {
                0
            } else {
                (1u64 << i.min(63)).saturating_sub(1).max(1)
            }
        };
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil() as u64;
            let mut seen = 0;
            for (i, &b) in buckets.iter().enumerate() {
                seen += b;
                if seen >= rank {
                    return upper(i).min(max).max(min);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
        }
    }
}

/// Serializable view of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    /// Approximate (log2-bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Serializable view of every metric in a registry at one instant.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A shared metric registry. Cloning shares the underlying metrics;
/// every pipeline stage holds a clone of the verifier's registry.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("telemetry lock");
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Counter(Arc::new(AtomicU64::new(0)));
        map.insert(name.to_string(), c.clone());
        c
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("telemetry lock");
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Gauge(Arc::new(AtomicI64::new(0)));
        map.insert(name.to_string(), g.clone());
        g
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("telemetry lock");
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Histogram(Arc::new(HistogramCore::new()));
        map.insert(name.to_string(), h.clone());
        h
    }

    /// A serializable snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_shares() {
        let t = Telemetry::new();
        let a = t.counter("x");
        let b = t.counter("x");
        a.add(3);
        b.incr();
        assert_eq!(t.snapshot().counters["x"], 4);
    }

    #[test]
    fn gauge_sets_and_adjusts() {
        let t = Telemetry::new();
        let g = t.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(t.snapshot().gauges["depth"], 7);
    }

    #[test]
    fn histogram_stats() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let s = &t.snapshot().histograms["lat"];
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 1 && s.p50 <= 100);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let t = Telemetry::new();
        t.histogram("empty");
        let s = &t.snapshot().histograms["empty"];
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t2.counter("shared").add(5);
        assert_eq!(t.snapshot().counters["shared"], 5);
    }

    #[test]
    fn snapshot_serializes() {
        let t = Telemetry::new();
        t.counter("a").add(1);
        t.gauge("b").set(-2);
        t.histogram("c").record(7);
        let json = serde_json::to_string(&t.snapshot()).unwrap();
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"b\":-2"));
        assert!(json.contains("\"count\":1"));
    }
}
