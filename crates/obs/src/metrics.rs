//! Metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Names are dot-separated (`sched.predict_cache.lookups`). Everything
//! outside the [`PROFILE_PREFIX`] namespace must be a pure function of
//! the run's logical inputs — that is what lets
//! [`MetricsRegistry::snapshot_deterministic`] participate in the
//! bit-identical-replay property test. Values outside that contract
//! (e.g. the predict-cache hit/miss split) go under `profile.`.
//!
//! Histogram bucketing is platform-independent by construction: bucket
//! boundaries are caller-supplied `f64` constants, assignment is a pure
//! `v <= bound` scan, and non-finite observations land in the overflow
//! bucket without touching `sum` (unit-tested in this module).

use parking_lot::Mutex;
use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// Metric-name prefix for values outside the replay contract,
/// excluded from [`MetricsRegistry::snapshot_deterministic`].
pub const PROFILE_PREFIX: &str = "profile.";

/// A fixed-boundary histogram. Buckets are `(-inf, b0]`, `(b0, b1]`,
/// ..., `(b_last, +inf)`; the final slot is the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Histogram with the given upper bucket bounds (must be finite and
    /// strictly increasing).
    pub(crate) fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly increasing");
        }
        assert!(bounds.iter().all(|b| b.is_finite()), "histogram bounds must be finite");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0, sum: 0.0 }
    }

    /// Index of the bucket `v` falls into. NaN and +inf land in the
    /// overflow bucket; -inf lands in the first.
    pub(crate) fn bucket_for(&self, v: f64) -> usize {
        // The predicate holds for `v > b` *and* for incomparable (NaN)
        // values, sending NaN past every bound into the overflow bucket.
        self.bounds.partition_point(|b| {
            matches!(v.partial_cmp(b), Some(std::cmp::Ordering::Greater) | None)
        })
    }

    /// Record one observation. Non-finite values count but do not
    /// contribute to `sum`.
    pub(crate) fn observe(&mut self, v: f64) {
        let idx = self.bucket_for(v);
        self.counts[idx] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("type".to_string(), Value::String("histogram".to_string())),
            (
                "bounds".to_string(),
                Value::Array(self.bounds.iter().map(|b| Value::Number(Number::F(*b))).collect()),
            ),
            (
                "counts".to_string(),
                Value::Array(self.counts.iter().map(|c| Value::Number(Number::U(*c))).collect()),
            ),
            ("count".to_string(), Value::Number(Number::U(self.count))),
            ("sum".to_string(), Value::Number(Number::F(self.sum))),
        ])
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic unsigned counter.
    Counter(u64),
    /// Last-write-wins float.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl Metric {
    fn to_value(&self) -> Value {
        match self {
            Metric::Counter(n) => Value::Object(vec![
                ("type".to_string(), Value::String("counter".to_string())),
                ("value".to_string(), Value::Number(Number::U(*n))),
            ]),
            Metric::Gauge(g) => Value::Object(vec![
                ("type".to_string(), Value::String("gauge".to_string())),
                ("value".to_string(), Value::Number(Number::F(*g))),
            ]),
            Metric::Histogram(h) => h.to_value(),
        }
    }
}

/// Thread-safe registry of named metrics.
///
/// Intended granularity is run-level: a handful of updates per scheduled
/// task or fault event, not per inner-loop iteration — so one mutex over
/// a `BTreeMap` is plenty and keeps snapshots naturally name-sorted.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter, creating it at zero first.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut m = self.inner.lock();
        match m.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Set a gauge.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut m = self.inner.lock();
        match m.entry(name.to_string()).or_insert(Metric::Gauge(v)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Record an observation into a fixed-bucket histogram, creating it
    /// with `bounds` on first use (later calls ignore `bounds`).
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        let mut m = self.inner.lock();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.observe(v),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Current counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.inner.lock().get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.inner.lock().get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().keys().cloned().collect()
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { entries: self.inner.lock().clone() }
    }

    /// Snapshot excluding the `profile.` namespace — the subset that
    /// must be bit-identical across replays of the same scenario.
    pub fn snapshot_deterministic(&self) -> MetricsSnapshot {
        let entries = self
            .inner
            .lock()
            .iter()
            .filter(|(k, _)| !k.starts_with(PROFILE_PREFIX))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        MetricsSnapshot { entries }
    }
}

/// An immutable, serialisable copy of a registry's contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate name-sorted entries.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.entries.iter()
    }

    /// JSON object keyed by metric name (name-sorted, so byte-stable
    /// for equal contents).
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(self.entries.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }

    /// Compact JSON string (byte-stable for equal contents).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("snapshot serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let r = MetricsRegistry::new();
        r.counter_add("a.hits", 1);
        r.counter_add("a.hits", 4);
        r.gauge_set("a.rate", 0.8);
        r.gauge_set("a.rate", 0.9);
        r.observe("a.lat", &[1.0, 2.0], 0.5);
        r.observe("a.lat", &[1.0, 2.0], 1.5);
        r.observe("a.lat", &[1.0, 2.0], 9.0);
        assert_eq!(r.counter("a.hits"), 5);
        assert_eq!(r.gauge("a.rate"), Some(0.9));
        let Some(Metric::Histogram(h)) = r.snapshot().get("a.lat").cloned() else {
            panic!("a.lat is a histogram");
        };
        assert_eq!(
            serde_json::to_string(&h.to_value()).unwrap(),
            "{\"type\":\"histogram\",\"bounds\":[1,2],\"counts\":[1,1,1],\"count\":3,\"sum\":11}"
        );
    }

    /// Bucket assignment must not depend on platform float quirks:
    /// exact boundary values, negative zero, infinities, and NaN all
    /// have a defined bucket, and the serialised form is byte-stable.
    #[test]
    fn histogram_bucketing_is_platform_independent() {
        let mut h = Histogram::new(&[0.0, 1.0, 10.0]);
        assert_eq!(h.bucket_for(-5.0), 0);
        assert_eq!(h.bucket_for(-0.0), 0, "-0.0 <= 0.0 must hold");
        assert_eq!(h.bucket_for(0.0), 0, "boundary is inclusive");
        assert_eq!(h.bucket_for(1.0), 1);
        assert_eq!(h.bucket_for(1.0000000000000002), 2, "next f64 after bound overflows it");
        assert_eq!(h.bucket_for(10.0), 2);
        assert_eq!(h.bucket_for(10.5), 3);
        assert_eq!(h.bucket_for(f64::NEG_INFINITY), 0);
        assert_eq!(h.bucket_for(f64::INFINITY), 3);
        assert_eq!(h.bucket_for(f64::NAN), 3, "NaN lands in overflow");
        for v in [-0.0, 0.0, 1.0, 10.0, 10.5, f64::NAN, f64::INFINITY] {
            h.observe(v);
        }
        // Non-finite observations count but stay out of `sum`.
        let json = serde_json::to_string(&h.to_value()).unwrap();
        assert_eq!(
            json,
            "{\"type\":\"histogram\",\"bounds\":[0,1,10],\"counts\":[2,1,1,3],\
             \"count\":7,\"sum\":21.5}"
        );
    }

    #[test]
    fn deterministic_snapshot_excludes_profile_namespace() {
        let r = MetricsRegistry::new();
        r.counter_add("sched.tasks_placed", 1);
        r.gauge_set("profile.sched.host_selection_ms", 12.3);
        let full = r.snapshot();
        let det = r.snapshot_deterministic();
        assert_eq!(full.len(), 2);
        assert_eq!(det.len(), 1);
        assert!(det.get("profile.sched.host_selection_ms").is_none());
        assert!(det.get("sched.tasks_placed").is_some());
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.gauge_set("x", 1.0);
        r.counter_add("x", 1);
    }

    #[test]
    fn snapshot_serialisation_is_name_sorted_and_stable() {
        let r = MetricsRegistry::new();
        r.gauge_set("b", 2.5);
        r.counter_add("a", 7);
        let s = r.snapshot();
        assert_eq!(
            s.to_json_string(),
            "{\"a\":{\"type\":\"counter\",\"value\":7},\"b\":{\"type\":\"gauge\",\"value\":2.5}}"
        );
        assert_eq!(s, r.snapshot());
    }
}
