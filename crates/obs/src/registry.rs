//! The metrics registry: named counters, gauges and duration
//! histograms.
//!
//! Handles are `Arc`-shared atomics — the increment path is a single
//! atomic RMW with no lock. The registry's mutex is taken only to
//! register a new name or to snapshot, so hot loops should resolve
//! their handles once (e.g. in a `OnceLock`-initialized struct) and
//! increment thereafter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a histogram (covers sub-µs to
/// ~584 000 years in microseconds).
pub const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    /// `buckets[i]` counts values `v` with `2^(i-1) ≤ v < 2^i` (µs);
    /// bucket 0 counts `v < 1`.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// A duration histogram over power-of-two microsecond buckets: cheap
/// to record (two atomic adds and an increment), precise enough for
/// the percentile summaries the exporters print.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records a duration in microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        let bucket = (u64::BITS - us.leading_zeros()) as usize; // 0 for us == 0
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records a duration in (fractional) milliseconds; negative and
    /// non-finite values are ignored.
    #[inline]
    pub fn record_ms(&self, ms: f64) {
        if ms.is_finite() && ms >= 0.0 {
            self.record_us((ms * 1_000.0) as u64);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values, milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.0.sum_us.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1) in
    /// milliseconds: the upper edge of the bucket containing it.
    /// `None` when empty.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let upper_us = if i >= 63 { u64::MAX } else { 1u64 << i };
                return Some(upper_us as f64 / 1_000.0);
            }
        }
        None
    }

    /// Per-bucket `(upper_edge_us, count)` pairs for non-empty buckets.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                if n == 0 {
                    None
                } else {
                    Some((if i >= 63 { u64::MAX } else { 1u64 << i }, n))
                }
            })
            .collect()
    }
}

/// A snapshot of one metric, for the exporters.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter {
        /// Metric name.
        name: String,
        /// Cumulative count.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Metric name.
        name: String,
        /// Current value.
        value: i64,
    },
    /// Histogram summary.
    Histogram {
        /// Metric name.
        name: String,
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values (ms).
        sum_ms: f64,
        /// Estimated median (ms).
        p50_ms: f64,
        /// Estimated 95th percentile (ms).
        p95_ms: f64,
        /// Cumulative `(upper_edge_us, count)` buckets (non-empty only).
        buckets: Vec<(u64, u64)>,
    },
}

impl MetricSnapshot {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. } => name,
            MetricSnapshot::Gauge { name, .. } => name,
            MetricSnapshot::Histogram { name, .. } => name,
        }
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Most code uses the process-wide
/// [`Registry::global`]; tests construct private registries.
///
/// # Example
///
/// ```
/// use obs::Registry;
///
/// let r = Registry::new();
/// let jobs = r.counter("rac_runner_jobs_total");
/// jobs.add(3);
/// assert_eq!(r.counter("rac_runner_jobs_total").get(), 3); // same handle
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Whether no metric has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.metrics.lock().unwrap().is_empty()
    }

    /// Snapshots every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(name, m)| match m {
                Metric::Counter(c) => MetricSnapshot::Counter {
                    name: name.clone(),
                    value: c.get(),
                },
                Metric::Gauge(g) => MetricSnapshot::Gauge {
                    name: name.clone(),
                    value: g.get(),
                },
                Metric::Histogram(h) => MetricSnapshot::Histogram {
                    name: name.clone(),
                    count: h.count(),
                    sum_ms: h.sum_ms(),
                    p50_ms: h.quantile_ms(0.50).unwrap_or(0.0),
                    p95_ms: h.quantile_ms(0.95).unwrap_or(0.0),
                    buckets: h.buckets(),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.counter("y").get(), 0);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("depth").get(), 7);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::default();
        assert!(h.quantile_ms(0.5).is_none());
        for _ in 0..95 {
            h.record_ms(1.0); // 1000 µs → bucket upper edge 1024 µs
        }
        for _ in 0..5 {
            h.record_ms(1_000.0); // 1 000 000 µs
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum_ms() - (95.0 + 5_000.0)).abs() < 1.0);
        let p50 = h.quantile_ms(0.5).unwrap();
        assert!((1.0..2.1).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ms(0.99).unwrap();
        assert!(p99 >= 1_000.0, "p99 = {p99}");
    }

    #[test]
    fn histogram_ignores_junk() {
        let h = Histogram::default();
        h.record_ms(f64::NAN);
        h.record_ms(f64::INFINITY);
        h.record_ms(-5.0);
        assert_eq!(h.count(), 0);
        h.record_us(0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        assert!(r.is_empty() && r.snapshot().is_empty());
        r.counter("b_counter").add(5);
        assert!(!r.is_empty());
        r.gauge("a_gauge").set(-2);
        r.histogram("c_hist").record_ms(10.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(MetricSnapshot::name).collect();
        assert_eq!(names, vec!["a_gauge", "b_counter", "c_hist"]);
        match &snap[1] {
            MetricSnapshot::Counter { value, .. } => assert_eq!(*value, 5),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_collision_panics() {
        let r = Registry::new();
        r.gauge("m");
        r.counter("m");
    }
}
