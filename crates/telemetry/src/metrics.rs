//! Aggregating metrics: named counters and log2 histograms.
//!
//! The registry is append-only and lock-cheap: metric handles are
//! registered once (under a mutex) and then updated with relaxed
//! atomics, so hot paths never contend on the registry itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json::{num, obj, str as jstr, JsonValue};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of a
/// `u64`, plus one for zero.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2 histogram over `u64` samples.
///
/// Bucket `0` holds zero samples; bucket `b` (1..=64) holds samples
/// whose highest set bit is `b - 1`, i.e. values in `[2^(b-1), 2^b)`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket a sample falls into.
    #[inline]
    pub fn bucket_index(sample: u64) -> usize {
        (64 - sample.leading_zeros()) as usize
    }

    /// Lower bound (inclusive) of bucket `index`.
    pub fn bucket_floor(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, sample: u64) {
        self.buckets[Self::bucket_index(sample)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
    }

    /// Adds every sample of `other` to this histogram (merging per-thread
    /// or per-shard histograms into one).
    pub fn absorb(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Upper bound (exclusive floor of the next bucket) below which at
    /// least `q` (0..=1) of the samples fall — a coarse quantile.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return if i >= 64 {
                    u64::MAX
                } else {
                    Self::bucket_floor(i + 1)
                };
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(floor, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_floor(i), n))
            })
            .collect()
    }
}

/// Last-write-wins sampled value (queue depths, frontier sizes).
#[derive(Debug, Default)]
pub struct GaugeCell {
    value: AtomicU64,
    max: AtomicU64,
}

impl GaugeCell {
    /// Records the current value, tracking the maximum seen.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Most recently set value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Maximum value ever set.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// A registry of named counters, histograms, and gauges.
///
/// Handles are `Arc`s: fetch once (`counter("x")`), update lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(&'static str, Arc<Counter>)>>,
    histograms: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    gauges: Mutex<Vec<(&'static str, Arc<GaugeCell>)>>,
}

impl MetricsRegistry {
    /// Returns the counter named `name`, creating it if needed.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut counters = self.counters.lock();
        if let Some((_, c)) = counters.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        counters.push((name, Arc::clone(&c)));
        c
    }

    /// Returns the histogram named `name`, creating it if needed.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock();
        if let Some((_, h)) = histograms.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        histograms.push((name, Arc::clone(&h)));
        h
    }

    /// Returns the gauge named `name`, creating it if needed.
    pub fn gauge(&self, name: &'static str) -> Arc<GaugeCell> {
        let mut gauges = self.gauges.lock();
        if let Some((_, g)) = gauges.iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(GaugeCell::default());
        gauges.push((name, Arc::clone(&g)));
        g
    }

    /// Renders the registry as a compact JSON report:
    ///
    /// ```json
    /// {
    ///   "counters": {"runtime.events.sent": 12, ...},
    ///   "gauges": {"runtime.queue.depth": {"last": 0, "max": 3}, ...},
    ///   "histograms": {
    ///     "runtime.run.steps": {
    ///       "count": 9, "sum": 41, "mean": 4.6, "p50": 8, "p99": 16,
    ///       "buckets": [[1, 2], [4, 7]]
    ///     }, ...
    ///   }
    /// }
    /// ```
    pub fn report(&self) -> JsonValue {
        let counters = self.counters.lock();
        let mut counter_fields: Vec<(String, JsonValue)> = counters
            .iter()
            .map(|(n, c)| ((*n).to_owned(), num(c.get() as f64)))
            .collect();
        counter_fields.sort_by(|a, b| a.0.cmp(&b.0));

        let gauges = self.gauges.lock();
        let mut gauge_fields: Vec<(String, JsonValue)> = gauges
            .iter()
            .map(|(n, g)| {
                (
                    (*n).to_owned(),
                    obj(vec![
                        ("last", num(g.get() as f64)),
                        ("max", num(g.max() as f64)),
                    ]),
                )
            })
            .collect();
        gauge_fields.sort_by(|a, b| a.0.cmp(&b.0));

        let histograms = self.histograms.lock();
        let mut histogram_fields: Vec<(String, JsonValue)> = histograms
            .iter()
            .map(|(n, h)| {
                let buckets = JsonValue::Arr(
                    h.nonzero_buckets()
                        .into_iter()
                        .map(|(floor, count)| {
                            JsonValue::Arr(vec![num(floor as f64), num(count as f64)])
                        })
                        .collect(),
                );
                (
                    (*n).to_owned(),
                    obj(vec![
                        ("count", num(h.count() as f64)),
                        ("sum", num(h.sum() as f64)),
                        ("mean", num(h.mean())),
                        ("p50", num(h.quantile_bound(0.50) as f64)),
                        ("p99", num(h.quantile_bound(0.99) as f64)),
                        ("buckets", buckets),
                    ]),
                )
            })
            .collect();
        histogram_fields.sort_by(|a, b| a.0.cmp(&b.0));

        obj(vec![
            ("schema", jstr("p-metrics-v1")),
            ("counters", JsonValue::Obj(counter_fields)),
            ("gauges", JsonValue::Obj(gauge_fields)),
            ("histograms", JsonValue::Obj(histogram_fields)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(11), 1024);
    }

    #[test]
    fn histogram_aggregates() {
        let h = Histogram::default();
        for sample in [0, 1, 3, 3, 8, 1000] {
            h.observe(sample);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1015);
        assert!((h.mean() - 1015.0 / 6.0).abs() < 1e-9);
        // 4 of 6 samples are <= 3, so the p50 bound is the next bucket
        // floor above the one containing the median sample.
        assert!(h.quantile_bound(0.5) <= 4);
        assert!(h.quantile_bound(1.0) >= 1024);
        assert_eq!(h.nonzero_buckets().len(), 5);
    }

    #[test]
    fn registry_dedupes_handles_and_reports() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("a");
        let a2 = reg.counter("a");
        a.inc();
        a2.add(2);
        assert_eq!(a.get(), 3);
        reg.gauge("q").set(5);
        reg.gauge("q").set(2);
        reg.histogram("h").observe(7);
        let report = reg.report();
        assert_eq!(
            report
                .get("counters")
                .and_then(|c| c.get("a"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        let q = report.get("gauges").and_then(|g| g.get("q")).unwrap();
        assert_eq!(q.get("last").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(q.get("max").and_then(JsonValue::as_u64), Some(5));
        let h = report.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(1));
        // Round-trips through the parser.
        assert_eq!(JsonValue::parse(&report.render()).unwrap(), report);
    }
}
