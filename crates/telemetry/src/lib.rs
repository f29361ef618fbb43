//! Zero-cost-when-disabled tracing, metrics, and exploration profiling
//! for the P toolchain.
//!
//! # Design
//!
//! The central type is [`Telemetry`], a cheap clonable handle that is
//! either *disabled* (a `None` inside — every hook is one predictable
//! branch and returns immediately) or *enabled* (an `Arc` to the ring
//! recorder, a metrics registry, and an epoch clock). Instrumented code
//! holds a `Telemetry` and calls hooks unconditionally; the attribute
//! closures only run when enabled, so the disabled path allocates
//! nothing.
//!
//! Consumers that want the checker's hooks compiled out entirely
//! (overhead measurement) disable the `telemetry` cargo feature on
//! `p-checker`, which `#[cfg]`-gates its hook sites on it. This crate
//! itself is always buildable.
//!
//! Pipeline: hooks → [`RingRecorder`] → drain after quiescence →
//! [`chrome::chrome_document`] for a Chrome/Perfetto-loadable trace, and
//! [`MetricsRegistry::report`] for the compact metrics JSON. Checker
//! profiling additionally records [`ExplorationSnapshot`]s; the final
//! exploration row, the row format of `BENCH_checker.json`
//! ([`BenchReport`]), is rendered from the checker's `ExplorationStats`.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
mod metrics;
mod progress;
mod record;
mod ring;
mod schema;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use metrics::{Counter, GaugeCell, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use progress::Progress;
pub use record::{AttrValue, Attrs, ExplorationSnapshot, Record, RecordKind};
pub use ring::RingRecorder;
pub use schema::{BenchReport, RuntimeBenchReport, RuntimeBenchRow};

struct Inner {
    ring: Arc<RingRecorder>,
    metrics: MetricsRegistry,
    epoch: Instant,
    progress: Option<Progress>,
    /// Elapsed-micros timestamp of the last recorded snapshot, used to
    /// throttle periodic snapshot recording.
    last_snapshot: AtomicU64,
    snapshot_interval_micros: u64,
}

/// A handle to the telemetry pipeline.
///
/// Cloning is one `Option<Arc>` clone. A disabled handle
/// ([`Telemetry::disabled`]) makes every hook a single branch.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Telemetry {
    /// A handle whose hooks all no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Starts configuring an enabled handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder::default()
    }

    /// Whether hooks do anything. Callers building expensive attribute
    /// sets by hand should branch on this first; the closure-taking
    /// hooks do it internally.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Micros since this handle was built (0 when disabled).
    #[inline]
    pub fn elapsed_micros(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Records a point event. `attrs` is only invoked when enabled.
    #[inline]
    pub fn instant(&self, tid: u32, name: &'static str, attrs: impl FnOnce() -> Attrs) {
        if let Some(inner) = &self.inner {
            inner.ring.record(Record {
                ts_micros: inner.epoch.elapsed().as_micros() as u64,
                tid,
                kind: RecordKind::Instant {
                    name,
                    attrs: attrs(),
                },
            });
        }
    }

    /// Opens a span on track `tid`. Pair with [`Telemetry::span_end`].
    #[inline]
    pub fn span_begin(&self, tid: u32, name: &'static str, attrs: impl FnOnce() -> Attrs) {
        if let Some(inner) = &self.inner {
            inner.ring.record(Record {
                ts_micros: inner.epoch.elapsed().as_micros() as u64,
                tid,
                kind: RecordKind::SpanBegin {
                    name,
                    attrs: attrs(),
                },
            });
        }
    }

    /// Closes the most recent span on track `tid`.
    #[inline]
    pub fn span_end(&self, tid: u32, name: &'static str) {
        if let Some(inner) = &self.inner {
            inner.ring.record(Record {
                ts_micros: inner.epoch.elapsed().as_micros() as u64,
                tid,
                kind: RecordKind::SpanEnd { name },
            });
        }
    }

    /// Records a sampled value on a counter track.
    #[inline]
    pub fn gauge(&self, tid: u32, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.ring.record(Record {
                ts_micros: inner.epoch.elapsed().as_micros() as u64,
                tid,
                kind: RecordKind::Gauge { name, value },
            });
        }
    }

    /// Records an exploration snapshot if the snapshot interval has
    /// elapsed, and feeds the live progress meter. The closure only
    /// runs when a snapshot is due, so hot loops can call this every
    /// few thousand transitions at negligible cost.
    #[inline]
    pub fn maybe_snapshot(&self, tid: u32, build: impl FnOnce(u64) -> ExplorationSnapshot) {
        if let Some(inner) = &self.inner {
            let now = inner.epoch.elapsed().as_micros() as u64;
            let last = inner.last_snapshot.load(Ordering::Relaxed);
            if now < last.saturating_add(inner.snapshot_interval_micros) {
                return;
            }
            if inner
                .last_snapshot
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                return;
            }
            self.record_snapshot(tid, build(now));
        }
    }

    /// Records an exploration snapshot unconditionally (end of run).
    pub fn snapshot_now(&self, tid: u32, build: impl FnOnce(u64) -> ExplorationSnapshot) {
        if let Some(inner) = &self.inner {
            let now = inner.epoch.elapsed().as_micros() as u64;
            let snap = build(now);
            inner.ring.record(Record {
                ts_micros: now,
                tid,
                kind: RecordKind::Snapshot(snap),
            });
            if let Some(progress) = &inner.progress {
                progress.print(&snap);
            }
        }
    }

    fn record_snapshot(&self, tid: u32, snap: ExplorationSnapshot) {
        if let Some(inner) = &self.inner {
            inner.ring.record(Record {
                ts_micros: snap.elapsed_micros,
                tid,
                kind: RecordKind::Snapshot(snap),
            });
            if let Some(progress) = &inner.progress {
                progress.maybe_print(&snap);
            }
        }
    }

    /// Terminates the progress line, if one was active.
    pub fn finish_progress(&self) {
        if let Some(inner) = &self.inner {
            if let Some(progress) = &inner.progress {
                progress.finish();
            }
        }
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|inner| &inner.metrics)
    }

    /// Records count of records dropped by the ring (capacity).
    pub fn dropped_records(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.ring.dropped(),
            None => 0,
        }
    }
}

/// Configures an enabled [`Telemetry`] handle.
pub struct TelemetryBuilder {
    ring_capacity: usize,
    progress_interval: Option<Duration>,
    snapshot_interval: Duration,
}

impl Default for TelemetryBuilder {
    fn default() -> Self {
        TelemetryBuilder {
            ring_capacity: 1 << 18,
            progress_interval: None,
            snapshot_interval: Duration::from_millis(25),
        }
    }
}

impl TelemetryBuilder {
    /// Capacity of the ring recorder (records beyond it are
    /// dropped newest-first and counted). Default: 262144.
    pub fn ring(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Enables the live stderr progress line at the given interval.
    pub fn progress(mut self, interval: Duration) -> Self {
        self.progress_interval = Some(interval);
        self
    }

    /// Minimum spacing between recorded exploration snapshots.
    /// Default: 25ms.
    pub fn snapshot_interval(mut self, interval: Duration) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Builds the handle. The second value is the ring recorder to
    /// drain after the run.
    pub fn build(self) -> (Telemetry, Arc<RingRecorder>) {
        let ring = Arc::new(RingRecorder::new(self.ring_capacity));
        let telemetry = Telemetry {
            inner: Some(Arc::new(Inner {
                ring: Arc::clone(&ring),
                metrics: MetricsRegistry::default(),
                epoch: Instant::now(),
                progress: self.progress_interval.map(Progress::new),
                last_snapshot: AtomicU64::new(0),
                snapshot_interval_micros: self.snapshot_interval.as_micros().max(1) as u64,
            })),
        };
        (telemetry, ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_runs_closures() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.instant(0, "x", || unreachable!("closure must not run"));
        t.span_begin(0, "x", || unreachable!());
        t.span_end(0, "x");
        t.gauge(0, "x", 1);
        t.maybe_snapshot(0, |_| unreachable!());
        assert!(t.metrics().is_none());
        assert_eq!(t.dropped_records(), 0);
    }

    #[test]
    fn enabled_handle_records_through_the_ring() {
        let (t, ring) = Telemetry::builder().ring(16).build();
        assert!(t.enabled());
        t.span_begin(3, "run", || vec![("machine", AttrValue::from("M"))]);
        t.instant(3, "send", || vec![("event", AttrValue::from(7u64))]);
        t.span_end(3, "run");
        t.gauge(3, "queue", 2);
        t.snapshot_now(0, |elapsed| ExplorationSnapshot {
            elapsed_micros: elapsed,
            states: 1,
            ..Default::default()
        });
        let records = ring.drain();
        assert_eq!(records.len(), 5);
        assert!(matches!(
            records[0].kind,
            RecordKind::SpanBegin { name: "run", .. }
        ));
        assert!(matches!(records[4].kind, RecordKind::Snapshot(_)));
        // Timestamps are monotone within a single thread.
        assert!(records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn snapshot_throttling_skips_rapid_calls() {
        let (t, ring) = Telemetry::builder()
            .ring(64)
            .snapshot_interval(Duration::from_secs(3600))
            .build();
        let mut built = 0;
        for _ in 0..100 {
            t.maybe_snapshot(0, |elapsed| {
                built += 1;
                ExplorationSnapshot {
                    elapsed_micros: elapsed,
                    ..Default::default()
                }
            });
        }
        // Only the first call (interval measured from epoch 0 has
        // elapsed=0 ≥ 0+interval? No: 0 < 0+interval) — so none fire.
        assert_eq!(built, 0);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn metrics_registry_reachable_when_enabled() {
        let (t, _ring) = Telemetry::builder().build();
        t.metrics().unwrap().counter("c").add(5);
        let report = t.metrics().unwrap().report();
        assert_eq!(
            report
                .get("counters")
                .and_then(|c| c.get("c"))
                .and_then(json::JsonValue::as_u64),
            Some(5)
        );
    }
}
