//! The record model: what the ring recorder stores.
//!
//! Records are cheap to construct (names are `&'static str`, attribute
//! lists are small vecs built only when telemetry is enabled) and carry
//! everything the Chrome exporter needs: a microsecond timestamp
//! relative to the telemetry epoch, a logical thread/track id, and a
//! kind-specific payload.

/// An attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A signed integer.
    Int(i64),
    /// A short string (machine names, event names).
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(i64::from(v))
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// A named attribute list.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// A periodic summary of checker exploration progress.
///
/// Snapshots are both recorded into the trace (as counter events) and
/// used to drive the live `--progress` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorationSnapshot {
    /// Micros since the telemetry epoch when the snapshot was taken.
    pub elapsed_micros: u64,
    /// Unique states admitted so far.
    pub states: u64,
    /// Transitions executed so far.
    pub transitions: u64,
    /// Approximate frontier size (stack depth or pending queue tasks).
    pub frontier: u64,
    /// Transitions that re-reached an already-visited state.
    pub dedup_hits: u64,
    /// Transitions skipped by sleep-set POR.
    pub sleep_pruned: u64,
    /// Successors merged with a symmetric (id-permuted) visited state.
    pub symmetry_merges: u64,
    /// Deepest configuration reached so far.
    pub max_depth: u64,
    /// Worker count (1 for the sequential engine).
    pub workers: u64,
    /// Visited fingerprints resident in the disk-spilled cold tier
    /// (zero without `--mem-limit`).
    pub spilled: u64,
    /// Positional reads issued against the spill files so far.
    pub cold_reads: u64,
}

impl ExplorationSnapshot {
    /// States per second over the elapsed window.
    pub fn states_per_sec(&self) -> f64 {
        if self.elapsed_micros == 0 {
            0.0
        } else {
            self.states as f64 / (self.elapsed_micros as f64 / 1e6)
        }
    }

    /// Fraction of transitions that hit the visited table, in [0, 1].
    pub fn dedup_rate(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.transitions as f64
        }
    }
}

/// The payload of one record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// A span opened (Chrome `ph:"B"`).
    SpanBegin {
        /// Span name.
        name: &'static str,
        /// Attributes shown in the trace viewer.
        attrs: Attrs,
    },
    /// The most recently opened span on this track closed (`ph:"E"`).
    SpanEnd {
        /// Span name (matched by the viewer for sanity, not required).
        name: &'static str,
    },
    /// A point event (`ph:"i"`).
    Instant {
        /// Event name.
        name: &'static str,
        /// Attributes shown in the trace viewer.
        attrs: Attrs,
    },
    /// A sampled value (`ph:"C"`), e.g. queue depth.
    Gauge {
        /// Counter track name.
        name: &'static str,
        /// Sampled value.
        value: i64,
    },
    /// A checker exploration snapshot (exported as a counter group).
    Snapshot(ExplorationSnapshot),
}

/// One telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Micros since the telemetry epoch.
    pub ts_micros: u64,
    /// Logical track: machine id in the runtime, worker id in the
    /// checker, `0` for global events.
    pub tid: u32,
    /// Payload.
    pub kind: RecordKind,
}
