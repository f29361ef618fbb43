//! The benchmark files' schemas.
//!
//! `BENCH_checker.json` is a [`BenchReport`]: rows of the exploration
//! schema, which `p_core::exploration_row` builds for `perf_report` and
//! for `p verify --profile` alike, kept here as JSON objects. The CI
//! `telemetry_gate` reads them back to compare throughput.
//! `BENCH_runtime.json` is a [`RuntimeBenchReport`].

use crate::json::{num, obj, str as jstr, JsonValue};

/// A benchmark report: schema wrapper over a list of exploration rows.
///
/// This is the exact on-disk shape of `BENCH_checker.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// One row per (program, mode) measurement, each a JSON object with
    /// at least `name`, `states` and `seconds`.
    pub programs: Vec<JsonValue>,
}

impl BenchReport {
    /// Serializes the report (pretty, for committing to the repo).
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("schema", jstr("p-bench-v2")),
            ("programs", JsonValue::Arr(self.programs.clone())),
        ])
    }

    /// Parses a report; tolerates the v1 layout (no `schema`/`mode`).
    /// Rows without a `name` are skipped.
    pub fn from_json(value: &JsonValue) -> Option<BenchReport> {
        let rows = value.get("programs")?.as_array()?;
        let programs = rows
            .iter()
            .filter(|row| row.get("name").and_then(JsonValue::as_str).is_some())
            .cloned()
            .collect();
        Some(BenchReport { programs })
    }

    /// Median `states / seconds` across rows whose `mode` is `mode` (a
    /// v1 row, which has none, counts as `"exhaustive"`; every row if
    /// `mode` is `None`). Returns `None` with no matching rows.
    pub fn median_states_per_sec(&self, mode: Option<&str>) -> Option<f64> {
        let mut rates: Vec<f64> = self
            .programs
            .iter()
            .filter(|row| {
                let tag = row.get("mode").and_then(JsonValue::as_str);
                mode.is_none_or(|m| tag.unwrap_or("exhaustive") == m)
            })
            .filter_map(|row| {
                let states = row.get("states")?.as_f64()?;
                Some(states / row.get("seconds")?.as_f64()?)
            })
            .filter(|r| r.is_finite() && *r > 0.0)
            .collect();
        if rates.is_empty() {
            return None;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(rates[rates.len() / 2])
    }
}

/// One measurement of the sharded runtime executor: a (workload,
/// machine-count, shard-count) cell of `BENCH_runtime.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeBenchRow {
    /// Workload tag: `"fan_out"` or `"ping_ring"`.
    pub workload: String,
    /// Machines hosted across the shards.
    pub machines: u64,
    /// Worker shards.
    pub shards: u64,
    /// Events injected from outside the executor.
    pub injections: u64,
    /// Machine runs executed by the shard runtimes during the timed
    /// window: each injection, every in-program cascade hop it
    /// triggered, and the resume runs the causal work stack schedules
    /// after a yielding send.
    pub events: u64,
    /// Wall-clock seconds from first injection to drained shutdown.
    pub seconds: f64,
    /// p50 injection-to-completion latency in nanoseconds (like p99, to
    /// the resolution of the executor's log2 histogram: the upper bound
    /// of a power-of-two bucket).
    pub p50_latency_ns: u64,
    /// p99 injection-to-completion latency in nanoseconds.
    pub p99_latency_ns: u64,
    /// Ready-queue batches stolen across shards during the run.
    pub steals: u64,
    /// Mailbox batches drained during the run.
    pub batches: u64,
    /// High-water mark over per-machine mailbox depths.
    pub max_mailbox_depth: u64,
}

impl RuntimeBenchRow {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.events as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Serializes to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("workload", jstr(&self.workload)),
            ("machines", num(self.machines as f64)),
            ("shards", num(self.shards as f64)),
            ("injections", num(self.injections as f64)),
            ("events", num(self.events as f64)),
            ("seconds", num(self.seconds)),
            ("events_per_sec", num(self.events_per_sec())),
            ("p50_latency_ns", num(self.p50_latency_ns as f64)),
            ("p99_latency_ns", num(self.p99_latency_ns as f64)),
            ("steals", num(self.steals as f64)),
            ("batches", num(self.batches as f64)),
            ("max_mailbox_depth", num(self.max_mailbox_depth as f64)),
        ])
    }

    /// Deserializes from a JSON object produced by [`Self::to_json`].
    /// The derived `events_per_sec` field is recomputed, not trusted.
    pub fn from_json(value: &JsonValue) -> Option<RuntimeBenchRow> {
        let field = |k: &str| value.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        Some(RuntimeBenchRow {
            workload: value.get("workload")?.as_str()?.to_owned(),
            machines: value.get("machines")?.as_u64()?,
            shards: value.get("shards")?.as_u64()?.max(1),
            injections: field("injections"),
            events: value.get("events")?.as_u64()?,
            seconds: value.get("seconds")?.as_f64()?,
            p50_latency_ns: field("p50_latency_ns"),
            p99_latency_ns: field("p99_latency_ns"),
            steals: field("steals"),
            batches: field("batches"),
            max_mailbox_depth: field("max_mailbox_depth"),
        })
    }
}

/// The on-disk shape of `BENCH_runtime.json`: executor-throughput rows
/// under a schema tag.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeBenchReport {
    /// Cores the measuring box offered (`available_parallelism`): shard
    /// counts above it buy no parallelism. 0 in a report written before
    /// the stamp existed.
    pub nproc: u64,
    /// One row per (workload, machines, shards) measurement.
    pub rows: Vec<RuntimeBenchRow>,
}

impl RuntimeBenchReport {
    /// Serializes the report (pretty, for committing to the repo).
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("schema", jstr("p-runtime-bench-v1")),
            ("nproc", num(self.nproc as f64)),
            (
                "rows",
                JsonValue::Arr(self.rows.iter().map(RuntimeBenchRow::to_json).collect()),
            ),
        ])
    }

    /// Parses a report written by [`Self::to_json`].
    pub fn from_json(value: &JsonValue) -> Option<RuntimeBenchReport> {
        let rows = value.get("rows")?.as_array()?;
        Some(RuntimeBenchReport {
            nproc: value.get("nproc").and_then(JsonValue::as_u64).unwrap_or(0),
            rows: rows.iter().filter_map(RuntimeBenchRow::from_json).collect(),
        })
    }

    /// Peak `events_per_sec` across rows matching the workload and shard
    /// count (any machine count). `None` with no matching rows.
    pub fn peak_events_per_sec(&self, workload: &str, shards: u64) -> Option<f64> {
        self.rows
            .iter()
            .filter(|r| r.workload == workload && r.shards == shards)
            .map(RuntimeBenchRow::events_per_sec)
            .filter(|r| r.is_finite() && *r > 0.0)
            .max_by(|a, b| a.partial_cmp(b).expect("finite"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, states: u64, seconds: f64) -> JsonValue {
        obj(vec![
            ("name", jstr(name)),
            ("mode", jstr("exhaustive")),
            ("states", num(states as f64)),
            ("transitions", num(states as f64 * 3.0)),
            ("seconds", num(seconds)),
            ("passed", JsonValue::Bool(true)),
        ])
    }

    #[test]
    fn report_round_trip_and_median() {
        let report = BenchReport {
            programs: vec![row("a", 100, 1.0), row("b", 300, 1.0), row("c", 200, 1.0)],
        };
        let text = report.to_json().render_pretty();
        let back = BenchReport::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.median_states_per_sec(Some("exhaustive")), Some(200.0));
        assert_eq!(back.median_states_per_sec(Some("por")), None);
    }

    #[test]
    fn runtime_bench_round_trip_and_peak() {
        let cell = |workload: &str, shards: u64, events: u64, seconds: f64| RuntimeBenchRow {
            workload: workload.to_owned(),
            machines: 1000,
            shards,
            injections: events / 2,
            events,
            seconds,
            p50_latency_ns: 1_500,
            p99_latency_ns: 90_000,
            steals: 7,
            batches: events / 16,
            max_mailbox_depth: 64,
        };
        let report = RuntimeBenchReport {
            nproc: 2,
            rows: vec![
                cell("fan_out", 1, 100_000, 1.0),
                cell("fan_out", 4, 100_000, 0.5),
                cell("ping_ring", 4, 50_000, 1.0),
            ],
        };
        let text = report.to_json().render_pretty();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("p-runtime-bench-v1")
        );
        let back = RuntimeBenchReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.peak_events_per_sec("fan_out", 4), Some(200_000.0));
        assert_eq!(back.peak_events_per_sec("fan_out", 2), None);
    }

    #[test]
    fn tolerates_v1_rows() {
        let v1 = r#"{"programs":[{"name":"x","states":10,"transitions":20,"seconds":0.5,
            "states_per_sec":20.0,"stored_bytes":400,"bytes_per_state":40.0,"passed":true}]}"#;
        let report = BenchReport::from_json(&JsonValue::parse(v1).unwrap()).unwrap();
        assert_eq!(report.programs.len(), 1);
        assert_eq!(report.median_states_per_sec(Some("exhaustive")), Some(20.0));
        assert_eq!(report.median_states_per_sec(None), Some(20.0));
    }
}
