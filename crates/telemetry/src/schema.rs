//! The shared exploration-metrics schema.
//!
//! One struct, three consumers: `p verify --profile` embeds it in the
//! profile JSON, `crates/bench`'s `perf_report` writes `BENCH_checker.json`
//! rows from it, and the CI `telemetry_gate` parses those rows back to
//! compare throughput. Keeping them on one schema is what lets the
//! overhead gate diff a fresh run against the committed benchmark file.

use crate::json::{num, obj, str as jstr, JsonValue};

/// Final metrics for one exploration run of one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplorationMetrics {
    /// Program name (corpus key or file stem).
    pub name: String,
    /// Exploration mode tag: `"exhaustive"`, `"por"`, `"parallel"`, ...
    pub mode: String,
    /// The scheduler the search kernel ran: `"exhaustive"`, `"delay"`
    /// or `"faults"`.
    pub strategy: String,
    /// The delay bound or the fault budget (zero for `"exhaustive"`).
    pub bound: u64,
    /// Unique states admitted.
    pub states: u64,
    /// Transitions taken: machine runs, interpreted or replayed, and
    /// fault injections.
    pub transitions: u64,
    /// Transitions answered from the kernel's slot-transition memo
    /// instead of the interpreter (per process, like `canon_calls`).
    pub replayed_runs: u64,
    /// Unique (configuration, annotation) nodes of a delay-bounded or
    /// fault-injecting search (zero for `"exhaustive"`).
    pub scheduler_nodes: u64,
    /// Fault injections among the transitions.
    pub fault_transitions: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Bytes retained in the visited table.
    pub stored_bytes: u64,
    /// Bytes of RAM the search's bookkeeping around those states held
    /// at the end of the run (visited buckets, resident edge records,
    /// overflow scripts).
    pub index_bytes: u64,
    /// Deepest configuration reached.
    pub max_depth: u64,
    /// Transitions that re-reached a visited state.
    pub dedup_hits: u64,
    /// Transitions pruned by sleep-set POR.
    pub sleep_pruned: u64,
    /// Successors merged with a symmetric (id-permuted) visited state.
    pub symmetry_merges: u64,
    /// Canonicalizations run under symmetry reduction: successors that
    /// neither their parent's pin nor the memo settled.
    pub canon_calls: u64,
    /// Candidate renumberings those canonicalizations digested
    /// (`canon_candidates / canon_calls` is 1 unless tangled
    /// configurations had to be enumerated).
    pub canon_candidates: u64,
    /// Replayed successors keyed by their concrete digest through their
    /// parent's pin, with no canonicalization.
    pub canon_pinned: u64,
    /// Worker count used (1 = sequential).
    pub workers: u64,
    /// Visited fingerprints resident in the disk-spilled cold tier at
    /// the end of the run (zero without a memory limit).
    pub spilled_states: u64,
    /// Bytes written to spill files over the run.
    pub spill_bytes: u64,
    /// Visited/parent lookups answered from the cold tier.
    pub cold_hits: u64,
    /// Visited lookups that missed the hot tier and asked the cold one
    /// (zero without a memory limit, like the two below).
    pub cold_lookups: u64,
    /// Runs those lookups searched because the run's bloom filter said
    /// maybe; `cold_run_probes / cold_hits` is the runs a hit costs.
    pub cold_run_probes: u64,
    /// Positional reads issued against spill files (at most one per run
    /// searched, one per parent-edge read): the cold tier's system calls.
    pub cold_reads: u64,
    /// Whether the safety verdict was "no counterexample".
    pub passed: bool,
    /// Whether the state space was fully explored (no bound hit).
    pub complete: bool,
    /// Sampled seconds attributed to machine execution (the
    /// interpreter's runs). Zero for engines that do not meter phases.
    pub exec_seconds: f64,
    /// Sampled seconds attributed to digest/fingerprint maintenance.
    pub digest_seconds: f64,
    /// Sampled seconds attributed to candidate configuration cloning.
    pub clone_seconds: f64,
    /// Sampled seconds attributed to symmetry canonicalization.
    pub canon_seconds: f64,
    /// Sampled seconds attributed to visited-table/parent-map admission.
    pub table_seconds: f64,
}

impl ExplorationMetrics {
    /// States per second.
    pub fn states_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.states as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Average retained bytes per unique state.
    pub fn bytes_per_state(&self) -> f64 {
        if self.states > 0 {
            self.stored_bytes as f64 / self.states as f64
        } else {
            0.0
        }
    }

    /// Serializes to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("name", jstr(&self.name)),
            ("mode", jstr(&self.mode)),
            ("strategy", jstr(&self.strategy)),
            ("bound", num(self.bound as f64)),
            ("states", num(self.states as f64)),
            ("transitions", num(self.transitions as f64)),
            ("replayed_runs", num(self.replayed_runs as f64)),
            ("scheduler_nodes", num(self.scheduler_nodes as f64)),
            ("fault_transitions", num(self.fault_transitions as f64)),
            ("seconds", num(self.seconds)),
            ("states_per_sec", num(self.states_per_sec())),
            ("stored_bytes", num(self.stored_bytes as f64)),
            ("index_bytes", num(self.index_bytes as f64)),
            ("bytes_per_state", num(self.bytes_per_state())),
            ("max_depth", num(self.max_depth as f64)),
            ("dedup_hits", num(self.dedup_hits as f64)),
            ("sleep_pruned", num(self.sleep_pruned as f64)),
            ("symmetry_merges", num(self.symmetry_merges as f64)),
            ("canon_calls", num(self.canon_calls as f64)),
            ("canon_candidates", num(self.canon_candidates as f64)),
            ("canon_pinned", num(self.canon_pinned as f64)),
            ("workers", num(self.workers as f64)),
            ("spilled_states", num(self.spilled_states as f64)),
            ("spill_bytes", num(self.spill_bytes as f64)),
            ("cold_hits", num(self.cold_hits as f64)),
            ("cold_lookups", num(self.cold_lookups as f64)),
            ("cold_run_probes", num(self.cold_run_probes as f64)),
            ("cold_reads", num(self.cold_reads as f64)),
            ("passed", JsonValue::Bool(self.passed)),
            ("complete", JsonValue::Bool(self.complete)),
            ("exec_seconds", num(self.exec_seconds)),
            ("digest_seconds", num(self.digest_seconds)),
            ("clone_seconds", num(self.clone_seconds)),
            ("canon_seconds", num(self.canon_seconds)),
            ("table_seconds", num(self.table_seconds)),
        ])
    }

    /// Deserializes from a JSON object produced by [`Self::to_json`].
    ///
    /// Derived fields (`states_per_sec`, `bytes_per_state`) are
    /// recomputed, not trusted. Missing optional fields default to
    /// zero so older `BENCH_checker.json` rows still parse.
    pub fn from_json(value: &JsonValue) -> Option<ExplorationMetrics> {
        let field = |k: &str| value.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let secs = |k: &str| value.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let tag = |k: &str| {
            value
                .get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or("exhaustive")
        };
        Some(ExplorationMetrics {
            name: value.get("name")?.as_str()?.to_owned(),
            mode: tag("mode").to_owned(),
            strategy: tag("strategy").to_owned(),
            bound: field("bound"),
            states: value.get("states")?.as_u64()?,
            transitions: value.get("transitions")?.as_u64()?,
            replayed_runs: field("replayed_runs"),
            scheduler_nodes: field("scheduler_nodes"),
            fault_transitions: field("fault_transitions"),
            seconds: value.get("seconds")?.as_f64()?,
            stored_bytes: field("stored_bytes"),
            index_bytes: field("index_bytes"),
            max_depth: field("max_depth"),
            dedup_hits: field("dedup_hits"),
            sleep_pruned: field("sleep_pruned"),
            symmetry_merges: field("symmetry_merges"),
            canon_calls: field("canon_calls"),
            canon_candidates: field("canon_candidates"),
            canon_pinned: field("canon_pinned"),
            workers: field("workers").max(1),
            spilled_states: field("spilled_states"),
            spill_bytes: field("spill_bytes"),
            cold_hits: field("cold_hits"),
            cold_lookups: field("cold_lookups"),
            cold_run_probes: field("cold_run_probes"),
            cold_reads: field("cold_reads"),
            passed: value
                .get("passed")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true),
            complete: value
                .get("complete")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true),
            exec_seconds: secs("exec_seconds"),
            digest_seconds: secs("digest_seconds"),
            clone_seconds: secs("clone_seconds"),
            canon_seconds: secs("canon_seconds"),
            table_seconds: secs("table_seconds"),
        })
    }
}

/// A benchmark report: schema wrapper over a list of metrics rows.
///
/// This is the exact on-disk shape of `BENCH_checker.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// One row per (program, mode) measurement.
    pub programs: Vec<ExplorationMetrics>,
}

impl BenchReport {
    /// Serializes the report (pretty, for committing to the repo).
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("schema", jstr("p-bench-v2")),
            (
                "programs",
                JsonValue::Arr(
                    self.programs
                        .iter()
                        .map(ExplorationMetrics::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a report; tolerates the v1 layout (no `schema`/`mode`).
    pub fn from_json(value: &JsonValue) -> Option<BenchReport> {
        let rows = value.get("programs")?.as_array()?;
        let programs = rows
            .iter()
            .filter_map(ExplorationMetrics::from_json)
            .collect();
        Some(BenchReport { programs })
    }

    /// Median `states_per_sec` across rows matching `mode` (all rows if
    /// `mode` is `None`). Returns `None` with no matching rows.
    pub fn median_states_per_sec(&self, mode: Option<&str>) -> Option<f64> {
        let mut rates: Vec<f64> = self
            .programs
            .iter()
            .filter(|r| mode.is_none_or(|m| r.mode == m))
            .map(ExplorationMetrics::states_per_sec)
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

    fn row(name: &str, states: u64, seconds: f64) -> ExplorationMetrics {
        ExplorationMetrics {
            name: name.to_owned(),
            mode: "exhaustive".to_owned(),
            strategy: "delay".to_owned(),
            bound: 2,
            states,
            transitions: states * 3,
            replayed_runs: states * 2,
            scheduler_nodes: states * 2,
            fault_transitions: 1,
            seconds,
            stored_bytes: states * 40,
            index_bytes: states * 41,
            max_depth: 12,
            dedup_hits: states,
            sleep_pruned: 0,
            symmetry_merges: 0,
            canon_calls: 3,
            canon_candidates: 4,
            canon_pinned: 5,
            workers: 1,
            spilled_states: 0,
            spill_bytes: 0,
            cold_hits: 0,
            cold_lookups: 0,
            cold_run_probes: 0,
            cold_reads: 0,
            passed: true,
            complete: true,
            exec_seconds: seconds * 0.25,
            digest_seconds: seconds * 0.125,
            clone_seconds: seconds * 0.125,
            canon_seconds: 0.0,
            table_seconds: seconds * 0.25,
        }
    }

    #[test]
    fn metrics_round_trip() {
        let m = row("german3", 46657, 0.04);
        let back = ExplorationMetrics::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
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
        assert_eq!(report.programs[0].mode, "exhaustive");
        assert_eq!(report.programs[0].workers, 1);
        assert!((report.programs[0].states_per_sec() - 20.0).abs() < 1e-9);
    }
}
