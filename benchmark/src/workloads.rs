//! The workloads and the metrics, by name. `BENCHMARK.json` at the root
//! of the repository lists the same names with their reasons and bounds;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

/// What a `verify_*` workload hands to `p verify`, with the counts its
/// report must show.
#[derive(Debug, Clone, Copy)]
pub struct VerifySpec {
    pub program: Program,
    pub por: bool,
    pub symmetry: bool,
    pub jobs: usize,
    /// `--mem-limit` as typed, and in bytes.
    pub mem_limit: Option<(&'static str, usize)>,
    pub states: usize,
    pub transitions: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// German's protocol, six clients, budget two (generated).
    German6,
    /// The switch-and-LED driver of the corpus.
    SwitchLed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deliver {
    FanOut,
    PingRing,
    OpenLoop,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Verify(VerifySpec),
    Deliver(Deliver),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const GERMAN6: VerifySpec = VerifySpec {
    program: Program::German6,
    por: false,
    symmetry: false,
    jobs: 1,
    mem_limit: None,
    states: 455_487,
    transitions: 2_217_632,
};

const SWITCH_LED: VerifySpec = VerifySpec {
    program: Program::SwitchLed,
    por: false,
    symmetry: false,
    jobs: 1,
    mem_limit: None,
    states: 180_625,
    transitions: 633_343,
};

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "verify_german6",
        kind: Kind::Verify(GERMAN6),
    },
    Workload {
        name: "verify_german6_reduced",
        kind: Kind::Verify(VerifySpec {
            por: true,
            symmetry: true,
            states: 302_253,
            transitions: 1_465_850,
            ..GERMAN6
        }),
    },
    Workload {
        name: "verify_german6_jobs2",
        kind: Kind::Verify(VerifySpec { jobs: 2, ..GERMAN6 }),
    },
    Workload {
        name: "verify_switch_led",
        kind: Kind::Verify(SWITCH_LED),
    },
    Workload {
        name: "verify_switch_led_spill",
        kind: Kind::Verify(VerifySpec {
            mem_limit: Some(("1m", 1 << 20)),
            ..SWITCH_LED
        }),
    },
    Workload {
        name: "deliver_fan_out",
        kind: Kind::Deliver(Deliver::FanOut),
    },
    Workload {
        name: "deliver_ping_ring",
        kind: Kind::Deliver(Deliver::PingRing),
    },
    Workload {
        name: "deliver_open_loop",
        kind: Kind::Deliver(Deliver::OpenLoop),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How a run's repetitions become the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Median,
    /// The fastest repetition. Whatever else runs on the box only ever
    /// adds time, in bursts that outlast a repetition, so the least
    /// disturbed repetition repeats from run to run better than the
    /// median does (on the sizing box ten runs spread by 5–24 % of their
    /// median against 7–30 %, and the open loop's p50 by 10 % against 72 %).
    Fastest,
}

impl Stat {
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Stat::Median => crate::stats::median(values),
            Stat::Fastest => values.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::Fastest => "fastest",
        }
    }
}

/// End-to-end metrics, `(name, unit, statistic over the repetitions)`.
/// Every workload reports each one.
pub const END_TO_END: &[(&str, &str, Stat)] = &[
    ("setup_s", "s", Stat::Fastest),
    ("wall_s", "s", Stat::Fastest),
    ("peak_rss_mib", "MiB", Stat::Median),
    ("p50_us", "us", Stat::Fastest),
];

/// Per-layer metrics, `(name, unit)`, layers named after the crates. A
/// workload reports 0 for a metric of a layer it does not run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.process_overhead_s", "s"),
    ("parser.parse_s", "s"),
    ("parser.source_bytes", "bytes"),
    ("typecheck.check_s", "s"),
    ("semantics.lower_s", "s"),
    ("semantics.run_ns", "ns"),
    ("semantics.clone_ns", "ns"),
    ("semantics.digest_ns", "ns"),
    ("semantics.canon_ns", "ns"),
    ("semantics.enabled_ns", "ns"),
    ("semantics.walk_steps", "count"),
    ("checker.states", "count"),
    ("checker.transitions", "count"),
    ("checker.dedup_hits", "count"),
    ("checker.sleep_pruned", "count"),
    ("checker.symmetry_merges", "count"),
    ("checker.max_depth", "count"),
    ("checker.stored_bytes", "bytes"),
    ("checker.spilled_states", "count"),
    ("checker.spill_bytes", "bytes"),
    ("checker.cold_hits", "count"),
    ("checker.search_s", "s"),
    ("checker.exec_s", "s"),
    ("checker.digest_s", "s"),
    ("checker.clone_s", "s"),
    ("checker.canon_s", "s"),
    ("checker.table_s", "s"),
    ("checker.other_s", "s"),
    ("checker.states_per_s", "1/s"),
    ("checker.useful_share", "ratio"),
    ("checker.rss_over_stored", "ratio"),
    ("checker.rss_per_state_bytes", "bytes"),
    ("checker.jobs_speedup", "ratio"),
    ("runtime.start_s", "s"),
    ("runtime.create_ns", "ns"),
    ("runtime.injection_new_ns", "ns"),
    ("runtime.inject_call_ns", "ns"),
    ("runtime.dwell_p50_us", "us"),
    ("runtime.dwell_p99_us", "us"),
    ("runtime.drain_s", "s"),
    ("runtime.add_event_ns", "ns"),
    ("runtime.exec_overhead_ns", "ns"),
    ("runtime.wrap_overhead_ns", "ns"),
    ("runtime.events_per_s", "1/s"),
    ("runtime.runs_per_injection", "ratio"),
    ("runtime.steals", "count"),
    ("runtime.batches", "count"),
    ("runtime.events_per_batch", "ratio"),
    ("runtime.steal_share", "ratio"),
    ("runtime.max_mailbox_depth", "count"),
    ("runtime.shard_imbalance", "ratio"),
    ("runtime.rss_per_machine_bytes", "bytes"),
    ("runtime.ontime_share", "ratio"),
    ("runtime.p99_us", "us"),
    ("runtime.p999_us", "us"),
    ("runtime.max_us", "us"),
    ("runtime.achieved_rate_per_s", "1/s"),
    ("runtime.backlog_end", "count"),
    ("runtime.generator_late_p99_us", "us"),
    ("runtime.generator_late_max_us", "us"),
    ("bench.trace_overhead_share", "ratio"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: `p verify` runs, or injections.
    pub attempted: u64,
    /// Operations whose result was wrong, refused, dropped or lost.
    pub failed: u64,
    /// Why, one line per failed check.
    pub complaints: Vec<String>,
    /// End-to-end metrics: one value per repetition.
    pub end_to_end: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics of a traced run.
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.end_to_end.entry(name).or_default().push(value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.insert(name, value);
    }

    /// Records a failed check against `operations` operations.
    pub fn fail(&mut self, operations: u64, complaint: String) {
        self.failed += operations.max(1);
        self.complaints.push(complaint);
    }

    /// Adds another run's operations, failures and complaints to this one.
    pub fn count(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.complaints.extend(other.complaints);
    }

    /// The value the run reports for an end-to-end metric.
    pub fn reported(&self, name: &str, stat: Stat) -> f64 {
        stat.of(self.end_to_end.get(name).map_or(&[][..], Vec::as_slice))
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.complaints.is_empty() && self.attempted > 0
    }
}
