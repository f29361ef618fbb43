//! Exploration statistics — the quantities reported in Figures 7 and 8 of
//! the paper (states explored, time, memory).

use std::fmt;
use std::time::Duration;

use p_telemetry::json::{num, obj, JsonValue};

/// Sampled per-phase attribution of exploration time, in nanoseconds.
///
/// Filled by the search kernel from a 1-in-N task sample scaled
/// back to the whole run (see `crate::phase`), so each figure is an
/// estimate of where wall-clock time went rather than an exact meter:
/// `exec` is the interpreter's machine runs (a replayed one runs no
/// interpreter), `digest` the
/// incremental fingerprint maintenance, `clone` the candidate
/// configuration derivation (arena priming) and child builds, `canon`
/// the symmetry canonicalization, and `table` the visited-set admission
/// (with the slot interning and frontier pushes it triggers). The
/// phases are laps of one clock, so no interval counts twice and their
/// sum stays below the run duration — enabled-set computation,
/// scheduling and bookkeeping are unattributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Machine execution (the interpreter's runs).
    pub exec: u64,
    /// Incremental digest/fingerprint maintenance.
    pub digest: u64,
    /// Candidate configuration cloning/priming and replayed-child builds.
    pub clone: u64,
    /// Symmetry canonicalization.
    pub canon: u64,
    /// Visited-table admission and the bookkeeping it triggers (slot
    /// interning, task paths, frontier pushes), child builds excluded.
    pub table: u64,
}

impl PhaseNanos {
    /// The phases in the fixed order positional storage uses.
    pub(crate) fn to_array(self) -> [u64; 5] {
        [self.exec, self.digest, self.clone, self.canon, self.table]
    }

    /// Inverse of [`PhaseNanos::to_array`].
    pub(crate) fn from_array([exec, digest, clone, canon, table]: [u64; 5]) -> PhaseNanos {
        PhaseNanos {
            exec,
            digest,
            clone,
            canon,
            table,
        }
    }

    /// Adds another sample's nanoseconds phase-wise.
    pub fn add(&mut self, other: &PhaseNanos) {
        self.exec += other.exec;
        self.digest += other.digest;
        self.clone += other.clone;
        self.canon += other.canon;
        self.table += other.table;
    }

    /// Total attributed nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.exec + self.digest + self.clone + self.canon + self.table
    }
}

/// Statistics of one exploration run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplorationStats {
    /// Unique global configurations visited.
    pub unique_states: usize,
    /// Unique (configuration, annotation) nodes of a delay-bounded or
    /// fault-injecting search (zero for the exhaustive one).
    pub scheduler_nodes: usize,
    /// Edges of the exploration graph, re-visits included: atomic
    /// machine runs, interpreted or replayed, and fault injections.
    pub transitions: usize,
    /// Transitions answered from the kernel's slot-transition memo, not
    /// the interpreter (DESIGN.md §15); per process, like `canon_calls`.
    pub replayed_runs: usize,
    /// Replayed transitions whose child the interpreter made again
    /// because the worker's slot interner lacked one of its slots: it
    /// swept it under `--mem-limit`, or never met it (another worker
    /// interned it, or the run resumed from a checkpoint). Per process,
    /// like `replayed_runs`.
    pub rebuilt_runs: usize,
    /// Fault injections among those transitions.
    pub fault_transitions: usize,
    /// Deepest path (in atomic runs) reached from the initial state.
    pub max_depth: usize,
    /// Wall-clock exploration time.
    pub duration: Duration,
    /// Total bytes of canonical state encodings stored — the analog of the
    /// memory column in Figure 8.
    pub stored_bytes: usize,
    /// Bytes of RAM the search kernel's bookkeeping around those
    /// encodings holds at the end of the run: the visited tables'
    /// buckets and side tables and the cold runs' blooms and fences,
    /// computed from capacities (not the liveness graph). Zero for the
    /// random walk, which does not run on the kernel.
    pub index_bytes: usize,
    /// Bytes of RAM the hash-consed machine slots hold at the end of the
    /// run: every worker's interned states with their buffers, the
    /// workers' intern tables and the shared set of slot digests,
    /// computed from capacities as `index_bytes` is. Zero for the random
    /// walk.
    pub slot_bytes: usize,
    /// True if a bound (states, depth, delays) cut the exploration short.
    pub truncated: bool,
    /// Longest input queue observed in any visited configuration — a
    /// flooding diagnostic (the ⊕ rule bounds per-payload duplicates, not
    /// distinct payloads).
    pub max_queue_seen: usize,
    /// Visited configurations with no enabled machine (the system is
    /// quiescent there).
    pub quiescent_states: usize,
    /// Quiescent configurations that still hold undelivered events (every
    /// pending event is deferred) — potential lost-work states, the
    /// safety-level shadow of the second liveness property.
    pub stuck_states: usize,
    /// Transitions whose successor was already in the visited set — the
    /// dedup hit count. `dedup_hits / transitions` is the share of
    /// exploration effort spent re-deriving known states.
    pub dedup_hits: usize,
    /// Machine runs skipped by sleep-set POR (counted per skipped
    /// enabled machine at a state, zero with POR off).
    pub sleep_pruned: usize,
    /// Successors merged with a *symmetric* (id-permuted) visited state
    /// rather than an identical one — the extra dedup the canonical
    /// fingerprint buys (zero with symmetry reduction off).
    pub symmetry_merges: usize,
    /// Canonicalizations run: successors that neither their parent's pin
    /// nor the worker's bounded concrete → canonical memo settled (zero
    /// with symmetry reduction off). Like `phases` it describes this
    /// process and is not carried through a checkpoint.
    pub canon_calls: usize,
    /// Candidate renumberings those canonicalizations digested; one per
    /// call unless a configuration had a tangled remainder to enumerate
    /// (see [`p_semantics::canonical_digest_counted`]).
    pub canon_candidates: usize,
    /// Replayed successors keyed by their concrete digest because their
    /// parent's pin settles their renumbering ([`p_semantics::canonical_pin`]):
    /// no memo probe, no build, no canonicalization. Per process, like
    /// `canon_calls`.
    pub canon_pinned: usize,
    /// Fingerprints resident in the disk-spilled cold tier at the end of
    /// the run (zero without `--mem-limit`). `unique_states` already
    /// includes these — this counts where they live, so the hot-tier
    /// share is `unique_states - spilled_states` and `stored_bytes`
    /// honestly reports RAM only.
    pub spilled_states: usize,
    /// Bytes written to spill files over the run (visited runs, merges
    /// included). An I/O-activity counter: it describes this process, so
    /// a resumed run reports its own spill traffic.
    pub spill_bytes: u64,
    /// Visited lookups answered from the cold tier.
    pub cold_hits: u64,
    /// Visited lookups that got past the hot tier and asked the cold one.
    /// This and the two counters below describe this process, like
    /// `spill_bytes`, and repeat exactly at one worker.
    pub cold_lookups: u64,
    /// Runs those lookups searched, their bloom having said maybe.
    pub cold_run_probes: u64,
    /// Positional reads issued against spill files: one per run searched
    /// within its key range.
    pub cold_reads: u64,
    /// Sampled per-phase time attribution (all zero for strategies that
    /// do not meter their hot loop).
    pub phases: PhaseNanos,
}

/// How many counters [`ExplorationStats::sums_mut`] yields.
pub(crate) const SUMS: usize = 12;

impl ExplorationStats {
    /// The counters that add up across workers, in a fixed order: the
    /// search kernel keeps one atomic per entry (`engine::SharedCounters`).
    /// The maxima, the phases and the counts the visited table owns are
    /// not among them.
    pub(crate) fn sums_mut(&mut self) -> [&mut usize; SUMS] {
        [
            &mut self.transitions,
            &mut self.replayed_runs,
            &mut self.rebuilt_runs,
            &mut self.fault_transitions,
            &mut self.dedup_hits,
            &mut self.sleep_pruned,
            &mut self.quiescent_states,
            &mut self.stuck_states,
            &mut self.symmetry_merges,
            &mut self.canon_calls,
            &mut self.canon_candidates,
            &mut self.canon_pinned,
        ]
    }

    /// The run's counters as one JSON object: the counters of the
    /// `exploration` object of `p verify --profile` and of a
    /// `BENCH_checker.json` row. Times are in seconds; `states_per_sec`
    /// and `bytes_per_state` are derived here. The diagnostics
    /// `max_queue_seen`, `quiescent_states`, `stuck_states` and
    /// `truncated` are left out.
    pub fn to_json(&self) -> JsonValue {
        let n = |v: usize| num(v as f64);
        let secs = |nanos: u64| num(nanos as f64 / 1e9);
        let bytes_per_state = if self.unique_states > 0 {
            self.stored_bytes as f64 / self.unique_states as f64
        } else {
            0.0
        };
        obj(vec![
            ("states", n(self.unique_states)),
            ("transitions", n(self.transitions)),
            ("replayed_runs", n(self.replayed_runs)),
            ("rebuilt_runs", n(self.rebuilt_runs)),
            ("scheduler_nodes", n(self.scheduler_nodes)),
            ("fault_transitions", n(self.fault_transitions)),
            ("seconds", num(self.duration.as_secs_f64())),
            ("states_per_sec", num(self.states_per_second())),
            ("stored_bytes", n(self.stored_bytes)),
            ("index_bytes", n(self.index_bytes)),
            ("slot_bytes", n(self.slot_bytes)),
            ("bytes_per_state", num(bytes_per_state)),
            ("max_depth", n(self.max_depth)),
            ("dedup_hits", n(self.dedup_hits)),
            ("sleep_pruned", n(self.sleep_pruned)),
            ("symmetry_merges", n(self.symmetry_merges)),
            ("canon_calls", n(self.canon_calls)),
            ("canon_candidates", n(self.canon_candidates)),
            ("canon_pinned", n(self.canon_pinned)),
            ("spilled_states", n(self.spilled_states)),
            ("spill_bytes", num(self.spill_bytes as f64)),
            ("cold_hits", num(self.cold_hits as f64)),
            ("cold_lookups", num(self.cold_lookups as f64)),
            ("cold_run_probes", num(self.cold_run_probes as f64)),
            ("cold_reads", num(self.cold_reads as f64)),
            ("exec_seconds", secs(self.phases.exec)),
            ("digest_seconds", secs(self.phases.digest)),
            ("clone_seconds", secs(self.phases.clone)),
            ("canon_seconds", secs(self.phases.canon)),
            ("table_seconds", secs(self.phases.table)),
        ])
    }

    /// Approximate memory in mebibytes.
    pub fn stored_mib(&self) -> f64 {
        self.stored_bytes as f64 / (1024.0 * 1024.0)
    }

    /// States visited per second.
    pub fn states_per_second(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.unique_states as f64 / secs
        }
    }
}

impl fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth {}, {:.2?}, {:.2} MiB",
            self.unique_states,
            self.transitions,
            self.max_depth,
            self.duration,
            self.stored_mib(),
        )?;
        if self.index_bytes > 0 {
            let index_mib = self.index_bytes as f64 / (1024.0 * 1024.0);
            write!(f, " states + {index_mib:.2} MiB index")?;
        }
        if self.truncated {
            write!(f, " (truncated)")?;
        }
        if self.spilled_states > 0 {
            write!(f, ", {} spilled", self.spilled_states)?;
        }
        if self.phases.total() > 0 {
            let ms = |n: u64| n as f64 / 1e6;
            write!(
                f,
                " [exec {:.0}ms, digest {:.0}ms, clone {:.0}ms, canon {:.0}ms, table {:.0}ms]",
                ms(self.phases.exec),
                ms(self.phases.digest),
                ms(self.phases.clone),
                ms(self.phases.canon),
                ms(self.phases.table),
            )?;
        }
        if self.replayed_runs > 0 {
            let share = 100.0 * self.replayed_runs as f64 / self.transitions as f64;
            write!(f, ", {share:.1} % replayed")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_counts() {
        let s = ExplorationStats {
            unique_states: 10,
            scheduler_nodes: 0,
            transitions: 20,
            replayed_runs: 0,
            rebuilt_runs: 0,
            fault_transitions: 0,
            max_depth: 5,
            duration: Duration::from_millis(3),
            stored_bytes: 2048,
            truncated: true,
            max_queue_seen: 4,
            quiescent_states: 1,
            stuck_states: 0,
            dedup_hits: 6,
            sleep_pruned: 2,
            symmetry_merges: 0,
            canon_calls: 0,
            canon_candidates: 0,
            canon_pinned: 0,
            spilled_states: 0,
            spill_bytes: 0,
            cold_hits: 0,
            cold_lookups: 0,
            cold_run_probes: 0,
            cold_reads: 0,
            phases: PhaseNanos::default(),
            index_bytes: 0,
            slot_bytes: 0,
        };
        let text = s.to_string();
        assert!(text.contains("10 states"));
        assert!(text.contains("0.00 MiB (truncated)"), "{text}");
        assert!(!text.contains("spilled"), "{text}");
        let indexed = ExplorationStats {
            index_bytes: 3 << 20,
            ..s.clone()
        };
        let text = indexed.to_string();
        assert!(
            text.contains("0.00 MiB states + 3.00 MiB index (truncated)"),
            "{text}"
        );
        let spilling = ExplorationStats {
            spilled_states: 7,
            ..s
        };
        assert!(spilling.to_string().ends_with(", 7 spilled"));
        let replayed = ExplorationStats {
            replayed_runs: 19,
            ..spilling
        };
        assert!(replayed
            .to_string()
            .ends_with(", 7 spilled, 95.0 % replayed"));
    }

    #[test]
    fn rates_handle_zero_duration() {
        let s = ExplorationStats::default();
        assert_eq!(s.states_per_second(), 0.0);
        assert_eq!(s.stored_mib(), 0.0);
        let json = s.to_json();
        for derived in ["states_per_sec", "bytes_per_state"] {
            assert_eq!(json.get(derived).and_then(JsonValue::as_f64), Some(0.0));
        }
    }
}
