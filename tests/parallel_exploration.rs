//! Integration checks of the parallel exploration engine: for every
//! corpus program, `jobs = 1` and `jobs = N` must agree on the verdict,
//! the retained-state count, and (for buggy programs) produce a
//! counterexample that replays — the checker's answer is a function of
//! the program, not of the worker count.

use p_core::{corpus, CheckerOptions, Compiled, Report};

/// Every corpus program, compiled (their committed budgets keep full
/// exhaustive verification fast enough for CI).
fn verification_corpus() -> Vec<(&'static str, Compiled)> {
    corpus::all()
        .into_iter()
        .map(|(name, program)| {
            (
                name,
                Compiled::from_program(program).expect("corpus program compiles"),
            )
        })
        .collect()
}

/// The exhaustive search of `compiled` with `jobs` workers and every
/// other option at its default.
fn verify_with_jobs(compiled: &Compiled, jobs: usize) -> Report {
    compiled
        .verifier()
        .with_options(CheckerOptions {
            jobs,
            ..CheckerOptions::default()
        })
        .try_check_exhaustive()
        .unwrap()
}

#[test]
fn corpus_agrees_across_job_counts() {
    for (name, compiled) in verification_corpus() {
        let sequential = compiled.verifier().try_check_exhaustive().unwrap();
        for jobs in [2, 4] {
            let parallel = verify_with_jobs(&compiled, jobs);
            assert_eq!(
                sequential.passed(),
                parallel.passed(),
                "{name}: verdict diverged at jobs={jobs}"
            );
            assert_eq!(
                sequential.complete, parallel.complete,
                "{name}: completeness diverged at jobs={jobs}"
            );
            if sequential.complete {
                assert_eq!(
                    sequential.stats.unique_states, parallel.stats.unique_states,
                    "{name}: state count diverged at jobs={jobs}"
                );
                assert_eq!(
                    sequential.stats.transitions, parallel.stats.transitions,
                    "{name}: transition count diverged at jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn buggy_benchmarks_fail_in_parallel_with_replayable_traces() {
    for (name, _correct, buggy) in corpus::figure7_benchmarks() {
        let compiled = Compiled::from_program(buggy).expect("buggy corpus program compiles");
        let report = verify_with_jobs(&compiled, 4);
        let cx = report
            .counterexample
            .unwrap_or_else(|| panic!("{name}: seeded bug must be found in parallel"));
        assert!(
            compiled.verifier().replay(&cx).reproduced(),
            "{name}: parallel counterexample must replay deterministically"
        );
    }
}

#[test]
fn parallel_state_bound_is_respected() {
    let compiled = Compiled::from_program(corpus::german3()).unwrap();
    let options = CheckerOptions {
        max_states: 200,
        jobs: 4,
        ..CheckerOptions::default()
    };
    let report = compiled
        .verifier()
        .with_options(options)
        .try_check_exhaustive()
        .unwrap();
    assert!(report.stats.truncated);
    assert!(!report.complete);
    assert!(
        report.stats.unique_states <= 200,
        "retained {} states past the bound",
        report.stats.unique_states
    );
}

/// A buggy program whose exploration is a single chain (the frontier
/// never holds more than one configuration): there is one machine, it
/// sends only to itself, and every atomic run ends with exactly one
/// event queued, until the assert trips. Because no interleaving choice
/// exists, every worker count must explore exactly the same prefix
/// before aborting on the counterexample — so the final counters must
/// agree *exactly*, even though the parallel engine stops mid-flight.
/// This pins the worker-local counter flush: totals are built from
/// flushed deltas, and an abort path that skipped a flush would
/// undercount (or a re-merge would double-count).
///
/// (With a second machine the premise does not hold: after `new` both
/// machines are enabled, the frontier branches, and which of the
/// sibling states a second worker admits before it sees the stop flag
/// depends on thread timing. An earlier version of this program had a
/// driver machine, and failed about one run in six under load.)
const SINGLE_CHAIN_BUGGY_SRC: &str = r#"
    event step;
    machine Chain {
        var n : int;
        state Run {
            entry { n := 0; send(this, step); }
            on step do bump;
        }
        action bump {
            n := n + 1;
            assert(n < 6);
            send(this, step);
        }
    }
    main Chain();
"#;

#[test]
fn aborted_search_counters_match_sequential_exactly() {
    let compiled = Compiled::from_source(SINGLE_CHAIN_BUGGY_SRC).unwrap();
    let sequential = compiled.verifier().try_check_exhaustive().unwrap();
    assert!(
        !sequential.passed(),
        "the chain must trip its assert at n = 6"
    );
    for jobs in [2, 4] {
        let parallel = verify_with_jobs(&compiled, jobs);
        assert!(!parallel.passed(), "jobs={jobs}: verdict diverged");
        assert_eq!(
            sequential.stats.unique_states, parallel.stats.unique_states,
            "jobs={jobs}: unique_states diverged on the aborted run"
        );
        assert_eq!(
            sequential.stats.transitions, parallel.stats.transitions,
            "jobs={jobs}: transitions diverged on the aborted run"
        );
        assert_eq!(
            sequential.stats.dedup_hits, parallel.stats.dedup_hits,
            "jobs={jobs}: dedup_hits diverged on the aborted run"
        );
        assert_eq!(
            sequential.stats.max_depth, parallel.stats.max_depth,
            "jobs={jobs}: max_depth diverged on the aborted run"
        );
    }
}

#[test]
fn jobs_one_through_options_matches_plain_verify() {
    let compiled = Compiled::from_program(corpus::ping_pong()).unwrap();
    let plain = compiled.verifier().try_check_exhaustive().unwrap();
    let one = verify_with_jobs(&compiled, 1);
    assert_eq!(plain.passed(), one.passed());
    assert_eq!(plain.stats.unique_states, one.stats.unique_states);
    assert_eq!(plain.stats.transitions, one.stats.transitions);
}

/// `CheckerOptions { jobs: 0, .. }` is one worker, not "no worker": a
/// search that spawned nothing would report a one-state complete run.
#[test]
fn jobs_zero_is_one_worker() {
    let compiled = Compiled::from_program(corpus::elevator()).unwrap();
    let one = compiled.verifier().try_check_exhaustive().unwrap();
    assert!(one.complete && one.stats.unique_states > 1);
    let zero = verify_with_jobs(&compiled, 0);
    assert!(zero.complete);
    assert_eq!(zero.stats.unique_states, one.stats.unique_states);
    assert_eq!(zero.stats.transitions, one.stats.transitions);
    assert_eq!(zero.stats.dedup_hits, one.stats.dedup_hits);
}

/// The `jobs = 1` contract: one worker on the calling thread explores in
/// one fixed order, so even an aborted run — whose counts at `jobs > 1`
/// are totals of a timing-dependent prefix — repeats exactly: the same
/// counterexample and the same counters every time.
#[test]
fn one_worker_runs_are_deterministic() {
    for (name, _correct, buggy) in corpus::figure7_benchmarks() {
        let compiled = Compiled::from_program(buggy).unwrap();
        let run = || {
            let mut report = verify_with_jobs(&compiled, 1);
            report.stats.duration = Default::default();
            report.stats.phases = Default::default();
            (report.counterexample.expect("seeded bug"), report.stats)
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first, "{name}: a jobs = 1 run did not repeat");
        }
    }
}

/// What the cold tier did is reported by counts that repeat exactly at
/// one worker, and a key that is on disk costs one read: the runs'
/// blooms and fences stay in RAM, so only a run that very probably
/// holds the key is read, and it is read once.
#[test]
fn cold_tier_counters_repeat_and_a_cold_hit_costs_one_read() {
    let compiled = Compiled::from_program(corpus::german3()).unwrap();
    let spilled = |jobs| {
        let options = CheckerOptions {
            jobs,
            mem_limit: Some(256 << 10),
            ..CheckerOptions::default()
        };
        let report = compiled
            .verifier()
            .with_options(options)
            .try_check_exhaustive()
            .unwrap();
        assert!(report.passed() && report.complete, "jobs={jobs}");
        report.stats
    };
    let (first, again) = (spilled(1), spilled(1));
    let counters = |s: &p_core::checker::ExplorationStats| {
        let (lookups, probes) = (s.cold_lookups, s.cold_run_probes);
        (
            s.spilled_states,
            s.spill_bytes,
            lookups,
            probes,
            s.cold_reads,
            s.cold_hits,
        )
    };
    assert_eq!(counters(&first), counters(&again));
    for stats in [first, spilled(4)] {
        assert_eq!(stats.unique_states, again.unique_states);
        assert!(
            stats.spilled_states > 0 && stats.cold_hits > 1_000,
            "{stats:?}"
        );
        assert!(stats.cold_hits <= stats.cold_lookups);
        // No trace was walked, so every read is a visited lookup's.
        assert!(stats.cold_hits <= stats.cold_reads && stats.cold_reads <= stats.cold_run_probes);
        assert!(
            stats.cold_reads <= stats.cold_hits + stats.cold_hits / 20,
            "{stats:?}"
        );
    }
}

/// German4 at one, two and four workers, in RAM and under a 256 KiB
/// limit that spills its hot tier over and over: states, transitions
/// and dedup hits are the same in every run, whether the visited table
/// answered an offer without its lock, under it, or from disk.
#[test]
fn german4_counts_agree_across_workers_and_spills() {
    let compiled = Compiled::from_program(corpus::german4()).unwrap();
    let mut counts = Vec::new();
    for mem_limit in [None, Some(256 << 10)] {
        for jobs in [1, 2, 4] {
            let options = CheckerOptions {
                jobs,
                mem_limit,
                ..CheckerOptions::default()
            };
            let report = compiled
                .verifier()
                .with_options(options)
                .try_check_exhaustive()
                .unwrap();
            let mode = format!("jobs={jobs} mem_limit={mem_limit:?}");
            assert!(report.complete && report.passed(), "{mode}");
            let s = report.stats;
            assert_eq!(mem_limit.is_some(), s.spilled_states > 0, "{mode}");
            counts.push(((s.unique_states, s.transitions, s.dedup_hits), mode));
        }
    }
    for (count, mode) in &counts {
        assert_eq!(*count, counts[0].0, "{mode} against {}", counts[0].1);
    }
}

/// The covered offers the visited table answered without its lock are
/// counted, and at one worker the count repeats exactly: switch_led's
/// shards grow onto pages and stay open, so most of its dedup hits are
/// among them, and no more than all of them.
#[test]
fn unlocked_covers_repeat_at_one_worker() {
    let compiled = Compiled::from_program(corpus::switch_led()).unwrap();
    let run = || compiled.verifier().try_check_exhaustive().unwrap().stats;
    let (first, again) = (run(), run());
    assert_eq!(first.unlocked_covers, again.unlocked_covers);
    assert!(first.unlocked_covers > 0, "{first:?}");
    assert!(first.unlocked_covers <= first.dedup_hits, "{first:?}");
}
