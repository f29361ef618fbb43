//! Cross-strategy tests for the model checker.

use p_semantics::{lower, ErrorKind, LoweredProgram};

use crate::engine::Admit;
use crate::fingerprint::{Fingerprint, FpHashMap, FpHashSet};
use crate::trace::{StepSeed, TraceStep};
use crate::{CheckerOptions, LivenessViolation, Verifier};

/// `src` parsed, type-checked and lowered; any error panics.
pub(crate) fn lowered(src: &str) -> LoweredProgram {
    let program = p_parser::parse(src).unwrap();
    p_typecheck::check(&program).unwrap();
    lower(&program).unwrap()
}

/// Two senders race to deliver `a`; Main asserts the first payload is 1.
/// The causal (d = 0) schedule always delivers 1 first; one delay lets the
/// second sender overtake.
const RACE: &str = r#"
    event a : int;

    machine Main {
        var s1 : id;
        var s2 : id;
        state Init {
            entry {
                s1 := new Sender(val = 1, boss = this);
                s2 := new Sender(val = 2, boss = this);
            }
            on a goto GotFirst;
        }
        state GotFirst {
            defer a;
            entry { assert(arg == 1); }
        }
    }

    machine Sender {
        var val : int;
        var boss : id;
        state Go {
            entry { send(boss, a, val); }
        }
    }

    main Main();
"#;

#[test]
fn exhaustive_finds_race_assertion() {
    let p = lowered(RACE);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    let cx = report.counterexample.expect("race must be found");
    assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
    assert!(!cx.trace.is_empty());
    // The trace must mention the send of `a`.
    let rendered = cx.to_string();
    assert!(rendered.contains("sent a"), "{rendered}");
}

#[test]
fn delay_zero_is_causal_and_misses_the_race() {
    let p = lowered(RACE);
    let report = Verifier::new(&p).try_check_delay_bounded(0).unwrap();
    assert!(
        report.passed(),
        "d=0 must follow the causal schedule: {:?}",
        report.counterexample
    );
    assert!(report.complete);
}

#[test]
fn delay_one_finds_the_race() {
    let p = lowered(RACE);
    let report = Verifier::new(&p).try_check_delay_bounded(1).unwrap();
    let cx = report.counterexample.expect("d=1 must find the race");
    assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
}

#[test]
fn delay_bound_coverage_is_monotone() {
    // Use a passing variant so exploration runs to completion.
    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let verifier = Verifier::new(&p);
    let mut last = 0;
    for d in 0..6 {
        let report = verifier.try_check_delay_bounded(d).unwrap();
        assert!(report.passed());
        let states = report.stats.unique_states;
        assert!(
            states >= last,
            "coverage shrank at d={d}: {states} < {last}"
        );
        last = states;
    }
}

#[test]
fn high_delay_bound_matches_exhaustive_coverage() {
    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let verifier = Verifier::new(&p);
    let exhaustive = verifier.try_check_exhaustive().unwrap();
    assert!(exhaustive.passed());
    assert!(exhaustive.complete);
    let delayed = verifier.try_check_delay_bounded(16).unwrap();
    assert_eq!(
        delayed.stats.unique_states, exhaustive.stats.unique_states,
        "a large delay budget must cover the full state space"
    );
}

#[test]
fn random_walks_find_the_race() {
    let p = lowered(RACE);
    let report = Verifier::new(&p).try_check_random(42, 200, 64).unwrap();
    let cx = report
        .counterexample
        .expect("random walks should stumble on it");
    assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
}

#[test]
fn unhandled_event_detected_with_trace() {
    let src = r#"
        event req;
        machine Server { state Idle { } }
        ghost machine Env {
            var s : id;
            state Init {
                entry { s := new Server(); send(s, req); }
            }
        }
        main Env();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    let cx = report.counterexample.expect("unhandled event");
    assert!(matches!(cx.error.kind, ErrorKind::UnhandledEvent { .. }));
}

#[test]
fn deferred_event_is_not_an_unhandled_violation() {
    let src = r#"
        event req;
        machine Server { state Idle { defer req; } }
        ghost machine Env {
            var s : id;
            state Init {
                entry { s := new Server(); send(s, req); }
            }
        }
        main Env();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    assert!(report.passed());
    assert!(report.complete);
}

#[test]
fn ghost_choice_branches_are_both_explored() {
    // The bug hides behind a specific ghost choice.
    let src = r#"
        event hit;
        machine Target {
            state Idle {
                on hit goto Bad;
            }
            state Bad { entry { assert(false); } }
        }
        ghost machine Env {
            var t : id;
            state Init {
                entry {
                    t := new Target();
                    if (*) { send(t, hit); }
                }
            }
        }
        main Env();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    let cx = report.counterexample.expect("choice true must be explored");
    assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
    // The trace records the ghost choice that triggered it.
    assert!(cx.trace.iter().any(|s| !s.choices.is_empty()));
}

#[test]
fn state_bound_truncates() {
    let src = r#"
        event tick : int;
        machine Clock {
            var n : int;
            state Run {
                entry {
                    n := n + 1;
                    send(this, tick, n);
                }
                on tick goto Run;
            }
        }
        main Clock(n = 0);
    "#;
    let p = lowered(src);
    let options = CheckerOptions {
        max_states: 50,
        ..CheckerOptions::default()
    };
    let report = Verifier::new(&p)
        .with_options(options)
        .try_check_exhaustive()
        .unwrap();
    assert!(report.passed());
    assert!(!report.complete);
    assert!(report.stats.truncated);
}

#[test]
fn liveness_flags_machine_running_forever() {
    let src = r#"
        event tick;
        machine Loop {
            state S {
                entry { send(this, tick); }
                on tick goto S;
            }
        }
        main Loop();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_liveness().unwrap();
    assert!(!report.passed());
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, LivenessViolation::MachineRunsForever { .. })));
}

const STARVATION: &str = r#"
    event work;
    event tick;
    machine Busy {
        state S {
            defer work;
            entry { send(this, tick); }
            on tick goto S;
        }
    }
    ghost machine Env {
        var b : id;
        state Init {
            entry { b := new Busy(); send(b, work); }
        }
    }
    main Env();
"#;

#[test]
fn liveness_flags_forever_deferred_event() {
    let p = lowered(STARVATION);
    let report = Verifier::new(&p).try_check_liveness().unwrap();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            LivenessViolation::EventNeverDequeued { event_name, .. } if event_name == "work"
        )),
        "got {:?}",
        report.violations
    );
}

#[test]
fn postpone_annotation_silences_starvation() {
    let src = STARVATION.replace("defer work;", "defer work; postpone work;");
    let p = lowered(&src);
    let report = Verifier::new(&p).try_check_liveness().unwrap();
    assert!(
        !report
            .violations
            .iter()
            .any(|v| matches!(v, LivenessViolation::EventNeverDequeued { .. })),
        "postponed events must not be reported: {:?}",
        report.violations
    );
}

#[test]
fn liveness_passes_on_quiescent_program() {
    let src = r#"
        event go;
        machine M {
            state A { entry { raise(go); } on go goto B; }
            state B { }
        }
        main M();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_liveness().unwrap();
    assert!(report.passed(), "{:?}", report.violations);
    assert!(report.complete);
}

#[test]
fn fine_granularity_finds_same_race_with_more_states() {
    let p = lowered(RACE);
    let atomic = Verifier::new(&p).try_check_exhaustive().unwrap();
    let fine = Verifier::new(&p)
        .with_options(CheckerOptions {
            granularity: p_semantics::Granularity::Fine,
            ..CheckerOptions::default()
        })
        .try_check_exhaustive()
        .unwrap();
    // Same verdict (atomicity reduction is sound)…
    assert_eq!(atomic.passed(), fine.passed());
    assert!(!fine.passed());
    assert_eq!(
        atomic.counterexample.unwrap().error.kind,
        fine.counterexample.unwrap().error.kind
    );
}

#[test]
fn atomicity_reduction_shrinks_passing_state_space() {
    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let atomic = Verifier::new(&p).try_check_exhaustive().unwrap();
    let fine = Verifier::new(&p)
        .with_options(CheckerOptions {
            granularity: p_semantics::Granularity::Fine,
            ..CheckerOptions::default()
        })
        .try_check_exhaustive()
        .unwrap();
    assert!(atomic.passed() && fine.passed());
    assert!(
        atomic.stats.unique_states < fine.stats.unique_states,
        "atomic {} vs fine {}",
        atomic.stats.unique_states,
        fine.stats.unique_states
    );
}

#[test]
fn exploration_is_deterministic() {
    let p = lowered(RACE);
    let r1 = Verifier::new(&p).try_check_exhaustive().unwrap();
    let r2 = Verifier::new(&p).try_check_exhaustive().unwrap();
    assert_eq!(r1.stats.unique_states, r2.stats.unique_states);
    assert_eq!(r1.stats.transitions, r2.stats.transitions);
    assert_eq!(
        r1.counterexample.map(|c| c.trace.len()),
        r2.counterexample.map(|c| c.trace.len())
    );
}

#[test]
fn delete_and_send_race_detected() {
    // Env may delete the worker before Main's send lands.
    let src = r#"
        event job;
        event die;
        machine Worker {
            state Idle {
                on job goto Idle;
                on die goto Dying;
            }
            state Dying { entry { delete; } }
        }
        ghost machine Env {
            var w : id;
            state Init {
                entry {
                    w := new Worker();
                    send(w, die);
                    send(w, job);
                }
            }
        }
        main Env();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    let cx = report.counterexample.expect("send after delete");
    assert!(matches!(cx.error.kind, ErrorKind::SendToDeleted { .. }));
}

#[test]
fn stuck_state_diagnostics_are_reported() {
    // `work` is sent once and deferred forever; the system quiesces with
    // the event still queued.
    let src = r#"
        event work;
        machine Sink { state S { defer work; } }
        ghost machine Env {
            var s : id;
            state D { entry { s := new Sink(); send(s, work); } }
        }
        main Env();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    assert!(report.passed());
    assert!(report.stats.stuck_states >= 1, "{:?}", report.stats);
    assert!(report.stats.quiescent_states >= 1);
    assert!(report.stats.max_queue_seen >= 1);
}

#[test]
fn clean_termination_is_quiescent_but_not_stuck() {
    let src = r#"
        event go;
        machine M {
            state A { entry { raise(go); } on go goto B; }
            state B { }
        }
        main M();
    "#;
    let p = lowered(src);
    let report = Verifier::new(&p).try_check_exhaustive().unwrap();
    assert!(report.passed());
    assert!(report.stats.quiescent_states >= 1);
    assert_eq!(report.stats.stuck_states, 0);
}

#[test]
fn parallel_agrees_with_sequential_on_buggy_program() {
    let p = lowered(RACE);
    let verifier = Verifier::new(&p);
    let sequential = verifier.try_check_exhaustive().unwrap();
    for jobs in [2, 4] {
        let parallel = Verifier::new(&p)
            .with_options(CheckerOptions {
                jobs,
                ..CheckerOptions::default()
            })
            .try_check_exhaustive()
            .unwrap();
        assert_eq!(sequential.passed(), parallel.passed(), "jobs={jobs}");
        let cx = parallel.counterexample.expect("race found in parallel");
        assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
        // Whichever worker won, its trace must replay to the same error.
        assert!(
            verifier.replay(&cx).reproduced(),
            "parallel trace must replay (jobs={jobs}): {cx}"
        );
    }
}

#[test]
fn parallel_agrees_with_sequential_on_passing_program() {
    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let sequential = Verifier::new(&p).try_check_exhaustive().unwrap();
    assert!(sequential.passed() && sequential.complete);
    for jobs in [2, 4] {
        let parallel = Verifier::new(&p)
            .with_options(CheckerOptions {
                jobs,
                ..CheckerOptions::default()
            })
            .try_check_exhaustive()
            .unwrap();
        assert!(parallel.passed() && parallel.complete, "jobs={jobs}");
        assert_eq!(
            sequential.stats.unique_states, parallel.stats.unique_states,
            "jobs={jobs}"
        );
        assert_eq!(
            sequential.stats.transitions, parallel.stats.transitions,
            "complete runs expand every state exactly once (jobs={jobs})"
        );
        assert_eq!(sequential.stats.stored_bytes, parallel.stats.stored_bytes);
    }
}

#[test]
fn options_jobs_selects_the_parallel_engine() {
    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let sequential = Verifier::new(&p).try_check_exhaustive().unwrap();
    let via_options = Verifier::new(&p)
        .with_options(CheckerOptions {
            jobs: 4,
            ..CheckerOptions::default()
        })
        .try_check_exhaustive()
        .unwrap();
    assert!(via_options.passed() && via_options.complete);
    assert_eq!(
        sequential.stats.unique_states,
        via_options.stats.unique_states
    );
}

#[test]
fn parallel_respects_state_bound_without_poisoning() {
    let src = r#"
        event tick : int;
        machine Clock {
            var n : int;
            state Run {
                entry {
                    n := n + 1;
                    send(this, tick, n);
                }
                on tick goto Run;
            }
        }
        main Clock(n = 0);
    "#;
    let p = lowered(src);
    let options = CheckerOptions {
        max_states: 50,
        ..CheckerOptions::default()
    };
    let sequential = Verifier::new(&p)
        .with_options(options.clone())
        .try_check_exhaustive()
        .unwrap();
    assert!(sequential.stats.truncated);
    assert!(
        sequential.stats.unique_states <= 50,
        "retained-state count must respect the bound: {}",
        sequential.stats.unique_states
    );
    let parallel = Verifier::new(&p)
        .with_options(CheckerOptions { jobs: 4, ..options })
        .try_check_exhaustive()
        .unwrap();
    assert!(parallel.passed());
    assert!(!parallel.complete);
    assert!(parallel.stats.truncated);
    assert!(parallel.stats.unique_states <= 50);
}

/// The collision-regression test of the fingerprint switch: enumerate
/// the reachable configurations by their full canonical encodings (no
/// hashing at all) and check that the fingerprint-deduplicated search
/// retains exactly as many states — a 64-bit-style silent merge of
/// distinct canonical byte strings would make the counts diverge.
#[test]
fn fingerprints_never_merge_distinct_canonical_bytes() {
    use std::collections::HashSet;

    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let verifier = Verifier::new(&p);
    let engine = crate::Verifier::new(&p).engine();

    let mut by_bytes: HashSet<Vec<u8>> = HashSet::new();
    let mut by_fingerprint: HashSet<crate::Fingerprint> = HashSet::new();
    let init = engine.initial_config();
    by_bytes.insert(init.canonical_bytes());
    by_fingerprint.insert(crate::Fingerprint::of(&init.canonical_bytes()));
    let mut stack = vec![init];
    while let Some(config) = stack.pop() {
        for id in engine.enabled_machines(&config) {
            for succ in
                successors_for(&engine, &config, id, p_semantics::Granularity::Atomic).unwrap()
            {
                if matches!(succ.result.outcome, p_semantics::ExecOutcome::Error(_)) {
                    continue;
                }
                let child = *succ.config.unwrap();
                let bytes = child.canonical_bytes();
                by_fingerprint.insert(crate::Fingerprint::of(&bytes));
                if by_bytes.insert(bytes) {
                    stack.push(child);
                }
            }
        }
    }
    assert_eq!(
        by_bytes.len(),
        by_fingerprint.len(),
        "distinct canonical encodings must have distinct fingerprints"
    );
    let report = verifier.try_check_exhaustive().unwrap();
    assert_eq!(
        report.stats.unique_states,
        by_bytes.len(),
        "the fingerprint-deduplicated search must retain every distinct state"
    );
}

#[test]
fn replayed_delay_traces_match_recorded_length() {
    let p = lowered(RACE);
    let verifier = Verifier::new(&p);
    let r = verifier.try_check_delay_bounded(2).unwrap();
    let cx = r.counterexample.expect("race found at d<=2");
    // replay() must accept traces produced by the delay-bounded explorer.
    assert!(verifier.replay(&cx).reproduced());
    // And the last-good prefix is reachable.
    assert!(verifier.replay_to_last_good(&cx).is_some());
}

/// Two workers that, once kicked off by Env, only ever self-send: their
/// runs are pairwise independent, so sleep sets can prune the redundant
/// interleavings between them while visiting every state.
const INDEPENDENT_WORKERS: &str = r#"
    event go;

    machine Worker {
        var n : int;
        state Idle {
            entry { n := 0; }
            on go goto Work;
        }
        state Work {
            entry {
                n := n + 1;
                if (n < 4) { send(this, go); }
            }
            on go goto Work;
        }
    }

    ghost machine Env {
        var a : id;
        var b : id;
        state E {
            entry {
                a := new Worker();
                b := new Worker();
                send(a, go);
                send(b, go);
            }
            defer go;
        }
    }

    main Env();
"#;

fn por_options() -> CheckerOptions {
    CheckerOptions {
        por: true,
        ..CheckerOptions::default()
    }
}

#[test]
fn por_visits_every_state_with_fewer_transitions() {
    let p = lowered(INDEPENDENT_WORKERS);
    let full = Verifier::new(&p).try_check_exhaustive().unwrap();
    let reduced = Verifier::new(&p)
        .with_options(por_options())
        .try_check_exhaustive()
        .unwrap();
    assert!(full.passed() && full.complete);
    assert!(reduced.passed() && reduced.complete);
    // Sleep sets prune transitions, never states.
    assert_eq!(full.stats.unique_states, reduced.stats.unique_states);
    assert_eq!(full.stats.stored_bytes, reduced.stats.stored_bytes);
    assert!(
        reduced.stats.transitions < full.stats.transitions,
        "independent workers must yield an actual reduction: {} !< {}",
        reduced.stats.transitions,
        full.stats.transitions
    );
    // Diagnostics are per-state and must not drift under re-visits.
    assert_eq!(full.stats.quiescent_states, reduced.stats.quiescent_states);
    assert_eq!(full.stats.stuck_states, reduced.stats.stuck_states);
}

#[test]
fn por_agrees_with_full_exploration_on_racy_program() {
    // RACE's senders share the boss, so their sends are dependent — but
    // a sender's trailing "finish the entry after the send" run touches
    // only the sender itself and may legitimately be slept. States must
    // match exactly; transitions may only shrink.
    let src = RACE.replace("assert(arg == 1)", "assert(arg > 0)");
    let p = lowered(&src);
    let full = Verifier::new(&p).try_check_exhaustive().unwrap();
    let reduced = Verifier::new(&p)
        .with_options(por_options())
        .try_check_exhaustive()
        .unwrap();
    assert!(full.passed() && full.complete && reduced.passed() && reduced.complete);
    assert_eq!(full.stats.unique_states, reduced.stats.unique_states);
    assert!(reduced.stats.transitions <= full.stats.transitions);
}

#[test]
fn por_is_exact_when_only_one_machine_is_ever_enabled() {
    // A single self-driving machine has no independence to exploit: the
    // reduced search must coincide with the full one transition for
    // transition.
    let src = r#"
        event tick;
        machine Solo {
            var n : int;
            state Init {
                entry { n := 0; send(this, tick); }
                on tick goto S;
            }
            state S {
                entry {
                    n := n + 1;
                    if (n < 5) { send(this, tick); }
                }
                on tick goto S;
            }
        }
        main Solo();
    "#;
    let p = lowered(src);
    let full = Verifier::new(&p).try_check_exhaustive().unwrap();
    let reduced = Verifier::new(&p)
        .with_options(por_options())
        .try_check_exhaustive()
        .unwrap();
    assert!(full.passed() && full.complete && reduced.passed() && reduced.complete);
    assert_eq!(full.stats.unique_states, reduced.stats.unique_states);
    assert_eq!(full.stats.transitions, reduced.stats.transitions);
}

#[test]
fn por_preserves_the_race_and_its_trace_replays() {
    let p = lowered(RACE);
    let verifier = Verifier::new(&p).with_options(por_options());
    let report = verifier.try_check_exhaustive().unwrap();
    let cx = report
        .counterexample
        .expect("race must survive the reduction");
    assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
    assert!(verifier.replay(&cx).reproduced(), "{cx}");
}

#[test]
fn por_parallel_matches_por_sequential() {
    let p = lowered(INDEPENDENT_WORKERS);
    let sequential = Verifier::new(&p)
        .with_options(por_options())
        .try_check_exhaustive()
        .unwrap();
    for jobs in [2, 4] {
        let options = CheckerOptions {
            jobs,
            ..por_options()
        };
        let parallel = Verifier::new(&p)
            .with_options(options)
            .try_check_exhaustive()
            .unwrap();
        assert!(parallel.passed() && parallel.complete, "jobs={jobs}");
        assert_eq!(
            sequential.stats.unique_states, parallel.stats.unique_states,
            "jobs={jobs}"
        );
        assert_eq!(sequential.stats.stored_bytes, parallel.stats.stored_bytes);
    }
}

/// A worker that panics (here: a foreign function does) takes the
/// search down with a typed error; the other workers neither wait for
/// its task for ever nor sleep through its exit.
#[test]
fn a_panicking_worker_stops_the_search_with_a_typed_error() {
    let src = r#"
        event tick : int;
        machine Clock {
            var n : int;
            foreign fn risky(int) : int;
            state Run {
                entry { n := n + risky(n); if (n < 500) { send(this, tick, n); } }
                on tick goto Run;
            }
        }
        main Clock(n = 0);
    "#;
    let p = lowered(src);
    let mut registry = p_semantics::ForeignRegistry::new();
    registry.register("risky", |args| match args[0] {
        p_semantics::Value::Int(n) if n >= 200 => panic!("simulated foreign-function crash"),
        _ => p_semantics::Value::Int(1),
    });
    let verifier = Verifier::new(&p).with_foreign(registry.resolve(&p));
    for jobs in [2, 4] {
        match verifier.search(jobs) {
            Err(crate::CheckerError::WorkerPanic(why)) => {
                assert!(why.contains("simulated"), "{why}")
            }
            other => panic!("expected a worker panic, got {:?}", other.map(|r| r.0)),
        }
    }
}

/// A task changes workers whole: after a two-worker run the two intern
/// tables hold no allocation in common, and (a debug assertion in the
/// worker loop, live in this build) every configuration a worker
/// expanded pointed into that worker's own table — so in steady state
/// no `Arc` is reference-counted from two cores.
#[test]
fn stolen_tasks_share_no_arcs() {
    let p = lower(&p_corpus::german4()).unwrap();
    let verifier = Verifier::new(&p);
    let (report, tables) = verifier.search(2).unwrap();
    assert!(report.passed() && report.complete);
    assert_eq!(tables.len(), 2);
    assert!(
        tables.iter().all(|table| !table.is_empty()),
        "both workers expanded states, so a task was stolen"
    );
    assert!(!tables[0].shares_allocation_with(&tables[1]));
    assert!(!tables[1].shares_allocation_with(&tables[0]));
    let one_worker = verifier.try_check_exhaustive().unwrap();
    assert_eq!(report.stats.stored_bytes, one_worker.stats.stored_bytes);
}

/// Reference reachability for the exhaustive engine: a breadth-first
/// walk over `succ::successors_into` whose visited set holds `key` of
/// every configuration — no sleep sets, no table, no frontier. Returns
/// whether the program is error-free and the keys reached (all of them,
/// when error-free), or `None` past `limit` keys.
fn reachable_keys<K: Ord>(
    p: &LoweredProgram,
    limit: usize,
    mut key: impl FnMut(&mut p_semantics::Config) -> K,
) -> Option<(bool, std::collections::BTreeSet<K>)> {
    use std::collections::{BTreeSet, VecDeque};
    let verifier = Verifier::new(p);
    let engine = verifier.engine();
    let mut init = engine.initial_config();
    let mut seen = BTreeSet::from([key(&mut init)]);
    let mut queue = VecDeque::from([init]);
    let mut arena = crate::succ::SuccArena::default();
    let (mut succs, mut enabled) = (Vec::new(), Vec::new());
    let granularity = verifier.options().granularity;
    while let Some(config) = queue.pop_front() {
        engine.enabled_machines_into(&config, &mut enabled);
        for &id in &enabled {
            crate::succ::successors_into(&engine, &config, id, granularity, &mut succs, &mut arena)
                .unwrap();
            for succ in succs.drain(..) {
                if matches!(succ.result.outcome, p_semantics::ExecOutcome::Error(_)) {
                    return Some((false, seen));
                }
                let mut child = *succ.config.expect("no memo: every successor is built");
                if seen.insert(key(&mut child)) {
                    if seen.len() > limit {
                        return None;
                    }
                    queue.push_back(child);
                }
            }
        }
    }
    Some((true, seen))
}

/// [`reachable_keys`] over the full canonical encodings — no
/// fingerprints, no canonicalisation: whether the program is error-free
/// and how many states were reached. Every configuration reached must
/// also decode from its encoding to an equal one; decoding stores a
/// frame's inherited map only when some entry is not ⊥, so this holds
/// the search's frames to that normal form.
fn naive_reachability(p: &LoweredProgram, limit: usize) -> Option<(bool, usize)> {
    let n_events = p.event_count();
    reachable_keys(p, limit, |config| {
        let bytes = config.canonical_bytes();
        let back = p_semantics::Config::from_canonical_bytes(&bytes, n_events);
        assert_eq!(back.as_ref().ok(), Some(&*config), "decodes to itself");
        bytes
    })
    .map(|(error_free, seen)| (error_free, seen.len()))
}

/// Every jobs/spill/reduction consistency suite compares the one kernel
/// with itself; this compares it with [`naive_reachability`], which
/// shares none of its bookkeeping. `--por` must not change the count.
#[test]
fn exhaustive_matches_the_naive_reachability_oracle() {
    let buggy = [
        ("elevator_buggy", p_corpus::elevator_buggy()),
        ("switch_led_buggy", p_corpus::switch_led_buggy()),
        ("german_buggy", p_corpus::german_buggy()),
    ];
    let mut compared = Vec::new();
    for (name, program) in p_corpus::all().into_iter().chain(buggy) {
        let p = lower(&program).unwrap();
        let Some((error_free, states)) = naive_reachability(&p, 20_000) else {
            continue;
        };
        compared.push(name);
        for por in [false, true] {
            let options = CheckerOptions {
                por,
                ..CheckerOptions::default()
            };
            let report = Verifier::new(&p)
                .with_options(options)
                .try_check_exhaustive()
                .unwrap();
            assert_eq!(report.passed(), error_free, "{name} por={por}: verdict");
            if error_free {
                assert!(report.complete, "{name} por={por}");
                assert_eq!(
                    report.stats.unique_states, states,
                    "{name} por={por}: unique_states"
                );
            }
        }
    }
    assert!(
        compared.len() >= 10 && compared.iter().filter(|n| n.ends_with("_buggy")).count() == 3,
        "the state limit skipped too much of the corpus: {compared:?}"
    );
}

/// The kernel, whose workers replay runs from their slot-transition
/// memo, against [`naive_reachability`], which interprets every run:
/// the same verdict and, for an error-free program, the same unique
/// states, plain, under `por`, at two and four workers, and spilled (and
/// the verdict under `symmetry`). At one worker the kernel without a
/// memo is a second oracle: every counter and the counterexample must be
/// its; and an error-free run aborted halfway and resumed counts what
/// the uninterrupted one does. `None` past `limit` states.
fn kernel_agrees_with_the_reference(
    name: &str,
    program: &p_ast::Program,
    limit: usize,
) -> Option<usize> {
    let p = lower(program).unwrap();
    let (error_free, states) = naive_reachability(&p, limit)?;
    let text = || p_ast::print_program(program);
    let counts = |report: &crate::Report| {
        let s = &report.stats;
        let counters = (s.unique_states, s.transitions, s.dedup_hits, s.sleep_pruned);
        let bytes = (s.symmetry_merges, s.stored_bytes, s.index_bytes);
        let cx = report.counterexample.as_ref().map(|cx| cx.to_string());
        (counters, bytes, cx)
    };
    let mut plain = None;
    for (por, symmetry, jobs, spill) in [
        (false, false, 1, false),
        (true, false, 1, false),
        (false, false, 2, false),
        (false, false, 4, false),
        (false, false, 1, true),
        (false, true, 1, false),
        (true, true, 1, false),
    ] {
        // The spill files go under a checkpoint directory of this
        // thread's (a checkpoint never due), not the process's.
        let never = crate::CheckpointPolicy {
            every_states: 1 << 40,
            ..crate::CheckpointPolicy::new(scratch_dir("spill"))
        };
        let options = CheckerOptions {
            por,
            symmetry,
            mem_limit: spill.then_some(64 << 10),
            checkpoint: spill.then_some(never),
            ..CheckerOptions::default()
        };
        let mode = format!("{name} por={por} symmetry={symmetry} jobs={jobs} spill={spill}");
        let verifier = Verifier::new(&p).with_options(options);
        // A hot tier of 4 KiB holds a few hundred states: every program
        // of a thousand spills (`--mem-limit` floors its budget at 64 KiB).
        crate::explore::TEST_HOT_BUDGET.set(spill.then_some(4 << 10));
        let (report, _) = verifier.search(jobs).unwrap();
        crate::explore::TEST_HOT_BUDGET.set(None);
        let _ = std::fs::remove_dir_all(scratch_dir("spill"));
        assert_eq!(report.passed(), error_free, "{mode}: verdict\n{}", text());
        if error_free && !symmetry {
            assert!(report.complete, "{mode}");
            let found = report.stats.unique_states;
            assert_eq!(found, states, "{mode}: unique states\n{}", text());
        }
        if spill && error_free && states >= 1_000 {
            let spilled = report.stats.spilled_states;
            assert!(spilled > 0, "{mode}: nothing spilled\n{}", text());
        }
        if jobs == 1 && !spill {
            let exhaustive = &crate::explore::Exhaustive;
            let (bare, ..) = verifier.search_with(exhaustive, 1, None).unwrap();
            let (with, without) = (counts(&report), counts(&bare));
            assert_eq!(
                with,
                without,
                "{mode}: the memo changed the search\n{}",
                text()
            );
        }
        plain.get_or_insert(report);
    }
    if error_free && states >= 2 {
        let resumed = abort_and_resume(&p, states / 2);
        let whole = plain.expect("the plain leg ran").stats;
        let exploration = |s: &crate::ExplorationStats| {
            let reductions = (s.sleep_pruned, s.symmetry_merges);
            (
                s.unique_states,
                s.transitions,
                s.dedup_hits,
                s.max_depth,
                reductions,
            )
        };
        assert_eq!(
            exploration(&resumed.stats),
            exploration(&whole),
            "{name}: aborted at {} states and resumed\n{}",
            states / 2,
            text()
        );
    }
    Some(states)
}

/// A directory for this test thread's files.
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let thread = std::thread::current().id();
    let name = format!("p-checker-{tag}-{}-{thread:?}", std::process::id());
    std::env::temp_dir().join(name)
}

/// One worker's plain search of `p`, stopped with a checkpoint once
/// `abort_after` states are retained, then resumed from it to the end.
fn abort_and_resume(p: &LoweredProgram, abort_after: usize) -> crate::Report {
    let dir = scratch_dir("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let policy = crate::CheckpointPolicy {
        abort_after_states: Some(abort_after),
        ..crate::CheckpointPolicy::new(&dir)
    };
    let aborting = CheckerOptions {
        checkpoint: Some(policy),
        ..CheckerOptions::default()
    };
    let aborted = Verifier::new(p)
        .with_options(aborting)
        .try_check_exhaustive()
        .unwrap();
    assert!(aborted.interrupted, "no abort at {abort_after} states");
    let resuming = CheckerOptions {
        resume: Some(dir.clone()),
        ..CheckerOptions::default()
    };
    let resumed = Verifier::new(p)
        .with_options(resuming)
        .try_check_exhaustive()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(resumed.passed() && resumed.complete);
    resumed
}

/// Generated programs of two to four machines (`p_corpus::generated_src`):
/// 256 of them in a debug build, 2 000 in a release one. A disagreement
/// is shrunk (`p_corpus::shrink`) and the failure prints the smaller
/// program, a `.p` file for `tests/regressions/`.
#[test]
fn generated_programs_agree_with_the_reference() {
    let cases = if cfg!(debug_assertions) { 256 } else { 2_000 };
    let mut compared = 0;
    for seed in 0..cases {
        let name = format!("generated_src({seed})");
        let agrees = |program: &p_ast::Program| {
            let check = || kernel_agrees_with_the_reference(&name, program, 10_000);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(check))
        };
        let Ok(within) = agrees(&p_corpus::generated_program(seed)) else {
            let shrunk = p_corpus::shrink(seed, |program| {
                p_typecheck::check(program).is_ok() && agrees(program).is_err()
            });
            let text = p_ast::print_program(&shrunk);
            panic!("{name} disagrees with the reference; shrunk:\n{text}");
        };
        compared += usize::from(within.is_some());
    }
    assert!(
        compared * 50 >= cases as usize * 49,
        "{compared} of {cases} within 10⁴ states"
    );
}

/// Every `.p` file under `tests/regressions/`, a shrunk case some
/// generated test once failed on: it prints back to itself, typechecks,
/// lowers, and the kernel agrees with the reference on it.
#[test]
fn regression_programs_agree_with_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/regressions");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "p"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .p file under {dir}");
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy();
        let source = std::fs::read_to_string(path).unwrap();
        let program = p_parser::parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = p_ast::print_program(&program);
        let reparsed = p_parser::parse(&printed).unwrap();
        assert_eq!(p_ast::print_program(&reparsed), printed, "{name}");
        p_typecheck::check(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        lower(&program).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let states = kernel_agrees_with_the_reference(&name, &program, 10_000);
        assert!(states.is_some(), "{name}: over 10⁴ states");
    }
}

/// The `--delay`/`--faults` oracle over generated programs
/// (`p_corpus::generated_src`), against the exhaustive search of the same
/// program: `--faults 0` is that search; `--delay d` finds a violation
/// only where it finds one, and on an error-free program covers no more
/// configurations, more as `d` grows, and all of them at the saturating
/// bound `(n - 1) · max_depth` (DESIGN.md §9), where `n` bounds the
/// machines a run holds (main creates one of each type) and `max_depth`
/// is the exhaustive run's. Programs of more than 300 exhaustive states
/// are skipped and counted: of 256 seeds in a debug build at least 32
/// are compared, of 2 000 in a release one at least 128.
#[test]
fn generated_programs_agree_under_delay_and_faults() {
    let (cases, needed) = if cfg!(debug_assertions) {
        (256, 32)
    } else {
        (2_000, 128)
    };
    let (mut compared, mut skipped) = (0, 0);
    for seed in 0..cases {
        let program = p_corpus::generated_program(seed);
        let p = lower(&program).unwrap();
        let verifier = Verifier::new(&p);
        let full = verifier.try_check_exhaustive().unwrap();
        if full.stats.unique_states > 300 {
            skipped += 1;
            continue;
        }
        compared += 1;
        let text = || p_ast::print_program(&program);
        let name = format!("generated_src({seed})");
        let counts = |r: &crate::Report| (r.passed(), r.stats.unique_states, r.stats.transitions);
        let faultless = verifier.try_check_with_faults(0, &[]).unwrap();
        assert_eq!(
            counts(&faultless),
            counts(&full),
            "{name} --faults 0\n{}",
            text()
        );

        let saturating = (p.machines.len() - 1) * full.stats.max_depth;
        let mut bounds = vec![0, 1, 2, 3, saturating];
        bounds.sort_unstable();
        bounds.dedup();
        let mut last = 0;
        for d in bounds {
            let delayed = verifier.try_check_delay_bounded(d).unwrap();
            let mode = format!("{name} --delay {d}");
            assert!(
                delayed.passed() || !full.passed(),
                "{mode}: a violation exhaustive search misses\n{}",
                text()
            );
            if d == saturating {
                assert_eq!(
                    delayed.passed(),
                    full.passed(),
                    "{mode}: verdict\n{}",
                    text()
                );
            }
            if !full.passed() {
                continue;
            }
            let states = delayed.stats.unique_states;
            assert!(delayed.complete, "{mode}");
            assert!(
                states >= last,
                "{mode}: {states} < {last} configurations\n{}",
                text()
            );
            assert!(
                states <= full.stats.unique_states,
                "{mode}: {states} configurations\n{}",
                text()
            );
            if d == saturating {
                assert_eq!(
                    states,
                    full.stats.unique_states,
                    "{mode}: configurations\n{}",
                    text()
                );
            }
            last = states;
        }
    }
    assert!(
        compared >= needed,
        "{compared} of {cases} programs compared, {skipped} over 300 states"
    );
}

/// The brute-force orbit key of a configuration: the smallest concrete
/// digest over every permutation of its slots that maps each live
/// machine onto a slot of its own type and fixes tombstones.
fn orbit_key(config: &mut p_semantics::Config) -> u128 {
    fn extend(
        config: &p_semantics::Config,
        perm: &mut Vec<u32>,
        used: &mut Vec<bool>,
        best: &mut u128,
    ) {
        let ty = |i: usize| {
            config
                .machine(p_semantics::MachineId(i as u32))
                .map(|m| m.ty)
        };
        let i = perm.len();
        if i == used.len() {
            *best = (*best).min(config.apply_permutation(perm).digest());
            return;
        }
        for j in 0..used.len() {
            if !used[j] && ty(j) == ty(i) && (ty(i).is_some() || i == j) {
                used[j] = true;
                perm.push(j as u32);
                extend(config, perm, used, best);
                perm.pop();
                used[j] = false;
            }
        }
    }
    let mut best = u128::MAX;
    let slots = config.created_count();
    extend(config, &mut Vec::new(), &mut vec![false; slots], &mut best);
    best
}

/// Generated symmetric families (`p_corpus::generated_family_src`) against
/// the brute-force orbit oracle: under `symmetry` — alone, with `por` and
/// at four workers — the kernel keeps one state per orbit of the
/// configurations [`reachable_keys`] reaches, and agrees on the verdict.
/// At least half of the families merge symmetric states, and on this
/// thread's one-worker runs the kernel's cross-check confirmed keys of
/// both routes that skip the built child. 256 families in a debug build,
/// 2 000 in a release one.
#[test]
fn generated_families_match_the_orbit_oracle() {
    let cases = if cfg!(debug_assertions) { 256 } else { 2_000 };
    let (mut compared, mut merged) = (0, 0);
    let checked_before = crate::explore::CHECKED_KEYS.get();
    for seed in 0..cases {
        let program = p_corpus::generated_family_program(seed);
        let p = lower(&program).unwrap();
        // A configuration is met once per transition into it: its
        // orbit key is worked out once, by concrete digest.
        let mut known = std::collections::HashMap::new();
        let orbit =
            |c: &mut p_semantics::Config| *known.entry(c.digest()).or_insert_with(|| orbit_key(c));
        let Some((error_free, orbits)) = reachable_keys(&p, 10_000, orbit) else {
            continue;
        };
        compared += 1;
        let text = || p_ast::print_program(&program);
        let mut merges = 0;
        for (por, jobs) in [(false, 1), (true, 1), (false, 4)] {
            let options = CheckerOptions {
                por,
                symmetry: true,
                ..CheckerOptions::default()
            };
            let (report, _) = Verifier::new(&p)
                .with_options(options)
                .search(jobs)
                .unwrap();
            let mode = format!("generated_family_src({seed}) por={por} jobs={jobs}");
            assert_eq!(report.passed(), error_free, "{mode}: verdict\n{}", text());
            if error_free {
                assert!(report.complete, "{mode}");
                let found = report.stats.unique_states;
                assert_eq!(found, orbits.len(), "{mode}: orbits\n{}", text());
            }
            merges += report.stats.symmetry_merges;
        }
        merged += usize::from(merges > 0);
    }
    assert!(
        compared * 50 >= cases as usize * 49,
        "{compared} of {cases} within 10⁴ states"
    );
    assert!(merged * 2 >= compared, "{merged} of {compared} merged");
    let checked = crate::explore::CHECKED_KEYS.get();
    assert!(
        (0..2).all(|route| checked[route] > checked_before[route]),
        "{checked_before:?} → {checked:?}"
    );
}

/// What [`compare_replays`] saw: successors the memo answered, and of
/// those the ones built from `interner`'s states rather than by running
/// the interpreter again.
#[derive(Debug, Default)]
struct Replays {
    answered: usize,
    installed: usize,
}

/// Expands `machine` at `config` through `memo` and through a plain
/// arena, and checks every successor the memo answered against the
/// interpreter's: the same `RunResult` (outcome with `enqueued`, steps,
/// choices) and script, a fold digest equal to the built child's
/// `digest_uncached`, and a built child `==` the interpreter's.
/// Returns the interpreter's successors.
fn compare_replays(
    engine: &p_semantics::Engine<'_>,
    config: &p_semantics::Config,
    machine: p_semantics::MachineId,
    memo: &mut crate::succ::SuccArena,
    interner: &p_semantics::SlotInterner,
    seen: &mut Replays,
) -> Vec<crate::succ::Successor> {
    use crate::succ::{successors_into, SuccArena};
    let atomic = p_semantics::Granularity::Atomic;
    let (mut replayed, mut interpreted) = (Vec::new(), Vec::new());
    successors_into(engine, config, machine, atomic, &mut replayed, memo).unwrap();
    successors_into(
        engine,
        config,
        machine,
        atomic,
        &mut interpreted,
        &mut SuccArena::default(),
    )
    .unwrap();
    assert_eq!(replayed.len(), interpreted.len());
    for (mut r, i) in replayed.into_iter().zip(&interpreted) {
        assert_eq!((&r.result, &r.choices), (&i.result, &i.choices));
        let Some(replay) = r.replay else { continue };
        seen.answered += 1;
        let installs = replay
            .slots()
            .iter()
            .all(|&(_, d, _)| interner.get(d).is_some());
        seen.installed += usize::from(installs);
        let fold = replay.digest;
        memo.build(&mut r.config, &mut r.replay, config, engine, interner);
        let built = r.config.expect("built above");
        assert_eq!(fold, built.digest_uncached());
        assert_eq!(Some(built), i.config);
    }
    interpreted
}

/// A seeded walk through every corpus program and the three buggy
/// variants: wherever the memo answers, its answer is the run it
/// stands for, whether the child is built from interned states or
/// (where the interner lacks one) by the interpreter.
#[test]
fn a_replayed_run_is_the_run_it_stands_for() {
    let buggy = [
        ("elevator_buggy", p_corpus::elevator_buggy()),
        ("switch_led_buggy", p_corpus::switch_led_buggy()),
        ("german_buggy", p_corpus::german_buggy()),
    ];
    let mut total = Replays::default();
    for (n, (name, program)) in p_corpus::all().into_iter().chain(buggy).enumerate() {
        let p = lower(&program).unwrap();
        let engine = Verifier::new(&p).engine().with_dequeue_log(false);
        let mut memo = crate::succ::SuccArena::with_memo(Some((1 << 10, 1 << 10)));
        let mut interner = p_semantics::SlotInterner::new();
        let mut walk = p_ast::Draws::new(n as u64);
        let init = engine.initial_config();
        let mut config = init.clone();
        let mut seen = Replays::default();
        for _ in 0..1_500 {
            config.intern_slots(&mut interner);
            let mut next = Vec::new();
            for id in engine.enabled_machines(&config) {
                let succs = compare_replays(&engine, &config, id, &mut memo, &interner, &mut seen);
                let ok = |s: &crate::succ::Successor| {
                    !matches!(s.result.outcome, p_semantics::ExecOutcome::Error(_))
                };
                next.extend(succs.into_iter().filter(ok));
            }
            config = match next.len() {
                0 => init.clone(),
                n => *next.swap_remove(walk.below(n)).config.unwrap(),
            };
        }
        assert!(seen.answered > 0, "{name}: the memo answered nothing");
        total.answered += seen.answered;
        total.installed += seen.installed;
    }
    // Both ways of building a replayed child were taken.
    assert!(
        0 < total.installed && total.installed < total.answered,
        "{total:?}"
    );
}

/// Each of the runs the memo must leave to the interpreter, and the
/// ones it answers only after seeing the target's queue, driven by hand
/// from a configuration the memo has seen: `(program, machines to run
/// first, the machine whose run is compared, the configurations before
/// it)`. Each program is also checked whole against the reference.
#[test]
fn memo_bypasses_match_the_interpreter() {
    use p_semantics::{ExecOutcome, MachineId, YieldKind};
    // Env sends `die`, then `job`, to a Worker that deletes itself on
    // `die`: Env's second run is the same run whether or not the Worker
    // is still there, and only the interpreter may report SEND-FAIL2.
    const SEND_FAIL: &str = r#"
        event job;
        event die;
        machine Worker {
            state Idle { on job goto Idle; on die goto Dying; }
            state Dying { entry { delete; } }
        }
        ghost machine Env {
            var w : id;
            state Init { entry { w := new Worker(); send(w, die); send(w, job); } }
        }
        main Env();
    "#;
    // Two senders in one state put `e` with payloads 1 and 1 (or 2) on a
    // target that defers `e`: the second send finds the first's pair
    // queued (⊕ drops it) or another pair, depending on the order.
    const TWO_SENDERS: &str = r#"
        event e : int;
        ghost machine Target { state T { defer e; } }
        ghost machine Sender {
            var t : id;
            var v : int;
            state S { entry { send(t, e, v); send(this, e, v); } defer e; }
        }
        ghost machine Main {
            var t : id;
            var s : id;
            state Init {
                entry { t := new Target(); s := new Sender(t = t, v = 1); s := new Sender(t = t, v = PAYLOAD); }
            }
        }
        main Main();
    "#;
    let run = |engine: &p_semantics::Engine<'_>, config: &mut p_semantics::Config, id: u32| {
        engine
            .run_machine(
                config,
                MachineId(id),
                &mut || false,
                p_semantics::Granularity::Atomic,
            )
            .unwrap()
            .outcome
    };
    let suppressed = TWO_SENDERS.replace("PAYLOAD", "1");
    let differing = TWO_SENDERS.replace("PAYLOAD", "2");
    for (name, src) in [
        ("send_fail", SEND_FAIL),
        ("suppressed", &suppressed),
        ("differing", &differing),
    ] {
        let program = p_parser::parse(src).unwrap();
        p_typecheck::check(&program).unwrap();
        assert!(kernel_agrees_with_the_reference(name, &program, 1_000).is_some());
    }

    let memo_arena = || crate::succ::SuccArena::with_memo(Some((16, 16)));
    let mut interner = p_semantics::SlotInterner::new();
    let mut seen = Replays::default();

    // SEND-FAIL2: the run is remembered with the Worker alive, and with
    // it deleted the memo passes the run to the interpreter.
    let p = lowered(SEND_FAIL);
    let engine = Verifier::new(&p).engine().with_dequeue_log(false);
    let mut memo = memo_arena();
    let mut alive = engine.initial_config();
    for id in [0, 1, 0] {
        run(&engine, &mut alive, id);
    }
    alive.intern_slots(&mut interner);
    let mut dead = alive.clone();
    assert_eq!(run(&engine, &mut dead, 1), ExecOutcome::Deleted);
    dead.intern_slots(&mut interner);
    let mut init = engine.initial_config();
    init.intern_slots(&mut interner);
    for _ in 0..2 {
        let new_run = compare_replays(
            &engine,
            &init,
            MachineId(0),
            &mut memo,
            &interner,
            &mut seen,
        );
        assert!(matches!(
            new_run[0].result.outcome,
            ExecOutcome::Yield(YieldKind::Created { .. })
        ));
    }
    assert_eq!(seen.answered, 0, "`new` is never remembered");
    for _ in 0..2 {
        compare_replays(
            &engine,
            &alive,
            MachineId(0),
            &mut memo,
            &interner,
            &mut seen,
        );
    }
    assert_eq!(seen.answered, 1, "a send to a live machine is");
    let failed = compare_replays(
        &engine,
        &dead,
        MachineId(0),
        &mut memo,
        &interner,
        &mut seen,
    );
    assert_eq!(seen.answered, 1, "SEND-FAIL2 is the interpreter's");
    assert!(
        matches!(&failed[0].result.outcome, ExecOutcome::Error(e) if matches!(e.kind, ErrorKind::SendToDeleted { .. }))
    );
    // And the counterexample is the one the interpreter alone gave.
    let cx = Verifier::new(&p)
        .try_check_exhaustive()
        .unwrap()
        .counterexample
        .unwrap();
    assert_eq!(
        cx.to_string(),
        "error: machine #0: send to deleted machine #1\ntrace (5 steps):\n    1. machine #0: created #1 of type Worker\n    2. machine #1: ran to quiescence\n    3. machine #0: sent die to #1\n    4. machine #1: deleted itself\n    5. machine #0: ERROR: machine #0: send to deleted machine #1\n"
    );

    for (src, first_enqueued) in [(&suppressed, false), (&differing, true)] {
        // Sender #2 sends first, then sender #3 from the same state
        // finds the target's queue changed; a self-send follows.
        let p = lowered(src);
        let engine = Verifier::new(&p).engine().with_dequeue_log(false);
        let mut memo = memo_arena();
        let mut seen = Replays::default();
        let mut fresh = engine.initial_config();
        for _ in 0..3 {
            run(&engine, &mut fresh, 0);
        }
        fresh.intern_slots(&mut interner);
        let mut after = fresh.clone();
        run(&engine, &mut after, 2);
        after.intern_slots(&mut interner);
        compare_replays(
            &engine,
            &fresh,
            MachineId(3),
            &mut memo,
            &interner,
            &mut seen,
        );
        compare_replays(
            &engine,
            &after,
            MachineId(3),
            &mut memo,
            &interner,
            &mut seen,
        );
        assert_eq!(seen.answered, 0, "another target queue is another append");
        let again = compare_replays(
            &engine,
            &after,
            MachineId(3),
            &mut memo,
            &interner,
            &mut seen,
        );
        assert_eq!(seen.answered, 1);
        let ExecOutcome::Yield(YieldKind::Sent { enqueued, .. }) = again[0].result.outcome else {
            panic!("{:?}", again[0].result.outcome)
        };
        assert_eq!(enqueued, first_enqueued);
        // The self-send from the child.
        let mut sent = after.clone();
        run(&engine, &mut sent, 3);
        sent.intern_slots(&mut interner);
        compare_replays(
            &engine,
            &sent,
            MachineId(3),
            &mut memo,
            &interner,
            &mut seen,
        );
        compare_replays(
            &engine,
            &sent,
            MachineId(3),
            &mut memo,
            &interner,
            &mut seen,
        );
        assert_eq!(seen.answered, 2, "a self-send is remembered");
    }
}

/// The visited table routes a key to one of 64 shards by its top six
/// bits, which balances only if canonical keys are uniform there. Over
/// the reachable orbits of german4 (518 a shard; uniform keys put the
/// fullest within three standard deviations, 1.14 × the mean) every
/// shard must hold between 3/4 and 5/4 of the mean. When a key was the
/// minimum of the k! candidate digests of k idle clients, the shards
/// ran from 1.8 × the mean (shard 0) down to 0.43 × (shard 62).
#[test]
fn canonical_keys_fill_the_shards_evenly() {
    const SHARDS: usize = 64;
    let p = lower(&p_corpus::german4()).unwrap();
    let (_, seen) = reachable_keys(&p, 50_000, p_semantics::canonical_digest).unwrap();
    let mut fill = [0usize; SHARDS];
    for &key in &seen {
        fill[crate::fingerprint::Fingerprint::from_u128(key).shard(SHARDS)] += 1;
    }
    let mean = seen.len() / SHARDS;
    assert!(seen.len() > 30_000, "{} orbits", seen.len());
    assert!(
        fill.iter().all(|&n| 3 * mean <= 4 * n && 4 * n <= 5 * mean),
        "mean {mean}: {fill:?}"
    );
}

/// A single-threaded visited set with a state bound, counting only
/// retained states: the store the delay-bounded and fault strategies had
/// before they ran on the kernel, kept as the reference's.
#[derive(Debug)]
pub(crate) struct BoundedSet {
    seen: FpHashSet,
    stored_bytes: usize,
    max: usize,
}

impl BoundedSet {
    /// An empty set admitting at most `max` states (at least one, so the
    /// initial state is always representable).
    pub(crate) fn new(max: usize) -> BoundedSet {
        BoundedSet {
            seen: FpHashSet::default(),
            stored_bytes: 0,
            max: max.max(1),
        }
    }

    /// An unbounded set (for node spaces whose size is already bounded
    /// by a bounded configuration space times a finite annotation).
    pub(crate) fn unbounded() -> BoundedSet {
        BoundedSet::new(usize::MAX)
    }

    /// Offers a state; `bytes` produces the state's stored byte cost,
    /// and is invoked only when the state is actually retained. The
    /// laziness is what makes intern-aware accounting possible: the
    /// caller's closure interns the admitted configuration's slots and
    /// returns only the *marginal* bytes (shared slots count once,
    /// the first time any state stores them).
    pub(crate) fn admit(&mut self, fp: Fingerprint, bytes: impl FnOnce() -> usize) -> Admit {
        // Below the bound (the overwhelmingly common case) a single
        // `insert` answers new-vs-seen in one lookup. At the bound, fall
        // back to `contains` so a dropped state is never marked visited.
        if self.seen.len() >= self.max {
            if self.seen.contains(&fp) {
                return Admit::Covered { merged: false };
            }
            return Admit::OverBound;
        }
        if self.seen.insert(fp) {
            self.stored_bytes += bytes();
            Admit::New
        } else {
            Admit::Covered { merged: false }
        }
    }

    /// Retained states.
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }

    /// Canonical-encoding bytes of the retained states.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }
}

/// `child → (parent, step)` edges for counterexample reconstruction,
/// keyed by fingerprint: the reference the task paths are compared
/// against.
#[derive(Debug, Default)]
pub(crate) struct ParentMap {
    map: FpHashMap<(Fingerprint, StepSeed)>,
}

impl ParentMap {
    pub(crate) fn new() -> ParentMap {
        ParentMap::default()
    }

    /// Records how `child` was first reached.
    pub(crate) fn record(&mut self, child: Fingerprint, parent: Fingerprint, step: StepSeed) {
        self.map.insert(child, (parent, step));
    }

    /// Walks the parent edges from the initial state to `state`,
    /// rendering the stored seeds into human-readable steps.
    pub(crate) fn reconstruct(
        &self,
        mut state: Fingerprint,
        program: &p_semantics::LoweredProgram,
    ) -> Vec<TraceStep> {
        let mut steps = Vec::new();
        while let Some((parent, step)) = self.map.get(&state) {
            steps.push(step.render(program));
            state = *parent;
        }
        steps.reverse();
        steps
    }
}

/// What the kernel and the reference loops are compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    states: usize,
    transitions: usize,
    nodes: usize,
    fault_transitions: usize,
    counterexample: Option<crate::Counterexample>,
}

impl Outcome {
    fn of(report: crate::Report) -> Outcome {
        Outcome {
            states: report.stats.unique_states,
            transitions: report.stats.transitions,
            nodes: report.stats.scheduler_nodes,
            fault_transitions: report.stats.fault_transitions,
            counterexample: report.counterexample,
        }
    }
}

/// The key both reference loops give a (configuration, annotation) node.
fn reference_key(config_digest: u128, annotation: impl FnOnce(&mut Vec<u8>)) -> Fingerprint {
    let mut bytes = config_digest.to_le_bytes().to_vec();
    annotation(&mut bytes);
    Fingerprint::of(&bytes)
}

/// The delay-bounded search as it was before it ran on the kernel: its
/// own depth-first loop over a [`BoundedSet`] of configurations, a
/// second one of nodes and a [`ParentMap`].
fn reference_delay_bounded(verifier: &Verifier<'_>, delay_bound: usize) -> Outcome {
    use crate::delay::SchedulerState;
    use crate::explore::Scheduler as _;
    let engine = verifier.engine();
    let options = verifier.options();
    let node_fingerprint = |digest, sched: &SchedulerState| {
        reference_key(digest, |out| crate::delay::DelayBounded::encode(sched, out))
    };
    let mut transitions = 0;

    let mut init = engine.initial_config();
    let init_sched = SchedulerState::initial();
    let mut config_states = BoundedSet::new(options.max_states);
    let (init_digest, init_len) = init.digest_and_len();
    config_states.admit(Fingerprint::from_u128(init_digest), || init_len);
    let mut node_seen = BoundedSet::unbounded();
    let init_node_fp = node_fingerprint(init_digest, &init_sched);
    node_seen.admit(init_node_fp, || 0);

    let mut parents = ParentMap::new();
    let mut stack = vec![(init, init_sched, init_node_fp, 0)];
    let mut counterexample = None;
    'search: while let Some((config, mut sched, nfp, depth)) = stack.pop() {
        if depth >= options.max_depth {
            continue;
        }
        sched.normalize(&engine, &config);
        if sched.stack.is_empty() {
            continue; // quiescent
        }
        let remaining = delay_bound.saturating_sub(sched.delays);
        let max_rot = remaining.min(sched.stack.len().saturating_sub(1));
        for r in 0..=max_rot {
            let rotated = sched.rotated(r);
            let &machine = rotated.stack.front().expect("normalized non-empty stack");
            let succs = successors_for(&engine, &config, machine, options.granularity);
            for mut succ in succs.unwrap() {
                transitions += 1;
                let choices = std::mem::take(&mut succ.choices);
                if let p_semantics::ExecOutcome::Error(e) = &succ.result.outcome {
                    let mut trace = parents.reconstruct(nfp, verifier.program());
                    let program = verifier.program();
                    trace.push(TraceStep::from_run(program, machine, &succ.result, choices));
                    let error = e.clone();
                    counterexample = Some(crate::Counterexample { error, trace });
                    break 'search;
                }
                let mut next_sched = rotated.clone();
                next_sched.advance(&succ.result.outcome);
                let mut child = *succ
                    .config
                    .take()
                    .expect("no memo: every successor is built");
                let (digest, len) = child.digest_and_len();
                // Bound check BEFORE marking visited.
                if config_states.admit(Fingerprint::from_u128(digest), || len) == Admit::OverBound {
                    continue;
                }
                let nfp2 = node_fingerprint(digest, &next_sched);
                if node_seen.admit(nfp2, || 0) == Admit::New {
                    let seed = StepSeed::from_run(machine, &succ.result, choices);
                    parents.record(nfp2, nfp, seed);
                    stack.push((child, next_sched, nfp2, depth + 1));
                }
            }
        }
    }
    Outcome {
        states: config_states.len(),
        transitions,
        nodes: node_seen.len(),
        fault_transitions: 0,
        counterexample,
    }
}

/// The fault-injecting search as it was before it ran on the kernel.
fn reference_with_faults(
    verifier: &Verifier<'_>,
    budget: usize,
    kinds: &[crate::FaultKind],
) -> Outcome {
    use crate::fault::FaultScheduler;
    let scheduler = FaultScheduler::new(budget, kinds);
    let engine = verifier.engine();
    let options = verifier.options();
    let node_fingerprint =
        |digest, used: usize| reference_key(digest, |out| out.extend((used as u64).to_le_bytes()));
    let (mut transitions, mut fault_transitions) = (0, 0);

    let mut init = engine.initial_config();
    let (init_digest, init_len) = init.digest_and_len();
    let mut config_states = BoundedSet::new(options.max_states);
    config_states.admit(Fingerprint::from_u128(init_digest), || init_len);
    let mut node_seen = BoundedSet::unbounded();
    let init_node = node_fingerprint(init_digest, 0);
    node_seen.admit(init_node, || 0);

    let mut parents = ParentMap::new();
    // (configuration, faults used, node fingerprint, depth)
    let mut stack = vec![(init, 0, init_node, 0)];
    let mut counterexample = None;
    'search: while let Some((config, used, nfp, depth)) = stack.pop() {
        if depth >= options.max_depth {
            continue;
        }
        // Machine transitions (fault count unchanged).
        for id in engine.enabled_machines(&config) {
            let succs = successors_for(&engine, &config, id, options.granularity);
            for mut succ in succs.unwrap() {
                transitions += 1;
                let choices = std::mem::take(&mut succ.choices);
                if let p_semantics::ExecOutcome::Error(e) = &succ.result.outcome {
                    let program = verifier.program();
                    let mut trace = parents.reconstruct(nfp, program);
                    trace.push(TraceStep::from_run(program, id, &succ.result, choices));
                    let error = e.clone();
                    counterexample = Some(crate::Counterexample { error, trace });
                    break 'search;
                }
                let mut child = *succ
                    .config
                    .take()
                    .expect("no memo: every successor is built");
                let (digest, len) = child.digest_and_len();
                if config_states.admit(Fingerprint::from_u128(digest), || len) == Admit::OverBound {
                    continue;
                }
                let nfp2 = node_fingerprint(digest, used);
                if node_seen.admit(nfp2, || 0) == Admit::New {
                    parents.record(nfp2, nfp, StepSeed::from_run(id, &succ.result, choices));
                    stack.push((child, used, nfp2, depth + 1));
                }
            }
        }
        // Fault transitions (consume one unit of budget).
        for decision in scheduler.faults_for(&config, used) {
            transitions += 1;
            fault_transitions += 1;
            let mut faulted = config.clone();
            FaultScheduler::apply(&decision, &mut faulted).unwrap();
            let (digest, len) = faulted.digest_and_len();
            if config_states.admit(Fingerprint::from_u128(digest), || len) == Admit::OverBound {
                continue;
            }
            let nfp2 = node_fingerprint(digest, used + 1);
            if node_seen.admit(nfp2, || 0) == Admit::New {
                parents.record(nfp2, nfp, StepSeed::from_fault(&decision));
                stack.push((faulted, used + 1, nfp2, depth + 1));
            }
        }
    }
    Outcome {
        states: config_states.len(),
        transitions,
        nodes: node_seen.len(),
        fault_transitions,
        counterexample,
    }
}

/// The folded strategies against the loops they replaced, on every
/// corpus program of at most 20 000 configurations: states, transitions,
/// nodes, injections, verdict and — one worker is deterministic — the
/// first counterexample, step for step.
#[test]
fn kernel_matches_the_reference_loops() {
    let buggy = [
        ("elevator_buggy", p_corpus::elevator_buggy()),
        ("switch_led_buggy", p_corpus::switch_led_buggy()),
        ("german_buggy", p_corpus::german_buggy()),
    ];
    let mut compared = 0;
    for (name, program) in p_corpus::all().into_iter().chain(buggy) {
        let p = lower(&program).unwrap();
        if naive_reachability(&p, 20_000).is_none() {
            continue;
        }
        compared += 1;
        let verifier = Verifier::new(&p);
        for d in 0..=3 {
            let kernel = verifier.try_check_delay_bounded(d).unwrap();
            let reference = reference_delay_bounded(&verifier, d);
            assert_eq!(Outcome::of(kernel), reference, "{name} --delay {d}");
        }
        for budget in 0..=1 {
            let kernel = verifier.try_check_with_faults(budget, &[]).unwrap();
            let reference = reference_with_faults(&verifier, budget, &[]);
            assert_eq!(Outcome::of(kernel), reference, "{name} --faults {budget}");
        }
    }
    assert!(
        compared >= 10,
        "the state limit skipped too much: {compared}"
    );
}

/// The bound is on configurations, before the insert, for the annotated
/// strategies as for the exhaustive one: the reference and the kernel
/// truncate at the same counts, and no worker count retains more.
#[test]
fn annotated_searches_respect_the_state_bound() {
    let p = lower(&p_corpus::german3()).unwrap();
    let options = |jobs| CheckerOptions {
        max_states: 500,
        jobs,
        ..CheckerOptions::default()
    };
    let verifier = Verifier::new(&p).with_options(options(1));
    let delayed = verifier.try_check_delay_bounded(2).unwrap();
    assert!(delayed.stats.truncated && !delayed.complete);
    assert_eq!(delayed.stats.unique_states, 500);
    assert_eq!(Outcome::of(delayed), reference_delay_bounded(&verifier, 2));
    let faulty = verifier
        .try_check_with_faults(1, &[crate::FaultKind::Dup])
        .unwrap();
    assert!(faulty.stats.truncated);
    assert_eq!(
        Outcome::of(faulty),
        reference_with_faults(&verifier, 1, &[crate::FaultKind::Dup])
    );
    let parallel = Verifier::new(&p).with_options(options(4));
    let delayed = parallel.try_check_delay_bounded(2).unwrap();
    assert!(delayed.stats.truncated && delayed.passed());
    assert_eq!(delayed.stats.unique_states, 500);
}

/// `por` and `symmetry` are refused for the annotated strategies, by the
/// kernel and with a typed error — not applied, and not ignored.
#[test]
fn annotated_searches_refuse_por_and_symmetry() {
    let p = lowered(RACE);
    for (por, symmetry) in [(true, false), (false, true)] {
        let options = CheckerOptions {
            por,
            symmetry,
            ..CheckerOptions::default()
        };
        let verifier = Verifier::new(&p).with_options(options);
        assert!(matches!(
            verifier.try_check_delay_bounded(1),
            Err(crate::CheckerError::Unsupported(_))
        ));
        assert!(matches!(
            verifier.try_check_with_faults(1, &[]),
            Err(crate::CheckerError::Unsupported(_))
        ));
        assert!(verifier.try_check_exhaustive().is_ok());
    }
}

/// Every successor of running `machine` from `config`, each interpreted
/// into a configuration of its own (no memo): the reference loops' and
/// the unit tests' way of expanding a state.
pub(crate) fn successors_for(
    engine: &p_semantics::Engine<'_>,
    config: &p_semantics::Config,
    machine: p_semantics::MachineId,
    granularity: p_semantics::Granularity,
) -> Result<Vec<crate::succ::Successor>, p_semantics::ExecError> {
    let mut out = Vec::new();
    let mut arena = crate::succ::SuccArena::default();
    crate::succ::successors_into(engine, config, machine, granularity, &mut out, &mut arena)?;
    Ok(out)
}

/// The liveness check as it was before it ran on the kernel: its own
/// depth-first loop builds the graph over a map of fingerprints to
/// discovery indices, keeping every configuration and edge; a colour DFS
/// finds each machine's cycles. Machines and events are visited in
/// ascending order (the loop once walked hash sets, in no fixed order).
fn reference_liveness(verifier: &Verifier<'_>) -> crate::LivenessReport {
    use std::collections::{BTreeSet, HashMap, HashSet};
    struct Edge {
        to: usize,
        machine: p_semantics::MachineId,
        dequeued: Vec<p_semantics::EventId>,
    }
    let engine = verifier.engine();
    let program = verifier.program();
    let mut stats = crate::ExplorationStats::default();

    let mut init = engine.initial_config();
    let mut index: HashMap<Fingerprint, usize> = HashMap::new();
    index.insert(Fingerprint::from_u128(init.digest()), 0);
    let mut configs = vec![init];
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new()];
    let mut worklist = vec![0usize];
    while let Some(n) = worklist.pop() {
        if configs.len() > verifier.options().max_states {
            stats.truncated = true;
            break;
        }
        let config = configs[n].clone();
        for id in engine.enabled_machines(&config) {
            let granularity = verifier.options().granularity;
            for succ in successors_for(&engine, &config, id, granularity).unwrap() {
                stats.transitions += 1;
                if matches!(succ.result.outcome, p_semantics::ExecOutcome::Error(_)) {
                    continue; // terminal for liveness purposes
                }
                let mut child = *succ.config.expect("no memo: every successor is built");
                let h = Fingerprint::from_u128(child.digest());
                let to = *index.entry(h).or_insert_with(|| {
                    configs.push(child);
                    edges.push(Vec::new());
                    worklist.push(configs.len() - 1);
                    configs.len() - 1
                });
                let dequeued = succ.result.dequeued.clone();
                edges[n].push(Edge {
                    to,
                    machine: id,
                    dequeued,
                });
            }
        }
    }
    stats.unique_states = configs.len();

    // Iterative Tarjan over the whole graph.
    let n = configs.len();
    let (mut counter, mut indices, mut lowlink) = (0, vec![usize::MAX; n], vec![0; n]);
    let (mut on_stack, mut stack, mut sccs) = (vec![false; n], Vec::new(), Vec::new());
    for root in 0..n {
        if indices[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor == 0 {
                indices[v] = counter;
                lowlink[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < edges[v].len() {
                let w = edges[v][*cursor].to;
                *cursor += 1;
                if indices[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(indices[w]);
                }
            } else {
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == indices[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }

    // Whether machine `m`'s own edges contain a cycle within `scc`.
    let single_machine_cycle = |scc: &[usize], m| {
        let in_scc: HashSet<usize> = scc.iter().copied().collect();
        let own = |n: usize| -> Vec<usize> {
            let own = edges[n]
                .iter()
                .filter(|e| e.machine == m && in_scc.contains(&e.to));
            own.map(|e| e.to).collect()
        };
        if scc.iter().any(|&n| own(n).contains(&n)) {
            return true;
        }
        // 0 white, 1 grey, 2 black.
        let mut colour: HashMap<usize, u8> = scc.iter().map(|&n| (n, 0)).collect();
        for &start in scc {
            if colour[&start] != 0 {
                continue;
            }
            let mut dfs = vec![(start, 0usize)];
            colour.insert(start, 1);
            while let Some(&mut (n, ref mut i)) = dfs.last_mut() {
                let next = own(n);
                if *i < next.len() {
                    let to = next[*i];
                    *i += 1;
                    match colour[&to] {
                        1 => return true,
                        0 => {
                            colour.insert(to, 1);
                            dfs.push((to, 0));
                        }
                        _ => {}
                    }
                } else {
                    colour.insert(n, 2);
                    dfs.pop();
                }
            }
        }
        false
    };

    let mut violations = Vec::new();
    let mut seen = HashSet::new();
    for scc in &sccs {
        let scc_set: HashSet<usize> = scc.iter().copied().collect();
        let internal: Vec<&Edge> = scc
            .iter()
            .flat_map(|&n| &edges[n])
            .filter(|e| scc_set.contains(&e.to))
            .collect();
        if internal.is_empty() {
            continue; // trivial SCC, no cycle
        }
        let machines: BTreeSet<_> = scc.iter().flat_map(|&n| configs[n].live_ids()).collect();
        for &m in &machines {
            if single_machine_cycle(scc, m) && seen.insert(format!("p1:{}", m.0)) {
                let scc_size = scc.len();
                violations.push(LivenessViolation::MachineRunsForever {
                    machine: m,
                    scc_size,
                });
            }
        }
        let scheduled: HashSet<_> = internal.iter().map(|e| e.machine).collect();
        let unfair = machines.iter().any(|&m| {
            scc.iter().all(|&n| engine.enabled(&configs[n], m)) && !scheduled.contains(&m)
        });
        if unfair {
            continue;
        }
        for &m in &machines {
            let mut candidates: Option<BTreeSet<p_semantics::EventId>> = None;
            for &n in scc {
                let events: BTreeSet<_> = configs[n]
                    .machine(m)
                    .map(|ms| ms.queue.iter().map(|&(e, _)| e).collect())
                    .unwrap_or_default();
                candidates = Some(match candidates {
                    None => events,
                    Some(prev) => prev.intersection(&events).copied().collect(),
                });
            }
            let mut candidates = candidates.unwrap_or_default();
            for e in internal.iter().filter(|e| e.machine == m) {
                for ev in &e.dequeued {
                    candidates.remove(ev);
                }
            }
            candidates.retain(|&ev| {
                !scc.iter().any(|&n| {
                    configs[n].machine(m).is_some_and(|ms| {
                        let state = &program.machine(ms.ty).states[ms.current_state().0 as usize];
                        state.postponed.contains(ev)
                    })
                })
            });
            for ev in candidates {
                if seen.insert(format!("p2:{}:{}", m.0, ev.0)) {
                    violations.push(LivenessViolation::EventNeverDequeued {
                        machine: m,
                        event: ev,
                        event_name: program.event_name(ev).to_owned(),
                        scc_size: scc.len(),
                    });
                }
            }
        }
    }
    crate::LivenessReport {
        violations,
        complete: !stats.truncated,
        stats,
    }
}

/// A violation's (kind, machine, event), without its witness's size.
fn violation_key(v: &LivenessViolation) -> (p_semantics::MachineId, Option<p_semantics::EventId>) {
    match v {
        LivenessViolation::MachineRunsForever { machine, .. } => (*machine, None),
        LivenessViolation::EventNeverDequeued { machine, event, .. } => (*machine, Some(*event)),
    }
}

/// The kernel's liveness check of `p` against [`reference_liveness`]:
/// at one worker the same violations in the same order, with the same
/// witness sizes, states, transitions and completeness; at four the same
/// (kind, machine, event) set, states and transitions. `None` when the
/// reference stops at `max_states`, else the kernel's one-worker report.
fn liveness_agrees(
    name: &str,
    p: &LoweredProgram,
    max_states: usize,
) -> Option<crate::LivenessReport> {
    let options = |jobs| CheckerOptions {
        max_states,
        jobs,
        ..CheckerOptions::default()
    };
    let reference = reference_liveness(&Verifier::new(p).with_options(options(1)));
    if !reference.complete {
        return None;
    }
    let counts = |r: &crate::LivenessReport| (r.stats.unique_states, r.stats.transitions);
    let kernel = Verifier::new(p)
        .with_options(options(1))
        .try_check_liveness()
        .unwrap();
    assert_eq!(
        kernel.violations, reference.violations,
        "{name}: violations"
    );
    assert_eq!(
        counts(&kernel),
        counts(&reference),
        "{name}: states, transitions"
    );
    assert!(kernel.complete, "{name}");
    let parallel = Verifier::new(p)
        .with_options(options(4))
        .try_check_liveness()
        .unwrap();
    let keys = |r: &crate::LivenessReport| {
        let keys: std::collections::BTreeSet<_> = r.violations.iter().map(violation_key).collect();
        assert_eq!(keys.len(), r.violations.len(), "{name}: a violation twice");
        keys
    };
    assert_eq!(
        keys(&parallel),
        keys(&reference),
        "{name}: jobs 4 violations"
    );
    assert_eq!(
        counts(&parallel),
        counts(&reference),
        "{name}: jobs 4 counts"
    );
    assert!(parallel.complete, "{name}");
    Some(kernel)
}

/// Generated programs with cycles (`p_corpus::generated_live_src`),
/// through [`liveness_agrees`]: 256 in a debug build, 2 000 in a release
/// one, each capped at 20 000 states; at most 5 % may hit the cap. Each
/// violation kind occurs in at least 2 % of the programs compared, and
/// in some program a `postpone` silences a starvation that the same
/// program without its `postpone`s reports. The corpus programs within
/// the cap (all twelve in a release build) and the inline programs of
/// `tests/liveness_experiments.rs` go through the comparison too.
#[test]
fn generated_programs_agree_on_liveness() {
    let cases = if cfg!(debug_assertions) { 256 } else { 2_000 };
    let (mut compared, mut runs_forever, mut starved, mut silenced) = (0, 0, 0, 0);
    let no_postpone = |src: &str| {
        (0..4).fold(src.to_owned(), |src, e| {
            src.replace(&format!(" postpone e{e};"), "")
        })
    };
    for seed in 0..cases {
        let src = p_corpus::generated_live_src(seed);
        let name = format!("generated_live_src({seed})\n{src}");
        let Some(report) = liveness_agrees(&name, &lowered(&src), 20_000) else {
            continue;
        };
        compared += 1;
        let starves = |r: &crate::LivenessReport| {
            let starving = r
                .violations
                .iter()
                .map(violation_key)
                .filter(|k| k.1.is_some());
            starving.collect::<std::collections::BTreeSet<_>>()
        };
        runs_forever += usize::from(starves(&report).len() < report.violations.len());
        starved += usize::from(!starves(&report).is_empty());
        let bare = no_postpone(&src);
        if bare != src {
            let without = Verifier::new(&lowered(&bare)).try_check_liveness().unwrap();
            silenced += usize::from(!starves(&without).is_subset(&starves(&report)));
        }
    }
    let summary = format!(
        "{compared} of {cases} compared, {runs_forever} run forever, {starved} starve, \
         {silenced} silenced by postpone"
    );
    assert!(compared * 20 >= cases as usize * 19, "{summary}");
    assert!(
        runs_forever * 50 >= compared && starved * 50 >= compared,
        "{summary}"
    );
    assert!(silenced > 0, "{summary}");

    let limit = if cfg!(debug_assertions) {
        20_000
    } else {
        1_000_000
    };
    let mut corpus = 0;
    for (name, program) in p_corpus::all() {
        let p = lower(&program).unwrap();
        corpus += usize::from(liveness_agrees(name, &p, limit).is_some());
    }
    assert!(
        corpus >= 8,
        "{corpus} corpus programs within {limit} states"
    );
    let experiments = include_str!("../../../tests/liveness_experiments.rs");
    let inline: Vec<&str> = experiments
        .split("r#\"")
        .skip(1)
        .map(|rest| rest.split("\"#").next().unwrap())
        .collect();
    assert!(inline.len() >= 4);
    for src in inline {
        assert!(
            liveness_agrees(src, &lowered(src), 20_000).is_some(),
            "{src}"
        );
    }
}

/// `por` and `symmetry` drop edges and rename machines a liveness
/// verdict needs, and a checkpoint does not hold its graph: the liveness
/// search refuses each with a typed error.
#[test]
fn liveness_refuses_por_symmetry_checkpoint_and_resume() {
    let p = lowered(STARVATION);
    let dir = scratch_dir("liveness");
    for options in [
        CheckerOptions {
            por: true,
            ..CheckerOptions::default()
        },
        CheckerOptions {
            symmetry: true,
            ..CheckerOptions::default()
        },
        CheckerOptions {
            checkpoint: Some(crate::CheckpointPolicy::new(&dir)),
            ..CheckerOptions::default()
        },
        CheckerOptions {
            resume: Some(dir.clone()),
            ..CheckerOptions::default()
        },
    ] {
        let refused = Verifier::new(&p).with_options(options).try_check_liveness();
        assert!(
            matches!(refused, Err(crate::CheckerError::Unsupported(_))),
            "{:?}",
            refused.map(|r| r.violations)
        );
    }
    assert!(!dir.exists());
}
