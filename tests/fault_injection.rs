//! Regression tests for checker fault injection: a program that is
//! correct without faults but breaks when the environment drops or
//! reorders one message must be caught at `--faults 1` and pass at
//! `--faults 0`, and fault traces must replay deterministically.

use p_core::checker::{FaultKind, ReplayOutcome};
use p_core::Compiled;

fn lossy_link() -> Compiled {
    Compiled::from_program(p_core::corpus::lossy_link()).unwrap()
}

#[test]
fn drop_sensitive_bug_found_at_budget_one_missed_at_zero() {
    let compiled = lossy_link();

    // Fault-free exploration covers every schedule and passes.
    let clean = compiled.verifier().try_check_with_faults(0, &[]).unwrap();
    assert!(clean.passed(), "{:?}", clean.counterexample);
    assert!(clean.complete, "fault-free exploration truncated");
    assert_eq!(clean.stats.fault_transitions, 0);

    // Budget 1 exposes the lost configuration message.
    let faulty = compiled
        .verifier()
        .try_check_with_faults(1, &[FaultKind::Drop])
        .unwrap();
    let cx = faulty
        .counterexample
        .as_ref()
        .expect("a single drop fault must break the handshake");
    assert!(
        cx.trace
            .iter()
            .any(|s| s.summary.starts_with("FAULT: dropped")),
        "the counterexample must record the injected fault:\n{cx}"
    );
}

#[test]
fn fault_traces_replay_round_trip() {
    let compiled = lossy_link();
    for kinds in [
        vec![FaultKind::Drop],
        vec![FaultKind::Delay],
        vec![], // all kinds
    ] {
        let report = compiled
            .verifier()
            .try_check_with_faults(1, &kinds)
            .unwrap();
        let cx = report
            .counterexample
            .expect("one fault breaks the handshake");
        match compiled.verifier().replay(&cx) {
            ReplayOutcome::Reproduced(e) => assert_eq!(e, cx.error),
            other => panic!("fault trace must replay ({kinds:?}): {other:?}\n{cx}"),
        }
        // The last good state is reachable through the fault prefix.
        let last_good = compiled
            .verifier()
            .replay_to_last_good(&cx)
            .expect("fault prefix replays");
        assert!(last_good.live_ids().count() >= 1);
    }
}

#[test]
fn dup_tolerant_program_passes_dup_faults() {
    // lossy_link handles a re-delivered cfg (`on cfg do ignore`) and
    // counts duplicated data without asserting, so dup-only injection
    // finds nothing even with budget 2.
    let compiled = lossy_link();
    let report = compiled
        .verifier()
        .try_check_with_faults(2, &[FaultKind::Dup])
        .unwrap();
    assert!(
        report.passed(),
        "dup faults are tolerated by design: {:?}",
        report.counterexample
    );
    assert!(
        report.stats.fault_transitions > 0,
        "dup faults were explored"
    );
}

#[test]
fn fault_budget_scales_exploration() {
    let compiled = lossy_link();
    let b0 = compiled
        .verifier()
        .try_check_with_faults(0, &[FaultKind::Dup])
        .unwrap();
    let b1 = compiled
        .verifier()
        .try_check_with_faults(1, &[FaultKind::Dup])
        .unwrap();
    let b2 = compiled
        .verifier()
        .try_check_with_faults(2, &[FaultKind::Dup])
        .unwrap();
    assert!(b1.stats.scheduler_nodes > b0.stats.scheduler_nodes);
    assert!(b2.stats.scheduler_nodes > b1.stats.scheduler_nodes);
}

#[test]
fn correct_corpus_programs_pass_one_dropped_stimulus() {
    // Robustness sweep: losing a ping or a pong stalls the ping_pong
    // protocol but violates no safety property, so fault injection must
    // not raise a false alarm on it.
    let compiled = Compiled::from_source(p_core::corpus::PING_PONG_SRC).unwrap();
    let report = compiled
        .verifier()
        .try_check_with_faults(1, &[FaultKind::Drop])
        .unwrap();
    assert!(
        report.passed(),
        "dropping one message must not violate ping_pong safety: {:?}",
        report.counterexample
    );
}

/// What the fault-injecting search reported while it still had a loop, a
/// visited set and a parent map of its own: `(states, transitions, fault
/// nodes, injections)`. The kernel must not move them — at one worker,
/// at four (so `fault_transitions` is an exact, flushed counter), and
/// with the visited set on disk.
#[test]
fn pinned_counts_hold_at_every_worker_count_and_under_a_memory_limit() {
    use p_core::corpus;
    let rows = [
        (
            "elevator",
            corpus::elevator(),
            (1, FaultKind::Drop),
            (5_115, 25_190, 7_153, 4_297),
        ),
        (
            "ping_pong",
            corpus::ping_pong(),
            (2, FaultKind::Dup),
            (111, 392, 187, 112),
        ),
        (
            "lossy_link",
            corpus::lossy_link(),
            (2, FaultKind::Dup),
            (222, 556, 261, 178),
        ),
    ];
    for (name, program, (budget, kind), pinned) in rows {
        let compiled = Compiled::from_program(program).unwrap();
        for jobs in [1, 4] {
            for mem_limit in [None, Some(256 << 10)] {
                let options = p_core::CheckerOptions {
                    jobs,
                    mem_limit,
                    ..p_core::CheckerOptions::default()
                };
                let verifier = compiled.verifier().with_options(options);
                let r = verifier.try_check_with_faults(budget, &[kind]).unwrap();
                let cell = format!("{name} jobs={jobs} mem_limit={mem_limit:?}");
                assert!(r.passed() && r.complete, "{cell}");
                let stats = &r.stats;
                assert_eq!(
                    (
                        stats.unique_states,
                        stats.transitions,
                        stats.scheduler_nodes,
                        stats.fault_transitions
                    ),
                    pinned,
                    "{cell}"
                );
            }
        }
    }
}

/// The budget-1 counterexample of lossy_link, rendered from the path its
/// task carries — in RAM, under a memory limit, and whichever of four
/// workers finds it — is the six steps it always was, with the dropped
/// `cfg` as step 4, and replays on the interpreter.
#[test]
fn fault_counterexample_is_reconstructed_through_its_path() {
    let compiled = lossy_link();
    let expected = "error: machine #1: unhandled event #1\n\
        trace (6 steps):\n    \
          1. machine #0: created #1 of type Sink\n    \
          2. machine #1: ran to quiescence\n    \
          3. machine #0: sent cfg to #1\n    \
          4. machine #1: FAULT: dropped cfg from queue[0]\n    \
          5. machine #0: sent data to #1\n    \
          6. machine #1: ERROR: machine #1: unhandled event #1\n";
    for jobs in [1, 4] {
        for mem_limit in [None, Some(256 << 10)] {
            let options = p_core::CheckerOptions {
                jobs,
                mem_limit,
                ..p_core::CheckerOptions::default()
            };
            let verifier = compiled.verifier().with_options(options);
            let report = verifier
                .try_check_with_faults(1, &[FaultKind::Drop])
                .unwrap();
            let cx = report.counterexample.expect("one drop breaks it");
            if jobs == 1 {
                assert_eq!(cx.to_string(), expected, "mem_limit={mem_limit:?}");
                assert_eq!(report.stats.unique_states, 10);
                assert_eq!(
                    (report.stats.scheduler_nodes, report.stats.fault_transitions),
                    (10, 1)
                );
            }
            assert!(
                cx.trace
                    .iter()
                    .any(|s| s.summary.starts_with("FAULT: dropped")),
                "{cx}"
            );
            match compiled.verifier().replay(&cx) {
                ReplayOutcome::Reproduced(e) => assert_eq!(e, cx.error),
                other => panic!("jobs={jobs} mem_limit={mem_limit:?}: {other:?}\n{cx}"),
            }
        }
    }
}
