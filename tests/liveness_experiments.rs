//! E6: the two liveness properties of §3.2, end to end. The paper
//! specifies these in LTL and defers checking to future work; this
//! reproduction implements a bounded fair-cycle check.

use p_core::checker::LivenessViolation;
use p_core::{Compiled, Verifier};

fn liveness(src: &str) -> p_core::LivenessReport {
    let compiled = Compiled::from_source(src).unwrap();
    let safety = compiled.verifier().try_check_exhaustive().unwrap();
    assert!(
        safety.passed(),
        "liveness programs must be safe first: {:?}",
        safety.counterexample
    );
    compiled.verifier().try_check_liveness().unwrap()
}

#[test]
fn property_one_machine_running_forever() {
    // A machine that keeps itself enabled forever by self-sends —
    // the ∃m. ◇□ sched(m) violation.
    let report = liveness(
        r#"
        event tick;
        machine Spinner {
            state S {
                entry { send(this, tick); }
                on tick goto S;
            }
        }
        main Spinner();
        "#,
    );
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, LivenessViolation::MachineRunsForever { .. })));
}

#[test]
fn property_two_event_deferred_forever() {
    // `job` is enqueued once and deferred in every state of the busy
    // loop; under fair scheduling it is never dequeued.
    let report = liveness(
        r#"
        event job;
        event tick;
        machine Busy {
            state S {
                defer job;
                entry { send(this, tick); }
                on tick goto S;
            }
        }
        ghost machine Env {
            var b : id;
            state Drive {
                entry { b := new Busy(); send(b, job); }
            }
        }
        main Env();
        "#,
    );
    assert!(report.violations.iter().any(|v| matches!(
        v,
        LivenessViolation::EventNeverDequeued { event_name, .. } if event_name == "job"
    )));
}

#[test]
fn postpone_annotation_documents_accepted_starvation() {
    // §3.2's refinement: annotating the state with `postpone job`
    // removes the property-two violation (the property-one violation for
    // the spinner itself remains — it is a different defect).
    let report = liveness(
        r#"
        event job;
        event tick;
        machine Busy {
            state S {
                defer job;
                postpone job;
                entry { send(this, tick); }
                on tick goto S;
            }
        }
        ghost machine Env {
            var b : id;
            state Drive {
                entry { b := new Busy(); send(b, job); }
            }
        }
        main Env();
        "#,
    );
    assert!(!report
        .violations
        .iter()
        .any(|v| matches!(v, LivenessViolation::EventNeverDequeued { .. })));
}

#[test]
fn responsive_protocols_have_no_liveness_violations() {
    // Request/response ping-pong with bounded stimulus: every event is
    // eventually dequeued and every machine eventually blocks.
    let report = liveness(p_core::corpus::PING_PONG_SRC);
    assert!(report.passed(), "{:?}", report.violations);
    assert!(report.complete);
}

#[test]
fn unfair_cycles_are_not_reported() {
    // Two machines ping-pong forever, but each is disabled while waiting
    // for the other — neither runs forever *without being disabled*, so
    // property one does not fire; and every event is dequeued, so
    // property two does not fire either. This guards against the checker
    // over-approximating.
    let report = liveness(
        r#"
        event ping : id;
        event pong;
        machine Left {
            var right : id;
            state S {
                entry { right := new Right(); send(right, ping, this); }
                on pong goto Again;
            }
            state Again {
                entry { send(right, ping, this); }
                on pong goto Again;
            }
        }
        machine Right {
            var l : id;
            state T {
                on ping do reply;
            }
            action reply { l := arg; send(l, pong); }
        }
        main Left();
        "#,
    );
    assert!(
        !report
            .violations
            .iter()
            .any(|v| matches!(v, LivenessViolation::MachineRunsForever { .. })),
        "alternating machines are each disabled infinitely often: {:?}",
        report.violations
    );
}

#[test]
fn liveness_report_on_elevator_with_budget_one() {
    let program = p_core::corpus::elevator_with_budget(1);
    let lowered = p_core::semantics::lower(&program).unwrap();
    let report = Verifier::new(&lowered).try_check_liveness().unwrap();
    assert!(report.complete);
    // All legitimate deferrals are postponed in the corpus elevator.
    assert!(
        !report
            .violations
            .iter()
            .any(|v| matches!(v, LivenessViolation::EventNeverDequeued { .. })),
        "{:?}",
        report.violations
    );
}
