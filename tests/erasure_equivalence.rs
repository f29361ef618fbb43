//! The erasure theorem of §3.3, checked dynamically: erasing ghost
//! machines and variables does not change the behaviour of real machines.
//!
//! We run the *closed* program (ghosts included) under the operational
//! semantics with the causal schedule, record what the ghost environment
//! sent to the real machine, then drive the *erased* program in the
//! execution runtime with exactly those events and compare the real
//! machine's final variables and control state.

use p_core::semantics::{
    lower, Engine, ExecOutcome, ForeignEnv, Granularity, MachineId, Value, YieldKind,
};
use p_core::{Compiled, Runtime};

/// A program where a ghost environment deterministically drives one real
/// machine through transitions, variable updates and an action.
const SRC: &str = r#"
    event start : int;
    event step;
    event finish;

    machine Worker {
        var total : int;
        var steps : int;
        ghost var envRef : id;

        state Idle {
            entry { steps := 0; }
            on start goto Working;
        }

        state Working {
            entry { total := arg; }
            on step do accumulate;
            on finish goto Done;
        }

        state Done {
            entry { assert(total == steps + 10); }
        }

        action accumulate {
            total := total + 1;
            steps := steps + 1;
        }
    }

    ghost machine Env {
        var w : id;
        state Drive {
            entry {
                w := new Worker();
                send(w, start, 10);
                send(w, step);
                send(w, step);
                send(w, step);
                send(w, finish);
            }
        }
    }

    main Env();
"#;

/// Runs the closed program to quiescence under the causal schedule and
/// returns `(events sent to the worker, worker's final (total, steps),
/// final state name)`.
fn run_closed() -> (Vec<(String, Value)>, (Value, Value), String) {
    let program = p_core::parser::parse(SRC).unwrap();
    p_core::typecheck::check(&program).unwrap();
    let lowered = lower(&program).unwrap();
    let engine = Engine::new(&lowered, ForeignEnv::empty());
    let mut config = engine.initial_config();

    let worker_ty = lowered.machine_type_named("Worker").unwrap();
    let mut sent = Vec::new();
    // Causal work stack, exactly like the runtime's drain loop.
    let mut work = vec![MachineId(0)];
    let mut no_choices = || panic!("closed program is deterministic here");
    while let Some(id) = work.pop() {
        if config.machine(id).is_none() || !engine.enabled(&config, id) {
            continue;
        }
        let run = engine
            .run_machine(&mut config, id, &mut no_choices, Granularity::Atomic)
            .unwrap();
        match run.outcome {
            ExecOutcome::Yield(YieldKind::Sent { to, event, .. }) => {
                let receiver_is_worker = config.machine(to).is_some_and(|m| m.ty == worker_ty);
                let sender_is_ghost = lowered
                    .machine(config.machine(id).expect("sender alive").ty)
                    .ghost;
                if receiver_is_worker && sender_is_ghost {
                    // Record the ghost→real stimulus with its payload.
                    let payload = config
                        .machine(to)
                        .unwrap()
                        .queue
                        .last()
                        .map(|&(_, v)| v)
                        .unwrap_or(Value::Null);
                    sent.push((lowered.event_name(event).to_owned(), payload));
                }
                work.push(id);
                work.push(to);
            }
            ExecOutcome::Yield(YieldKind::Created { id: new_id, .. }) => {
                work.push(id);
                work.push(new_id);
            }
            ExecOutcome::Yield(YieldKind::Internal) => work.push(id),
            ExecOutcome::Blocked | ExecOutcome::Deleted => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    let worker_id = config
        .live_ids()
        .find(|&id| config.machine(id).unwrap().ty == worker_ty)
        .expect("worker exists");
    let worker = config.machine(worker_id).unwrap();
    let mt = lowered.machine(worker_ty);
    let total_var = mt
        .var_named(lowered.interner.get("total").unwrap())
        .unwrap();
    let steps_var = mt
        .var_named(lowered.interner.get("steps").unwrap())
        .unwrap();
    let state = lowered
        .state_name(worker_ty, worker.current_state())
        .to_owned();
    (
        sent,
        (
            worker.locals[total_var.0 as usize],
            worker.locals[steps_var.0 as usize],
        ),
        state,
    )
}

#[test]
fn erased_worker_behaves_like_the_closed_one() {
    let (stimuli, (closed_total, closed_steps), closed_state) = run_closed();
    assert_eq!(stimuli.len(), 5, "env sends 5 events");

    // Now the erased program, driven with the recorded stimuli.
    let program = p_core::parser::parse(SRC).unwrap();
    let runtime = Runtime::builder(&program).unwrap().start();
    let worker = runtime.create_machine("Worker", &[]).unwrap();
    for (event, payload) in &stimuli {
        runtime.add_event(worker, event, *payload).unwrap();
    }

    assert_eq!(runtime.read_var(worker, "total"), Some(closed_total));
    assert_eq!(runtime.read_var(worker, "steps"), Some(closed_steps));
    assert_eq!(
        runtime.current_state(worker).as_deref(),
        Some(closed_state.as_str())
    );
}

#[test]
fn closed_verification_also_passes() {
    let compiled = Compiled::from_source(SRC).unwrap();
    let report = compiled.verifier().try_check_exhaustive().unwrap();
    assert!(report.passed(), "{:?}", report.counterexample);
    assert!(report.complete);
}

#[test]
fn erasure_is_idempotent() {
    let program = p_core::parser::parse(SRC).unwrap();
    let once = p_core::typecheck::erase(&program).unwrap();
    let twice = p_core::typecheck::erase(&once).unwrap();
    assert_eq!(
        p_core::ast::print_program(&once),
        p_core::ast::print_program(&twice)
    );
}
