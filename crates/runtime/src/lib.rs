//! Execution runtime for P programs (§4 of the paper).
//!
//! The pipeline from a checked P program to running code:
//!
//! 1. the static checker validates the program (`p-typecheck`);
//! 2. ghost machines, variables and statements are erased;
//! 3. the erased program is lowered to its table-driven form
//!    (`p-semantics`), the analog of the C tables the paper's compiler
//!    emits;
//! 4. a [`Runtime`] hosts dynamic machine instances, processing events
//!    run-to-completion on the calling thread, exactly like the paper's
//!    driver runtime with its `SMCreateMachine` / `SMAddEvent` /
//!    `SMGetContext` API;
//! 5. an [`Executor`] scales that out: N worker shards, each with one
//!    FIFO inbox bounded per machine and by a credit budget, batches
//!    delivered under the shard's token by its worker or a thief, and a
//!    deadline heap for delayed injections that the workers sweep —
//!    every delivery still one run-to-completion `add_event`;
//! 6. [`DriverHost`] plays the role of the skeletal KMDF interface code,
//!    translating simulated OS callbacks into P events.
//!
//! Because the runtime drives the *same* operational-semantics engine the
//! model checker explores, the schedule it executes is the delay-0 causal
//! schedule of the delay-bounded scheduler (§5) — the claim the paper
//! makes about its runtime, checkable here by construction and by test.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod exec;
mod host;
#[cfg(test)]
mod pump;
mod runtime;
mod shard;
mod slots;
mod timer;

pub use error::RuntimeError;
pub use exec::{
    ExecReport, ExecStats, Executor, ExecutorBuilder, Injection, OverflowPolicy, ShardStats,
};
pub use host::{DeviceHandle, DriverHost};
pub use runtime::{MachineStats, MachineStatus, Runtime, RuntimeBuilder, RuntimeStats};

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::Value;

    const COUNTER: &str = r#"
        event inc;
        event get;
        machine Counter {
            var n : int;
            state Run {
                on inc do bump;
            }
            action bump { n := n + 1; }
        }
        main Counter();
    "#;

    #[test]
    fn create_and_drive_a_machine() {
        let program = p_parser::parse(COUNTER).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime
            .create_machine("Counter", &[("n", Value::Int(10))])
            .unwrap();
        for _ in 0..5 {
            runtime.add_event(id, "inc", Value::Null).unwrap();
        }
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(15)));
        assert_eq!(runtime.events_processed(), 5);
        assert_eq!(runtime.current_state(id).as_deref(), Some("Run"));
    }

    #[test]
    fn unknown_names_are_reported() {
        let program = p_parser::parse(COUNTER).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        assert!(matches!(
            runtime.create_machine("Missing", &[]),
            Err(RuntimeError::UnknownName {
                kind: "machine",
                ..
            })
        ));
        let id = runtime.create_machine("Counter", &[]).unwrap();
        assert!(matches!(
            runtime.add_event(id, "zap", Value::Null),
            Err(RuntimeError::UnknownName { kind: "event", .. })
        ));
        assert!(matches!(
            runtime.create_machine("Counter", &[("missing", Value::Null)]),
            Err(RuntimeError::UnknownName {
                kind: "variable",
                ..
            })
        ));
    }

    #[test]
    fn rejects_ill_typed_programs() {
        let bad = p_parser::parse(
            "machine M { var x : int; state S { entry { x := true; } } } main M();",
        )
        .unwrap();
        assert!(matches!(
            Runtime::builder(&bad),
            Err(RuntimeError::Check(_))
        ));
    }

    #[test]
    fn ghost_parts_are_erased_before_execution() {
        let src = r#"
            event kick;
            machine Driver {
                var count : int;
                ghost var env : id;
                state Run {
                    entry { count := 0; }
                    on kick do note;
                }
                action note { count := count + 1; }
            }
            ghost machine Env {
                var d : id;
                state S { entry { d := new Driver(); send(d, kick); } }
            }
            main Env();
        "#;
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        // Only `Driver` exists at runtime.
        assert!(runtime.program().machine_type_named("Env").is_none());
        let id = runtime.create_machine("Driver", &[]).unwrap();
        runtime.add_event(id, "kick", Value::Null).unwrap();
        assert_eq!(runtime.read_var(id, "count"), Some(Value::Int(1)));
    }

    #[test]
    fn cascading_sends_run_to_completion() {
        // A forwards to B which forwards to C; one add_event drives all
        // three to quiescence on the calling thread.
        // Note: `next == null` would evaluate to ⊥ (operators propagate
        // the undefined value, §3), so reachability of the tail is flagged
        // with an explicit boolean.
        let src = r#"
            event go;
            machine Relay {
                var next : id;
                var has_next : bool;
                var hits : int;
                state Run {
                    on go do forward;
                }
                action forward {
                    hits := hits + 1;
                    if (has_next) { send(next, go); }
                }
            }
            main Relay();
        "#;
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let base = &[("hits", Value::Int(0)), ("has_next", Value::Bool(false))];
        let c = runtime.create_machine("Relay", base).unwrap();
        let b = runtime
            .create_machine(
                "Relay",
                &[
                    ("hits", Value::Int(0)),
                    ("has_next", Value::Bool(true)),
                    ("next", Value::Machine(c)),
                ],
            )
            .unwrap();
        let a = runtime
            .create_machine(
                "Relay",
                &[
                    ("hits", Value::Int(0)),
                    ("has_next", Value::Bool(true)),
                    ("next", Value::Machine(b)),
                ],
            )
            .unwrap();
        runtime.add_event(a, "go", Value::Null).unwrap();
        assert_eq!(runtime.read_var(a, "hits"), Some(Value::Int(1)));
        assert_eq!(runtime.read_var(b, "hits"), Some(Value::Int(1)));
        assert_eq!(runtime.read_var(c, "hits"), Some(Value::Int(1)));
        assert_eq!(runtime.queue_len(c), Some(0));
    }

    #[test]
    fn machine_error_surfaces_from_add_event() {
        let src = r#"
            event boom;
            machine M {
                state S { on boom goto Bad; }
                state Bad { entry { assert(false); } }
            }
            main M();
        "#;
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime.create_machine("M", &[]).unwrap();
        match runtime.add_event(id, "boom", Value::Null) {
            Err(RuntimeError::Machine(e)) => {
                assert_eq!(e.kind, p_semantics::ErrorKind::AssertionFailure);
            }
            other => panic!("expected machine error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_functions_with_context() {
        let src = r#"
            event sample;
            machine Sensor {
                var last : int;
                foreign fn read_hw() : int;
                state Run {
                    on sample do take;
                }
                action take { last := read_hw(); }
            }
            main Sensor();
        "#;
        struct Hw {
            readings: Vec<i64>,
        }
        let program = p_parser::parse(src).unwrap();
        let mut builder = Runtime::builder(&program).unwrap();
        builder.foreign_with_context::<Hw, _>("read_hw", |hw, _args| match hw {
            Some(hw) => Value::Int(hw.readings.pop().unwrap_or(-1)),
            None => Value::Null,
        });
        let runtime = builder.start();
        let id = runtime.create_machine("Sensor", &[]).unwrap();
        runtime.set_context(
            id,
            Box::new(Hw {
                readings: vec![30, 20, 10],
            }),
        );
        runtime.add_event(id, "sample", Value::Null).unwrap();
        assert_eq!(runtime.read_var(id, "last"), Some(Value::Int(10)));
        runtime.add_event(id, "sample", Value::Null).unwrap();
        assert_eq!(runtime.read_var(id, "last"), Some(Value::Int(20)));
        let remaining = runtime.with_context::<Hw, _>(id, |hw| hw.readings.len());
        assert_eq!(remaining, Some(1));
    }

    #[test]
    fn driver_host_lifecycle() {
        let src = r#"
            event PowerUp;
            event RemoveDevice;
            machine Device {
                var powered : bool;
                state Off {
                    entry { powered := false; }
                    on PowerUp goto On;
                    on RemoveDevice goto Removing;
                }
                state On {
                    entry { powered := true; }
                    on RemoveDevice goto Removing;
                }
                state Removing { entry { delete; } }
            }
            main Device();
        "#;
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let host = DriverHost::new(runtime, "Device", "RemoveDevice");
        let d1 = host.add_device(&[]).unwrap();
        let d2 = host.add_device(&[]).unwrap();
        assert_eq!(host.device_count(), 2);
        host.os_event(d1, "PowerUp", Value::Null).unwrap();
        assert_eq!(
            host.runtime()
                .read_var(host.machine_of(d1).unwrap(), "powered"),
            Some(Value::Bool(true))
        );
        let m1 = host.machine_of(d1).unwrap();
        host.remove_device(d1).unwrap();
        assert!(!host.is_attached(d1));
        assert!(!host.runtime().is_alive(m1), "machine must self-delete");
        assert!(host.is_attached(d2));
    }

    #[test]
    fn runtime_is_thread_safe() {
        let program = p_parser::parse(COUNTER).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime
            .create_machine("Counter", &[("n", Value::Int(0))])
            .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let rt = runtime.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        rt.add_event(id, "inc", Value::Null).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(1000)));
        assert_eq!(runtime.events_processed(), 1000);
    }

    #[test]
    fn deferred_events_wait_in_queue() {
        let src = r#"
            event work;
            event open;
            machine Gate {
                var done : int;
                state Closed {
                    defer work;
                    on open goto Open;
                }
                state Open {
                    on work do handle;
                }
                action handle { done := done + 1; }
            }
            main Gate();
        "#;
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime
            .create_machine("Gate", &[("done", Value::Int(0))])
            .unwrap();
        runtime.add_event(id, "work", Value::Null).unwrap();
        assert_eq!(runtime.read_var(id, "done"), Some(Value::Int(0)));
        assert_eq!(runtime.queue_len(id), Some(1));
        // Opening the gate releases the deferred work.
        runtime.add_event(id, "open", Value::Null).unwrap();
        assert_eq!(runtime.read_var(id, "done"), Some(Value::Int(1)));
        assert_eq!(runtime.queue_len(id), Some(0));
    }
}
