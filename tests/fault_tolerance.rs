//! Fault-tolerance tests of the execution runtime: a panicking machine
//! is quarantined while the rest of the runtime keeps running, and the
//! shared state survives concurrent failures without lock poisoning.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use p_core::runtime::{Executor, Injection, RuntimeError};
use p_core::runtime::{MachineStatus, Runtime};
use p_core::Value;

/// Two machine types: `Fragile` calls a foreign function that panics on
/// demand, `Steady` just counts.
const MIXED: &str = r#"
    event tick;
    event poke;
    machine Steady {
        var n : int;
        state Run { on tick do bump; }
        action bump { n := n + 1; }
    }
    machine Fragile {
        var m : int;
        foreign fn risky() : int;
        state Run { on poke do hit; }
        action hit { m := m + risky(); }
    }
    main Steady();
"#;

fn mixed_runtime(blow_up: Arc<AtomicBool>) -> Runtime {
    let program = p_core::parser::parse(MIXED).unwrap();
    let mut builder = Runtime::builder(&program).unwrap();
    builder.foreign("risky", move |_args| {
        if blow_up.load(Ordering::SeqCst) {
            panic!("simulated foreign-function crash");
        }
        Value::Int(1)
    });
    builder.start()
}

#[test]
fn panicking_machine_is_quarantined_others_keep_processing() {
    let blow_up = Arc::new(AtomicBool::new(false));
    let runtime = mixed_runtime(blow_up.clone());
    let steady = runtime
        .create_machine("Steady", &[("n", Value::Int(0))])
        .unwrap();
    let fragile = runtime
        .create_machine("Fragile", &[("m", Value::Int(0))])
        .unwrap();

    // Both machines work while the foreign function behaves.
    runtime.add_event(fragile, "poke", Value::Null).unwrap();
    assert_eq!(runtime.read_var(fragile, "m"), Some(Value::Int(1)));

    // The panic quarantines only the offending machine.
    blow_up.store(true, Ordering::SeqCst);
    match runtime.add_event(fragile, "poke", Value::Null) {
        Err(RuntimeError::MachineQuarantined(id)) => assert_eq!(id, fragile),
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(
        runtime.machine_status(fragile),
        Some(MachineStatus::Quarantined)
    );
    assert!(runtime
        .quarantine_reason(fragile)
        .unwrap()
        .contains("simulated foreign-function crash"));

    // Sends to the quarantined machine return a typed error…
    match runtime.add_event(fragile, "poke", Value::Null) {
        Err(RuntimeError::MachineQuarantined(_)) => {}
        other => panic!("expected MachineQuarantined, got {other:?}"),
    }

    // …and the other machine processes ≥100 events afterwards.
    for _ in 0..150 {
        runtime.add_event(steady, "tick", Value::Null).unwrap();
    }
    assert_eq!(runtime.read_var(steady, "n"), Some(Value::Int(150)));
    assert_eq!(runtime.machine_status(steady), Some(MachineStatus::Running));

    let stats = runtime.stats();
    assert_eq!(stats.quarantined, 1);
    let row = stats.machines.iter().find(|m| m.machine == steady).unwrap();
    assert!(row.delivered >= 150);
}

/// A quarantined machine is still there to be looked at: the state it had
/// reached when the panic unwound — here `poke` already dequeued, the
/// deferred `hold` still queued, `m` not yet assigned — stays readable
/// through a `Runtime` and through an `Executor`.
#[test]
fn a_quarantined_machine_keeps_its_last_state() {
    use p_core::runtime::Executor;
    use std::time::Duration;

    const HOLDING: &str = r#"
        event hold;
        event poke;
        machine Fragile {
            var m : int;
            foreign fn risky() : int;
            state Run {
                defer hold;
                on poke do hit;
            }
            action hit { m := m + risky(); }
        }
        main Fragile();
    "#;
    let program = p_core::parser::parse(HOLDING).unwrap();
    let risky = |blow_up: Arc<AtomicBool>| {
        move |_args: &[Value]| {
            if blow_up.load(Ordering::SeqCst) {
                panic!("simulated foreign-function crash");
            }
            Value::Int(1)
        }
    };

    let blow_up = Arc::new(AtomicBool::new(false));
    let mut builder = Runtime::builder(&program).unwrap();
    builder.foreign("risky", risky(blow_up.clone()));
    let runtime = builder.start();
    let id = runtime
        .create_machine("Fragile", &[("m", Value::Int(0))])
        .unwrap();
    runtime.add_event(id, "poke", Value::Null).unwrap();
    runtime.add_event(id, "hold", Value::Null).unwrap();
    blow_up.store(true, Ordering::SeqCst);
    assert!(matches!(
        runtime.add_event(id, "poke", Value::Null),
        Err(RuntimeError::MachineQuarantined(_))
    ));
    assert_eq!(runtime.machine_status(id), Some(MachineStatus::Quarantined));
    assert!(runtime.is_alive(id));
    assert_eq!(runtime.current_state(id).as_deref(), Some("Run"));
    assert_eq!(runtime.read_var(id, "m"), Some(Value::Int(1)));
    assert_eq!(runtime.queue_len(id), Some(1), "`hold`, and only `hold`");
    assert_eq!(runtime.machine_state(id).unwrap().queue.len(), 1);

    let blow_up = Arc::new(AtomicBool::new(false));
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(2)
        .foreign("risky", risky(blow_up.clone()))
        .start();
    let id = exec
        .create_machine("Fragile", &[("m", Value::Int(0))])
        .unwrap();
    let inject = |event: &str| {
        exec.inject(Injection::new(id, event, Value::Null)).unwrap();
        assert!(exec.quiesce(Duration::from_secs(30)), "{event} never ran");
    };
    inject("poke");
    inject("hold");
    blow_up.store(true, Ordering::SeqCst);
    inject("poke");
    assert_eq!(exec.machine_status(id), Some(MachineStatus::Quarantined));
    assert_eq!(exec.current_state(id).as_deref(), Some("Run"));
    assert_eq!(exec.read_var(id, "m"), Some(Value::Int(1)));
    assert_eq!(exec.queue_len(id), Some(0), "nothing waits in the inbox");
    let (shard, local) = exec.locate(id).unwrap();
    let home = exec.shard_runtime(shard).unwrap().clone();
    assert!(home.is_alive(local));
    assert_eq!(home.queue_len(local), Some(1), "`hold`, and only `hold`");
    assert!(matches!(
        exec.shutdown(),
        Err(RuntimeError::MachineQuarantined(_))
    ));
    assert_eq!(home.read_var(local, "m"), Some(Value::Int(1)));
}

#[test]
fn concurrent_producers_survive_a_mid_stream_failure() {
    // N producer threads race a machine that starts failing mid-stream;
    // the runtime's lock must not poison, and other machines stay usable.
    let src = r#"
        event tick;
        event boom;
        machine Steady {
            var n : int;
            state Run { on tick do bump; }
            action bump { n := n + 1; }
        }
        machine Doomed {
            state Run { on boom goto Bad; }
            state Bad { entry { assert(false); } }
        }
        main Steady();
    "#;
    let program = p_core::parser::parse(src).unwrap();
    let runtime = Runtime::builder(&program).unwrap().start();
    let steady = runtime
        .create_machine("Steady", &[("n", Value::Int(0))])
        .unwrap();
    let doomed = runtime.create_machine("Doomed", &[]).unwrap();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let rt = runtime.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    if t == 0 && i == 50 {
                        // The machine asserts false on the first boom and
                        // is halted; later sends report the saved error.
                        let _ = rt.add_event(doomed, "boom", Value::Null);
                    }
                    rt.add_event(steady, "tick", Value::Null).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    assert_eq!(runtime.read_var(steady, "n"), Some(Value::Int(400)));
    assert_eq!(runtime.machine_status(doomed), Some(MachineStatus::Halted));
    match runtime.add_event(doomed, "boom", Value::Null) {
        Err(RuntimeError::Machine(e)) => {
            assert_eq!(e.kind, p_core::semantics::ErrorKind::AssertionFailure);
        }
        other => panic!("expected the saved machine error, got {other:?}"),
    }
    // The steady machine still works after everything.
    runtime.add_event(steady, "tick", Value::Null).unwrap();
    assert_eq!(runtime.read_var(steady, "n"), Some(Value::Int(401)));
}

#[test]
fn pump_keeps_draining_around_a_quarantined_target() {
    // Injections to a quarantined machine fail inside the executor's
    // worker, but the worker survives and keeps delivering to healthy
    // machines.
    let program = p_core::parser::parse(MIXED).unwrap();
    let pump = Executor::builder(&program)
        .unwrap()
        .shards(1)
        .mailbox_capacity(32)
        .credits(32)
        .foreign("risky", |_args| panic!("simulated foreign-function crash"))
        .start();
    let steady = pump
        .create_machine("Steady", &[("n", Value::Int(0))])
        .unwrap();
    let fragile = pump
        .create_machine("Fragile", &[("m", Value::Int(0))])
        .unwrap();
    let runtime = pump.shard_runtime(0).unwrap().clone();
    let (_, steady_local) = pump.locate(steady).unwrap();
    let (_, fragile_local) = pump.locate(fragile).unwrap();
    pump.inject(Injection {
        target: fragile,
        event: "poke".into(),
        payload: Value::Null,
    })
    .unwrap();
    for _ in 0..100 {
        pump.inject(Injection {
            target: steady,
            event: "tick".into(),
            payload: Value::Null,
        })
        .unwrap();
    }
    // Shutdown surfaces the first worker-observed error but has still
    // delivered everything else.
    let result = pump.shutdown();
    assert!(matches!(result, Err(RuntimeError::MachineQuarantined(_))));
    assert_eq!(runtime.read_var(steady_local, "n"), Some(Value::Int(100)));
    assert_eq!(
        runtime.machine_status(fragile_local),
        Some(MachineStatus::Quarantined)
    );
}
