//! The executor as §4's event pump: one shard holding at most `capacity`
//! injections at once, fed from any thread. Tests only — an
//! [`Executor`](crate::Executor) with `shards(1)` is the whole mechanism.

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use p_semantics::{MachineId, Value};

    use crate::{Executor, Injection, Runtime, RuntimeError};

    /// A one-shard executor whose credit budget and mailbox bound are
    /// both `capacity`, one `M` machine on it, and its shard's runtime
    /// with the machine's local id (to read it after shutdown).
    fn start(
        src: &str,
        machine: &str,
        capacity: usize,
    ) -> (Executor, MachineId, Runtime, MachineId) {
        let program = p_parser::parse(src).unwrap();
        let pump = Executor::builder(&program)
            .unwrap()
            .shards(1)
            .mailbox_capacity(capacity)
            .credits(capacity)
            .start();
        let id = pump.create_machine(machine, &[]).unwrap();
        let (shard, local) = pump.locate(id).unwrap();
        let runtime = pump.shard_runtime(shard).unwrap().clone();
        (pump, id, runtime, local)
    }

    const COUNTER: &str = r#"
        event inc;
        machine Counter {
            var n : int;
            state Run { entry { n := 0; } on inc do bump; }
            action bump { n := n + 1; }
        }
        main Counter();
    "#;

    fn counter(capacity: usize) -> (Executor, MachineId, Runtime, MachineId) {
        start(COUNTER, "Counter", capacity)
    }

    #[test]
    fn pump_delivers_in_order_and_drains_on_shutdown() {
        let (pump, id, runtime, local) = counter(4);
        for _ in 0..100 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 100);
        assert_eq!(runtime.read_var(local, "n"), Some(Value::Int(100)));
    }

    #[test]
    fn multiple_producers_one_pump() {
        let (pump, id, runtime, local) = counter(32);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
                    }
                });
            }
        });
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 200);
        assert_eq!(runtime.read_var(local, "n"), Some(Value::Int(200)));
    }

    #[test]
    fn pump_surfaces_machine_errors() {
        let src = r#"
            event boom;
            machine M {
                state S { on boom goto Bad; }
                state Bad { entry { assert(false); } }
            }
            main M();
        "#;
        let (pump, id, _, _) = start(src, "M", 4);
        pump.inject(Injection::new(id, "boom", Value::Null))
            .unwrap();
        match pump.shutdown() {
            Err(RuntimeError::Machine(e)) => {
                assert_eq!(e.kind, p_semantics::ErrorKind::AssertionFailure);
            }
            other => panic!("expected machine error, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_with_deadline_drains_a_healthy_pump() {
        let (pump, id, runtime, local) = counter(16);
        for _ in 0..10 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        let delivered = pump
            .shutdown_with_deadline(Duration::from_secs(5))
            .unwrap()
            .delivered;
        assert_eq!(delivered, 10);
        assert_eq!(runtime.read_var(local, "n"), Some(Value::Int(10)));
    }

    #[test]
    fn dropping_a_pump_joins_the_worker_and_drains() {
        let (pump, id, runtime, local) = counter(16);
        for _ in 0..20 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        // No shutdown: Drop must still drain and join.
        drop(pump);
        assert_eq!(runtime.read_var(local, "n"), Some(Value::Int(20)));
    }

    #[test]
    fn inject_after_delivers_through_the_timer_wheel() {
        let (pump, id, runtime, local) = counter(16);
        pump.inject_after(
            Injection::new(id, "inc", Value::Null),
            Duration::from_millis(30),
        )
        .unwrap();
        // Not yet delivered (the timer is still armed)…
        assert_eq!(runtime.read_var(local, "n"), Some(Value::Int(0)));
        // …but shutdown waits for armed timers before draining.
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 1);
        assert_eq!(runtime.read_var(local, "n"), Some(Value::Int(1)));
    }
}
