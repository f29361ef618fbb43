//! The executor as §4's event pump: one adopted shard over the caller's
//! runtime, holding at most `capacity` injections at once, fed from any
//! thread. Tests only — [`Executor::adopt`] is the whole mechanism.

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use p_semantics::{MachineId, Value};

    use crate::{Executor, Injection, OverflowPolicy, RetryPolicy, Runtime, RuntimeError};

    /// One queue bound: `capacity` is the shard's credit budget and every
    /// machine's mailbox bound.
    fn adopt(runtime: Runtime, capacity: usize, overflow: OverflowPolicy) -> Executor {
        Executor::adopt(runtime)
            .mailbox_capacity(capacity)
            .credits(capacity)
            .overflow(overflow)
            .start()
    }

    fn start(runtime: Runtime, capacity: usize) -> Executor {
        adopt(runtime, capacity, OverflowPolicy::Block)
    }

    fn counter_runtime() -> (Runtime, MachineId) {
        let src = r#"
            event inc;
            machine Counter {
                var n : int;
                state Run { on inc do bump; }
                action bump { n := n + 1; }
            }
            main Counter();
        "#;
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime
            .create_machine("Counter", &[("n", Value::Int(0))])
            .unwrap();
        (runtime, id)
    }

    /// A runtime whose only action blocks in a foreign function for
    /// `delay`, so the pump worker can be held busy deterministically.
    fn slow_runtime(delay: Duration) -> (Runtime, MachineId) {
        let src = r#"
            event tick;
            machine Slow {
                var n : int;
                foreign fn nap() : int;
                state Run { on tick do bump; }
                action bump { n := n + nap(); }
            }
            main Slow();
        "#;
        let program = p_parser::parse(src).unwrap();
        let mut builder = Runtime::builder(&program).unwrap();
        builder.foreign("nap", move |_args| {
            std::thread::sleep(delay);
            Value::Int(1)
        });
        let runtime = builder.start();
        let id = runtime
            .create_machine("Slow", &[("n", Value::Int(0))])
            .unwrap();
        (runtime, id)
    }

    #[test]
    fn pump_delivers_in_order_and_drains_on_shutdown() {
        let (runtime, id) = counter_runtime();
        let pump = start(runtime.clone(), 4);
        for _ in 0..100 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 100);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(100)));
    }

    #[test]
    fn multiple_producers_one_pump() {
        let (runtime, id) = counter_runtime();
        let pump = std::sync::Arc::new(start(runtime.clone(), 32));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let pump = std::sync::Arc::clone(&pump);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let pump = std::sync::Arc::into_inner(pump).expect("sole owner");
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 200);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(200)));
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
        let program = p_parser::parse(src).unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime.create_machine("M", &[]).unwrap();
        let pump = start(runtime, 4);
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
    fn drop_newest_drops_exactly_the_excess_and_stats_count_it() {
        let (runtime, id) = slow_runtime(Duration::from_millis(300));
        let pump = adopt(runtime.clone(), 1, OverflowPolicy::DropNewest);
        // #1 occupies the worker (asleep in the foreign call); the rest
        // race a full 1-slot buffer, so at least one must be dropped.
        pump.inject(Injection::new(id, "tick", Value::Null))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..4 {
            pump.inject(Injection::new(id, "tick", Value::Null))
                .unwrap();
        }
        let dropped = pump.stats().dropped;
        assert!(dropped >= 2, "expected at least two drops, got {dropped}");
        let delivered = pump.shutdown().unwrap().delivered;
        // Exactly the excess is dropped: every injection is either
        // delivered or counted as dropped, never both, never lost.
        assert_eq!(delivered + dropped, 5);
        assert_eq!(
            runtime.read_var(id, "n"),
            Some(Value::Int(delivered as i64))
        );
        let rt_stats = runtime.stats();
        assert_eq!(rt_stats.dropped, dropped);
        let row = rt_stats
            .machines
            .iter()
            .find(|m| m.machine == id)
            .expect("target machine has a stats row");
        assert_eq!(row.dropped, dropped);
        assert_eq!(row.delivered, delivered);
    }

    #[test]
    fn fail_policy_and_try_inject_report_queue_full() {
        let (runtime, id) = slow_runtime(Duration::from_millis(300));
        let pump = adopt(runtime, 1, OverflowPolicy::Fail);
        pump.inject(Injection::new(id, "tick", Value::Null))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Fill the buffer to the brim (its exact in-flight boundary is a
        // scheduling detail), then expect fail-fast.
        let mut full = false;
        for _ in 0..5 {
            match pump.inject(Injection::new(id, "tick", Value::Null)) {
                Ok(()) => {}
                Err(RuntimeError::QueueFull) => {
                    full = true;
                    break;
                }
                other => panic!("unexpected inject result: {other:?}"),
            }
        }
        assert!(full, "a 1-slot pump must overflow within 5 injections");
        assert!(matches!(
            pump.try_inject(
                Injection::new(id, "tick", Value::Null),
                Duration::from_millis(10)
            ),
            Err(RuntimeError::QueueFull)
        ));
        pump.shutdown().unwrap();
    }

    #[test]
    fn retry_rides_out_transient_backpressure() {
        let (runtime, id) = slow_runtime(Duration::from_millis(100));
        let pump = adopt(runtime.clone(), 1, OverflowPolicy::Fail);
        pump.inject(Injection::new(id, "tick", Value::Null))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        pump.inject(Injection::new(id, "tick", Value::Null))
            .unwrap();
        // The buffer is full now, but the worker frees it in ~80ms; a
        // patient retry schedule must get through.
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_secs(30),
            jitter: true,
        };
        pump.inject_with_retry(Injection::new(id, "tick", Value::Null), &policy)
            .unwrap();
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 3);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(3)));
    }

    #[test]
    fn shutdown_with_deadline_times_out_on_a_stuck_worker() {
        let (runtime, id) = slow_runtime(Duration::from_millis(500));
        let pump = start(runtime, 4);
        pump.inject(Injection::new(id, "tick", Value::Null))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        match pump.shutdown_with_deadline(Duration::from_millis(50)) {
            Err(RuntimeError::ShutdownTimeout { pending }) => {
                assert!(pending >= 1, "a stuck delivery counts as in flight");
            }
            other => panic!("expected shutdown timeout, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_with_deadline_drains_a_healthy_pump() {
        let (runtime, id) = counter_runtime();
        let pump = start(runtime.clone(), 16);
        for _ in 0..10 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        let delivered = pump
            .shutdown_with_deadline(Duration::from_secs(5))
            .unwrap()
            .delivered;
        assert_eq!(delivered, 10);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(10)));
    }

    #[test]
    fn dropping_a_pump_joins_the_worker_and_drains() {
        let (runtime, id) = counter_runtime();
        {
            let pump = start(runtime.clone(), 16);
            for _ in 0..20 {
                pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
            }
            // No shutdown: Drop must still drain and join.
        }
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(20)));
    }

    #[test]
    fn inject_after_delivers_through_the_timer_wheel() {
        let (runtime, id) = counter_runtime();
        let pump = start(runtime.clone(), 16);
        pump.inject_after(
            Injection::new(id, "inc", Value::Null),
            Duration::from_millis(30),
        )
        .unwrap();
        // Not yet delivered (the timer is still armed)…
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(0)));
        // …but shutdown waits for armed timers before draining.
        let delivered = pump.shutdown().unwrap().delivered;
        assert_eq!(delivered, 1);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(1)));
    }

    #[test]
    fn retry_policy_backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_secs(30),
            jitter: false,
        };
        assert_eq!(p.delay_for(0), Duration::from_millis(2));
        assert_eq!(p.delay_for(1), Duration::from_millis(4));
        assert_eq!(p.delay_for(3), Duration::from_millis(16));
        let j = RetryPolicy {
            jitter: true,
            ..p.clone()
        };
        let d = j.delay_for(1);
        assert!(d >= Duration::from_millis(4) && d < Duration::from_millis(6));
    }

    #[test]
    fn retry_policy_backoff_saturates_at_max_delay() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_secs(30),
            jitter: false,
        };
        // 1ms << 14 = 16.384s is the last step below the cap…
        assert_eq!(p.delay_for(14), Duration::from_millis(16_384));
        // …and attempt 15 (32.768s) pins to max_delay. From here on the
        // schedule is flat, no matter how absurd the attempt count.
        assert_eq!(p.delay_for(15), Duration::from_secs(30));
        assert_eq!(p.delay_for(63), Duration::from_secs(30));
        assert_eq!(p.delay_for(64), Duration::from_secs(30));
        assert_eq!(p.delay_for(u32::MAX), Duration::from_secs(30));
        // A pathological base_delay saturates instead of panicking.
        let huge = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_secs(u64::MAX / 2),
            max_delay: Duration::MAX,
            jitter: false,
        };
        assert_eq!(huge.delay_for(40), Duration::MAX);
    }
}
