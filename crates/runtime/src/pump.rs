//! Asynchronous event injection: the single-shard facade over the
//! sharded executor.
//!
//! Windows calls into a driver from many contexts — application requests,
//! interrupts, deferred procedure calls (§4). [`EventPump`] models those
//! asynchronous sources: producers send [`Injection`]s from any thread;
//! the executor delivers them through `SMAddEvent` (run-to-completion),
//! exactly like interface code running on an OS worker thread.
//!
//! Since the sharded executor landed (ROADMAP item 2), the pump is a thin
//! wrapper over [`Executor`] in adopt mode: one shard wrapping the
//! caller's runtime, injection credits standing in for the old bounded
//! channel's capacity. The public API and failure model are unchanged —
//! the bounded queue overflows per [`OverflowPolicy`]; transient
//! backpressure can be ridden out with [`EventPump::try_inject`]
//! (deadline) or [`EventPump::inject_with_retry`] (exponential backoff
//! via [`RetryPolicy`]); machine errors do **not** kill the pump (the
//! worker records the first failure, keeps delivering to healthy
//! machines, and the error surfaces on [`EventPump::shutdown`]) — and
//! the pump gains [`EventPump::inject_after`] from the executor's timer
//! wheel for free.

use std::time::Duration;

use crate::{Executor, Injection, OverflowPolicy, RetryPolicy, Runtime, RuntimeError};

/// Delivery counters for one pump (see [`EventPump::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Injections delivered into the runtime.
    pub delivered: u64,
    /// Injections the runtime rejected at delivery (machine halted,
    /// quarantined, deleted; an unknown event name is refused by `inject`).
    pub failed: u64,
    /// Injections dropped by the [`OverflowPolicy::DropNewest`] policy.
    pub dropped: u64,
}

/// Configures an [`EventPump`] (see [`EventPump::builder`]).
#[derive(Debug)]
pub struct PumpBuilder {
    runtime: Runtime,
    capacity: usize,
    overflow: OverflowPolicy,
}

impl PumpBuilder {
    /// Queue capacity (default 64).
    pub fn capacity(mut self, capacity: usize) -> PumpBuilder {
        self.capacity = capacity.max(1);
        self
    }

    /// Overflow policy for [`EventPump::inject`] (default
    /// [`OverflowPolicy::Block`]).
    pub fn overflow(mut self, policy: OverflowPolicy) -> PumpBuilder {
        self.overflow = policy;
        self
    }

    /// Spawns the worker thread and returns the pump handle.
    pub fn start(self) -> EventPump {
        EventPump {
            exec: Executor::adopt(self.runtime)
                // The old bounded channel's capacity maps onto the
                // shard's credit budget: at most `capacity` injections
                // queued at once, pump-wide.
                .mailbox_capacity(self.capacity)
                .credits(self.capacity)
                .overflow(self.overflow)
                .start(),
        }
    }
}

/// A background event-delivery worker over a bounded queue.
///
/// # Examples
///
/// ```
/// let src = r#"
///     event inc;
///     machine Counter {
///         var n : int;
///         state Run { on inc do bump; }
///         action bump { n := n + 1; }
///     }
///     main Counter();
/// "#;
/// let program = p_parser::parse(src).unwrap();
/// let runtime = p_runtime::Runtime::builder(&program).unwrap().start();
/// let id = runtime.create_machine("Counter", &[("n", p_semantics::Value::Int(0))]).unwrap();
///
/// let pump = p_runtime::EventPump::start(runtime.clone(), 16);
/// for _ in 0..10 {
///     pump.inject(p_runtime::Injection::new(id, "inc", p_semantics::Value::Null)).unwrap();
/// }
/// pump.shutdown().unwrap();
/// assert_eq!(runtime.read_var(id, "n"), Some(p_semantics::Value::Int(10)));
/// ```
#[derive(Debug)]
pub struct EventPump {
    exec: Executor,
}

impl EventPump {
    /// Starts configuring a pump (capacity, overflow policy).
    pub fn builder(runtime: Runtime) -> PumpBuilder {
        PumpBuilder {
            runtime,
            capacity: 64,
            overflow: OverflowPolicy::default(),
        }
    }

    /// Spawns a pump with a queue of the given capacity and the default
    /// [`OverflowPolicy::Block`] policy.
    pub fn start(runtime: Runtime, capacity: usize) -> EventPump {
        EventPump::builder(runtime).capacity(capacity).start()
    }

    /// Queues one event for delivery. A full queue is handled per the
    /// pump's [`OverflowPolicy`]: `Block` waits, `DropNewest` counts the
    /// event as dropped and succeeds, `Fail` returns
    /// [`RuntimeError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PumpStopped`] if the pump has stopped;
    /// [`RuntimeError::QueueFull`] under the `Fail` policy.
    pub fn inject(&self, injection: Injection) -> Result<(), RuntimeError> {
        self.exec.inject(injection)
    }

    /// Queues one event, waiting at most `deadline` for queue space.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueFull`] if the deadline expires;
    /// [`RuntimeError::PumpStopped`] if the pump has stopped.
    pub fn try_inject(&self, injection: Injection, deadline: Duration) -> Result<(), RuntimeError> {
        self.exec.try_inject(injection, deadline)
    }

    /// Queues one event, retrying transient [`RuntimeError::QueueFull`]
    /// conditions with exponential backoff per `policy`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueFull`] once `policy.max_attempts` attempts
    /// are exhausted; [`RuntimeError::PumpStopped`] if the pump stops.
    pub fn inject_with_retry(
        &self,
        injection: Injection,
        policy: &RetryPolicy,
    ) -> Result<(), RuntimeError> {
        self.exec.inject_with_retry(injection, policy)
    }

    /// Arms a delayed injection on the executor's timer wheel: the event
    /// is delivered once `delay` has elapsed. Delayed sends to one
    /// machine fire in deadline order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PumpStopped`] after shutdown has begun.
    pub fn inject_after(&self, injection: Injection, delay: Duration) -> Result<(), RuntimeError> {
        self.exec.inject_after(injection, delay)
    }

    /// This pump's delivery counters.
    pub fn stats(&self) -> PumpStats {
        let stats = self.exec.stats();
        PumpStats {
            delivered: stats.delivered,
            failed: stats.failed,
            dropped: stats.dropped,
        }
    }

    /// Stops intake and waits for the pump to drain; returns the number
    /// of events delivered.
    ///
    /// # Errors
    ///
    /// Propagates the first machine error the pump encountered, or
    /// [`RuntimeError::PumpPanicked`] if the worker thread died.
    pub fn shutdown(self) -> Result<u64, RuntimeError> {
        self.exec.shutdown().map(|report| report.delivered)
    }

    /// Like [`EventPump::shutdown`], but waits at most `deadline` for
    /// in-flight injections to drain.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShutdownTimeout`] — carrying the in-flight count —
    /// if the queue does not drain in time (the worker is detached and
    /// keeps draining in the background); otherwise as
    /// [`EventPump::shutdown`].
    pub fn shutdown_with_deadline(self, deadline: Duration) -> Result<u64, RuntimeError> {
        self.exec
            .shutdown_with_deadline(deadline)
            .map(|report| report.delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::{MachineId, Value};

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
        let pump = EventPump::start(runtime.clone(), 4);
        for _ in 0..100 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        let delivered = pump.shutdown().unwrap();
        assert_eq!(delivered, 100);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(100)));
    }

    #[test]
    fn multiple_producers_one_pump() {
        let (runtime, id) = counter_runtime();
        let pump = std::sync::Arc::new(EventPump::start(runtime.clone(), 32));
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
        let delivered = pump.shutdown().unwrap();
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
        let pump = EventPump::start(runtime, 4);
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
        let pump = EventPump::builder(runtime.clone())
            .capacity(1)
            .overflow(OverflowPolicy::DropNewest)
            .start();
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
        let delivered = pump.shutdown().unwrap();
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
        let pump = EventPump::builder(runtime)
            .capacity(1)
            .overflow(OverflowPolicy::Fail)
            .start();
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
        let pump = EventPump::builder(runtime.clone())
            .capacity(1)
            .overflow(OverflowPolicy::Fail)
            .start();
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
        let delivered = pump.shutdown().unwrap();
        assert_eq!(delivered, 3);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(3)));
    }

    #[test]
    fn shutdown_with_deadline_times_out_on_a_stuck_worker() {
        let (runtime, id) = slow_runtime(Duration::from_millis(500));
        let pump = EventPump::start(runtime, 4);
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
        let pump = EventPump::start(runtime.clone(), 16);
        for _ in 0..10 {
            pump.inject(Injection::new(id, "inc", Value::Null)).unwrap();
        }
        let delivered = pump.shutdown_with_deadline(Duration::from_secs(5)).unwrap();
        assert_eq!(delivered, 10);
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(10)));
    }

    #[test]
    fn dropping_a_pump_joins_the_worker_and_drains() {
        let (runtime, id) = counter_runtime();
        {
            let pump = EventPump::start(runtime.clone(), 16);
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
        let pump = EventPump::start(runtime.clone(), 16);
        pump.inject_after(
            Injection::new(id, "inc", Value::Null),
            Duration::from_millis(30),
        )
        .unwrap();
        // Not yet delivered (the timer is still armed)…
        assert_eq!(runtime.read_var(id, "n"), Some(Value::Int(0)));
        // …but shutdown waits for armed timers before draining.
        let delivered = pump.shutdown().unwrap();
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
