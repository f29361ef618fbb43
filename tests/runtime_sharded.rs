//! Sharded-executor tests: shard-count invariance of program outcomes,
//! supervision and backpressure under shards > 1, delayed-injection
//! ordering, and the cross-shard reference boundary.
//!
//! The load-bearing claim is the first one: because every delivery is
//! one run-to-completion `add_event` and machines never share state
//! across shards, the per-machine final state of a deterministic
//! workload must be identical whether it runs on 1, 2 or 8 shards.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p_core::runtime::{Executor, Injection, MachineStatus, OverflowPolicy, Runtime, RuntimeError};
use p_core::Value;

const COUNTER: &str = r#"
    event add;
    machine Counter {
        var n : int;
        state Run { on add do accum; }
        action accum { n := n + arg; }
    }
    main Counter();
"#;

/// Runs the deterministic counter workload on `shards` shards and
/// returns (per-machine final `n`, events delivered).
fn counter_outcome(shards: usize, machines: usize, injections: usize) -> (Vec<i64>, u64) {
    let program = p_core::parser::parse(COUNTER).unwrap();
    let exec = Executor::builder(&program).unwrap().shards(shards).start();
    let ids: Vec<_> = (0..machines)
        .map(|_| {
            exec.create_machine("Counter", &[("n", Value::Int(0))])
                .unwrap()
        })
        .collect();
    for i in 0..injections {
        let target = ids[(i * 7 + 3) % machines];
        exec.inject(Injection::new(target, "add", Value::Int((i % 5) as i64)))
            .unwrap();
    }
    // Resolve each global id to its shard runtime before shutdown
    // consumes the executor; `Runtime` handles are cheap clones.
    let homes: Vec<(Runtime, p_core::MachineId)> = ids
        .iter()
        .map(|&id| {
            let (shard, local) = exec.locate(id).unwrap();
            (exec.shard_runtime(shard).unwrap().clone(), local)
        })
        .collect();
    let report = exec.shutdown().unwrap();
    let finals = homes
        .iter()
        .map(|(rt, local)| match rt.read_var(*local, "n") {
            Some(Value::Int(n)) => n,
            other => panic!("expected an int counter, got {other:?}"),
        })
        .collect();
    (finals, report.delivered)
}

#[test]
fn shard_count_invariance() {
    let (machines, injections) = (12, 240);
    let baseline = counter_outcome(1, machines, injections);
    assert_eq!(baseline.1, injections as u64, "every injection delivers");
    // The workload's total is independent of routing, so the baseline
    // itself is checkable in closed form.
    let total: i64 = (0..injections).map(|i| (i % 5) as i64).sum();
    assert_eq!(baseline.0.iter().sum::<i64>(), total);
    for shards in [2, 8] {
        let outcome = counter_outcome(shards, machines, injections);
        assert_eq!(
            outcome, baseline,
            "per-machine final state must not depend on the shard count ({shards} shards)"
        );
    }
}

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

#[test]
fn quarantine_is_per_machine_under_many_shards() {
    let program = p_core::parser::parse(MIXED).unwrap();
    let blow_up = Arc::new(AtomicBool::new(true));
    let trigger = Arc::clone(&blow_up);
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(4)
        .foreign("risky", move |_args| {
            if trigger.load(Ordering::SeqCst) {
                panic!("simulated foreign-function crash");
            }
            Value::Int(1)
        })
        .start();
    let steadies: Vec<_> = (0..4)
        .map(|shard| {
            exec.create_machine_on(shard, "Steady", &[("n", Value::Int(0))])
                .unwrap()
        })
        .collect();
    let fragile = exec
        .create_machine("Fragile", &[("m", Value::Int(0))])
        .unwrap();

    exec.inject(Injection::new(fragile, "poke", Value::Null))
        .unwrap();
    // The panic is absorbed asynchronously; wait for the quarantine to
    // land before asserting around it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while exec.machine_status(fragile) != Some(MachineStatus::Quarantined) {
        assert!(Instant::now() < deadline, "quarantine never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Healthy machines on every shard keep processing afterwards.
    for &s in &steadies {
        for _ in 0..10 {
            exec.inject(Injection::new(s, "tick", Value::Null)).unwrap();
        }
    }
    let homes: Vec<(Runtime, p_core::MachineId)> = steadies
        .iter()
        .map(|&id| {
            let (shard, local) = exec.locate(id).unwrap();
            (exec.shard_runtime(shard).unwrap().clone(), local)
        })
        .collect();
    // The quarantine surfaced as the first recorded delivery error.
    match exec.shutdown() {
        Err(RuntimeError::MachineQuarantined(_)) => {}
        other => panic!("expected the quarantine to surface on shutdown, got {other:?}"),
    }
    for (rt, local) in homes {
        assert_eq!(rt.read_var(local, "n"), Some(Value::Int(10)));
    }
}

const SLOW: &str = r#"
    event tick;
    machine Slow {
        var n : int;
        foreign fn nap() : int;
        state Run { on tick do bump; }
        action bump { n := n + nap(); }
    }
    main Slow();
"#;

fn slow_executor(delay: Duration, policy: OverflowPolicy) -> (Executor, p_core::MachineId) {
    let program = p_core::parser::parse(SLOW).unwrap();
    let exec = Executor::builder(&program)
        .unwrap()
        .mailbox_capacity(1)
        .credits(1)
        .overflow(policy)
        .foreign("nap", move |_args| {
            std::thread::sleep(delay);
            Value::Int(1)
        })
        .start();
    let id = exec
        .create_machine("Slow", &[("n", Value::Int(0))])
        .unwrap();
    (exec, id)
}

#[test]
fn executor_overflow_fail_and_retry() {
    let (exec, id) = slow_executor(Duration::from_millis(100), OverflowPolicy::Fail);
    exec.inject(Injection::new(id, "tick", Value::Null))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    exec.inject(Injection::new(id, "tick", Value::Null))
        .unwrap();
    // One credit, one queued envelope: fail-fast now, and a deadline'd
    // try_inject times out while the worker naps.
    assert!(matches!(
        exec.inject(Injection::new(id, "tick", Value::Null)),
        Err(RuntimeError::QueueFull)
    ));
    assert!(matches!(
        exec.try_inject(
            Injection::new(id, "tick", Value::Null),
            Duration::from_millis(10)
        ),
        Err(RuntimeError::QueueFull)
    ));
    // A deadline longer than the nap rides out the backpressure: the
    // waiting producer is woken when the worker takes the queued one.
    exec.try_inject(
        Injection::new(id, "tick", Value::Null),
        Duration::from_secs(5),
    )
    .unwrap();
    let (shard, local) = exec.locate(id).unwrap();
    let rt = exec.shard_runtime(shard).unwrap().clone();
    let report = exec.shutdown().unwrap();
    assert_eq!(report.delivered, 3);
    assert_eq!(rt.read_var(local, "n"), Some(Value::Int(3)));
}

#[test]
fn executor_drop_newest_counts_every_overflow() {
    let (exec, id) = slow_executor(Duration::from_millis(300), OverflowPolicy::DropNewest);
    exec.inject(Injection::new(id, "tick", Value::Null))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..4 {
        exec.inject(Injection::new(id, "tick", Value::Null))
            .unwrap();
    }
    let dropped = exec.stats().dropped;
    assert!(dropped >= 2, "expected at least two drops, got {dropped}");
    let (shard, local) = exec.locate(id).unwrap();
    let rt = exec.shard_runtime(shard).unwrap().clone();
    let report = exec.shutdown().unwrap();
    // Every injection is either delivered or counted dropped — never
    // both, never lost.
    assert_eq!(report.delivered + report.stats.dropped, 5);
    assert_eq!(
        rt.read_var(local, "n"),
        Some(Value::Int(report.delivered as i64))
    );
    // The machine's own stats row agrees with the executor's counters.
    let rt_stats = rt.stats();
    assert_eq!(rt_stats.dropped, report.stats.dropped);
    let row = rt_stats
        .machines
        .iter()
        .find(|m| m.machine == local)
        .expect("target machine has a stats row");
    assert_eq!(
        (row.dropped, row.delivered),
        (report.stats.dropped, report.delivered)
    );
}

const RECORDER: &str = r#"
    event note;
    machine Recorder {
        var order : int;
        state Run { on note do log; }
        action log { order := order * 10 + arg; }
    }
    main Recorder();
"#;

#[test]
fn timer_wheel_fires_in_deadline_order() {
    let program = p_core::parser::parse(RECORDER).unwrap();
    let exec = Executor::builder(&program).unwrap().shards(2).start();
    let recorders = [
        exec.create_machine_on(0, "Recorder", &[("order", Value::Int(0))])
            .unwrap(),
        exec.create_machine_on(1, "Recorder", &[("order", Value::Int(0))])
            .unwrap(),
    ];
    // Armed out of deadline order on purpose; delivery must sort by
    // deadline, not by arm order, on both shards.
    for &r in &recorders {
        exec.inject_after(
            Injection::new(r, "note", Value::Int(3)),
            Duration::from_millis(120),
        )
        .unwrap();
        exec.inject_after(
            Injection::new(r, "note", Value::Int(1)),
            Duration::from_millis(40),
        )
        .unwrap();
        exec.inject_after(
            Injection::new(r, "note", Value::Int(2)),
            Duration::from_millis(80),
        )
        .unwrap();
    }
    let homes: Vec<(Runtime, p_core::MachineId)> = recorders
        .iter()
        .map(|&id| {
            let (shard, local) = exec.locate(id).unwrap();
            (exec.shard_runtime(shard).unwrap().clone(), local)
        })
        .collect();
    // Shutdown waits for armed timers before draining.
    let report = exec.shutdown().unwrap();
    assert_eq!(report.delivered, 6);
    assert_eq!(report.stats.timer_scheduled, 6);
    assert_eq!(report.stats.timer_fired, 6);
    assert_eq!(report.stats.timer_pending, 0);
    for (rt, local) in homes {
        assert_eq!(
            rt.read_var(local, "order"),
            Some(Value::Int(123)),
            "delayed sends must fire in deadline order"
        );
    }
}

const RELAY: &str = r#"
    event go;
    machine Relay {
        var next : id;
        var has_next : bool;
        var hits : int;
        state Run { on go do forward; }
        action forward {
            hits := hits + 1;
            if (has_next) { send(next, go); }
        }
    }
    main Relay();
"#;

#[test]
fn cross_shard_references_are_rejected() {
    let program = p_core::parser::parse(RELAY).unwrap();
    let exec = Executor::builder(&program).unwrap().shards(2).start();
    let base = &[("hits", Value::Int(0)), ("has_next", Value::Bool(false))];
    let a = exec.create_machine_on(0, "Relay", base).unwrap();
    let b = exec.create_machine_on(1, "Relay", base).unwrap();

    // An initializer pointing across the shard boundary is rejected…
    match exec.create_machine_on(
        1,
        "Relay",
        &[
            ("hits", Value::Int(0)),
            ("has_next", Value::Bool(true)),
            ("next", Value::Machine(a)),
        ],
    ) {
        Err(RuntimeError::CrossShard {
            machine,
            home,
            used_from,
        }) => {
            assert_eq!(machine, a);
            assert_eq!(home, 0);
            assert_eq!(used_from, 1);
        }
        other => panic!("expected a cross-shard rejection, got {other:?}"),
    }
    // …as is a machine-id payload injected toward the wrong shard…
    assert!(matches!(
        exec.inject(Injection::new(b, "go", Value::Machine(a))),
        Err(RuntimeError::CrossShard { .. })
    ));
    // …while the co-located equivalents are fine.
    let c = exec
        .create_machine_on(
            0,
            "Relay",
            &[
                ("hits", Value::Int(0)),
                ("has_next", Value::Bool(true)),
                ("next", Value::Machine(a)),
            ],
        )
        .unwrap();
    exec.inject(Injection::new(c, "go", Value::Null)).unwrap();
    let homes: Vec<(Runtime, p_core::MachineId)> = [a, c]
        .iter()
        .map(|&id| {
            let (shard, local) = exec.locate(id).unwrap();
            (exec.shard_runtime(shard).unwrap().clone(), local)
        })
        .collect();
    let report = exec.shutdown().unwrap();
    // One injection, two hits: the in-program relay hop ran inside the
    // same run-to-completion delivery.
    assert_eq!(report.delivered, 1);
    for (rt, local) in homes {
        assert_eq!(rt.read_var(local, "hits"), Some(Value::Int(1)));
    }
}

#[test]
fn shutdown_deadline_reports_typed_pending() {
    let (exec, id) = slow_executor(Duration::from_millis(500), OverflowPolicy::Block);
    exec.inject(Injection::new(id, "tick", Value::Null))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    match exec.shutdown_with_deadline(Duration::from_millis(50)) {
        Err(RuntimeError::ShutdownTimeout { pending }) => {
            assert!(pending >= 1, "the napping delivery is still in flight");
        }
        other => panic!("expected a shutdown timeout, got {other:?}"),
    }
}

#[test]
fn unknown_event_names_are_refused_by_the_injecting_call() {
    let program = p_core::parser::parse(COUNTER).unwrap();
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(2)
        .credits(4)
        .start();
    let id = exec
        .create_machine("Counter", &[("n", Value::Int(0))])
        .unwrap();
    let zap = || Injection::new(id, "zap", Value::Null);
    let refusals = [
        exec.inject(zap()),
        exec.try_inject(zap(), Duration::from_millis(10)),
        exec.inject_after(zap(), Duration::from_millis(1)),
    ];
    for refusal in refusals {
        match refusal {
            Err(RuntimeError::UnknownName {
                kind: "event",
                name,
            }) => assert_eq!(name, "zap"),
            other => panic!("expected an unknown-event refusal, got {other:?}"),
        }
    }
    // Refused before anything was taken or queued: every credit is
    // free, no timer is armed, and a declared event still goes through.
    let stats = exec.stats();
    assert_eq!((stats.queued, stats.timer_scheduled), (0, 0));
    assert!(stats.shards.iter().all(|s| s.credits_free == 4));
    exec.inject(Injection::new(id, "add", Value::Int(2)))
        .unwrap();
    let report = exec.shutdown().expect("nothing failed at delivery");
    assert_eq!((report.delivered, report.stats.failed), (1, 0));
}

/// A sink checks in-program that its `note`s arrive in sequence, and
/// acknowledges each through a foreign function so that the producer can
/// pace itself. A payload is `sink index << 32 | sequence number`.
const SEQUENCED: &str = r#"
    event note : int;
    machine Sink {
        var last : int;
        var gaps : int;
        var t : int;
        foreign fn ack(int) : int;
        state Run { on note do log; }
        action log {
            if (arg != last + 1) { gaps := gaps + 1; }
            last := arg;
            t := ack(arg);
        }
    }
    main Sink();
"#;

/// Wake-up stress through the whole executor. Four producers inject one
/// event at a time, each waiting for the acknowledgement before the
/// next, so every worker runs out of work after every event and is
/// somewhere between finding work, polling and parking when the next
/// injection lands; every 64th round the producer pauses long enough
/// for the workers to be parked for certain. Checked: nothing is lost,
/// every sink sees its notes in order whichever worker drains it, and
/// the run ends well inside what a 500 µs park-timeout rescue per event
/// would take (50 000 per producer are 25 s; the test allows 12). The
/// test that turns a single lost wake-up into a failure, by taking the
/// timeout away, sits next to the protocol in `p-runtime`'s `shard.rs`.
#[test]
fn paced_injections_never_wait_for_the_park_timeout() {
    const PRODUCERS: usize = 4;
    const SHARDS: usize = 4;
    const ROUNDS: usize = 50_000;
    let program = p_core::parser::parse(SEQUENCED).unwrap();
    let acks: Arc<Vec<AtomicI64>> =
        Arc::new((0..PRODUCERS * SHARDS).map(|_| AtomicI64::new(0)).collect());
    let seen = Arc::clone(&acks);
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(SHARDS)
        .foreign("ack", move |args| {
            if let Some(&Value::Int(v)) = args.first() {
                seen[(v >> 32) as usize].store(v & 0xffff_ffff, Ordering::Release);
            }
            Value::Int(0)
        })
        .start();
    // Sink `p * SHARDS + s` belongs to producer `p` and lives on shard `s`.
    let sinks: Vec<_> = (0..PRODUCERS * SHARDS)
        .map(|i| {
            let base = Value::Int((i as i64) << 32);
            exec.create_machine_on(
                i % SHARDS,
                "Sink",
                &[("last", base), ("gaps", Value::Int(0))],
            )
            .unwrap()
        })
        .collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let (exec, sinks, acks) = (&exec, &sinks, &acks);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let sink = p * SHARDS + round % SHARDS;
                    let seq = (round / SHARDS + 1) as i64;
                    let payload = Value::Int((sink as i64) << 32 | seq);
                    exec.inject(Injection::new(sinks[sink], "note", payload))
                        .unwrap();
                    while acks[sink].load(Ordering::Acquire) != seq {
                        std::thread::yield_now();
                    }
                    if round % 64 == 63 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let homes: Vec<_> = sinks
        .iter()
        .map(|&id| {
            let (shard, local) = exec.locate(id).unwrap();
            (exec.shard_runtime(shard).unwrap().clone(), local)
        })
        .collect();
    let report = exec.shutdown().unwrap();
    assert_eq!(report.delivered, (PRODUCERS * ROUNDS) as u64);
    for (i, (rt, local)) in homes.iter().enumerate() {
        let last = ((i as i64) << 32) + (ROUNDS / SHARDS) as i64;
        assert_eq!(rt.read_var(*local, "last"), Some(Value::Int(last)));
        assert_eq!(
            rt.read_var(*local, "gaps"),
            Some(Value::Int(0)),
            "sink {i} saw its notes out of order"
        );
    }
    assert!(
        elapsed < Duration::from_secs(12),
        "{} paced injections took {elapsed:?}: wake-ups are being lost",
        PRODUCERS * ROUNDS
    );
}

/// Credit exhaustion under `Block`: with two credits and a handler that
/// naps, producers are blocked most of the time, and every one of them
/// must be woken — by a worker's pop, not by a timeout — to finish. (That
/// a producer still blocked when shutdown begins is refused is checked
/// next to the mailboxes, in `p-runtime`: `shutdown` takes the executor
/// by value, so safe code cannot be inside `inject` at the time.)
#[test]
fn blocked_producers_are_all_woken() {
    const PRODUCERS: usize = 4;
    const EACH: usize = 50;
    let program = p_core::parser::parse(SLOW).unwrap();
    let exec = Executor::builder(&program)
        .unwrap()
        .credits(2)
        .overflow(OverflowPolicy::Block)
        .foreign("nap", |_args| {
            std::thread::sleep(Duration::from_millis(1));
            Value::Int(1)
        })
        .start();
    let id = exec
        .create_machine("Slow", &[("n", Value::Int(0))])
        .unwrap();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..PRODUCERS {
            let (exec, done) = (&exec, done.clone());
            scope.spawn(move || {
                for _ in 0..EACH {
                    exec.inject(Injection::new(id, "tick", Value::Null))
                        .unwrap();
                }
                done.send(()).unwrap();
            });
        }
        // A producer that is never woken would hang the scope: fail
        // first, with a message.
        for _ in 0..PRODUCERS {
            finished
                .recv_timeout(Duration::from_secs(30))
                .expect("a blocked producer was never woken");
        }
    });
    let (shard, local) = exec.locate(id).unwrap();
    let rt = exec.shard_runtime(shard).unwrap().clone();
    let report = exec.shutdown().unwrap();
    let total = (PRODUCERS * EACH) as u64;
    assert_eq!(report.delivered, total);
    assert_eq!(rt.read_var(local, "n"), Some(Value::Int(total as i64)));
}

const NUMBERED: &str = r#"
    event note : int;
    machine Recorder {
        var order : int;
        var gaps : int;
        state Run { on note do log; }
        action log {
            if (arg != order + 1) { gaps := gaps + 1; }
            order := arg;
        }
    }
    main Recorder();
"#;

/// Per-sender FIFO across batches and steals. Every envelope is a batch
/// of its own (`quantum(1)`), two credits keep the producers blocked and
/// woken, and the recorders live on two of four shards, so the other two
/// workers can only steal: whichever worker delivers a `note`, each
/// recorder sees its producer's numbers in sequence.
#[test]
fn per_sender_fifo_holds_across_batches_and_steals() {
    const PRODUCERS: usize = 4;
    const NOTES: i64 = 20_000;
    let program = p_core::parser::parse(NUMBERED).unwrap();
    let exec = Executor::builder(&program)
        .unwrap()
        .shards(4)
        .quantum(1)
        .credits(2)
        .start();
    let zero = &[("order", Value::Int(0)), ("gaps", Value::Int(0))];
    let recorders: Vec<_> = (0..PRODUCERS)
        .map(|p| exec.create_machine_on(p % 2, "Recorder", zero).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for &recorder in &recorders {
            let exec = &exec;
            scope.spawn(move || {
                for n in 1..=NOTES {
                    exec.inject(Injection::new(recorder, "note", Value::Int(n)))
                        .unwrap();
                }
            });
        }
    });
    let homes: Vec<_> = recorders
        .iter()
        .map(|&id| {
            let (shard, local) = exec.locate(id).unwrap();
            (exec.shard_runtime(shard).unwrap().clone(), local)
        })
        .collect();
    let report = exec.shutdown().unwrap();
    assert_eq!(report.delivered, PRODUCERS as u64 * NOTES as u64);
    assert_eq!(report.stats.batches, report.delivered, "quantum(1)");
    for (rt, local) in homes {
        assert_eq!(rt.read_var(local, "order"), Some(Value::Int(NOTES)));
        assert_eq!(
            rt.read_var(local, "gaps"),
            Some(Value::Int(0)),
            "a recorder saw its notes out of order ({} steals)",
            report.stats.steals
        );
    }
}

/// `mailbox_capacity` bounds one machine, not the inbox its shard's
/// machines share: while a machine naps with two events waiting, a third
/// for it is refused and one for its sibling on the same shard is not.
#[test]
fn the_mailbox_bound_is_per_machine() {
    let program = p_core::parser::parse(SLOW).unwrap();
    let napping = Arc::new(AtomicBool::new(false));
    let wake = Arc::new(AtomicBool::new(false));
    let (entered, release) = (Arc::clone(&napping), Arc::clone(&wake));
    let exec = Executor::builder(&program)
        .unwrap()
        .mailbox_capacity(2)
        .overflow(OverflowPolicy::Fail)
        .foreign("nap", move |_args| {
            entered.store(true, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Value::Int(1)
        })
        .start();
    let zero = &[("n", Value::Int(0))];
    let napper = exec.create_machine("Slow", zero).unwrap();
    let sibling = exec.create_machine("Slow", zero).unwrap();
    let tick = |id| exec.inject(Injection::new(id, "tick", Value::Null));
    tick(napper).unwrap();
    while !napping.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // The worker is inside the napper's run; these two wait for it.
    tick(napper).unwrap();
    tick(napper).unwrap();
    assert_eq!(exec.queue_len(napper), Some(2));
    assert!(matches!(tick(napper), Err(RuntimeError::QueueFull)));
    tick(sibling).unwrap();
    assert_eq!(exec.queue_len(sibling), Some(1));
    wake.store(true, Ordering::SeqCst);
    let runtime = exec.shard_runtime(0).unwrap().clone();
    let report = exec.shutdown().unwrap();
    assert_eq!(report.delivered, 4);
    assert_eq!(report.stats.shards[0].max_mailbox_depth, 2);
    let n = |id| runtime.read_var(id, "n");
    assert_eq!(
        (n(napper), n(sibling)),
        (Some(Value::Int(3)), Some(Value::Int(1)))
    );
}
