//! What an executor costs while nobody injects into it. A test binary of
//! its own: the measure is the *process's* processor time, which tests
//! running beside it in one process would add to. Read from procfs, so
//! Linux only.

#![cfg(target_os = "linux")]

use std::sync::Mutex;
use std::time::Duration;

use p_core::runtime::{Executor, Injection};
use p_core::{MachineId, Value};

const COUNTER: &str = r#"
    event add;
    machine Counter {
        var n : int;
        state Run { on add do accum; }
        action accum { n := n + arg; }
    }
    main Counter();
"#;

/// Processor time this process has used, user and system, in clock
/// ticks (fields 14 and 15 of `/proc/self/stat`; Linux counts them in
/// hundredths of a second).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The second field is the command in parentheses and may hold
    // spaces; fields are counted from the closing one.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("a tick count");
    tick(11) + tick(12)
}

/// The tests measure the whole process, so they take turns.
static ALONE: Mutex<()> = Mutex::new(());

/// A two-shard executor over eight counters that has delivered 64
/// events: every worker found work, so every worker has a spin budget
/// to burn.
fn busy_then_idle() -> (Executor, Vec<MachineId>) {
    let program = p_core::parser::parse(COUNTER).unwrap();
    let exec = Executor::builder(&program).unwrap().shards(2).start();
    let ids: Vec<_> = (0..8)
        .map(|_| {
            exec.create_machine("Counter", &[("n", Value::Int(0))])
                .unwrap()
        })
        .collect();
    for (i, &id) in ids.iter().cycle().take(64).enumerate() {
        exec.inject(Injection::new(id, "add", Value::Int(i as i64)))
            .unwrap();
    }
    while exec.stats().delivered < 64 {
        std::thread::yield_now();
    }
    (exec, ids)
}

/// Processor ticks used while the process sleeps for 300 ms; two
/// workers polling would use 200 % of a core (60 ticks). The tests allow
/// 3, 10 % of one core, about four times what the 500 µs park timeouts
/// cost.
fn idle_ticks() -> u64 {
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_millis(300));
    cpu_ticks() - before
}

/// Workers earn their spin budget by finding work, so after the last
/// delivery they poll for some tens of microseconds and then sleep: an
/// idle executor must cost next to nothing, however eager it is while
/// busy.
#[test]
fn an_idle_executor_uses_under_a_tenth_of_a_core() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (exec, _) = busy_then_idle();
    let used = idle_ticks();
    assert!(
        used <= 3,
        "an idle executor used {used} ticks (10 ms each) in 300 ms"
    );
    assert_eq!(exec.shutdown().unwrap().delivered, 64);
}

/// The workers sweep the timer heap before each round: a timer armed
/// but not due must not keep one of them polling. The executor runs no
/// thread but its shard workers.
#[test]
fn an_armed_timer_does_not_keep_the_workers_busy() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (exec, ids) = busy_then_idle();
    let mut threads: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .filter(|name| name.starts_with("p-exec"))
        .collect();
    threads.sort();
    assert_eq!(threads, ["p-exec-shard-0", "p-exec-shard-1"]);
    let later = Injection::new(ids[0], "add", Value::Int(1));
    exec.inject_after(later, Duration::from_secs(2)).unwrap();
    let used = idle_ticks();
    assert!(
        used <= 3,
        "an armed timer cost {used} ticks (10 ms each) in 300 ms"
    );
    // Shutdown waits for the timer.
    let report = exec.shutdown().unwrap();
    assert_eq!((report.delivered, report.stats.timer_fired), (65, 1));
}
