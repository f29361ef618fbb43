//! What an executor costs while nobody injects into it. A test binary of
//! its own: the measure is the *process's* processor time, which tests
//! running beside it in one process would add to. Read from procfs, so
//! Linux only.

#![cfg(target_os = "linux")]

use std::time::Duration;

use p_core::runtime::{Executor, Injection};
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

/// Workers earn their spin budget by finding work, so after the last
/// delivery they poll for some tens of microseconds and then sleep: an
/// idle executor must cost next to nothing, however eager it is while
/// busy. Two workers polling would use 200 % of a core here (60 ticks);
/// the test allows 10 % of one, about four times what their 500 µs park
/// timeouts cost.
#[test]
fn an_idle_executor_uses_under_a_tenth_of_a_core() {
    let program = p_core::parser::parse(COUNTER).unwrap();
    let exec = Executor::builder(&program).unwrap().shards(2).start();
    let ids: Vec<_> = (0..8)
        .map(|_| {
            exec.create_machine("Counter", &[("n", Value::Int(0))])
                .unwrap()
        })
        .collect();
    // Every worker finds work once, so every worker has a budget to burn.
    for (i, &id) in ids.iter().cycle().take(64).enumerate() {
        exec.inject(Injection::new(id, "add", Value::Int(i as i64)))
            .unwrap();
    }
    while exec.stats().delivered < 64 {
        std::thread::yield_now();
    }
    let idle = Duration::from_millis(300);
    let before = cpu_ticks();
    std::thread::sleep(idle);
    let used = cpu_ticks() - before;
    assert!(
        used <= 3,
        "an idle executor used {used} ticks (10 ms each) of processor time in {idle:?}"
    );
    assert_eq!(exec.shutdown().unwrap().delivered, 64);
}
