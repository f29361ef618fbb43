//! What the exhaustive search's idle workers cost. A test binary of its
//! own: the measure is the *process's* processor time, which tests
//! running beside it in one process would add to. Read from procfs, so
//! Linux only.

#![cfg(target_os = "linux")]

use std::time::Instant;

use p_core::checker::{CheckerOptions, Verifier};

/// One machine sending to itself: every state has exactly one successor,
/// so at any moment one worker has a task and the others have nothing
/// to steal.
const CHAIN: &str = r#"
    event tick : int;
    machine Clock {
        var n : int;
        state Run {
            entry {
                n := n + 1;
                if (n < 300000) { send(this, tick, n); }
            }
            on tick goto Run;
        }
    }
    main Clock(n = 0);
"#;

/// Processor time this process has used, user and system, in seconds
/// (fields 14 and 15 of `/proc/self/stat`; Linux counts them in
/// hundredths of a second).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The second field is the command in parentheses and may hold
    // spaces; fields are counted from the closing one.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("a tick count");
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Workers with nothing to take poll a bounded number of times and then
/// sleep, and a push that leaves nothing to steal wakes nobody: a linear
/// search at four workers must cost about what it costs at one. Four
/// workers polling would use four cores' worth (or every core the box
/// has); the test allows half a core beyond the one doing the work.
#[test]
fn a_linear_search_at_four_workers_uses_one_core() {
    let program = p_core::parser::parse(CHAIN).unwrap();
    let lowered = p_core::semantics::lower(&program).unwrap();
    let options = CheckerOptions {
        jobs: 4,
        ..CheckerOptions::default()
    };
    let verifier = Verifier::new(&lowered).with_options(options);
    let (cpu, wall) = (cpu_seconds(), Instant::now());
    let report = verifier.try_check_exhaustive().unwrap();
    let (cpu, wall) = (cpu_seconds() - cpu, wall.elapsed().as_secs_f64());
    assert!(report.passed() && report.complete);
    assert_eq!(report.stats.unique_states, 300_001);
    assert!(wall > 0.2, "too short to measure: {wall:.2} s");
    assert!(
        cpu <= 1.5 * wall + 0.02,
        "{cpu:.2} s of processor time in {wall:.2} s of wall time"
    );
}
