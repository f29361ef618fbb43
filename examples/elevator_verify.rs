//! The elevator of Figures 1–2: verify it exhaustively, sweep the delay
//! bound like Figure 7, and show how the seeded bug is caught with a
//! counterexample trace.
//!
//! ```sh
//! cargo run -p p-core --example elevator_verify
//! ```

use p_core::{corpus, Compiled};

fn main() {
    let compiled = Compiled::from_program(corpus::elevator()).expect("elevator compiles");
    let program = compiled.program();
    println!(
        "elevator: {} machines ({} ghost), {} states, {} transitions",
        program.machines.len(),
        program.ghost_machines().count(),
        program.total_states(),
        program.total_transitions()
    );

    // Exhaustive baseline.
    let full = compiled.verifier().try_check_exhaustive().unwrap();
    println!("exhaustive: {} — {}", verdict(full.passed()), full.stats);
    assert!(full.passed(), "the correct elevator must pass");

    // Figure 7: states explored as the delay bound grows.
    println!("\ndelay-bound sweep (Figure 7 series):");
    println!("{:>6} {:>12} {:>14}", "d", "states", "sched. nodes");
    for d in 0..=6 {
        let r = compiled.verifier().try_check_delay_bounded(d).unwrap();
        println!(
            "{d:>6} {:>12} {:>14}",
            r.stats.unique_states, r.stats.scheduler_nodes
        );
    }

    // The buggy variant: Opening no longer ignores a second OpenDoor.
    let buggy = Compiled::from_program(corpus::elevator_buggy()).expect("buggy compiles");
    let caught = (0..=2).any(|d| {
        let r = buggy.verifier().try_check_delay_bounded(d).unwrap();
        match &r.counterexample {
            None => println!("\nbuggy elevator, delay bound {d}: no violation"),
            Some(cx) => println!("\nbuggy elevator, delay bound {d}: VIOLATION\n{cx}"),
        }
        !r.passed()
    });
    assert!(caught, "delay bound 2 must catch the buggy elevator");
}

fn verdict(passed: bool) -> &'static str {
    if passed {
        "PASSED"
    } else {
        "FAILED"
    }
}
