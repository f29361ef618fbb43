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
    let full = compiled.verify();
    println!("exhaustive: {} — {}", verdict(full.passed()), full.stats);

    // Figure 7: states explored as the delay bound grows.
    println!("\ndelay-bound sweep (Figure 7 series):");
    println!("{:>6} {:>12} {:>14}", "d", "states", "sched. nodes");
    for d in 0..=6 {
        let r = compiled.verify_delay_bounded(d);
        println!(
            "{d:>6} {:>12} {:>14}",
            r.stats.unique_states, r.stats.scheduler_nodes
        );
    }

    // The buggy variant: Opening no longer ignores a second OpenDoor.
    let buggy = Compiled::from_program(corpus::elevator_buggy()).expect("buggy compiles");
    for d in 0..=2 {
        let r = buggy.verify_delay_bounded(d);
        match r.counterexample {
            None => println!("\nbuggy elevator, delay bound {d}: no violation"),
            Some(cx) => {
                println!("\nbuggy elevator, delay bound {d}: VIOLATION\n{cx}");
                break;
            }
        }
    }
}

fn verdict(passed: bool) -> &'static str {
    if passed {
        "PASSED"
    } else {
        "FAILED"
    }
}
