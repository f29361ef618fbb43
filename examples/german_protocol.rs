//! German's cache-coherence protocol: verify coherence exhaustively, then
//! demonstrate how the checker catches the classic grant-while-exclusive
//! bug with a full counterexample schedule.
//!
//! ```sh
//! cargo run -p p-core --example german_protocol
//! ```

use p_core::{corpus, Compiled};

fn main() {
    let compiled = Compiled::from_program(corpus::german()).expect("german compiles");
    println!(
        "german: Home with {} states, Client with {} states",
        compiled
            .program()
            .machine_named("Home")
            .unwrap()
            .states
            .len(),
        compiled
            .program()
            .machine_named("Client")
            .unwrap()
            .states
            .len(),
    );

    let report = compiled.verify();
    println!(
        "coherence invariant: {} — {}",
        if report.passed() { "HOLDS" } else { "VIOLATED" },
        report.stats
    );

    // Scale the number of client requests.
    println!("\nscaling the request budget:");
    for budget in 1..=3 {
        let p = Compiled::from_program(corpus::german_with_budget(budget)).unwrap();
        let r = p.verify();
        println!(
            "  budget {budget}: {:>8} states, {:>9} transitions",
            r.stats.unique_states, r.stats.transitions
        );
    }

    // The seeded bug: shared granted without invalidating the owner.
    let buggy = Compiled::from_program(corpus::german_buggy()).unwrap();
    let r = buggy.verify();
    match r.counterexample {
        None => println!("\nbuggy german: not caught (unexpected!)"),
        Some(cx) => println!("\nbuggy german caught by exhaustive search:\n{cx}"),
    }

    // And with the delay-bounded scheduler, as the paper does.
    for d in 0..=2 {
        let r = buggy.verify_delay_bounded(d);
        println!(
            "buggy german at delay bound {d}: {}",
            match &r.counterexample {
                None => "no violation".to_owned(),
                Some(cx) => format!("VIOLATION ({} trace steps)", cx.trace.len()),
            }
        );
    }
}
