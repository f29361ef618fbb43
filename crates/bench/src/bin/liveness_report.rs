//! E6: the liveness checks of §3.2 (future work in the paper, implemented
//! here) across the corpus and the dedicated liveness examples.
//!
//! ```sh
//! cargo run -p p-bench --bin liveness_report
//! ```

use p_core::{corpus, Compiled};

fn main() {
    println!("Liveness checking (§3.2) — bounded fair-cycle analysis\n");

    let programs: Vec<(&str, p_core::Program)> = vec![
        ("ping_pong", corpus::ping_pong()),
        ("elevator (budget 1)", corpus::elevator_with_budget(1)),
        ("usb_dsm (budget 3)", {
            let src = corpus::USB_DSM_SRC.replace("budget = 7", "budget = 3");
            p_core::parser::parse(&src).unwrap()
        }),
    ];

    for (name, program) in programs {
        let compiled = Compiled::from_program(program).unwrap();
        let report = compiled.verifier().try_check_liveness().unwrap();
        println!(
            "{name}: {} ({} states, complete = {})",
            if report.passed() {
                "no violations"
            } else {
                "VIOLATIONS"
            },
            report.stats.unique_states,
            report.complete
        );
        for v in &report.violations {
            println!("    - {v}");
        }
    }

    // Programs designed to violate each property.
    println!("\nseeded liveness defects:");
    let spinner = r#"
        event tick;
        machine Spinner {
            state S { entry { send(this, tick); } on tick goto S; }
        }
        main Spinner();
    "#;
    let starved = r#"
        event job;
        event tick;
        machine Busy {
            state S { defer job; entry { send(this, tick); } on tick goto S; }
        }
        ghost machine Env {
            var b : id;
            state D { entry { b := new Busy(); send(b, job); } }
        }
        main Env();
    "#;
    for (name, src) in [
        ("machine-runs-forever", spinner),
        ("event-starved", starved),
    ] {
        let compiled = Compiled::from_source(src).unwrap();
        let report = compiled.verifier().try_check_liveness().unwrap();
        println!("{name}: {} violation(s)", report.violations.len());
        for v in &report.violations {
            println!("    - {v}");
        }
    }
}
