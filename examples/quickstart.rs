//! Quickstart: compile a small P program, verify it exhaustively, run it
//! under the execution runtime, and peek at the generated C.
//!
//! ```sh
//! cargo run -p p-core --example quickstart
//! ```

use p_core::{Compiled, Value};

fn main() {
    // A P program: a counter machine plus a ghost environment that
    // nondeterministically bumps it. The ghost machine exists only during
    // verification; it is erased before execution (§3.3 of the paper).
    let source = r#"
        event bump;
        event query;

        machine Counter {
            var n : int;
            state Run {
                entry { n := 0; }
                on bump do increment;
            }
            action increment {
                n := n + 1;
                assert(n > 0);
            }
        }

        ghost machine Env {
            var c : id;
            var budget : int;
            state Drive {
                entry {
                    c := new Counter();
                    while (* && (budget > 0)) {
                        budget := budget - 1;
                        send(c, bump);
                    }
                }
            }
        }

        main Env(budget = 3);
    "#;

    let compiled = Compiled::from_source(source).expect("program compiles");
    println!(
        "compiled: {} machine(s), {} event(s)",
        compiled.program().machines.len(),
        compiled.program().events.len()
    );

    // 1. Systematic testing (§5): every schedule, every ghost choice.
    let report = compiled.verify();
    println!(
        "verification: {} — {}",
        if report.passed() { "PASSED" } else { "FAILED" },
        report.stats
    );

    // 2. The delay-bounded causal scheduler at increasing budgets.
    for d in 0..3 {
        let r = compiled.verify_delay_bounded(d);
        println!(
            "  delay bound {d}: {} states explored",
            r.stats.unique_states
        );
    }

    // 3. Execution (§4): ghosts erased, events injected by the host.
    let runtime = compiled.runtime().expect("erases fine").start();
    let counter = runtime.create_machine("Counter", &[]).unwrap();
    for _ in 0..5 {
        runtime.add_event(counter, "bump", Value::Null).unwrap();
    }
    println!(
        "runtime: n = {} after 5 bumps (state {})",
        runtime.read_var(counter, "n").unwrap(),
        runtime.current_state(counter).unwrap()
    );

    // 4. Code generation (§4): the table-driven C translation unit.
    let c = compiled.emit_c().expect("codegen succeeds");
    println!(
        "codegen: {} lines of C, {} functions, {} states",
        c.stats.lines, c.stats.functions, c.stats.states
    );
}
