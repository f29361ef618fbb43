//! The USB case study (§6): verify the four machine analogs of Figure 8
//! and print the corresponding table — P states, P transitions, explored
//! states, time and memory.
//!
//! ```sh
//! cargo run -p p-core --example usb_hub
//! ```

use p_core::{corpus, Compiled};

fn main() {
    println!("USB case study machines (Figure 8 analog)\n");
    println!(
        "{:<10} {:>9} {:>14} {:>16} {:>10} {:>10}",
        "machine", "P states", "P transitions", "explored states", "time", "memory"
    );

    for (name, program) in corpus::figure8_machines() {
        let real = program.real_machines().next().expect("one real machine");
        let p_states = real.states.len();
        let p_transitions = real.transition_count();
        let compiled = Compiled::from_program(program).expect("usb machine compiles");
        let report = compiled.verifier().try_check_exhaustive().unwrap();
        assert!(
            report.passed(),
            "{name} has a violation: {:?}",
            report.counterexample
        );
        println!(
            "{:<10} {:>9} {:>14} {:>16} {:>9.2?} {:>8.2} MiB",
            name,
            p_states,
            p_transitions,
            report.stats.unique_states,
            report.stats.duration,
            report.stats.stored_mib()
        );
    }

    println!(
        "\nAs in the paper, the device state machine (DSM) is the largest,\n\
         and exploration cost grows with machine size. Absolute counts are\n\
         smaller than Figure 8 because the proprietary USBHUB3 machines are\n\
         replaced by scaled analogs (see DESIGN.md)."
    );
}
