//! Generate the C translation unit for the elevator — the compilation
//! path of §4 — and write it next to the target directory.
//!
//! ```sh
//! cargo run -p p-core --example codegen_c
//! ```

use std::fs;

use p_core::{corpus, Compiled};

fn main() {
    let compiled = Compiled::from_program(corpus::elevator()).expect("elevator compiles");
    let out = compiled.emit_c().expect("codegen succeeds");

    println!(
        "generated {} lines of C ({} functions, {} states, {} events)\n",
        out.stats.lines, out.stats.functions, out.stats.states, out.stats.events
    );

    // Show the driver tables — the part the paper describes as "indexed
    // and statically-allocated data structures examined by the runtime".
    let marker = "/* ==== driver declaration ==== */";
    let pos = out
        .code
        .find(marker)
        .expect("the driver tables are emitted");
    println!("{}", &out.code[pos..]);

    let path = std::env::temp_dir().join("elevator_generated.c");
    fs::write(&path, &out.code).expect("write generated C");
    println!("full translation unit written to {}", path.display());
}
