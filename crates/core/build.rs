//! Compiles the corpus (`p_corpus::all_with_buggy`) into the tables behind
//! `p verify --compiled`: one `p_codegen::generate_rust` module per program
//! and a registry of them, written to `OUT_DIR` and included by
//! `src/tables.rs`. Cargo reruns this script whenever the corpus, the
//! lowering or the emitter is rebuilt, so a table cannot be stale.

use std::path::Path;
use std::{env, fs};

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let out_dir = env::var_os("OUT_DIR").expect("cargo sets OUT_DIR for build scripts");
    let write = |file: &str, text: &str| {
        let path = Path::new(&out_dir).join(file);
        fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    };
    let (mut modules, mut tables) = (String::new(), String::new());
    for (name, program) in p_corpus::all_with_buggy() {
        let lowered = p_semantics::lower(&program)
            .unwrap_or_else(|e| panic!("corpus program {name} fails to lower: {e}"));
        write(
            &format!("{name}.rs"),
            &p_codegen::generate_rust(&lowered, name).code,
        );
        modules += &format!(
            "#[allow(clippy::all, unused_imports, unused_variables)]\n\
             mod {name} {{\n    include!(concat!(env!(\"OUT_DIR\"), \"/{name}.rs\"));\n}}\n"
        );
        tables += &format!("    (\"{name}\", &{name}::Compiled),\n");
    }
    write(
        "registry.rs",
        &format!(
            "{modules}\n/// Every compiled corpus program, in `all_with_buggy` order.\n\
             static TABLES: &[(&str, &dyn CompiledProgram)] = &[\n{tables}];\n"
        ),
    );
}
