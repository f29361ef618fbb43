//! Ahead-of-time compiled corpus programs.
//!
//! The build script runs `p_codegen::generate_rust` over the lowered form
//! of every `p_corpus::all_with_buggy` program (ghosts included — these
//! tables feed the model checker, not the deployment runtime) and writes
//! the modules and their registry to `OUT_DIR`: nothing generated is
//! checked in, and the set of tables is fixed when this crate is built.
//! Lookup is by corpus name (tests, benches) or by program digest (the
//! CLI's `--compiled`, which can use a table exactly when its input file
//! lowers to a digest-identical program).

use p_semantics::compiled::CompiledProgram;

include!(concat!(env!("OUT_DIR"), "/registry.rs"));

/// Names of all compiled programs, in registry order.
pub fn compiled_names() -> Vec<&'static str> {
    TABLES.iter().map(|&(name, _)| name).collect()
}

/// Looks up the compiled table for corpus program `name`.
pub fn compiled_program(name: &str) -> Option<&'static dyn CompiledProgram> {
    TABLES
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, table)| table)
}

/// Looks up a compiled table by the digest of a lowered program
/// (`p_semantics::compiled::program_digest`). This is how the CLI
/// decides whether `--compiled` applies to an input file: only a
/// program bit-identical to a corpus program after lowering matches.
pub fn compiled_for_digest(digest: u128) -> Option<&'static dyn CompiledProgram> {
    TABLES
        .iter()
        .map(|&(_, table)| table)
        .find(|table| table.digest() == digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::compiled::program_digest;

    #[test]
    fn the_registry_is_the_corpus_list() {
        let corpus = p_corpus::all_with_buggy();
        let names: Vec<&str> = corpus.iter().map(|&(name, _)| name).collect();
        assert_eq!(compiled_names(), names);
        for (name, program) in &corpus {
            let digest = program_digest(&p_semantics::lower(program).unwrap());
            assert_eq!(compiled_program(name).unwrap().digest(), digest, "{name}");
        }
    }

    /// What `p verify FILE --compiled` does with each corpus file.
    #[test]
    fn every_corpus_file_on_disk_finds_its_table() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../corpus/programs");
        let files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        let mut found = 0;
        for path in files.filter(|p| p.extension().is_some_and(|e| e == "p")) {
            let source = std::fs::read_to_string(&path).unwrap();
            let compiled = crate::Compiled::from_source(&source).unwrap();
            let table = compiled_for_digest(program_digest(compiled.lowered()))
                .unwrap_or_else(|| panic!("{}: no table", path.display()));
            let stem = path.file_stem().unwrap().to_str().unwrap();
            assert_eq!(compiled_program(stem).unwrap().digest(), table.digest());
            found += 1;
        }
        assert_eq!(found, p_corpus::all().len());
    }
}
