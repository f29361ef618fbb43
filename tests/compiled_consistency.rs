//! The compiled execution backend must be invisible to the checker's
//! answer: for every corpus program — buggy variants included — running
//! with the ahead-of-time compiled table and with the interpreter must
//! produce bit-identical verdicts, unique-state counts and transition
//! counts, under the sequential engine, `--por`, `--symmetry`, and the
//! parallel engine. The interpreter is the specification; the compiled
//! tables are an optimization that may never change an answer.

use p_core::corpus;
use p_core::tables as compiled;
use p_core::{CheckerOptions, Compiled, Report};

fn modes() -> Vec<(&'static str, CheckerOptions)> {
    let base = CheckerOptions::default();
    vec![
        ("sequential", base.clone()),
        (
            "--por",
            CheckerOptions {
                por: true,
                ..base.clone()
            },
        ),
        (
            "--symmetry",
            CheckerOptions {
                symmetry: true,
                ..base.clone()
            },
        ),
        ("--jobs 4", CheckerOptions { jobs: 4, ..base }),
    ]
}

fn check(program: &Compiled, options: &CheckerOptions, use_table: bool, name: &str) -> Report {
    let mut verifier = program.verifier().with_options(options.clone());
    if use_table {
        let table = compiled::compiled_program(name)
            .unwrap_or_else(|| panic!("{name}: no compiled table in the registry"));
        verifier = verifier
            .with_compiled(table)
            .unwrap_or_else(|e| panic!("{name}: compiled table rejected: {e}"));
    }
    if options.jobs > 1 {
        verifier.check_exhaustive_parallel(options.jobs)
    } else {
        verifier.check_exhaustive()
    }
}

fn assert_identical(name: &str, mode: &str, interpreted: &Report, compiled_run: &Report) {
    assert_eq!(
        interpreted.passed(),
        compiled_run.passed(),
        "{name} [{mode}]: verdict diverged between interpreter and compiled backend"
    );
    assert_eq!(
        interpreted.complete, compiled_run.complete,
        "{name} [{mode}]: completeness diverged"
    );
    // A parallel search aborted by a counterexample stops at a
    // worker-timing-dependent point, so its counters are not
    // reproducible even interpreter-vs-interpreter; everywhere else the
    // counts must be bit-identical.
    if mode == "--jobs 4" && !interpreted.passed() {
        return;
    }
    assert_eq!(
        interpreted.stats.unique_states, compiled_run.stats.unique_states,
        "{name} [{mode}]: unique state count diverged"
    );
    assert_eq!(
        interpreted.stats.transitions, compiled_run.stats.transitions,
        "{name} [{mode}]: transition count diverged"
    );
}

/// Every passing corpus program agrees between backends, in every mode.
#[test]
fn corpus_agrees_between_compiled_and_interpreted() {
    for (name, program) in corpus::all() {
        let program = Compiled::from_program(program).expect("corpus program compiles");
        for (mode, options) in modes() {
            let interpreted = check(&program, &options, false, name);
            let compiled_run = check(&program, &options, true, name);
            assert_identical(name, mode, &interpreted, &compiled_run);
        }
    }
}

/// Seeded bugs are found through the compiled path too, with identical
/// exploration statistics, and the counterexample a compiled-backend run
/// produces replays deterministically on the plain interpreter.
#[test]
fn buggy_benchmarks_agree_and_compiled_counterexamples_replay() {
    for (name, _correct, buggy) in corpus::figure7_benchmarks() {
        let table_name = format!("{name}_buggy");
        let program = Compiled::from_program(buggy).expect("buggy corpus program compiles");
        for (mode, options) in modes() {
            let interpreted = check(&program, &options, false, name);
            let compiled_run = check(&program, &options, true, &table_name);
            assert_identical(name, mode, &interpreted, &compiled_run);
            assert!(
                !compiled_run.passed(),
                "{name} [{mode}]: compiled backend hid the seeded bug"
            );
            let cx = compiled_run
                .counterexample
                .unwrap_or_else(|| panic!("{name} [{mode}]: no counterexample"));
            assert!(
                program.verifier().replay(&cx).reproduced(),
                "{name} [{mode}]: counterexample found through the compiled \
                 backend must replay on the interpreter"
            );
        }
    }
}

/// A compiled table only attaches to the exact program it was generated
/// from: against any other program the digest check fails eagerly with a
/// typed error, before exploration starts.
#[test]
fn digest_mismatch_is_a_typed_error() {
    let (_, elevator) = corpus::all().swap_remove(1);
    let program = Compiled::from_program(elevator).expect("corpus program compiles");
    let wrong = compiled::compiled_program("ping_pong").unwrap();
    let err = program
        .verifier()
        .with_compiled(wrong)
        .expect_err("attaching ping_pong's table to elevator must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("generated from a different program"),
        "error should name the digest mismatch: {msg}"
    );
}
