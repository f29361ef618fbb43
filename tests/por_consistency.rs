//! Sleep-set partial-order reduction must be invisible to the checker's
//! answer: for every corpus program — buggy variants included — POR-on
//! and POR-off exploration agree on the verdict, on the retained state
//! count for complete runs, and (for buggy programs) both produce
//! counterexamples that replay. POR may only prune *transitions*.

use p_core::{corpus, CheckerOptions, Compiled};

fn por_options(jobs: usize) -> CheckerOptions {
    CheckerOptions {
        por: true,
        jobs,
        ..CheckerOptions::default()
    }
}

/// Every passing corpus program: POR must preserve the verdict and the
/// reachable state space while never exploring more transitions.
#[test]
fn corpus_agrees_with_and_without_por() {
    for (name, program) in corpus::all() {
        let compiled = Compiled::from_program(program).expect("corpus program compiles");
        let full = compiled.verifier().try_check_exhaustive().unwrap();
        let por = compiled
            .verifier()
            .with_options(por_options(1))
            .try_check_exhaustive()
            .unwrap();
        assert_eq!(
            full.passed(),
            por.passed(),
            "{name}: verdict diverged under POR"
        );
        assert_eq!(
            full.complete, por.complete,
            "{name}: completeness diverged under POR"
        );
        if full.complete {
            assert_eq!(
                full.stats.unique_states, por.stats.unique_states,
                "{name}: POR changed the reachable state count"
            );
        }
        assert!(
            por.stats.transitions <= full.stats.transitions,
            "{name}: POR explored more transitions ({} > {})",
            por.stats.transitions,
            full.stats.transitions
        );
    }
}

/// Seeded bugs stay reachable under POR, and the pruned exploration's
/// counterexample still replays deterministically.
#[test]
fn buggy_benchmarks_fail_under_por_with_replayable_traces() {
    for (name, _correct, buggy) in corpus::figure7_benchmarks() {
        let compiled = Compiled::from_program(buggy).expect("buggy corpus program compiles");
        let full = compiled.verifier().try_check_exhaustive().unwrap();
        assert!(!full.passed(), "{name}: seeded bug missing without POR");
        let por = compiled
            .verifier()
            .with_options(por_options(1))
            .try_check_exhaustive()
            .unwrap();
        assert!(!por.passed(), "{name}: POR hid the seeded bug");
        let cx = por
            .counterexample
            .unwrap_or_else(|| panic!("{name}: POR run produced no counterexample"));
        assert!(
            compiled.verifier().replay(&cx).reproduced(),
            "{name}: POR counterexample must replay deterministically"
        );
    }
}

/// POR composes with the parallel engine: verdict and state count match
/// the sequential full exploration. (Transition counts are not compared
/// — which interleavings the sleep sets prune depends on expansion
/// order, which is nondeterministic across workers.)
#[test]
fn por_agrees_across_job_counts() {
    for (name, program) in corpus::all() {
        let compiled = Compiled::from_program(program).expect("corpus program compiles");
        let sequential = compiled.verifier().try_check_exhaustive().unwrap();
        let por_parallel = compiled
            .verifier()
            .with_options(por_options(4))
            .try_check_exhaustive()
            .unwrap();
        assert_eq!(
            sequential.passed(),
            por_parallel.passed(),
            "{name}: verdict diverged under parallel POR"
        );
        assert_eq!(
            sequential.complete, por_parallel.complete,
            "{name}: completeness diverged under parallel POR"
        );
        if sequential.complete {
            assert_eq!(
                sequential.stats.unique_states, por_parallel.stats.unique_states,
                "{name}: state count diverged under parallel POR"
            );
        }
    }
}
