//! Cross-crate integration: the full pipeline — parse, check, verify,
//! erase, lower, generate C — over the complete benchmark corpus.

use p_core::{corpus, Compiled};

#[test]
fn every_corpus_program_flows_through_the_whole_pipeline() {
    for (name, program) in corpus::all() {
        let compiled = Compiled::from_program(program)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));

        // Checker warnings would indicate sloppy corpus programs.
        assert!(
            compiled.warnings().is_empty(),
            "{name} has warnings: {:?}",
            compiled.warnings()
        );

        // The delay-0 causal schedule must be clean for all of them.
        let d0 = compiled.verify_delay_bounded(0);
        assert!(
            d0.passed(),
            "{name} fails at delay bound 0: {:?}",
            d0.counterexample
        );

        // Erasure must produce a valid program that lowers and generates.
        let erased = p_core::typecheck::erase(compiled.program())
            .unwrap_or_else(|e| panic!("{name} failed to erase: {e}"));
        p_core::typecheck::check(&erased)
            .unwrap_or_else(|e| panic!("{name} erased program fails checks: {e}"));
        p_core::semantics::lower(&erased)
            .unwrap_or_else(|e| panic!("{name} erased program fails lowering: {e}"));
        let c = compiled
            .emit_c()
            .unwrap_or_else(|e| panic!("{name} failed codegen: {e}"));
        assert!(
            c.stats.lines > 100,
            "{name} generated suspiciously little C"
        );
    }
}

/// Each source under `tests/refused/` is one `lower`'s unit tests expect
/// refused; the type checker, which runs first, must refuse it too, and
/// point into the source.
#[test]
fn lowering_refuses_nothing_the_checker_lets_through() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/refused");
    let mut sources: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    sources.sort();
    assert!(sources.len() >= 3, "{sources:?}");
    for path in sources {
        let src = std::fs::read_to_string(&path).unwrap();
        let program = p_core::parser::parse(&src).unwrap();
        let name = path.display();
        assert!(
            p_core::semantics::lower(&program).is_err(),
            "{name}: lowered"
        );
        let errors = p_core::typecheck::check(&program)
            .map(|_| panic!("{name}: the checker lets it through"))
            .unwrap_err();
        let inside = |span: p_core::ast::Span| {
            !span.is_synthetic() && span.start <= span.end && span.end as usize <= src.len()
        };
        assert!(
            errors.errors().any(|d| inside(d.span)),
            "{name}: no error points into the source: {errors:?}"
        );
    }
}

#[test]
fn erased_programs_have_no_ghosts() {
    for (name, program) in corpus::all() {
        let erased = p_core::typecheck::erase(&program).unwrap();
        assert_eq!(
            erased.ghost_machines().count(),
            0,
            "{name} kept ghost machines"
        );
        for m in &erased.machines {
            assert!(
                m.vars.iter().all(|v| !v.ghost),
                "{name} kept ghost variables"
            );
        }
    }
}

#[test]
fn compiled_program_reports_paper_scale_shapes() {
    // The switch-LED example of §4.1: "The P code is about 150 lines with
    // one driver machine and four ghost machines. The driver machine has
    // 15 states and 23 transitions."
    let p = corpus::switch_led();
    assert_eq!(p.real_machines().count(), 1);
    assert_eq!(p.ghost_machines().count(), 4);
    let driver = p.machine_named("Driver").unwrap();
    assert!((12..=16).contains(&driver.states.len()));
    assert!((20..=40).contains(&driver.transition_count()));
}

#[test]
fn verifier_statistics_are_populated() {
    let compiled = Compiled::from_program(corpus::ping_pong()).unwrap();
    let report = compiled.verify();
    assert!(report.passed());
    assert!(report.complete);
    assert!(report.stats.unique_states > 0);
    assert!(report.stats.transitions >= report.stats.unique_states - 1);
    assert!(report.stats.stored_bytes > 0);
    assert!(report.stats.max_depth > 0);
}

#[test]
fn exhaustive_and_random_agree_on_corpus_verdicts() {
    for (name, program) in [
        ("elevator", corpus::elevator()),
        ("german", corpus::german()),
    ] {
        let compiled = Compiled::from_program(program).unwrap();
        let random = compiled.verifier().check_random(7, 50, 200);
        assert!(
            random.passed(),
            "{name}: random walk found a violation exhaustive search must also find"
        );
    }
    // And on a buggy program random walks usually find the bug too.
    let buggy = Compiled::from_program(corpus::german_buggy()).unwrap();
    let random = buggy.verifier().check_random(7, 500, 400);
    assert!(!random.passed(), "german bug should be findable randomly");
}

/// What the plain one-worker search counts on each corpus program:
/// `(states, transitions)`. Every reduction's test compares itself with
/// this run; these are the numbers the run itself must keep.
const EXHAUSTIVE: [(&str, usize, usize); 12] = [
    ("ping_pong", 29, 41),
    ("elevator", 2460, 7441),
    ("switch_led", 180625, 633343),
    ("german", 2795, 7726),
    ("german3", 13255, 44128),
    ("german4", 48863, 188112),
    ("german5", 155967, 680224),
    ("usb_hsm", 1051, 2515),
    ("usb_psm30", 1486, 3686),
    ("usb_psm20", 967, 2143),
    ("usb_dsm", 1625, 2972),
    ("lossy_link", 20, 29),
];

#[test]
fn plain_search_keeps_its_counts_and_its_counterexamples_replay() {
    let counted: Vec<_> = corpus::all()
        .into_iter()
        .map(|(name, program)| {
            let report = Compiled::from_program(program).unwrap().verify();
            assert!(report.passed() && report.complete, "{name}");
            (name, report.stats.unique_states, report.stats.transitions)
        })
        .collect();
    assert_eq!(counted, EXHAUSTIVE);
    for (name, _correct, buggy) in corpus::figure7_benchmarks() {
        let compiled = Compiled::from_program(buggy).unwrap();
        let cx = compiled
            .verify()
            .counterexample
            .unwrap_or_else(|| panic!("{name}: seeded bug not found"));
        assert!(compiled.verifier().replay(&cx).reproduced(), "{name}");
    }
}
