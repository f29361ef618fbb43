//! Corpus validation: every program parses, checks, and verifies; every
//! buggy variant is caught — within a delay bound of 2, as §5 claims.

use p_checker::{CheckerOptions, Verifier};
use p_semantics::lower;

use super::*;

fn verify_ok(program: &Program, name: &str) -> p_checker::Report {
    p_typecheck::check(program).unwrap_or_else(|e| panic!("{name} failed checks: {e}"));
    let lowered = lower(program).unwrap();
    let report = Verifier::new(&lowered)
        .with_options(CheckerOptions {
            max_states: 500_000,
            ..CheckerOptions::default()
        })
        .try_check_exhaustive()
        .unwrap();
    if let Some(cx) = &report.counterexample {
        panic!("{name} has a safety violation:\n{cx}");
    }
    assert!(report.complete, "{name} exploration truncated");
    report
}

#[test]
fn ping_pong_verifies() {
    let r = verify_ok(&ping_pong(), "ping_pong");
    assert!(r.stats.unique_states > 5);
}

#[test]
fn elevator_verifies() {
    let r = verify_ok(&elevator(), "elevator");
    assert!(r.stats.unique_states > 50);
}

#[test]
fn switch_led_verifies() {
    let r = verify_ok(&switch_led(), "switch_led");
    assert!(r.stats.unique_states > 50);
}

#[test]
fn german_verifies() {
    let r = verify_ok(&german(), "german");
    assert!(r.stats.unique_states > 50);
}

#[test]
fn german3_verifies_and_scales_past_german2() {
    let r3 = verify_ok(&german3(), "german3");
    let r2 = verify_ok(&german(), "german");
    assert!(
        r3.stats.unique_states > r2.stats.unique_states,
        "3 clients must explore more: {} vs {}",
        r3.stats.unique_states,
        r2.stats.unique_states
    );
}

#[test]
fn usb_machines_verify() {
    for (name, program) in figure8_machines() {
        verify_ok(&program, name);
    }
}

#[test]
fn lossy_link_verifies_fault_free_but_breaks_under_faults() {
    let program = lossy_link();
    verify_ok(&program, "lossy_link");
    let lowered = lower(&program).unwrap();
    let verifier = Verifier::new(&lowered);
    assert!(verifier.try_check_with_faults(0, &[]).unwrap().passed());
    let faulty = verifier.try_check_with_faults(1, &[]).unwrap();
    assert!(
        !faulty.passed(),
        "one environment fault must break the handshake"
    );
}

#[test]
fn all_programs_typecheck() {
    for (name, program) in all() {
        p_typecheck::check(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn buggy_variants_fail_exhaustive_search() {
    for (name, _, buggy) in figure7_benchmarks() {
        let lowered = lower(&buggy).unwrap();
        let report = Verifier::new(&lowered).try_check_exhaustive().unwrap();
        assert!(
            !report.passed(),
            "{name} buggy variant was not caught by exhaustive search"
        );
    }
}

#[test]
fn bugs_found_within_delay_bound_two() {
    // The §5 empirical claim: "bugs are found within a delay bound of 2".
    for (name, _, buggy) in figure7_benchmarks() {
        let lowered = lower(&buggy).unwrap();
        let verifier = Verifier::new(&lowered);
        let found_at = (0..=2).find(|&d| !verifier.try_check_delay_bounded(d).unwrap().passed());
        assert!(
            found_at.is_some(),
            "{name} bug not found within delay bound 2"
        );
    }
}

#[test]
fn correct_programs_pass_delay_bounded_checking() {
    for (name, correct, _) in figure7_benchmarks() {
        let lowered = lower(&correct).unwrap();
        let verifier = Verifier::new(&lowered);
        for d in 0..=2 {
            let report = verifier.try_check_delay_bounded(d).unwrap();
            assert!(
                report.passed(),
                "{name} false positive at delay bound {d}: {:?}",
                report.counterexample
            );
        }
    }
}

#[test]
fn elevator_budget_scales_state_space() {
    let small = lower(&elevator_with_budget(1)).unwrap();
    let large = lower(&elevator_with_budget(3)).unwrap();
    let small_states = Verifier::new(&small)
        .try_check_exhaustive()
        .unwrap()
        .stats
        .unique_states;
    let large_states = Verifier::new(&large)
        .try_check_exhaustive()
        .unwrap()
        .stats
        .unique_states;
    assert!(
        large_states > small_states,
        "budget must scale exploration: {small_states} vs {large_states}"
    );
}

#[test]
fn machine_shapes_match_the_paper() {
    // §4.1: the switch-and-LED P code has one driver machine with ~15
    // states and ~23 transitions plus four ghost machines.
    let p = switch_led();
    assert_eq!(p.ghost_machines().count(), 4);
    let driver = p.machine_named("Driver").unwrap();
    assert!(
        (12..=16).contains(&driver.states.len()),
        "driver has {} states",
        driver.states.len()
    );
    assert!(
        driver.transition_count() >= 20,
        "driver has {} transitions",
        driver.transition_count()
    );

    // Figure 8 ordering: DSM is the largest machine, HSM the smallest.
    let sizes: Vec<(String, usize)> = figure8_machines()
        .iter()
        .map(|(name, p)| {
            let real = p.real_machines().next().unwrap();
            (name.to_string(), real.states.len())
        })
        .collect();
    let hsm = sizes.iter().find(|(n, _)| n == "HSM").unwrap().1;
    let dsm = sizes.iter().find(|(n, _)| n == "DSM").unwrap().1;
    assert!(dsm > hsm, "DSM ({dsm}) must be larger than HSM ({hsm})");
}

#[test]
fn elevator_liveness_passes_with_postpone_annotations() {
    let program = elevator_with_budget(1);
    let lowered = lower(&program).unwrap();
    let report = Verifier::new(&lowered).try_check_liveness().unwrap();
    let starved: Vec<_> = report
        .violations
        .iter()
        .filter(|v| matches!(v, p_checker::LivenessViolation::EventNeverDequeued { .. }))
        .collect();
    assert!(
        starved.is_empty(),
        "postponed events must not be flagged: {starved:?}"
    );
}

#[test]
fn german_family_generator_matches_checked_in_files() {
    let families: [(&str, usize, i64, &str); 3] = [
        ("programs/german3.p", 3, GERMAN3_BUDGET, GERMAN3_SRC),
        ("programs/german4.p", 4, GERMAN4_BUDGET, GERMAN4_SRC),
        ("programs/german5.p", 5, GERMAN5_BUDGET, GERMAN5_SRC),
    ];
    for (path, clients, budget, checked_in) in families {
        let generated = german_family_src(clients, budget);
        if std::env::var_os("CORPUS_REGEN").is_some() {
            let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
            std::fs::write(&target, &generated)
                .unwrap_or_else(|e| panic!("cannot regenerate {path}: {e}"));
            continue;
        }
        assert_eq!(
            generated, checked_in,
            "{path} is stale; regenerate with CORPUS_REGEN=1 cargo test -p p-corpus"
        );
    }
}

#[test]
fn german_family_scales_with_client_count() {
    let states = |p: &Program, name: &str| verify_ok(p, name).stats.unique_states;
    let g3 = states(&german3(), "german3");
    let g4 = states(&german4(), "german4");
    assert!(
        g4 > g3,
        "four clients must explore more: {g4} vs {g3} states"
    );
}

#[test]
fn budget_substitution_changes_main_only() {
    let src = with_budget(ELEVATOR_SRC, 7);
    assert!(src.contains("main User(budget = 7);"));
    assert_eq!(src.matches("budget = 7").count(), 1);
}

#[test]
fn programs_print_and_reparse() {
    for (name, program) in all() {
        let text = p_ast::print_program(&program);
        let reparsed =
            p_parser::parse(&text).unwrap_or_else(|e| panic!("{name} failed to reparse: {e}"));
        assert_eq!(
            text,
            p_ast::print_program(&reparsed),
            "{name} print/parse/print not a fixpoint"
        );
    }
}

/// What `Engine::eval` is shaped for: of the expressions statements
/// evaluate (every `ExprId` a statement holds, over the corpus with the
/// German family represented by its six-client member), almost all are a
/// leaf or one operator over leaves. Prints the census under
/// `--nocapture` (EXPERIMENTS.md E22).
#[test]
fn statement_expressions_are_leaves_or_one_operator_over_leaves() {
    use p_semantics::lower::{ExprId, LExpr, LStmt, StmtId};
    let german6 = parse(&german_family_src(6, 2), "german6");
    let programs = all()
        .into_iter()
        .filter(|(name, _)| !matches!(*name, "german3" | "german4" | "german5"))
        .chain([("german6", german6)]);
    let (mut leaf, mut one_operator, mut nondet, mut deeper, mut foreign) = (0, 0, 0, 0, 0);
    let mut programs_counted = 0;
    for (_, program) in programs {
        programs_counted += 1;
        let code = lower(&program).unwrap().code;
        let is_leaf = |e: ExprId| {
            !matches!(
                code.expr(e),
                LExpr::Nondet | LExpr::Unary(..) | LExpr::Binary(..) | LExpr::Foreign(..)
            )
        };
        let mut count = |e: ExprId| match code.expr(e) {
            LExpr::Nondet => nondet += 1,
            LExpr::Foreign(..) => foreign += 1,
            LExpr::Unary(_, a) if is_leaf(*a) => one_operator += 1,
            LExpr::Binary(_, a, b) if is_leaf(*a) && is_leaf(*b) => one_operator += 1,
            LExpr::Unary(..) | LExpr::Binary(..) => deeper += 1,
            _ => leaf += 1,
        };
        for s in 0..code.stmt_count() {
            match code.stmt(StmtId(s as u32)) {
                LStmt::Assign(_, e) | LStmt::Assert(e) => count(*e),
                LStmt::If { cond, .. } | LStmt::While { cond, .. } => count(*cond),
                LStmt::New { inits, .. } => inits.iter().for_each(|(_, e)| count(*e)),
                LStmt::Send {
                    target, payload, ..
                } => {
                    count(*target);
                    payload.iter().for_each(|e| count(*e));
                }
                LStmt::Raise { payload, .. } => payload.iter().for_each(|e| count(*e)),
                LStmt::Foreign { args, .. } => args.iter().for_each(|e| count(*e)),
                LStmt::Skip
                | LStmt::Delete
                | LStmt::Leave
                | LStmt::Return
                | LStmt::Block(_)
                | LStmt::CallState(_) => {}
            }
        }
    }
    let total = leaf + one_operator + nondet + deeper + foreign;
    println!(
        "{programs_counted} programs, {total} statement expressions: {leaf} leaf, \
         {one_operator} one operator over leaves, {nondet} bare `*`, {deeper} deeper, \
         {foreign} foreign call"
    );
    assert_eq!(programs_counted, 10);
    assert!(
        (leaf + one_operator + nondet) * 100 >= total * 99,
        "{deeper} + {foreign} of {total}"
    );
}

/// Generated programs are well-typed, lower, print back to themselves,
/// and are small: most of them verify within 10⁴ states.
#[test]
fn generated_programs_check_lower_and_stay_small() {
    let mut small = 0;
    for seed in 0..200 {
        let program = generated_program(seed);
        p_typecheck::check(&program)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", generated_src(seed)));
        let printed = p_ast::print_program(&program);
        assert_eq!(
            p_ast::print_program(&p_parser::parse(&printed).unwrap()),
            printed
        );
        let machines = program.machines.len();
        assert!(
            (2..=4).contains(&machines),
            "seed {seed}: {machines} machines"
        );
        let lowered = lower(&program).unwrap();
        let options = CheckerOptions {
            max_states: 10_000,
            ..CheckerOptions::default()
        };
        let report = Verifier::new(&lowered)
            .with_options(options)
            .try_check_exhaustive()
            .unwrap();
        small += usize::from(!report.stats.truncated);
    }
    assert!(
        small >= 190,
        "{small} of 200 generated programs within 10⁴ states"
    );
}

/// Generated symmetric families are well-typed, lower, print back to
/// themselves, and are main plus two or three instances of one type.
#[test]
fn generated_families_check_and_have_one_instance_type() {
    for seed in 0..200 {
        let src = generated_family_src(seed);
        let program = generated_family_program(seed);
        p_typecheck::check(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        lower(&program).unwrap();
        let printed = p_ast::print_program(&program);
        assert_eq!(
            p_ast::print_program(&p_parser::parse(&printed).unwrap()),
            printed
        );
        assert_eq!(program.machines.len(), 2, "seed {seed}");
        let instances = src.matches("new M1(").count();
        assert!((2..=3).contains(&instances), "seed {seed}: {instances}");
    }
}
