//! Symmetry reduction must be invisible to the checker's answer: for
//! every corpus program — buggy variants included — `--symmetry` on and
//! off agree on the verdict, alone, combined with `--por`, and on the
//! parallel engine. Symmetry may only *merge* states (never invent or
//! lose reachable behavior), counterexamples stay concrete and replay
//! deterministically, and on the German-protocol family the merge is
//! required to actually happen.

use p_core::{corpus, CheckerOptions, Compiled};

fn sym_options(por: bool, jobs: usize) -> CheckerOptions {
    CheckerOptions {
        symmetry: true,
        por,
        jobs,
        ..CheckerOptions::default()
    }
}

/// What a one-worker run counts on each corpus program under
/// `--symmetry` and under `--por --symmetry`: `[states, transitions,
/// dedup_hits, sleep_pruned, symmetry_merges]`. The counts depend on
/// the orbit partition alone (which arrivals merge), not on which
/// member of an orbit the canonical digest picks, so a change to the
/// canonicalizer that moves any of them has changed the partition.
#[rustfmt::skip]
const PINNED: [(&str, [usize; 5], [usize; 5]); 12] = [
    ("ping_pong",  [29, 41, 13, 0, 0],                     [29, 41, 13, 0, 0]),
    ("elevator",   [2460, 7441, 4982, 0, 0],               [2460, 6892, 4355, 678, 0]),
    ("switch_led", [180625, 633343, 452719, 0, 0],         [180625, 624991, 425775, 59225, 0]),
    ("german",     [2795, 7726, 4932, 0, 0],               [2795, 7492, 4640, 355, 0]),
    ("german3",    [9457, 34437, 24981, 0, 6980],          [9457, 33082, 23440, 1926, 7290]),
    ("german4",    [33173, 140023, 106851, 0, 29662],      [33173, 132139, 98386, 10094, 30507]),
    ("german5",    [104065, 494801, 390737, 0, 99100],     [104065, 460477, 354569, 42492, 101393]),
    ("usb_hsm",    [1051, 2515, 1465, 0, 0],               [1051, 2514, 1464, 1, 0]),
    ("usb_psm30",  [1486, 3686, 2201, 0, 0],               [1486, 3685, 2200, 1, 0]),
    ("usb_psm20",  [967, 2143, 1177, 0, 0],                [967, 2142, 1176, 1, 0]),
    ("usb_dsm",    [1625, 2972, 1348, 0, 0],               [1625, 2972, 1348, 0, 0]),
    ("lossy_link", [20, 29, 10, 0, 0],                     [20, 29, 10, 0, 0]),
];

fn counts(stats: &p_core::checker::ExplorationStats) -> [usize; 5] {
    [
        stats.unique_states,
        stats.transitions,
        stats.dedup_hits,
        stats.sleep_pruned,
        stats.symmetry_merges,
    ]
}

/// Every passing corpus program: `--symmetry` (alone and with `--por`)
/// must preserve the verdict, never retain more states than the full
/// exploration, and POR on top of symmetry must not change the retained
/// orbit count. The German family has interchangeable clients by
/// construction, so there symmetry must strictly reduce. The counts of
/// both runs are the [`PINNED`] ones.
#[test]
fn corpus_agrees_with_and_without_symmetry() {
    let names: Vec<_> = corpus::all().into_iter().map(|(name, _)| name).collect();
    let pinned: Vec<_> = PINNED.iter().map(|row| row.0).collect();
    assert_eq!(names, pinned, "one pinned row per corpus program");
    for ((name, program), (_, pinned_sym, pinned_sym_por)) in corpus::all().into_iter().zip(PINNED)
    {
        let compiled = Compiled::from_program(program).expect("corpus program compiles");
        let full = compiled.verifier().try_check_exhaustive().unwrap();
        let sym = compiled
            .verifier()
            .with_options(sym_options(false, 1))
            .try_check_exhaustive()
            .unwrap();
        let sym_por = compiled
            .verifier()
            .with_options(sym_options(true, 1))
            .try_check_exhaustive()
            .unwrap();
        for (mode, run, pinned) in [
            ("--symmetry", &sym, pinned_sym),
            ("--symmetry --por", &sym_por, pinned_sym_por),
        ] {
            assert_eq!(counts(&run.stats), pinned, "{name}: counts under {mode}");
            assert_eq!(
                full.passed(),
                run.passed(),
                "{name}: verdict diverged under {mode}"
            );
            assert_eq!(
                full.complete, run.complete,
                "{name}: completeness diverged under {mode}"
            );
        }
        if full.complete {
            assert!(
                sym.stats.unique_states <= full.stats.unique_states,
                "{name}: symmetry retained more states ({} > {})",
                sym.stats.unique_states,
                full.stats.unique_states
            );
            assert_eq!(
                sym.stats.unique_states, sym_por.stats.unique_states,
                "{name}: POR changed the orbit count under symmetry"
            );
            if name.starts_with("german") && name != "german" {
                assert!(
                    sym.stats.unique_states < full.stats.unique_states,
                    "{name}: interchangeable clients must merge ({} vs {})",
                    sym.stats.unique_states,
                    full.stats.unique_states
                );
                assert!(
                    sym.stats.symmetry_merges > 0,
                    "{name}: no symmetry merges recorded"
                );
            }
        }
    }
}

/// The reduction must pay in the parameter it exists for. With seven
/// and eight clients the idle ones are interchangeable twins: the
/// canonical digest sorts them (it used to enumerate up to 1 024 of
/// their 8! orderings per state, 5.5 s here), every state folds exactly
/// one candidate renumbering, and the orbit counts are the ones the
/// enumeration found.
#[test]
fn german_family_scales_without_enumeration() {
    for (clients, states, transitions) in [(7, 13_251, 73_686), (8, 29_919, 181_824)] {
        let source = corpus::german_family_src(clients, 1);
        let compiled = Compiled::from_source(&source).expect("the generated program compiles");
        let run = compiled
            .verifier()
            .with_options(sym_options(false, 1))
            .try_check_exhaustive()
            .unwrap();
        assert!(run.passed() && run.complete, "german{clients}");
        assert_eq!(
            (run.stats.unique_states, run.stats.transitions),
            (states, transitions),
            "german{clients}"
        );
        assert!(run.stats.canon_calls > 0, "german{clients}");
        assert!(
            run.stats.canon_candidates <= run.stats.canon_calls,
            "german{clients}: {} candidates in {} calls",
            run.stats.canon_candidates,
            run.stats.canon_calls
        );
    }
}

/// Seeded bugs stay reachable under symmetry, and the counterexamples
/// are concrete: they replay deterministically on the unreduced
/// semantics, with or without POR stacked on top.
#[test]
fn buggy_benchmarks_fail_under_symmetry_with_replayable_traces() {
    for (name, _correct, buggy) in corpus::figure7_benchmarks() {
        let compiled = Compiled::from_program(buggy).expect("buggy corpus program compiles");
        for (mode, por) in [("--symmetry", false), ("--symmetry --por", true)] {
            let run = compiled
                .verifier()
                .with_options(sym_options(por, 1))
                .try_check_exhaustive()
                .unwrap();
            assert!(!run.passed(), "{name}: {mode} hid the seeded bug");
            let cx = run
                .counterexample
                .unwrap_or_else(|| panic!("{name}: {mode} run produced no counterexample"));
            assert!(
                compiled.verifier().replay(&cx).reproduced(),
                "{name}: {mode} counterexample must replay deterministically"
            );
        }
    }
}

/// Symmetry composes with the parallel engine: verdict and retained
/// orbit count match the sequential symmetry run on every corpus
/// program. (Transition and merge counts are not compared — which
/// concrete representative reaches an orbit first depends on worker
/// scheduling.)
#[test]
fn symmetry_agrees_across_job_counts() {
    for (name, program) in corpus::all() {
        let compiled = Compiled::from_program(program).expect("corpus program compiles");
        let sequential = compiled
            .verifier()
            .with_options(sym_options(false, 1))
            .try_check_exhaustive()
            .unwrap();
        let parallel = compiled
            .verifier()
            .with_options(sym_options(false, 4))
            .try_check_exhaustive()
            .unwrap();
        assert_eq!(
            sequential.passed(),
            parallel.passed(),
            "{name}: verdict diverged under parallel symmetry"
        );
        assert_eq!(
            sequential.complete, parallel.complete,
            "{name}: completeness diverged under parallel symmetry"
        );
        if sequential.complete {
            assert_eq!(
                sequential.stats.unique_states, parallel.stats.unique_states,
                "{name}: orbit count diverged under parallel symmetry"
            );
        }
    }
}
