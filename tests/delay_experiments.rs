//! Integration-level checks of the §5 delay-bounding claims, across the
//! Figure 7 benchmarks (small budgets so the suite stays fast).

use p_core::{corpus, CheckerOptions, Compiled};

/// `(d, states, transitions, scheduler nodes)` per program, as the
/// delay-bounded search reported them while it still had a loop, a
/// visited set and a parent map of its own. The kernel must not move
/// them: not at one worker, not at four, not with the visited set and
/// the edge log on disk.
type Pinned = (usize, usize, usize, usize);
const GERMAN: &[Pinned] = &[
    (0, 129, 128, 129),
    (1, 825, 1_002, 841),
    (2, 1_773, 3_245, 2_380),
    (3, 2_425, 7_447, 4_907),
    (4, 2_695, 14_061, 8_331),
    (6, 2_789, 33_556, 16_575),
    (8, 2_795, 57_783, 25_831),
];
const ELEVATOR: &[Pinned] = &[
    (0, 176, 192, 176),
    (1, 965, 1_277, 977),
    (2, 1_798, 4_089, 2_679),
    (3, 2_228, 9_538, 5_593),
    (4, 2_406, 18_133, 9_421),
    (6, 2_460, 43_970, 19_195),
];
const SWITCH_LED: &[Pinned] = &[
    (0, 311, 335, 311),
    (1, 2_955, 3_491, 2_969),
    (2, 11_638, 18_306, 14_011),
    (3, 27_853, 68_072, 46_805),
    (4, 50_915, 194_485, 120_890),
];

#[test]
fn pinned_counts_hold_at_every_worker_count_and_under_a_memory_limit() {
    let programs = [
        ("german", corpus::german(), GERMAN),
        ("elevator", corpus::elevator(), ELEVATOR),
        ("switch_led", corpus::switch_led(), SWITCH_LED),
    ];
    for (name, program, pinned) in programs {
        let compiled = Compiled::from_program(program).unwrap();
        for &(d, states, transitions, nodes) in pinned {
            // The spilled leg probes the disk for every offer; keep it
            // to the rows it finishes in seconds (CI's `low-memory` job
            // runs switch_led at d = 4 on the release binary).
            let limits: &[Option<usize>] = match nodes {
                0..=20_000 => &[None, Some(256 << 10)],
                _ => &[None],
            };
            for jobs in [1, 4] {
                for &mem_limit in limits {
                    let options = CheckerOptions {
                        jobs,
                        mem_limit,
                        ..CheckerOptions::default()
                    };
                    let r = compiled
                        .verifier()
                        .with_options(options)
                        .check_delay_bounded(d);
                    let cell = format!("{name} d={d} jobs={jobs} mem_limit={mem_limit:?}");
                    assert!(r.passed() && r.complete, "{cell}");
                    let stats = &r.stats;
                    assert_eq!(
                        (
                            stats.unique_states,
                            stats.transitions,
                            stats.scheduler_nodes
                        ),
                        (states, transitions, nodes),
                        "{cell}"
                    );
                    // Hash-consed, a node costs about ten visited bytes:
                    // ten thousand outgrow the 64 KiB hot tier.
                    if mem_limit.is_some() && nodes > 10_000 {
                        assert!(stats.spilled_states > 0, "{cell}: nothing spilled");
                    }
                }
            }
        }
        // The last pinned bound of german and elevator saturates: it
        // covers what the exhaustive search covers.
        if name != "switch_led" {
            let exhaustive = compiled.verify();
            assert!(exhaustive.passed() && exhaustive.complete);
            let saturated = pinned.last().unwrap().1;
            assert_eq!(saturated, exhaustive.stats.unique_states, "{name}");
        }
    }
}

#[test]
fn coverage_grows_with_delay_bound_on_elevator() {
    let compiled = Compiled::from_program(corpus::elevator_with_budget(2)).unwrap();
    let exhaustive = compiled.verify();
    assert!(exhaustive.passed() && exhaustive.complete);

    let mut last = 0;
    let mut reached_full = false;
    for d in 0..=12 {
        let r = compiled.verify_delay_bounded(d);
        assert!(r.passed());
        let states = r.stats.unique_states;
        assert!(states >= last, "coverage shrank at d={d}");
        last = states;
        if states == exhaustive.stats.unique_states {
            reached_full = true;
            break;
        }
    }
    assert!(
        reached_full,
        "delay bound 12 should cover the space: {last} vs {}",
        exhaustive.stats.unique_states
    );
}

#[test]
fn delay_zero_matches_runtime_schedule_count() {
    // With d = 0 and no ghost nondeterminism the scheduler explores a
    // single (causal) schedule: the number of scheduler nodes equals the
    // path length, and the run is deterministic.
    let src = r#"
        event a;
        machine M {
            var peer : id;
            state S {
                entry { peer := new N(); send(peer, a); }
            }
        }
        machine N { state T { defer a; } }
        main M();
    "#;
    let compiled = Compiled::from_source(src).unwrap();
    let r1 = compiled.verify_delay_bounded(0);
    let r2 = compiled.verify_delay_bounded(0);
    assert!(r1.passed());
    assert_eq!(r1.stats.scheduler_nodes, r2.stats.scheduler_nodes);
    assert_eq!(
        r1.stats.unique_states, r1.stats.scheduler_nodes,
        "one schedule: every node is a distinct point on the single path"
    );
}

#[test]
fn delayed_coverage_dominates_depth_bounded_at_same_transition_budget() {
    // The paper's motivation for delay bounding over depth bounding: at a
    // comparable exploration cost, a small delay budget reaches deep
    // states a depth bound cuts off. Verify the mechanism: with a depth
    // bound shorter than the bug's depth the exhaustive search misses the
    // elevator bug while delay-2 finds it.
    let buggy = corpus::elevator_buggy();
    let compiled = Compiled::from_program(buggy).unwrap();

    let shallow = compiled.verifier().check_exhaustive_with_depth(6);
    assert!(
        shallow.passed(),
        "the seeded bug needs more than 6 scheduler decisions"
    );

    let delayed = compiled.verify_delay_bounded(2);
    assert!(
        !delayed.passed(),
        "delay bound 2 reaches the bug at arbitrary depth"
    );
}

#[test]
fn all_figure7_bugs_found_by_delay_two_with_larger_budgets() {
    for (name, _, buggy) in corpus::figure7_benchmarks() {
        let compiled = Compiled::from_program(buggy).unwrap();
        let r = compiled.verify_delay_bounded(2);
        assert!(!r.passed(), "{name}: bug not found at d=2");
        let cx = r.counterexample.unwrap();
        assert!(!cx.trace.is_empty(), "{name}: counterexample has a trace");
    }
}
