//! Seeded properties over core invariants: generated programs typecheck
//! and lower with every transition in the table, the ⊕ queue discipline,
//! and runtime execution against a reference fold. Each runs on the seeds
//! `0..CASES`, and a failure names its seed.

use p_core::ast::{Draws, ProgramBuilder, Ty};
use p_core::corpus::{generated_family_program, generated_program};
use p_core::semantics::{lower, Config, EventId, Value};
use p_core::{Runtime, Value as V};

const CASES: u64 = 64;

#[test]
fn generated_programs_typecheck_and_lower() {
    let families = (0..CASES).map(|seed| (seed, "family", generated_family_program(seed)));
    for (seed, kind, program) in (0..CASES)
        .map(|seed| (seed, "src", generated_program(seed)))
        .chain(families)
    {
        p_core::typecheck::check(&program)
            .unwrap_or_else(|e| panic!("{kind} seed {seed}: not well-formed: {e}"));
        let lowered = lower(&program).unwrap_or_else(|e| panic!("{kind} seed {seed}: {e:?}"));
        // Every transition survives lowering into the tables.
        let table_transitions: usize = lowered
            .machines
            .iter()
            .flat_map(|m| &m.states)
            .map(|s| {
                s.steps.iter().filter(|t| t.is_some()).count()
                    + s.calls.iter().filter(|t| t.is_some()).count()
            })
            .sum();
        let declared: usize = program.machines.iter().map(|m| m.transitions.len()).sum();
        assert_eq!(table_transitions, declared, "{kind} seed {seed}");
    }
}

#[test]
fn queue_append_deduplicates_and_preserves_order() {
    // A tiny machine to host a queue.
    let mut b = ProgramBuilder::new();
    for e in 0..4 {
        b.event_with(&format!("q{e}"), Ty::Int);
    }
    let mut m = b.machine("M");
    m.state("S");
    m.finish();
    let lowered = lower(&b.finish("M")).unwrap();
    for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let mut config = Config::default();
        let id = config.allocate(&lowered, lowered.main);
        let machine = config.machine_mut(id).unwrap();
        // Reference model: first occurrence wins, order preserved.
        let mut model: Vec<(u32, i64)> = Vec::new();
        for _ in 0..d.below(40) {
            let (e, v) = (d.below(4) as u32, d.below(6) as i64 - 3);
            machine.enqueue(EventId(e), Value::Int(v));
            if !model.contains(&(e, v)) {
                model.push((e, v));
            }
        }
        let actual: Vec<(u32, i64)> = machine
            .queue
            .iter()
            .map(|(e, v)| (e.0, v.as_int().unwrap()))
            .collect();
        assert_eq!(actual, model, "seed {seed}");
    }
}

#[test]
fn runtime_counter_matches_reference_fold() {
    let src = r#"
        event delta : int;
        machine Counter {
            var n : int;
            state Run { on delta do apply; }
            action apply { n := n + arg; }
        }
        main Counter();
    "#;
    let program = p_core::parser::parse(src).unwrap();
    for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let runtime = Runtime::builder(&program).unwrap().start();
        let id = runtime
            .create_machine("Counter", &[("n", V::Int(0))])
            .unwrap();
        let mut expected = 0i64;
        for _ in 0..d.below(30) {
            let delta = d.below(10) as i64 - 5;
            runtime.add_event(id, "delta", V::Int(delta)).unwrap();
            // Run-to-completion: the event is consumed immediately, so ⊕
            // dedup never drops anything here.
            expected += delta;
        }
        assert_eq!(
            runtime.read_var(id, "n"),
            Some(V::Int(expected)),
            "seed {seed}"
        );
    }
}
