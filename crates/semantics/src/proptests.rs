//! Property-based tests over the execution engine: each property runs
//! on the seeds `0..CASES`, and a failure names its seed.

use p_ast::Draws;

use crate::{lower, Config, Engine, ExecOutcome, ForeignEnv, Granularity, MachineId, Script};

/// A small two-machine program whose ghost driver makes `rounds` nondet
/// choices, so runs are parameterized by a choice script.
fn choosy_program(rounds: i64) -> crate::LoweredProgram {
    let src = format!(
        r#"
        event a : int;
        machine Sink {{
            var total : int;
            state S {{ on a do add; }}
            action add {{ total := total + arg; }}
        }}
        ghost machine Env {{
            var s : id;
            var n : int;
            state D {{
                entry {{
                    s := new Sink(total = 0);
                    n := {rounds};
                    while (n > 0) {{
                        n := n - 1;
                        if (*) {{
                            send(s, a, n + 1);
                        }}
                    }}
                }}
            }}
        }}
        main Env();
        "#
    );
    lower(&p_parser::parse(&src).unwrap()).unwrap()
}

/// Runs every enabled machine in ascending id order with the given choice
/// bits until quiescence; returns the final canonical state.
fn run_schedule(program: &crate::LoweredProgram, bits: &[bool]) -> Option<Vec<u8>> {
    let engine = Engine::new(program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let mut script = Script::new(bits);
    for _ in 0..1000 {
        let enabled = engine.enabled_machines(&config);
        let Some(&id) = enabled.first() else {
            return Some(config.canonical_bytes());
        };
        let r = engine
            .run_machine(&mut config, id, &mut script, Granularity::Atomic)
            .unwrap();
        match r.outcome {
            ExecOutcome::NeedChoice => return None,
            ExecOutcome::Error(_) => return Some(config.canonical_bytes()),
            _ => {}
        }
    }
    Some(config.canonical_bytes())
}

const CASES: u64 = 48;

/// `lo..hi` bits, the length uniform too.
fn bits(d: &mut Draws, lo: usize, hi: usize) -> Vec<bool> {
    (0..lo + d.below(hi - lo)).map(|_| d.one_in(2)).collect()
}

/// The engine is deterministic: the same program, schedule policy and
/// choice script always produce the identical canonical state.
#[test]
fn engine_is_deterministic() {
    let program = choosy_program(4);
    for seed in 0..CASES {
        let bits = bits(&mut Draws::new(seed), 0, 12);
        let first = run_schedule(&program, &bits);
        assert_eq!(first, run_schedule(&program, &bits), "seed {seed}");
    }
}

/// Extending a script beyond what a run consumes never changes the
/// outcome (scripts are consumed strictly left to right).
#[test]
fn unused_script_suffix_is_inert() {
    let program = choosy_program(2);
    for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let mut extended = bits(d, 4, 8);
        let base = run_schedule(&program, &extended);
        assert!(base.is_some(), "seed {seed}: four bits cover two choices");
        extended.extend(bits(d, 0, 6));
        assert_eq!(base, run_schedule(&program, &extended), "seed {seed}");
    }
}

/// The sink's final total is exactly the sum selected by the true
/// bits — the engine faithfully routes payloads.
#[test]
fn payload_routing_matches_choices() {
    let program = choosy_program(3);
    let engine = Engine::new(&program, ForeignEnv::empty());
    for seed in 0..CASES {
        let bits = bits(&mut Draws::new(seed), 3, 4);
        let mut config = engine.initial_config();
        let mut script = Script::new(&bits);
        for _ in 0..100 {
            let enabled = engine.enabled_machines(&config);
            let Some(&id) = enabled.first() else { break };
            let r = engine
                .run_machine(&mut config, id, &mut script, Granularity::Atomic)
                .unwrap();
            let failed = matches!(r.outcome, ExecOutcome::Error(_) | ExecOutcome::NeedChoice);
            assert!(!failed, "seed {seed}: {:?}", r.outcome);
        }
        // Env counts n = 2,1,0 sending n+1 ∈ {3,2,1} when the bit is true.
        let expected: i64 = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| 3 - i as i64)
            .sum();
        let total = config.machine(MachineId(1)).map(|m| m.locals[0]);
        assert_eq!(total, Some(crate::Value::Int(expected)), "seed {seed}");
    }
}

/// The incremental digest tracks the canonical encoding exactly:
/// along a random mutation walk, two configurations digest equal iff
/// their canonical byte encodings are equal, and the incremental
/// (cached) digest always agrees with a from-scratch recomputation.
#[test]
fn digest_equal_iff_canonical_bytes_equal() {
    let program = choosy_program(4);
    for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let (bits_a, bits_b) = (bits(d, 0, 10), bits(d, 0, 10));
        let a = walk(&program, &bits_a, d.below(6));
        let b = walk(&program, &bits_b, d.below(6));
        let (Some(mut a), Some(mut b)) = (a, b) else {
            continue;
        };
        assert_eq!(a.digest(), a.digest_uncached(), "seed {seed}");
        assert_eq!(b.digest(), b.digest_uncached(), "seed {seed}");
        assert_eq!(a.encoded_len(), a.canonical_bytes().len(), "seed {seed}");
        let bytes_equal = a.canonical_bytes() == b.canonical_bytes();
        assert_eq!(bytes_equal, a.digest() == b.digest(), "seed {seed}");
    }
}

/// The per-slot digest cache survives arbitrary interleavings of
/// mutation and digest queries: re-digesting after every single run
/// matches digesting only at the end.
#[test]
fn incremental_digest_matches_uncached_along_walks() {
    let program = choosy_program(4);
    let engine = Engine::new(&program, ForeignEnv::empty());
    'seeds: for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let (bits, queries) = (bits(d, 0, 12), bits(d, 8, 9));
        let mut config = engine.initial_config();
        let mut script = Script::new(&bits);
        for &query in &queries {
            if query {
                assert_eq!(config.digest(), config.digest_uncached(), "seed {seed}");
            }
            let enabled = engine.enabled_machines(&config);
            let Some(&id) = enabled.first() else { break };
            let r = engine
                .run_machine(&mut config, id, &mut script, Granularity::Atomic)
                .unwrap();
            if matches!(r.outcome, ExecOutcome::NeedChoice) {
                continue 'seeds;
            }
        }
        assert_eq!(config.digest(), config.digest_uncached(), "seed {seed}");
    }
}

/// The canonical (symmetry-reduced) digest is invariant under every
/// permutation of the interchangeable `Sink` machines, at every
/// reachable configuration — the soundness contract of
/// `canonical_digest`.
#[test]
fn canonical_digest_invariant_under_sink_permutation() {
    // Env is slot 0; the three Sinks (when created) are slots 1–3.
    const PERMS: [[u32; 3]; 6] = [
        [1, 2, 3],
        [1, 3, 2],
        [2, 1, 3],
        [2, 3, 1],
        [3, 1, 2],
        [3, 2, 1],
    ];
    let program = symmetric_sinks_program(4);
    for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let bits = bits(d, 0, 12);
        let Some(mut config) = walk(&program, &bits, d.below(8)) else {
            continue;
        };
        let n = config.created_count();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        if n >= 4 {
            perm[1..4].copy_from_slice(&PERMS[d.below(6)]);
        }
        let mut sym = config.apply_permutation(&perm);
        let canonical = crate::canonical_digest(&mut config);
        assert_eq!(canonical, crate::canonical_digest(&mut sym), "seed {seed}");
        // And the concrete digest of the permuted configuration still
        // matches its own canonical bytes (apply_permutation produces a
        // well-formed configuration).
        assert_eq!(sym.digest_uncached(), sym.clone().digest(), "seed {seed}");
    }
}

/// The delta-maintained digest equals the from-scratch reference
/// under *arbitrary* slot-level mutation sequences — mutate, delete
/// (tombstones), allocate, take/restore (the self-send path), and
/// interning — with digest queries interleaved at every prefix, so
/// the subtract-old/add-new accumulator can never drift from
/// `digest_uncached`.
#[test]
fn delta_digest_matches_reference_under_op_sequences() {
    let program = choosy_program(2);
    let engine = Engine::new(&program, ForeignEnv::empty());
    for seed in 0..CASES {
        let d = &mut Draws::new(seed);
        let mut config = engine.initial_config();
        let mut interner = crate::SlotInterner::new();
        for _ in 0..d.below(24) {
            let (op, word, query) = (d.below(6), d.next() as u16, d.one_in(2));
            let n = config.created_count();
            let id = MachineId(word as u32 % n.max(1) as u32);
            match op {
                // Mutate one live machine's locals in place.
                0 => {
                    if let Some(m) = config.machine_mut(id) {
                        m.locals[0] = crate::Value::Int(word as i64);
                    }
                }
                // Enqueue into one live machine (queue dedups).
                1 => {
                    if let Some(m) = config.machine_mut(id) {
                        m.enqueue(crate::lower::EventId(0), crate::Value::Int(word as i64 % 4));
                    }
                }
                // Delete: leaves a tombstone slot.
                2 => config.delete(id),
                // Allocate a fresh machine.
                3 => {
                    config.allocate(&program, program.main);
                }
                // Take + mutate + restore — the run_machine self-send
                // shape, exercising tombstone-cache invalidation.
                4 => {
                    if let Some(mut taken) = config.take_machine(id) {
                        if query {
                            // Digest the tombstoned view before restore.
                            assert_eq!(config.digest(), config.digest_uncached(), "seed {seed}");
                        }
                        std::sync::Arc::make_mut(&mut taken).locals[0] =
                            crate::Value::Int(-(word as i64));
                        config.restore_machine(id, taken);
                    }
                }
                // Intern: must never change digests or equality.
                _ => {
                    config.intern_slots(&mut interner);
                }
            }
            if query {
                assert_eq!(config.digest(), config.digest_uncached(), "seed {seed}");
                assert_eq!(
                    config.encoded_len(),
                    config.canonical_bytes().len(),
                    "seed {seed}"
                );
            }
        }
        assert_eq!(config.digest(), config.digest_uncached(), "seed {seed}");
        assert_eq!(
            config.encoded_len(),
            config.canonical_bytes().len(),
            "seed {seed}"
        );
        // And the digest round-trips through the canonical encoding.
        let mut back =
            Config::from_canonical_bytes(&config.canonical_bytes(), program.event_count())
                .expect("canonical bytes round trip");
        assert_eq!(back.digest(), config.digest(), "seed {seed}");
    }
}

/// Queues never hold duplicate (event, payload) pairs in any reachable
/// configuration.
#[test]
fn no_queue_duplicates_anywhere() {
    let program = choosy_program(4);
    let engine = Engine::new(&program, ForeignEnv::empty());
    for seed in 0..CASES {
        let bits = bits(&mut Draws::new(seed), 0, 10);
        let mut config = engine.initial_config();
        let mut script = Script::new(&bits);
        for _ in 0..200 {
            check_no_dups(seed, &config);
            let enabled = engine.enabled_machines(&config);
            let Some(&id) = enabled.first() else { break };
            let r = engine
                .run_machine(&mut config, id, &mut script, Granularity::Atomic)
                .unwrap();
            if matches!(r.outcome, ExecOutcome::NeedChoice) {
                break;
            }
        }
    }
}

/// Like [`choosy_program`], but the driver spreads its sends over three
/// interchangeable `Sink` machines — the orbit structure the symmetry
/// property permutes.
fn symmetric_sinks_program(rounds: i64) -> crate::LoweredProgram {
    let src = format!(
        r#"
        event a : int;
        machine Sink {{
            var total : int;
            state S {{ on a do add; }}
            action add {{ total := total + arg; }}
        }}
        ghost machine Env {{
            var s1 : id;
            var s2 : id;
            var s3 : id;
            var n : int;
            state D {{
                entry {{
                    s1 := new Sink(total = 0);
                    s2 := new Sink(total = 0);
                    s3 := new Sink(total = 0);
                    n := {rounds};
                    while (n > 0) {{
                        n := n - 1;
                        if (*) {{
                            send(s1, a, n);
                        }} else {{
                            if (*) {{
                                send(s2, a, n);
                            }} else {{
                                send(s3, a, n);
                            }}
                        }}
                    }}
                }}
            }}
        }}
        main Env();
        "#
    );
    lower(&p_parser::parse(&src).unwrap()).unwrap()
}

/// Advances the initial configuration by up to `steps` atomic runs
/// (lowest enabled machine first) under `bits`; `None` if the script
/// runs dry.
fn walk(program: &crate::LoweredProgram, bits: &[bool], steps: usize) -> Option<Config> {
    let engine = Engine::new(program, ForeignEnv::empty());
    let mut config = engine.initial_config();
    let mut script = Script::new(bits);
    for _ in 0..steps {
        let enabled = engine.enabled_machines(&config);
        let Some(&id) = enabled.first() else { break };
        let r = engine
            .run_machine(&mut config, id, &mut script, Granularity::Atomic)
            .unwrap();
        if matches!(r.outcome, ExecOutcome::NeedChoice) {
            return None;
        }
    }
    Some(config)
}

fn check_no_dups(seed: u64, config: &Config) {
    for id in config.live_ids() {
        let m = config.machine(id).unwrap();
        for (i, a) in m.queue.iter().enumerate() {
            for b in &m.queue[i + 1..] {
                assert_ne!(a, b, "seed {seed}: duplicate queue entry at {id}");
            }
        }
    }
}
