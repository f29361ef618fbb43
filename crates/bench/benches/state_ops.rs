//! Criterion micro-benchmarks for the allocation-light state
//! representation: copy-on-write config cloning and the incremental
//! digest against its from-scratch and hash-the-canonical-bytes
//! baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use p_core::corpus;
use p_semantics::hash::fingerprint128;
use p_semantics::{lower, Config, Engine, ForeignEnv, Granularity};

/// A mid-exploration german3 configuration: the initial state advanced
/// by a few atomic runs so queues and frames are populated.
fn warm_config(engine: &Engine<'_>) -> Config {
    let mut config = engine.initial_config();
    for _ in 0..6 {
        let Some(id) = engine.enabled_machines(&config).into_iter().next() else {
            break;
        };
        let _ = engine.run_machine(&mut config, id, &mut || false, Granularity::Atomic);
    }
    config
}

/// `count` configurations met on random walks from the initial state
/// (a fixed xorshift picks the machine and resolves ghost choices; a
/// quiescent walk restarts), digest caches warm.
fn walk_configs(engine: &Engine<'_>, count: usize) -> Vec<Config> {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut configs = Vec::with_capacity(count);
    let mut config = engine.initial_config();
    while configs.len() < count {
        let enabled = engine.enabled_machines(&config);
        if enabled.is_empty() {
            config = engine.initial_config();
            continue;
        }
        let id = enabled[next() as usize % enabled.len()];
        let _ = engine.run_machine(
            &mut config,
            id,
            &mut || next() & 1 == 1,
            Granularity::Atomic,
        );
        config.digest();
        configs.push(config.clone());
    }
    configs
}

fn bench_state_ops(c: &mut Criterion) {
    let program = lower(&corpus::german3()).unwrap();
    let engine = Engine::new(&program, ForeignEnv::empty());
    let mut group = c.benchmark_group("state_ops");

    // O(#machines) refcount bumps — what every successor branch pays.
    group.bench_function("config-clone", |b| {
        let config = warm_config(&engine);
        b.iter(|| config.clone())
    });

    // The checker's hot path: clone, mutate one machine, re-digest. Only
    // the mutated machine's slot is re-encoded and re-hashed.
    group.bench_function("digest-incremental", |b| {
        let mut base = warm_config(&engine);
        base.digest(); // warm the per-slot cache
        let id = engine
            .enabled_machines(&base)
            .into_iter()
            .next()
            .expect("german3 never quiesces this early");
        b.iter(|| {
            let mut next = base.clone();
            engine
                .run_machine(&mut next, id, &mut || false, Granularity::Atomic)
                .unwrap();
            next.digest()
        })
    });

    // The per-run cost the explorers pay with the dequeue log on (the
    // default, for replay-grade traces) vs off (what the exhaustive
    // engines request): off must not allocate the per-run `dequeued`
    // vector at all.
    group.bench_function("run-machine-dequeue-log-on", |b| {
        let base = warm_config(&engine);
        let id = engine
            .enabled_machines(&base)
            .into_iter()
            .next()
            .expect("german3 never quiesces this early");
        b.iter(|| {
            let mut next = base.clone();
            engine
                .run_machine(&mut next, id, &mut || false, Granularity::Atomic)
                .unwrap()
        })
    });
    group.bench_function("run-machine-dequeue-log-off", |b| {
        let quiet = Engine::new(&program, ForeignEnv::empty()).with_dequeue_log(false);
        let base = warm_config(&quiet);
        let id = quiet
            .enabled_machines(&base)
            .into_iter()
            .next()
            .expect("german3 never quiesces this early");
        b.iter(|| {
            let mut next = base.clone();
            quiet
                .run_machine(&mut next, id, &mut || false, Granularity::Atomic)
                .unwrap()
        })
    });

    // The symmetry layer's cost per canonicalization, over the
    // configurations of random walks through german5 (five
    // interchangeable clients) — one hot configuration would sit in the
    // per-slot digest cache and read four to seven times cheaper than
    // what a search pays per call. One iteration is 4 096 calls.
    group.bench_function("canonical-digest-x4096", |b| {
        let program = lower(&corpus::german5()).unwrap();
        let engine = Engine::new(&program, ForeignEnv::empty());
        let mut configs = walk_configs(&engine, 4096);
        b.iter(|| {
            configs
                .iter_mut()
                .fold(0, |acc, config| acc ^ p_semantics::canonical_digest(config))
        })
    });

    // Baseline 1: every slot re-encoded and re-hashed from scratch.
    group.bench_function("digest-uncached", |b| {
        let config = warm_config(&engine);
        b.iter(|| config.digest_uncached())
    });

    // Baseline 2: the pre-CoW scheme — materialize the full canonical
    // encoding and hash it in one pass.
    group.bench_function("canonical-bytes-hash", |b| {
        let config = warm_config(&engine);
        b.iter(|| fingerprint128(&config.canonical_bytes()))
    });

    group.finish();
}

criterion_group!(benches, bench_state_ops);
criterion_main!(benches);
