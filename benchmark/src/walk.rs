//! A seeded walk over a program's configurations through the public
//! `p_semantics` interface, timing each call a search or a delivery
//! makes: enabled set, configuration clone, one machine run, digest,
//! canonical digest.

use std::hint::black_box;
use std::time::{Duration, Instant};

use p_semantics::{canonical_digest, Config, Engine, ExecOutcome, Granularity};

use crate::workloads::Outcome;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`; `n` must not be 0.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0..n` in a seeded order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Total time in each call over a walk, and the calls made.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkTimes {
    pub steps: usize,
    pub enabled_calls: usize,
    pub run: Duration,
    pub clone: Duration,
    pub digest: Duration,
    pub canon: Duration,
    pub enabled: Duration,
}

impl WalkTimes {
    fn per_call_ns(total: Duration, calls: usize) -> f64 {
        if calls == 0 {
            0.0
        } else {
            total.as_nanos() as f64 / calls as f64
        }
    }

    pub fn run_ns(&self) -> f64 {
        Self::per_call_ns(self.run, self.steps)
    }
    pub fn clone_ns(&self) -> f64 {
        Self::per_call_ns(self.clone, self.steps)
    }
    pub fn digest_ns(&self) -> f64 {
        Self::per_call_ns(self.digest, self.steps)
    }
    pub fn canon_ns(&self) -> f64 {
        Self::per_call_ns(self.canon, self.steps)
    }
    pub fn enabled_ns(&self) -> f64 {
        Self::per_call_ns(self.enabled, self.enabled_calls)
    }

    /// Reports the walk as the `semantics.*` per-call metrics.
    pub fn record(&self, out: &mut Outcome) {
        out.layer("semantics.run_ns", self.run_ns());
        out.layer("semantics.clone_ns", self.clone_ns());
        out.layer("semantics.digest_ns", self.digest_ns());
        out.layer("semantics.canon_ns", self.canon_ns());
        out.layer("semantics.enabled_ns", self.enabled_ns());
        out.layer("semantics.walk_steps", self.steps as f64);
    }
}

/// Walks `steps` machine runs from `start`. Each step picks an enabled
/// machine with the seeded generator, clones the configuration, runs the
/// machine on the clone (its `*` choices seeded too) and digests the
/// result. When no machine is enabled, `stimulate` must enable one: a
/// closed program starts over, an open one receives an event.
pub fn walk(
    engine: &Engine<'_>,
    start: &Config,
    rng: &mut Rng,
    steps: usize,
    stimulate: &mut dyn FnMut(&mut Config, &mut Rng),
) -> WalkTimes {
    let mut t = WalkTimes::default();
    let mut config = start.clone();
    let mut enabled = Vec::new();
    while t.steps < steps {
        let at = Instant::now();
        engine.enabled_machines_into(&config, &mut enabled);
        t.enabled += at.elapsed();
        t.enabled_calls += 1;
        if enabled.is_empty() {
            stimulate(&mut config, rng);
            engine.enabled_machines_into(&config, &mut enabled);
            assert!(!enabled.is_empty(), "the stimulus must enable a machine");
        }
        let id = enabled[rng.below(enabled.len())];

        let at = Instant::now();
        let mut next = black_box(config.clone());
        t.clone += at.elapsed();

        let at = Instant::now();
        let result = engine.run_machine(
            &mut next,
            id,
            &mut || rng.next_u64() & 1 == 1,
            Granularity::Atomic,
        );
        t.run += at.elapsed();
        let result = result.expect("the walk only runs live machines");
        assert!(
            !matches!(
                result.outcome,
                ExecOutcome::Error(_) | ExecOutcome::NeedChoice
            ),
            "the walked programs have no error transitions: {:?}",
            result.outcome
        );

        let at = Instant::now();
        black_box(next.digest());
        t.digest += at.elapsed();

        let at = Instant::now();
        black_box(canonical_digest(&mut next));
        t.canon += at.elapsed();

        config = next;
        t.steps += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_repeats_for_a_seed_and_differs_across_seeds() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn a_permutation_holds_every_index_once() {
        let mut p = Rng::new(1).permutation(1000);
        assert_ne!(p, (0..1000).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn a_walk_over_a_closed_program_restarts_at_quiescence() {
        let program = p_parser::parse(p_corpus::PING_PONG_SRC).unwrap();
        let lowered = p_semantics::lower(&program).unwrap();
        let engine = Engine::new(&lowered, p_semantics::ForeignEnv::empty());
        let start = engine.initial_config();
        let mut restarts = 0;
        let t = walk(&engine, &start, &mut Rng::new(3), 500, &mut |c, _| {
            *c = start.clone();
            restarts += 1;
        });
        assert_eq!(t.steps, 500);
        assert!(t.enabled_calls >= 500);
        assert!(t.run_ns() > 0.0 && t.clone_ns() > 0.0);
        assert!(restarts > 0, "ping-pong ends within 500 runs");
    }
}
