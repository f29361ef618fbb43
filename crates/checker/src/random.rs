//! Seeded random-walk testing — a cheap complement to systematic search,
//! useful for quick smoke checks and for cross-validating the systematic
//! strategies in tests.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p_semantics::ExecOutcome;

use crate::error::CheckerError;
use crate::explore::{Report, Verifier};
use crate::fingerprint::Fingerprint;
use crate::stats::ExplorationStats;
use crate::trace::{Counterexample, TraceStep};

impl Verifier<'_> {
    /// Runs `walks` random executions of up to `max_steps` scheduler
    /// decisions each, resolving scheduling and ghost choices with a
    /// deterministic RNG seeded by `seed`.
    ///
    /// Returns at the first violation; otherwise reports the states
    /// touched. Random walks are *not* exhaustive — `complete` is always
    /// `false` unless a walk ends with no enabled machines everywhere.
    ///
    /// # Errors
    ///
    /// A fatal [`CheckerError::Semantics`] (a corrupt lowering — an
    /// engine bug, not a property violation).
    pub fn try_check_random(
        &self,
        seed: u64,
        walks: usize,
        max_steps: usize,
    ) -> Result<Report, CheckerError> {
        let engine = self.engine();
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = ExplorationStats::default();
        let mut seen = std::collections::HashSet::new();

        for _ in 0..walks {
            let mut config = engine.initial_config();
            let mut trace: Vec<TraceStep> = Vec::new();
            seen.insert(Fingerprint::from_u128(config.digest()));

            for depth in 0..max_steps {
                stats.max_depth = stats.max_depth.max(depth);
                let enabled = engine.enabled_machines(&config);
                if enabled.is_empty() {
                    break;
                }
                let id = enabled[rng.gen_range(0..enabled.len())];
                let mut recorded: Vec<bool> = Vec::new();
                let result = {
                    let mut chooser = || {
                        let bit = rng.gen_bool(0.5);
                        recorded.push(bit);
                        bit
                    };
                    engine.run_machine(&mut config, id, &mut chooser, self.options().granularity)?
                };
                stats.transitions += 1;
                let step = TraceStep::from_run(self.program(), id, &result, recorded);
                trace.push(step);
                if let ExecOutcome::Error(e) = &result.outcome {
                    stats.unique_states = seen.len();
                    stats.duration = start.elapsed();
                    return Ok(Report {
                        counterexample: Some(Counterexample {
                            error: e.clone(),
                            trace,
                        }),
                        stats,
                        complete: false,
                        interrupted: false,
                    });
                }
                seen.insert(Fingerprint::from_u128(config.digest()));
            }
        }

        stats.unique_states = seen.len();
        stats.duration = start.elapsed();
        Ok(Report {
            counterexample: None,
            stats,
            complete: false,
            interrupted: false,
        })
    }
}
