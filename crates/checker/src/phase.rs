//! Sampled phase attribution for the exhaustive explorers' hot loop.
//!
//! Metering every transition with `Instant::now()` pairs would cost a
//! measurable fraction of the loop it is trying to measure (~10 clock
//! reads per transition against a sub-microsecond transition budget).
//! Instead the explorers clock *one task in [`SAMPLE_EVERY`]* end to
//! end and scale the sampled nanoseconds back up when folding them into
//! [`crate::PhaseNanos`]. Tasks are statistically interchangeable at
//! the scale where the numbers matter (hundreds of thousands of
//! expansions), so the scaled estimate converges on the true split
//! while keeping the metering overhead under ~2%.

use std::time::Instant;

use crate::stats::PhaseNanos;

/// One metered task in every `SAMPLE_EVERY` is clocked; the rest run
/// untimed. Scaling by the same factor makes the estimate unbiased as
/// long as task costs are not correlated with their index modulo the
/// period — true for depth-first and work-stealing orders alike.
const SAMPLE_EVERY: u64 = 32;

/// An attributable phase of one exploration step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Machine execution (the interpreter's runs).
    Exec,
    /// Incremental digest / fingerprint maintenance.
    Digest,
    /// Candidate configuration cloning/priming.
    Clone,
    /// Symmetry canonicalization.
    Canon,
    /// Visited-table and parent-map admission.
    Table,
}

/// The per-loop sampler: armed for 1-in-[`SAMPLE_EVERY`] tasks, a
/// no-op otherwise. Accumulates raw sampled nanoseconds and hands out
/// scaled totals via [`PhaseTimes::drain_into`].
#[derive(Debug, Default)]
pub(crate) struct PhaseTimes {
    nanos: [u64; 5],
    active: bool,
}

impl PhaseTimes {
    /// Arms or disarms the sampler for the task with the given ordinal.
    pub(crate) fn begin_task(&mut self, index: u64) {
        self.active = index.is_multiple_of(SAMPLE_EVERY);
    }

    /// Starts timing a phase section; `None` when the sampler is
    /// disarmed (the common case, costing one branch).
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        if self.active {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a phase section opened by [`PhaseTimes::start`].
    #[inline]
    pub(crate) fn stop(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(t) = started {
            self.nanos[phase as usize] += t.elapsed().as_nanos() as u64;
        }
    }

    /// Folds the sampled nanoseconds, scaled back to the full run, into
    /// `out` and resets the sampler's accumulator.
    pub(crate) fn drain_into(&mut self, out: &mut PhaseNanos) {
        let [exec, digest, clone, canon, table] = self.nanos;
        out.add(&PhaseNanos {
            exec: exec * SAMPLE_EVERY,
            digest: digest * SAMPLE_EVERY,
            clone: clone * SAMPLE_EVERY,
            canon: canon * SAMPLE_EVERY,
            table: table * SAMPLE_EVERY,
        });
        self.nanos = [0; 5];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sampler_records_nothing() {
        let mut p = PhaseTimes::default();
        p.begin_task(1);
        let t = p.start();
        assert!(t.is_none());
        p.stop(Phase::Exec, t);
        let mut out = PhaseNanos::default();
        p.drain_into(&mut out);
        assert_eq!(out, PhaseNanos::default());
    }

    #[test]
    fn armed_sampler_scales_by_period() {
        let mut p = PhaseTimes::default();
        p.begin_task(SAMPLE_EVERY * 3);
        let t = p.start();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.stop(Phase::Digest, t);
        let mut out = PhaseNanos::default();
        p.drain_into(&mut out);
        assert!(out.digest >= 2_000_000 * SAMPLE_EVERY);
        assert_eq!(out.exec, 0);
        // Draining resets the accumulator.
        let mut again = PhaseNanos::default();
        p.drain_into(&mut again);
        assert_eq!(again, PhaseNanos::default());
    }
}
