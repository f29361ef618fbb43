//! Sampled phase attribution for the search kernel's hot loop.
//!
//! Metering every transition would cost a measurable fraction of the
//! loop it is trying to measure (a clock read is tens of nanoseconds
//! against a sub-microsecond transition). Instead the kernel clocks *one
//! task in [`SAMPLE_EVERY`]* end to end and scales the sampled
//! nanoseconds back up when folding them into [`crate::PhaseNanos`].
//! Tasks are statistically interchangeable at the scale where the
//! numbers matter (hundreds of thousands of expansions), so the scaled
//! estimate converges on the true split.
//!
//! A sampled task is a sequence of laps (DESIGN.md §15): the clock is
//! read once per phase boundary and each interval is charged to exactly
//! one phase, [`Phase::Other`] included, so the phases never overlap and
//! their sum never exceeds the run. What an empty lap costs — the clock
//! read and the bookkeeping around it — is measured once per process
//! and charged to no phase.

use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::PhaseNanos;

/// One metered task in every `SAMPLE_EVERY` is clocked; the rest run
/// untimed. Scaling by the same factor makes the estimate unbiased as
/// long as task costs are not correlated with their index modulo the
/// period — true for depth-first and work-stealing orders alike.
const SAMPLE_EVERY: u64 = 32;

/// An attributable phase of one exploration step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Phase {
    /// Machine execution (the interpreter's runs).
    Exec,
    /// Incremental digest / fingerprint maintenance.
    Digest,
    /// Candidate configuration cloning/priming and child builds.
    Clone,
    /// Symmetry canonicalization.
    Canon,
    /// Visited-table admission, slot interning and frontier pushes.
    Table,
    /// Everything else; not reported.
    #[default]
    Other,
    /// The visited table's admit call, reported inside [`Phase::Table`].
    Admit,
}

/// The per-loop sampler: armed for 1-in-[`SAMPLE_EVERY`] tasks, a
/// no-op otherwise. Accumulates raw sampled nanoseconds and hands out
/// scaled totals via [`PhaseTimes::drain_into`].
#[derive(Debug, Default)]
pub(crate) struct PhaseTimes {
    nanos: [u64; 7],
    /// The phase running now.
    current: Phase,
    /// When it started; `None` while disarmed.
    since: Option<Instant>,
    /// What a lap with nothing in it measures: the clock read and the
    /// bookkeeping around it ([`lap_overhead_ns`]).
    overhead: u64,
}

/// What an empty lap measures on this machine — one clock read and the
/// sampler's own bookkeeping: the median of 255, measured once.
fn lap_overhead_ns() -> u64 {
    static NS: OnceLock<u64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut probe = PhaseTimes {
            since: Some(Instant::now()),
            ..PhaseTimes::default()
        };
        let other = Phase::Other as usize;
        let mut laps: Vec<u64> = (0..255)
            .map(|_| {
                let before = probe.nanos[other];
                probe.enter(Phase::Other);
                probe.nanos[other] - before
            })
            .collect();
        laps.sort_unstable();
        laps[laps.len() / 2]
    })
}

impl PhaseTimes {
    /// Arms or disarms the sampler for the task with the given ordinal;
    /// an armed task starts in [`Phase::Other`].
    pub(crate) fn begin_task(&mut self, index: u64) {
        self.current = Phase::Other;
        self.since = None;
        if index.is_multiple_of(SAMPLE_EVERY) {
            self.overhead = lap_overhead_ns();
            self.since = Some(Instant::now());
        }
    }

    /// Ends the running phase's lap — charging it the time since the
    /// last boundary, less an empty lap's — and runs `phase` from here.
    /// Returns the phase it ended, for a nested section to restore.
    /// Disarmed, it only swaps the phase.
    #[inline]
    pub(crate) fn enter(&mut self, phase: Phase) -> Phase {
        if let Some(since) = self.since {
            let now = Instant::now();
            let lap = (now - since).as_nanos() as u64;
            self.nanos[self.current as usize] += lap.saturating_sub(self.overhead);
            self.since = Some(now);
        }
        std::mem::replace(&mut self.current, phase)
    }

    /// Ends the task's last lap and folds the sampled nanoseconds, scaled
    /// back to the full run, into `out`, resetting the accumulator.
    pub(crate) fn drain_into(&mut self, out: &mut PhaseNanos) {
        self.enter(Phase::Other);
        self.since = None;
        let [exec, digest, clone, canon, table, _other, admit] = self.nanos;
        out.add(&PhaseNanos {
            exec: exec * SAMPLE_EVERY,
            digest: digest * SAMPLE_EVERY,
            clone: clone * SAMPLE_EVERY,
            canon: canon * SAMPLE_EVERY,
            table: (table + admit) * SAMPLE_EVERY,
            admit: admit * SAMPLE_EVERY,
        });
        self.nanos = [0; 7];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sampler_records_nothing() {
        let mut p = PhaseTimes::default();
        p.begin_task(1);
        assert!(matches!(p.enter(Phase::Exec), Phase::Other));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(matches!(p.enter(Phase::Other), Phase::Exec));
        let mut out = PhaseNanos::default();
        p.drain_into(&mut out);
        assert_eq!(out, PhaseNanos::default());
    }

    #[test]
    fn armed_sampler_scales_by_period() {
        let mut p = PhaseTimes::default();
        p.begin_task(SAMPLE_EVERY * 3);
        p.enter(Phase::Digest);
        std::thread::sleep(std::time::Duration::from_millis(2));
        // A nested section hands the clock back to the phase it ended.
        let outer = p.enter(Phase::Exec);
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.enter(outer);
        let mut out = PhaseNanos::default();
        p.drain_into(&mut out);
        assert!(out.digest >= 2_000_000 * SAMPLE_EVERY);
        assert!(out.exec >= 1_000_000 * SAMPLE_EVERY);
        assert!(out.exec < out.digest, "{out:?}");
        // Draining resets the accumulator and disarms the sampler.
        let mut again = PhaseNanos::default();
        p.enter(Phase::Table);
        p.drain_into(&mut again);
        assert_eq!(again, PhaseNanos::default());
    }

    /// Laps with nothing in them charge (almost) nothing: the clock's
    /// own cost goes to no phase. The best of five rounds, so one
    /// preemption does not decide it.
    #[test]
    fn armed_no_op_laps_charge_about_nothing() {
        const LAPS: u64 = 10_000;
        let charged = (0..5)
            .map(|_| {
                let mut p = PhaseTimes::default();
                p.begin_task(0);
                for _ in 0..LAPS {
                    p.enter(Phase::Exec);
                    p.enter(Phase::Other);
                }
                let mut out = PhaseNanos::default();
                p.drain_into(&mut out);
                out.exec / SAMPLE_EVERY
            })
            .min()
            .unwrap();
        let per_lap = charged / LAPS;
        assert!(
            per_lap * 4 <= lap_overhead_ns().max(20),
            "{per_lap} ns per empty lap; the lap itself costs {} ns",
            lap_overhead_ns()
        );
    }
}
