//! Counterexample replay: re-executes a recorded schedule step by step
//! and checks that it reproduces the reported violation.
//!
//! Replays serve two purposes: they validate that reported traces are
//! real executions (guarding the checker against bookkeeping bugs), and
//! they give users a deterministic harness for debugging — the paper's
//! workflow of fixing a design against a concrete bad schedule.

use p_semantics::{Config, ExecOutcome, PError, Script};

use crate::explore::Verifier;
use crate::fault::FaultScheduler;
use crate::trace::{Counterexample, TraceStep};

/// Outcome of replaying a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The schedule reproduced exactly the reported error.
    Reproduced(PError),
    /// The schedule ran to its end without the error (the trace is
    /// stale or fabricated).
    NoError,
    /// A step could not be executed as recorded (wrong machine enabled,
    /// choices mismatched); the index of the failing step is given.
    Diverged {
        /// Index into the trace of the step that failed to replay.
        step: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl ReplayOutcome {
    /// True when the violation was reproduced.
    pub fn reproduced(&self) -> bool {
        matches!(self, ReplayOutcome::Reproduced(_))
    }
}

impl Verifier<'_> {
    /// Replays `counterexample` from the initial configuration, running
    /// exactly the recorded machine with the recorded ghost choices at
    /// every step.
    ///
    /// Returns [`ReplayOutcome::Reproduced`] when the final step takes
    /// the same error transition the counterexample reports.
    pub fn replay(&self, counterexample: &Counterexample) -> ReplayOutcome {
        let engine = self.engine();
        let mut config = engine.initial_config();
        let last = counterexample.trace.len().saturating_sub(1);

        for (i, step) in counterexample.trace.iter().enumerate() {
            let TraceStep {
                machine, choices, ..
            } = step;
            // Fault steps re-apply the recorded queue tampering instead of
            // running a machine; `apply` validates the queue still matches.
            if let Some(decision) = &step.fault {
                if let Err(reason) = FaultScheduler::apply(decision, &mut config) {
                    return ReplayOutcome::Diverged { step: i, reason };
                }
                continue;
            }
            if config.machine(*machine).is_none() {
                return ReplayOutcome::Diverged {
                    step: i,
                    reason: format!("machine {machine} is not alive"),
                };
            }
            if !engine.enabled(&config, *machine) {
                return ReplayOutcome::Diverged {
                    step: i,
                    reason: format!("machine {machine} is not enabled"),
                };
            }
            let mut script = Script::new(choices);
            let result = match engine.run_machine(
                &mut config,
                *machine,
                &mut script,
                self.options().granularity,
            ) {
                Ok(result) => result,
                Err(e) => {
                    return ReplayOutcome::Diverged {
                        step: i,
                        reason: e.to_string(),
                    };
                }
            };
            match result.outcome {
                ExecOutcome::NeedChoice => {
                    return ReplayOutcome::Diverged {
                        step: i,
                        reason: "recorded choice script was too short".to_owned(),
                    };
                }
                ExecOutcome::Error(e) => {
                    return if i == last && e == counterexample.error {
                        ReplayOutcome::Reproduced(e)
                    } else if i == last {
                        ReplayOutcome::Diverged {
                            step: i,
                            reason: format!(
                                "different error: got {e}, expected {}",
                                counterexample.error
                            ),
                        }
                    } else {
                        ReplayOutcome::Diverged {
                            step: i,
                            reason: format!("premature error at step {i}: {e}"),
                        }
                    };
                }
                _ => {
                    if result.choices_used != choices.len() {
                        return ReplayOutcome::Diverged {
                            step: i,
                            reason: format!(
                                "consumed {} of {} recorded choices",
                                result.choices_used,
                                choices.len()
                            ),
                        };
                    }
                }
            }
        }
        ReplayOutcome::NoError
    }

    /// Convenience: checks the program and, if a violation is found,
    /// immediately replays it; returns the report plus whether the replay
    /// reproduced the error (`None` when the program passed).
    pub fn check_exhaustive_and_replay(&self) -> (crate::Report, Option<bool>) {
        let report = self.check_exhaustive();
        let replay = report
            .counterexample
            .as_ref()
            .map(|cx| self.replay(cx).reproduced());
        (report, replay)
    }

    /// Runs the recorded schedule and returns the configuration just
    /// before the final (erroneous) step — the "last good state", useful
    /// for debugging.
    pub fn replay_to_last_good(&self, counterexample: &Counterexample) -> Option<Config> {
        let engine = self.engine();
        let mut config = engine.initial_config();
        let steps = counterexample.trace.len();
        for step in counterexample.trace.iter().take(steps.saturating_sub(1)) {
            if let Some(decision) = &step.fault {
                if FaultScheduler::apply(decision, &mut config).is_err() {
                    return None;
                }
                continue;
            }
            let mut script = Script::new(&step.choices);
            let Ok(result) = engine.run_machine(
                &mut config,
                step.machine,
                &mut script,
                self.options().granularity,
            ) else {
                return None;
            };
            if matches!(
                result.outcome,
                ExecOutcome::Error(_) | ExecOutcome::NeedChoice
            ) {
                return None;
            }
        }
        Some(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::lower;

    fn compiled(src: &str) -> p_semantics::LoweredProgram {
        lower(&p_parser::parse(src).unwrap()).unwrap()
    }

    const RACY: &str = r#"
        event a : int;
        machine Main {
            var s1 : id;
            var s2 : id;
            state Init {
                entry {
                    s1 := new Sender(val = 1, boss = this);
                    s2 := new Sender(val = 2, boss = this);
                }
                on a goto Got;
            }
            state Got {
                defer a;
                entry { assert(arg == 1); }
            }
        }
        machine Sender {
            var val : int;
            var boss : id;
            state Go { entry { send(boss, a, val); } }
        }
        main Main();
    "#;

    #[test]
    fn exhaustive_counterexamples_replay() {
        let p = compiled(RACY);
        let verifier = Verifier::new(&p);
        let (report, replayed) = verifier.check_exhaustive_and_replay();
        assert!(!report.passed());
        assert_eq!(replayed, Some(true));
    }

    #[test]
    fn delay_bounded_counterexamples_replay() {
        let p = compiled(RACY);
        let verifier = Verifier::new(&p);
        let report = verifier.check_delay_bounded(2);
        let cx = report.counterexample.expect("bug found");
        assert!(verifier.replay(&cx).reproduced());
    }

    #[test]
    fn random_counterexamples_replay() {
        let p = compiled(RACY);
        let verifier = Verifier::new(&p);
        let report = verifier.check_random(3, 100, 64);
        let cx = report.counterexample.expect("bug found randomly");
        assert!(verifier.replay(&cx).reproduced());
    }

    #[test]
    fn tampered_trace_diverges() {
        let p = compiled(RACY);
        let verifier = Verifier::new(&p);
        let cx = verifier.check_exhaustive().counterexample.unwrap();

        // Drop the final step: no error is reached.
        let mut truncated = cx.clone();
        truncated.trace.pop();
        assert!(!verifier.replay(&truncated).reproduced());

        // Point a step at a dead machine id.
        let mut corrupt = cx.clone();
        corrupt.trace[0].machine = p_semantics::MachineId(99);
        assert!(matches!(
            verifier.replay(&corrupt),
            ReplayOutcome::Diverged { step: 0, .. }
        ));
    }

    #[test]
    fn last_good_state_is_error_free() {
        let p = compiled(RACY);
        let verifier = Verifier::new(&p);
        let cx = verifier.check_exhaustive().counterexample.unwrap();
        let config = verifier.replay_to_last_good(&cx).expect("prefix replays");
        // The configuration is a real, live state.
        assert!(config.live_ids().count() >= 1);
    }
}
