//! Environment-fault injection during exploration.
//!
//! The paper's checker enumerates *schedules*; real drivers additionally
//! face a faulty environment — interrupts that get lost, messages that
//! arrive twice, deliveries reordered past the FIFO order the semantics
//! otherwise guarantees. This module adds a bounded *fault scheduler* to
//! the search: at most `budget` times along any path it may tamper with
//! one queued event — dropping it, duplicating it (bypassing the ⊕
//! dedup of §3.1), or delaying it behind the rest of its queue.
//!
//! The fault budget plays the same role for environment faults that the
//! delay bound (§5) plays for scheduling: a small budget buys most of
//! the robustness coverage while keeping the explored space finite, and
//! budget 0 degenerates to the fault-free search.

use std::fmt;

use p_semantics::{Config, Engine, EventId, ExecOutcome, MachineId, RunResult, YieldKind};

use crate::error::CheckerError;
use crate::explore::{Report, Scheduler, Step, Verifier, SLOT_MEMO_ENTRIES};
use crate::succ::Successor;

/// One kind of environment fault the scheduler may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Remove a queued event: the send happened but delivery is lost.
    Drop,
    /// Append a copy of a queued event to the back of the same queue,
    /// bypassing the ⊕ dedup — the environment re-delivers a message.
    Dup,
    /// Move a queued event to the back of its queue, letting later
    /// arrivals overtake it.
    Delay,
}

impl FaultKind {
    /// All fault kinds, in canonical order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Drop, FaultKind::Dup, FaultKind::Delay];

    /// The CLI tag for this kind (`drop`, `dup`, `delay`).
    pub fn tag(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Dup => "dup",
            FaultKind::Delay => "delay",
        }
    }

    /// Parses a comma-separated kind list such as `drop,dup,delay`.
    /// Duplicates are removed; order is preserved.
    pub fn parse_list(s: &str) -> Result<Vec<FaultKind>, String> {
        let mut out = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let kind = match part {
                "drop" => FaultKind::Drop,
                "dup" => FaultKind::Dup,
                "delay" => FaultKind::Delay,
                "" => return Err("empty fault kind in list".to_owned()),
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected drop, dup, delay)"
                    ))
                }
            };
            if !out.contains(&kind) {
                out.push(kind);
            }
        }
        if out.is_empty() {
            return Err("empty fault kind list".to_owned());
        }
        Ok(out)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One concrete fault the scheduler injected: which kind, on which
/// machine's queue, at which index. The event id at that index is
/// recorded so replay can detect a stale or tampered trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// What was done to the queue entry.
    pub kind: FaultKind,
    /// The machine whose input queue was tampered with.
    pub machine: MachineId,
    /// Index into that queue at the moment of injection.
    pub index: usize,
    /// The event that was queued at `index` (for replay validation).
    pub event: EventId,
}

/// Enumerates and applies environment faults, bounded by a budget.
#[derive(Debug, Clone)]
pub struct FaultScheduler {
    budget: usize,
    kinds: Vec<FaultKind>,
}

impl FaultScheduler {
    /// A scheduler allowing at most `budget` faults of the given kinds
    /// along any path. An empty `kinds` slice means all kinds.
    pub fn new(budget: usize, kinds: &[FaultKind]) -> FaultScheduler {
        let kinds = if kinds.is_empty() {
            FaultKind::ALL.to_vec()
        } else {
            kinds.to_vec()
        };
        FaultScheduler { budget, kinds }
    }

    /// The fault budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The fault kinds in play.
    pub fn kinds(&self) -> &[FaultKind] {
        &self.kinds
    }

    /// All faults injectable in `config` given `used` faults already
    /// spent. Empty once the budget is exhausted. A `Delay` of the last
    /// queue entry is a no-op and is not enumerated.
    pub fn faults_for(&self, config: &Config, used: usize) -> Vec<FaultDecision> {
        let mut out = Vec::new();
        if used >= self.budget {
            return out;
        }
        for id in config.live_ids() {
            let Some(m) = config.machine(id) else {
                continue;
            };
            for (index, &(event, _)) in m.queue.iter().enumerate() {
                for &kind in &self.kinds {
                    if kind == FaultKind::Delay && index + 1 >= m.queue.len() {
                        continue;
                    }
                    out.push(FaultDecision {
                        kind,
                        machine: id,
                        index,
                        event,
                    });
                }
            }
        }
        out
    }

    /// Applies `decision` to `config`, validating that the target queue
    /// still looks as recorded (used both by the search and by replay).
    pub fn apply(decision: &FaultDecision, config: &mut Config) -> Result<(), String> {
        let Some(m) = config.machine_mut(decision.machine) else {
            return Err(format!("fault target {} is not alive", decision.machine));
        };
        let len = m.queue.len();
        if decision.index >= len {
            return Err(format!(
                "fault index {} out of range (queue of {} has {len} entries)",
                decision.index, decision.machine
            ));
        }
        if m.queue[decision.index].0 != decision.event {
            return Err(format!(
                "queue[{}] of {} no longer holds the recorded event",
                decision.index, decision.machine
            ));
        }
        match decision.kind {
            FaultKind::Drop => {
                m.queue.remove(decision.index);
            }
            FaultKind::Dup => {
                let entry = m.queue[decision.index];
                m.queue.push(entry);
            }
            FaultKind::Delay => {
                if decision.index + 1 >= len {
                    return Err(format!(
                        "delaying the last entry of {}'s queue is a no-op",
                        decision.machine
                    ));
                }
                let entry = m.queue.remove(decision.index);
                m.queue.push(entry);
            }
        }
        Ok(())
    }
}

impl FaultDecision {
    /// The one successor of injecting this fault in `config`. No machine
    /// ran: the result is a placeholder (edge and child go by the move).
    pub(crate) fn successor(&self, config: &Config) -> Successor {
        let mut faulted = config.clone();
        FaultScheduler::apply(self, &mut faulted)
            .expect("enumerated fault applies to its own configuration");
        Successor {
            config: Some(Box::new(faulted)),
            machine: self.machine,
            choices: Vec::new(),
            result: RunResult {
                outcome: ExecOutcome::Yield(YieldKind::Internal),
                choices_used: 0,
                steps: 0,
                dequeued: Vec::new(),
                raised: Vec::new(),
                deferred: Vec::new(),
            },
            replay: None,
        }
    }
}

/// The exhaustive moves, then one per injectable fault while the budget
/// lasts (errors surface at machine steps); a node carries the faults spent.
impl Scheduler for FaultScheduler {
    type Note = usize;
    type Move = Step;
    type Graph = ();

    fn root(&self) -> usize {
        0
    }

    fn moves(
        &self,
        engine: &Engine<'_>,
        config: &Config,
        used: &mut usize,
        out: &mut Vec<Step>,
    ) -> bool {
        out.clear();
        let enabled = config.live_ids().filter(|&id| engine.enabled(config, id));
        out.extend(enabled.map(Step::Run));
        let quiescent = out.is_empty();
        out.extend(self.faults_for(config, *used).into_iter().map(Step::Inject));
        quiescent
    }

    fn step(mv: &Step) -> Step {
        *mv
    }

    fn child(&self, used: &usize, mv: &Step, _: &ExecOutcome) -> usize {
        used + usize::from(matches!(mv, Step::Inject(_)))
    }

    fn encode(used: &usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*used as u64).to_le_bytes());
    }

    fn decode(mut bytes: &[u8]) -> Option<usize> {
        let used = p_semantics::wire::read_u64(&mut bytes)?;
        bytes.is_empty().then_some(used as usize)
    }
}

impl Verifier<'_> {
    /// Exhaustive search augmented with environment-fault injection: at
    /// every visited state, besides running each enabled machine, the
    /// checker may spend one unit of `budget` to drop, duplicate or
    /// delay any queued event (restricted to `kinds`; empty = all).
    ///
    /// With `budget = 0` this coincides with [`Verifier::check_exhaustive`].
    /// Fault injections appear in counterexample traces as dedicated
    /// steps and replay deterministically. Every [`crate::CheckerOptions`]
    /// field but `por`/`symmetry` applies as to the exhaustive search.
    /// `stats.unique_states` counts unique *configurations*,
    /// `stats.scheduler_nodes` the (configuration, faults-used) pairs and
    /// `stats.fault_transitions` the injections explored.
    ///
    /// # Panics
    ///
    /// Panics if the search fails with a [`CheckerError`], as
    /// [`Verifier::check_exhaustive`] does. Use
    /// [`Verifier::try_check_with_faults`] to handle those errors.
    pub fn check_with_faults(&self, budget: usize, kinds: &[FaultKind]) -> Report {
        self.try_check_with_faults(budget, kinds)
            .expect("fault-injecting search failed; use try_check_with_faults to handle errors")
    }

    /// [`Verifier::check_with_faults`], surfacing errors instead of
    /// panicking: those of [`Verifier::try_check_exhaustive`], and
    /// [`CheckerError::Unsupported`] for `por` or `symmetry`.
    pub fn try_check_with_faults(
        &self,
        budget: usize,
        kinds: &[FaultKind],
    ) -> Result<Report, CheckerError> {
        let scheduler = FaultScheduler::new(budget, kinds);
        let (report, ..) = self.search_with(&scheduler, self.options().jobs, SLOT_MEMO_ENTRIES)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::{lower, ErrorKind};

    fn compiled(src: &str) -> p_semantics::LoweredProgram {
        lower(&p_parser::parse(src).unwrap()).unwrap()
    }

    /// Correct under FIFO delivery, broken if `cfg` is lost or overtaken:
    /// `data` then arrives in `WaitCfg`, which does not handle it.
    const LOSSY: &str = r#"
        event cfg;
        event data;
        machine Sink {
            state WaitCfg {
                on cfg goto Ready;
            }
            state Ready {
                on data do take;
            }
            action take { }
        }
        ghost machine Link {
            var s : id;
            state Go {
                entry { s := new Sink(); send(s, cfg); send(s, data); }
            }
        }
        main Link();
    "#;

    /// Correct under ⊕ dedup, broken if `data` is re-delivered.
    const AT_MOST_ONCE: &str = r#"
        event data;
        machine Sink {
            var n : int;
            state Run {
                entry { n := 0; }
                on data do take;
            }
            action take { n := n + 1; assert(n <= 1); }
        }
        ghost machine Link {
            var s : id;
            state Go { entry { s := new Sink(); send(s, data); } }
        }
        main Link();
    "#;

    #[test]
    fn parse_list_accepts_tags_and_rejects_junk() {
        assert_eq!(
            FaultKind::parse_list("drop,dup,delay").unwrap(),
            FaultKind::ALL.to_vec()
        );
        assert_eq!(
            FaultKind::parse_list(" delay , drop ").unwrap(),
            vec![FaultKind::Delay, FaultKind::Drop]
        );
        // Duplicates collapse.
        assert_eq!(
            FaultKind::parse_list("drop,drop").unwrap(),
            vec![FaultKind::Drop]
        );
        assert!(FaultKind::parse_list("").is_err());
        assert!(FaultKind::parse_list("drop,,dup").is_err());
        assert!(FaultKind::parse_list("corrupt").is_err());
    }

    #[test]
    fn faults_for_respects_budget_kinds_and_queue_shape() {
        let p = compiled(LOSSY);
        let engine = p_semantics::Engine::new(&p, p_semantics::ForeignEnv::empty());
        let mut config = engine.initial_config();
        // Run only the ghost link to quiescence so Sink's queue is
        // [cfg, data] (the Sink itself must not dequeue anything yet).
        while engine.enabled(&config, MachineId(0)) {
            let mut no = || false;
            engine
                .run_machine(&mut config, MachineId(0), &mut no, Default::default())
                .unwrap();
        }
        let sink = MachineId(1);
        assert_eq!(config.machine(sink).unwrap().queue.len(), 2);

        let all = FaultScheduler::new(1, &[]);
        let faults = all.faults_for(&config, 0);
        // 2 entries × {drop, dup} + 1 delayable (index 0) = 5.
        assert_eq!(faults.len(), 5);
        assert!(faults.iter().all(|f| f.machine == sink));
        assert_eq!(
            faults.iter().filter(|f| f.kind == FaultKind::Delay).count(),
            1
        );
        // Budget exhausted → nothing.
        assert!(all.faults_for(&config, 1).is_empty());
        // Kind restriction.
        let drops = FaultScheduler::new(1, &[FaultKind::Drop]);
        assert!(drops
            .faults_for(&config, 0)
            .iter()
            .all(|f| f.kind == FaultKind::Drop));
    }

    #[test]
    fn apply_validates_target_and_mutates_queue() {
        let p = compiled(LOSSY);
        let engine = p_semantics::Engine::new(&p, p_semantics::ForeignEnv::empty());
        let mut config = engine.initial_config();
        while engine.enabled(&config, MachineId(0)) {
            let mut no = || false;
            engine
                .run_machine(&mut config, MachineId(0), &mut no, Default::default())
                .unwrap();
        }
        let sink = MachineId(1);
        let cfg_event = config.machine(sink).unwrap().queue[0].0;
        let data_event = config.machine(sink).unwrap().queue[1].0;

        // Delay moves cfg behind data.
        let mut delayed = config.clone();
        FaultScheduler::apply(
            &FaultDecision {
                kind: FaultKind::Delay,
                machine: sink,
                index: 0,
                event: cfg_event,
            },
            &mut delayed,
        )
        .unwrap();
        let q: Vec<_> = delayed
            .machine(sink)
            .unwrap()
            .queue
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(q, vec![data_event, cfg_event]);

        // Dup appends a copy, bypassing ⊕.
        let mut duped = config.clone();
        FaultScheduler::apply(
            &FaultDecision {
                kind: FaultKind::Dup,
                machine: sink,
                index: 1,
                event: data_event,
            },
            &mut duped,
        )
        .unwrap();
        assert_eq!(duped.machine(sink).unwrap().queue.len(), 3);

        // Stale traces are rejected: wrong event at the index…
        let err = FaultScheduler::apply(
            &FaultDecision {
                kind: FaultKind::Drop,
                machine: sink,
                index: 0,
                event: data_event,
            },
            &mut config.clone(),
        )
        .unwrap_err();
        assert!(err.contains("no longer holds"));
        // …index out of range…
        let err = FaultScheduler::apply(
            &FaultDecision {
                kind: FaultKind::Drop,
                machine: sink,
                index: 9,
                event: cfg_event,
            },
            &mut config.clone(),
        )
        .unwrap_err();
        assert!(err.contains("out of range"));
        // …and dead machines.
        let err = FaultScheduler::apply(
            &FaultDecision {
                kind: FaultKind::Drop,
                machine: MachineId(7),
                index: 0,
                event: cfg_event,
            },
            &mut config.clone(),
        )
        .unwrap_err();
        assert!(err.contains("not alive"));
    }

    #[test]
    fn drop_sensitive_bug_needs_a_fault_budget() {
        let p = compiled(LOSSY);
        let verifier = Verifier::new(&p);
        // Fault-free search (budget 0) sees only FIFO delivery: correct.
        let clean = verifier.check_with_faults(0, &[]);
        assert!(clean.passed(), "{:?}", clean.counterexample);
        assert!(clean.complete);
        assert_eq!(clean.stats.fault_transitions, 0);
        // One dropped event breaks it.
        let faulty = verifier.check_with_faults(1, &[FaultKind::Drop]);
        let cx = faulty.counterexample.expect("drop fault finds the bug");
        assert!(matches!(cx.error.kind, ErrorKind::UnhandledEvent { .. }));
        assert!(cx.trace.iter().any(|s| s.fault.is_some()));
        assert!(faulty.stats.fault_transitions > 0);
    }

    #[test]
    fn delay_fault_reorders_past_fifo() {
        let p = compiled(LOSSY);
        let verifier = Verifier::new(&p);
        let report = verifier.check_with_faults(1, &[FaultKind::Delay]);
        let cx = report.counterexample.expect("delay fault finds the bug");
        assert!(matches!(cx.error.kind, ErrorKind::UnhandledEvent { .. }));
        let fault = cx
            .trace
            .iter()
            .find_map(|s| s.fault)
            .expect("trace records the fault");
        assert_eq!(fault.kind, FaultKind::Delay);
    }

    #[test]
    fn dup_fault_bypasses_queue_dedup() {
        let p = compiled(AT_MOST_ONCE);
        let verifier = Verifier::new(&p);
        // Dropping the only event cannot violate the ≤1 assertion.
        assert!(verifier.check_with_faults(3, &[FaultKind::Drop]).passed());
        // Re-delivery does.
        let report = verifier.check_with_faults(1, &[FaultKind::Dup]);
        let cx = report.counterexample.expect("dup fault finds the bug");
        assert_eq!(cx.error.kind, ErrorKind::AssertionFailure);
    }

    #[test]
    fn fault_counterexamples_replay_deterministically() {
        let p = compiled(LOSSY);
        let verifier = Verifier::new(&p);
        let report = verifier.check_with_faults(1, &[]);
        let cx = report.counterexample.expect("bug found");
        assert!(verifier.replay(&cx).reproduced());
        // The last-good state replays the fault prefix too.
        let config = verifier.replay_to_last_good(&cx).expect("prefix replays");
        assert!(config.live_ids().count() >= 1);
    }

    #[test]
    fn tampered_fault_trace_diverges() {
        let p = compiled(LOSSY);
        let verifier = Verifier::new(&p);
        let cx = verifier
            .check_with_faults(1, &[FaultKind::Drop])
            .counterexample
            .unwrap();
        let fault_at = cx.trace.iter().position(|s| s.fault.is_some()).unwrap();
        let mut corrupt = cx.clone();
        corrupt.trace[fault_at].fault.as_mut().unwrap().index += 7;
        assert!(matches!(
            verifier.replay(&corrupt),
            crate::ReplayOutcome::Diverged { .. }
        ));
    }

    #[test]
    fn budget_zero_matches_exhaustive() {
        let p = compiled(LOSSY);
        let verifier = Verifier::new(&p);
        let plain = verifier.check_exhaustive();
        let faultless = verifier.check_with_faults(0, &[]);
        assert_eq!(plain.passed(), faultless.passed());
        assert_eq!(plain.stats.unique_states, faultless.stats.unique_states);
    }
}
