//! The delay-bounded scheduler of §5.
//!
//! The scheduler maintains a stack `S` of machine identifiers and a delay
//! score. It always runs the machine on top of `S`; the explored schedules
//! follow the *causal* order of events:
//!
//! * when the scheduled machine creates `m'`, `m'` is pushed on `S`;
//! * when it sends to `m'` and `m' ∉ S`, `m'` is pushed on `S`;
//! * a *delay* moves the top of `S` to the bottom and increments the
//!   score.
//!
//! Given a budget `d`, the scheduler explores every schedule with at most
//! `d` delays (plus all resolutions of ghost `*` choices). With `d = 0`
//! the explored schedule is exactly the causal one the P runtime executes
//! (§5); as `d → ∞` all schedules are covered.

use std::collections::VecDeque;

use p_semantics::{Config, Engine, ExecOutcome, MachineId, YieldKind};

use crate::error::CheckerError;
use crate::explore::{Report, Scheduler, Step, Verifier, SLOT_MEMO_ENTRIES};

/// The scheduler stack `S` plus the delay score, as one explorable node
/// component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SchedulerState {
    /// The machine stack; front is the top (the machine scheduled next).
    pub stack: VecDeque<MachineId>,
    /// Delays spent so far.
    pub delays: usize,
}

impl SchedulerState {
    /// The initial scheduler state: only the initial machine (always
    /// the first allocated).
    pub fn initial() -> SchedulerState {
        SchedulerState {
            stack: VecDeque::from([MachineId(0)]),
            delays: 0,
        }
    }

    /// Removes machines that cannot currently run, keeping stack order.
    /// Sound because the only ways a waiting machine becomes runnable —
    /// receiving an event or being created — push it back on `S`.
    pub(crate) fn normalize(&mut self, engine: &Engine<'_>, config: &Config) {
        self.stack
            .retain(|&id| config.machine(id).is_some() && engine.enabled(config, id));
    }

    /// Applies `r` delay operations (each moves the top to the bottom).
    pub(crate) fn rotated(&self, r: usize) -> SchedulerState {
        let mut s = self.clone();
        for _ in 0..r {
            if let Some(top) = s.stack.pop_front() {
                s.stack.push_back(top);
            }
        }
        s.delays += r;
        s
    }

    /// Follows the causal order past the top machine's run: a receiver
    /// not on `S` and a created machine go on top, a machine that blocked
    /// or deleted itself leaves `S` until an event re-enables it, and a
    /// fine-grained internal step keeps it on top.
    pub(crate) fn advance(&mut self, outcome: &ExecOutcome) {
        let &machine = self.stack.front().expect("a machine ran, so S held it");
        match outcome {
            ExecOutcome::Yield(YieldKind::Sent { to, .. }) => {
                if !self.stack.contains(to) {
                    self.stack.push_front(*to);
                }
            }
            ExecOutcome::Yield(YieldKind::Created { id, .. }) => self.stack.push_front(*id),
            ExecOutcome::Yield(YieldKind::Internal) => {}
            ExecOutcome::Blocked | ExecOutcome::Deleted => self.stack.retain(|&id| id != machine),
            ExecOutcome::Error(_) | ExecOutcome::NeedChoice => {
                unreachable!("error/incomplete runs have no successor node")
            }
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.stack.len() as u32).to_le_bytes());
        for id in &self.stack {
            out.extend_from_slice(&id.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.delays as u64).to_le_bytes());
    }
}

/// The causal scheduler with delay budget `d`: the top of the normalized
/// stack runs, rotated as often as the budget still allows.
#[derive(Debug)]
pub(crate) struct DelayBounded(pub(crate) usize);

impl Scheduler for DelayBounded {
    type Note = SchedulerState;
    /// The stack rotated for this move; its top is the machine to run.
    type Move = SchedulerState;
    type Graph = ();

    fn root(&self) -> SchedulerState {
        SchedulerState::initial()
    }

    fn moves(
        &self,
        engine: &Engine<'_>,
        config: &Config,
        note: &mut SchedulerState,
        out: &mut Vec<SchedulerState>,
    ) -> bool {
        out.clear();
        note.normalize(engine, config);
        if !note.stack.is_empty() {
            let remaining = self.0.saturating_sub(note.delays);
            let max_rot = remaining.min(note.stack.len() - 1);
            out.extend((0..=max_rot).map(|r| note.rotated(r)));
        }
        !config.live_ids().any(|id| engine.enabled(config, id))
    }

    fn step(mv: &SchedulerState) -> Step {
        Step::Run(*mv.stack.front().expect("a move rotates a non-empty stack"))
    }

    fn child(&self, _: &Self::Note, mv: &Self::Move, outcome: &ExecOutcome) -> Self::Note {
        let mut next = mv.clone();
        next.advance(outcome);
        next
    }

    fn encode(note: &SchedulerState, out: &mut Vec<u8>) {
        note.encode(out);
    }

    fn decode(mut bytes: &[u8]) -> Option<SchedulerState> {
        let buf = &mut bytes;
        let len = p_semantics::wire::read_u32(buf)? as usize;
        let ids = p_semantics::wire::take(buf, len.checked_mul(4)?)?;
        let stack = ids
            .chunks_exact(4)
            .map(|id| MachineId(u32::from_le_bytes(id.try_into().expect("four bytes"))))
            .collect();
        let delays = p_semantics::wire::read_u64(buf)? as usize;
        buf.is_empty().then_some(SchedulerState { stack, delays })
    }
}

impl Verifier<'_> {
    /// Delay-bounded systematic testing with the causal delaying scheduler
    /// of §5. Every [`crate::CheckerOptions`] field but `por`/`symmetry`
    /// applies as to the exhaustive search. `stats.unique_states` counts
    /// unique *configurations* (the Figure 7 quantity) and
    /// `stats.scheduler_nodes` the (configuration, scheduler state) pairs.
    ///
    /// # Errors
    ///
    /// Those of [`Verifier::try_check_exhaustive`], and
    /// [`CheckerError::Unsupported`] for `por` or `symmetry`.
    pub fn try_check_delay_bounded(&self, delay_bound: usize) -> Result<Report, CheckerError> {
        let jobs = self.options().jobs;
        let (report, ..) = self.search_with(&DelayBounded(delay_bound), jobs, SLOT_MEMO_ENTRIES)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p_semantics::{lower, ForeignEnv};

    #[test]
    fn rotation_moves_top_to_bottom_and_counts_delays() {
        let s = SchedulerState {
            stack: VecDeque::from([MachineId(0), MachineId(1), MachineId(2)]),
            delays: 1,
        };
        let r = s.rotated(1);
        assert_eq!(
            r.stack,
            VecDeque::from([MachineId(1), MachineId(2), MachineId(0)])
        );
        assert_eq!(r.delays, 2);
        // Rotating by the stack length is the identity on the stack.
        let full = s.rotated(3);
        assert_eq!(full.stack, s.stack);
        assert_eq!(full.delays, 4);
    }

    #[test]
    fn rotation_of_empty_stack_is_safe() {
        let s = SchedulerState {
            stack: VecDeque::new(),
            delays: 0,
        };
        let r = s.rotated(5);
        assert!(r.stack.is_empty());
        assert_eq!(r.delays, 5);
    }

    #[test]
    fn normalize_drops_disabled_and_dead_machines() {
        let src = r#"
            event go;
            machine A { state S { defer go; } }
            machine B { state T { entry { delete; } } }
            ghost machine Env {
                var a : id;
                var b : id;
                state D { entry { a := new A(); b := new B(); } }
            }
            main Env();
        "#;
        let program = lower(&p_parser::parse(src).unwrap()).unwrap();
        let engine = p_semantics::Engine::new(&program, ForeignEnv::empty());
        let mut config = engine.initial_config();
        // Run everything to quiescence.
        loop {
            let enabled = engine.enabled_machines(&config);
            let Some(&id) = enabled.first() else { break };
            let mut no = || false;
            engine
                .run_machine(&mut config, id, &mut no, Default::default())
                .unwrap();
        }
        let mut sched = SchedulerState {
            stack: VecDeque::from([MachineId(0), MachineId(1), MachineId(2), MachineId(9)]),
            delays: 0,
        };
        sched.normalize(&engine, &config);
        assert!(
            sched.stack.is_empty(),
            "all machines are blocked, deleted or nonexistent: {sched:?}"
        );
    }

    #[test]
    fn encoding_distinguishes_stack_order_and_delays() {
        let a = SchedulerState {
            stack: VecDeque::from([MachineId(0), MachineId(1)]),
            delays: 0,
        };
        let b = a.rotated(1);
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        a.encode(&mut ea);
        b.encode(&mut eb);
        assert_ne!(ea, eb);
        let mut c = a.clone();
        c.delays = 3;
        let mut ec = Vec::new();
        c.encode(&mut ec);
        assert_ne!(ea, ec);
    }
}
