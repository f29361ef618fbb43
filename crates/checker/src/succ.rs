//! Successor generation: all outcomes of running one machine from one
//! configuration, across every resolution of its ghost `*` choices.

use std::sync::Arc;

use p_semantics::{
    ChoiceSource, Config, Engine, ExecError, ExecOutcome, Granularity, MachineId, RunResult,
    SlotInterner,
};

use crate::memo::{Replay, SlotMemo};
use crate::phase::Phase;

/// One successor: the configuration after running `machine` with choice
/// script `choices`. The configuration is a pooled box, so a batch of
/// successors is moved and walked as records of at most 256 bytes.
#[derive(Debug, Clone)]
pub(crate) struct Successor {
    /// `None` while `replay` is set (see [`SuccArena::build`]), and once
    /// taken for a task or recycled.
    pub config: Option<Box<Config>>,
    pub machine: MachineId,
    pub choices: Vec<bool>,
    pub result: RunResult,
    /// Set when the slot-transition memo answered the run.
    pub replay: Option<Replay>,
}

impl Successor {
    pub(crate) fn is_error(&self) -> bool {
        matches!(self.result.outcome, ExecOutcome::Error(_))
    }

    /// The child's digest: the memo's fold for a replayed run.
    pub(crate) fn digest(&mut self) -> u128 {
        match (&self.replay, &mut self.config) {
            (Some(replay), _) => replay.digest,
            (None, Some(config)) => config.digest(),
            (None, None) => unreachable!("an interpreted successor holds its configuration"),
        }
    }
}

/// Recycling pool for the successor hot path: rejected candidates'
/// configurations (with their machine-state buffers) and choice
/// scripts come back here and are re-derived from the next parent via
/// [`Config::prepare_candidate`] / `clone_from` instead of fresh
/// allocations. In the steady state a successor costs zero mallocs:
/// the candidate reuses a pooled config whose uniquely-owned runner
/// slot absorbs the copy-on-write unsharing, and the choices vector
/// reuses a pooled buffer.
#[derive(Debug, Default)]
pub(crate) struct SuccArena {
    /// Boxed, for a box moves between pool, successor and task without
    /// copying the configuration.
    #[allow(clippy::vec_box)]
    configs: Vec<Box<Config>>,
    scripts: Vec<Vec<bool>>,
    /// Sole-owned machine buffers harvested from retired candidates;
    /// [`Config::prepare_candidate`] primes the next runner slot from
    /// here so the run's `Arc::make_mut` never deep-clones.
    slots: Vec<std::sync::Arc<p_semantics::MachineState>>,
    /// The enumeration's working script buffer, kept across tasks.
    script_buf: Vec<bool>,
    /// Sampled phase attribution for the loop this arena serves (the
    /// arena is already threaded through the hot path, so the sampler
    /// rides along instead of widening every signature).
    pub(crate) phases: crate::phase::PhaseTimes,
    /// The search kernel's slot-transition memo; `None` for every other
    /// caller, whose runs are all interpreted.
    memo: Option<SlotMemo>,
}

/// Pool growth cap: the pool only needs to cover one expansion's worth
/// of successors plus a popped task per step; anything beyond that is a
/// leak, not a working set.
const ARENA_CAP: usize = 64;

impl SuccArena {
    /// An arena with a [`SlotMemo`] of `memo` = (runs, appends) entries,
    /// for atomic runs of an engine with its event logs off.
    pub(crate) fn with_memo(memo: Option<(usize, usize)>) -> SuccArena {
        let memo = memo.map(|(runs, appends)| SlotMemo::new(runs, appends));
        SuccArena {
            memo,
            ..SuccArena::default()
        }
    }

    /// Takes a successor's buffers back into the pool, leaving it empty
    /// where it lies.
    pub(crate) fn recycle(&mut self, succ: &mut Successor) {
        if let Some(config) = succ.config.take() {
            self.recycle_config(config);
        }
        if self.scripts.len() < ARENA_CAP {
            self.scripts.push(std::mem::take(&mut succ.choices));
        }
    }

    /// Returns a retired configuration (rejected successor or expanded
    /// task) to the pool, harvesting its sole-owned machine buffers for
    /// runner-slot priming.
    pub(crate) fn recycle_config(&mut self, mut config: Box<Config>) {
        config.harvest_unique_slots(&mut self.slots, ARENA_CAP);
        if self.configs.len() < ARENA_CAP {
            self.configs.push(config);
        }
    }

    /// A candidate configuration primed from `config` for running
    /// `machine`: pooled buffers when available, fresh allocations
    /// otherwise.
    fn candidate(&mut self, config: &Config, machine: MachineId) -> Box<Config> {
        let mut c = self.configs.pop().unwrap_or_default();
        c.prepare_candidate(config, machine, &mut self.slots);
        c
    }

    /// A choices vector holding `bits`, reusing a pooled buffer.
    fn choices(&mut self, bits: &[bool]) -> Vec<bool> {
        let mut v = self.scripts.pop().unwrap_or_default();
        v.clear();
        v.extend_from_slice(bits);
        v
    }

    /// Builds the configuration of a replayed successor (a no-op for one
    /// the interpreter built): `parent` with the changed slots' states
    /// taken from `interner`, or, where `interner` lacks one, made by the
    /// interpreter after all. Returns whether the interpreter made it.
    pub(crate) fn build(
        &mut self,
        config: &mut Option<Box<Config>>,
        replay: &mut Option<Replay>,
        parent: &Config,
        engine: &Engine<'_>,
        interner: &SlotInterner,
    ) -> bool {
        let Some(replay) = replay.take() else {
            return false;
        };
        let mut rebuilt = false;
        let was = self.phases.enter(Phase::Clone);
        let mut child = self.configs.pop().unwrap_or_default();
        (*child).clone_from(parent);
        for &(id, digest, len) in replay.slots() {
            let Some(state) = interner.get(digest) else {
                // The run again: it returned `Ok` when it was remembered,
                // from this machine, state and script (`false` past its end).
                let (machine, bits, mut next) = (replay.machine(), replay.bits, 0);
                let mut script = || {
                    next += 1;
                    next <= 64 && bits >> (next - 1) & 1 == 1
                };
                child.prepare_candidate(parent, machine, &mut self.slots);
                let ran = engine.run_machine(&mut child, machine, &mut script, Granularity::Atomic);
                ran.expect("a remembered run runs again");
                // Digested, as an installed child is, so its own runs can
                // be replayed whether or not it is ever interned.
                child.digest();
                rebuilt = true;
                break;
            };
            child.install_slot(id, Arc::clone(state), (digest, len));
        }
        debug_assert_eq!(child.digest_uncached(), replay.digest);
        *config = Some(child);
        self.phases.enter(was);
        rebuilt
    }
}

/// A choice script that never exhausts: past its recorded bits it
/// answers `false` and keeps counting. A run driven by it always
/// completes, and `used` afterwards tells how long the *actual* script
/// was — the recorded prefix plus implicit `false`s.
struct PaddedScript<'a> {
    bits: &'a [bool],
    used: usize,
}

impl ChoiceSource for PaddedScript<'_> {
    fn next_choice(&mut self) -> Option<bool> {
        let bit = self.bits.get(self.used).copied().unwrap_or(false);
        self.used += 1;
        Some(bit)
    }
}

/// Enumerates all atomic runs of `machine` from `config` into `out`: one
/// successor per complete ghost-choice script, drawing candidate
/// configurations and script buffers from `arena`, so the search reuses
/// allocations across every state.
///
/// The enumeration backtracks over a single reusable script buffer
/// instead of keeping a worklist of cloned scripts. Each run is driven
/// by a [`PaddedScript`] — `false` past the end of the buffer — so a run
/// that hits fresh choice points completes in that same execution
/// (descending into the all-`false` subtree) instead of aborting with
/// `NeedChoice` and re-running; the buffer is then extended to the bits
/// actually consumed. Backtracking pops trailing `true`s and flips the
/// last `false` to `true`. Determinism makes this sound: two runs from
/// the same configuration consume identical prefixes, so the flipped bit
/// is reached again, and `used` only ever grows past the buffer. The
/// successors come out in lexicographic (`false < true`) order.
///
/// Each successor costs one `run_machine` and one config clone, or, for
/// a run the memo of `arena` knows (DESIGN.md §15), two table probes:
/// the successor then carries a [`Replay`] instead of a configuration,
/// for [`SuccArena::build`] to make if the caller needs it.
pub(crate) fn successors_into(
    engine: &Engine<'_>,
    config: &Config,
    machine: MachineId,
    granularity: Granularity,
    out: &mut Vec<Successor>,
    arena: &mut SuccArena,
) -> Result<(), ExecError> {
    let mut script = std::mem::take(&mut arena.script_buf);
    script.clear();
    let r = successors_loop(
        engine,
        config,
        machine,
        granularity,
        out,
        arena,
        &mut script,
    );
    arena.script_buf = script;
    r
}

fn successors_loop(
    engine: &Engine<'_>,
    config: &Config,
    machine: MachineId,
    granularity: Granularity,
    out: &mut Vec<Successor>,
    arena: &mut SuccArena,
    script: &mut Vec<bool>,
) -> Result<(), ExecError> {
    loop {
        let memo = arena.memo.as_ref();
        let key = memo.and(SlotMemo::key(config, machine, script));
        let replayed = key.and_then(|key| memo?.replay(&key, config));
        let (candidate, result, replay) = match replayed {
            Some((result, replay)) => (None, result, Some(replay)),
            None => {
                let was = arena.phases.enter(Phase::Clone);
                let mut candidate = arena.candidate(config, machine);
                let mut source = PaddedScript {
                    bits: script.as_slice(),
                    used: 0,
                };
                arena.phases.enter(Phase::Exec);
                let result =
                    engine.run_machine(&mut candidate, machine, &mut source, granularity)?;
                debug_assert!(
                    !matches!(result.outcome, ExecOutcome::NeedChoice),
                    "a padded script never exhausts"
                );
                debug_assert_eq!(source.used, result.choices_used);
                if let (Some(key), Some(memo)) = (&key, &mut arena.memo) {
                    arena.phases.enter(Phase::Digest);
                    candidate.digest();
                    memo.record(key, config, &candidate, &result);
                }
                arena.phases.enter(was);
                (Some(candidate), result, None)
            }
        };
        debug_assert!(
            result.choices_used >= script.len(),
            "prefix replay must consume the script"
        );
        script.resize(result.choices_used, false);
        out.push(Successor {
            config: candidate,
            machine,
            choices: arena.choices(script),
            result,
            replay,
        });
        // Backtrack to the next unexplored branch.
        loop {
            match script.pop() {
                None => return Ok(()),
                Some(false) => {
                    script.push(true);
                    break;
                }
                Some(true) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::successors_for;
    use p_ast::{Expr, ProgramBuilder, Stmt, Ty};
    use p_semantics::{lower, ForeignEnv, Value};

    #[test]
    fn enumerates_all_choice_combinations() {
        // Two sequential `*` choices → 4 successors.
        let mut b = ProgramBuilder::new();
        let mut g = b.ghost_machine("G");
        g.var("x", Ty::Int);
        let x = g.sym("x");
        g.state("S").entry(Stmt::block(vec![
            Stmt::assign(x, Expr::int(0)),
            Stmt::if_then(
                Expr::nondet(),
                Stmt::assign(
                    x,
                    Expr::binary(p_ast::BinOp::Add, Expr::name(x), Expr::int(1)),
                ),
            ),
            Stmt::if_then(
                Expr::nondet(),
                Stmt::assign(
                    x,
                    Expr::binary(p_ast::BinOp::Add, Expr::name(x), Expr::int(2)),
                ),
            ),
        ]));
        g.finish();
        let program = lower(&b.finish("G")).unwrap();
        let engine = Engine::new(&program, ForeignEnv::empty());
        let config = engine.initial_config();
        let succs = successors_for(&engine, &config, MachineId(0), Granularity::Atomic).unwrap();
        assert_eq!(succs.len(), 4);
        // Deterministic lexicographic emission, no post-sort needed.
        assert!(
            succs.windows(2).all(|w| w[0].choices < w[1].choices),
            "successors must come out in script order"
        );
        let mut values: Vec<i64> = succs
            .iter()
            .map(|s| {
                let config = s.config.as_ref().unwrap();
                config.machine(MachineId(0)).unwrap().locals[0]
                    .as_int()
                    .unwrap()
            })
            .collect();
        values.sort();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deterministic_machine_has_single_successor() {
        let mut b = ProgramBuilder::new();
        let mut m = b.machine("M");
        m.var("x", Ty::Int);
        let x = m.sym("x");
        m.state("S").entry(Stmt::assign(x, Expr::int(9)));
        m.finish();
        let program = lower(&b.finish("M")).unwrap();
        let engine = Engine::new(&program, ForeignEnv::empty());
        let config = engine.initial_config();
        let succs = successors_for(&engine, &config, MachineId(0), Granularity::Atomic).unwrap();
        assert_eq!(succs.len(), 1);
        assert!(succs[0].choices.is_empty());
        assert_eq!(
            succs[0]
                .config
                .as_ref()
                .unwrap()
                .machine(MachineId(0))
                .unwrap()
                .locals[0],
            Value::Int(9)
        );
    }

    /// A batch of successors is walked and moved as records of at most
    /// four cache lines.
    #[test]
    fn successor_is_at_most_256_bytes() {
        let size = std::mem::size_of::<Successor>();
        assert!(size <= 256, "{size} bytes");
    }

    #[test]
    fn original_config_is_untouched() {
        let mut b = ProgramBuilder::new();
        let mut g = b.ghost_machine("G");
        g.var("x", Ty::Int);
        let x = g.sym("x");
        g.state("S")
            .entry(Stmt::if_then(Expr::nondet(), Stmt::assign(x, Expr::int(1))));
        g.finish();
        let program = lower(&b.finish("G")).unwrap();
        let engine = Engine::new(&program, ForeignEnv::empty());
        let config = engine.initial_config();
        let before = config.canonical_bytes();
        let _ = successors_for(&engine, &config, MachineId(0), Granularity::Atomic).unwrap();
        assert_eq!(config.canonical_bytes(), before);
    }
}
