//! The compiled execution backend interface.
//!
//! The interpreter in [`crate::exec`] walks the lowered statement tables
//! one [`Instr`] at a time. This module defines the seam through which a
//! *compiled* program — straight-line Rust generated ahead of time by
//! `p-codegen`'s Rust emitter — plugs into the very same engine:
//! [`Engine::with_compiled`](crate::Engine::with_compiled) attaches a
//! [`CompiledProgram`] table, and `run_machine` then executes statements
//! by calling generated functions instead of interpreting instruction by
//! instruction.
//!
//! The design invariant is **bit identity** with the interpreter: for
//! every run, the compiled path must produce the same outcome, consume
//! the same number of nondeterministic choices, charge the same number of
//! small steps (so `FuelExhausted` verdicts agree), and leave the same
//! machine state behind at every scheduling point (so state fingerprints
//! agree). Three mechanisms enforce this:
//!
//! * **In-band fuel accounting.** Every point where the interpreter would
//!   pop an instruction charges exactly one step in generated code, via
//!   [`Ctx::step`], *before* doing the work — the same check-then-increment
//!   order as the interpreter loop. Fuel exhaustion surfaces as the same
//!   in-band [`ErrorKind::FuelExhausted`] error transition.
//! * **Residual materialization.** The interpreter pushes explicit
//!   continuation instructions (`Seq`, `Loop`) before running a child
//!   statement; generated code instead runs children as direct calls and
//!   only materializes the equivalent instructions — via [`Ctx::resid`] —
//!   when a run actually stops inside the child (a `send`/`new` yield or
//!   a `call`). At every observable stopping point the continuation is
//!   therefore byte-for-byte what the interpreter would have built, and a
//!   stored continuation from either backend resumes identically on the
//!   other (the generated `seq` dispatchers re-enter block bodies at any
//!   index).
//! * **A program digest.** A compiled table embeds the
//!   [`program_digest`] of the lowered program it was generated from;
//!   attaching it to an engine over any other program is a typed error
//!   ([`ExecError::CompiledMismatch`](crate::ExecError::CompiledMismatch)),
//!   never silent divergence.
//!
//! Statements whose effects involve the configuration or the machine's
//! control stack (send, new, raise, return, call) go through [`Ctx`]
//! effect methods shared with the interpreter's implementation, so the
//! subtle parts — ⊕ duplicate suppression, self-send through the taken
//! slot, inherited-action recomputation — exist exactly once.

use std::fmt;

use crate::config::{Instr, MachineState, MachineStore};
use crate::error::ErrorKind;
use crate::exec::{ChoiceSource, Engine, Env, ModelAbort, RunLog, YieldKind};
use crate::hash;
use crate::lower::{EventId, FnId, LoweredProgram, MachineTypeId, StateId, StmtId};
use crate::value::Value;
use crate::MachineId;

/// How a generated statement function finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flow {
    /// The statement ran to completion; execution continues with the
    /// enclosing construct (or the machine's continuation stack).
    Done,
    /// The statement replaced the continuation wholesale (`raise`,
    /// `leave`, `return`). Enclosing constructs must *not* materialize
    /// residual instructions — the old continuation is gone.
    Transfer,
    /// A `call` statement: the engine completes the state push (inherited
    /// table, resume continuation, callee frame). Enclosing constructs
    /// materialize their residuals first — they become the resume point.
    Call(StateId),
    /// The atomic run ends here.
    End(RunEnd),
}

/// Terminal result of a generated statement function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEnd {
    /// A scheduling point (`send`/`new`). Enclosing constructs
    /// materialize residuals — the machine resumes after them later.
    Yield(YieldKind),
    /// The machine executed `delete`.
    Deleted,
    /// An error transition of the program under test (in-band, exactly
    /// like the interpreter's).
    Error(ErrorKind),
    /// The choice source ran dry at a `*`; the caller discards the
    /// configuration and retries with a longer script.
    NeedChoice,
    /// The compiled table and the engine's program disagree (unknown
    /// statement id, `seq` over a non-block). Becomes
    /// [`ExecError::CorruptContinuation`](crate::ExecError::CorruptContinuation).
    Fatal(&'static str),
}

/// A program compiled ahead of time by `p-codegen`'s Rust emitter.
///
/// The two dispatch methods mirror the interpreter's instruction forms:
/// `stmt` executes one statement to completion (charging its own steps),
/// `seq` re-enters a block at child index `idx` — the compiled analog of
/// resuming a stored [`Instr::Seq`] continuation.
pub trait CompiledProgram: Sync + fmt::Debug {
    /// [`program_digest`] of the lowered program this table was generated
    /// from. Checked at [`Engine::with_compiled`](crate::Engine::with_compiled)
    /// time.
    fn digest(&self) -> u128;
    /// Executes statement `sid`. Unknown ids return
    /// [`RunEnd::Fatal`].
    fn stmt(&self, cx: &mut Ctx<'_, '_>, sid: StmtId) -> Flow;
    /// Resumes block `block` at child index `idx`. Non-block ids return
    /// [`RunEnd::Fatal`].
    fn seq(&self, cx: &mut Ctx<'_, '_>, block: StmtId, idx: u32) -> Flow;
}

/// Execution context handed to generated code: the running machine, the
/// configuration, fuel/choice accounting, and the effect methods shared
/// with the interpreter.
pub struct Ctx<'r, 'p> {
    pub(crate) engine: &'r Engine<'p>,
    pub(crate) store: &'r mut dyn MachineStore,
    pub(crate) m: &'r mut MachineState,
    pub(crate) id: MachineId,
    pub(crate) choices: &'r mut dyn ChoiceSource,
    pub(crate) log: &'r mut RunLog,
    pub(crate) steps: &'r mut usize,
    pub(crate) fuel: usize,
    /// Continuation length right after the driver popped the instruction
    /// being executed; residual instructions are inserted here so that
    /// enclosing constructs (which bubble out later) end up *below*
    /// inner ones, exactly as the interpreter's eager pushes would have
    /// ordered them.
    pub(crate) cont_base: usize,
}

impl fmt::Debug for Ctx<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("id", &self.id)
            .field("steps", &self.steps)
            .field("fuel", &self.fuel)
            .field("cont_base", &self.cont_base)
            .finish_non_exhaustive()
    }
}

impl Ctx<'_, '_> {
    /// Charges one small step. Returns `true` when the fuel budget is
    /// already spent — the caller must end the run with
    /// [`ErrorKind::FuelExhausted`] (the generated `step!` macro does).
    ///
    /// The check-before-increment order matches the interpreter loop, so
    /// both backends exhaust fuel after the same number of charges.
    #[must_use]
    pub fn step(&mut self) -> bool {
        if *self.steps >= self.fuel {
            return true;
        }
        *self.steps += 1;
        false
    }

    /// Reads local variable `var`.
    #[inline]
    pub fn local(&self, var: u32) -> Value {
        self.m.locals[var as usize]
    }

    /// Writes local variable `var`.
    #[inline]
    pub fn set_local(&mut self, var: u32, v: Value) {
        self.m.locals[var as usize] = v;
    }

    /// The running machine's own id (`this`).
    #[inline]
    pub fn this(&self) -> Value {
        Value::Machine(self.id)
    }

    /// The event currently being handled (`msg`).
    #[inline]
    pub fn msg(&self) -> Value {
        self.m.msg
    }

    /// The payload of the event currently being handled (`arg`).
    #[inline]
    pub fn arg(&self) -> Value {
        self.m.arg
    }

    /// Resolves one nondeterministic `*`; `None` means the choice source
    /// is exhausted and the run must end with [`RunEnd::NeedChoice`].
    #[inline]
    pub fn choose(&mut self) -> Option<bool> {
        self.choices.next_choice()
    }

    /// Materializes the residual continuation `instr` if (and only if)
    /// `flow` stops execution at a resumable point — a yield or a state
    /// call. Returns `flow` unchanged, for tail-position use:
    ///
    /// ```ignore
    /// match self.s17(cx) {
    ///     Flow::Done => {}
    ///     f => return cx.resid(f, Instr::Seq(StmtId(12), 3)),
    /// }
    /// ```
    pub fn resid(&mut self, flow: Flow, instr: Instr) -> Flow {
        if matches!(flow, Flow::Call(_) | Flow::End(RunEnd::Yield(_))) {
            self.m.cont.insert(self.cont_base, instr);
        }
        flow
    }

    /// The `send` statement: ⊕-deduplicated enqueue, self-send through
    /// the taken slot, dangling-target errors. Always ends the run.
    pub fn send(&mut self, target: Value, event: EventId, payload: Value) -> Flow {
        let Some(target_id) = target.as_machine() else {
            return Flow::End(RunEnd::Error(ErrorKind::SendToUndefined));
        };
        // The running machine's slot is a tombstone while it runs; a
        // self-send must not read it.
        let receiver = if target_id == self.id {
            &mut *self.m
        } else {
            match self.store.machine_mut(target_id) {
                Some(r) => r,
                None => {
                    return Flow::End(RunEnd::Error(ErrorKind::SendToDeleted {
                        target: target_id,
                    }))
                }
            }
        };
        let enqueued = receiver.enqueue(event, payload);
        Flow::End(RunEnd::Yield(YieldKind::Sent {
            to: target_id,
            event,
            enqueued,
        }))
    }

    /// The `new` statement: allocates a machine of type `ty`, applies the
    /// pre-evaluated initializers, stores the id in `dst`. Always ends
    /// the run (creation is a scheduling point).
    pub fn new_machine(&mut self, dst: u32, ty: MachineTypeId, inits: &[(u32, Value)]) -> Flow {
        let new_id = self.store.allocate(self.engine.program(), ty);
        {
            let created = self.store.machine_mut(new_id).expect("just allocated");
            for &(var, v) in inits {
                created.locals[var as usize] = v;
            }
        }
        self.m.locals[dst as usize] = Value::Machine(new_id);
        Flow::End(RunEnd::Yield(YieldKind::Created { id: new_id, ty }))
    }

    /// The `raise` statement: discards the continuation and leaves the
    /// event pending for dispatch.
    pub fn raise(&mut self, event: EventId, payload: Value) -> Flow {
        if self.log.extended {
            self.log.raised.push(event);
        }
        self.m.msg = Value::Event(event);
        self.m.arg = payload;
        self.m.cont.clear();
        self.m.pending = Some((event, payload));
        Flow::Transfer
    }

    /// The `leave` statement: discards the continuation; the machine
    /// falls through to dequeueing.
    pub fn leave(&mut self) -> Flow {
        self.m.cont.clear();
        Flow::Transfer
    }

    /// The `return` statement: replaces the continuation with the current
    /// state's exit statement followed by the frame pop.
    pub fn ret(&mut self) -> Flow {
        let mt = self.engine.program().machine(self.m.ty);
        let exit = mt.states[self.m.current_state().0 as usize].exit;
        self.m.cont.clear();
        self.m.cont.push(Instr::PopViaReturn);
        self.m.cont.push(Instr::Stmt(exit));
        Flow::Transfer
    }

    /// A foreign call in statement position: native implementations win,
    /// then interpreted model bodies, then ⊥. Errors end the run in-band.
    pub fn foreign_call(&mut self, func: FnId, args: &[Value]) -> Result<Value, Flow> {
        match self
            .engine
            .call_foreign(&Env::of(self.m, self.id), func, args, &mut *self.choices)
        {
            Ok(v) => Ok(v),
            Err(ModelAbort::NeedChoice) => Err(Flow::End(RunEnd::NeedChoice)),
            Err(ModelAbort::Error(kind)) => Err(Flow::End(RunEnd::Error(kind))),
        }
    }

    /// A foreign call in expression position: like [`Ctx::foreign_call`],
    /// but a failing model body surfaces as ⊥ (the enclosing statement's
    /// dynamic checks report the error), matching the interpreter's
    /// ⊥-propagating expression layer.
    pub fn foreign_expr(&mut self, func: FnId, args: &[Value]) -> Result<Value, Flow> {
        match self
            .engine
            .call_foreign(&Env::of(self.m, self.id), func, args, &mut *self.choices)
        {
            Ok(v) => Ok(v),
            Err(ModelAbort::NeedChoice) => Err(Flow::End(RunEnd::NeedChoice)),
            Err(ModelAbort::Error(_)) => Ok(Value::Null),
        }
    }
}

/// A stable, cross-process digest of a lowered program, used to pair
/// compiled tables with the exact program they were generated from.
///
/// Hashes the program field by field — not `{:?}` of the whole struct —
/// because the interner's lookup map is a `HashMap` whose `Debug` order
/// differs between processes; its strings are appended in id order
/// instead (the same discipline as the checker's checkpoint digest).
pub fn program_digest(program: &LoweredProgram) -> u128 {
    use std::fmt::Write as _;
    let mut desc = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        program.events, program.machines, program.code, program.main, program.main_inits
    );
    for (_, name) in program.interner.iter() {
        let _ = write!(desc, "|{name}");
    }
    hash::fingerprint128(desc.as_bytes())
}
