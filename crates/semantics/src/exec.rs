//! The execution engine: an interpreter for the operational semantics of
//! Figures 4–6.
//!
//! The engine executes one machine at a time. Per the atomicity reduction
//! of §5, a machine runs *atomically* until it reaches a scheduling point —
//! a `send` or a `new` — or until it blocks waiting for an event, deletes
//! itself, or errors. A fine-grained mode (every small step is a scheduling
//! point) exists for the ablation experiment that validates the reduction.
//!
//! Nondeterministic `*` choices inside ghost machines are resolved through
//! a caller-supplied choice source. The model checker passes a replayable
//! script and re-executes with extended scripts to enumerate both branches;
//! the simulator passes a random source.

use crate::config::{Config, Cont, Frame, Inherited, Instr, MachineState, MachineStore};
use crate::error::{ErrorKind, ExecError, PError};
use crate::foreign::ForeignEnv;
use crate::lower::{
    EventId, ExprId, FnId, LExpr, LStmt, LoweredProgram, MachineTypeId, StateId, StmtId,
};
use crate::value::Value;
use crate::MachineId;

#[cfg(test)]
mod reference;

/// How a machine's atomic run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOutcome {
    /// The machine reached a scheduling point and can continue later.
    Yield(YieldKind),
    /// The machine is waiting for an event it can dequeue.
    Blocked,
    /// The machine executed `delete` and no longer exists.
    Deleted,
    /// The machine took an error transition.
    Error(PError),
    /// The choice source was exhausted at a nondeterministic `*`.
    ///
    /// The configuration is left partially mutated; the caller must restore
    /// it from a copy and re-run with a longer choice script.
    NeedChoice,
}

/// The scheduling point a yielding machine stopped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldKind {
    /// The machine sent `event` to `to`. `enqueued` is false when the ⊕
    /// duplicate-suppression rule dropped the event.
    Sent {
        /// Receiver.
        to: MachineId,
        /// Event sent.
        event: EventId,
        /// Whether the queue actually grew.
        enqueued: bool,
    },
    /// The machine created a new machine.
    Created {
        /// The new machine's id.
        id: MachineId,
        /// Its type.
        ty: MachineTypeId,
    },
    /// Fine-grained mode only: an internal small step completed.
    Internal,
}

/// Result of [`Engine::run_machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: ExecOutcome,
    /// Number of nondeterministic choices consumed.
    pub choices_used: usize,
    /// Number of small steps executed.
    pub steps: usize,
    /// Events dequeued from this machine's input queue during the run
    /// (used by the liveness analysis in `p-checker`). Recorded by
    /// default; callers that never read it (the safety checker's hot
    /// path) can switch it off with [`Engine::with_dequeue_log`] to
    /// avoid the per-run allocation.
    pub dequeued: Vec<EventId>,
    /// Events the machine `raise`d during the run. Recorded only when
    /// the engine was built [`Engine::with_event_log`]; empty otherwise
    /// so the checker's hot path pays no extra allocation.
    pub raised: Vec<EventId>,
    /// Queued events skipped as deferred while picking the event to
    /// dequeue. Recorded only under [`Engine::with_event_log`].
    pub deferred: Vec<EventId>,
}

/// Scheduling granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Context switches only after `send`/`new` (§5's atomicity
    /// reduction). The default.
    #[default]
    Atomic,
    /// Context switches after every small step (ablation baseline).
    Fine,
}

/// A source of nondeterministic boolean choices.
///
/// `None` means the source is exhausted and the engine must abort with
/// [`ExecOutcome::NeedChoice`].
pub trait ChoiceSource {
    /// Produces the next choice, or `None` if exhausted.
    fn next_choice(&mut self) -> Option<bool>;
}

/// A finite, replayable choice script (used by the model checker).
#[derive(Debug, Clone)]
pub struct Script<'a> {
    bits: &'a [bool],
    used: usize,
}

impl<'a> Script<'a> {
    /// Creates a script over `bits`.
    pub fn new(bits: &'a [bool]) -> Script<'a> {
        Script { bits, used: 0 }
    }

    /// Number of bits consumed so far.
    pub fn used(&self) -> usize {
        self.used
    }
}

impl ChoiceSource for Script<'_> {
    fn next_choice(&mut self) -> Option<bool> {
        let bit = self.bits.get(self.used).copied();
        if bit.is_some() {
            self.used += 1;
        }
        bit
    }
}

impl<F: FnMut() -> bool> ChoiceSource for F {
    fn next_choice(&mut self) -> Option<bool> {
        Some(self())
    }
}

/// Interprets one lowered program.
///
/// # Examples
///
/// ```
/// use p_ast::ProgramBuilder;
/// use p_semantics::{lower, Engine, ForeignEnv};
///
/// let mut b = ProgramBuilder::new();
/// b.event("go");
/// let mut m = b.machine("M");
/// m.state("Init").entry_raise("go");
/// m.state("Done");
/// m.step("Init", "go", "Done");
/// m.finish();
/// let program = lower(&b.finish("M")).unwrap();
///
/// let engine = Engine::new(&program, ForeignEnv::empty());
/// let mut config = engine.initial_config();
/// let id = config.live_ids().next().unwrap();
/// let result = engine
///     .run_machine(&mut config, id, &mut || false, Default::default())
///     .unwrap();
/// assert!(matches!(result.outcome, p_semantics::ExecOutcome::Blocked));
/// ```
#[derive(Debug)]
pub struct Engine<'p> {
    program: &'p LoweredProgram,
    foreign: ForeignEnv,
    fuel: usize,
    event_log: bool,
    dequeue_log: bool,
}

/// What one atomic run observed (internal accumulator for
/// [`RunResult`]'s event lists).
struct RunLog {
    dequeued: Vec<EventId>,
    raised: Vec<EventId>,
    deferred: Vec<EventId>,
    /// Record `dequeued`? (On by default — the liveness analysis and the
    /// runtime depend on it; the safety checker turns it off.)
    dequeue: bool,
    /// Record `raised`/`deferred` too?
    extended: bool,
}

/// Result of one small step (internal).
enum SmallStep {
    Continue,
    Yield(YieldKind),
    Blocked,
    Deleted,
    Error(ErrorKind),
    NeedChoice,
    /// An interpreter invariant was violated (corrupt continuation or
    /// lowered program); the detail becomes
    /// [`ExecError::CorruptContinuation`].
    Fatal(&'static str),
}

/// Expression evaluation abort: the choice source ran dry.
struct NeedChoiceMarker;

impl<'p> Engine<'p> {
    /// Creates an engine with the default fuel (100 000 small steps per
    /// atomic run).
    pub fn new(program: &'p LoweredProgram, foreign: ForeignEnv) -> Engine<'p> {
        Engine {
            program,
            foreign,
            fuel: 100_000,
            event_log: false,
            dequeue_log: true,
        }
    }

    /// Also records `raise`d and deferred events in [`RunResult`] (the
    /// runtime's tracing wants them; the model checker leaves this off
    /// to keep atomic runs allocation-light).
    pub fn with_event_log(mut self, on: bool) -> Engine<'p> {
        self.event_log = on;
        self
    }

    /// Records dequeued events in [`RunResult::dequeued`] (on by
    /// default). The safety checker's exhaustive engines switch this off:
    /// they never read the list, and skipping it saves one `Vec`
    /// allocation per atomic run on the exploration hot path.
    pub fn with_dequeue_log(mut self, on: bool) -> Engine<'p> {
        self.dequeue_log = on;
        self
    }

    /// Overrides the per-run small-step budget. Exceeding it produces
    /// [`ErrorKind::FuelExhausted`] — the detector for machines that loop
    /// privately forever (first liveness property, §3.2).
    pub fn with_fuel(mut self, fuel: usize) -> Engine<'p> {
        self.fuel = fuel;
        self
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p LoweredProgram {
        self.program
    }

    /// Builds the initial configuration: one instance of the main machine
    /// with its initializers applied, poised to run the entry statement of
    /// its initial state.
    pub fn initial_config(&self) -> Config {
        let mut config = Config::default();
        let id = config.allocate(self.program, self.program.main);
        // Main initializers are constant expressions (the type checker
        // rejects anything context-dependent); evaluate them in the fresh
        // machine's own empty context.
        let inits = self.program.main_inits.clone();
        let mut values = Vec::new();
        {
            let m = config.machine(id).expect("just allocated");
            // No choices are available here; the type checker rejects `*`
            // in main initializers, and any that slips through becomes ⊥.
            let mut empty = Script::new(&[]);
            for (var, expr) in &inits {
                let v = self
                    .eval(&Env::of(m, id), *expr, &mut empty)
                    .unwrap_or(Value::Null);
                values.push((*var, v));
            }
        }
        let m = config.machine_mut(id).expect("just allocated");
        for (var, v) in values {
            m.locals[var.0 as usize] = v;
        }
        config
    }

    /// Runs machine `id` until it yields, blocks, deletes itself, or
    /// errors.
    ///
    /// On [`ExecOutcome::NeedChoice`] the configuration is left partially
    /// mutated and must be discarded by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::DeadMachine`] if `id` is not a live machine,
    /// and [`ExecError::CorruptContinuation`] if a stored continuation or
    /// the lowered program violates an interpreter invariant. Both signal
    /// a malformed request — not an error transition of the program under
    /// test, which is reported in-band as [`ExecOutcome::Error`].
    pub fn run_machine(
        &self,
        config: &mut Config,
        id: MachineId,
        choices: &mut dyn ChoiceSource,
        granularity: Granularity,
    ) -> Result<RunResult, ExecError> {
        // Take the running machine out of its slot for the whole run: the
        // copy-on-write clone happens exactly once here, and every small
        // step then works on a direct `&mut MachineState` instead of
        // re-resolving the slot (bounds + liveness check, refcount
        // inspection, digest invalidation) two or three times per step.
        let Some(mut taken) = config.take_machine(id) else {
            return Err(ExecError::DeadMachine { machine: id });
        };
        let m = config.cow_unshare(&mut taken);
        let result = self.run_owned(config, m, id, choices, granularity);
        if !matches!(
            &result,
            Ok(RunResult {
                outcome: ExecOutcome::Deleted,
                ..
            })
        ) {
            // A deleted machine leaves its tombstone in place (the
            // `delete` statement); every other outcome, an interpreter
            // fault included, puts the state back so the configuration
            // stays structurally valid.
            config.restore_machine(id, taken);
        }
        result
    }

    /// [`Engine::run_machine`] for a caller that holds the running
    /// machine itself: `m` is machine `id`, taken out of `store` for the
    /// run (its slot must read as dead meanwhile — the interpreter
    /// special-cases sends to the running machine). Putting `m` back
    /// afterwards, on every outcome but [`ExecOutcome::Deleted`], is the
    /// caller's job.
    ///
    /// # Errors
    ///
    /// [`ExecError::CorruptContinuation`], as [`Engine::run_machine`].
    #[inline]
    pub fn run_owned<S: MachineStore>(
        &self,
        store: &mut S,
        m: &mut MachineState,
        id: MachineId,
        choices: &mut dyn ChoiceSource,
        granularity: Granularity,
    ) -> Result<RunResult, ExecError> {
        let mut counting = CountingChoices {
            inner: choices,
            used: 0,
        };
        let mut steps = 0;
        let mut log = RunLog {
            dequeued: Vec::new(),
            raised: Vec::new(),
            deferred: Vec::new(),
            dequeue: self.dequeue_log,
            extended: self.event_log,
        };
        let outcome = loop {
            if steps >= self.fuel {
                break ExecOutcome::Error(PError::new(ErrorKind::FuelExhausted, id));
            }
            steps += 1;
            match self.small_step(store, m, id, &mut counting, &mut log) {
                SmallStep::Continue => {
                    if granularity == Granularity::Fine {
                        // Blocked/terminated conditions are detected on
                        // the next entry, so a fine step is always
                        // resumable.
                        break ExecOutcome::Yield(YieldKind::Internal);
                    }
                }
                SmallStep::Yield(kind) => break ExecOutcome::Yield(kind),
                SmallStep::Blocked => break ExecOutcome::Blocked,
                SmallStep::Deleted => break ExecOutcome::Deleted,
                SmallStep::Error(kind) => break ExecOutcome::Error(PError::new(kind, id)),
                SmallStep::NeedChoice => break ExecOutcome::NeedChoice,
                SmallStep::Fatal(detail) => {
                    return Err(ExecError::CorruptContinuation {
                        machine: id,
                        detail,
                    })
                }
            }
        };
        Ok(RunResult {
            outcome,
            choices_used: counting.used,
            steps,
            dequeued: log.dequeued,
            raised: log.raised,
            deferred: log.deferred,
        })
    }

    /// Rule CALL: pushes the frame (n', a') and queues n''s entry
    /// statement. a' takes, per event, what the current state says — a
    /// transition hides whatever was inherited, an action binding or a
    /// deferral replaces it — and otherwise what the caller's frame
    /// inherited itself. An all-⊥ a' is stored as no map
    /// ([`Frame::new`]).
    fn push_callee(&self, m: &mut MachineState, target: StateId, resume: Option<Cont>) {
        let mt = self.program.machine(m.ty);
        let caller = m.top();
        let state = &mt.states[caller.state.0 as usize];
        let inherited = (0..self.program.event_count())
            .map(|x| {
                if state.steps[x].is_some() || state.calls[x].is_some() {
                    Inherited::None
                } else if let Some(a) = state.actions[x] {
                    Inherited::Action(a)
                } else if state.deferred.contains(EventId(x as u32)) {
                    Inherited::Deferred
                } else {
                    caller.inherited(EventId(x as u32))
                }
            })
            .collect();
        m.stack.push(Frame::new(target, inherited, resume));
        m.cont.push(Instr::Stmt(mt.states[target.0 as usize].entry));
    }

    /// Executes one small step of machine `id`, already taken out of
    /// `store` as `m`.
    fn small_step<S: MachineStore>(
        &self,
        store: &mut S,
        m: &mut MachineState,
        id: MachineId,
        choices: &mut CountingChoices<'_>,
        log: &mut RunLog,
    ) -> SmallStep {
        // 1. Remaining statement execution.
        if let Some(instr) = m.cont.pop() {
            return self.exec_instr(store, m, id, instr, choices, log);
        }

        // 2. A raised event awaiting dispatch.
        if let Some((event, _value)) = m.pending {
            return self.dispatch(m, event);
        }

        // 3. Waiting: try to dequeue (rule DEQUEUE).
        let mt = self.program.machine(m.ty);
        let frame = m.top();
        let state = &mt.states[frame.state.0 as usize];
        let index = m.queue.iter().position(|&(e, _)| {
            if state.handles(e) {
                return true;
            }
            let deferred = state.deferred.contains(e) || frame.inherited(e) == Inherited::Deferred;
            !deferred
        });
        match index {
            None => SmallStep::Blocked,
            Some(i) => {
                if log.extended {
                    // Everything the scan passed over was skipped as
                    // deferred (handled events stop the scan).
                    for &(skipped, _) in &m.queue[..i] {
                        log.deferred.push(skipped);
                    }
                }
                let (event, value) = m.queue.remove(i);
                if log.dequeue {
                    log.dequeued.push(event);
                }
                m.msg = Value::Event(event);
                m.arg = value;
                m.pending = Some((event, value));
                SmallStep::Continue
            }
        }
    }

    /// Dispatches a raised event against the top frame: rules STEP,
    /// CALL, ACTION, POP1 and the exit-statement insertion of
    /// DEQUEUE/RAISE.
    fn dispatch(&self, m: &mut MachineState, event: EventId) -> SmallStep {
        let mt = self.program.machine(m.ty);
        let frame_state;
        let inherited_entry;
        {
            let frame = m.top();
            frame_state = frame.state;
            inherited_entry = frame.inherited(event);
        }
        let state = &mt.states[frame_state.0 as usize];
        let e = event.0 as usize;

        // STEP has the highest priority.
        if let Some(target) = state.steps[e] {
            m.pending = None;
            m.cont.clear();
            m.cont.push(Instr::EnterState(target));
            m.cont.push(Instr::Stmt(state.exit));
            return SmallStep::Continue;
        }

        // CALL: push (n', a') where a' inherits from the current state.
        if let Some(target) = state.calls[e] {
            m.pending = None;
            m.cont.clear();
            self.push_callee(m, target, None);
            return SmallStep::Continue;
        }

        // ACTION: a binding on the current state overrides an inherited
        // action.
        let action = state.actions[e].or(match inherited_entry {
            Inherited::Action(a) => Some(a),
            _ => None,
        });
        if let Some(action) = action {
            m.pending = None;
            let body = mt.actions[action.0 as usize].body;
            m.cont.clear();
            m.cont.push(Instr::Stmt(body));
            return SmallStep::Continue;
        }

        // POP1: run the exit statement, then pop; the pending event stays
        // and is re-dispatched in the caller.
        m.cont.clear();
        m.cont.push(Instr::PopUnhandled);
        m.cont.push(Instr::Stmt(state.exit));
        SmallStep::Continue
    }

    fn exec_instr<S: MachineStore>(
        &self,
        store: &mut S,
        m: &mut MachineState,
        id: MachineId,
        instr: Instr,
        choices: &mut CountingChoices<'_>,
        log: &mut RunLog,
    ) -> SmallStep {
        match instr {
            Instr::Stmt(sid) => {
                // The code arena outlives the run; no clone needed.
                let stmt = self.program.code.stmt(sid);
                self.exec_stmt(store, m, id, sid, stmt, choices, log)
            }
            Instr::Seq(block, idx) => {
                let LStmt::Block(children) = self.program.code.stmt(block) else {
                    return SmallStep::Fatal("Seq instruction over a non-block statement");
                };
                if let Some(child) = children.get(idx as usize).copied() {
                    m.cont.push(Instr::Seq(block, idx + 1));
                    m.cont.push(Instr::Stmt(child));
                }
                SmallStep::Continue
            }
            Instr::Loop(while_stmt) => {
                m.cont.push(Instr::Stmt(while_stmt));
                SmallStep::Continue
            }
            Instr::EnterState(target) => {
                let mt = self.program.machine(m.ty);
                let entry = mt.states[target.0 as usize].entry;
                let Some(top) = m.stack.last_mut() else {
                    return SmallStep::Fatal("state transition with an empty call stack");
                };
                top.state = target;
                m.cont.push(Instr::Stmt(entry));
                SmallStep::Continue
            }
            Instr::PopViaReturn => {
                let Some(frame) = m.stack.pop() else {
                    return SmallStep::Fatal("return with an empty call stack");
                };
                if m.stack.is_empty() {
                    return SmallStep::Error(ErrorKind::StackUnderflow);
                }
                if let Some(resume) = frame.resume {
                    m.cont = resume;
                }
                SmallStep::Continue
            }
            Instr::PopUnhandled => {
                let Some(pending_event) = m.pending.map(|(e, _)| e) else {
                    return SmallStep::Fatal("PopUnhandled without a pending event");
                };
                if m.stack.pop().is_none() {
                    return SmallStep::Fatal("pop with an empty call stack");
                }
                if m.stack.is_empty() {
                    return SmallStep::Error(ErrorKind::UnhandledEvent {
                        event: pending_event,
                    });
                }
                SmallStep::Continue
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_stmt<S: MachineStore>(
        &self,
        store: &mut S,
        m: &mut MachineState,
        id: MachineId,
        sid: crate::lower::StmtId,
        stmt: &LStmt,
        choices: &mut CountingChoices<'_>,
        log: &mut RunLog,
    ) -> SmallStep {
        macro_rules! eval {
            ($expr:expr) => {{
                match self.eval(&Env::of(m, id), $expr, choices) {
                    Ok(v) => v,
                    Err(NeedChoiceMarker) => return SmallStep::NeedChoice,
                }
            }};
        }

        match stmt {
            LStmt::Skip => SmallStep::Continue,
            LStmt::Assign(var, value) => {
                let v = eval!(*value);
                m.locals[var.0 as usize] = v;
                SmallStep::Continue
            }
            LStmt::New { dst, ty, inits } => {
                let mut values = Vec::with_capacity(inits.len());
                for (var, expr) in inits {
                    values.push((*var, eval!(*expr)));
                }
                let new_id = store.allocate(self.program, *ty);
                {
                    let created = store.machine_mut(new_id).expect("just allocated");
                    for (var, v) in values {
                        created.locals[var.0 as usize] = v;
                    }
                }
                m.locals[dst.0 as usize] = Value::Machine(new_id);
                SmallStep::Yield(YieldKind::Created {
                    id: new_id,
                    ty: *ty,
                })
            }
            LStmt::Delete => {
                // The running machine was taken out of its slot by
                // `run_machine`, which leaves the tombstone in place on a
                // `Deleted` outcome — nothing to remove here.
                SmallStep::Deleted
            }
            LStmt::Send {
                target,
                event,
                payload,
            } => {
                let target_v = eval!(*target);
                let payload_v = match payload {
                    Some(p) => eval!(*p),
                    None => Value::Null,
                };
                let Some(target_id) = target_v.as_machine() else {
                    return SmallStep::Error(ErrorKind::SendToUndefined);
                };
                // The running machine's slot is a tombstone while it
                // runs; a self-send must not read it.
                let receiver = if target_id == id {
                    &mut *m
                } else {
                    match store.machine_mut(target_id) {
                        Some(r) => r,
                        None => {
                            return SmallStep::Error(ErrorKind::SendToDeleted { target: target_id })
                        }
                    }
                };
                let enqueued = receiver.enqueue(*event, payload_v);
                SmallStep::Yield(YieldKind::Sent {
                    to: target_id,
                    event: *event,
                    enqueued,
                })
            }
            LStmt::Raise { event, payload } => {
                let v = match payload {
                    Some(p) => eval!(*p),
                    None => Value::Null,
                };
                if log.extended {
                    log.raised.push(*event);
                }
                m.msg = Value::Event(*event);
                m.arg = v;
                m.cont.clear();
                m.pending = Some((*event, v));
                SmallStep::Continue
            }
            LStmt::Leave => {
                m.cont.clear();
                SmallStep::Continue
            }
            LStmt::Return => {
                let mt = self.program.machine(m.ty);
                let exit = mt.states[m.current_state().0 as usize].exit;
                m.cont.clear();
                m.cont.push(Instr::PopViaReturn);
                m.cont.push(Instr::Stmt(exit));
                SmallStep::Continue
            }
            LStmt::Assert(cond) => match eval!(*cond) {
                Value::Bool(true) => SmallStep::Continue,
                Value::Bool(false) => SmallStep::Error(ErrorKind::AssertionFailure),
                _ => SmallStep::Error(ErrorKind::AssertionUndefined),
            },
            LStmt::Block(_) => {
                m.cont.push(Instr::Seq(sid, 0));
                SmallStep::Continue
            }
            LStmt::If { cond, then, els } => match eval!(*cond) {
                Value::Bool(b) => {
                    let branch = if b { *then } else { *els };
                    m.cont.push(Instr::Stmt(branch));
                    SmallStep::Continue
                }
                _ => SmallStep::Error(ErrorKind::UndefinedCondition),
            },
            LStmt::While { cond, body } => match eval!(*cond) {
                Value::Bool(true) => {
                    m.cont.push(Instr::Loop(sid));
                    m.cont.push(Instr::Stmt(*body));
                    SmallStep::Continue
                }
                Value::Bool(false) => SmallStep::Continue,
                _ => SmallStep::Error(ErrorKind::UndefinedCondition),
            },
            LStmt::CallState(target) => {
                // The continuation after this statement becomes the saved
                // resume point; it is restored when the callee returns.
                let resume = std::mem::take(&mut m.cont);
                self.push_callee(m, *target, Some(resume));
                SmallStep::Continue
            }
            LStmt::Foreign { dst, func, args } => {
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(eval!(*a));
                }
                let result = match self.call_foreign(&Env::of(m, id), *func, &arg_values, choices) {
                    Ok(v) => v,
                    Err(ModelAbort::NeedChoice) => return SmallStep::NeedChoice,
                    Err(ModelAbort::Error(kind)) => return SmallStep::Error(kind),
                };
                if let Some(dst) = dst {
                    m.locals[dst.0 as usize] = result;
                }
                SmallStep::Continue
            }
        }
    }

    /// Big-step expression evaluation (the paper's ⇓ relation) with ⊥
    /// propagation and external resolution of `*`, over a machine's frame
    /// or a model body's.
    ///
    /// Nearly every expression a statement evaluates is a leaf or one
    /// operator over leaves, so this is one match with the operands read
    /// in place: straight-line code that touches `choices` only at a `*`.
    /// Only an operand that is itself an operator, a `*` or a call
    /// recurses.
    fn eval(
        &self,
        env: &Env<'_>,
        expr: ExprId,
        choices: &mut dyn ChoiceSource,
    ) -> Result<Value, NeedChoiceMarker> {
        let code = &self.program.code;
        macro_rules! operand {
            ($e:expr) => {
                match env.leaf(code.expr($e)) {
                    Some(v) => v,
                    None => self.eval(env, $e, choices)?,
                }
            };
        }
        Ok(match code.expr(expr) {
            LExpr::Unary(op, inner) => Value::unary(*op, &operand!(*inner)),
            LExpr::Binary(op, a, b) => {
                // Note: both operands are always evaluated (no short
                // circuit), matching the paper's strict operator semantics.
                let va = operand!(*a);
                let vb = operand!(*b);
                Value::binary(*op, &va, &vb)
            }
            LExpr::Nondet => Value::Bool(choices.next_choice().ok_or(NeedChoiceMarker)?),
            LExpr::Foreign(func, args) => self.eval_foreign(env, *func, args, choices)?,
            leaf => env.leaf(leaf).expect("every other form is a leaf"),
        })
    }

    /// A foreign call in expression position.
    fn eval_foreign(
        &self,
        env: &Env<'_>,
        func: FnId,
        args: &[ExprId],
        choices: &mut dyn ChoiceSource,
    ) -> Result<Value, NeedChoiceMarker> {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(env, *a, choices)?);
        }
        if env.in_model {
            // Nested foreign calls inside model bodies resolve through the
            // native registry only (no recursive model interpretation).
            return Ok(if self.foreign.has_impl(env.ty, func) {
                self.foreign.call(env.self_id, env.ty, func, &values)
            } else {
                Value::Null
            });
        }
        match self.call_foreign(env, func, &values, choices) {
            Ok(v) => Ok(v),
            Err(ModelAbort::NeedChoice) => Err(NeedChoiceMarker),
            // A failing assert inside a model body in expression
            // position surfaces as ⊥ — the enclosing statement's
            // dynamic checks then report the error; this keeps the
            // expression layer total, matching the paper's
            // ⊥-propagating discipline.
            Err(ModelAbort::Error(_)) => Ok(Value::Null),
        }
    }

    /// The `en(m)` predicate: whether machine `id` can take a step.
    pub fn enabled(&self, config: &Config, id: MachineId) -> bool {
        config.enabled(id, self.program)
    }

    /// Ids of all enabled machines, in increasing id order.
    pub fn enabled_machines(&self, config: &Config) -> Vec<MachineId> {
        let mut out = Vec::new();
        self.enabled_machines_into(config, &mut out);
        out
    }

    /// [`Engine::enabled_machines`] into a caller-owned buffer (cleared
    /// first), so a hot loop reuses one allocation across states.
    pub fn enabled_machines_into(&self, config: &Config, out: &mut Vec<MachineId>) {
        out.clear();
        out.extend(config.live_ids().filter(|&id| self.enabled(config, id)));
    }
}

/// Why a model-body interpretation stopped early.
enum ModelAbort {
    NeedChoice,
    Error(ErrorKind),
}

impl Engine<'_> {
    /// Calls a foreign function: a registered native implementation wins;
    /// otherwise an erasable model body (§3) is interpreted; otherwise the
    /// conservative ⊥ is returned.
    fn call_foreign(
        &self,
        env: &Env<'_>,
        func: FnId,
        args: &[Value],
        choices: &mut dyn ChoiceSource,
    ) -> Result<Value, ModelAbort> {
        if self.foreign.has_impl(env.ty, func) {
            return Ok(self.foreign.call(env.self_id, env.ty, func, args));
        }
        let mt = self.program.machine(env.ty);
        let Some(model) = mt.foreign[func.0 as usize].model else {
            return Ok(Value::Null);
        };
        // Extended frame: machine locals (read-only for well-checked
        // programs), then parameters, then the `result` slot.
        let mut locals = env.locals.to_vec();
        locals.resize(model.param_base as usize, Value::Null);
        for i in 0..model.param_count as usize {
            locals.push(args.get(i).copied().unwrap_or(Value::Null));
        }
        locals.push(Value::Null); // result
        let mut frame = ModelFrame {
            locals,
            fuel: self.fuel,
        };
        self.model_stmt(env, &mut frame, model.body, choices)?;
        Ok(frame.locals[model.result_slot as usize])
    }

    /// Big-step interpretation of a (statement-restricted) model body.
    fn model_stmt(
        &self,
        caller: &Env<'_>,
        frame: &mut ModelFrame,
        stmt: StmtId,
        choices: &mut dyn ChoiceSource,
    ) -> Result<(), ModelAbort> {
        macro_rules! eval {
            ($expr:expr) => {
                self.eval(&frame.env(caller), $expr, choices)
                    .map_err(|NeedChoiceMarker| ModelAbort::NeedChoice)?
            };
        }
        if frame.fuel == 0 {
            return Err(ModelAbort::Error(ErrorKind::FuelExhausted));
        }
        frame.fuel -= 1;
        match self.program.code.stmt(stmt) {
            LStmt::Skip => Ok(()),
            LStmt::Assign(var, value) => {
                let v = eval!(*value);
                frame.locals[var.0 as usize] = v;
                Ok(())
            }
            LStmt::Assert(cond) => match eval!(*cond) {
                Value::Bool(true) => Ok(()),
                Value::Bool(false) => Err(ModelAbort::Error(ErrorKind::AssertionFailure)),
                _ => Err(ModelAbort::Error(ErrorKind::AssertionUndefined)),
            },
            LStmt::Block(children) => {
                for child in children.clone() {
                    self.model_stmt(caller, frame, child, choices)?;
                }
                Ok(())
            }
            LStmt::If { cond, then, els } => match eval!(*cond) {
                Value::Bool(true) => self.model_stmt(caller, frame, *then, choices),
                Value::Bool(false) => self.model_stmt(caller, frame, *els, choices),
                _ => Err(ModelAbort::Error(ErrorKind::UndefinedCondition)),
            },
            LStmt::While { cond, body } => loop {
                if frame.fuel == 0 {
                    return Err(ModelAbort::Error(ErrorKind::FuelExhausted));
                }
                frame.fuel -= 1;
                match eval!(*cond) {
                    Value::Bool(true) => self.model_stmt(caller, frame, *body, choices)?,
                    Value::Bool(false) => return Ok(()),
                    _ => return Err(ModelAbort::Error(ErrorKind::UndefinedCondition)),
                }
            },
            // The checker rejects every other form inside model bodies.
            _ => Err(ModelAbort::Error(ErrorKind::UndefinedCondition)),
        }
    }
}

/// What an expression reads: the frame of the running machine, or the
/// extended frame of a model body called from it.
struct Env<'a> {
    locals: &'a [Value],
    msg: Value,
    arg: Value,
    self_id: MachineId,
    ty: MachineTypeId,
    /// Evaluating inside a model body (the one policy that differs: a
    /// nested foreign call is not interpreted).
    in_model: bool,
}

impl<'a> Env<'a> {
    /// The frame of machine `self_id`, whose state is `m`.
    #[inline]
    fn of(m: &'a MachineState, self_id: MachineId) -> Env<'a> {
        Env {
            locals: &m.locals,
            msg: m.msg,
            arg: m.arg,
            self_id,
            ty: m.ty,
            in_model: false,
        }
    }

    /// The value of `expr` if it reads no other expression.
    #[inline(always)]
    fn leaf(&self, expr: &LExpr) -> Option<Value> {
        Some(match expr {
            LExpr::This => Value::Machine(self.self_id),
            LExpr::Msg => self.msg,
            LExpr::Arg => self.arg,
            LExpr::Null => Value::Null,
            LExpr::Bool(b) => Value::Bool(*b),
            LExpr::Int(i) => Value::Int(*i),
            LExpr::Var(v) => self.locals[v.0 as usize],
            LExpr::Event(e) => Value::Event(*e),
            LExpr::Nondet | LExpr::Unary(..) | LExpr::Binary(..) | LExpr::Foreign(..) => {
                return None
            }
        })
    }
}

/// The locals of a model body — the calling machine's, then the
/// parameters, then `result` — and the steps it may still take.
struct ModelFrame {
    locals: Vec<Value>,
    fuel: usize,
}

impl ModelFrame {
    fn env<'a>(&'a self, caller: &Env<'_>) -> Env<'a> {
        Env {
            locals: &self.locals,
            msg: caller.msg,
            arg: caller.arg,
            self_id: caller.self_id,
            ty: caller.ty,
            in_model: true,
        }
    }
}

struct CountingChoices<'a> {
    inner: &'a mut dyn ChoiceSource,
    used: usize,
}

impl ChoiceSource for CountingChoices<'_> {
    fn next_choice(&mut self) -> Option<bool> {
        let c = self.inner.next_choice();
        if c.is_some() {
            self.used += 1;
        }
        c
    }
}
