//! The execution runtime (§4 of the paper).
//!
//! The paper's runtime exposes three APIs to the interface code:
//! `SMCreateMachine`, `SMAddEvent` and `SMGetContext`. This module exposes
//! the same three operations as [`Runtime::create_machine`],
//! [`Runtime::add_event`] and [`Runtime::with_context`], and reproduces
//! the runtime's execution discipline:
//!
//! * ghost machines, variables and statements are **erased** before the
//!   program is lowered to its table-driven form;
//! * the calling thread processes events **run-to-completion**: an
//!   `add_event` drives the target machine (and, transitively, every
//!   machine it sends to, in causal order) until the system is quiescent —
//!   Windows drivers "use calling threads to do all the work";
//! * multiple host threads may call in concurrently; machine state is
//!   protected by locking (the paper locks per machine instance; this
//!   reproduction serializes on one lock per runtime, which preserves
//!   the observable run-to-completion semantics — see DESIGN.md). The
//!   lock guards the machines themselves: plain `MachineState`s the
//!   runtime owns, run by the one interpreter through its `MachineStore`
//!   seam, the machine that runs taken out for its run and put back.
//!
//! Foreign functions may carry per-machine *external memory*, mirroring
//! the `void*` context of §4, via [`RuntimeBuilder::foreign_with_context`]
//! and [`Runtime::set_context`].

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

use p_ast::Program;
use p_semantics::{
    lower, Engine, EventId, ExecOutcome, ForeignEnv, ForeignRegistry, Granularity, LoweredProgram,
    MachineId, MachineState, MachineStore, MachineTypeId, PError, Value, YieldKind,
};
use p_telemetry::Telemetry;

use crate::slots::SlotTable;
use crate::RuntimeError;

type ContextMap = HashMap<MachineId, Box<dyn Any + Send>>;

/// Configures and builds a [`Runtime`].
///
/// Created by [`Runtime::builder`]; statically checks and erases the
/// program up front, then accepts foreign-function implementations.
pub struct RuntimeBuilder {
    program: LoweredProgram,
    registry: ForeignRegistry,
    contexts: Arc<Mutex<ContextMap>>,
    fuel: usize,
    telemetry: Telemetry,
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("machines", &self.program.machines.len())
            .finish()
    }
}

impl RuntimeBuilder {
    /// Registers a pure foreign function.
    pub fn foreign<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.registry.register(name, f);
        self
    }

    /// Registers a foreign function with access to the calling machine's
    /// external context of type `T` (the `void*` memory of §4).
    ///
    /// If the calling machine has no context, or its context has a
    /// different type, the function receives `None`.
    pub fn foreign_with_context<T, F>(&mut self, name: &str, f: F) -> &mut Self
    where
        T: Any + Send,
        F: Fn(Option<&mut T>, &[Value]) -> Value + Send + Sync + 'static,
    {
        let contexts = Arc::clone(&self.contexts);
        self.registry.register_with_self(name, move |caller, args| {
            let mut map = contexts.lock();
            let ctx = map.get_mut(&caller).and_then(|b| b.downcast_mut::<T>());
            f(ctx, args)
        });
        self
    }

    /// Overrides the per-run small-step budget.
    pub fn fuel(&mut self, fuel: usize) -> &mut Self {
        self.fuel = fuel;
        self
    }

    /// Attaches a telemetry handle. The runtime then records per-machine
    /// spans for atomic runs, instants for send/raise/dequeue/defer/
    /// halt/quarantine, and queue-depth gauges through it. A disabled
    /// handle (the default) reduces every hook to one predictable
    /// branch; building `p-runtime` without its `telemetry` feature
    /// removes the hook sites entirely.
    pub fn telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the runtime. No machine is created yet — that is the
    /// interface code's job (e.g. on `EvtAddDevice`).
    pub fn start(self) -> Runtime {
        let foreign = self.registry.resolve(&self.program);
        Runtime {
            inner: Arc::new(Inner {
                program: self.program,
                foreign,
                contexts: self.contexts,
                shared: Mutex::new(Shared::default()),
                meta: SlotTable::new(),
                fuel: self.fuel,
                events_processed: AtomicU64::new(0),
                runs_executed: AtomicU64::new(0),
                telemetry: self.telemetry,
            }),
        }
    }
}

/// Supervision status of one machine instance.
///
/// The paper's runtime halts the whole driver on an error; this
/// reproduction supervises per machine so one misbehaving instance (or
/// one panicking foreign function) cannot take the rest of the system
/// down — see the "Fault model & supervision" section of DESIGN.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MachineStatus {
    /// Processing events normally.
    #[default]
    Running,
    /// Took a P error transition (assert failure, unhandled event, …);
    /// sends to it return the recorded error.
    Halted,
    /// A panic escaped while the machine was running (typically from a
    /// foreign function); sends to it return
    /// [`RuntimeError::MachineQuarantined`].
    Quarantined,
}

/// Why a machine stopped: the P error that halted it, or the panic
/// message that quarantined it.
enum Cause {
    Error(PError),
    Fault(String),
}

/// Supervision record of one machine instance: slot `id` of `Inner::meta`.
///
/// Outside the runtime's lock: status, counters and the queue-depth
/// snapshot (refreshed by `drain` after every enqueue and run) stay
/// readable while a long atomic run holds it. Whoever holds
/// `shared` is the one writer of all but `dropped` (producers bump it):
/// relaxed load/store pairs, as cheap as plain fields.
#[derive(Default)]
struct MetaSlot {
    /// Created and not deleted (deleted machines are forgotten).
    live: AtomicBool,
    delivered: AtomicU64,
    dropped: AtomicU64,
    queue_depth: AtomicUsize,
    /// Set once, when the machine halts or is quarantined.
    cause: OnceLock<Box<Cause>>,
}

impl MetaSlot {
    fn status(&self) -> Option<MachineStatus> {
        if !self.live.load(Ordering::Relaxed) {
            return None;
        }
        Some(match self.cause.get().map(|cause| &**cause) {
            None => MachineStatus::Running,
            Some(Cause::Error(_)) => MachineStatus::Halted,
            Some(Cause::Fault(_)) => MachineStatus::Quarantined,
        })
    }
}

/// Adds one to a counter whose only writer holds `shared`.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Point-in-time snapshot of runtime counters (see [`Runtime::stats`]).
#[derive(Clone, Debug)]
pub struct RuntimeStats {
    /// Events accepted through `add_event` (successful enqueues).
    pub events_processed: u64,
    /// Atomic machine runs executed.
    pub runs_executed: u64,
    /// Events delivered into machine queues, summed over machines.
    pub delivered: u64,
    /// Events dropped before delivery (pump overflow policy), summed.
    pub dropped: u64,
    /// Machines currently quarantined after a panic.
    pub quarantined: usize,
    /// Machines halted by a P error transition.
    pub halted: usize,
    /// Per-machine breakdown, sorted by machine id.
    pub machines: Vec<MachineStats>,
}

/// Per-machine counters inside a [`RuntimeStats`] snapshot.
#[derive(Clone, Debug)]
pub struct MachineStats {
    /// The machine instance.
    pub machine: MachineId,
    /// Its supervision status.
    pub status: MachineStatus,
    /// Events delivered into its queue.
    pub delivered: u64,
    /// Events dropped before reaching its queue.
    pub dropped: u64,
    /// Events waiting in its queue when the snapshot was taken.
    pub queue_len: usize,
}

impl MachineStatus {
    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            MachineStatus::Running => "running",
            MachineStatus::Halted => "halted",
            MachineStatus::Quarantined => "quarantined",
        }
    }
}

impl RuntimeStats {
    /// Serializes the snapshot as JSON (the `p run --stats` payload),
    /// including per-machine supervision status.
    pub fn to_json(&self) -> p_telemetry::json::JsonValue {
        use p_telemetry::json::{num, obj, str as jstr, JsonValue};
        let machines = JsonValue::Arr(
            self.machines
                .iter()
                .map(|m| {
                    obj(vec![
                        ("machine", num(f64::from(m.machine.0))),
                        ("status", jstr(m.status.as_str())),
                        ("delivered", num(m.delivered as f64)),
                        ("dropped", num(m.dropped as f64)),
                        ("queue_len", num(m.queue_len as f64)),
                    ])
                })
                .collect(),
        );
        obj(vec![
            ("events_processed", num(self.events_processed as f64)),
            ("runs_executed", num(self.runs_executed as f64)),
            ("delivered", num(self.delivered as f64)),
            ("dropped", num(self.dropped as f64)),
            ("quarantined", num(self.quarantined as f64)),
            ("halted", num(self.halted as f64)),
            ("machines", machines),
        ])
    }
}

/// What the runtime's lock — an executor shard's token — guards: the
/// machines themselves, owned outright, and the causal work stack.
#[derive(Default)]
struct Shared {
    machines: Machines,
    /// Causal work stack: machines with pending work, top last.
    work: Vec<MachineId>,
}

/// Every machine created so far, indexed by id: `None` once deleted (so
/// that sends to it are detected, rule SEND-FAIL2) and while the machine
/// is out for its own run.
#[derive(Default)]
struct Machines(Vec<Option<MachineState>>);

impl Machines {
    fn get(&self, id: MachineId) -> Option<&MachineState> {
        self.0.get(id.0 as usize)?.as_ref()
    }
}

impl MachineStore for Machines {
    fn machine_mut(&mut self, id: MachineId) -> Option<&mut MachineState> {
        self.0.get_mut(id.0 as usize)?.as_mut()
    }

    fn allocate(&mut self, program: &LoweredProgram, ty: MachineTypeId) -> MachineId {
        self.0.push(Some(MachineState::initial(program, ty)));
        MachineId((self.0.len() - 1) as u32)
    }
}

/// Renders a `catch_unwind` payload for the quarantine record.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

struct Inner {
    program: LoweredProgram,
    foreign: ForeignEnv,
    contexts: Arc<Mutex<ContextMap>>,
    shared: Mutex<Shared>,
    /// Supervision status and delivery counters, indexed by machine id.
    /// Outside `shared` and lock-free to read, so introspection
    /// (`queue_len`, `stats`, `machine_status`) never blocks behind a
    /// running drain.
    meta: SlotTable<MetaSlot>,
    fuel: usize,
    events_processed: AtomicU64,
    runs_executed: AtomicU64,
    telemetry: Telemetry,
}

/// The lock of one runtime — an executor shard's token — plus an engine
/// over its program. `add_event` and `create_machine` open one per call;
/// an executor worker opens one per batch.
pub(crate) struct Session<'r> {
    inner: &'r Inner,
    shared: MutexGuard<'r, Shared>,
    engine: Engine<'r>,
}

impl<'r> Session<'r> {
    fn over(inner: &'r Inner, shared: MutexGuard<'r, Shared>) -> Session<'r> {
        // Run logs (dequeue/raise/defer lists) cost an allocation per
        // occurrence and only tracing reads them.
        let tracing = inner.telemetry.enabled();
        let engine = Engine::new(&inner.program, inner.foreign.clone())
            .with_fuel(inner.fuel)
            .with_dequeue_log(tracing)
            .with_event_log(tracing);
        Session {
            inner,
            shared,
            engine,
        }
    }

    /// The delivery step of `SMAddEvent`: enqueues the resolved `event`
    /// into machine `id` and runs to completion.
    pub(crate) fn deliver(
        &mut self,
        id: MachineId,
        event: EventId,
        payload: Value,
    ) -> Result<(), RuntimeError> {
        let inner = self.inner;
        let slot = inner.meta.get(id.0 as usize);
        if let Some(cause) = slot.and_then(|s| s.cause.get()) {
            return Err(match &**cause {
                Cause::Error(saved) => RuntimeError::Machine(saved.clone()),
                Cause::Fault(_) => RuntimeError::MachineQuarantined(id),
            });
        }
        let machine = self
            .shared
            .machines
            .machine_mut(id)
            .ok_or(RuntimeError::NoSuchMachine(id))?;
        machine.enqueue(event, payload);
        let depth = machine.queue.len();
        bump(&inner.events_processed);
        let slot = inner.meta.slot(id.0 as usize);
        bump(&slot.delivered);
        slot.queue_depth.store(depth, Ordering::Relaxed);
        inner.telemetry.instant(id.0, "inject", || {
            vec![("event", inner.program.event_name(event).into())]
        });
        self.shared.work.push(id);
        self.drain()
    }

    /// Runs the causal work stack to quiescence, under the lock this
    /// session holds; this is the "run to completion on the calling
    /// thread" discipline of §4. Foreign functions must not call back
    /// into the runtime (the paper restricts them to their external
    /// memory for the same reason).
    ///
    /// The running machine is taken out of the store for its run and
    /// put back on every outcome but `delete`. The run executes under
    /// `catch_unwind`, the machine held outside it: a panic (from a
    /// foreign function, or a defect in the engine itself) quarantines
    /// the machine with the state it had reached and the drain keeps
    /// going, so one failure never poisons the store or stalls other
    /// machines. The first failure observed is reported to the caller
    /// after the stack is quiescent.
    fn drain(&mut self) -> Result<(), RuntimeError> {
        let Session {
            inner,
            shared,
            engine,
        } = self;
        let Shared { machines, work } = &mut **shared;
        let slot = |id: MachineId| inner.meta.slot(id.0 as usize);
        let mut first_err: Option<RuntimeError> = None;
        while let Some(id) = work.pop() {
            let runnable = |m: &MachineState| m.enabled(&inner.program);
            if !machines.get(id).is_some_and(runnable) || slot(id).cause.get().is_some() {
                continue;
            }
            let mut machine = machines.0[id.0 as usize]
                .take()
                .expect("checked live above");
            inner.telemetry.span_begin(id.0, "run", || {
                vec![("machine", inner.program.machine_name(machine.ty).into())]
            });
            // Erased programs contain no `*`; the closure is never
            // called on checked inputs, and returning an arbitrary
            // value keeps the runtime total if one slips through.
            let mut no_choices = || false;
            // Panics and typed engine errors both quarantine the machine:
            // the run either aborted mid-way (panic) or was rejected up
            // front (typed error); neither may poison the store.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let atomic = Granularity::Atomic;
                engine.run_owned(machines, &mut machine, id, &mut no_choices, atomic)
            }))
            .map_err(panic_message)
            .and_then(|run| run.map_err(|e| e.to_string()));
            bump(&inner.runs_executed);
            // Refresh the queue-depth snapshots touched by this run (the
            // runner's own queue, and the receiver's on a send) so
            // `queue_len`/`stats` stay accurate without the lock.
            let depth = machine.queue.len();
            slot(id).queue_depth.store(depth, Ordering::Relaxed);
            let deleted = matches!(&run, Ok(run) if matches!(run.outcome, ExecOutcome::Deleted));
            if !deleted {
                machines.0[id.0 as usize] = Some(machine);
            }
            let run = match run {
                Ok(run) => run,
                Err(message) => {
                    let reason = message.as_str();
                    inner
                        .telemetry
                        .instant(id.0, "quarantine", || vec![("reason", reason.into())]);
                    inner.telemetry.span_end(id.0, "run");
                    if let Some(metrics) = inner.telemetry.metrics() {
                        metrics.counter("runtime.quarantines").inc();
                    }
                    let _ = slot(id).cause.set(Box::new(Cause::Fault(message)));
                    first_err.get_or_insert(RuntimeError::MachineQuarantined(id));
                    continue;
                }
            };
            inner.trace_run(id, (!deleted).then_some(depth), &run);
            match run.outcome {
                ExecOutcome::Yield(YieldKind::Sent { to, .. }) => {
                    if let Some(receiver) = machines.get(to) {
                        let depth = receiver.queue.len();
                        slot(to).queue_depth.store(depth, Ordering::Relaxed);
                    }
                    // Causal order: the receiver processes next, then
                    // the sender resumes.
                    work.push(id);
                    work.push(to);
                }
                ExecOutcome::Yield(YieldKind::Created { id: new_id, .. }) => {
                    slot(new_id).live.store(true, Ordering::Relaxed);
                    work.push(id);
                    work.push(new_id);
                }
                ExecOutcome::Yield(YieldKind::Internal) => {
                    work.push(id);
                }
                ExecOutcome::Blocked => {}
                ExecOutcome::Deleted => {
                    slot(id).live.store(false, Ordering::Relaxed);
                    inner.contexts.lock().remove(&id);
                }
                ExecOutcome::Error(e) => {
                    let _ = slot(id).cause.set(Box::new(Cause::Error(e.clone())));
                    first_err.get_or_insert(RuntimeError::Machine(e));
                }
                ExecOutcome::NeedChoice => {
                    unreachable!("erased programs are deterministic")
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The P runtime: hosts machine instances of one erased program.
///
/// Cheap to clone (`Arc` inside); clones share the same instances.
///
/// # Examples
///
/// ```
/// let src = r#"
///     event inc;
///     machine Counter {
///         var n : int;
///         state Run {
///             on inc do bump;
///         }
///         action bump { n := n + 1; }
///     }
///     main Counter();
/// "#;
/// let program = p_parser::parse(src).unwrap();
/// let runtime = p_runtime::Runtime::builder(&program).unwrap().start();
/// let id = runtime
///     .create_machine("Counter", &[("n", p_semantics::Value::Int(0))])
///     .unwrap();
/// runtime.add_event(id, "inc", p_semantics::Value::Null).unwrap();
/// runtime.add_event(id, "inc", p_semantics::Value::Null).unwrap();
/// assert_eq!(runtime.read_var(id, "n").unwrap(), p_semantics::Value::Int(2));
/// ```
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("machines", &self.inner.program.machines.len())
            .field(
                "events_processed",
                &self.inner.events_processed.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Runtime {
    /// Checks `program`, erases its ghost parts (§3.3), lowers the result
    /// and returns a builder for registering foreign functions.
    ///
    /// # Errors
    ///
    /// Fails if the program is rejected by the static checker, has no
    /// real machines, or does not lower.
    pub fn builder(program: &Program) -> Result<RuntimeBuilder, RuntimeError> {
        p_typecheck::check(program)?;
        let erased = p_typecheck::erase(program)?;
        Ok(Runtime::from_lowered(lower(&erased)?))
    }

    /// Builds a runtime directly from an already-erased, lowered program.
    pub fn from_lowered(program: LoweredProgram) -> RuntimeBuilder {
        RuntimeBuilder {
            program,
            registry: ForeignRegistry::new(),
            contexts: Arc::new(Mutex::new(HashMap::new())),
            fuel: 1_000_000,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The erased, lowered program this runtime executes.
    pub fn program(&self) -> &LoweredProgram {
        &self.inner.program
    }

    /// `SMCreateMachine`: creates an instance of machine type
    /// `type_name`, initializing the named variables, and runs it (and any
    /// machines it signals) to completion.
    ///
    /// # Errors
    ///
    /// Fails on unknown machine or variable names, or if processing takes
    /// an error transition.
    pub fn create_machine(
        &self,
        type_name: &str,
        inits: &[(&str, Value)],
    ) -> Result<MachineId, RuntimeError> {
        let program = &self.inner.program;
        let ty =
            program
                .machine_type_named(type_name)
                .ok_or_else(|| RuntimeError::UnknownName {
                    kind: "machine",
                    name: type_name.to_owned(),
                })?;
        let mt = program.machine(ty);
        let mut resolved = Vec::with_capacity(inits.len());
        for (name, value) in inits {
            let sym = program
                .interner
                .get(name)
                .and_then(|s| mt.var_named(s))
                .ok_or_else(|| RuntimeError::UnknownName {
                    kind: "variable",
                    name: (*name).to_owned(),
                })?;
            resolved.push((sym, *value));
        }

        let mut session = self.session();
        let machines = &mut session.shared.machines;
        let id = machines.allocate(program, ty);
        let machine = machines.machine_mut(id).expect("just allocated");
        for (var, value) in resolved {
            machine.locals[var.0 as usize] = value;
        }
        let slot = self.inner.meta.slot(id.0 as usize);
        slot.live.store(true, Ordering::Relaxed);
        session.shared.work.push(id);
        session.drain()?;
        Ok(id)
    }

    /// `SMAddEvent`: enqueues `event` (with `payload`) into machine `id`
    /// and processes to completion on the calling thread.
    ///
    /// # Errors
    ///
    /// Fails on unknown event names, dead machines, or if processing
    /// takes an error transition. Sends to a quarantined machine return
    /// [`RuntimeError::MachineQuarantined`]; sends to a halted machine
    /// return the error that halted it. Neither disturbs other machines.
    pub fn add_event(
        &self,
        id: MachineId,
        event: &str,
        payload: Value,
    ) -> Result<(), RuntimeError> {
        let event = self.event_id(event)?;
        self.session().deliver(id, event, payload)
    }

    /// Resolves an event name against the program (no hash lookup).
    pub(crate) fn event_id(&self, name: &str) -> Result<EventId, RuntimeError> {
        let event = self.inner.program.event_id_named(name);
        event.ok_or_else(|| RuntimeError::UnknownName {
            kind: "event",
            name: name.to_owned(),
        })
    }

    /// Takes the runtime's lock and builds the engine, once for as many
    /// deliveries as the caller makes through the session.
    pub(crate) fn session(&self) -> Session<'_> {
        Session::over(&self.inner, self.inner.shared.lock())
    }

    /// [`Runtime::session`] unless another thread holds the lock.
    pub(crate) fn try_session(&self) -> Option<Session<'_>> {
        let shared = self.inner.shared.try_lock()?;
        Some(Session::over(&self.inner, shared))
    }

    /// Attaches external memory to machine `id` (the per-machine `void*`
    /// of §4), replacing any previous context.
    pub fn set_context(&self, id: MachineId, context: Box<dyn Any + Send>) {
        self.inner.contexts.lock().insert(id, context);
    }

    /// `SMGetContext`: runs `f` over machine `id`'s external memory.
    ///
    /// Returns `None` if the machine has no context or it has a different
    /// type.
    pub fn with_context<T: Any + Send, R>(
        &self,
        id: MachineId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let mut map = self.inner.contexts.lock();
        map.get_mut(&id)?.downcast_mut::<T>().map(f)
    }

    /// Runs `f` over machine `id`, if it is alive, under the runtime's
    /// lock (so between runs, never inside one).
    fn inspect<R>(&self, id: MachineId, f: impl FnOnce(&MachineState) -> R) -> Option<R> {
        self.inner.shared.lock().machines.get(id).map(f)
    }

    /// Reads a machine variable by name (introspection for tests and
    /// examples).
    pub fn read_var(&self, id: MachineId, name: &str) -> Option<Value> {
        let program = &self.inner.program;
        self.inspect(id, |machine| {
            let mt = program.machine(machine.ty);
            let var = program.interner.get(name).and_then(|s| mt.var_named(s))?;
            Some(machine.locals[var.0 as usize])
        })?
    }

    /// The source name of machine `id`'s current control state.
    pub fn current_state(&self, id: MachineId) -> Option<String> {
        let program = &self.inner.program;
        self.inspect(id, |machine| {
            program
                .state_name(machine.ty, machine.current_state())
                .to_owned()
        })
    }

    /// A copy of machine `id`'s whole state — call stack, locals,
    /// registers, continuation, queue — or `None` once it is deleted:
    /// what a differential test compares against the checker's
    /// configuration of the same schedule.
    pub fn machine_state(&self, id: MachineId) -> Option<MachineState> {
        self.inspect(id, MachineState::clone)
    }

    /// Whether machine `id` is alive.
    pub fn is_alive(&self, id: MachineId) -> bool {
        self.inspect(id, |_| ()).is_some()
    }

    /// Number of events delivered through [`Runtime::add_event`].
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed.load(Ordering::Relaxed)
    }

    /// Number of atomic machine runs executed.
    pub fn runs_executed(&self) -> u64 {
        self.inner.runs_executed.load(Ordering::Relaxed)
    }

    /// Queue length of machine `id` (introspection).
    ///
    /// Reads the depth snapshot kept in the machine's supervision slot,
    /// so it takes no lock (and thus never blocks behind an in-progress
    /// atomic run).
    pub fn queue_len(&self, id: MachineId) -> Option<usize> {
        let slot = self.inner.meta.get(id.0 as usize)?;
        slot.status()?;
        Some(slot.queue_depth.load(Ordering::Relaxed))
    }

    /// Supervision status of machine `id`, or `None` if it was never
    /// created (deleted machines are forgotten; halted and quarantined
    /// ones are remembered).
    pub fn machine_status(&self, id: MachineId) -> Option<MachineStatus> {
        self.inner.meta.get(id.0 as usize)?.status()
    }

    /// The panic message that quarantined machine `id`, if any.
    pub fn quarantine_reason(&self, id: MachineId) -> Option<String> {
        match &**self.inner.meta.get(id.0 as usize)?.cause.get()? {
            Cause::Fault(message) => Some(message.clone()),
            Cause::Error(_) => None,
        }
    }

    /// Snapshot of the runtime's supervision counters.
    ///
    /// Like [`Runtime::queue_len`], this reads only the supervision
    /// slots — a stats poll during a long drain returns immediately
    /// instead of serializing behind the machine table.
    pub fn stats(&self) -> RuntimeStats {
        let meta = &self.inner.meta;
        let machines: Vec<MachineStats> = (0..meta.len())
            .filter_map(|i| {
                let slot = meta.get(i)?;
                Some(MachineStats {
                    machine: MachineId(i as u32),
                    status: slot.status()?,
                    delivered: slot.delivered.load(Ordering::Relaxed),
                    dropped: slot.dropped.load(Ordering::Relaxed),
                    queue_len: slot.queue_depth.load(Ordering::Relaxed),
                })
            })
            .collect();
        RuntimeStats {
            events_processed: self.inner.events_processed.load(Ordering::Relaxed),
            runs_executed: self.inner.runs_executed.load(Ordering::Relaxed),
            delivered: machines.iter().map(|m| m.delivered).sum(),
            dropped: machines.iter().map(|m| m.dropped).sum(),
            quarantined: machines
                .iter()
                .filter(|m| m.status == MachineStatus::Quarantined)
                .count(),
            halted: machines
                .iter()
                .filter(|m| m.status == MachineStatus::Halted)
                .count(),
            machines,
        }
    }

    /// Records an event dropped before delivery (pump overflow policy).
    pub(crate) fn note_dropped(&self, id: MachineId) {
        let slot = self.inner.meta.slot(id.0 as usize);
        slot.dropped.fetch_add(1, Ordering::Relaxed);
        self.inner.telemetry.instant(id.0, "drop", Vec::new);
        if let Some(metrics) = self.inner.telemetry.metrics() {
            metrics.counter("runtime.events.dropped").inc();
        }
    }

    /// The telemetry handle this runtime records through (disabled
    /// unless one was attached via [`RuntimeBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }
}

impl Inner {
    /// Emits the trace records for one completed atomic run: the
    /// machine's events in run order, the closing span, a queue-depth
    /// gauge (`queue`: what is left in its queue, `None` once deleted),
    /// and the aggregate counters/histograms.
    fn trace_run(&self, id: MachineId, queue: Option<usize>, run: &p_semantics::RunResult) {
        let telemetry = &self.telemetry;
        if !telemetry.enabled() {
            return;
        }
        let program = &self.program;
        let tid = id.0;
        for &ev in &run.dequeued {
            telemetry.instant(tid, "dequeue", || {
                vec![("event", program.event_name(ev).into())]
            });
        }
        for &ev in &run.deferred {
            telemetry.instant(tid, "defer", || {
                vec![("event", program.event_name(ev).into())]
            });
        }
        for &ev in &run.raised {
            telemetry.instant(tid, "raise", || {
                vec![("event", program.event_name(ev).into())]
            });
        }
        match &run.outcome {
            ExecOutcome::Yield(YieldKind::Sent {
                to,
                event,
                enqueued,
            }) => {
                telemetry.instant(tid, "send", || {
                    vec![
                        ("event", program.event_name(*event).into()),
                        ("to", u64::from(to.0).into()),
                        ("enqueued", i64::from(*enqueued).into()),
                    ]
                });
            }
            ExecOutcome::Yield(YieldKind::Created { id: new_id, ty }) => {
                telemetry.instant(tid, "create", || {
                    vec![
                        ("machine", program.machine_name(*ty).into()),
                        ("id", u64::from(new_id.0).into()),
                    ]
                });
            }
            ExecOutcome::Error(e) => {
                let summary = e.to_string();
                telemetry.instant(tid, "halt", || vec![("error", summary.into())]);
            }
            _ => {}
        }
        telemetry.span_end(tid, "run");
        if let Some(depth) = queue {
            telemetry.gauge(tid, "queue_depth", depth as i64);
        }
        if let Some(metrics) = telemetry.metrics() {
            metrics.counter("runtime.runs").inc();
            metrics
                .histogram("runtime.run.steps")
                .observe(run.steps as u64);
            metrics
                .counter("runtime.events.dequeued")
                .add(run.dequeued.len() as u64);
            metrics
                .counter("runtime.events.deferred")
                .add(run.deferred.len() as u64);
            metrics
                .counter("runtime.events.raised")
                .add(run.raised.len() as u64);
            match &run.outcome {
                ExecOutcome::Yield(YieldKind::Sent { .. }) => {
                    metrics.counter("runtime.events.sent").inc();
                }
                ExecOutcome::Yield(YieldKind::Created { .. }) => {
                    metrics.counter("runtime.machines.created").inc();
                }
                ExecOutcome::Error(_) => {
                    metrics.counter("runtime.halts").inc();
                }
                _ => {}
            }
            if let Some(depth) = queue {
                metrics.gauge("runtime.queue.depth").set(depth as u64);
            }
        }
    }
}
