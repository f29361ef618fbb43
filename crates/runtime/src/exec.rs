//! The sharded executor: N worker shards, one bounded inbox each.
//!
//! A [`Runtime`] alone processes events on the calling thread; an
//! [`Executor`] owns `N` shards, each with its own runtime (and thus its
//! own machines — shards share nothing but the program), a worker
//! thread, and one FIFO inbox bounded per machine and by a shard-wide
//! credit budget. Delayed injections ([`Executor::inject_after`]) wait in
//! one deadline heap that the workers sweep: the executor runs no thread
//! but its `N` workers.
//!
//! **Semantics are unchanged.** Every delivery is the delivery step of
//! `Runtime::add_event` — one enqueue through the paper's ⊕ operator
//! followed by a run-to-completion drain — executed by whichever worker
//! holds the shard's token (its runtime's lock). Batching happens
//! strictly *between* deliveries: a worker takes up to one quantum of
//! envelopes from the front of the inbox and delivers them in order
//! under one token hold, which amortizes the hand-off without ever
//! merging two events into one enqueue (that would change ⊕-dedup
//! behavior). Work stealing moves a *batch* to an idle worker that finds
//! another shard's token free; the batch still runs against the owning
//! shard's runtime, so supervision (quarantine, halt, typed errors) and
//! ordering are untouched.
//!
//! **Sharding boundary.** Machines created through the executor get a
//! *global* id mapped to a `(shard, local id)` pair. In-program machine
//! references (`send` targets, id-typed variables) must stay on one
//! shard — the executor rejects cross-shard initializers and payloads
//! with [`RuntimeError::CrossShard`] — while executor-level injections
//! route to any shard. Co-locate machines that talk to each other with
//! [`Executor::create_machine_on`].

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use p_ast::Program;
use p_semantics::{lower, LoweredProgram, MachineId, Value};
use p_telemetry::{Histogram, Telemetry};

use crate::shard::{Envelope, Shard};
use crate::slots::SlotTable;
use crate::timer::Timers;
use crate::{MachineStatus, Runtime, RuntimeBuilder, RuntimeError};

/// Idle polls (an atomic load per shard, then a yield) a worker makes
/// after a round that found work, before it parks: tens of microseconds
/// of processor time, bridging the gap to a busy producer's next
/// injection, which would otherwise pay a wake-up system call and a
/// scheduling delay. Earned by finding work: an idle executor never
/// spins. (Why a constant: DESIGN.md §16.)
const SPIN_ROUNDS: u32 = 100;
/// How long a worker out of spin budget sleeps before it looks at the
/// other shards and the stop flag again.
const PARK: Duration = Duration::from_micros(500);

/// One event to deliver.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Target machine.
    pub target: MachineId,
    /// Event name.
    pub event: String,
    /// Payload.
    pub payload: Value,
}

impl Injection {
    /// Creates an injection.
    pub fn new(target: MachineId, event: &str, payload: Value) -> Injection {
        Injection {
            target,
            event: event.to_owned(),
            payload,
        }
    }
}

/// What [`Executor::inject`] does when the target machine already has
/// `mailbox_capacity` events waiting or the shard is out of injection
/// credits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producer until space frees up (backpressure, like a
    /// full DPC queue). The default.
    #[default]
    Block,
    /// Drop the event being injected, count it in the stats and the
    /// target machine's [`RuntimeStats`](crate::RuntimeStats) row, and
    /// report success.
    DropNewest,
    /// Fail fast with [`RuntimeError::QueueFull`].
    Fail,
}

/// Per-shard rows inside an [`ExecStats`] snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Machines on this shard.
    pub machines: usize,
    /// Envelopes currently queued in its inbox (the queue-depth gauge;
    /// reads one atomic, no locks).
    pub queued: u64,
    /// Injection credits currently unclaimed.
    pub credits_free: u64,
    /// Injections delivered through this shard's runtime.
    pub delivered: u64,
    /// Injections its runtime rejected (halted/quarantined targets, …).
    pub failed: u64,
    /// Injections dropped by the `DropNewest` policy.
    pub dropped: u64,
    /// Batches this shard's worker took from another shard's inbox.
    pub steals: u64,
    /// Batches taken from this shard's inbox.
    pub batches: u64,
    /// Timers delivered into this shard's inbox.
    pub timer_fired: u64,
    /// High-water mark over its machines' waiting-event counts.
    pub max_mailbox_depth: u64,
}

/// Point-in-time executor counters (see [`Executor::stats`]).
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Injections delivered, summed over shards.
    pub delivered: u64,
    /// Injections rejected by a runtime, summed.
    pub failed: u64,
    /// Injections dropped by overflow policy, summed.
    pub dropped: u64,
    /// Cross-shard batch steals, summed.
    pub steals: u64,
    /// Inbox batches delivered, summed.
    pub batches: u64,
    /// Envelopes currently queued, summed.
    pub queued: u64,
    /// Timers armed over the executor's lifetime.
    pub timer_scheduled: u64,
    /// Timers armed but not yet delivered.
    pub timer_pending: u64,
    /// Timers delivered into inboxes.
    pub timer_fired: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
}

impl ExecStats {
    /// Serializes the snapshot as JSON (the `p run --shards --stats`
    /// payload).
    pub fn to_json(&self) -> p_telemetry::json::JsonValue {
        use p_telemetry::json::{num, obj, JsonValue};
        let shards = JsonValue::Arr(
            self.shards
                .iter()
                .map(|s| {
                    obj(vec![
                        ("shard", num(s.shard as f64)),
                        ("machines", num(s.machines as f64)),
                        ("queued", num(s.queued as f64)),
                        ("credits_free", num(s.credits_free as f64)),
                        ("delivered", num(s.delivered as f64)),
                        ("failed", num(s.failed as f64)),
                        ("dropped", num(s.dropped as f64)),
                        ("steals", num(s.steals as f64)),
                        ("batches", num(s.batches as f64)),
                        ("timer_fired", num(s.timer_fired as f64)),
                        ("max_mailbox_depth", num(s.max_mailbox_depth as f64)),
                    ])
                })
                .collect(),
        );
        obj(vec![
            ("delivered", num(self.delivered as f64)),
            ("failed", num(self.failed as f64)),
            ("dropped", num(self.dropped as f64)),
            ("steals", num(self.steals as f64)),
            ("batches", num(self.batches as f64)),
            ("queued", num(self.queued as f64)),
            ("timer_scheduled", num(self.timer_scheduled as f64)),
            ("timer_pending", num(self.timer_pending as f64)),
            ("timer_fired", num(self.timer_fired as f64)),
            ("shards", shards),
        ])
    }
}

/// What a clean [`Executor::shutdown`] returns: totals plus the recorded
/// latencies.
#[derive(Debug)]
pub struct ExecReport {
    /// Injections delivered over the executor's lifetime.
    pub delivered: u64,
    /// Final counter snapshot.
    pub stats: ExecStats,
    /// Injection-to-completion latencies in nanoseconds: the shards'
    /// log2 histograms merged (empty unless recording was enabled).
    pub latency: Histogram,
}

impl ExecReport {
    /// The `q`-quantile (0.0–1.0) of recorded latencies; `None` when
    /// none were recorded. Histogram-resolved: the upper bound of the
    /// power-of-two bucket the quantile falls in — never below the true
    /// sample quantile, less than twice it.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        (self.latency.count() > 0).then(|| Duration::from_nanos(self.latency.quantile_bound(q)))
    }
}

type ForeignThunk = Box<dyn Fn(&mut RuntimeBuilder) + Send + Sync>;

/// Configures and builds an [`Executor`].
pub struct ExecutorBuilder {
    program: LoweredProgram,
    shards: usize,
    mailbox_capacity: usize,
    credits: usize,
    overflow: OverflowPolicy,
    quantum: usize,
    record_latency: bool,
    fuel: Option<usize>,
    telemetry: Telemetry,
    foreigns: Vec<ForeignThunk>,
}

impl std::fmt::Debug for ExecutorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorBuilder")
            .field("shards", &self.shards)
            .field("mailbox_capacity", &self.mailbox_capacity)
            .finish()
    }
}

impl ExecutorBuilder {
    fn new(program: LoweredProgram) -> ExecutorBuilder {
        ExecutorBuilder {
            program,
            shards: 1,
            mailbox_capacity: 64,
            credits: 4096,
            overflow: OverflowPolicy::default(),
            quantum: 32,
            record_latency: false,
            fuel: None,
            telemetry: Telemetry::disabled(),
            foreigns: Vec::new(),
        }
    }

    /// Number of worker shards (default 1).
    pub fn shards(mut self, shards: usize) -> ExecutorBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Bound on the events one machine may have waiting in its shard's
    /// inbox (default 64).
    pub fn mailbox_capacity(mut self, capacity: usize) -> ExecutorBuilder {
        self.mailbox_capacity = capacity.max(1);
        self
    }

    /// Shard-wide injection credit budget: the total number of envelopes
    /// one shard may have queued at once (default 4096).
    pub fn credits(mut self, credits: usize) -> ExecutorBuilder {
        self.credits = credits.max(1);
        self
    }

    /// Overflow policy for [`Executor::inject`] (default
    /// [`OverflowPolicy::Block`]).
    pub fn overflow(mut self, policy: OverflowPolicy) -> ExecutorBuilder {
        self.overflow = policy;
        self
    }

    /// Scheduling quantum: max envelopes a worker takes from an inbox,
    /// and delivers, per hold of the shard's token (default 32).
    pub fn quantum(mut self, quantum: usize) -> ExecutorBuilder {
        self.quantum = quantum.max(1);
        self
    }

    /// Record per-injection completion latencies (returned as a
    /// histogram by [`Executor::shutdown`]; default off — recording costs
    /// an `Instant` read per injection and one per delivery).
    pub fn record_latency(mut self, record: bool) -> ExecutorBuilder {
        self.record_latency = record;
        self
    }

    /// Overrides the per-run small-step budget of every shard runtime.
    pub fn fuel(mut self, fuel: usize) -> ExecutorBuilder {
        self.fuel = Some(fuel);
        self
    }

    /// Attaches a telemetry handle: shard runtimes record their run
    /// spans through it, and workers add per-shard queue-depth gauges
    /// and steal/batch counters.
    pub fn telemetry(mut self, telemetry: Telemetry) -> ExecutorBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Registers a pure foreign function on every shard runtime.
    pub fn foreign<F>(mut self, name: &str, f: F) -> ExecutorBuilder
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        let name = name.to_owned();
        let f = Arc::new(f);
        self.foreigns.push(Box::new(move |b: &mut RuntimeBuilder| {
            let f = Arc::clone(&f);
            b.foreign(&name, move |args| f(args));
        }));
        self
    }

    /// Builds the shards, spawns one worker thread per shard, and returns
    /// the executor handle once every worker runs. A spawned thread
    /// takes its `p-exec-shard-N` name when it first runs, and one
    /// worker can steal and deliver a whole burst before another is
    /// scheduled, so returning earlier could leave a worker unnamed for
    /// as long as the host keeps it waiting.
    pub fn start(self) -> Executor {
        let shards = (0..self.shards)
            .map(|_| {
                let mut builder = Runtime::from_lowered(self.program.clone());
                for register in &self.foreigns {
                    register(&mut builder);
                }
                if let Some(fuel) = self.fuel {
                    builder.fuel(fuel);
                }
                builder.telemetry(self.telemetry.clone());
                Shard::new(builder.start(), self.mailbox_capacity, self.credits)
            })
            .collect();
        let inner = Arc::new(ExecInner {
            shards,
            routes: SlotTable::new(),
            next_global: AtomicU32::new(0),
            timers: Timers::default(),
            overflow: self.overflow,
            quantum: self.quantum.max(1),
            record_latency: self.record_latency,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            first_error: Mutex::new(None),
            next_shard: AtomicUsize::new(0),
            telemetry: self.telemetry,
        });
        let started = Arc::new(Barrier::new(inner.shards.len() + 1));
        let workers = (0..inner.shards.len())
            .map(|i| {
                let (inner, started) = (Arc::clone(&inner), Arc::clone(&started));
                std::thread::Builder::new()
                    .name(format!("p-exec-shard-{i}"))
                    .spawn(move || {
                        started.wait();
                        worker_loop(&inner, i)
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        started.wait();
        Executor { inner, workers }
    }
}

struct ExecInner {
    shards: Vec<Shard>,
    /// How machine ids map to shards: global id → `(shard + 1) << 32 |
    /// local id`, 0 for an id not handed out yet; read without a lock.
    routes: SlotTable<AtomicU64>,
    next_global: AtomicU32,
    timers: Timers,
    overflow: OverflowPolicy,
    quantum: usize,
    record_latency: bool,
    /// No new injections or timers once set (shutdown or drop).
    stop: AtomicBool,
    /// Workers currently holding a token for a batch.
    active: AtomicUsize,
    first_error: Mutex<Option<RuntimeError>>,
    next_shard: AtomicUsize,
    telemetry: Telemetry,
}

impl ExecInner {
    fn resolve(&self, id: MachineId) -> Result<(usize, MachineId), RuntimeError> {
        let route = self.routes.get(id.0 as usize);
        let route = route.map_or(0, |route| route.load(Ordering::Acquire));
        match (route >> 32) as usize {
            0 => Err(RuntimeError::NoSuchMachine(id)),
            shard => Ok((shard - 1, MachineId(route as u32))),
        }
    }

    /// Routes an injection: its target's shard and the envelope for that
    /// shard's inbox, event name resolved and payload translated. Nothing is
    /// taken or queued yet: an undeliverable injection is refused here.
    fn route(&self, injection: Injection) -> Result<(usize, Envelope), RuntimeError> {
        let (shard, local) = self.resolve(injection.target)?;
        let env = Envelope {
            local,
            event: self.shards[shard].runtime.event_id(&injection.event)?,
            payload: self.translate_payload(injection.payload, shard)?,
            at: self.record_latency.then(Instant::now),
        };
        Ok((shard, env))
    }

    /// Translates a `Value::Machine` payload into the target shard's
    /// local id space, rejecting cross-shard references.
    fn translate_payload(&self, payload: Value, shard: usize) -> Result<Value, RuntimeError> {
        match payload {
            Value::Machine(id) => {
                let (home, local) = self.resolve(id)?;
                if home != shard {
                    return Err(RuntimeError::CrossShard {
                        machine: id,
                        home,
                        used_from: shard,
                    });
                }
                Ok(Value::Machine(local))
            }
            other => Ok(other),
        }
    }

    fn queued_total(&self) -> usize {
        self.shards.iter().map(Shard::queued).sum()
    }

    /// True once every injection has been delivered: no armed timers, no
    /// credits out (an envelope holds one from before it is queued until
    /// it is taken), no batch mid-run. Read order matters — work moves
    /// heap→inbox (credit taken before pending--) and inbox→worker
    /// (active++ before the credits' `SeqCst` release), so reading
    /// pending, then the credits, then active (`Acquire`: it sees the
    /// increment once the credit is seen back) never misses an event.
    fn drained(&self) -> bool {
        self.timers.pending() == 0
            && self.queued_total() == 0
            && self.active.load(Ordering::Acquire) == 0
    }

    /// Moves due timers into their shards' inboxes (see [`Timers::sweep`]).
    /// No stop flag: armed timers still deliver during shutdown.
    fn sweep_timers(&self) {
        self.timers.sweep(|i, mut env| {
            let shard = &self.shards[i];
            env.at = self.record_latency.then(Instant::now);
            let refused = shard.try_push(env, None);
            match refused.expect("only a stop flag refuses a push") {
                None => {
                    shard.counters.timer_fired.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Some(env) if self.overflow == OverflowPolicy::DropNewest => {
                    shard.note_dropped(env.local);
                    None
                }
                // No room under Block/Fail: stays armed, key untouched.
                refused => refused,
            }
        });
    }

    fn record_error(&self, e: RuntimeError) {
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }
}

/// One round of a worker's search for work: its own shard first, then
/// the others, rotated by worker index. Takes the shard's token (a
/// session on its runtime), then a batch from the front of its inbox,
/// and delivers the batch in order; false if nothing was waiting. On its
/// own shard the worker waits for the token. It steals only from a shard
/// whose token is free: a batch taken while the shard's own worker runs
/// would only queue behind it.
fn work_round(inner: &ExecInner, me: usize, batch: &mut Vec<Envelope>) -> bool {
    let n = inner.shards.len();
    for k in 0..n {
        let shard_idx = (me + k) % n;
        let shard = &inner.shards[shard_idx];
        // No credit out: nothing in the inbox, nor about to be.
        if shard.queued() == 0 {
            continue;
        }
        let thief = k > 0;
        let session = if thief {
            shard.runtime.try_session()
        } else {
            Some(shard.runtime.session())
        };
        let Some(mut session) = session else { continue };
        // Before any envelope is taken, see `ExecInner::drained`.
        inner.active.fetch_add(1, Ordering::AcqRel);
        shard.take_batch(batch, inner.quantum);
        let taken = batch.len() as u64;
        let mut failed = 0;
        for env in batch.drain(..) {
            match session.deliver(env.local, env.event, env.payload) {
                Ok(()) => {
                    if let Some(at) = env.at {
                        shard.latency.observe(at.elapsed().as_nanos() as u64);
                    }
                }
                Err(e) => {
                    // A failed machine must not stall delivery to healthy
                    // ones: remember the first error, keep delivering.
                    failed += 1;
                    inner.record_error(e);
                }
            }
        }
        drop(session);
        if taken > 0 {
            let counters = &shard.counters;
            counters.batches.fetch_add(1, Ordering::Relaxed);
            counters
                .delivered
                .fetch_add(taken - failed, Ordering::Relaxed);
            counters.failed.fetch_add(failed, Ordering::Relaxed);
            if thief {
                let steals = &inner.shards[me].counters.steals;
                steals.fetch_add(1, Ordering::Relaxed);
            }
            if inner.telemetry.enabled() {
                inner
                    .telemetry
                    .gauge(shard_idx as u32, "shard_queue_depth", shard.queued() as i64);
                if let Some(metrics) = inner.telemetry.metrics() {
                    metrics.counter("exec.batches").inc();
                    metrics.counter("exec.delivered").add(taken);
                    metrics
                        .gauge("exec.queue.depth")
                        .set(inner.queued_total() as u64);
                }
            }
        }
        inner.active.fetch_sub(1, Ordering::AcqRel);
        if taken > 0 {
            return true;
        }
    }
    false
}

/// A worker: sweep the timers (outside any token hold — lock order
/// timers → inbox | gate), then one round; spin, park or exit.
fn worker_loop(inner: &ExecInner, me: usize) {
    let mut batch = Vec::new();
    let mut spins = 0;
    loop {
        inner.sweep_timers();
        if work_round(inner, me, &mut batch) {
            spins = SPIN_ROUNDS;
        } else if spins > 0 {
            spins -= 1;
            std::thread::yield_now();
        } else if inner.stop.load(Ordering::SeqCst) && inner.drained() {
            break;
        } else {
            inner.shards[me].park(PARK);
        }
    }
}

/// A sharded multi-threaded executor over P machine runtimes.
///
/// Windows calls into a driver from many contexts — application
/// requests, interrupts, deferred procedure calls (§4): this is that
/// interface code injecting from many threads, each delivery one
/// run-to-completion `SMAddEvent`.
///
/// # Examples
///
/// ```
/// let src = r#"
///     event inc;
///     machine Counter {
///         var n : int;
///         state Run { on inc do bump; }
///         action bump { n := n + 1; }
///     }
///     main Counter();
/// "#;
/// let program = p_parser::parse(src).unwrap();
/// let exec = p_runtime::Executor::builder(&program).unwrap().shards(2).start();
/// let ids: Vec<_> = (0..4)
///     .map(|_| exec.create_machine("Counter", &[("n", p_semantics::Value::Int(0))]).unwrap())
///     .collect();
/// for &id in &ids {
///     exec.inject(p_runtime::Injection::new(id, "inc", p_semantics::Value::Null)).unwrap();
/// }
/// let report = exec.shutdown().unwrap();
/// assert_eq!(report.delivered, 4);
/// ```
pub struct Executor {
    inner: Arc<ExecInner>,
    /// Empty once shut down: joined, or detached after a timeout.
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("shards", &self.inner.shards.len())
            .field("queued", &self.inner.queued_total())
            .finish()
    }
}

impl Executor {
    /// Checks `program`, erases its ghost parts, lowers the result and
    /// returns a builder (mirroring [`Runtime::builder`]).
    ///
    /// # Errors
    ///
    /// Fails if the program is rejected by the static checker, has no
    /// real machines, or does not lower.
    pub fn builder(program: &Program) -> Result<ExecutorBuilder, RuntimeError> {
        p_typecheck::check(program)?;
        let erased = p_typecheck::erase(program)?;
        Ok(ExecutorBuilder::new(lower(&erased)?))
    }

    /// Builder over an already-erased, lowered program.
    pub fn from_lowered(program: LoweredProgram) -> ExecutorBuilder {
        ExecutorBuilder::new(program)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The runtime owning shard `shard`'s machines.
    pub fn shard_runtime(&self, shard: usize) -> Option<&Runtime> {
        self.inner.shards.get(shard).map(|s| &s.runtime)
    }

    /// The `(shard, shard-local id)` pair a global machine id routes to.
    /// Together with a cloned [`Executor::shard_runtime`] handle this
    /// lets callers inspect machine state after the executor has shut
    /// down.
    pub fn locate(&self, id: MachineId) -> Option<(usize, MachineId)> {
        self.inner.resolve(id).ok()
    }

    /// Creates a machine on the least-recently-used shard (round-robin)
    /// and returns its global id.
    ///
    /// # Errors
    ///
    /// As [`Runtime::create_machine`], plus
    /// [`RuntimeError::CrossShard`] if an initializer references a
    /// machine on a different shard.
    pub fn create_machine(
        &self,
        type_name: &str,
        inits: &[(&str, Value)],
    ) -> Result<MachineId, RuntimeError> {
        let n = self.inner.shards.len();
        let shard = self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        self.create_machine_on(shard, type_name, inits)
    }

    /// Creates a machine on a specific shard. Machines that reference
    /// each other in-program (id-typed variables, `send` targets) must
    /// be co-located this way.
    ///
    /// # Errors
    ///
    /// As [`Executor::create_machine`]; unknown shard indices report
    /// [`RuntimeError::UnknownName`].
    pub fn create_machine_on(
        &self,
        shard: usize,
        type_name: &str,
        inits: &[(&str, Value)],
    ) -> Result<MachineId, RuntimeError> {
        let inner = &self.inner;
        if shard >= inner.shards.len() {
            return Err(RuntimeError::UnknownName {
                kind: "shard",
                name: shard.to_string(),
            });
        }
        let mut translated: Vec<(&str, Value)> = Vec::with_capacity(inits.len());
        for (name, value) in inits {
            translated.push((name, inner.translate_payload(*value, shard)?));
        }
        let local = inner.shards[shard]
            .runtime
            .create_machine(type_name, &translated)?;
        let global = inner.next_global.fetch_add(1, Ordering::Relaxed);
        let route = (shard as u64 + 1) << 32 | u64::from(local.0);
        let slot = inner.routes.slot(global as usize);
        slot.store(route, Ordering::Release);
        // Pre-size the depth table so first injection takes the read path.
        let _ = inner.shards[shard].depth(local);
        Ok(MachineId(global))
    }

    /// Queues one event for asynchronous delivery. A target at its
    /// `mailbox_capacity` (or an exhausted credit budget) is handled per
    /// the executor's
    /// [`OverflowPolicy`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PumpStopped`] after shutdown has begun;
    /// [`RuntimeError::QueueFull`] under the `Fail` policy;
    /// [`RuntimeError::NoSuchMachine`] / [`RuntimeError::CrossShard`]
    /// for unroutable targets or payloads, and
    /// [`RuntimeError::UnknownName`] for an event the program does not
    /// declare — all three before anything is queued.
    pub fn inject(&self, injection: Injection) -> Result<(), RuntimeError> {
        let inner = &self.inner;
        let (shard, env) = inner.route(injection)?;
        inner.shards[shard].push(env, inner.overflow, None, &inner.stop)
    }

    /// Queues one event, waiting at most `deadline` for space regardless
    /// of the configured overflow policy: the bounded wait, woken the
    /// moment a worker frees room.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::QueueFull`] if the deadline expires; otherwise as
    /// [`Executor::inject`].
    pub fn try_inject(&self, injection: Injection, deadline: Duration) -> Result<(), RuntimeError> {
        let inner = &self.inner;
        let (shard, env) = inner.route(injection)?;
        let deadline = Some(Instant::now() + deadline);
        inner.shards[shard].push(env, OverflowPolicy::Block, deadline, &inner.stop)
    }

    /// Arms a delayed injection: once `delay` has elapsed, the next
    /// worker sweep (parked workers sweep at least every 500 µs) moves it
    /// into its shard's inbox. Delayed sends to one machine fire in deadline
    /// order (arm order breaking ties), even when backpressure postpones
    /// actual delivery.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PumpStopped`] after shutdown has begun; routing
    /// errors as [`Executor::inject`].
    pub fn inject_after(&self, injection: Injection, delay: Duration) -> Result<(), RuntimeError> {
        let inner = &self.inner;
        let (shard, env) = inner.route(injection)?;
        inner.timers.arm(shard, env, delay, &inner.stop)
    }

    /// Injections for machine `id` still waiting in its shard's inbox
    /// (one atomic read; no locks). `None` for unroutable ids.
    pub fn queue_len(&self, id: MachineId) -> Option<usize> {
        let (shard, local) = self.inner.resolve(id).ok()?;
        Some(self.inner.shards[shard].depth(local).load(Ordering::SeqCst))
    }

    /// Supervision status of machine `id` (see
    /// [`Runtime::machine_status`]).
    pub fn machine_status(&self, id: MachineId) -> Option<MachineStatus> {
        let (shard, local) = self.inner.resolve(id).ok()?;
        self.inner.shards[shard].runtime.machine_status(local)
    }

    /// Reads a machine variable by name (introspection; machine-id
    /// values come back in the owning shard's local id space).
    pub fn read_var(&self, id: MachineId, name: &str) -> Option<Value> {
        let (shard, local) = self.inner.resolve(id).ok()?;
        self.inner.shards[shard].runtime.read_var(local, name)
    }

    /// The source name of machine `id`'s current control state.
    pub fn current_state(&self, id: MachineId) -> Option<String> {
        let (shard, local) = self.inner.resolve(id).ok()?;
        self.inner.shards[shard].runtime.current_state(local)
    }

    /// Events accepted across all shard runtimes.
    pub fn events_processed(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.runtime.events_processed())
            .sum()
    }

    /// Counter snapshot: totals plus per-shard queue depths, credits,
    /// steal/batch/timer counters.
    pub fn stats(&self) -> ExecStats {
        let inner = &self.inner;
        let shards: Vec<ShardStats> = inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                machines: s.machine_count(),
                queued: s.queued() as u64,
                credits_free: s.credits_free() as u64,
                delivered: s.counters.delivered.load(Ordering::Relaxed),
                failed: s.counters.failed.load(Ordering::Relaxed),
                dropped: s.counters.dropped.load(Ordering::Relaxed),
                steals: s.counters.steals.load(Ordering::Relaxed),
                batches: s.counters.batches.load(Ordering::Relaxed),
                timer_fired: s.counters.timer_fired.load(Ordering::Relaxed),
                max_mailbox_depth: s.counters.max_depth.load(Ordering::Relaxed),
            })
            .collect();
        ExecStats {
            delivered: shards.iter().map(|s| s.delivered).sum(),
            failed: shards.iter().map(|s| s.failed).sum(),
            dropped: shards.iter().map(|s| s.dropped).sum(),
            steals: shards.iter().map(|s| s.steals).sum(),
            batches: shards.iter().map(|s| s.batches).sum(),
            queued: shards.iter().map(|s| s.queued).sum(),
            timer_scheduled: inner.timers.armed_total(),
            timer_pending: inner.timers.pending() as u64,
            timer_fired: shards.iter().map(|s| s.timer_fired).sum(),
            shards,
        }
    }

    /// Waits until every accepted injection has been delivered — no armed
    /// timer, no envelope queued, no batch mid-run — without stopping
    /// intake, for at most `deadline`; false if time ran out first. What
    /// other threads inject meanwhile is theirs to account for.
    pub fn quiesce(&self, deadline: Duration) -> bool {
        self.wait_drained(Some(Instant::now() + deadline))
    }

    /// Polls [`ExecInner::drained`], until `end` if one is given; false
    /// if time ran out first.
    fn wait_drained(&self, end: Option<Instant>) -> bool {
        while !self.inner.drained() {
            if end.is_some_and(|end| Instant::now() >= end) {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Stops intake and waits for the drain, until `end` if one is given;
    /// false if time ran out first.
    fn stop_and_drain(&self, end: Option<Instant>) -> bool {
        self.inner.stop.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            shard.wake_producers();
        }
        self.inner.timers.barrier();
        self.wait_drained(end)
    }

    /// Joins the workers (which empties `workers`: nothing is left for
    /// `Drop`) and returns the report.
    fn finish(&mut self) -> Result<ExecReport, RuntimeError> {
        for shard in &self.inner.shards {
            shard.wake_worker();
        }
        for thread in self.workers.drain(..) {
            if thread.join().is_err() {
                return Err(RuntimeError::PumpPanicked);
            }
        }
        if let Some(e) = self.inner.first_error.lock().take() {
            return Err(e);
        }
        let stats = self.stats();
        let latency = Histogram::default();
        for shard in &self.inner.shards {
            latency.absorb(&shard.latency);
        }
        Ok(ExecReport {
            delivered: stats.delivered,
            stats,
            latency,
        })
    }

    /// Stops accepting injections, waits for every queued envelope and
    /// armed timer to deliver, joins the workers, and returns the final
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first machine error any shard encountered, or
    /// [`RuntimeError::PumpPanicked`] if a worker thread died.
    pub fn shutdown(mut self) -> Result<ExecReport, RuntimeError> {
        self.stop_and_drain(None);
        self.finish()
    }

    /// Like [`Executor::shutdown`], but waits at most `deadline` for the
    /// drain.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShutdownTimeout`] (carrying the in-flight count)
    /// if the deadline expires — the workers are detached and keep
    /// draining in the background; otherwise as [`Executor::shutdown`].
    pub fn shutdown_with_deadline(
        mut self,
        deadline: Duration,
    ) -> Result<ExecReport, RuntimeError> {
        if self.stop_and_drain(Some(Instant::now() + deadline)) {
            return self.finish();
        }
        let inner = &self.inner;
        let pending =
            inner.queued_total() + inner.timers.pending() + inner.active.load(Ordering::Acquire);
        self.workers.clear();
        Err(RuntimeError::ShutdownTimeout {
            pending: (pending as u64).max(1),
        })
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Stop intake, give the drain a short grace period, then join —
        // a silently detached worker would leak the thread and lose any
        // recorded machine error.
        if self.stop_and_drain(Some(Instant::now() + Duration::from_millis(200))) {
            for thread in self.workers.drain(..) {
                let _ = thread.join();
            }
            if let Some(e) = self.inner.first_error.lock().take() {
                eprintln!("Executor dropped with an unobserved machine error: {e}");
            }
        }
        // Not drained within the grace period: detach. The workers keep
        // draining and exit once their queues empty.
    }
}
