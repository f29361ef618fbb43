//! Shard-local executor state: one bounded FIFO inbox per shard,
//! per-machine depth counters, and credit-based injection backpressure.
//!
//! A shard owns one [`Runtime`] (its own machines — shards never share a
//! machine table, which is what makes them parallel) and one [`Inbox`]:
//! every envelope for any of its machines enters at the back, under a
//! shard-wide credit budget and a per-machine depth bound, and leaves
//! from the front in a batch, taken by whichever worker holds the
//! shard's token (the runtime's lock). One hand-off per injected event:
//! the inbox is the only structure a producer and a worker both write.
//! Two invariants carry the executor's correctness:
//!
//! * **Batches leave the front, only under the token.** The worker that
//!   holds the token takes the oldest envelopes and delivers them in
//!   order before it gives the token up, so the shard delivers in the
//!   order it accepted — per-machine FIFO and run-to-completion follow,
//!   whichever worker (the shard's own or a thief) holds the token.
//! * **Credit-on-take.** An injection credit is consumed before an
//!   envelope enters the inbox and returned when a worker *takes* it
//!   (not when its run completes): a producer may claim the freed slot
//!   while the batch is still being delivered. The credits out are thus
//!   also the count of envelopes queued or being deposited.
//!
//! Nobody is woken by a system call unless it sleeps: a producer wakes
//! the worker only when its `parked` flag is set, a worker wakes
//! producers only when one has registered as blocked, and then with
//! hysteresis (DESIGN.md §16: the protocol, and why no wake-up is lost).
//! Under the token a worker takes the inbox lock or the producers'
//! `gate`, one at a time; producers never take the token.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p_semantics::{EventId, MachineId, Value};
use p_telemetry::Histogram;

use crate::slots::SlotTable;
use crate::{OverflowPolicy, Runtime, RuntimeError};

/// One event waiting in the inbox.
pub(crate) struct Envelope {
    /// Target machine, in the owning shard's local id space.
    pub local: MachineId,
    /// The event, resolved by the injecting call.
    pub event: EventId,
    /// Event payload, already translated into the shard's id space.
    pub payload: Value,
    /// When the injection was accepted, if the executor records latency.
    pub at: Option<Instant>,
}

/// Monotonic per-shard counters, updated with relaxed atomics.
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub delivered: AtomicU64,
    pub failed: AtomicU64,
    pub dropped: AtomicU64,
    pub steals: AtomicU64,
    pub batches: AtomicU64,
    pub timer_fired: AtomicU64,
    /// High-water mark over every per-machine depth seen on this shard.
    pub max_depth: AtomicU64,
}

/// Envelopes awaiting a worker, oldest first, and whether this shard's
/// worker sleeps.
struct Inbox {
    queue: VecDeque<Envelope>,
    /// Set by the worker before it waits on `wake`; whoever queues work
    /// and finds it set clears it and notifies once.
    parked: bool,
}

/// One executor shard: a runtime, its inbox, and its backpressure state.
pub(crate) struct Shard {
    /// The runtime owning this shard's machines; its lock is the shard's
    /// token. Every delivery goes through its `Session::deliver`, so
    /// run-to-completion and the supervision model (quarantine, halt,
    /// typed errors) apply per shard exactly as they do for a standalone
    /// runtime.
    pub runtime: Runtime,
    inbox: Mutex<Inbox>,
    /// Worker parking spot, paired with `inbox`.
    wake: Condvar,
    /// Injection credits out: envelopes in the inbox or being deposited
    /// (the shard-wide bound on queued events, and what idle workers
    /// poll instead of taking the inbox lock).
    out: AtomicUsize,
    credit_cap: usize,
    /// Envelopes in the inbox (or being deposited) per target machine.
    depths: SlotTable<AtomicUsize>,
    /// Bound on one machine's depth.
    capacity: usize,
    /// Producers blocked in [`Shard::push`], for a credit or for room.
    waiters: AtomicUsize,
    /// Wake-up epoch, paired with `space`: a producer that read it before
    /// its last failed attempt never sleeps through a wake-up.
    gate: Mutex<u64>,
    space: Condvar,
    pub counters: ShardCounters,
    /// Injection-to-completion latencies in nanoseconds, if recorded.
    pub latency: Histogram,
}

impl Shard {
    pub(crate) fn new(runtime: Runtime, capacity: usize, credits: usize) -> Shard {
        Shard {
            runtime,
            inbox: Mutex::new(Inbox {
                queue: VecDeque::new(),
                parked: false,
            }),
            wake: Condvar::new(),
            out: AtomicUsize::new(0),
            credit_cap: credits.max(1),
            depths: SlotTable::new(),
            capacity: capacity.max(1),
            waiters: AtomicUsize::new(0),
            gate: Mutex::new(0),
            space: Condvar::new(),
            counters: ShardCounters::default(),
            latency: Histogram::default(),
        }
    }

    /// Number of machines with a depth counter on this shard.
    pub(crate) fn machine_count(&self) -> usize {
        self.depths.len()
    }

    /// Envelopes queued in this shard's inbox or being deposited: the
    /// credits out.
    pub(crate) fn queued(&self) -> usize {
        self.out.load(Ordering::SeqCst)
    }

    /// Injection credits currently unclaimed.
    pub(crate) fn credits_free(&self) -> usize {
        self.credit_cap - self.queued()
    }

    /// The depth counter of `local`, growing the table on demand.
    pub(crate) fn depth(&self, local: MachineId) -> &AtomicUsize {
        self.depths.slot(local.0 as usize)
    }

    /// Adds one to `counter` unless it has reached `bound`; the new count.
    fn take_below(counter: &AtomicUsize, bound: usize) -> Option<usize> {
        let below = |n: usize| (n < bound).then_some(n + 1);
        let before = counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, below);
        before.ok().map(|n| n + 1)
    }

    /// Returns `n` credits, waking blocked producers when the free count
    /// climbs through half the budget (at the first free credit, a
    /// saturated producer would sleep and wake once per event). A
    /// producer blocks only after seeing none free, so the count passes
    /// the mark after it registered; `SeqCst` makes one side see the other.
    fn release_credits(&self, n: usize) {
        let free = self.credit_cap - self.out.fetch_sub(n, Ordering::SeqCst);
        let mark = (self.credit_cap / 2).max(1);
        if free < mark && mark <= free + n && self.waiters.load(Ordering::SeqCst) > 0 {
            self.wake_producers();
        }
    }

    /// Wakes every blocked producer to try again (or, at shutdown, to
    /// see the stop flag).
    pub(crate) fn wake_producers(&self) {
        *self.gate.lock() += 1;
        self.space.notify_all();
    }

    /// Deposits `env` if a credit is free and its machine's depth is
    /// under the bound, hands it back otherwise; refuses it once `stop`
    /// is raised (the timer sweep, which still delivers during shutdown,
    /// passes none).
    pub(crate) fn try_push(
        &self,
        env: Envelope,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<Envelope>, RuntimeError> {
        let stopped = || stop.is_some_and(|flag| flag.load(Ordering::SeqCst));
        // The stop-flag barrier: the credit is taken before the flag is
        // read, and shutdown raises the flag before it reads the credits
        // (all `SeqCst`): either this producer sees the flag and backs
        // out, or shutdown sees the credit out and waits for the envelope.
        let credit = Shard::take_below(&self.out, self.credit_cap).is_some();
        if stopped() {
            if credit {
                self.release_credits(1);
            }
            return Err(RuntimeError::PumpStopped);
        }
        if !credit {
            return Ok(Some(env));
        }
        let Some(depth) = Shard::take_below(self.depth(env.local), self.capacity) else {
            self.release_credits(1);
            return Ok(Some(env));
        };
        if depth as u64 > self.counters.max_depth.load(Ordering::Relaxed) {
            self.counters
                .max_depth
                .fetch_max(depth as u64, Ordering::Relaxed);
        }
        // The worker sets `parked` and finds the queue empty under the
        // lock this push takes: the push comes first and is seen, or
        // sees the flag.
        let wake = {
            let mut inbox = self.inbox.lock();
            inbox.queue.push_back(env);
            std::mem::take(&mut inbox.parked)
        };
        if wake {
            self.wake.notify_one();
        }
        Ok(None)
    }

    /// Delivers `env` into the inbox under `policy`.
    ///
    /// `Block` waits for a credit and room under its machine's bound
    /// (until `deadline` when given, surfacing `QueueFull` on expiry);
    /// `DropNewest` counts the overflow against the target machine and
    /// reports success; `Fail` returns `QueueFull` immediately. A raised
    /// stop flag aborts the wait with `PumpStopped`.
    pub(crate) fn push(
        &self,
        env: Envelope,
        policy: OverflowPolicy,
        deadline: Option<Instant>,
        stop: &AtomicBool,
    ) -> Result<(), RuntimeError> {
        let Some(mut env) = self.try_push(env, Some(stop))? else {
            return Ok(());
        };
        match policy {
            OverflowPolicy::Block => {}
            OverflowPolicy::DropNewest => {
                self.note_dropped(env.local);
                return Ok(());
            }
            OverflowPolicy::Fail => return Err(RuntimeError::QueueFull),
        }
        loop {
            // Register, note the wake-up epoch, then try again: whatever
            // frees a credit or a slot after this attempt sees the
            // registration and bumps the epoch.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let ticket = *self.gate.lock();
            let attempt = self.try_push(env, Some(stop));
            let mut timed_out = false;
            if let Ok(Some(_)) = attempt {
                let mut epoch = self.gate.lock();
                while *epoch == ticket && !timed_out {
                    match deadline {
                        None => self.space.wait(&mut epoch),
                        Some(d) => timed_out = self.space.wait_until(&mut epoch, d).timed_out(),
                    }
                }
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            match attempt? {
                None => return Ok(()),
                Some(_) if timed_out => return Err(RuntimeError::QueueFull),
                Some(back) => env = back,
            }
        }
    }

    /// Counts an envelope for `local` dropped by the `DropNewest` policy.
    pub(crate) fn note_dropped(&self, local: MachineId) {
        self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        self.runtime.note_dropped(local);
    }

    /// Moves up to `max` envelopes, oldest first, from the inbox into
    /// `batch` and returns their credits. The caller holds the shard's
    /// token and delivers the batch in order before giving it up. A take
    /// that makes room under a full machine's bound wakes the blocked
    /// producers: one that found it full registered before it looked.
    pub(crate) fn take_batch(&self, batch: &mut Vec<Envelope>, max: usize) {
        {
            let mut inbox = self.inbox.lock();
            let n = max.min(inbox.queue.len());
            batch.extend(inbox.queue.drain(..n));
        }
        if batch.is_empty() {
            return;
        }
        let mut made_room = false;
        for env in batch.iter() {
            let depth = self.depth(env.local).fetch_sub(1, Ordering::SeqCst);
            made_room |= depth >= self.capacity;
        }
        self.release_credits(batch.len());
        if made_room && self.waiters.load(Ordering::SeqCst) > 0 {
            self.wake_producers();
        }
    }

    /// Parks the calling worker until an envelope arrives or `timeout`
    /// elapses (short: work on other shards, and the stop flag).
    pub(crate) fn park(&self, timeout: Duration) {
        let mut inbox = self.inbox.lock();
        if inbox.queue.is_empty() {
            inbox.parked = true;
            self.wake.wait_for(&mut inbox, timeout);
            inbox.parked = false;
        }
    }

    /// Wakes the shard's worker (used at shutdown).
    pub(crate) fn wake_worker(&self) {
        let _inbox = self.inbox.lock();
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard over `machines` counters with no worker attached, and a
    /// maker of envelopes for them.
    fn bare_shard(
        machines: usize,
        capacity: usize,
        credits: usize,
    ) -> (Shard, impl Fn(usize) -> Envelope) {
        let program = p_parser::parse(
            "event inc; machine Counter { var n : int; state Run { on inc do bump; }
             action bump { n := n + 1; } } main Counter();",
        )
        .unwrap();
        let runtime = Runtime::builder(&program).unwrap().start();
        let locals: Vec<MachineId> = (0..machines)
            .map(|_| runtime.create_machine("Counter", &[]).unwrap())
            .collect();
        let event = runtime.event_id("inc").unwrap();
        let envelope = move |k: usize| Envelope {
            local: locals[k],
            event,
            payload: Value::Null,
            at: None,
        };
        (Shard::new(runtime, capacity, credits), envelope)
    }

    /// The worker wake-up protocol with the park timeout taken away: the
    /// worker parks for an hour whenever the inbox is empty, and every
    /// producer waits for its envelope to be taken before it pushes the
    /// next, so nearly every push meets a worker that is parked or about
    /// to be. One wake-up lost between `try_push` and `park` leaves the
    /// worker asleep for good; the watchdog then fails the test instead
    /// of letting it hang.
    #[test]
    fn a_parking_worker_is_woken_for_every_push() {
        const PRODUCERS: usize = 4;
        const EACH: usize = 5_000;
        let (shard, envelope) = bare_shard(PRODUCERS, 4, 64);
        let stop = AtomicBool::new(false);
        let gave_up = AtomicBool::new(false);
        let taken = AtomicUsize::new(0);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut batch = Vec::new();
                while taken.load(Ordering::SeqCst) < PRODUCERS * EACH
                    && !gave_up.load(Ordering::SeqCst)
                {
                    shard.take_batch(&mut batch, 16);
                    if batch.is_empty() {
                        shard.park(Duration::from_secs(3600));
                    }
                    taken.fetch_add(batch.drain(..).count(), Ordering::SeqCst);
                }
                done.send(()).unwrap();
            });
            for p in 0..PRODUCERS {
                let (shard, envelope, stop, gave_up) = (&shard, &envelope, &stop, &gave_up);
                scope.spawn(move || {
                    for _ in 0..EACH {
                        shard
                            .push(envelope(p), OverflowPolicy::Block, None, stop)
                            .unwrap();
                        while shard.depth(envelope(p).local).load(Ordering::SeqCst) > 0 {
                            if gave_up.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            if finished.recv_timeout(Duration::from_secs(60)).is_err() {
                gave_up.store(true, Ordering::SeqCst);
                while finished.recv_timeout(Duration::from_millis(10)).is_err() {
                    shard.wake_worker();
                }
            }
        });
        assert!(
            !gave_up.load(Ordering::SeqCst),
            "the worker slept through a push: {} of {} envelopes taken",
            taken.load(Ordering::SeqCst),
            PRODUCERS * EACH
        );
        assert_eq!(shard.queued(), 0);
    }

    /// `Executor::shutdown` takes the executor by value, so safe code is
    /// never inside `inject` when it runs; the stop-flag protocol is
    /// checked here, where a shard can be driven directly.
    #[test]
    fn a_producer_blocked_when_the_stop_flag_rises_is_woken_and_refused() {
        let (shard, envelope) = bare_shard(1, 4, 1);
        let stop = AtomicBool::new(false);
        let push = || shard.push(envelope(0), OverflowPolicy::Block, None, &stop);
        // No worker takes a batch: the first push keeps the only credit.
        push().unwrap();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(push);
            while shard.waiters.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::SeqCst);
            shard.wake_producers();
            assert!(matches!(
                blocked.join().unwrap(),
                Err(RuntimeError::PumpStopped)
            ));
        });
        assert!(matches!(push(), Err(RuntimeError::PumpStopped)));
        assert_eq!(shard.queued(), 1, "nothing entered after the flag rose");
        let mut batch = Vec::new();
        shard.take_batch(&mut batch, 16);
        assert_eq!((batch.len(), shard.queued()), (1, 0));
    }

    /// Conservation under a multi-producer storm, for each policy, with
    /// bounds tight enough to overflow: every attempted push is taken by
    /// the worker, counted dropped, or refused — exactly one of the
    /// three — and afterwards no credit is out and every depth is zero.
    #[test]
    fn a_storm_conserves_envelopes_credits_and_depths() {
        const PRODUCERS: usize = 4;
        const MACHINES: usize = 3;
        const EACH: usize = 4_000;
        for policy in [
            OverflowPolicy::Block,
            OverflowPolicy::DropNewest,
            OverflowPolicy::Fail,
        ] {
            let (shard, envelope) = bare_shard(MACHINES, 2, 4);
            let stop = AtomicBool::new(false);
            let producing = AtomicUsize::new(PRODUCERS);
            let refused = AtomicUsize::new(0);
            let mut taken = 0;
            std::thread::scope(|scope| {
                for p in 0..PRODUCERS {
                    let (shard, envelope, stop) = (&shard, &envelope, &stop);
                    let (producing, refused) = (&producing, &refused);
                    scope.spawn(move || {
                        for i in 0..EACH {
                            match shard.push(envelope((p + i) % MACHINES), policy, None, stop) {
                                Ok(()) => {}
                                Err(RuntimeError::QueueFull) => {
                                    refused.fetch_add(1, Ordering::SeqCst);
                                }
                                Err(e) => panic!("unexpected refusal: {e}"),
                            }
                        }
                        producing.fetch_sub(1, Ordering::SeqCst);
                        shard.wake_worker();
                    });
                }
                // The worker, on this thread. `producing` is read before
                // the take that finds nothing, so nothing is pushed after.
                let mut batch = Vec::new();
                loop {
                    let last = producing.load(Ordering::SeqCst) == 0;
                    shard.take_batch(&mut batch, 3);
                    match (batch.is_empty(), last) {
                        (true, true) => break,
                        (true, false) => shard.park(Duration::from_millis(1)),
                        (false, _) => taken += batch.drain(..).count(),
                    }
                }
            });
            let dropped = shard.counters.dropped.load(Ordering::Relaxed) as usize;
            let refused = refused.load(Ordering::SeqCst);
            assert_eq!(
                taken + dropped + refused,
                PRODUCERS * EACH,
                "{policy:?}: {taken} taken, {dropped} dropped, {refused} refused"
            );
            match policy {
                OverflowPolicy::Block => assert_eq!((dropped, refused), (0, 0)),
                OverflowPolicy::DropNewest => assert_eq!(refused, 0),
                OverflowPolicy::Fail => assert_eq!(dropped, 0),
            }
            assert_eq!(shard.queued(), 0, "{policy:?}: a credit is still out");
            assert_eq!(shard.credits_free(), 4);
            for k in 0..MACHINES {
                let depth = shard.depth(envelope(k).local).load(Ordering::SeqCst);
                assert_eq!(depth, 0, "{policy:?}: machine {k}");
            }
            let max = shard.counters.max_depth.load(Ordering::Relaxed);
            assert!((1..=2).contains(&max), "{policy:?}: max depth {max}");
        }
    }
}
