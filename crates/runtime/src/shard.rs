//! Shard-local executor state: per-machine bounded mailboxes, the ready
//! queue, and credit-based injection backpressure.
//!
//! A shard owns one [`Runtime`] (its own configuration — shards never
//! share a machine table, which is what makes them parallel) plus one
//! bounded [`Mailbox`] per local machine. Producers deposit envelopes
//! under a shard-wide credit budget; workers drain mailboxes in batches.
//! Two invariants carry the executor's correctness:
//!
//! * **Single drainer.** A machine's `scheduled` flag is set by whichever
//!   producer transitions its mailbox from unscheduled to scheduled, and
//!   cleared only by the worker that drained it. At most one worker ever
//!   pops a given mailbox at a time, so per-machine FIFO order and
//!   run-to-completion are preserved no matter how many workers steal.
//! * **Credit-on-pop.** An injection credit is consumed when an envelope
//!   enters a mailbox and released when a worker *pops* it (not when the
//!   run completes), mirroring the slot semantics of the bounded channel
//!   this design replaces: a producer may claim the freed slot while the
//!   popped event is still being processed. The credits out are thus
//!   also the count of envelopes queued or being deposited.
//!
//! Nobody is woken by a system call unless it sleeps: a producer wakes
//! the worker only when its `parked` flag is set, a worker wakes
//! producers only when one has registered as blocked, and then with
//! hysteresis (DESIGN.md §16: the protocol, and why no wake-up is lost).
//! The only lock held while another is taken is the configuration lock a
//! worker holds around its batches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p_semantics::{EventId, MachineId, Value};
use p_telemetry::Histogram;

use crate::slots::SlotTable;
use crate::{OverflowPolicy, Runtime, RuntimeError};

/// One event waiting in a mailbox.
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

/// A per-machine bounded FIFO of pending injections.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    /// Cached `queue.len()`, readable without the queue lock.
    depth: AtomicUsize,
    /// True while the machine sits in a ready queue or a worker is
    /// draining its batch (the single-drainer flag).
    scheduled: AtomicBool,
}

impl Mailbox {
    /// Events currently queued (lock-free snapshot).
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }
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
    /// High-water mark over every mailbox depth seen on this shard.
    pub max_depth: AtomicU64,
}

/// Machines awaiting a worker, and whether this shard's worker sleeps.
struct Ready {
    queue: VecDeque<MachineId>,
    /// Set by the worker before it waits on `wake`; whoever queues work
    /// and finds it set clears it and notifies once.
    parked: bool,
}

/// One executor shard: a runtime, its mailboxes, and its scheduling state.
pub(crate) struct Shard {
    /// The runtime owning this shard's machines. Every delivery goes
    /// through its `Session::deliver`, so run-to-completion and the
    /// supervision model (quarantine, halt, typed errors) apply per
    /// shard exactly as they do for a standalone runtime.
    pub runtime: Runtime,
    mailboxes: SlotTable<Mailbox>,
    ready: Mutex<Ready>,
    /// `ready.queue.len()`, stored under the `ready` lock: what idle
    /// workers poll instead of taking that lock.
    ready_len: AtomicUsize,
    /// Worker parking spot, paired with `ready`.
    wake: Condvar,
    /// Injection credits remaining (shard-wide bound on queued events).
    credits: AtomicUsize,
    credit_cap: usize,
    /// Producers blocked in [`Shard::push`], for a credit or for room.
    waiters: AtomicUsize,
    /// Wake-up epoch, paired with `space`: a producer that read it before
    /// its last failed attempt never sleeps through a wake-up.
    gate: Mutex<u64>,
    space: Condvar,
    pub counters: ShardCounters,
    /// Injection-to-completion latencies in nanoseconds, if recorded.
    pub latency: Histogram,
    /// Per-mailbox queue bound.
    capacity: usize,
}

impl Shard {
    pub(crate) fn new(runtime: Runtime, capacity: usize, credits: usize) -> Shard {
        Shard {
            runtime,
            mailboxes: SlotTable::new(),
            ready: Mutex::new(Ready {
                queue: VecDeque::new(),
                parked: false,
            }),
            ready_len: AtomicUsize::new(0),
            wake: Condvar::new(),
            credits: AtomicUsize::new(credits.max(1)),
            credit_cap: credits.max(1),
            waiters: AtomicUsize::new(0),
            gate: Mutex::new(0),
            space: Condvar::new(),
            counters: ShardCounters::default(),
            latency: Histogram::default(),
            capacity: capacity.max(1),
        }
    }

    /// Number of machines with a mailbox on this shard.
    pub(crate) fn machine_count(&self) -> usize {
        self.mailboxes.len()
    }

    /// Injection credits currently unclaimed.
    pub(crate) fn credits_free(&self) -> usize {
        self.credits.load(Ordering::SeqCst)
    }

    /// Envelopes queued in this shard's mailboxes or being deposited:
    /// the credits out.
    pub(crate) fn queued(&self) -> usize {
        self.credit_cap - self.credits_free()
    }

    /// The mailbox for `local`, growing the table on demand (machines
    /// created directly on an adopted runtime get theirs lazily).
    pub(crate) fn mailbox(&self, local: MachineId) -> &Mailbox {
        self.mailboxes.slot(local.0 as usize)
    }

    fn take_credit(&self) -> bool {
        self.credits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            .is_ok()
    }

    /// Returns one credit, waking blocked producers when the free count
    /// climbs through half the budget (at the first free credit, a
    /// saturated producer would sleep and wake once per event). A
    /// producer blocks only after seeing none free, so the count passes
    /// the mark after it registered; `SeqCst` makes one side see the other.
    fn release_credit(&self) {
        let free = self.credits.fetch_add(1, Ordering::SeqCst) + 1;
        if free == (self.credit_cap / 2).max(1) && self.waiters.load(Ordering::SeqCst) > 0 {
            self.wake_producers();
        }
    }

    /// Wakes every blocked producer to try again (or, at shutdown, to
    /// see the stop flag).
    pub(crate) fn wake_producers(&self) {
        *self.gate.lock() += 1;
        self.space.notify_all();
    }

    /// Deposits `env` if a credit and a mailbox slot are free, hands it
    /// back otherwise; refuses it once `stop` is raised (the timer
    /// thread, which still delivers during shutdown, passes none).
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
        let credit = self.take_credit();
        if stopped() {
            if credit {
                self.release_credit();
            }
            return Err(RuntimeError::PumpStopped);
        }
        if !credit {
            return Ok(Some(env));
        }
        let local = env.local;
        let mb = self.mailbox(local);
        let mut queue = mb.queue.lock();
        if queue.len() >= self.capacity {
            drop(queue);
            self.release_credit();
            return Ok(Some(env));
        }
        queue.push_back(env);
        let depth = queue.len();
        // `SeqCst`, paired with `reschedule_after_batch`: the depth is
        // stored before `scheduled` is read here, and `scheduled` is
        // cleared before the depth is read there.
        mb.depth.store(depth, Ordering::SeqCst);
        drop(queue);
        if depth as u64 > self.counters.max_depth.load(Ordering::Relaxed) {
            self.counters
                .max_depth
                .fetch_max(depth as u64, Ordering::Relaxed);
        }
        self.schedule(mb, local);
        Ok(None)
    }

    /// Delivers `env` into its mailbox under `policy`.
    ///
    /// `Block` waits for a credit and mailbox space (bounded by
    /// `deadline` when given, surfacing `QueueFull` on expiry);
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
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                self.runtime.note_dropped(env.local);
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

    /// Marks `local` ready if it is not already scheduled.
    fn schedule(&self, mb: &Mailbox, local: MachineId) {
        if !mb.scheduled.swap(true, Ordering::SeqCst) {
            self.make_ready(local);
        }
    }

    /// Queues `local` and wakes this shard's worker if it sleeps. The
    /// worker sets `parked` and finds the queue empty under the lock this
    /// push takes: the push comes first and is seen, or sees the flag.
    fn make_ready(&self, local: MachineId) {
        let wake = {
            let mut ready = self.ready.lock();
            ready.queue.push_back(local);
            self.ready_len.store(ready.queue.len(), Ordering::Release);
            std::mem::take(&mut ready.parked)
        };
        if wake {
            self.wake.notify_one();
        }
    }

    /// Pops one envelope from `mb`, releasing its injection credit. The
    /// pop that makes room in a full mailbox wakes the blocked producers:
    /// one that found it full registered before it looked.
    pub(crate) fn pop_envelope(&self, mb: &Mailbox) -> Option<Envelope> {
        // An empty mailbox ends the batch without its lock; a push this
        // misses is caught by `reschedule_after_batch`.
        if mb.depth() == 0 {
            return None;
        }
        let (env, was_full) = {
            let mut queue = mb.queue.lock();
            let was_full = queue.len() >= self.capacity;
            let env = queue.pop_front()?;
            mb.depth.store(queue.len(), Ordering::SeqCst);
            (env, was_full)
        };
        self.release_credit();
        if was_full && self.waiters.load(Ordering::SeqCst) > 0 {
            self.wake_producers();
        }
        Some(env)
    }

    /// Called by a worker after draining a batch from `local`: requeues
    /// the machine if more work arrived mid-batch (round-robin fairness),
    /// otherwise clears the scheduled flag — then re-checks the depth to
    /// close the race against a push that saw the flag still set.
    pub(crate) fn reschedule_after_batch(&self, mb: &Mailbox, local: MachineId) {
        if mb.depth() > 0 {
            self.make_ready(local);
            return;
        }
        mb.scheduled.store(false, Ordering::SeqCst);
        if mb.depth() > 0 {
            self.schedule(mb, local);
        }
    }

    /// Whether the ready queue holds a machine (what idle workers poll).
    pub(crate) fn has_ready(&self) -> bool {
        self.ready_len.load(Ordering::Acquire) > 0
    }

    /// Moves up to `max` ready machines into `claimed`: from the FIFO end
    /// for the shard's own worker, from the LIFO end for a thief, so the
    /// victim's oldest work stays with its own worker.
    pub(crate) fn claim_ready(&self, claimed: &mut Vec<MachineId>, max: usize, thief: bool) {
        let mut ready = self.ready.lock();
        let end = if thief {
            VecDeque::pop_back
        } else {
            VecDeque::pop_front
        };
        claimed.extend(std::iter::from_fn(|| end(&mut ready.queue)).take(max));
        self.ready_len.store(ready.queue.len(), Ordering::Release);
    }

    /// Parks the calling worker until readied work arrives or `timeout`
    /// elapses (short: work on other shards, and the stop flag).
    pub(crate) fn park(&self, timeout: Duration) {
        let mut ready = self.ready.lock();
        if ready.queue.is_empty() {
            ready.parked = true;
            self.wake.wait_for(&mut ready, timeout);
            ready.parked = false;
        }
    }

    /// Wakes the shard's worker (used at shutdown).
    pub(crate) fn wake_worker(&self) {
        let _ready = self.ready.lock();
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
    /// worker parks for an hour whenever the ready queue is empty, and
    /// every producer waits for its envelope to be popped before it
    /// pushes the next, so nearly every push meets a worker that is
    /// parked or about to be. One wake-up lost between `make_ready` and
    /// `park` leaves the worker asleep for good; the watchdog then fails
    /// the test instead of letting it hang.
    #[test]
    fn a_parking_worker_is_woken_for_every_push() {
        const PRODUCERS: usize = 4;
        const EACH: usize = 5_000;
        let (shard, envelope) = bare_shard(PRODUCERS, 4, 64);
        let stop = AtomicBool::new(false);
        let gave_up = AtomicBool::new(false);
        let popped = AtomicUsize::new(0);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut claimed = Vec::new();
                while popped.load(Ordering::SeqCst) < PRODUCERS * EACH
                    && !gave_up.load(Ordering::SeqCst)
                {
                    shard.claim_ready(&mut claimed, 16, false);
                    if claimed.is_empty() {
                        shard.park(Duration::from_secs(3600));
                    }
                    for local in claimed.drain(..) {
                        let mb = shard.mailbox(local);
                        while shard.pop_envelope(mb).is_some() {
                            popped.fetch_add(1, Ordering::SeqCst);
                        }
                        shard.reschedule_after_batch(mb, local);
                    }
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
                        while shard.mailbox(envelope(p).local).depth() > 0 {
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
            "the worker slept through a push: {} of {} envelopes popped",
            popped.load(Ordering::SeqCst),
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
        // No worker pops: the first push keeps the only credit.
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
    }
}
