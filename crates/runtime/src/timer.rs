//! Hashed timer wheel for delayed injections (`inject_after`).
//!
//! Entries hash into `SLOTS` buckets by deadline tick (`deadline %
//! SLOTS`); the executor's timer thread sweeps due buckets once per tick
//! and moves expired entries into their target shard's inbox through its
//! non-blocking push. Two details matter for ordering under
//! load:
//!
//! * Expired entries are delivered sorted by `(deadline_tick, seq)`, so
//!   two timers armed for the same machine fire in deadline order even
//!   when a coarse tick expires them together.
//! * A refused push re-arms the entry for the *next* tick but keeps its
//!   original `(deadline_tick, seq)` sort key, so backpressure delays a
//!   delivery without ever reordering it past a later-deadline timer.
//!
//! The `pending` count is decremented only after the entry has entered
//! an inbox (or been dropped), and an inbox push takes the shard's credit
//! first — so at every instant `pending` plus the credits out covers all
//! undelivered work, which is what lets workers use "stopped, no pending
//! timers, nothing queued" as their exit condition.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use p_semantics::{EventId, MachineId, Value};

use crate::RuntimeError;

/// Bucket count; power of two so the modulo is a mask.
const SLOTS: usize = 256;

/// One armed timer.
pub(crate) struct TimerEntry {
    /// Tick at which the entry next fires (advanced on re-arm).
    pub fire_tick: u64,
    /// Original deadline tick — the ordering key, preserved across
    /// backpressure re-arms.
    pub deadline_tick: u64,
    /// Arm-order tie-breaker within one tick.
    pub seq: u64,
    /// Target shard index.
    pub shard: usize,
    /// Target machine, shard-local.
    pub local: MachineId,
    /// The event, resolved when the timer was armed.
    pub event: EventId,
    /// Payload, already translated into the shard's id space.
    pub payload: Value,
}

/// The wheel itself. Shared between `inject_after` callers and the
/// executor's timer thread.
pub(crate) struct TimerWheel {
    slots: Vec<Mutex<Vec<TimerEntry>>>,
    tick: Duration,
    start: Instant,
    /// Entries armed but not yet moved into an inbox (or dropped).
    pending: AtomicUsize,
    seq: AtomicU64,
    armed_total: AtomicU64,
    /// Parking spot for the timer thread; `schedule` nudges it. Also the
    /// stop-flag barrier for arming (see [`TimerWheel::schedule`]).
    park: Mutex<()>,
    alarm: Condvar,
}

impl TimerWheel {
    pub(crate) fn new(tick: Duration) -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
            tick: tick.max(Duration::from_micros(100)),
            start: Instant::now(),
            pending: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            armed_total: AtomicU64::new(0),
            park: Mutex::new(()),
            alarm: Condvar::new(),
        }
    }

    /// Elapsed ticks since the wheel was built.
    pub(crate) fn now_tick(&self) -> u64 {
        (self.start.elapsed().as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Entries armed but not yet delivered into an inbox.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Timers armed over the wheel's lifetime.
    pub(crate) fn armed_total(&self) -> u64 {
        self.armed_total.load(Ordering::Relaxed)
    }

    /// Arms a timer `delay` from now. Checks `stop` under the park lock:
    /// the shutdown barrier cycles that lock after raising the flag, so
    /// no timer can be armed once the barrier has passed.
    pub(crate) fn schedule(
        &self,
        shard: usize,
        local: MachineId,
        event: EventId,
        payload: Value,
        delay: Duration,
        stop: &AtomicBool,
    ) -> Result<(), RuntimeError> {
        let _guard = self.park.lock();
        if stop.load(Ordering::SeqCst) {
            return Err(RuntimeError::PumpStopped);
        }
        let now = self.now_tick();
        let tick_ns = self.tick.as_nanos().max(1);
        let ticks = delay.as_nanos().div_ceil(tick_ns) as u64;
        let deadline = now + ticks.max(1);
        let entry = TimerEntry {
            fire_tick: deadline,
            deadline_tick: deadline,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            shard,
            local,
            event,
            payload,
        };
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.armed_total.fetch_add(1, Ordering::Relaxed);
        self.slots[(deadline % SLOTS as u64) as usize]
            .lock()
            .push(entry);
        self.alarm.notify_one();
        Ok(())
    }

    /// Removes every entry due at or before `now_tick`, sorted by
    /// `(deadline_tick, seq)`. Entries stay `pending` until the caller
    /// reports them moved or dropped.
    pub(crate) fn collect_due(&self, now_tick: u64) -> Vec<TimerEntry> {
        let mut due = Vec::new();
        if self.pending() == 0 {
            return due;
        }
        for slot in &self.slots {
            let mut entries = slot.lock();
            let mut i = 0;
            while i < entries.len() {
                if entries[i].fire_tick <= now_tick {
                    due.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        due.sort_by_key(|e| (e.deadline_tick, e.seq));
        due
    }

    /// Puts back an entry whose push was refused, to fire again next
    /// tick. Its `(deadline_tick, seq)` key is untouched, so deadline
    /// order survives the re-arm; it never left `pending`.
    pub(crate) fn rearm(&self, mut entry: TimerEntry, now_tick: u64) {
        entry.fire_tick = now_tick + 1;
        self.slots[(entry.fire_tick % SLOTS as u64) as usize]
            .lock()
            .push(entry);
    }

    /// Reports one collected entry as delivered or dropped.
    pub(crate) fn note_moved(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    /// Parks the timer thread: at tick cadence while timers are armed,
    /// loosely otherwise (an arm or shutdown nudges the alarm).
    pub(crate) fn park_thread(&self) {
        let mut guard = self.park.lock();
        if self.pending() > 0 {
            self.alarm.wait_for(&mut guard, self.tick);
        } else {
            self.alarm.wait_for(&mut guard, Duration::from_millis(50));
        }
    }

    /// Stop-flag barrier: cycling the park
    /// lock after raising the stop flag guarantees no further arming.
    pub(crate) fn barrier(&self) {
        drop(self.park.lock());
        self.alarm.notify_all();
    }
}
