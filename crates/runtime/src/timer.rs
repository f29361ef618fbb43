//! Delayed injections (`inject_after`): one heap of armed timers keyed
//! `(deadline, seq)`, whose top is the next deadline, swept by the shard
//! workers before each round. A refused timer stays armed with its key,
//! and so does every later timer of its shard in that sweep: room freed
//! between two pushes cannot let a later deadline for a machine into the
//! inbox ahead of an earlier one. `pending` drops only once a timer has
//! entered an inbox (which takes a credit first) or been dropped, so
//! `pending` plus the credits out always covers the undelivered work.

use std::cmp::Ordering as Order;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::shard::Envelope;
use crate::RuntimeError;

/// One armed timer.
struct Armed {
    deadline: Instant,
    /// Arm order: breaks deadline ties.
    seq: u64,
    shard: usize,
    env: Envelope,
}

impl Ord for Armed {
    /// By `(deadline, seq)`, reversed: the heap's top is the earliest.
    fn cmp(&self, other: &Armed) -> Order {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

impl PartialOrd for Armed {
    fn partial_cmp(&self, other: &Armed) -> Option<Order> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Armed {
    fn eq(&self, other: &Armed) -> bool {
        self.cmp(other) == Order::Equal
    }
}

impl Eq for Armed {}

/// The armed timers of one executor.
#[derive(Default)]
pub(crate) struct Timers {
    /// Its lock is also the stop-flag barrier for arming.
    heap: Mutex<BinaryHeap<Armed>>,
    /// Timers armed but not yet moved into an inbox (or dropped).
    pending: AtomicUsize,
    /// Timers armed over the executor's lifetime; also the next `seq`.
    armed_total: AtomicU64,
}

impl Timers {
    /// Timers armed but not yet delivered into an inbox.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Timers armed over the executor's lifetime.
    pub(crate) fn armed_total(&self) -> u64 {
        self.armed_total.load(Ordering::Relaxed)
    }

    /// Arms `env` for `shard`, due `delay` from now. Reads `stop` under
    /// the heap lock, which shutdown cycles after raising the flag
    /// ([`Timers::barrier`]): no timer is armed once that has passed.
    pub(crate) fn arm(
        &self,
        shard: usize,
        env: Envelope,
        delay: Duration,
        stop: &AtomicBool,
    ) -> Result<(), RuntimeError> {
        let mut heap = self.heap.lock();
        if stop.load(Ordering::SeqCst) {
            return Err(RuntimeError::PumpStopped);
        }
        let deadline = Instant::now() + delay;
        let seq = self.armed_total.fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_add(1, Ordering::SeqCst);
        heap.push(Armed {
            deadline,
            seq,
            shard,
            env,
        });
        Ok(())
    }

    /// Offers every due timer, in key order, to `push(shard, envelope)`,
    /// which hands the envelope back when its shard refuses it; the
    /// hold-back rule above applies. One load of `pending` when nothing
    /// is armed; a no-op while another worker sweeps.
    pub(crate) fn sweep(&self, mut push: impl FnMut(usize, Envelope) -> Option<Envelope>) {
        if self.pending() == 0 {
            return;
        }
        let Some(mut heap) = self.heap.try_lock() else {
            return;
        };
        let (now, mut held, mut blocked) = (Instant::now(), Vec::new(), Vec::new());
        while let Some(top) = heap.peek_mut() {
            if top.deadline > now {
                break;
            }
            let mut timer = PeekMut::pop(top);
            if !blocked.contains(&timer.shard) {
                let Some(env) = push(timer.shard, timer.env) else {
                    self.pending.fetch_sub(1, Ordering::SeqCst);
                    continue;
                };
                timer.env = env;
                blocked.push(timer.shard);
            }
            held.push(timer);
        }
        heap.extend(held);
    }

    /// Stop-flag barrier: cycling the heap lock after raising the stop
    /// flag guarantees no further arming.
    pub(crate) fn barrier(&self) {
        drop(self.heap.lock());
    }
}

#[cfg(test)]
mod tests {
    use p_semantics::{EventId, MachineId, Value};

    use super::*;

    fn envelope(k: i64) -> Envelope {
        Envelope {
            local: MachineId(0),
            event: EventId(0),
            payload: Value::Int(k),
            at: None,
        }
    }

    /// The hold-back rule: shard 0 refuses its first push, so its
    /// later-deadline timer stays armed behind it while shard 1's due
    /// timer is delivered; the next sweep delivers shard 0's two in
    /// deadline order.
    #[test]
    fn a_refused_timer_holds_back_the_rest_of_its_shard() {
        let timers = Timers::default();
        let stop = AtomicBool::new(false);
        // Armed out of deadline order: payload 1 is due first.
        let ms = Duration::from_millis;
        timers.arm(0, envelope(2), ms(40), &stop).unwrap();
        timers.arm(0, envelope(1), ms(0), &stop).unwrap();
        timers.arm(1, envelope(3), ms(20), &stop).unwrap();
        std::thread::sleep(ms(50));

        let mut delivered = Vec::new();
        let mut refused_once = false;
        let mut push = |shard: usize, env: Envelope| {
            if shard == 0 && !std::mem::replace(&mut refused_once, true) {
                return Some(env);
            }
            delivered.push((shard, env.payload));
            None
        };
        timers.sweep(&mut push);
        assert_eq!(timers.pending(), 2, "shard 0's two timers stay armed");
        timers.sweep(&mut push);
        assert_eq!(timers.pending(), 0);
        assert_eq!(
            delivered,
            [(1, Value::Int(3)), (0, Value::Int(1)), (0, Value::Int(2))]
        );
        assert_eq!(timers.armed_total(), 3);
    }

    /// A timer that is not yet due is left armed, and a raised stop flag
    /// refuses arming.
    #[test]
    fn a_timer_waits_for_its_deadline_and_stop_refuses_arming() {
        let timers = Timers::default();
        let stop = AtomicBool::new(false);
        timers
            .arm(0, envelope(1), Duration::from_secs(3600), &stop)
            .unwrap();
        timers.sweep(|_, _| panic!("not due"));
        assert_eq!(timers.pending(), 1);
        stop.store(true, Ordering::SeqCst);
        timers.barrier();
        let refused = timers.arm(0, envelope(2), Duration::ZERO, &stop);
        assert!(matches!(refused, Err(RuntimeError::PumpStopped)));
        assert_eq!((timers.pending(), timers.armed_total()), (1, 1));
    }
}
