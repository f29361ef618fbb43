//! The open-loop send schedule.
//!
//! Send `i` is due at `i / rate` after the start, whatever happened to
//! the sends before it. A generator that falls behind sends at once
//! until it has caught up; it never moves a due time, so the wait a
//! stall imposes on later sends is part of their latency.

/// A fixed-rate schedule of `count` sends.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_s: u64,
    pub count: usize,
}

impl Schedule {
    /// Nanoseconds after the start at which send `i` is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as u128 * 1_000_000_000 / self.rate_per_s as u128) as u64
    }

    /// Runs the schedule against `now_ns` (nanoseconds since the start):
    /// waits for each due time, calls `send(i)`, and returns how late
    /// each send started, in nanoseconds.
    pub fn run(&self, mut now_ns: impl FnMut() -> u64, mut send: impl FnMut(usize)) -> Vec<u64> {
        let mut late = Vec::with_capacity(self.count);
        for i in 0..self.count {
            let due = self.due_ns(i);
            let mut now = now_ns();
            while now < due {
                std::hint::spin_loop();
                now = now_ns();
            }
            late.push(now - due);
            send(i);
        }
        late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule {
            rate_per_s: 100_000,
            count: 500_000,
        };
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 10_000);
        assert_eq!(s.due_ns(100_000), 1_000_000_000);
        assert_eq!(s.due_ns(s.count), 5_000_000_000);
    }

    #[test]
    fn due_times_do_not_depend_on_completion_times() {
        let s = Schedule {
            rate_per_s: 1_000_000,
            count: 6,
        };
        // A clock that advances 100 ns per reading, and a send that
        // stalls for 10 µs on its third call.
        let clock = Cell::new(0u64);
        let mut sent_at = Vec::new();
        let late = s.run(
            || {
                clock.set(clock.get() + 100);
                clock.get()
            },
            |i| {
                sent_at.push(clock.get());
                if i == 2 {
                    clock.set(clock.get() + 10_000);
                }
            },
        );
        // Sends 0..=2 go out on time; the stall makes 3..=5 late by the
        // time already lost, measured against their unmoved due times.
        assert!(late[..3].iter().all(|&l| l <= 100), "{late:?}");
        for i in 3..6 {
            assert_eq!(late[i], sent_at[i] - s.due_ns(i));
            assert!(late[i] > 5_000, "{late:?}");
        }
        // Catching up: no waiting between the late sends.
        assert_eq!(sent_at[4] - sent_at[3], 100);
    }
}
