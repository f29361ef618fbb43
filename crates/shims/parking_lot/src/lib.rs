//! Offline stand-in for the `parking_lot` crate.
//!
//! This workspace builds in hermetic environments with no crates.io
//! access, so the external dependencies are replaced by local shims that
//! implement exactly the API surface the workspace uses. This shim
//! provides [`Mutex`] and [`Condvar`] with `parking_lot`'s two
//! observable differences from their `std::sync` counterparts:
//!
//! * locking returns the guard directly (no `Result`);
//! * a panic while a lock is held does **not** poison it — the next
//!   acquisition succeeds and sees whatever state the panicking holder
//!   left behind. The fault-supervision layer in `p-runtime` depends on
//!   this: quarantining a panicked machine is only useful if the shared
//!   configuration lock stays usable.

use std::fmt;
use std::sync::TryLockError;
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive with non-poisoning semantics.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner `std` guard sits behind an `Option` so [`Condvar`] can take
/// it out for the duration of a wait and put the reacquired guard back;
/// it is `Some` at every moment user code can observe.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. Unlike
    /// `std::sync::Mutex`, a previous panic while holding the lock does
    /// not poison it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        MutexGuard { inner: Some(guard) }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { inner: Some(guard) }),
            Err(TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                inner: Some(poisoned.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

/// Whether a timed [`Condvar`] wait returned because its timeout
/// elapsed (rather than a notification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait timed out.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable for [`Mutex`], with `parking_lot`'s guard-by-
/// reference wait API.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing and reacquiring the
    /// guard's lock around the wait.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard holds the lock");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.inner = Some(inner);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard holds the lock");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Blocks until notified or the `deadline` instant passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trips() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("holder dies");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakes_a_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_one();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_timed_waits_report_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(cv.wait_until(&mut g, deadline).timed_out());
        // A deadline already in the past returns immediately.
        assert!(cv
            .wait_until(&mut g, Instant::now() - Duration::from_millis(1))
            .timed_out());
    }
}
