//! Instrumented `Mutex` / `Condvar` stand-ins with the signatures of
//! `fiting_sync::primitives`' `std`-backed pair (infallible,
//! non-poisoning guards; condvar waits take the guard by `&mut`), whose
//! model-build arm they are.
//!
//! Every acquire, release, wait, and notify is a scheduler decision
//! point.

use crate::runtime;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{OnceLock, PoisonError};
use std::time::Duration;

/// A mutual-exclusion lock whose acquire/release are scheduler decision
/// points under the model.
pub struct Mutex<T> {
    cell: std::sync::Mutex<T>,
    id: OnceLock<usize>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            cell: std::sync::Mutex::new(value),
            id: OnceLock::new(),
        }
    }

    fn id(&self) -> usize {
        runtime::lazy_id(&self.id, runtime::mutex_register)
    }

    /// Acquires the lock; under the model, contention parks the task in
    /// the scheduler (the inner `std` lock is always uncontended).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let id = self.id();
        runtime::mutex_lock(id);
        MutexGuard {
            lock: self,
            id,
            inner: Some(self.cell.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

/// Guard returned by [`Mutex::lock`]. The inner `std` guard sits in an
/// `Option` so [`Condvar::wait`] can release and reacquire it around
/// the park; callers always observe a held lock.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    id: usize,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard invariant: lock held outside Condvar::wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard invariant: lock held outside Condvar::wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock before the scheduler bookkeeping so a
        // woken task's (uncontended) inner acquire cannot miss it.
        drop(self.inner.take());
        runtime::mutex_unlock(self.id);
    }
}

/// A condition variable whose wait/notify are scheduler decision
/// points; timed waits explore the timeout firing as a schedule choice.
/// Spurious wakeups are not modeled.
pub struct Condvar {
    id: OnceLock<usize>,
}

impl Condvar {
    /// Creates a new condition variable.
    #[must_use]
    pub fn new() -> Self {
        Condvar {
            id: OnceLock::new(),
        }
    }

    fn id(&self) -> usize {
        runtime::lazy_id(&self.id, runtime::condvar_register)
    }

    /// Releases the guarded lock, parks (timed or not), and reacquires
    /// it; returns whether the park ended by timeout.
    fn park<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) -> bool {
        let cv = self.id();
        drop(guard.inner.take());
        let timed_out = runtime::condvar_wait(cv, guard.id, timed);
        let cell = &guard.lock.cell;
        guard.inner = Some(cell.lock().unwrap_or_else(PoisonError::into_inner));
        timed_out
    }

    /// Parks until notified, releasing the guarded lock for the
    /// duration and reacquiring it before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.park(guard, false);
    }

    /// Like [`wait`](Self::wait), but the scheduler may fire the
    /// timeout at any point instead of a notification arriving — both
    /// sides of every complete-vs-timeout race get explored; the
    /// duration itself is ignored under the model. Returns whether the
    /// wait ended by timeout.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, _timeout: Duration) -> bool {
        self.park(guard, true)
    }

    /// Wakes the first un-notified waiter (FIFO), if any.
    pub fn notify_one(&self) {
        runtime::condvar_notify(self.id(), false);
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        runtime::condvar_notify(self.id(), true);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl<T> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
