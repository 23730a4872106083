//! Instrumented `Mutex` / `RwLock` / `Condvar` stand-ins (parking_lot
//! shape: infallible, non-poisoning guards; condvar waits take the
//! guard by `&mut`).
//!
//! Every acquire, release, wait, and notify is a scheduler decision
//! point.

use crate::runtime;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{OnceLock, PoisonError};
use std::time::Duration;

/// Whether a [`Condvar::wait_for`] returned because the timeout fired
/// rather than a notification arriving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` when the wait ended by timeout.
    #[must_use]
    pub fn timed_out(self) -> bool {
        self.timed_out
    }
}

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

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.cell
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
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

/// A reader-writer lock whose acquires/releases are scheduler decision
/// points under the model.
pub struct RwLock<T> {
    cell: std::sync::RwLock<T>,
    id: OnceLock<usize>,
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            cell: std::sync::RwLock::new(value),
            id: OnceLock::new(),
        }
    }

    fn id(&self) -> usize {
        runtime::lazy_id(&self.id, runtime::rwlock_register)
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let id = self.id();
        runtime::rwlock_read(id);
        RwLockReadGuard {
            id,
            inner: Some(self.cell.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let id = self.id();
        runtime::rwlock_write(id);
        RwLockWriteGuard {
            id,
            inner: Some(self.cell.write().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.cell
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    id: usize,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("read guard holds the lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        runtime::rwlock_read_unlock(self.id);
    }
}

/// Exclusive write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    id: usize,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("write guard holds the lock")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("write guard holds the lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        runtime::rwlock_write_unlock(self.id);
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

    /// Parks until notified, releasing the guarded lock for the
    /// duration and reacquiring it before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let cv = self.id();
        drop(guard.inner.take());
        let _ = runtime::condvar_wait(cv, guard.id, false);
        guard.inner = Some(
            guard
                .lock
                .cell
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Like [`wait`](Self::wait), but the scheduler may fire the
    /// timeout at any point instead of a notification arriving — both
    /// sides of every complete-vs-timeout race get explored. The
    /// `timeout` duration itself is ignored under the model.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let _ = timeout;
        let cv = self.id();
        drop(guard.inner.take());
        let timed_out = runtime::condvar_wait(cv, guard.id, true);
        guard.inner = Some(
            guard
                .lock
                .cell
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        WaitTimeoutResult { timed_out }
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

impl<T> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
