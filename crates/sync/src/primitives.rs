//! The one seam between the workspace's concurrency types and the
//! primitives they are built from: locks, atomics, the spin / yield
//! hints and the calling thread's index.
//!
//! In a normal build this module is `std`: the atomics and hints are
//! re-exports, and [`Mutex`] / [`Condvar`] are thin non-poisoning
//! wrappers over `std::sync` (a guard comes back from `lock()` directly;
//! a condvar wait takes the guard by `&mut`). Built with
//! `RUSTFLAGS="--cfg fiting_model"` the same names are the model
//! checker's instrumented set (`crates/compat/shuttle`), every
//! operation a decision point of its deterministic scheduler. Because
//! [`SeqRwLock`](crate::SeqRwLock), [`Snapshots`](crate::Snapshots),
//! `ShardedIndex`, `BoundedQueue` and `Ticket` name their primitives
//! only through here, the `models` test targets of `fiting-sync`,
//! `fiting-index-api` and `fiting-index-service` explore interleavings
//! of **those types**, not of copies of them; CI runs that side on every
//! PR. `fiting_model` is a rustc cfg, not a cargo feature: nothing can
//! switch it on for a dependent by accident, and a misspelling fails
//! the build (`unexpected_cfgs` is denied).
//!
//! An instrumented primitive registers with the model execution that
//! first uses it, so it must not live in a `static`: the two
//! process-wide id counters (`NEXT_THREAD_INDEX` below and the
//! publisher ids in `snapshot.rs`) publish nothing and stay `std` in
//! both builds.

#[cfg(fiting_model)]
mod imp {
    pub use shuttle::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    pub use shuttle::sync::{Condvar, Mutex, MutexGuard};
    pub use shuttle::thread::{yield_now, yield_now as spin_loop};

    /// The model task's index. A function of the schedule alone, where
    /// the `std` arm's process-wide counter is not: the seqlock's
    /// writer drains reader slots in order, so only this makes a
    /// schedule recorded in one process replay in another.
    pub(crate) fn thread_index() -> usize {
        shuttle::thread::task_id()
    }
}

#[cfg(not(fiting_model))]
mod imp {
    pub use std::hint::spin_loop;
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    pub use std::thread::yield_now;

    use std::cell::Cell;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;
    use std::time::Duration;

    thread_local! {
        /// This thread's index, assigned on first use.
        static THREAD_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// Round-robin index assignment for new threads.
    static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

    /// A small dense index for the calling thread — what the seqlock
    /// hashes onto its presence slots.
    pub(crate) fn thread_index() -> usize {
        THREAD_INDEX
            .try_with(|index| {
                let mut i = index.get();
                if i == usize::MAX {
                    // ordering: Relaxed — the counter only spreads
                    // threads across slots; nothing is published
                    // through it.
                    i = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
                    index.set(i);
                }
                i
            })
            // Thread teardown: index 0 is always valid, merely shared.
            .unwrap_or(0)
    }

    /// A mutual-exclusion lock with a non-poisoning guard: a panic
    /// while holding it does not wedge the lock.
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex holding `value`.
        pub fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Acquires the lock, blocking until available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            }
        }
    }

    /// Guard returned by [`Mutex::lock`].
    ///
    /// Internally the `std` guard sits in an `Option` so
    /// [`Condvar::wait`] can move it out (the `std` wait API takes the
    /// guard by value) and put the reacquired guard back — invisible to
    /// callers, who always observe a held lock.
    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<'a, T> MutexGuard<'a, T> {
        fn take(&mut self) -> std::sync::MutexGuard<'a, T> {
            self.inner
                .take()
                .expect("guard invariant: lock held outside Condvar::wait")
        }
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

    /// A condition variable for use with [`Mutex`]: waits take the
    /// guard by `&mut` and the guard observably never leaves the
    /// caller's hands.
    #[derive(Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        #[must_use]
        pub fn new() -> Self {
            Condvar::default()
        }

        /// Blocks until notified, atomically releasing the guarded lock
        /// for the duration of the wait and reacquiring it before
        /// returning. Spurious wakeups are possible, exactly as with
        /// `std`.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let held = guard.take();
            guard.inner = Some(
                self.inner
                    .wait(held)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }

        /// Like [`wait`](Self::wait), but gives up after `timeout`;
        /// returns whether it did. The lock is reacquired before
        /// returning either way.
        pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
            let (reacquired, result) = self
                .inner
                .wait_timeout(guard.take(), timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(reacquired);
            result.timed_out()
        }

        /// Wakes one waiter (if any).
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
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
}

pub use imp::*;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(vec![1, 2]));
        let m2 = Arc::clone(&m);
        let panicked = thread::spawn(move || {
            let _held = m2.lock();
            panic!("holder panics");
        })
        .join();
        assert!(panicked.is_err());
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (lock, cv) = &*waker;
            *lock.lock() = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        assert!(*ready);
        drop(ready);
        h.join().unwrap();
        // The guard is fully functional after a wait round trip.
        assert!(*lock.lock());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(0u32);
        let cv = Condvar::new();
        let mut guard = lock.lock();
        assert!(cv.wait_for(&mut guard, Duration::from_millis(5)));
        // Lock reacquired: mutation through the same guard still works.
        *guard += 1;
        drop(guard);
        assert_eq!(*lock.lock(), 1);
    }

    #[test]
    fn condvar_notify_all_wakes_every_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let pair = Arc::clone(&pair);
            handles.push(thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut go = lock.lock();
                while !*go {
                    cv.wait(&mut go);
                }
            }));
        }
        thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn thread_index_is_stable_per_thread_and_distinct_across_threads() {
        let here = thread_index();
        assert_eq!(here, thread_index());
        let there = thread::spawn(thread_index).join().unwrap();
        assert_ne!(here, there);
    }
}
