//! A reader-announcing seqlock: `RwLock` semantics where readers never
//! block writers' progress and never contend with each other.
//!
//! # Protocol
//!
//! The lock keeps an even/odd **sequence word** and a small array of
//! cache-padded **presence slots** (threads hash onto slots by a
//! per-thread id):
//!
//! * **Read (fast path):** increment your slot (announce), then load
//!   the sequence word. Even → no writer is inside; read `&T`
//!   directly, decrement the slot on the way out. Odd → a writer is
//!   inside: retract the announcement and fall back to the slow path.
//! * **Read (slow path):** take the writer mutex (writers hold it for
//!   their whole critical section), read under it. This bounds every
//!   read to at most one retry — there is no unbounded "retry until
//!   the sequence settles" loop, and readers can never observe a torn
//!   value (they are *excluded*, not *detected*, unlike a classical
//!   seqlock).
//! * **Write:** take the writer mutex, bump the sequence word to odd
//!   (`SeqCst` — the Dekker handshake with the readers' announce),
//!   then wait for every presence slot to drain. From here the writer
//!   has exclusive access; dropping the guard bumps the word back to
//!   even (`Release`), publishing the mutation.
//!
//! The announce/check pair and the bump/scan pair form a store-load
//! (Dekker) handshake: both sides' first operation is a `SeqCst` RMW
//! or paired `SeqCst` load, so at least one side observes the other —
//! a reader cannot enter unobserved while a writer mutates.
//!
//! This file is what the model checker runs: built with
//! `--cfg fiting_model`, `tests/models.rs` races `read_with` against
//! `write` on this type over an instrumented two-word payload — the
//! `SeqCst` announce / check handshake, the yielding drain and the
//! `Release` exits included — under the deterministic scheduler.

use crate::primitives::{
    spin_loop, thread_index, yield_now, AtomicU64, Mutex, MutexGuard, Ordering,
};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

/// Presence-slot count. Threads hash onto slots by
/// [`thread_index`], so this bounds writer drain-scan work, not reader
/// parallelism (a slot's counter admits any number of simultaneous
/// readers).
const READER_SLOTS: usize = 8;

/// A word aligned (and therefore padded) to 128 bytes, so the sequence
/// word and each presence slot sit alone — 128 rather than 64 because
/// the common x86 spatial prefetcher pulls lines in pairs. False
/// sharing between readers would re-create exactly the contended-line
/// traffic the lock exists to remove.
#[repr(align(128))]
struct Padded(AtomicU64);

/// A reader-writer lock whose readers are wait-free against each other
/// and never spin against writers — see the module docs for the
/// protocol. The shard lock of `ShardedIndex`, with closure-based read
/// access.
///
/// Not reentrant: nesting [`read_with`](Self::read_with) inside
/// [`write`](Self::write) (or `write` inside `read_with`) on the
/// *same* lock deadlocks, exactly as with any `RwLock`.
///
/// ```
/// use fiting_sync::SeqRwLock;
///
/// let lock = SeqRwLock::new(vec![1, 2, 3]);
/// assert_eq!(lock.read_with(|v| v.len()), 3);
/// lock.write().push(4);
/// assert_eq!(lock.read_with(|v| v.len()), 4);
/// ```
pub struct SeqRwLock<T> {
    /// Even = no writer inside; odd = a writer is mutating.
    seq: Padded,
    /// Reader presence counters (see [`READER_SLOTS`]).
    slots: [Padded; READER_SLOTS],
    /// Serializes writers against each other and carries the reader
    /// slow path. Held for a writer's entire critical section.
    writer: Mutex<()>,
    /// Reads that lost the race to a writer and took the slow path —
    /// the "how often do readers actually wait" observability counter.
    contended_reads: AtomicU64,
    data: UnsafeCell<T>,
}

// safety: SeqRwLock is a lock: it hands out `&T` only while no
// `SeqWriteGuard` (the sole source of `&mut T`) exists, enforced by the
// announce/drain protocol. Moving the lock between threads moves the
// owned `T` (needs `T: Send`); sharing it lets multiple threads hold
// `&T` concurrently (needs `T: Sync`) and lets any thread acquire the
// write guard and obtain `&mut T` (needs `T: Send`). These are exactly
// the bounds `std::sync::RwLock` uses.
unsafe impl<T: Send> Send for SeqRwLock<T> {}
// safety: see the Send impl above — same reasoning as std's RwLock.
unsafe impl<T: Send + Sync> Sync for SeqRwLock<T> {}

impl<T> SeqRwLock<T> {
    /// Creates the lock holding `value`.
    pub fn new(value: T) -> Self {
        SeqRwLock {
            seq: Padded(AtomicU64::new(0)),
            slots: std::array::from_fn(|_| Padded(AtomicU64::new(0))),
            writer: Mutex::new(()),
            contended_reads: AtomicU64::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Runs `f` with shared access. Wait-free against other readers;
    /// against a mid-flight writer it falls back to one bounded wait
    /// on the writer mutex (counted in
    /// [`contended_reads`](Self::contended_reads)).
    pub fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let slot = &self.slots[thread_index() % READER_SLOTS].0;
        // ordering: SeqCst announce — the reader half of the Dekker
        // handshake with `write`'s SeqCst bump + slot scan: either the
        // writer observes this increment and drains, or the load below
        // observes the odd word and we back off. Never neither.
        slot.fetch_add(1, Ordering::SeqCst);
        // ordering: SeqCst — the second half of the handshake above; an
        // even word also Acquire-pairs with the previous write guard's
        // Release exit bump, making its mutations visible.
        if self.seq.0.load(Ordering::SeqCst) & 1 == 0 {
            let _exit = SlotGuard { slot };
            // safety: we announced our presence *before* observing an
            // even sequence word. A writer makes the word odd (SeqCst)
            // before scanning the slots and waits for them to drain, so
            // no writer can hold (or acquire) `&mut T` until our
            // SlotGuard decrements on scope exit — including on panic.
            return f(unsafe { &*self.data.get() });
        }
        // ordering: Relaxed — retracting an announcement that never
        // entered the critical section publishes nothing.
        slot.fetch_sub(1, Ordering::Relaxed);
        self.read_contended(f)
    }

    #[cold]
    fn read_contended<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        // ordering: Relaxed — diagnostics counter only.
        self.contended_reads.fetch_add(1, Ordering::Relaxed);
        let _writer = self.writer.lock();
        // safety: writers hold the `writer` mutex for their entire
        // critical section (acquired in `write`, released when the
        // guard drops), so holding it here excludes every `&mut T`;
        // fast-path readers running concurrently only take shared
        // borrows like ours.
        f(unsafe { &*self.data.get() })
    }

    /// Acquires exclusive access, waiting for in-flight readers to
    /// drain. Readers arriving after the guard exists take the slow
    /// path until it drops.
    pub fn write(&self) -> SeqWriteGuard<'_, T> {
        let writer = self.writer.lock();
        // ordering: SeqCst bump to odd — the writer half of the Dekker
        // handshake with `read_with`'s announce + check (see there).
        self.seq.0.fetch_add(1, Ordering::SeqCst);
        for Padded(slot) in &self.slots {
            let mut spins = 0u32;
            // ordering: SeqCst scan pairs with the readers' SeqCst
            // announce and Release departure: reading 0 means every
            // announced reader has left (its loads happen-before our
            // mutations) or backed off.
            while slot.load(Ordering::SeqCst) != 0 {
                spins += 1;
                if spins < 64 {
                    spin_loop();
                } else {
                    // An in-section reader is preempted (or this is a
                    // single-core box): make room for it to finish.
                    yield_now();
                }
            }
        }
        SeqWriteGuard {
            lock: self,
            _writer: writer,
        }
    }

    /// Exclusive access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// How many reads fell back to the writer mutex (zero in any
    /// window without writer activity — the differential battery's
    /// steady-state assertion).
    #[must_use]
    pub fn contended_reads(&self) -> u64 {
        // ordering: Relaxed — diagnostics counter only.
        self.contended_reads.load(Ordering::Relaxed)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SeqRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqRwLock").finish_non_exhaustive()
    }
}

/// Decrements the presence slot on scope exit — also on panic, so an
/// unwinding reader closure cannot wedge every future writer.
struct SlotGuard<'a> {
    slot: &'a AtomicU64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        // ordering: Release — a writer's scan that observes this
        // departure also observes it *after* every load the reader
        // performed, so the writer's mutations cannot race them.
        self.slot.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive guard returned by [`SeqRwLock::write`]. Dropping it
/// publishes the mutation and reopens the fast read path.
pub struct SeqWriteGuard<'a, T> {
    lock: &'a SeqRwLock<T>,
    _writer: MutexGuard<'a, ()>,
}

impl<T> Deref for SeqWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // safety: the guard exists only between `write`'s reader drain
        // and its own drop, a span with no concurrent readers (fast
        // path sees an odd word; slow path blocks on the held writer
        // mutex) and no other writer.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for SeqWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // safety: same exclusivity argument as `Deref` just above.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for SeqWriteGuard<'_, T> {
    fn drop(&mut self) {
        // ordering: Release bump back to even publishes every mutation
        // before the word readers Acquire-check; the writer mutex
        // releases after this, in the field-drop order of the guard.
        self.lock.seq.0.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sequence_word_and_slots_sit_on_their_own_lines() {
        assert_eq!(std::mem::align_of::<Padded>(), 128);
        assert!(std::mem::size_of::<[Padded; 2]>() >= 256);
        let lock = SeqRwLock::new(0u8);
        let addr = |word: &Padded| std::ptr::from_ref(word) as usize;
        assert!(addr(&lock.slots[0]).abs_diff(addr(&lock.seq)) >= 128);
        assert_eq!(addr(&lock.slots[1]) - addr(&lock.slots[0]), 128);
    }

    #[test]
    fn read_write_round_trip() {
        let lock = SeqRwLock::new(5u64);
        assert_eq!(lock.read_with(|v| *v), 5);
        *lock.write() += 1;
        assert_eq!(lock.read_with(|v| *v), 6);
        let mut lock = lock;
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 7);
    }

    #[test]
    fn uncontended_reads_never_take_the_slow_path() {
        let lock = SeqRwLock::new(0u64);
        for _ in 0..1_000 {
            lock.read_with(|_| ());
        }
        assert_eq!(lock.contended_reads(), 0);
    }

    #[test]
    fn readers_never_observe_a_torn_pair() {
        // The value is a pair with an invariant (a == b); writers
        // preserve it, so any read observing a != b saw a torn window.
        let lock = Arc::new(SeqRwLock::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            readers.push(thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    lock.read_with(|&(a, b)| assert_eq!(a, b, "torn read"));
                    reads += 1;
                    if reads == 1 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                reads
            }));
        }
        // On a single-core box the writer can otherwise finish before
        // the readers are ever scheduled.
        while started.load(Ordering::Relaxed) < 3 {
            thread::yield_now();
        }
        for i in 1..=2_000u64 {
            let mut guard = lock.write();
            // Deliberately non-atomic halves, with a window between.
            guard.0 = i;
            guard.1 = i;
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        lock.read_with(|&(a, b)| {
            assert_eq!(a, 2_000);
            assert_eq!(b, 2_000);
        });
    }

    #[test]
    fn writers_make_progress_under_reader_pressure() {
        let lock = Arc::new(SeqRwLock::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    lock.read_with(|v| std::hint::black_box(*v));
                }
            }));
        }
        for _ in 0..1_000 {
            *lock.write() += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(lock.read_with(|v| *v), 1_000);
    }

    #[test]
    fn panicking_reader_does_not_wedge_writers() {
        let lock = Arc::new(SeqRwLock::new(1u64));
        let reader = Arc::clone(&lock);
        let panicked = thread::spawn(move || {
            reader.read_with(|_| panic!("reader closure panics"));
        })
        .join();
        assert!(panicked.is_err());
        // The presence slot was released on unwind: a writer proceeds.
        *lock.write() += 1;
        assert_eq!(lock.read_with(|v| *v), 2);
    }

    #[test]
    fn contended_reads_are_counted_not_torn() {
        let lock = Arc::new(SeqRwLock::new((0u64, 0u64)));
        let guard = lock.write();
        let reader = Arc::clone(&lock);
        let t = thread::spawn(move || reader.read_with(|&(a, b)| assert_eq!(a, b)));
        // Give the reader time to hit the odd word and park on the
        // writer mutex, then release.
        thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        t.join().unwrap();
        assert!(lock.contended_reads() <= 1);
    }
}
