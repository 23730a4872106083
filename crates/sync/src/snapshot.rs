//! Versioned snapshot publishing: wait-free, cache-local reads of an
//! immutable value that a writer occasionally replaces.
//!
//! # Protocol
//!
//! A [`Snapshots<T>`] owns a monotonically increasing **version** word
//! and the current `Arc<T>` behind a leaf mutex (the *publish cell*).
//! Each reading thread keeps, in thread-local storage, a cache of
//! `(version, Arc<T>)` per publisher:
//!
//! * **Read (steady state):** load the version word; it equals the
//!   cached version, so the cached `Arc<T>` is current — hand out
//!   `&T`. No locks, no `Arc` clone, no shared store. This is the
//!   whole hot path.
//! * **Read (stale cache):** take the publish cell mutex once, clone
//!   the current `Arc` into the cache, and drop the displaced one after
//!   the mutex is released. One mutex hold + one refcount bump per
//!   *publish*, not per read.
//! * **Publish:** swap the `Arc` in the cell, bump the version
//!   (`Release`), and drop the previous snapshot's cell reference after
//!   the mutex is released.
//!
//! # Reclamation
//!
//! `Arc` is the whole reclamation scheme. A superseded snapshot lives
//! exactly as long as some thread's cache (or an in-flight
//! [`current`](Snapshots::current) handle) still holds it: the last
//! holder to let go — the publisher if nobody cached it, else the
//! reader that refreshes or exits last — runs `T`'s destructor. That
//! drop always happens **outside** the publish cell's mutex, so a
//! destructor of `T` never runs under (and can never re-enter) that
//! lock.

use crate::primitives::{AtomicU64, Mutex, Ordering};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::AtomicU64 as StaticCounter; // fiting-check: allow(std-sync-quarantine) id counter in a `static`
use std::sync::{Arc, Weak};

/// Cache-version sentinel: "nothing cached yet". Published versions
/// start at 1, so it never equals a live version.
const UNCACHED: u64 = 0;

/// Thread-local registry length that triggers a sweep of cache entries
/// whose publisher has been dropped.
const REGISTRY_SWEEP_LEN: usize = 32;

/// Counters describing a publisher's lifecycle, for observability and
/// for the differential battery's "steady-state reads touch nothing
/// shared" assertion (a quiescent read window must leave `refreshes`
/// unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Current published version (starts at 1).
    pub version: u64,
    /// Snapshots published over the lifetime.
    pub publishes: u64,
    /// Slow-path resolutions: cache refreshes plus cache-bypass reads.
    /// Constant while no publish intervenes and caches are warm.
    pub refreshes: u64,
}

struct Inner<T> {
    /// Registry key — process-unique, never reused.
    id: u64,
    /// Published version; bumped by every publish, `Release`-paired
    /// with the readers' `Acquire` loads.
    version: AtomicU64,
    /// The publish cell. Lock order: leaf — taken alone, and never held
    /// while an `Arc<T>` is dropped (see the module docs).
    current: Mutex<Arc<T>>,
    publishes: AtomicU64,
    refreshes: AtomicU64,
}

/// Versioned snapshot publisher — see the module docs for the
/// protocol. `Clone` shares the publisher (both handles see the same
/// versions); independent instances never interfere.
///
/// ```
/// use fiting_sync::Snapshots;
///
/// let snaps = Snapshots::new(vec![1, 2, 3]);
/// let sum: i32 = snaps.read(|_v, data| data.iter().sum());
/// assert_eq!(sum, 6);
///
/// snaps.publish(vec![10]);
/// assert_eq!(snaps.read(|_v, data| data[0]), 10);
/// assert_eq!(snaps.version(), 2);
/// ```
pub struct Snapshots<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Snapshots<T> {
    fn clone(&self) -> Self {
        Snapshots {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: 'static> std::fmt::Debug for Snapshots<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshots")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

/// When the last handle drops, the dropping thread's cache row goes
/// with it (other threads' rows wait for their thread's exit or sweep).
impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // The row — and the snapshot it caches — is dropped only after
        // the registry borrow ends: `T`'s destructor may read another
        // publisher.
        let _row = REGISTRY.try_with(|registry| {
            let mut registry = registry.try_borrow_mut().ok()?;
            let at = registry.iter().position(|e| e.publisher == self.id)?;
            Some(registry.swap_remove(at))
        });
    }
}

/// The per-thread cache for one publisher. Dropped with the thread
/// (or swept once the publisher is gone), which releases its `Arc`.
struct ThreadCache<T> {
    /// Back-reference for liveness sweeps (a dead publisher's registry
    /// entry is garbage).
    publisher: Weak<Inner<T>>,
    /// Version `value` was current for; `UNCACHED` before first use.
    version: Cell<u64>,
    /// The cached snapshot. `RefCell` so a *nested* read that needs a
    /// refresh mid-read detects the outstanding borrow and bypasses the
    /// cache instead of invalidating the outer `&T`.
    value: RefCell<Option<Arc<T>>>,
}

/// A type-erased registry row. `dead` re-instantiates the concrete
/// type to probe publisher liveness without making the registry
/// generic.
struct RegistryEntry {
    publisher: u64,
    cache: Rc<dyn Any>,
    dead: fn(&dyn Any) -> bool,
}

thread_local! {
    /// All of this thread's publisher caches. One flat vec — a thread
    /// talks to a handful of publishers (usually one), so a scan beats
    /// a hash map.
    static REGISTRY: RefCell<Vec<RegistryEntry>> = const { RefCell::new(Vec::new()) };
}

/// Process-unique publisher ids (never reused, so a registry entry can
/// never alias a new publisher). Compared for equality only, and a
/// `static`: plain `std` in the model build too — see `primitives`.
static NEXT_PUBLISHER_ID: StaticCounter = StaticCounter::new(1);

/// Finds or creates this thread's cache for `inner`. `None` when the
/// registry is unavailable (nested mid-mutation, or thread teardown) —
/// the caller then bypasses the cache.
fn cache_for<T: 'static>(inner: &Arc<Inner<T>>) -> Option<Rc<ThreadCache<T>>> {
    REGISTRY
        .try_with(|registry| {
            let mut registry = registry.try_borrow_mut().ok()?;
            if let Some(entry) = registry.iter().find(|e| e.publisher == inner.id) {
                return Rc::clone(&entry.cache).downcast::<ThreadCache<T>>().ok();
            }
            if registry.len() >= REGISTRY_SWEEP_LEN {
                registry.retain(|e| !(e.dead)(e.cache.as_ref()));
            }
            let cache = Rc::new(ThreadCache::<T> {
                publisher: Arc::downgrade(inner),
                version: Cell::new(UNCACHED),
                value: RefCell::new(None),
            });
            registry.push(RegistryEntry {
                publisher: inner.id,
                cache: Rc::clone(&cache) as Rc<dyn Any>,
                dead: |any| {
                    any.downcast_ref::<ThreadCache<T>>()
                        .is_none_or(|c| c.publisher.strong_count() == 0)
                },
            });
            Some(cache)
        })
        .ok()
        .flatten()
}

impl<T: 'static> Snapshots<T> {
    /// Creates a publisher whose first snapshot is `value` (version 1).
    #[must_use]
    pub fn new(value: T) -> Self {
        Snapshots {
            inner: Arc::new(Inner {
                // ordering: Relaxed — the id is only ever compared for
                // equality; nothing is published through it.
                id: NEXT_PUBLISHER_ID.fetch_add(1, Ordering::Relaxed),
                version: AtomicU64::new(1),
                current: Mutex::new(Arc::new(value)),
                publishes: AtomicU64::new(0),
                refreshes: AtomicU64::new(0),
            }),
        }
    }

    /// Runs `f` against the current snapshot, passing the version it
    /// was published as (the *pin*: the pair is consistent — `f` sees
    /// exactly the snapshot that version names).
    ///
    /// Steady state (version unchanged since this thread's last read):
    /// one atomic `Acquire` load plus thread-local bookkeeping — no
    /// lock, no `Arc` clone, no store to shared memory. After a
    /// publish: one refresh through the publish cell's mutex, counted
    /// in [`SnapshotStats::refreshes`].
    pub fn read<R>(&self, f: impl FnOnce(u64, &T) -> R) -> R {
        if let Some(cache) = cache_for(&self.inner) {
            // ordering: Acquire pairs with the Release version store in
            // `publish`; observing version v here guarantees the refresh
            // below (through the publish cell's mutex) sees the v table.
            let version = self.inner.version.load(Ordering::Acquire);
            if cache.version.get() == version || self.refresh(&cache) {
                let value = cache.value.borrow();
                if let Some(snapshot) = value.as_deref() {
                    return f(cache.version.get(), snapshot);
                }
            }
        }
        // Cache bypass: a nested read raced a refresh, or the thread is
        // tearing down. Correct, just not zero-overhead — counted as a
        // refresh so the steady-state assertion in the differential
        // battery observes it.
        // ordering: Relaxed — diagnostics counter only.
        self.inner.refreshes.fetch_add(1, Ordering::Relaxed);
        let (version, snapshot) = {
            let current = self.inner.current.lock();
            // ordering: Relaxed is enough under the publish cell's
            // mutex: version and snapshot are only written together
            // inside it (see `publish`).
            let version = self.inner.version.load(Ordering::Relaxed);
            (version, Arc::clone(&current))
        };
        f(version, &snapshot)
    }

    /// Advances `cache` to the currently published snapshot. `false`
    /// when the cache is mid-borrow (nested read) and must be bypassed.
    fn refresh(&self, cache: &ThreadCache<T>) -> bool {
        let (version, displaced) = {
            let Ok(mut value) = cache.value.try_borrow_mut() else {
                return false;
            };
            // ordering: Relaxed — diagnostics counter only.
            self.inner.refreshes.fetch_add(1, Ordering::Relaxed);
            let current = self.inner.current.lock();
            let displaced = value.replace(Arc::clone(&current));
            // ordering: Relaxed under the publish cell's mutex — the
            // version is only stored while it is held (see `publish`),
            // so this load is exactly the cloned snapshot's version.
            (self.inner.version.load(Ordering::Relaxed), displaced)
        };
        cache.version.set(version);
        // Possibly the last reference to a superseded snapshot: `T`'s
        // destructor runs here, on this already-counted slow path, with
        // the publish cell's mutex and the cache borrow both released.
        drop(displaced);
        true
    }

    /// The current snapshot as an owned `Arc` — the slow accessor for
    /// cold paths (validation re-checks, stats, rebalance decisions)
    /// that must not disturb the calling thread's cache.
    #[must_use]
    pub fn current(&self) -> Arc<T> {
        Arc::clone(&self.inner.current.lock())
    }

    /// The currently published version. Starts at 1; each publish adds
    /// one.
    #[must_use]
    pub fn version(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `publish`:
        // code that observes version v may rely on every effect
        // sequenced before that publish.
        self.inner.version.load(Ordering::Acquire)
    }

    /// Publishes `value` as the new snapshot and returns the new
    /// version. The previous snapshot stays alive for as long as a
    /// thread cache holds it and is dropped by its last holder (here,
    /// if no thread ever cached it). The swap itself is O(1) under the
    /// publish cell's leaf mutex, which steady-state readers never
    /// touch — publishing never waits for readers.
    pub fn publish(&self, value: T) -> u64 {
        let next = Arc::new(value);
        let (previous, new_version) = {
            let mut current = self.inner.current.lock();
            // ordering: Relaxed under the publish cell's mutex (every
            // version store happens inside it).
            let old_version = self.inner.version.load(Ordering::Relaxed);
            let previous = std::mem::replace(&mut *current, next);
            let bumped = &self.inner.version;
            // ordering: Release pairs with the Acquire loads in `read`
            // and `version` — a reader observing the bumped version
            // refreshes under the same mutex and gets the new snapshot.
            bumped.store(old_version + 1, Ordering::Release);
            (previous, old_version + 1)
        };
        // ordering: Relaxed — diagnostics counter only.
        self.inner.publishes.fetch_add(1, Ordering::Relaxed);
        // The cell's reference to the superseded snapshot, released
        // only now that the mutex is: if no cache holds it this is the
        // last one, and `T`'s destructor must not run under that lock.
        drop(previous);
        new_version
    }

    /// Lifecycle counters — see [`SnapshotStats`].
    #[must_use]
    pub fn stats(&self) -> SnapshotStats {
        // All fields are diagnostics counters; no cross-field
        // consistency is promised.
        SnapshotStats {
            version: self.inner.version.load(Ordering::Relaxed), // ordering: Relaxed diag
            publishes: self.inner.publishes.load(Ordering::Relaxed), // ordering: Relaxed diag
            refreshes: self.inner.refreshes.load(Ordering::Relaxed), // ordering: Relaxed diag
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;
    use std::thread;

    /// A payload whose destructor is observable: bumps `drops` once.
    struct Flagged {
        id: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Flagged {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn flagged(id: u64) -> (Flagged, Arc<AtomicUsize>) {
        let drops = Arc::new(AtomicUsize::new(0));
        let payload = Flagged {
            id,
            drops: Arc::clone(&drops),
        };
        (payload, drops)
    }

    /// A reader thread that performs one `read` per message received
    /// and acknowledges it, so the test controls exactly when its cache
    /// advances; closing the channel ends the thread.
    fn stepped_reader(
        snaps: &Snapshots<Flagged>,
    ) -> (
        mpsc::Sender<()>,
        mpsc::Receiver<u64>,
        thread::JoinHandle<()>,
    ) {
        let (step_tx, step_rx) = mpsc::channel::<()>();
        let (seen_tx, seen_rx) = mpsc::channel::<u64>();
        let snaps = snaps.clone();
        let handle = thread::spawn(move || {
            for () in step_rx {
                seen_tx.send(snaps.read(|_, p| p.id)).unwrap();
            }
        });
        (step_tx, seen_rx, handle)
    }

    #[test]
    fn read_sees_latest_publish() {
        let snaps = Snapshots::new(1u64);
        assert_eq!(snaps.read(|v, x| (v, *x)), (1, 1));
        assert_eq!(snaps.publish(2), 2);
        assert_eq!(snaps.read(|v, x| (v, *x)), (2, 2));
        assert_eq!(snaps.current().as_ref(), &2);
    }

    #[test]
    fn steady_state_reads_do_not_refresh() {
        let snaps = Snapshots::new(7u64);
        snaps.read(|_, _| ()); // warm the cache
        let before = snaps.stats().refreshes;
        for _ in 0..1_000 {
            assert_eq!(snaps.read(|_, x| *x), 7);
        }
        assert_eq!(
            snaps.stats().refreshes,
            before,
            "warm-cache reads must not touch the slow path"
        );
        snaps.publish(8);
        assert_eq!(snaps.read(|_, x| *x), 8);
        assert_eq!(
            snaps.stats().refreshes,
            before + 1,
            "one refresh per publish"
        );
    }

    #[test]
    fn superseded_snapshot_drops_when_the_last_reader_moves_on() {
        let (first, first_drops) = flagged(1);
        let snaps = Snapshots::new(first);
        let (step, seen, reader) = stepped_reader(&snaps);
        // Both this thread and the reader cache snapshot 1.
        assert_eq!(snaps.read(|_, p| p.id), 1);
        step.send(()).unwrap();
        assert_eq!(seen.recv().unwrap(), 1);

        snaps.publish(flagged(2).0);
        assert_eq!(first_drops.load(Ordering::SeqCst), 0, "two caches hold it");
        assert_eq!(snaps.read(|_, p| p.id), 2);
        assert_eq!(
            first_drops.load(Ordering::SeqCst),
            0,
            "the reader thread's cache still holds it"
        );
        // The last holder's next read returns ⇒ dropped, right then:
        // no reclamation pass, no further publish.
        step.send(()).unwrap();
        assert_eq!(seen.recv().unwrap(), 2);
        assert_eq!(first_drops.load(Ordering::SeqCst), 1);

        drop(step);
        reader.join().unwrap();
    }

    #[test]
    fn uncached_snapshot_drops_at_publish() {
        let (first, first_drops) = flagged(1);
        let snaps = Snapshots::new(first);
        // No thread ever read it: the publish cell held the only
        // reference.
        snaps.publish(flagged(2).0);
        assert_eq!(first_drops.load(Ordering::SeqCst), 1);
        assert_eq!(snaps.stats().version, 2);
    }

    #[test]
    fn thread_exit_releases_its_cached_snapshot() {
        let (first, first_drops) = flagged(1);
        let snaps = Snapshots::new(first);
        let (step, seen, reader) = stepped_reader(&snaps);
        step.send(()).unwrap();
        assert_eq!(seen.recv().unwrap(), 1);
        snaps.publish(flagged(2).0);
        assert_eq!(
            first_drops.load(Ordering::SeqCst),
            0,
            "parked reader still caches it"
        );
        // The reader exits without ever reading again; its thread-local
        // cache goes with it.
        drop(step);
        reader.join().unwrap();
        assert_eq!(first_drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_the_last_handle_releases_this_threads_cache() {
        let (first, first_drops) = flagged(1);
        let snaps = Snapshots::new(first);
        assert_eq!(snaps.read(|_, p| p.id), 1);
        drop(snaps);
        assert_eq!(first_drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_reads_bypass_instead_of_deadlocking() {
        let snaps = Snapshots::new(10u64);
        let inner = snaps.clone();
        let result = snaps.read(|_, outer| {
            // Publish from inside a read, then read again: the nested
            // read must see the new value without invalidating `outer`.
            inner.publish(20);
            let nested = inner.read(|_, x| *x);
            (*outer, nested)
        });
        assert_eq!(result, (10, 20));
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_pair() {
        // Snapshot is a (a, b) pair with a == b; publishes keep the
        // invariant, so every read must observe it regardless of
        // interleaving.
        let snaps = Snapshots::new((0u64, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let snaps = snaps.clone();
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            readers.push(thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    snaps.read(|_, &(a, b)| assert_eq!(a, b, "torn snapshot"));
                    reads += 1;
                    if reads == 1 {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                reads
            }));
        }
        // On a single-core box the publisher can otherwise finish
        // before the readers are ever scheduled.
        while started.load(Ordering::Relaxed) < 2 {
            thread::yield_now();
        }
        for i in 1..=200u64 {
            snaps.publish((i, i));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(snaps.stats().publishes, 200);
    }

    #[test]
    fn dead_publishers_are_swept_from_the_registry() {
        // Churn far more publishers than the sweep threshold on one
        // thread; the registry must not grow without bound.
        for i in 0..(super::REGISTRY_SWEEP_LEN * 4) {
            let snaps = Snapshots::new(i);
            assert_eq!(snaps.read(|_, x| *x), i);
        }
        let len = REGISTRY.with(|r| r.borrow().len());
        assert!(
            len <= super::REGISTRY_SWEEP_LEN + 1,
            "registry grew to {len} entries"
        );
    }
}
