//! Sharded concurrent front-end over any [`SortedIndex`] with a
//! **wait-free steady-state read path**.
//!
//! [`ShardedIndex`] range-partitions the key space into shards —
//! boundaries chosen from the bulk-load sample — so point operations
//! on different shards never contend, and keeps every shared-mutable
//! touch off the steady-state read path.
//!
//! # Design notes
//!
//! * **Movable range partitioning.** Boundaries start at evenly spaced
//!   positions in the sorted bulk-load data, but are *not* fixed for
//!   the life of the index: [`split_shard`] and [`merge_with_next`]
//!   move segment runs between shards online, and the
//!   [`rebalance`](crate::rebalance) module drives them from observed
//!   occupancy so append-skewed streams stop piling onto one shard.
//! * **Versioned routing snapshots.** All routing state (the
//!   boundary keys and the shard handles) lives in one immutable
//!   table published through [`fiting_sync::Snapshots`]: a rebalance
//!   publishes a replacement table with one pointer swap, and a
//!   steady-state reader resolves the current table from a
//!   **thread-local cache** gated on one atomic version word — zero
//!   lock acquisitions, zero `Arc` refcount bumps, zero shared
//!   mutable cache lines. A superseded table (and, after a merge, the
//!   drained shard only it references) lives exactly as long as some
//!   thread's cache holds it; the last holder drops it.
//! * **Seqlock shards.** Each shard sits behind a
//!   [`fiting_sync::SeqRwLock`] instead of an `RwLock`: readers
//!   announce themselves in per-thread presence slots and enter
//!   without any lock acquisition; a shard writer waits for in-flight
//!   readers to drain rather than making readers wait to enter. A
//!   reader that arrives while a writer is inside falls back to the
//!   writer mutex (bounded, counted in
//!   [`RoutingStats::contended_reads`]) — so `get`/`range_collect`
//!   never spin and never observe torn shard state.
//! * **Route-then-validate.** An operation pins a `(version, table)`
//!   pair, routes, and enters the owning shard's read (or write)
//!   section. An unchanged publisher version there proves the routing
//!   is still current, because every rebalance publishes its new
//!   table *before* releasing the shard write locks it holds — a
//!   completed move is always visible as a version bump. On mismatch
//!   the operation re-fetches the current table and accepts if it
//!   still routes the key to the locked shard (shard identity by
//!   `Arc` pointer); otherwise it retries against the new layout.
//! * **One way in for batches.** [`insert_many`],
//!   [`insert_many_reporting`] and [`with_write_groups`] are thin
//!   wrappers over one private kernel that buckets items by owning
//!   shard, takes each involved shard's write lock once, revalidates
//!   every item against the table current *inside* the lock, and
//!   re-buckets whatever a concurrent rebalance re-routed.
//! * **Lock order.** Multi-shard operations ([`range_collect`],
//!   [`insert_many`], [`len`]) visit shards in ascending index order
//!   and hold at most one shard lock (or read section) at a time; a
//!   rebalance holds at most two (adjacent, ascending) and is
//!   serialized against other rebalances by a dedicated mutex — so no
//!   lock cycle exists. The cost is cross-shard snapshot consistency:
//!   a `range_collect` concurrent with writes sees each *shard*
//!   atomically, not the whole index.
//! * **Shared handle.** `Clone` clones an `Arc` handle; every clone
//!   sees the same shards and the same routing.
//!
//! The wait-free claims are not just asserted. Built with
//! `--cfg fiting_model`, this file and the two primitives under it get
//! their locks and atomics from the model checker (through
//! `fiting_sync::primitives`), and `tests/models.rs` races the real
//! `get` / `insert` against the real [`split_shard`] /
//! [`merge_with_next`] under its deterministic scheduler
//! (`crates/sync/tests/models.rs` does the same for the seqlock and
//! the snapshot publisher); the oracle-differential battery
//! (`tests/read_path_differential.rs`) proves the zero-lock steady
//! state by counter deltas.
//!
//! [`range_collect`]: ShardedIndex::range_collect
//! [`insert_many`]: ShardedIndex::insert_many
//! [`insert_many_reporting`]: ShardedIndex::insert_many_reporting
//! [`with_write_groups`]: ShardedIndex::with_write_groups
//! [`len`]: ShardedIndex::len
//! [`split_shard`]: ShardedIndex::split_shard
//! [`merge_with_next`]: ShardedIndex::merge_with_next

use crate::key::Key;
use crate::sorted::{BuildableIndex, ShardHealth, SortedIndex};
use fiting_sync::primitives::Mutex;
use fiting_sync::{SeqRwLock, Snapshots};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Bytes of front-end metadata per shard in the Section 6.2 accounting
/// convention: one boundary key + one shard pointer, 8 bytes each.
pub const SHARD_METADATA_BYTES: usize = 16;

/// Point-in-time snapshot of one shard's occupancy, taken inside that
/// shard's read section by [`ShardedIndex::shard_stats`].
///
/// Feeds two consumers: the service layer's observability (queue depth
/// next to shard occupancy) and the [`rebalance`](crate::rebalance)
/// policy, which turns visible imbalance into [`split_shard`] /
/// [`merge_with_next`] calls.
///
/// [`split_shard`]: ShardedIndex::split_shard
/// [`merge_with_next`]: ShardedIndex::merge_with_next
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Entries currently held by the shard.
    pub entries: usize,
    /// The shard structure's own Section 6.2 byte accounting.
    pub size_bytes: usize,
    /// Bytes of the shard's on-disk snapshot
    /// ([`SortedIndex::disk_bytes`]); `0` for volatile structures.
    pub disk_bytes: usize,
    /// Bytes appended to the shard's write-ahead log since its last
    /// checkpoint ([`SortedIndex::wal_bytes`]); `0` for volatile
    /// structures.
    pub wal_bytes: usize,
    /// Storage health ([`SortedIndex::health`]); always
    /// [`ShardHealth::Healthy`] for volatile structures.
    pub health: ShardHealth,
    /// Transient storage faults absorbed by retry on this shard's
    /// behalf ([`SortedIndex::io_retries`]); `0` for volatile
    /// structures.
    pub io_retries: u64,
}

/// Counters describing the wait-free read path's health, from
/// [`ShardedIndex::routing_stats`].
///
/// The load-bearing pair is `refreshes` + `contended_reads`: over any
/// window with no rebalance and no shard writes, **both deltas are
/// zero** — every read resolved routing from its thread cache and
/// entered its shard without touching a lock. The oracle-differential
/// battery asserts exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingStats {
    /// Current routing-table version (bumped by every rebalance).
    pub version: u64,
    /// Routing tables published over the index's lifetime.
    pub publishes: u64,
    /// Reads that could not be served from a thread-local routing
    /// cache (first touch per thread, post-publish revalidation, or a
    /// nested read) and fell back to the publisher mutex.
    pub refreshes: u64,
    /// Shard reads that arrived while a writer was inside and fell
    /// back to that shard's writer mutex (summed over the *current*
    /// shards; counts on shards retired by merges are dropped with
    /// them).
    pub contended_reads: u64,
}

/// Why a [`split_shard`](ShardedIndex::split_shard) or
/// [`merge_with_next`](ShardedIndex::merge_with_next) call was refused.
///
/// Every error leaves the index exactly as it was — rebalance
/// primitives either complete fully or change nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceError {
    /// The shard index does not name an existing shard (for a merge:
    /// the *right-hand* shard of the pair).
    NoSuchShard {
        /// The out-of-range index that was requested.
        shard: usize,
        /// The shard count at the time of the call.
        shard_count: usize,
    },
    /// The requested split key falls outside the span of keys the
    /// shard routes, so inserting it would corrupt boundary order.
    BoundaryOutOfSpan,
    /// The requested split key would leave one side of the split with
    /// no entries (it is ≤ the shard's first key or > its last).
    EmptySide,
    /// The shard structure declined the run handoff
    /// ([`SortedIndex::split_off_tail`] returned `None`, or
    /// [`SortedIndex::absorb_tail`] returned `false`): it has no native
    /// handoff, the pair's configurations differ, or a durable shard
    /// cannot persist the move right now.
    Refused,
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::NoSuchShard { shard, shard_count } => {
                write!(f, "no shard {shard} (index has {shard_count})")
            }
            RebalanceError::BoundaryOutOfSpan => {
                f.write_str("split key outside the shard's routed span")
            }
            RebalanceError::EmptySide => {
                f.write_str("split key would leave one side of the split empty")
            }
            RebalanceError::Refused => f.write_str("the shard structure refused the run handoff"),
        }
    }
}

impl std::error::Error for RebalanceError {}

/// One immutable routing epoch: the boundary keys plus the shard
/// handles they route to. Published wholesale through [`Snapshots`] by
/// rebalance operations; never mutated in place.
struct Table<K, I> {
    /// `bounds[i]` is the smallest key routed to shard `i + 1`;
    /// `shards.len() == bounds.len() + 1`, and shard 0 has no lower
    /// bound (keys below every boundary, including an empty-load
    /// index's whole key space, route there).
    bounds: Vec<K>,
    /// Shard handles. `Arc` so consecutive tables share the untouched
    /// shards and so validation can compare shard *identity* by
    /// pointer.
    shards: Vec<Arc<SeqRwLock<I>>>,
}

impl<K: Key, I> Table<K, I> {
    fn shard_for(&self, key: &K) -> usize {
        self.bounds.partition_point(|b| b <= key)
    }

    fn shard_for_bound(&self, bound: &Bound<K>) -> usize {
        match bound {
            Bound::Included(k) | Bound::Excluded(k) => self.shard_for(k),
            Bound::Unbounded => 0,
        }
    }

    /// Whether position `sid` of this table is `shard` itself (shard
    /// identity by `Arc` pointer) — the revalidation step of
    /// route-then-validate. Asked from *inside* `shard`'s read or
    /// write section of a table fetched after entering it, with `sid`
    /// the position a key routes to: no rebalance touching `shard` can
    /// complete while the section is held, so `true` means `shard`
    /// authoritatively owns that key.
    #[inline]
    fn owns(&self, sid: usize, shard: &Arc<SeqRwLock<I>>) -> bool {
        Arc::ptr_eq(&self.shards[sid], shard)
    }
}

struct Inner<K, I> {
    /// The current routing table. Steady-state
    /// readers pin it from a thread-local cache without locking;
    /// rebalances publish replacements with one pointer swap. The
    /// table's publisher version doubles as the rebalance epoch:
    /// point operations read it at pin time and revalidate it inside
    /// the shard section (see the module docs).
    routing: Snapshots<Table<K, I>>,
    /// Serializes rebalance operations against each other, so each
    /// split/merge observes a stable table from decision to publish.
    rebalances: Mutex<()>,
}

/// A range-partitioned concurrent front-end over any [`SortedIndex`]
/// implementation, with online shard rebalancing and a wait-free
/// steady-state read path (see the module docs for the protocol).
///
/// ```
/// use fiting_index_api::{BinarySearchIndex, ShardedIndex, SortedIndex};
/// use std::thread;
///
/// let pairs: Vec<(u64, u64)> = (0..10_000).map(|k| (k * 2, k)).collect();
/// let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
///     ShardedIndex::bulk_load(&(), 4, pairs).unwrap();
/// assert_eq!(index.shard_count(), 4);
///
/// let reader = index.clone();
/// let t = thread::spawn(move || reader.get(&500));
/// index.insert(501, 999);
/// assert_eq!(t.join().unwrap(), Some(250));
/// assert_eq!(index.get(&501), Some(999));
/// assert_eq!(index.range_collect(4_998..=5_004).len(), 4);
/// ```
///
/// Splitting a hot shard moves its upper run into a new neighbor
/// without invalidating concurrent readers:
///
/// ```
/// use fiting_index_api::{BinarySearchIndex, ShardedIndex};
///
/// let pairs: Vec<(u64, u64)> = (0..1_000).map(|k| (k, k)).collect();
/// let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
///     ShardedIndex::bulk_load(&(), 2, pairs).unwrap();
///
/// // Shard 1 owns [500, ∞); split it at 750.
/// let moved = index.split_shard(1, 750).unwrap();
/// assert_eq!(moved, 250);
/// assert_eq!(index.shard_count(), 3);
/// assert_eq!(index.boundaries(), vec![500, 750]);
/// assert_eq!(index.get(&900), Some(900)); // re-routed transparently
///
/// // Merge it back.
/// assert_eq!(index.merge_with_next(1).unwrap(), 250);
/// assert_eq!(index.shard_count(), 2);
/// ```
pub struct ShardedIndex<K: Key, V: Clone, I: SortedIndex<K, V>> {
    inner: Arc<Inner<K, I>>,
    _values: std::marker::PhantomData<fn() -> V>,
}

impl<K: Key, V: Clone, I: SortedIndex<K, V>> Clone for ShardedIndex<K, V, I> {
    fn clone(&self) -> Self {
        ShardedIndex {
            inner: Arc::clone(&self.inner),
            _values: std::marker::PhantomData,
        }
    }
}

impl<K: Key, V: Clone, I: BuildableIndex<K, V> + 'static> ShardedIndex<K, V, I> {
    /// Bulk loads `sorted` (strictly increasing keys) into at most
    /// `shard_count` shards, choosing boundaries from evenly spaced
    /// sample positions in the data. The shards are built from their
    /// spans of `sorted` by [`BuildableIndex::build_spans`].
    ///
    /// Fewer shards are built when the data has fewer distinct boundary
    /// candidates than requested (e.g. an empty load builds one shard).
    /// The boundaries only *start* here; see
    /// [`split_shard`](Self::split_shard) and
    /// [`merge_with_next`](Self::merge_with_next) for how they move.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn bulk_load(
        config: &I::Config,
        shard_count: usize,
        sorted: Vec<(K, V)>,
    ) -> Result<Self, I::BuildError> {
        assert!(shard_count >= 1, "need at least one shard");
        let n = sorted.len();
        // Boundary sample: the key at each i/shard_count quantile,
        // skipping candidates that would leave a shard empty (quantiles
        // collapse when n < shard_count or the data is heavily
        // duplicated toward the front).
        let mut bounds: Vec<K> = Vec::new();
        if n > 0 {
            for i in 1..shard_count {
                let at = i * n / shard_count;
                if at == 0 {
                    continue;
                }
                let candidate = sorted[at].0;
                if candidate > sorted[0].0 && bounds.last().is_none_or(|&last| last < candidate) {
                    bounds.push(candidate);
                }
            }
        }

        let ends: Vec<usize> = bounds
            .iter()
            .map(|b| sorted.partition_point(|(k, _)| k < b))
            .chain([n])
            .collect();
        let shards = I::build_spans(config, sorted, &ends)?
            .into_iter()
            .map(|shard| Arc::new(SeqRwLock::new(shard)))
            .collect();
        Ok(ShardedIndex::from_table(Table { bounds, shards }))
    }

    /// Reassembles a sharded index from already-built shard structures
    /// — the recovery path: the durability layer reopens each shard's
    /// snapshot + WAL independently, then hands the restored shards
    /// back here in key order.
    ///
    /// `bounds[i]` becomes the smallest key routed to `shards[i + 1]`,
    /// exactly as [`bulk_load`](Self::bulk_load) would have chosen; the
    /// caller asserts that every key already inside `shards[i]` falls
    /// within its routed span.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty, when
    /// `shards.len() != bounds.len() + 1`, or when `bounds` is not
    /// strictly increasing.
    pub fn from_shards(bounds: Vec<K>, shards: Vec<I>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert_eq!(
            shards.len(),
            bounds.len() + 1,
            "shards must outnumber bounds by exactly one"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        ShardedIndex::from_table(Table {
            bounds,
            shards: shards
                .into_iter()
                .map(|s| Arc::new(SeqRwLock::new(s)))
                .collect(),
        })
    }
}

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> ShardedIndex<K, V, I> {
    /// Splits shard `shard` at key `at`: entries with keys `>= at` move
    /// into a new shard inserted immediately after, and `at` becomes a
    /// routing boundary. Returns the number of entries moved.
    ///
    /// The move is the shard structure's own run handoff
    /// ([`SortedIndex::split_off_tail`] — the FITing-Tree moves whole
    /// segment pages plus their directory span), so the split costs
    /// **O(moved segments)** and the new shard inherits the source
    /// shard's configuration. There is no other path: a structure that
    /// declines the handoff refuses the split.
    ///
    /// The move happens under the source shard's write lock and the new
    /// routing table is published *before* that lock is released, so
    /// concurrent operations on the split shard either complete against
    /// the pre-split layout or observe the move and re-route; readers
    /// and writers of every other shard are never blocked.
    ///
    /// # Errors
    ///
    /// Refused (changing nothing) when `shard` does not exist, when
    /// `at` falls outside the shard's routed span, when either side of
    /// the split would hold no entries, or when the shard structure
    /// declines the handoff ([`RebalanceError::Refused`]).
    pub fn split_shard(&self, shard: usize, at: K) -> Result<usize, RebalanceError> {
        let _serial = self.inner.rebalances.lock();
        let table = self.table();
        let shard_count = table.shards.len();
        if shard >= shard_count {
            return Err(RebalanceError::NoSuchShard { shard, shard_count });
        }
        // The new boundary must keep `bounds` strictly increasing.
        if shard > 0 && at <= table.bounds[shard - 1] {
            return Err(RebalanceError::BoundaryOutOfSpan);
        }
        if shard < table.bounds.len() && at >= table.bounds[shard] {
            return Err(RebalanceError::BoundaryOutOfSpan);
        }
        let source = Arc::clone(&table.shards[shard]);
        let mut guard = source.write();
        // Cheap pre-checks (one cursor step each, no bulk copy): both
        // sides of the split must end up non-empty.
        if guard
            .range((Bound::Included(at), Bound::Unbounded))
            .next()
            .is_none()
            || guard
                .range((Bound::Unbounded, Bound::Excluded(at)))
                .next()
                .is_none()
        {
            return Err(RebalanceError::EmptySide);
        }
        let upper = guard.split_off_tail(&at).ok_or(RebalanceError::Refused)?;
        let moved = upper.len();
        let mut bounds = table.bounds.clone();
        bounds.insert(shard, at);
        let mut shards = table.shards.clone();
        shards.insert(shard + 1, Arc::new(SeqRwLock::new(upper)));
        // Publish the new table (one pointer swap + version bump; the
        // bump is what route-then-validate revalidates against) while
        // still holding the source shard's write lock: any operation
        // that routed here under the old table observes the bump or
        // the new table and re-routes.
        self.inner.routing.publish(Table { bounds, shards });
        drop(guard);
        Ok(moved)
    }

    /// Merges shard `shard + 1` into shard `shard`: the right shard's
    /// entries bulk-move left, the boundary between them disappears,
    /// and the right shard is retired. Returns the number of entries
    /// moved.
    ///
    /// The move is the shard structure's own append
    /// ([`SortedIndex::absorb_tail`] — the FITing-Tree hands the right
    /// shard's whole segment run over), so the merge costs **O(moved
    /// segments)** with no re-segmentation or per-entry copying. There
    /// is no other path: a structure that declines the append refuses
    /// the merge.
    ///
    /// Both shards' write locks are held across the move and the
    /// routing-table publish, so concurrent operations on either shard
    /// re-route cleanly; every other shard proceeds untouched.
    ///
    /// # Errors
    ///
    /// Refused (changing nothing) when `shard + 1` does not name an
    /// existing shard, or when the shard structure declines the append
    /// ([`RebalanceError::Refused`]).
    pub fn merge_with_next(&self, shard: usize) -> Result<usize, RebalanceError> {
        let _serial = self.inner.rebalances.lock();
        let table = self.table();
        let shard_count = table.shards.len();
        if shard + 1 >= shard_count {
            return Err(RebalanceError::NoSuchShard {
                shard: shard + 1,
                shard_count,
            });
        }
        let keep = Arc::clone(&table.shards[shard]);
        let retire = Arc::clone(&table.shards[shard + 1]);
        // lock-order: ascending table position — keep (shard) before
        // retire (shard + 1). Other operations hold at most one shard
        // lock at a time and rebalances are serialized, so holding two
        // adjacent locks here cannot deadlock.
        let mut keep_guard = keep.write();
        let mut retire_guard = retire.write();
        let moved = retire_guard.len();
        if !keep_guard.absorb_tail(&mut retire_guard) {
            return Err(RebalanceError::Refused);
        }
        let mut bounds = table.bounds.clone();
        bounds.remove(shard);
        let mut shards = table.shards.clone();
        shards.remove(shard + 1);
        // Publish before releasing either write lock, exactly as in
        // split_shard — the version bump is the re-route signal.
        self.inner.routing.publish(Table { bounds, shards });
        drop(retire_guard);
        drop(keep_guard);
        Ok(moved)
    }

    fn from_table(table: Table<K, I>) -> Self {
        ShardedIndex {
            inner: Arc::new(Inner {
                routing: Snapshots::new(table),
                rebalances: Mutex::new(()),
            }),
            _values: std::marker::PhantomData,
        }
    }

    /// Clones the current routing-table handle — the *cold* fetch
    /// (publisher mutex + `Arc` clone) used by rebalances, stats, and
    /// whole-index walks. Hot point operations pin the thread-cached
    /// snapshot through `self.inner.routing.read` instead.
    fn table(&self) -> Arc<Table<K, I>> {
        self.inner.routing.current()
    }

    /// The slow half of route-then-validate, for an operation that
    /// routed `key` to `shard`, entered it (read section or write
    /// lock), and then saw a newer routing version than it pinned:
    /// re-fetch the table and ask whether it still routes `key` here
    /// (see `Table::owns`). The fast half — version unchanged, so the
    /// routing is current by construction, because a rebalance
    /// publishes before releasing the shard write locks it holds —
    /// stays inline in the callers.
    fn still_owns(&self, shard: &Arc<SeqRwLock<I>>, key: &K) -> bool {
        let cur = self.table();
        cur.owns(cur.shard_for(key), shard)
    }

    /// Runs `f` with shared access to the shard that owns `key` under
    /// the *current* routing table, retrying if a concurrent rebalance
    /// moves the key's boundary between routing and shard entry.
    ///
    /// Steady state (warm thread cache, no concurrent rebalance, no
    /// writer inside the shard) performs **zero lock acquisitions and
    /// zero `Arc` clones**: the routing pin is a thread-local version
    /// check and the shard entry is a presence-slot announcement.
    fn read_owner<R>(&self, key: &K, f: impl FnOnce(&I) -> R) -> R {
        let routing = &self.inner.routing;
        let mut f = Some(f);
        loop {
            let done = routing.read(|version, table| {
                let shard = &table.shards[table.shard_for(key)];
                shard.read_with(|s| {
                    (routing.version() == version || self.still_owns(shard, key))
                        .then(|| (f.take().expect("resolved on first success"))(s))
                })
            });
            if let Some(r) = done {
                return r;
            }
        }
    }

    /// Exclusive-access counterpart of [`read_owner`](Self::read_owner)
    /// — same route-then-validate protocol, entering the shard's write
    /// side (which waits for in-flight readers to drain).
    fn write_owner<R>(&self, key: &K, f: impl FnOnce(&mut I) -> R) -> R {
        let routing = &self.inner.routing;
        let mut f = Some(f);
        loop {
            let done = routing.read(|version, table| {
                let shard = &table.shards[table.shard_for(key)];
                let mut guard = shard.write();
                (routing.version() == version || self.still_owns(shard, key))
                    .then(|| (f.take().expect("resolved on first success"))(&mut guard))
            });
            if let Some(r) = done {
                return r;
            }
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.table().shards.len()
    }

    /// The current boundary keys, in increasing order: `boundaries()[i]`
    /// is the smallest key routed to shard `i + 1`. Empty for a
    /// single-shard index. A snapshot — rebalancing may move them.
    #[must_use]
    pub fn boundaries(&self) -> Vec<K> {
        self.table().bounds.clone()
    }

    /// Index of the shard that owns `key` — the routing function,
    /// exposed so layers above can partition work per shard without
    /// taking any lock. A snapshot: a concurrent rebalance can re-route
    /// the key before the caller acts on the answer (every multi-key
    /// operation on this type revalidates internally instead of
    /// trusting a stale answer).
    #[must_use]
    pub fn shard_of(&self, key: &K) -> usize {
        self.inner.routing.read(|_, table| table.shard_for(key))
    }

    /// Counters for the wait-free read path — see [`RoutingStats`].
    #[must_use]
    pub fn routing_stats(&self) -> RoutingStats {
        let s = self.inner.routing.stats();
        let contended = self
            .table()
            .shards
            .iter()
            .map(|sh| sh.contended_reads())
            .sum();
        RoutingStats {
            version: s.version,
            publishes: s.publishes,
            refreshes: s.refreshes,
            contended_reads: contended,
        }
    }

    /// The key span shard `shard` currently routes, as
    /// `(lower, upper)` bounds: `lower` is `None` for shard 0
    /// (unbounded below), `upper` is `None` for the last shard. `None`
    /// altogether when `shard` does not exist.
    #[must_use]
    pub(crate) fn shard_span(&self, shard: usize) -> Option<(Option<K>, Option<K>)> {
        let table = self.table();
        if shard >= table.shards.len() {
            return None;
        }
        let lo = if shard == 0 {
            None
        } else {
            Some(table.bounds[shard - 1])
        };
        Some((lo, table.bounds.get(shard).copied()))
    }

    /// The median key currently stored in shard `shard` (the entry at
    /// position `len / 2` in key order), or `None` when the shard does
    /// not exist or holds fewer than two entries. With strictly
    /// increasing keys the result is always greater than the shard's
    /// first key, so it is a valid [`split_shard`] point — the
    /// fallback split boundary when no sampled median is available.
    ///
    /// Cost caveat: the generic [`SortedIndex::range`] iterator yields
    /// owned pairs, so reaching position `len / 2` clones half the
    /// shard's values inside its read section (`Map::nth` steps the
    /// scan an entry at a time; the run-copying
    /// [`SortedIndex::range_into`] path does not change that). Fine as
    /// the rare sampler-miss fallback it exists for; prefer feeding the
    /// [`WriteSampler`](crate::WriteSampler) so the sampled median is
    /// used instead.
    ///
    /// [`split_shard`]: Self::split_shard
    #[must_use]
    pub(crate) fn shard_median(&self, shard: usize) -> Option<K> {
        let table = self.table();
        table.shards.get(shard)?.read_with(|s| {
            let n = s.len();
            if n < 2 {
                return None;
            }
            s.range(..).nth(n / 2).map(|(k, _)| k)
        })
    }

    /// Point lookup inside the owning shard's read section; clones the
    /// value out. Wait-free in steady state: the routing snapshot comes
    /// from this thread's cache and the shard read is seqlock-optimistic,
    /// so a quiescent index costs zero locks and zero `Arc` clones.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.read_owner(key, |shard| shard.get(key).cloned())
    }

    /// Upsert under the owning shard's write lock.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.write_owner(&key, |shard| shard.insert(key, value))
    }

    /// Remove under the owning shard's write lock.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.write_owner(key, |shard| shard.remove(key))
    }

    /// The one grouped-write loop: buckets `items` by owning shard,
    /// takes each involved shard's write lock **once** per pass (in
    /// ascending shard order, one lock at a time), and hands `apply`
    /// the items that shard still owns under the table current *inside*
    /// the lock (see `Table::owns`). Items a concurrent rebalance
    /// re-routed between bucketing and locking are re-bucketed against
    /// the new layout on the next pass — so every item reaches `apply`
    /// exactly once, with the shard that owns its key at that moment,
    /// and a key's items keep their submitted order (bucketing is
    /// stable and a key's items always share a bucket).
    ///
    /// Returns the number of write-lock acquisitions taken.
    fn write_groups<T>(
        &self,
        items: Vec<(K, T)>,
        mut apply: impl FnMut(&mut I, Vec<(K, T)>),
    ) -> usize {
        let mut pending = items;
        let mut locks = 0;
        while !pending.is_empty() {
            let table = self.table();
            let mut groups: Vec<Vec<(K, T)>> =
                (0..table.shards.len()).map(|_| Vec::new()).collect();
            for (k, t) in std::mem::take(&mut pending) {
                groups[table.shard_for(&k)].push((k, t));
            }
            for (shard, group) in table.shards.iter().zip(groups) {
                if group.is_empty() {
                    continue;
                }
                let mut guard = shard.write();
                locks += 1;
                let cur = self.table();
                let mut owned = Vec::with_capacity(group.len());
                for (k, t) in group {
                    if cur.owns(cur.shard_for(&k), shard) {
                        owned.push((k, t));
                    } else {
                        pending.push((k, t));
                    }
                }
                if !owned.is_empty() {
                    apply(&mut guard, owned);
                }
            }
        }
        locks
    }

    /// Batched insert: groups the batch by destination shard, then
    /// takes each destination's write lock **once** and applies that
    /// group through [`SortedIndex::insert_many`] — for `b` keys
    /// across `s` shards, `min(b, s)` lock acquisitions instead of `b`,
    /// plus whatever batch amortization the shard structure's own
    /// `insert_many` provides. Keys whose boundary a concurrent
    /// rebalance moves mid-batch are transparently re-grouped and
    /// retried, so none are lost or misplaced.
    ///
    /// Returns the number of keys that were new (not overwrites).
    pub fn insert_many<It: IntoIterator<Item = (K, V)>>(&self, batch: It) -> usize {
        let mut fresh = 0;
        self.write_groups(batch.into_iter().collect(), |shard, owned| {
            fresh += shard.insert_many(owned);
        });
        fresh
    }

    /// Refusal-aware counterpart of
    /// [`insert_many`](Self::insert_many): applies each shard's group
    /// through [`SortedIndex::try_insert_many`] and returns `(fresh,
    /// refused)` — `refused` counts keys whose owning shard is
    /// degraded and did **not** apply them. Groups for healthy shards
    /// still apply even when another shard refuses, so one dying shard
    /// does not block writes routed elsewhere.
    pub fn insert_many_reporting<It: IntoIterator<Item = (K, V)>>(
        &self,
        batch: It,
    ) -> (usize, usize) {
        let mut fresh = 0;
        let mut refused = 0;
        self.write_groups(batch.into_iter().collect(), |shard, owned| {
            let n = owned.len();
            match shard.try_insert_many(owned) {
                Ok(f) => fresh += f,
                Err(_) => refused += n,
            }
        });
        (fresh, refused)
    }

    /// Applies `f` to every `(key, payload)` item under the owning
    /// shard's write lock, one acquisition per involved shard per pass,
    /// revalidating against concurrent rebalances: `f` runs exactly
    /// once per item, always against the shard that owns the key at
    /// that moment, and a key's items keep their submitted order.
    /// Returns the number of write-lock acquisitions taken.
    pub fn with_write_groups<T>(
        &self,
        items: Vec<(K, T)>,
        mut f: impl FnMut(&mut I, K, T),
    ) -> usize {
        self.write_groups(items, |shard, owned| {
            for (k, t) in owned {
                f(shard, k, t);
            }
        })
    }

    /// Collects a cross-shard range scan, visiting each overlapping
    /// shard inside its read section in ascending key order.
    ///
    /// Each shard is read atomically; concurrent writers may be
    /// interleaved *between* shards (see the module docs). The walk
    /// follows the *live* routing table from shard to shard, so a
    /// concurrent split or merge neither skips nor repeats a key span —
    /// though, like any cross-shard scan, entries a rebalance moves
    /// between two visits may be seen in their pre- or post-move shard.
    /// Like `get`, each step is wait-free in steady state. Each shard
    /// appends its span through [`SortedIndex::range_into`], so a
    /// structure that can copy runs of entries does.
    #[must_use]
    pub fn range_collect<R: RangeBounds<K>>(&self, range: R) -> Vec<(K, V)> {
        let routing = &self.inner.routing;
        let hi: Bound<K> = range.end_bound().cloned();
        let mut cursor: Bound<K> = range.start_bound().cloned();
        let mut out = Vec::new();
        loop {
            // One step = pin the routing snapshot (thread-cached, no
            // locks), enter the cursor's shard, validate, extend.
            // `None` means the cursor's boundary moved mid-step:
            // re-route against the new table.
            let step = routing.read(|version, table| {
                let sid = table.shard_for_bound(&cursor);
                let shard = &table.shards[sid];
                shard.read_with(|s| {
                    let cur;
                    // Span bounds must come from a table this shard is
                    // validated against — pinned if still current,
                    // else the re-fetched one (same proof as
                    // read_owner's slow path).
                    let (vsid, vbounds) = if routing.version() == version {
                        (sid, &table.bounds)
                    } else {
                        cur = routing.current();
                        let csid = cur.shard_for_bound(&cursor);
                        if !cur.owns(csid, shard) {
                            return None;
                        }
                        (csid, &cur.bounds)
                    };
                    // Upper edge of the validated shard's span (`None`
                    // for the last shard).
                    let shard_hi: Option<K> = vbounds.get(vsid).copied();
                    let last_step = match (shard_hi, &hi) {
                        (None, _) => true,
                        (Some(b), Bound::Included(h)) => *h < b,
                        (Some(b), Bound::Excluded(h)) => *h <= b,
                        (Some(_), Bound::Unbounded) => false,
                    };
                    let step_hi = match (last_step, shard_hi) {
                        (true, _) => hi,
                        (false, Some(b)) => Bound::Excluded(b),
                        (false, None) => unreachable!("non-final steps have a shard boundary"),
                    };
                    s.range_into((cursor, step_hi), &mut out);
                    Some((last_step, shard_hi))
                })
            });
            match step {
                Some((true, _)) => return out,
                Some((false, shard_hi)) => {
                    cursor =
                        Bound::Included(shard_hi.expect("non-final steps have a shard boundary"));
                }
                None => {}
            }
        }
    }

    /// Total entries across shards (each shard counted inside its read
    /// section, one at a time).
    #[must_use]
    pub fn len(&self) -> usize {
        self.table()
            .shards
            .iter()
            .map(|s| s.read_with(SortedIndex::len))
            .sum()
    }

    /// Whether no shard holds any entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table()
            .shards
            .iter()
            .all(|s| s.read_with(SortedIndex::is_empty))
    }

    /// Bytes of index structure: every shard's own accounting plus
    /// [`SHARD_METADATA_BYTES`] per shard for the routing table.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let table = self.table();
        let shards: usize = table
            .shards
            .iter()
            .map(|s| s.read_with(SortedIndex::size_bytes))
            .sum();
        shards + table.shards.len() * SHARD_METADATA_BYTES
    }

    /// Runs `f` on every shard in key order inside its read section
    /// (for stats and invariant checks). Iterates one routing-table
    /// snapshot; a concurrent rebalance can move entries between
    /// not-yet-visited shards mid-iteration.
    pub fn for_each_shard(&self, mut f: impl FnMut(&I)) {
        for shard in &self.table().shards {
            shard.read_with(&mut f);
        }
    }

    // Positional lock accessors (`with_shard_read_at`/`write_at`) were
    // retired with movable boundaries: a shard *index* validated by the
    // caller can be renumbered by a concurrent merge before the call,
    // making their panic contract unsatisfiable. The key-routed and
    // grouped accessors above are the supported forms.

    /// Per-shard entry counts, in shard order (each shard read inside
    /// its own read section, one at a time) — the quick imbalance
    /// probe.
    #[must_use]
    pub fn shard_lens(&self) -> Vec<usize> {
        self.table()
            .shards
            .iter()
            .map(|s| s.read_with(SortedIndex::len))
            .collect()
    }

    /// Per-shard [`ShardStats`] snapshots, in shard order.
    ///
    /// Like every multi-shard read, each shard is sampled atomically
    /// but the vector as a whole is not a consistent cut under
    /// concurrent writes.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.table()
            .shards
            .iter()
            .map(|s| {
                s.read_with(|shard| ShardStats {
                    entries: shard.len(),
                    size_bytes: shard.size_bytes(),
                    disk_bytes: shard.disk_bytes(),
                    wal_bytes: shard.wal_bytes(),
                    health: shard.health(),
                    io_retries: shard.io_retries(),
                })
            })
            .collect()
    }

    /// Flushes every shard's buffered write-ahead log records
    /// ([`SortedIndex::try_sync`]) — the sharded group-commit point the
    /// service worker invokes after draining a batch that contained
    /// writes. Returns `(flushed, failed)`: `failed` counts shards
    /// whose flush refused or errored (i.e. shards now degraded), so a
    /// dying disk shows up in `ServiceStats` instead of being silently
    /// swallowed.
    ///
    /// Each shard is write-locked one at a time (never two locks at
    /// once); for volatile shard structures every call is a no-op and
    /// the cost is one uncontended lock round per shard.
    pub fn try_sync_all(&self) -> (usize, usize) {
        let mut flushed = 0;
        let mut failed = 0;
        for s in &self.table().shards {
            match s.write().try_sync() {
                Ok(true) => flushed += 1,
                Ok(false) => {}
                Err(_) => failed += 1,
            }
        }
        (flushed, failed)
    }

    /// [`try_sync_all`](Self::try_sync_all) for callers that only want
    /// the number of shards that actually flushed.
    pub fn sync_all(&self) -> usize {
        self.try_sync_all().0
    }

    /// Checkpoints ([`SortedIndex::try_checkpoint`]) every shard whose
    /// write-ahead log has grown to at least `min_wal_bytes`, bounding
    /// recovery replay time. Returns `(checkpointed, failed)`: a failed
    /// checkpoint leaves that shard's previous generation intact and
    /// the shard degraded — the checkpoint coordinator re-arms and
    /// surfaces the count.
    ///
    /// Like [`try_sync_all`](Self::try_sync_all), shards are
    /// write-locked one at a time; volatile shard structures report
    /// `wal_bytes() == 0` and are skipped (unless `min_wal_bytes == 0`,
    /// where the checkpoint call itself is still a no-op for them).
    pub fn try_checkpoint_shards(&self, min_wal_bytes: usize) -> (usize, usize) {
        let mut done = 0;
        let mut failed = 0;
        for s in &self.table().shards {
            let mut shard = s.write();
            if shard.wal_bytes() < min_wal_bytes {
                continue;
            }
            match shard.try_checkpoint() {
                Ok(true) => done += 1,
                Ok(false) => {}
                Err(_) => failed += 1,
            }
        }
        (done, failed)
    }

    /// [`try_checkpoint_shards`](Self::try_checkpoint_shards) for
    /// callers that only want the number of shards checkpointed.
    pub fn checkpoint_shards(&self, min_wal_bytes: usize) -> usize {
        self.try_checkpoint_shards(min_wal_bytes).0
    }

    /// Attempts to heal every [`ShardHealth::Degraded`] shard with an
    /// immediate [`SortedIndex::try_checkpoint`] (ignoring any WAL
    /// threshold — a degraded shard is worth a rotation attempt at any
    /// size). Returns the number of shards healed. Healthy shards are
    /// not touched beyond the health probe.
    pub fn heal_shards(&self) -> usize {
        let mut healed = 0;
        for s in &self.table().shards {
            let mut shard = s.write();
            if shard.health() == ShardHealth::Degraded && shard.try_checkpoint().is_ok() {
                healed += 1;
            }
        }
        healed
    }

    /// Rebuilds shard `idx` in place from its persistent storage
    /// ([`SortedIndex::reload`]) under its write lock, returning what
    /// `reload` reported or `None` when `idx` is out of range.
    ///
    /// Positional on purpose — this is the lane-resurrection path of
    /// the supervised service, which runs lanes 1:1 with shards and
    /// **no** rebalancer, so indices are stable. Under a concurrent
    /// rebalance the index may name a different shard by the time the
    /// lock lands; a reload is then wasted work but never unsound (a
    /// structure only ever reloads from its *own* storage).
    pub fn reload_shard(&self, idx: usize) -> Option<bool> {
        let table = self.table();
        let shard = table.shards.get(idx)?;
        let reloaded = shard.write().reload();
        Some(reloaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::Degraded;
    use crate::BinarySearchIndex;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn load(n: u64, shards: usize) -> ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> {
        ShardedIndex::bulk_load(&(), shards, (0..n).map(|k| (k * 2, k)).collect()).unwrap()
    }

    /// Position of the fullest shard — where the storm tests split.
    fn hottest_shard<I: SortedIndex<u64, u64> + 'static>(idx: &ShardedIndex<u64, u64, I>) -> usize {
        let lens = idx.shard_lens();
        (0..lens.len())
            .max_by_key(|&i| lens[i])
            .expect("at least one shard")
    }

    #[test]
    fn routing_respects_boundaries() {
        let idx = load(10_000, 8);
        assert_eq!(idx.shard_count(), 8);
        for k in (0..10_000u64).step_by(97) {
            assert_eq!(idx.get(&(k * 2)), Some(k));
            assert_eq!(idx.get(&(k * 2 + 1)), None);
        }
        assert_eq!(idx.len(), 10_000);
    }

    #[test]
    fn single_shard_and_empty_degenerate() {
        let idx = load(100, 1);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.len(), 100);

        let empty: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 4, Vec::new()).unwrap();
        assert_eq!(empty.shard_count(), 1, "no boundary candidates");
        assert!(empty.is_empty());
        assert_eq!(empty.insert(5, 5), None);
        assert_eq!(empty.get(&5), Some(5));
        assert_eq!(empty.range_collect(..).len(), 1);

        // `from_shards` wraps an already-built structure as one shard
        // with the full API.
        let built = BinarySearchIndex::build_sorted(&(), vec![(1u64, 1u64), (3, 3)]).unwrap();
        let wrapped = ShardedIndex::from_shards(Vec::new(), vec![built]);
        assert_eq!(wrapped.shard_count(), 1);
        assert_eq!(wrapped.insert(2, 2), None);
        assert_eq!(wrapped.range_collect(2..), vec![(2, 2), (3, 3)]);
        assert_eq!(wrapped.remove(&1), Some(1));
        assert_eq!(wrapped.len(), 2);
    }

    #[test]
    fn cross_shard_ranges_match_model() {
        let idx = load(5_000, 7);
        let model: Vec<(u64, u64)> = (0..5_000).map(|k| (k * 2, k)).collect();
        for (lo, hi) in [
            (0u64, 9_998u64),
            (1_111, 7_777),
            (4_000, 4_002),
            (9_999, 10_000),
        ] {
            let got = idx.range_collect(lo..=hi);
            let want: Vec<(u64, u64)> = model
                .iter()
                .copied()
                .filter(|&(k, _)| k >= lo && k <= hi)
                .collect();
            assert_eq!(got, want, "range {lo}..={hi}");
        }
        assert_eq!(idx.range_collect(..), model);
        assert_eq!(idx.range_collect(..20).len(), 10);
        assert_eq!(idx.range_collect(9_990..).len(), 5);
    }

    #[test]
    fn inverted_ranges_are_empty_not_panics() {
        // Bound tuples spell out the inversion (a plain `9_000..10`
        // literal trips clippy::reversed_empty_ranges).
        let reversed = (Bound::Included(9_000u64), Bound::Excluded(10u64));
        // Endpoints on different shards, reversed.
        let idx = load(5_000, 8);
        assert_eq!(idx.range_collect(reversed), Vec::new());
        assert_eq!(
            idx.range_collect((Bound::Excluded(9_000u64), Bound::Included(10u64))),
            Vec::new()
        );
        // Same behavior on the single-shard compatibility path.
        let one = load(5_000, 1);
        assert_eq!(one.range_collect(reversed), Vec::new());
    }

    #[test]
    fn insert_many_groups_by_shard() {
        let idx = load(1_000, 4);
        let fresh = idx.insert_many((0..500u64).map(|k| (k * 4 + 1, k)));
        assert_eq!(fresh, 500);
        // Overwrites are not fresh: 1 and 5 already exist, 2_001 is new.
        let fresh = idx.insert_many(vec![(1, 9), (5, 9), (2_001, 9)]);
        assert_eq!(fresh, 1);
        assert_eq!(idx.len(), 1_501);
        assert_eq!(idx.get(&1), Some(9));
    }

    #[test]
    fn shared_handles_see_each_others_writes() {
        let idx = load(1_000, 4);
        let writer = idx.clone();
        let t = thread::spawn(move || {
            for k in 0..500u64 {
                writer.insert(k * 2 + 1, k);
            }
        });
        t.join().unwrap();
        assert_eq!(idx.len(), 1_500);
    }

    #[test]
    fn size_accounts_for_routing_metadata() {
        let idx = load(1_000, 4);
        let mut shard_total = 0;
        idx.for_each_shard(|s| shard_total += s.size_bytes());
        assert_eq!(idx.size_bytes(), shard_total + 4 * SHARD_METADATA_BYTES);
    }

    #[test]
    fn skewed_boundaries_dedup() {
        // All keys equal quantiles: duplicate boundary candidates must
        // collapse rather than produce empty shards out of order.
        let pairs: Vec<(u64, u64)> = (0..4).map(|k| (k, k)).collect();
        let idx: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 16, pairs).unwrap();
        assert!(idx.shard_count() <= 4);
        assert_eq!(idx.len(), 4);
        for k in 0..4u64 {
            assert_eq!(idx.get(&k), Some(k));
        }
    }

    /// Per build, in call order: the first key it was fed, the items it
    /// consumed, and its input's `size_hint().0` on entry.
    type Builds = Arc<Mutex<Vec<(Option<u64>, usize, usize)>>>;

    /// A [`BinarySearchIndex`] whose builds record what they were fed.
    #[derive(Debug)]
    struct Counting(BinarySearchIndex<u64, u64>);

    impl SortedIndex<u64, u64> for Counting {
        type RangeIter<'a> = <BinarySearchIndex<u64, u64> as SortedIndex<u64, u64>>::RangeIter<'a>;

        fn get(&self, key: &u64) -> Option<&u64> {
            self.0.get(key)
        }
        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
            self.0.insert(key, value)
        }
        fn remove(&mut self, key: &u64) -> Option<u64> {
            self.0.remove(key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn range<R: RangeBounds<u64>>(&self, range: R) -> Self::RangeIter<'_> {
            self.0.range(range)
        }
    }

    impl BuildableIndex<u64, u64> for Counting {
        type Config = Builds;
        type BuildError = std::convert::Infallible;

        fn build_from(
            builds: &Builds,
            sorted: impl IntoIterator<Item = (u64, u64)>,
        ) -> Result<Self, Self::BuildError> {
            let sorted = sorted.into_iter();
            let hint = sorted.size_hint().0;
            let inner = BinarySearchIndex::build_from(&(), sorted)?;
            let first = inner.range(..).next().map(|(k, _)| k);
            builds.lock().push((first, inner.len(), hint));
            Ok(Counting(inner))
        }
    }

    #[test]
    fn bulk_load_builds_each_shard_once_from_its_exact_span() {
        for (n, shards) in [(10_000u64, 8), (7, 16), (0, 4)] {
            let builds: Builds = Arc::new(Mutex::new(Vec::new()));
            let idx: ShardedIndex<u64, u64, Counting> =
                ShardedIndex::bulk_load(&builds, shards, (0..n).map(|k| (k * 2, k)).collect())
                    .unwrap();
            let builds = builds.lock();
            let ctx = format!("n={n} shards={shards}");
            // One pass: every pair consumed once, one build per shard.
            assert_eq!(
                builds.iter().map(|b| b.1).sum::<usize>(),
                n as usize,
                "{ctx}"
            );
            assert_eq!(builds.len(), idx.shard_count(), "{ctx}");
            // In key order, each span starting at its boundary and
            // holding exactly what routing sends its shard.
            let firsts: Vec<Option<u64>> = builds.iter().map(|b| b.0).collect();
            let mut want: Vec<Option<u64>> = vec![(n > 0).then_some(0)];
            want.extend(idx.boundaries().into_iter().map(Some));
            assert_eq!(firsts, want, "{ctx}");
            let items: Vec<usize> = builds.iter().map(|b| b.1).collect();
            assert_eq!(items, idx.shard_lens(), "{ctx}");
            // Exact hints: a build sizes its storage once.
            for &(first, items, hint) in builds.iter() {
                assert_eq!(hint, items, "{ctx}: span at {first:?}");
            }
        }
    }

    #[test]
    fn split_moves_upper_run_and_reroutes() {
        let idx = load(1_000, 2); // keys 0..2000 even; boundary at 1000
        assert_eq!(idx.boundaries(), vec![1_000]);
        let before: Vec<usize> = idx.shard_lens();
        assert_eq!(before, vec![500, 500]);

        // Split shard 1 (keys 1000..1998) at 1500.
        let moved = idx.split_shard(1, 1_500).unwrap();
        assert_eq!(moved, 250);
        assert_eq!(idx.shard_count(), 3);
        assert_eq!(idx.boundaries(), vec![1_000, 1_500]);
        assert_eq!(idx.shard_lens(), vec![500, 250, 250]);
        assert_eq!(idx.len(), 1_000);

        // Every key still resolves, on both sides of the new boundary.
        for k in 0..1_000u64 {
            assert_eq!(idx.get(&(k * 2)), Some(k), "key {}", k * 2);
        }
        // Routing sends new writes to the right place.
        assert_eq!(idx.shard_of(&1_499), 1);
        assert_eq!(idx.shard_of(&1_500), 2);
        idx.insert(1_501, 42);
        assert_eq!(idx.shard_lens(), vec![500, 250, 251]);
        // Cross-boundary range scans stitch the split shards together.
        assert_eq!(idx.range_collect(1_400..1_600).len(), 101);
    }

    #[test]
    fn merge_absorbs_right_neighbor() {
        let idx = load(1_000, 4);
        let bounds_before = idx.boundaries();
        let moved = idx.merge_with_next(1).unwrap();
        assert_eq!(moved, 250);
        assert_eq!(idx.shard_count(), 3);
        assert_eq!(idx.len(), 1_000);
        // The boundary between shards 1 and 2 is gone; the others hold.
        assert_eq!(idx.boundaries(), vec![bounds_before[0], bounds_before[2]],);
        for k in (0..1_000u64).step_by(7) {
            assert_eq!(idx.get(&(k * 2)), Some(k));
        }
        assert_eq!(idx.range_collect(..).len(), 1_000);
    }

    #[test]
    fn split_validation_rejects_bad_boundaries() {
        let idx = load(1_000, 2); // boundary at 1000
        let count = idx.shard_count();
        assert_eq!(
            idx.split_shard(5, 1_500),
            Err(RebalanceError::NoSuchShard {
                shard: 5,
                shard_count: count
            })
        );
        // Outside shard 1's span (≤ its lower bound / ≥ next bound).
        assert_eq!(
            idx.split_shard(1, 1_000),
            Err(RebalanceError::BoundaryOutOfSpan)
        );
        assert_eq!(
            idx.split_shard(0, 1_000),
            Err(RebalanceError::BoundaryOutOfSpan)
        );
        // Inside the span but above every key in the shard: the upper
        // side would be empty.
        assert_eq!(idx.split_shard(1, 1_999), Err(RebalanceError::EmptySide));
        // At or below the shard's first key: the lower side would be
        // empty (0 is shard 0's minimum, so everything moves).
        assert_eq!(idx.split_shard(0, 0), Err(RebalanceError::EmptySide));
        // Nothing changed.
        assert_eq!(idx.shard_count(), 2);
        assert_eq!(idx.len(), 1_000);

        // Merge off the end is refused too.
        assert_eq!(
            idx.merge_with_next(1),
            Err(RebalanceError::NoSuchShard {
                shard: 2,
                shard_count: 2
            })
        );

        // A structure that declines the handoff refuses a valid move,
        // and nothing is copied behind its back.
        let (idx, applied) = load_probe(1_000, 2);
        idx.write_owner(&0, |shard| shard.refuse = true);
        let before = idx.range_collect(..);
        assert_eq!(idx.split_shard(0, 500), Err(RebalanceError::Refused));
        assert_eq!(idx.merge_with_next(0), Err(RebalanceError::Refused));
        assert_eq!(idx.boundaries(), vec![1_000]);
        assert_eq!(idx.shard_lens(), vec![500, 500]);
        assert_eq!(idx.range_collect(..), before);
        assert_eq!(applied.load(Ordering::Relaxed), 0, "no insert_many copy");
    }

    #[test]
    fn split_and_merge_round_trip_preserves_contents() {
        let idx = load(2_000, 3);
        let model = idx.range_collect(..);
        for _ in 0..4 {
            let hot = hottest_shard(&idx);
            let at = idx.shard_median(hot).unwrap();
            idx.split_shard(hot, at).unwrap();
        }
        assert_eq!(idx.shard_count(), 7);
        assert_eq!(idx.range_collect(..), model);
        while idx.shard_count() > 3 {
            idx.merge_with_next(0).unwrap();
        }
        assert_eq!(idx.range_collect(..), model);
        assert_eq!(idx.len(), model.len());
    }

    #[test]
    fn concurrent_readers_survive_split_storm() {
        // Readers hammer a fixed key set while the main thread splits
        // and merges; every lookup must hit (no key is ever unroutable
        // mid-rebalance).
        let idx = load(4_000, 2);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..2 {
            let idx = idx.clone();
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                let mut hits = 0u64;
                // At least one full pass even if the storm finishes
                // before this thread is scheduled.
                loop {
                    for k in (t..4_000u64).step_by(37) {
                        assert_eq!(idx.get(&(k * 2)), Some(k), "lost key {}", k * 2);
                        hits += 1;
                    }
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return hits;
                    }
                }
            }));
        }
        for _ in 0..6 {
            let hot = hottest_shard(&idx);
            if let Some(at) = idx.shard_median(hot) {
                let _ = idx.split_shard(hot, at);
            }
        }
        while idx.shard_count() > 2 {
            idx.merge_with_next(0).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(idx.len(), 4_000);
    }

    #[test]
    fn concurrent_writers_survive_split_storm() {
        // Writers insert fresh odd keys while splits/merges run; at the
        // end every write must be present exactly where routing says.
        let idx = load(4_000, 2);
        let mut writers = Vec::new();
        for t in 0..2u64 {
            let idx = idx.clone();
            writers.push(thread::spawn(move || {
                for i in 0..1_000u64 {
                    let k = (t * 1_000 + i) * 2 + 1;
                    idx.insert(k, k);
                }
            }));
        }
        for _ in 0..8 {
            let hot = hottest_shard(&idx);
            if let Some(at) = idx.shard_median(hot) {
                let _ = idx.split_shard(hot, at);
            }
            if idx.shard_count() > 3 {
                let _ = idx.merge_with_next(0);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(idx.len(), 6_000);
        for t in 0..2u64 {
            for i in (0..1_000u64).step_by(13) {
                let k = (t * 1_000 + i) * 2 + 1;
                assert_eq!(idx.get(&k), Some(k), "lost write {k}");
            }
        }
    }

    /// [`BinarySearchIndex`] plus what the grouped-kernel tests need to observe:
    /// a shared count of items handed to the batch entry points, a
    /// refusal switch (batches and run handoffs alike), and a one-shot
    /// thread-local hook run inside the first batch apply — i.e. while
    /// the kernel holds that shard's write lock, which is how a test
    /// lands a rebalance *mid-pass* deterministically instead of hoping
    /// a storm does.
    #[derive(Debug)]
    struct Probe {
        inner: BinarySearchIndex<u64, u64>,
        applied: Arc<AtomicUsize>,
        refuse: bool,
    }

    thread_local! {
        static MID_PASS: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    fn run_mid_pass_hook() {
        let hook = MID_PASS.with(|h| h.borrow_mut().take());
        if let Some(hook) = hook {
            hook();
        }
    }

    impl SortedIndex<u64, u64> for Probe {
        type RangeIter<'a> = <BinarySearchIndex<u64, u64> as SortedIndex<u64, u64>>::RangeIter<'a>;

        fn get(&self, key: &u64) -> Option<&u64> {
            self.inner.get(key)
        }
        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
            self.inner.insert(key, value)
        }
        fn remove(&mut self, key: &u64) -> Option<u64> {
            self.inner.remove(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn range<R: RangeBounds<u64>>(&self, range: R) -> Self::RangeIter<'_> {
            self.inner.range(range)
        }
        fn insert_many(&mut self, batch: Vec<(u64, u64)>) -> usize {
            run_mid_pass_hook();
            self.applied.fetch_add(batch.len(), Ordering::Relaxed);
            self.inner.insert_many(batch)
        }
        fn try_insert_many(&mut self, batch: Vec<(u64, u64)>) -> Result<usize, Degraded> {
            if self.refuse {
                return Err(Degraded);
            }
            Ok(self.insert_many(batch))
        }
        fn split_off_tail(&mut self, at: &u64) -> Option<Self> {
            if self.refuse {
                return None;
            }
            Some(Probe {
                inner: self.inner.split_off_tail(at)?,
                applied: Arc::clone(&self.applied),
                refuse: false,
            })
        }
        fn absorb_tail(&mut self, other: &mut Self) -> bool {
            !self.refuse && self.inner.absorb_tail(&mut other.inner)
        }
    }

    impl BuildableIndex<u64, u64> for Probe {
        type Config = Arc<AtomicUsize>;
        type BuildError = std::convert::Infallible;

        fn build_from(
            applied: &Self::Config,
            sorted: impl IntoIterator<Item = (u64, u64)>,
        ) -> Result<Self, Self::BuildError> {
            Ok(Probe {
                inner: BinarySearchIndex::build_from(&(), sorted)?,
                applied: Arc::clone(applied),
                refuse: false,
            })
        }
    }

    /// Even keys `0..2n` over `shards` shards of [`Probe`].
    fn load_probe(n: u64, shards: usize) -> (ShardedIndex<u64, u64, Probe>, Arc<AtomicUsize>) {
        let applied = Arc::new(AtomicUsize::new(0));
        let pairs = (0..n).map(|k| (k * 2, k)).collect();
        let idx = ShardedIndex::bulk_load(&applied, shards, pairs).unwrap();
        (idx, applied)
    }

    /// The three public forms of the grouped kernel, each applying
    /// `items` as upserts and counting what it applied in `applied`.
    type Wrapper = fn(&ShardedIndex<u64, u64, Probe>, Vec<(u64, u64)>, &AtomicUsize);

    const WRAPPERS: [(&str, Wrapper); 3] = [
        ("insert_many", |idx, items, _| {
            idx.insert_many(items);
        }),
        ("insert_many_reporting", |idx, items, _| {
            let (_, refused) = idx.insert_many_reporting(items);
            assert_eq!(refused, 0);
        }),
        ("with_write_groups", |idx, items, applied| {
            idx.with_write_groups(items, |shard, k, v| {
                run_mid_pass_hook();
                applied.fetch_add(1, Ordering::Relaxed);
                shard.insert(k, v);
            });
        }),
    ];

    /// Every shard holds only keys inside the span routing gives it.
    fn assert_every_key_in_its_owner(idx: &ShardedIndex<u64, u64, Probe>) {
        let mut sid = 0;
        idx.for_each_shard(|shard| {
            let (lo, hi) = idx.shard_span(sid).expect("shard exists");
            for (k, _) in shard.range(..) {
                assert!(lo.is_none_or(|lo| k >= lo), "key {k} below shard {sid}");
                assert!(hi.is_none_or(|hi| k < hi), "key {k} above shard {sid}");
            }
            sid += 1;
        });
    }

    #[test]
    fn grouped_kernel_rebuckets_items_a_mid_pass_rebalance_moved() {
        for (name, wrapper) in WRAPPERS {
            // Shards [0, 1000) [1000, 2000) [2000, ∞); odd keys across
            // all three.
            let (idx, applied) = load_probe(1_500, 3);
            assert_eq!(idx.boundaries(), vec![1_000, 2_000], "{name}");
            let items: Vec<(u64, u64)> = (0..300u64).map(|i| (i * 10 + 1, i)).collect();
            // While the kernel holds shard 0 (first group, ascending
            // order): split shard 1 at 1500, then merge the old shard 2
            // into the new upper half. The already-bucketed shard-1
            // group now owns only its keys below 1500, and the shard-2
            // group's shard is retired outright.
            let rebalancer = idx.clone();
            MID_PASS.with(|h| {
                *h.borrow_mut() = Some(Box::new(move || {
                    rebalancer.split_shard(1, 1_500).unwrap();
                    rebalancer.merge_with_next(2).unwrap();
                }));
            });
            wrapper(&idx, items.clone(), &applied);
            assert!(MID_PASS.with(|h| h.borrow().is_none()), "{name}: hook ran");
            assert_eq!(idx.boundaries(), vec![1_000, 1_500], "{name}");
            assert_eq!(applied.load(Ordering::Relaxed), 300, "{name}: once each");
            assert_eq!(idx.len(), 1_800, "{name}");
            for (k, v) in items {
                assert_eq!(idx.get(&k), Some(v), "{name}: lost {k}");
            }
            assert_every_key_in_its_owner(&idx);
        }
    }

    #[test]
    fn grouped_kernel_survives_a_split_merge_storm() {
        // One writer thread per wrapper pushes disjoint odd keys in
        // batches that span every shard while this thread splits and
        // merges; the barrier starts the storm with the writers.
        let (idx, applied) = load_probe(4_000, 2);
        let start = Arc::new(std::sync::Barrier::new(WRAPPERS.len() + 1));
        let writers: Vec<_> = WRAPPERS
            .into_iter()
            .enumerate()
            .map(|(t, (_, wrapper))| {
                let (idx, applied, start) = (idx.clone(), Arc::clone(&applied), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    for batch in 0..20u64 {
                        let items = (0..50u64)
                            .map(|i| ((i * 60 + batch * 3 + t as u64) * 2 + 1, i))
                            .collect();
                        wrapper(&idx, items, &applied);
                    }
                })
            })
            .collect();
        start.wait();
        for _ in 0..12 {
            let hot = hottest_shard(&idx);
            if let Some(at) = idx.shard_median(hot) {
                let _ = idx.split_shard(hot, at);
            }
            if idx.shard_count() > 3 {
                let _ = idx.merge_with_next(0);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(applied.load(Ordering::Relaxed), 3_000, "once each");
        assert_eq!(idx.len(), 7_000);
        for t in 0..3u64 {
            for batch in 0..20u64 {
                for i in 0..50u64 {
                    let k = (i * 60 + batch * 3 + t) * 2 + 1;
                    assert_eq!(idx.get(&k), Some(i), "lost write {k}");
                }
            }
        }
        assert_every_key_in_its_owner(&idx);
    }

    #[test]
    fn insert_many_reporting_counts_a_refusing_shards_keys() {
        let (idx, _) = load_probe(1_500, 3);
        idx.write_owner(&1_200, |shard| shard.refuse = true);
        // Per shard: two new odd keys and one overwrite.
        let batch = vec![
            (1, 7),
            (3, 7),
            (4, 7),
            (1_201, 7),
            (1_203, 7),
            (1_204, 7),
            (2_201, 7),
            (2_203, 7),
            (2_204, 7),
        ];
        assert_eq!(idx.insert_many_reporting(batch), (4, 3));
        // The refusing shard applied nothing; the healthy ones all of
        // theirs.
        assert_eq!(idx.shard_lens(), vec![502, 500, 502]);
        assert_eq!(idx.get(&1_201), None);
        assert_eq!(idx.get(&1_204), Some(602));
        assert_eq!(idx.get(&4), Some(7));
        assert_eq!(idx.get(&2_203), Some(7));
        // `with_write_groups` reports one lock per involved shard.
        let locks = idx.with_write_groups(vec![(5, ()), (7, ()), (2_205, ())], |_, _, ()| {});
        assert_eq!(locks, 2);
    }

    #[test]
    fn spans_and_medians_describe_current_layout() {
        let idx = load(1_000, 2);
        assert_eq!(idx.shard_span(0), Some((None, Some(1_000))));
        assert_eq!(idx.shard_span(1), Some((Some(1_000), None)));
        assert_eq!(idx.shard_span(2), None);
        let m = idx.shard_median(1).unwrap();
        assert!(m > 1_000 && m < 1_998);
        // A single-entry shard has no usable median.
        let tiny: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 1, vec![(1, 1)]).unwrap();
        assert_eq!(tiny.shard_median(0), None);
    }

    #[test]
    fn steady_state_reads_leave_no_counter_trace() {
        let idx = load(2_000, 4);
        // Warm this thread's routing cache, then measure a writer-quiet
        // window: reads must not refresh routing or contend on shards.
        assert_eq!(idx.get(&0), Some(0));
        let before = idx.routing_stats();
        for k in (0..2_000u64).step_by(3) {
            assert_eq!(idx.get(&(k * 2)), Some(k));
        }
        let after = idx.routing_stats();
        assert_eq!(after.refreshes, before.refreshes, "routing cache missed");
        assert_eq!(
            after.contended_reads, before.contended_reads,
            "reader hit a shard slow path with no writer present"
        );
        assert_eq!(after.publishes, before.publishes);

        // A rebalance publishes exactly one new table and the next
        // read revalidates (one refresh), then goes quiet again.
        let at = idx.shard_median(0).unwrap();
        idx.split_shard(0, at).unwrap();
        let bumped = idx.routing_stats();
        assert_eq!(bumped.publishes, after.publishes + 1);
        assert_eq!(bumped.version, after.version + 1);
        assert_eq!(idx.get(&0), Some(0));
        let refreshed = idx.routing_stats();
        assert_eq!(refreshed.refreshes, bumped.refreshes + 1);
    }
}
