//! The unified sorted-index trait family.
//!
//! [`SortedIndex`] is the contract every index structure in the
//! workspace implements — the FITing-Tree, the B+ tree substrate, all
//! three of the paper's baselines, and the durable wrapper over any of
//! them. The benchmark harness, the conformance suite, and the sharded
//! concurrent front-end all drive this trait, reproducing the paper's
//! fairness rule ("we keep the underlying tree implementation the same
//! for all baselines", Section 7.1) at the type level.

use crate::key::Key;
use std::ops::{Bound, RangeBounds};

/// Health of one index structure as its storage layer sees it.
///
/// Volatile structures are always [`Healthy`](ShardHealth::Healthy);
/// durable ones report [`Degraded`](ShardHealth::Degraded) once a
/// permanent storage fault has flipped them read-only (reads keep
/// serving; writes fail fast with [`Degraded`]) until a successful
/// checkpoint heals them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHealth {
    /// Fully operational.
    #[default]
    Healthy,
    /// Read-only: a permanent storage fault is pending; a successful
    /// checkpoint heals it.
    Degraded,
}

/// Typed refusal returned by the `try_*` mutation vocabulary when a
/// structure is in degraded read-only mode: the write was **not**
/// applied and must not be acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded;

impl std::fmt::Display for Degraded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("index shard is degraded (read-only)")
    }
}

impl std::error::Error for Degraded {}

/// A mutable sorted map from [`Key`]s to values: the common interface
/// over every index structure in the workspace.
///
/// # Contract
///
/// * **Key order.** Implementations hold at most one value per key and
///   iterate in strictly increasing key order. Keys obey the [`Key`]
///   monotone-projection contract.
/// * **Upsert.** [`insert`](Self::insert) returns the previous value
///   when the key was present (and must not change
///   [`len`](Self::len) in that case).
/// * **Size accounting.** [`size_bytes`](Self::size_bytes) counts
///   *index structure only* — directory nodes, segment or page
///   metadata — never the table data the index points into. This is
///   the paper's Section 6.2 convention (8-byte keys, slopes, and
///   pointers) and the quantity on the x-axis of Figure 6; a structure
///   that searches the raw data directly (binary search) reports 0.
/// * **Ranges.** [`range`](Self::range) yields owned `(K, V)` pairs,
///   one item type however a structure lays its entries out (the
///   fixed-page baseline merges a page with its insert buffer as it
///   goes); the iterator type is an associated type so tree-backed
///   structures can expose their native cursors without boxing.
/// * **Bulk paths.** Two provided methods exist to be overridden by a
///   structure that can do better than an entry at a time:
///   [`insert_many`](Self::insert_many) on the write side and
///   [`range_into`](Self::range_into) on the scan side (the
///   FITing-Tree copies whole page runs through it).
pub trait SortedIndex<K: Key, V: Clone> {
    /// Iterator returned by [`range`](Self::range), in increasing key
    /// order.
    type RangeIter<'a>: Iterator<Item = (K, V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    /// Display name for benchmark tables.
    fn name(&self) -> &'static str;

    /// Point lookup.
    fn get(&self, key: &K) -> Option<&V>;

    /// Upsert; returns the previous value for an existing key.
    fn insert(&mut self, key: K, value: V) -> Option<V>;

    /// Removes a key; returns its value if it was present.
    fn remove(&mut self, key: &K) -> Option<V>;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Bytes of index structure, per the Section 6.2 accounting rules
    /// (see the trait docs).
    fn size_bytes(&self) -> usize;

    /// Ordered scan over the entries whose keys fall in `range`.
    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_>;

    /// Whether the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the entries whose keys fall in `range` to `out`, in key
    /// order — the bulk scan path behind
    /// [`range_collect`](Self::range_collect) and
    /// [`ShardedIndex::range_collect`](crate::ShardedIndex::range_collect).
    ///
    /// The default extends `out` from [`range`](Self::range), an entry
    /// at a time. Implementations whose entries sit in arrays (the
    /// FITing-Tree's pages) override it to reserve once per page and
    /// copy whole runs.
    fn range_into<R: RangeBounds<K>>(&self, range: R, out: &mut Vec<(K, V)>) {
        out.extend(self.range(range));
    }

    /// Collects a range scan into a vector.
    fn range_collect<R: RangeBounds<K>>(&self, range: R) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.range_into(range, &mut out);
        out
    }

    /// Number of entries in `range`.
    fn range_count<R: RangeBounds<K>>(&self, range: R) -> usize {
        self.range(range).count()
    }

    /// Batched upsert; returns the number of keys that were new (not
    /// overwrites).
    ///
    /// The default stable-sorts the batch by key — so duplicate keys
    /// keep their submission order and the last write wins — then
    /// inserts sequentially, which already helps structures whose
    /// insert path has locality (segment buffers, tree leaves).
    /// Implementations with a cheaper bulk path (delta buffers, leaf
    /// merge) may override.
    fn insert_many(&mut self, mut batch: Vec<(K, V)>) -> usize {
        batch.sort_by_key(|&(k, _)| k);
        let mut fresh = 0;
        for (k, v) in batch {
            if self.insert(k, v).is_none() {
                fresh += 1;
            }
        }
        fresh
    }

    /// Splits off every entry with key `>= *at` into a new instance of
    /// the same structure **and configuration**, leaving the rest in
    /// `self` — the structure-level handoff behind
    /// [`ShardedIndex::split_shard`](crate::ShardedIndex::split_shard).
    ///
    /// Structures with a native run handoff (the FITing-Tree moves
    /// whole segment pages plus their directory span, in O(moved
    /// segments)) override this. `None` means **refused, nothing
    /// touched** — the default (no handoff exists), or an implementor
    /// that cannot complete the move right now (a durable shard that
    /// cannot persist it); `split_shard` reports it as
    /// [`RebalanceError::Refused`](crate::RebalanceError::Refused) and
    /// copies nothing. Implementations must either move the entries or
    /// return `None` with `self` exactly as it was.
    ///
    /// Excluded from [`DynSortedIndex`] (returns `Self`); `where Self:
    /// Sized` keeps the trait object-safe.
    fn split_off_tail(&mut self, at: &K) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = at;
        None
    }

    /// Absorbs every entry of `other` — all of whose keys must be
    /// strictly greater than every key in `self` — leaving `other`
    /// empty. The append counterpart of
    /// [`split_off_tail`](Self::split_off_tail), behind
    /// [`ShardedIndex::merge_with_next`](crate::ShardedIndex::merge_with_next).
    ///
    /// Returns `true` when the handoff happened. `false` means
    /// **refused, neither structure touched**: the structure has no
    /// native append path (the default), its preconditions — disjoint
    /// ascending key runs, matching configuration — do not hold, or it
    /// cannot complete the move right now; `merge_with_next` reports it
    /// as [`RebalanceError::Refused`](crate::RebalanceError::Refused)
    /// and copies nothing.
    fn absorb_tail(&mut self, other: &mut Self) -> bool
    where
        Self: Sized,
    {
        let _ = other;
        false
    }

    /// Bytes of persistent state held on disk (the latest snapshot).
    ///
    /// Volatile structures — everything except the durability layer's
    /// `DurableIndex` wrapper — keep the default `0`.
    fn disk_bytes(&self) -> usize {
        0
    }

    /// Bytes appended to the write-ahead log since the last
    /// checkpoint. `0` for volatile structures.
    fn wal_bytes(&self) -> usize {
        0
    }

    /// Panic-free upsert: refuses with [`Degraded`] instead of
    /// applying when the structure is in degraded read-only mode. The
    /// service write path uses this vocabulary exclusively, so a
    /// dying disk fails writes fast and typed instead of poisoning
    /// lanes. Volatile structures never refuse (default delegates to
    /// [`insert`](Self::insert)).
    ///
    /// # Errors
    ///
    /// [`Degraded`] when the write was refused (and not applied).
    fn try_insert(&mut self, key: K, value: V) -> Result<Option<V>, Degraded> {
        Ok(self.insert(key, value))
    }

    /// Panic-free removal; see [`try_insert`](Self::try_insert).
    ///
    /// # Errors
    ///
    /// [`Degraded`] when the removal was refused (and not applied).
    fn try_remove(&mut self, key: &K) -> Result<Option<V>, Degraded> {
        Ok(self.remove(key))
    }

    /// Panic-free batched upsert; see [`try_insert`](Self::try_insert).
    /// Refusal is all-or-nothing: on `Err` no entry of the batch was
    /// applied.
    ///
    /// # Errors
    ///
    /// [`Degraded`] when the batch was refused (and not applied).
    fn try_insert_many(&mut self, batch: Vec<(K, V)>) -> Result<usize, Degraded> {
        Ok(self.insert_many(batch))
    }

    /// Group commit: flushes and (policy permitting) fsyncs any
    /// buffered write-ahead log records — the point the service layer
    /// invokes once per drained write batch.
    ///
    /// `Ok(true)` when the structure is durable and performed a flush;
    /// volatile structures keep the default no-op `Ok(false)`, so
    /// calling this unconditionally costs nothing.
    ///
    /// # Errors
    ///
    /// [`Degraded`] when the flush failed (the structure has flipped,
    /// or already was, degraded): buffered records may not have
    /// reached the disk.
    fn try_sync(&mut self) -> Result<bool, Degraded> {
        Ok(false)
    }

    /// Writes a fresh snapshot of the current state and rotates the
    /// write-ahead log, bounding recovery replay time. A successful
    /// checkpoint heals a degraded structure.
    ///
    /// `Ok(true)` when a checkpoint was taken; volatile structures
    /// keep the default no-op `Ok(false)`.
    ///
    /// # Errors
    ///
    /// [`Degraded`] when the rotation failed (previous state intact).
    fn try_checkpoint(&mut self) -> Result<bool, Degraded> {
        Ok(false)
    }

    /// Current storage health. Volatile structures are always
    /// [`ShardHealth::Healthy`].
    fn health(&self) -> ShardHealth {
        ShardHealth::Healthy
    }

    /// Transient storage faults absorbed by retry on this structure's
    /// behalf (an observability counter; `0` for volatile structures).
    fn io_retries(&self) -> u64 {
        0
    }

    /// Rebuilds the in-memory state from persistent storage, replacing
    /// `self` — the lane-resurrection path after a worker panic left
    /// the in-memory structure suspect. Returns `true` when a rebuild
    /// happened; volatile structures keep the default `false` (there
    /// is nothing to rebuild from).
    fn reload(&mut self) -> bool {
        false
    }
}

/// A [`SortedIndex`] that can be constructed in one pass from sorted
/// input — the paper's Section 3 bulk load, abstracted so generic
/// drivers (and [`ShardedIndex`](crate::ShardedIndex)) can build any
/// structure.
pub trait BuildableIndex<K: Key, V: Clone>: SortedIndex<K, V> + Sized {
    /// Structure-specific build parameters (error budget, page size,
    /// tree order, …). `Clone` so one config can build many shards.
    type Config: Clone;

    /// Construction failure (`Infallible` for structures that cannot
    /// fail).
    type BuildError: std::fmt::Debug;

    /// Builds from **strictly increasing** `(key, value)` pairs, in one
    /// pass over `sorted`. A lower `size_hint` bound may be trusted as
    /// the input's length to size storage up front.
    ///
    /// Implementations may panic or error on unsorted/duplicate input;
    /// callers are expected to sort + dedup first.
    fn build_sorted(
        config: &Self::Config,
        sorted: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, Self::BuildError>;
}

/// Object-safe companion to [`SortedIndex`], blanket-implemented for
/// every implementor, so harnesses can drive heterogeneous structures
/// through `&mut dyn DynSortedIndex<K, V>` without monomorphizing per
/// type.
///
/// Method names carry a `dyn_` prefix (and range scans become the
/// internal-iteration [`for_each_in_range`](Self::for_each_in_range))
/// so that importing both traits never makes method resolution
/// ambiguous.
pub trait DynSortedIndex<K: Key, V: Clone> {
    /// Display name for benchmark tables.
    fn dyn_name(&self) -> &'static str;

    /// Point lookup, cloning the value out.
    fn dyn_get(&self, key: &K) -> Option<V>;

    /// Upsert; returns the previous value for an existing key.
    fn dyn_insert(&mut self, key: K, value: V) -> Option<V>;

    /// Removes a key; returns its value if it was present.
    fn dyn_remove(&mut self, key: &K) -> Option<V>;

    /// Number of entries.
    fn dyn_len(&self) -> usize;

    /// Bytes of index structure (Section 6.2 accounting).
    fn dyn_size_bytes(&self) -> usize;

    /// Calls `f` for every entry in `[lo, hi]` key order.
    fn for_each_in_range(&self, lo: Bound<&K>, hi: Bound<&K>, f: &mut dyn FnMut(K, V));

    /// Whether the index holds no entries.
    fn dyn_is_empty(&self) -> bool {
        self.dyn_len() == 0
    }

    /// Number of entries in `[lo, hi]`.
    fn dyn_range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        let mut n = 0;
        self.for_each_in_range(lo, hi, &mut |_, _| n += 1);
        n
    }

    /// Batched upsert through the trait object; returns the number of
    /// keys that were new.
    ///
    /// Forwards to [`SortedIndex::insert_many`], so structure overrides
    /// apply behind `dyn` too. Lets the bench driver batch through
    /// heterogeneous indexes.
    fn insert_many_dyn(&mut self, batch: Vec<(K, V)>) -> usize;
}

impl<K: Key, V: Clone, I: SortedIndex<K, V>> DynSortedIndex<K, V> for I {
    fn dyn_name(&self) -> &'static str {
        self.name()
    }

    fn dyn_get(&self, key: &K) -> Option<V> {
        self.get(key).cloned()
    }

    fn dyn_insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert(key, value)
    }

    fn dyn_remove(&mut self, key: &K) -> Option<V> {
        self.remove(key)
    }

    fn dyn_len(&self) -> usize {
        self.len()
    }

    fn dyn_size_bytes(&self) -> usize {
        self.size_bytes()
    }

    fn for_each_in_range(&self, lo: Bound<&K>, hi: Bound<&K>, f: &mut dyn FnMut(K, V)) {
        self.range((lo, hi)).for_each(|(k, v)| f(k, v));
    }

    fn insert_many_dyn(&mut self, batch: Vec<(K, V)>) -> usize {
        self.insert_many(batch)
    }
}

/// Maps a borrowed `(&K, &V)` pair to an owned one — the adapter every
/// tree-backed [`SortedIndex::range`] implementation threads through
/// `Iterator::map` as a plain `fn` pointer so its iterator type stays
/// nameable.
pub fn clone_pair<'a, K: Copy, V: Clone>((k, v): (&'a K, &'a V)) -> (K, V) {
    (*k, v.clone())
}

/// Maps a borrowed slice entry `&(K, V)` to an owned pair — the `fn`
/// pointer companion to [`clone_pair`] for slice-backed structures.
pub fn clone_entry<K: Copy, V: Clone>(entry: &(K, V)) -> (K, V) {
    (entry.0, entry.1.clone())
}

/// The subslice of a slice sorted by key that `range` covers — the
/// shared [`SortedIndex::range`] kernel for slice-backed structures
/// (binary search baseline, reference `VecIndex`).
pub fn sorted_slice_range<K: Ord, V, R: RangeBounds<K>>(data: &[(K, V)], range: R) -> &[(K, V)] {
    let start = data.partition_point(|(k, _)| match range.start_bound() {
        Bound::Included(lo) => k < lo,
        Bound::Excluded(lo) => k <= lo,
        Bound::Unbounded => false,
    });
    let end = data.partition_point(|(k, _)| match range.end_bound() {
        Bound::Included(hi) => k <= hi,
        Bound::Excluded(hi) => k < hi,
        Bound::Unbounded => true,
    });
    // Inverted bounds produce an empty slice rather than a panic.
    &data[start..end.max(start)]
}
