//! The unified sorted-index trait family.
//!
//! [`SortedIndex`] is the contract every index structure in the
//! workspace implements — the FITing-Tree, the B+ tree (itself the
//! paper's Full baseline), the fixed-page and binary-search baselines,
//! and the durable wrapper over any of them. The benchmark harness, the conformance suite, and the sharded
//! concurrent front-end all drive this trait, reproducing the paper's
//! fairness rule ("we keep the underlying tree implementation the same
//! for all baselines", Section 7.1) at the type level.

use crate::key::Key;
use fiting_sync::GiveBack;
use std::ops::RangeBounds;

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
///
/// An implementation writes [`build_from`](Self::build_from), the
/// streaming build. A caller that owns its input as a `Vec` calls
/// [`build_spans`](Self::build_spans) instead, for one structure per
/// span of the `Vec` (the shards of a sharded bulk load), or
/// [`build_sorted`](Self::build_sorted), its one-span case. By default
/// the spans stream through `build_from`; a structure that copies its
/// input (the FITing-Tree) overrides `build_spans` to hand the `Vec`'s
/// memory back as it reads it, so the build never holds two copies of
/// the data.
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
    fn build_from(
        config: &Self::Config,
        sorted: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, Self::BuildError>;

    /// Builds from the caller's `Vec` of **strictly increasing** pairs,
    /// which the build consumes: the one-span
    /// [`build_spans`](Self::build_spans). Builds what
    /// [`build_from`](Self::build_from) builds from the same pairs, and
    /// reports the same errors.
    fn build_sorted(config: &Self::Config, sorted: Vec<(K, V)>) -> Result<Self, Self::BuildError> {
        let len = sorted.len();
        let mut built = Self::build_spans(config, sorted, &[len])?;
        Ok(built.pop().expect("one span builds one structure"))
    }

    /// Builds one structure per span of the caller's `Vec` of **strictly
    /// increasing** pairs, which the build consumes: span `i` is
    /// `sorted[ends[i - 1]..ends[i]]` (the first starts at 0), so `ends`
    /// is non-decreasing and ends at `sorted.len()`. Each structure is
    /// what [`build_from`](Self::build_from) builds from its span.
    ///
    /// The default hands a lone span's `Vec` itself to
    /// [`build_from`](Self::build_from), which an array-backed structure
    /// keeps in place with no copy. Several spans it builds front to
    /// back, each through `build_from`, and gives each span's memory
    /// back once its structure is built. It passes the structure's own
    /// error through unchanged, so a slot it names counts from the
    /// start of the failing span. A structure that copies its input
    /// (the FITing-Tree) overrides it to copy the whole input once and
    /// cut every structure out of that one copy; its slots count from
    /// the start of `sorted`.
    ///
    /// # Panics
    ///
    /// Panics when `ends` is empty or does not end at `sorted.len()`.
    fn build_spans(
        config: &Self::Config,
        sorted: Vec<(K, V)>,
        ends: &[usize],
    ) -> Result<Vec<Self>, Self::BuildError> {
        assert_eq!(
            ends.last(),
            Some(&sorted.len()),
            "the spans cover the input"
        );
        if let [_] = ends {
            return Ok(vec![Self::build_from(config, sorted)?]);
        }
        let mut pairs = GiveBack::new(sorted);
        let mut built = Vec::with_capacity(ends.len());
        let mut start = 0;
        for &end in ends {
            built.push(Self::build_from(config, pairs.next_run(end - start))?);
            pairs.give_back();
            start = end;
        }
        Ok(built)
    }
}

/// Object-safe companion to [`SortedIndex`], blanket-implemented for
/// every implementor, so harnesses can drive heterogeneous structures
/// through `&mut dyn DynSortedIndex<K, V>` without monomorphizing per
/// type.
///
/// It carries the three calls the benchmark driver makes. Method names
/// carry a `dyn_` prefix so that importing both traits never makes
/// method resolution ambiguous.
pub trait DynSortedIndex<K: Key, V: Clone> {
    /// Point lookup, cloning the value out.
    fn dyn_get(&self, key: &K) -> Option<V>;

    /// Upsert; returns the previous value for an existing key.
    fn dyn_insert(&mut self, key: K, value: V) -> Option<V>;

    /// Bytes of index structure (Section 6.2 accounting).
    fn dyn_size_bytes(&self) -> usize;
}

impl<K: Key, V: Clone, I: SortedIndex<K, V>> DynSortedIndex<K, V> for I {
    fn dyn_get(&self, key: &K) -> Option<V> {
        self.get(key).cloned()
    }

    fn dyn_insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert(key, value)
    }

    fn dyn_size_bytes(&self) -> usize {
        self.size_bytes()
    }
}

/// Maps a borrowed `(&K, &V)` pair to an owned one — the adapter every
/// tree-backed [`SortedIndex::range`] implementation threads through
/// `Iterator::map` as a plain `fn` pointer so its iterator type stays
/// nameable.
pub fn clone_pair<'a, K: Copy, V: Clone>((k, v): (&'a K, &'a V)) -> (K, V) {
    (*k, v.clone())
}
