//! The non-clustered (secondary) FITing-Tree (paper Section 2.2.1,
//! Figure 3).
//!
//! A secondary index maps a **non-unique** attribute to row identifiers.
//! The paper adds a sorted *key pages* level — all attribute values in
//! order, each with a pointer into the (unsorted) table — and segments
//! that level exactly like a clustered index.
//!
//! We realize the key-pages level by reusing the clustered machinery
//! over a composite key `(attribute, discriminator)`: duplicates of an
//! attribute value become distinct composite keys that still project to
//! the same interpolation coordinate (the discriminator is ignored by
//! `to_f64`), so segmentation sees the exact vertical runs the paper
//! describes, and the insert/buffer/re-segmentation path carries over
//! unchanged.

use crate::builder::FitingTreeBuilder;
use crate::clustered::FitingTree;
use crate::error::BuildError;
use crate::stats::FitingTreeStats;
use fiting_index_api::Key;
use std::ops::Bound;
use std::ops::RangeBounds;

/// Identifier of a row in the (unsorted) base table.
pub type RowId = u64;

/// Composite key: attribute value + per-entry discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DupKey<K>(K, u64);

impl<K: Key> Key for DupKey<K> {
    const ENCODED_LEN: usize = K::ENCODED_LEN + 8;

    #[inline]
    fn to_f64(self) -> f64 {
        // Duplicates share an interpolation coordinate: the paper's
        // vertical runs in the key → position function.
        self.0.to_f64()
    }

    // Attribute bytes then discriminator bytes — fixed-width because
    // both parts are, so secondary indexes snapshot/log through the
    // same durability machinery as clustered ones.
    fn to_le_bytes(self) -> fiting_index_api::KeyBytes {
        let mut buf = [0u8; fiting_index_api::KeyBytes::MAX_LEN];
        let attr = self.0.to_le_bytes();
        buf[..K::ENCODED_LEN].copy_from_slice(attr.as_slice());
        buf[K::ENCODED_LEN..K::ENCODED_LEN + 8].copy_from_slice(&self.1.to_le_bytes());
        fiting_index_api::KeyBytes::new(&buf[..K::ENCODED_LEN + 8])
    }

    fn from_le_bytes(bytes: &[u8]) -> Self {
        DupKey(
            K::from_le_bytes(&bytes[..K::ENCODED_LEN]),
            u64::from_le_bytes(bytes[K::ENCODED_LEN..].try_into().expect("8-byte seq")),
        )
    }
}

/// A non-clustered FITing-Tree: duplicate keys → row identifiers.
///
/// ```
/// use fiting_tree::SecondaryIndex;
///
/// // Rows 0..6 with a non-unique "city_zone" attribute.
/// let zones = [(10u64, 0), (10, 1), (10, 2), (25, 3), (40, 4), (40, 5)];
/// let mut idx = SecondaryIndex::bulk_load(16, zones).unwrap();
///
/// let rows: Vec<u64> = idx.get(&10).collect();
/// assert_eq!(rows, vec![0, 1, 2]);
/// assert_eq!(idx.get(&11).count(), 0);
///
/// idx.insert(25, 6);
/// assert_eq!(idx.get(&25).count(), 2);
/// ```
pub struct SecondaryIndex<K: Key> {
    inner: FitingTree<DupKey<K>, RowId>,
    next_seq: u64,
}

impl<K: Key> std::fmt::Debug for SecondaryIndex<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecondaryIndex")
            .field("len", &self.inner.len())
            .field("segments", &self.inner.segment_count())
            .finish()
    }
}

impl<K: Key> SecondaryIndex<K> {
    /// Bulk loads `(key, row)` pairs sorted by key (duplicates allowed,
    /// and duplicates of a key may appear in any row order).
    pub fn bulk_load<I>(error: u64, iter: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = (K, RowId)>,
    {
        Self::bulk_load_with(FitingTree::<K, RowId>::builder(error), iter)
    }

    /// Bulk loads with full builder configuration.
    pub fn bulk_load_with<I>(builder: FitingTreeBuilder, iter: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = (K, RowId)>,
    {
        let mut seq = 0u64;
        let mut prev: Option<K> = None;
        let mut composite: Vec<(DupKey<K>, RowId)> = Vec::new();
        let mut unsorted_at: Option<usize> = None;
        for (i, (k, row)) in iter.into_iter().enumerate() {
            if let Some(p) = prev {
                if k < p && unsorted_at.is_none() {
                    unsorted_at = Some(i);
                }
            }
            prev = Some(k);
            composite.push((DupKey(k, seq), row));
            seq += 1;
        }
        if let Some(at) = unsorted_at {
            return Err(BuildError::UnsortedInput { at });
        }
        let inner = builder.bulk_load(composite)?;
        Ok(SecondaryIndex {
            inner,
            next_seq: seq,
        })
    }

    /// An empty secondary index.
    pub fn new(error: u64) -> Result<Self, BuildError> {
        Ok(SecondaryIndex {
            inner: FitingTree::<K, RowId>::builder(error).build_empty()?,
            next_seq: 0,
        })
    }

    /// All rows whose attribute equals `key`, in insertion-discriminator
    /// order.
    pub fn get<'a>(&'a self, key: &K) -> impl Iterator<Item = RowId> + 'a {
        self.inner
            .range((
                Bound::Included(DupKey(*key, 0)),
                Bound::Included(DupKey(*key, u64::MAX)),
            ))
            .map(|(_, &row)| row)
    }

    /// Number of rows with this attribute value.
    #[must_use]
    pub fn count(&self, key: &K) -> usize {
        self.get(key).count()
    }

    /// All `(key, row)` pairs with keys in `range`, in key order.
    pub fn range<'a, R>(&'a self, range: R) -> impl Iterator<Item = (K, RowId)> + 'a
    where
        R: RangeBounds<K>,
    {
        let start = match range.start_bound() {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(DupKey(*k, 0)),
            Bound::Excluded(k) => Bound::Excluded(DupKey(*k, u64::MAX)),
        };
        let end = match range.end_bound() {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(DupKey(*k, u64::MAX)),
            Bound::Excluded(k) => Bound::Excluded(DupKey(*k, 0)),
        };
        self.inner.range((start, end)).map(|(ck, &row)| (ck.0, row))
    }

    /// Adds a row under `key`.
    pub fn insert(&mut self, key: K, row: RowId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let replaced = self.inner.insert(DupKey(key, seq), row);
        debug_assert!(replaced.is_none(), "discriminators are unique");
    }

    /// Removes one `(key, row)` association. Returns whether it existed.
    pub fn remove(&mut self, key: &K, row: RowId) -> bool {
        // Find the composite entry holding this row id.
        let target: Option<DupKey<K>> = self
            .inner
            .range((
                Bound::Included(DupKey(*key, 0)),
                Bound::Included(DupKey(*key, u64::MAX)),
            ))
            .find(|(_, &r)| r == row)
            .map(|(ck, _)| *ck);
        match target {
            Some(ck) => self.inner.remove(&ck).is_some(),
            None => false,
        }
    }

    /// Total `(key, row)` associations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of segments over the key-pages level.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.inner.segment_count()
    }

    /// Index overhead in bytes (flat directory + segment metadata).
    ///
    /// Note the paper's caveat: the sorted key-pages level itself is
    /// overhead *every* secondary index pays (a dense B+ tree pays it in
    /// its leaves); this accessor reports the FITing-Tree-specific part,
    /// which is what Figure 6c compares.
    #[must_use]
    pub fn index_size_bytes(&self) -> usize {
        self.inner.index_size_bytes()
    }

    /// Bytes of the sorted key-pages level (keys + row pointers).
    #[must_use]
    pub fn key_pages_bytes(&self) -> usize {
        self.inner.len() * (std::mem::size_of::<K>() + std::mem::size_of::<RowId>())
    }

    /// Statistics of the underlying segmented structure.
    #[must_use]
    pub fn stats(&self) -> FitingTreeStats {
        self.inner.stats()
    }

    /// Verifies structural invariants (test support).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile check: the composite key meets `Key`'s thread bounds.
    #[test]
    fn composite_keys_are_send_and_sync() {
        fn key<K: Key>() {}
        key::<DupKey<u64>>();
        key::<DupKey<fiting_index_api::OrderedF64>>();
    }

    /// Maps-like data: heavy duplication.
    fn dup_pairs(n: u64, dups: u64) -> Vec<(u64, RowId)> {
        (0..n)
            .flat_map(|k| (0..dups).map(move |d| (k * 100, k * dups + d)))
            .collect()
    }

    #[test]
    fn bulk_load_and_get_duplicates() {
        let idx = SecondaryIndex::bulk_load(32, dup_pairs(1_000, 5)).unwrap();
        assert_eq!(idx.len(), 5_000);
        for k in 0..1_000u64 {
            let rows: Vec<RowId> = idx.get(&(k * 100)).collect();
            assert_eq!(rows.len(), 5, "key {}", k * 100);
            assert_eq!(rows[0], k * 5);
        }
        assert_eq!(idx.get(&50).count(), 0);
        idx.check_invariants().unwrap();
    }

    #[test]
    fn long_duplicate_runs_exceeding_error() {
        // One key duplicated 500 times with error 16: the run must span
        // many segments, and get() must still return every row.
        let pairs: Vec<(u64, RowId)> = (0..500).map(|r| (42u64, r)).collect();
        let idx = SecondaryIndex::bulk_load(16, pairs).unwrap();
        assert!(idx.segment_count() > 1);
        let rows: Vec<RowId> = idx.get(&42).collect();
        assert_eq!(rows, (0..500).collect::<Vec<_>>());
        idx.check_invariants().unwrap();
    }

    #[test]
    fn range_spans_duplicates_correctly() {
        let idx = SecondaryIndex::bulk_load(32, dup_pairs(100, 3)).unwrap();
        let got: Vec<(u64, RowId)> = idx.range(100..=200).collect();
        // Keys 100 and 200, three rows each.
        assert_eq!(got.len(), 6);
        assert!(got.iter().all(|&(k, _)| k == 100 || k == 200));
        let exclusive: Vec<(u64, RowId)> = idx.range(100..200).collect();
        assert_eq!(exclusive.len(), 3);
        assert!(exclusive.iter().all(|&(k, _)| k == 100));
    }

    #[test]
    fn insert_and_remove_rows() {
        let mut idx = SecondaryIndex::bulk_load(16, dup_pairs(100, 2)).unwrap();
        idx.insert(500, 99_999);
        assert_eq!(idx.count(&500), 3);
        assert!(idx.remove(&500, 99_999));
        assert_eq!(idx.count(&500), 2);
        assert!(!idx.remove(&500, 99_999));
        assert!(!idx.remove(&77, 0));
        idx.check_invariants().unwrap();
    }

    #[test]
    fn empty_index_and_incremental_build() {
        let mut idx: SecondaryIndex<u64> = SecondaryIndex::new(8).unwrap();
        assert!(idx.is_empty());
        for r in 0..50 {
            idx.insert(7, r);
        }
        assert_eq!(idx.count(&7), 50);
        assert_eq!(idx.len(), 50);
        idx.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_rejects_unsorted_keys() {
        let err = SecondaryIndex::bulk_load(16, [(5u64, 0), (3, 1)]).unwrap_err();
        assert!(matches!(err, BuildError::UnsortedInput { at: 1 }));
    }

    #[test]
    fn key_pages_accounting() {
        let idx = SecondaryIndex::bulk_load(32, dup_pairs(1_000, 2)).unwrap();
        assert_eq!(idx.key_pages_bytes(), 2_000 * 16);
        assert!(idx.index_size_bytes() < idx.key_pages_bytes());
    }
}
