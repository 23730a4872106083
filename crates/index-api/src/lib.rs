//! **fiting-index-api** — the crate-neutral sorted-index contract for
//! the FITing-Tree reproduction workspace, plus the sharded concurrent
//! front-end built over it.
//!
//! The paper's evaluation drives the FITing-Tree and every baseline
//! through one identical interface ("we keep the underlying tree
//! implementation the same for all baselines", Section 7.1). This crate
//! is that interface as a first-class artifact:
//!
//! * [`Key`] — what can be indexed: totally ordered, `Copy`, and
//!   monotonically projectable to `f64` for interpolation. Implemented
//!   for all primitive integers up to `u128`/`i128` and for
//!   [`OrderedF64`].
//! * [`SortedIndex`] — point `get`/`insert`/`remove`, an
//!   associated-type [`range`](SortedIndex::range) iterator, `len`, and
//!   [`size_bytes`](SortedIndex::size_bytes) under the paper's
//!   Section 6.2 accounting rules (index metadata only — 8-byte keys,
//!   slopes, pointers — never the table data).
//! * [`BuildableIndex`] — one-pass bulk load from sorted input, with a
//!   structure-specific `Config` so generic drivers can construct any
//!   implementation.
//! * [`DynSortedIndex`] — the object-safe companion
//!   (blanket-implemented) that benchmark harnesses drive as
//!   `&mut dyn DynSortedIndex<K, V>`.
//! * [`ShardedIndex`] — a range-partitioned concurrent front-end with a
//!   wait-free read path: boundaries sampled at bulk load, an
//!   versioned routing snapshot (`Arc`-reclaimed), one seqlock per shard,
//!   cross-shard `range_collect`, batched `insert_many`, and online
//!   [`split_shard`](ShardedIndex::split_shard) /
//!   [`merge_with_next`](ShardedIndex::merge_with_next) boundary moves.
//! * [`rebalance`] — the policy layer that drives those moves from
//!   observed occupancy: a decaying [`WriteSampler`] of the write
//!   stream, a [`RebalancePolicy`] with hysteresis, and the
//!   [`Rebalancer`] stepper a coordinator thread runs on a timer.
//!
//! Implementations live with their structures: `fiting_tree::FitingTree`,
//! `fiting_btree::BPlusTree`, and the three baselines in
//! `fiting_baselines`. The shared conformance suite in the
//! facade crate's `tests/sorted_index_conformance.rs` holds them all to
//! this contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod key;
pub mod rebalance;
mod sharded;
mod sorted;

/// The cache-line read hint from `fiting-sync` (the one crate that may
/// hold `unsafe`), re-exported so index structures built on this API
/// reach it without a manifest edge of their own.
pub use fiting_sync::prefetch_read;
pub use key::{Key, KeyBytes, OrderedF64};
pub use rebalance::{
    RebalanceCounters, RebalanceOutcome, RebalancePolicy, RebalanceStats, Rebalancer, WriteSampler,
};
pub use sharded::{RebalanceError, RoutingStats, ShardStats, ShardedIndex, SHARD_METADATA_BYTES};
pub use sorted::{
    clone_entry, clone_pair, sorted_slice_range, BuildableIndex, Degraded, DynSortedIndex,
    ShardHealth, SortedIndex,
};

/// A deliberately naive [`SortedIndex`] over one sorted `Vec`, used by
/// this crate's tests and doctests (the real structures live downstream
/// and cannot be imported here). Also handy as a reference
/// implementation when writing a new backend.
pub mod doctest_support {
    use super::{BuildableIndex, Key, SortedIndex};
    use std::convert::Infallible;
    use std::ops::RangeBounds;

    /// Sorted-vec index: binary-search gets, O(n) inserts, zero index
    /// metadata (it *is* the data).
    #[derive(Debug, Clone, Default)]
    pub struct VecIndex<K, V> {
        data: Vec<(K, V)>,
    }

    impl<K: Key, V: Clone> SortedIndex<K, V> for VecIndex<K, V> {
        type RangeIter<'a>
            = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (K, V)>
        where
            Self: 'a,
            K: 'a,
            V: 'a;

        fn name(&self) -> &'static str {
            "VecIndex"
        }

        fn get(&self, key: &K) -> Option<&V> {
            self.data
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| &self.data[i].1)
        }

        fn insert(&mut self, key: K, value: V) -> Option<V> {
            match self.data.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => Some(std::mem::replace(&mut self.data[i].1, value)),
                Err(i) => {
                    self.data.insert(i, (key, value));
                    None
                }
            }
        }

        fn remove(&mut self, key: &K) -> Option<V> {
            match self.data.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => Some(self.data.remove(i).1),
                Err(_) => None,
            }
        }

        fn len(&self) -> usize {
            self.data.len()
        }

        fn size_bytes(&self) -> usize {
            0
        }

        fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
            crate::sorted_slice_range(&self.data, range)
                .iter()
                .map(crate::clone_entry as fn(&(K, V)) -> (K, V))
        }

        fn split_off_tail(&mut self, at: &K) -> Option<Self> {
            let cut = self.data.partition_point(|(k, _)| k < at);
            Some(VecIndex {
                data: self.data.split_off(cut),
            })
        }

        fn absorb_tail(&mut self, other: &mut Self) -> bool {
            let disjoint = match (self.data.last(), other.data.first()) {
                (Some(last), Some(first)) => last.0 < first.0,
                _ => true,
            };
            if disjoint {
                self.data.append(&mut other.data);
            }
            disjoint
        }
    }

    impl<K: Key, V: Clone> BuildableIndex<K, V> for VecIndex<K, V> {
        type Config = ();
        type BuildError = Infallible;

        fn build_sorted(
            _: &(),
            sorted: impl IntoIterator<Item = (K, V)>,
        ) -> Result<Self, Infallible> {
            let data: Vec<(K, V)> = sorted.into_iter().collect();
            debug_assert!(data.windows(2).all(|w| w[0].0 < w[1].0));
            Ok(VecIndex { data })
        }
    }
}

#[cfg(test)]
mod trait_contract_tests {
    use super::doctest_support::VecIndex;
    use super::*;
    use std::ops::Bound;

    fn build(n: u64) -> VecIndex<u64, u64> {
        BuildableIndex::build_sorted(&(), (0..n).map(|k| (k * 3, k))).unwrap()
    }

    #[test]
    fn provided_methods_agree_with_range() {
        let idx = build(100);
        assert_eq!(idx.range_count(30..=60), 11);
        assert_eq!(idx.range_collect(0..9), vec![(0, 0), (3, 1), (6, 2)]);
        assert!(!idx.is_empty());
    }

    #[test]
    fn dyn_companion_drives_any_impl() {
        let mut idx = build(100);
        {
            let dynamic: &mut dyn DynSortedIndex<u64, u64> = &mut idx;
            assert_eq!(dynamic.dyn_len(), 100);
            assert_eq!(dynamic.dyn_get(&3), Some(1));
            assert_eq!(dynamic.dyn_insert(4, 44), None);
            assert_eq!(dynamic.dyn_remove(&4), Some(44));
            assert_eq!(dynamic.dyn_size_bytes(), 0);
            assert_eq!(dynamic.dyn_name(), "VecIndex");
            let mut seen = Vec::new();
            dynamic.for_each_in_range(Bound::Included(&3), Bound::Excluded(&9), &mut |k, v| {
                seen.push((k, v));
            });
            assert_eq!(seen, vec![(3, 1), (6, 2)]);
            assert_eq!(
                dynamic.dyn_range_count(Bound::Unbounded, Bound::Unbounded),
                100
            );
        }
    }

    #[test]
    fn boxed_dyn_indexes_are_heterogeneous() {
        let indexes: Vec<Box<dyn DynSortedIndex<u64, u64>>> =
            vec![Box::new(build(10)), Box::new(build(20))];
        let lens: Vec<usize> = indexes.iter().map(|i| i.dyn_len()).collect();
        assert_eq!(lens, vec![10, 20]);
    }
}
