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
//!   implementation: streamed from an iterator
//!   ([`build_from`](BuildableIndex::build_from)), or from the caller's
//!   own `Vec` ([`build_sorted`](BuildableIndex::build_sorted)).
//! * [`DynSortedIndex`] — the object-safe companion
//!   (blanket-implemented): point get, upsert and size accounting, the
//!   calls a benchmark harness makes through
//!   `&mut dyn DynSortedIndex<K, V>`.
//! * [`ShardedIndex`] — a range-partitioned concurrent front-end with a
//!   wait-free read path: boundaries sampled at bulk load, an
//!   versioned routing snapshot (`Arc`-reclaimed), one seqlock per shard,
//!   cross-shard `range_collect`, batched `insert_many`, and online
//!   [`split_shard`](ShardedIndex::split_shard) /
//!   [`merge_with_next`](ShardedIndex::merge_with_next) boundary moves.
//! * [`rebalance`] — the policy layer that drives those moves from
//!   observed occupancy: a decaying [`WriteSampler`] of the write
//!   stream and the [`Rebalancer`] stepper, with hysteresis, that a
//!   coordinator thread runs on a timer.
//! * [`BinarySearchIndex`] — the paper's binary-search baseline: one
//!   sorted array, zero index bytes. It is also the concrete index this
//!   crate's own tests and doctests shard.
//!
//! The other implementations live with their structures:
//! `fiting_tree::FitingTree`, and `fiting_btree::BPlusTree` (the Full
//! baseline) with `fiting_btree::FixedPageIndex`. The shared
//! conformance suite in the facade crate's
//! `tests/sorted_index_conformance.rs` holds them all to this contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod binary;
mod key;
pub mod rebalance;
mod sharded;
mod sorted;

pub use binary::BinarySearchIndex;
/// The cache-line read hint, the huge-page advice and the consumed-input
/// give-back from `fiting-sync` (the one crate that may hold `unsafe`),
/// re-exported so index structures built on this API reach them without
/// a manifest edge of their own.
pub use fiting_sync::{advise_huge_pages, prefetch_read, GiveBack};
pub use key::{Key, KeyBytes, OrderedF64};
pub use rebalance::{
    RebalanceCounters, RebalanceOutcome, RebalanceStats, Rebalancer, WriteSampler,
};
pub use sharded::{RebalanceError, RoutingStats, ShardStats, ShardedIndex, SHARD_METADATA_BYTES};
pub use sorted::{clone_pair, BuildableIndex, Degraded, DynSortedIndex, ShardHealth, SortedIndex};

#[cfg(test)]
mod trait_contract_tests {
    use super::*;

    fn build(n: u64) -> BinarySearchIndex<u64, u64> {
        BuildableIndex::build_from(&(), (0..n).map(|k| (k * 3, k))).unwrap()
    }

    #[test]
    fn provided_methods_agree_with_range() {
        let idx = build(100);
        assert_eq!(idx.range(30..=60).count(), 11);
        assert_eq!(idx.range_collect(0..9), vec![(0, 0), (3, 1), (6, 2)]);
        assert!(!idx.is_empty());
    }

    #[test]
    fn dyn_companion_drives_any_impl() {
        let mut idx = build(100);
        {
            let dynamic: &mut dyn DynSortedIndex<u64, u64> = &mut idx;
            assert_eq!(dynamic.dyn_get(&3), Some(1));
            assert_eq!(dynamic.dyn_insert(4, 44), None);
            assert_eq!(dynamic.dyn_insert(4, 45), Some(44));
            assert_eq!(dynamic.dyn_size_bytes(), 0);
        }
        assert_eq!(idx.get(&4), Some(&45));
        assert_eq!(idx.len(), 101);
    }

    #[test]
    fn boxed_dyn_indexes_are_heterogeneous() {
        let indexes: Vec<Box<dyn DynSortedIndex<u64, u64>>> =
            vec![Box::new(build(10)), Box::new(build(20))];
        let hits: Vec<Option<u64>> = indexes.iter().map(|i| i.dyn_get(&30)).collect();
        assert_eq!(hits, vec![None, Some(10)]);
    }
}
