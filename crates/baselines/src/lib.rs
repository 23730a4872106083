//! Baseline index structures from the FITing-Tree paper's evaluation
//! (Section 7.1): every system the paper compares against. The two
//! tree-shaped ones share one B+ tree, `fiting-btree` (the paper's
//! STX-tree role), per the paper's fairness rule ("it is important that
//! we keep the underlying tree implementation the same for all
//! baselines"). The FITing-Tree routes through its own flat directory.
//!
//! * [`FullIndex`] — a dense B+ tree: one leaf entry per key. The
//!   latency gold standard and the memory hog (paper: "a full index can
//!   be seen as best case baseline for lookup performance").
//! * [`FixedPageIndex`] — a sparse index over fixed-size pages: the tree
//!   holds only each page's first key. What you get when you page data
//!   without looking at its distribution.
//! * [`BinarySearchIndex`] — plain binary search over the sorted data:
//!   zero index bytes, `log2(n)` probes. The other end of the spectrum.
//!
//! All baselines implement [`SortedIndex`] — the crate-neutral
//! interface from `fiting-index-api` that the FITing-Tree and the B+
//! tree also implement, and that the
//! benchmark harness and conformance suite drive. (It replaces the
//! `OrderedIndex` trait that used to live here: `SortedIndex` adds
//! `remove`, an associated-type range iterator, bulk construction via
//! [`BuildableIndex`], and renames `index_size_bytes` to
//! `size_bytes`.)

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod binary;
mod fixed;
mod full;

pub use binary::BinarySearchIndex;
pub use fixed::FixedPageIndex;
pub use full::FullIndex;

// Re-exported so downstream code that drove `baselines::OrderedIndex`
// can migrate without adding a dependency edge.
pub use fiting_index_api::{BuildableIndex, DynSortedIndex, SortedIndex};

#[cfg(test)]
mod trait_tests {
    use super::*;
    use fiting_index_api::DynSortedIndex;
    use fiting_tree::FitingTreeBuilder;

    /// Exercises implementations through the object-safe interface the
    /// harness uses.
    fn drive(index: &mut dyn DynSortedIndex<u64, u64>) {
        use std::ops::Bound;
        assert_eq!(index.dyn_len(), 1000);
        for k in (0..1000u64).step_by(13) {
            assert_eq!(index.dyn_get(&(k * 2)), Some(k));
            assert_eq!(index.dyn_get(&(k * 2 + 1)), None);
        }
        assert_eq!(index.dyn_insert(5, 555), None);
        assert_eq!(index.dyn_get(&5), Some(555));
        assert_eq!(index.dyn_len(), 1001);
        // evens 0..=20 plus key 5
        assert_eq!(
            index.dyn_range_count(Bound::Included(&0), Bound::Included(&20)),
            11 + 1
        );
        let mut collected = Vec::new();
        index.for_each_in_range(Bound::Included(&0), Bound::Included(&8), &mut |k, v| {
            collected.push((k, v));
        });
        assert_eq!(
            collected,
            vec![(0, 0), (2, 1), (4, 2), (5, 555), (6, 3), (8, 4)]
        );
        assert_eq!(index.dyn_remove(&5), Some(555));
        assert_eq!(index.dyn_len(), 1000);
    }

    #[test]
    fn all_implementations_agree() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 2, k)).collect();
        let mut fiting = FitingTreeBuilder::new(32).bulk_load(pairs.clone()).unwrap();
        let mut full = FullIndex::bulk_load(pairs.clone());
        let mut fixed = FixedPageIndex::bulk_load(64, pairs.clone());
        let mut binary = BinarySearchIndex::bulk_load(pairs);
        drive(&mut fiting);
        drive(&mut full);
        drive(&mut fixed);
        drive(&mut binary);
    }

    #[test]
    fn index_sizes_are_ordered_as_the_paper_reports() {
        // Dense > fixed-page > FITing-Tree > binary (= 0), on linear data.
        let pairs: Vec<(u64, u64)> = (0..100_000u64).map(|k| (k, k)).collect();
        let fiting = FitingTreeBuilder::new(64).bulk_load(pairs.clone()).unwrap();
        let full = FullIndex::bulk_load(pairs.clone());
        let fixed = FixedPageIndex::bulk_load(128, pairs.clone());
        let binary = BinarySearchIndex::bulk_load(pairs);
        assert!(SortedIndex::size_bytes(&full) > SortedIndex::size_bytes(&fixed));
        assert!(SortedIndex::size_bytes(&fixed) > SortedIndex::size_bytes(&fiting));
        assert_eq!(SortedIndex::size_bytes(&binary), 0);
    }
}
