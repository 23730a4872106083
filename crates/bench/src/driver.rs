//! Generic benchmark drivers over the unified [`DynSortedIndex`]
//! interface.
//!
//! The `paper` bin names *which* structures to measure as
//! [`Structure`]s and drives every one of them through the same
//! object-safe trait, which is the paper's fairness rule (Section 7.1)
//! enforced by construction: the measurement loop literally cannot
//! special-case a structure.

use crate::{throughput_mops, time_per_op};
use fiting_btree::{BPlusTree, FixedPageIndex};
use fiting_index_api::{BinarySearchIndex, DynSortedIndex};
use fiting_tree::FitingTreeBuilder;

/// A boxed index over the standard `u64 -> u64` bench schema.
pub type DynIndex = Box<dyn DynSortedIndex<u64, u64>>;

/// One index configuration the paper's evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// FITing-Tree at the given error budget.
    Fiting(u64),
    /// Fixed-size-page sparse index at the given page capacity.
    Fixed(usize),
    /// Dense B+ tree index (one entry per key).
    Full,
    /// Plain binary search over the sorted data (zero index bytes).
    Binary,
}

impl Structure {
    /// Structure name as the paper's tables label it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Structure::Fiting(_) => "FITing-Tree",
            Structure::Fixed(_) => "Fixed",
            Structure::Full => "Full",
            Structure::Binary => "Binary",
        }
    }

    /// Builds the index over `pairs` (strictly increasing keys).
    #[must_use]
    pub fn build(self, pairs: &[(u64, u64)]) -> DynIndex {
        let pairs = pairs.iter().copied();
        match self {
            Structure::Fiting(error) => Box::new(
                FitingTreeBuilder::new(error)
                    .bulk_load(pairs)
                    .expect("bench data is strictly increasing"),
            ),
            Structure::Fixed(page_size) => Box::new(FixedPageIndex::bulk_load(page_size, pairs)),
            Structure::Full => Box::new(BPlusTree::bulk_load(pairs)),
            Structure::Binary => Box::new(BinarySearchIndex::bulk_load(pairs)),
        }
    }
}

/// Mean nanoseconds per point lookup over `probes`.
#[must_use]
pub fn lookup_ns(index: &DynIndex, probes: &[u64]) -> f64 {
    time_per_op(probes, |p| index.dyn_get(&p))
}

/// Insert throughput in million ops/second over `stream` (keys map to
/// themselves).
#[must_use]
pub fn insert_mops(index: &mut DynIndex, stream: &[u64]) -> f64 {
    throughput_mops(stream, |k| index.dyn_insert(k, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Structure::{Binary, Fiting, Fixed, Full};

    #[test]
    fn every_structure_builds_and_answers() {
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k * 2, k)).collect();
        let probes: Vec<u64> = (0..500u64).map(|k| k * 20).collect();
        let structures = [Fiting(64), Fixed(64), Full, Binary];
        for structure in structures {
            let label = structure.label();
            let mut index = structure.build(&pairs);
            assert_eq!(index.dyn_len(), 5_000, "{}", label);
            assert_eq!(index.dyn_get(&20), Some(10), "{}", label);
            assert_eq!(index.dyn_get(&21), None, "{}", label);
            let ns = lookup_ns(&index, &probes);
            assert!(ns >= 0.0);
            let inserted = insert_mops(&mut index, &[1, 3, 5]);
            assert!(inserted > 0.0);
            assert_eq!(index.dyn_len(), 5_003, "{}", label);
        }
    }

    #[test]
    fn sizes_keep_the_papers_ordering() {
        let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k, k)).collect();
        let full = Full.build(&pairs);
        let fixed = Fixed(128).build(&pairs);
        let fiting = Fiting(64).build(&pairs);
        let binary = Binary.build(&pairs);
        assert!(full.dyn_size_bytes() > fixed.dyn_size_bytes());
        assert!(fixed.dyn_size_bytes() > fiting.dyn_size_bytes());
        assert_eq!(binary.dyn_size_bytes(), 0);
    }
}
