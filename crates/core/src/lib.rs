//! **FITing-Tree** (called *A-Tree* in the arXiv preprint): a bounded-error,
//! data-aware index structure — a from-scratch Rust reproduction of
//! Galakatos, Markovitch, Binnig, Fonseca, Kraska, SIGMOD 2019.
//!
//! # What it is
//!
//! A FITing-Tree indexes a sorted attribute by approximating the key →
//! position function with variable-sized *linear segments* instead of
//! indexing every key. Each segment stores only its start key, slope,
//! and a pointer to the underlying page. The **flat SoA directory** of
//! anchor keys is the *only* directory structure: lookups locate their
//! segment there (interpolation-seeded, branchless bounded search — no
//! pointer chasing), and structural mutations splice the affected
//! window of the same arrays in place (there is no B+ tree directory;
//! `crates/btree` is a benchmark baseline only). A lookup therefore
//! costs
//!
//! ```text
//! O(log2 S_e)   branchless floor search over S_e anchors (dense array,
//!               interpolation-seeded; the paper's O(log_b S_e) descent)
//! + O(log2 e)   bounded local search: interpolation is within ±e slots
//!               (tightened to the page's measured error envelope)
//! + O(log2 bu)  search of the segment's insert buffer
//! ```
//!
//! In cache misses rather than comparisons: directory search →
//! `slots[i]` + segment header → {key window ∥ value window}. The
//! model bounds the slot before a page byte is read, so the window's
//! value lines are requested together with its key lines and a lookup
//! pays one DRAM round trip per page, not two (`segment.rs`). A page is
//! a window of a column; bulk load writes one column for the whole tree
//! on 2 MiB pages where the kernel grants them, so the two windows'
//! translations hit the TLB instead of costing a page walk each.
//!
//! The tunable error `e` trades index size against lookup latency: the
//! paper shows (and our benches reproduce) index-size reductions of
//! orders of magnitude at equal latency versus dense and fixed-page
//! B+ tree indexes.
//!
//! # Crate layout
//!
//! * [`FitingTree`] — the clustered index (paper Figure 2): unique keys,
//!   bulk load (Section 3), lookups (Section 4), buffered inserts with
//!   re-segmentation (Section 5), range scans, and deletes (an extension
//!   beyond the paper, documented on the method).
//! * [`SecondaryIndex`] — the non-clustered variant (Figure 3): duplicate
//!   keys mapping to row identifiers through a sorted key-pages level.
//! * [`cost`] — the Section 6 cost model: latency and size estimators
//!   plus the two selectors (latency SLA → smallest index; space budget
//!   → fastest index).
//!
//! Every structure here implements the crate-neutral
//! [`SortedIndex`] trait from `fiting-index-api` (re-exported below),
//! the interface the benchmark harness and the conformance suite
//! drive — and the one the layers above plug into: for shared,
//! multi-threaded use (an extension; the paper's evaluation is
//! single-threaded per core) wrap [`FitingTree`] shards in
//! [`ShardedIndex`]`<K, V, FitingTree<K, V>>`, and put
//! `fiting_index_service::IndexService` over that for a batching,
//! backpressured command pipeline. Neither is a dependency of this
//! crate.
//!
//! # Quickstart
//!
//! ```
//! use fiting_tree::FitingTreeBuilder;
//!
//! // Timestamps -> payloads, error budget of 32 slots.
//! let data = (0..10_000u64).map(|t| (t * 1000, t));
//! let mut index = FitingTreeBuilder::new(32).bulk_load(data).unwrap();
//!
//! assert_eq!(index.get(&5_000_000), Some(&5_000));
//! assert_eq!(index.get(&5_000_001), None);
//!
//! index.insert(5_000_001, 99);
//! assert_eq!(index.get(&5_000_001), Some(&99));
//!
//! // Range scan across segment boundaries.
//! let hits: Vec<u64> = index.range(1_000_000..1_005_000).map(|(_, v)| *v).collect();
//! assert_eq!(hits, vec![1000, 1001, 1002, 1003, 1004]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod clustered;
pub mod cost;
mod directory;
mod error;
mod key;
mod range;
mod secondary;
mod segment;
pub mod snapshot;
mod stats;

pub use builder::FitingTreeBuilder;
pub use clustered::FitingTree;
pub use error::{AbsorbError, BuildError};
pub use fiting_index_api::{BuildableIndex, DynSortedIndex, ShardedIndex, SortedIndex};
pub use key::{Key, OrderedF64};
pub use range::RangeIter;
pub use secondary::{RowId, SecondaryIndex};
pub use stats::{FitingTreeStats, LookupTrace};

/// Index bytes one segment costs for keys of `key_bytes`: its
/// directory anchor and `u32` arena slot, plus the 24 B of metadata the
/// paper charges in its size model (Section 6.2: start key + slope +
/// page pointer, 8 B each). Both `FitingTree::index_size_bytes` and the
/// cost model's size estimate are this times a segment count.
pub(crate) const fn segment_bytes(key_bytes: usize) -> usize {
    key_bytes + std::mem::size_of::<u32>() + 24
}
