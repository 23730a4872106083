//! An in-memory B+ tree, built from scratch as the substrate for the
//! FITing-Tree reproduction.
//!
//! The FITing-Tree paper (Galakatos et al., SIGMOD 2019) stores its
//! variable-sized segments in an off-the-shelf C++ B+ tree (STX-tree) and
//! uses the *same* tree implementation for its two tree-shaped baselines
//! (a dense "full" index and a fixed-size-page sparse index) so that all
//! systems share the inner-node machinery. This crate plays the role of
//! the STX-tree: a classic sorted-array-per-node B+ tree with
//!
//! * a fanout (`order`) of 16 entries per node,
//! * point lookups and predecessor ([`BPlusTree::floor`]) queries,
//! * sorted iteration and range scans over arbitrary [`core::ops::RangeBounds`],
//! * inserts with node splits and deletes with borrow/merge rebalancing,
//! * one-pass bottom-up bulk loading from sorted input, and
//! * size/shape accounting ([`BPlusTree::size_in_bytes`],
//!   [`BPlusTree::depth`]) used by the paper's storage-footprint
//!   experiments (Figures 6, 9, 10b, 11).
//!
//! The tree maps keys to values generically; the FITing-Tree core crate
//! instantiates it as `BPlusTree<K, SegmentId>`, the full-index baseline
//! as `BPlusTree<K, V>`, and the fixed-page baseline as
//! `BPlusTree<K, PageId>`.
//!
//! # Example
//!
//! ```
//! use fiting_btree::BPlusTree;
//!
//! let mut tree = BPlusTree::new();
//! for k in 0..1000u64 {
//!     tree.insert(k, k * 2);
//! }
//! assert_eq!(tree.get(&500), Some(&1000));
//! assert_eq!(tree.floor(&501).map(|(k, _)| *k), Some(501));
//! assert_eq!(tree.range(10..13).count(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bulk;
mod extra;
mod iter;
mod node;
mod sorted_impl;
mod tree;

pub use iter::{Iter, Range};
pub use tree::BPlusTree;

/// Shape and storage statistics for a tree, as reported by
/// [`BPlusTree::stats`].
///
/// The byte figures follow the paper's accounting convention (Section 6.2):
/// 8-byte keys and 8-byte pointers/values, counting only index structure,
/// never the table data the leaves point to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of key/value entries stored in the leaves.
    pub len: usize,
    /// Number of leaf nodes.
    pub leaf_nodes: usize,
    /// Number of internal (inner) nodes.
    pub internal_nodes: usize,
    /// Height of the tree: 1 for a lone leaf root.
    pub depth: usize,
    /// Estimated storage footprint in bytes (keys + child pointers +
    /// per-node header), using `size_of::<K>()`/`size_of::<V>()`.
    pub size_in_bytes: usize,
}
