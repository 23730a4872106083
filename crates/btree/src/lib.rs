//! An in-memory B+ tree, built from scratch as the comparator of the
//! FITing-Tree reproduction.
//!
//! The FITing-Tree paper (Galakatos et al., SIGMOD 2019) stores its
//! variable-sized segments in an off-the-shelf C++ B+ tree (STX-tree) and
//! uses the *same* tree implementation for its two tree-shaped baselines
//! (a dense "full" index and a fixed-size-page sparse index) so that all
//! systems share the inner-node machinery. This crate plays the role of
//! the STX-tree for the two baselines: a classic B+ tree of sorted
//! fixed-capacity nodes (16 entries each) with
//!
//! * an arena layout: internal nodes in one `Vec`, leaves in another,
//!   addressed by `u32` ids, so a descent loads one node a level,
//! * point lookups and predecessor ([`BPlusTree::floor`]) queries,
//! * range scans over arbitrary [`core::ops::RangeBounds`], walking the
//!   leaves' `next` links,
//! * inserts with node splits and deletes with borrow/merge rebalancing,
//!   merged-away nodes going on a free list that splits reuse,
//! * one-pass bottom-up bulk loading from sorted input, and
//! * size accounting ([`BPlusTree::size_in_bytes`]) used by the paper's
//!   storage-footprint experiments (Figures 6, 9 and 11).
//!
//! The tree maps keys to values generically: the full-index baseline
//! instantiates it as `BPlusTree<K, V>` and the fixed-page baseline as
//! `BPlusTree<K, usize>` (page slots). The FITing-Tree itself routes
//! through its own flat segment directory, not through this tree.
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
mod iter;
mod node;
mod sorted_impl;
mod tree;

pub use iter::Range;
pub use tree::BPlusTree;
