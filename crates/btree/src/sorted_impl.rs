//! [`SortedIndex`] implementation for the B+ tree, so the tree
//! itself can be driven (and sharded) through the unified API like
//! the baselines built on it.

use crate::tree::BPlusTree;
use fiting_index_api::{clone_pair, BuildableIndex, Key, SortedIndex};
use std::convert::Infallible;
use std::ops::RangeBounds;

impl<K: Key, V: Clone> SortedIndex<K, V> for BPlusTree<K, V> {
    type RangeIter<'a>
        = std::iter::Map<crate::iter::Range<'a, K, V>, fn((&'a K, &'a V)) -> (K, V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn name(&self) -> &'static str {
        "B+ tree"
    }

    fn get(&self, key: &K) -> Option<&V> {
        BPlusTree::get(self, key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        BPlusTree::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        BPlusTree::remove(self, key)
    }

    fn len(&self) -> usize {
        BPlusTree::len(self)
    }

    /// The whole tree is index structure under the Section 6.2 rules:
    /// a dense B+ tree stores one entry per key, which is exactly the
    /// accounting the full-index baseline reports.
    fn size_bytes(&self) -> usize {
        BPlusTree::size_in_bytes(self)
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        BPlusTree::range(self, range).map(clone_pair as fn((&K, &V)) -> (K, V))
    }
}

impl<K: Key, V: Clone> BuildableIndex<K, V> for BPlusTree<K, V> {
    type Config = ();
    type BuildError = Infallible;

    fn build_sorted(_: &(), sorted: impl IntoIterator<Item = (K, V)>) -> Result<Self, Infallible> {
        Ok(BPlusTree::bulk_load(sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_and_inherent_methods_agree() {
        let mut tree: BPlusTree<u64, u64> =
            BuildableIndex::build_sorted(&(), (0..1000u64).map(|k| (k * 2, k))).unwrap();
        assert_eq!(SortedIndex::len(&tree), 1000);
        assert_eq!(SortedIndex::get(&tree, &500), Some(&250));
        assert_eq!(SortedIndex::size_bytes(&tree), tree.size_in_bytes());
        let got: Vec<(u64, u64)> = SortedIndex::range(&tree, 10..=16).collect();
        assert_eq!(got, vec![(10, 5), (12, 6), (14, 7), (16, 8)]);
        assert_eq!(SortedIndex::insert(&mut tree, 11, 99), None);
        assert_eq!(SortedIndex::remove(&mut tree, &11), Some(99));
    }
}
