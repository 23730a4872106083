//! The dense ("full") index baseline: one B+ tree entry per key.

use fiting_btree::BPlusTree;
use fiting_index_api::{clone_pair, BuildableIndex, SortedIndex};
use fiting_tree::Key;
use std::convert::Infallible;
use std::ops::RangeBounds;

/// A dense B+ tree index: every key appears in a leaf.
///
/// This is the paper's latency gold standard — no interpolation, no
/// window search, just a tree descent — and its memory worst case: the
/// index grows linearly with the number of distinct keys, which is
/// exactly the problem the FITing-Tree attacks.
#[derive(Debug, Clone)]
pub struct FullIndex<K: Key, V> {
    tree: BPlusTree<K, V>,
}

impl<K: Key, V: Clone> FullIndex<K, V> {
    /// Builds from strictly increasing `(key, value)` pairs.
    #[must_use]
    pub fn bulk_load<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        FullIndex {
            tree: BPlusTree::bulk_load(pairs),
        }
    }

    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        FullIndex {
            tree: BPlusTree::new(),
        }
    }
}

impl<K: Key, V: Clone> Default for FullIndex<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Clone> SortedIndex<K, V> for FullIndex<K, V> {
    type RangeIter<'a>
        = std::iter::Map<fiting_btree::Range<'a, K, V>, fn((&'a K, &'a V)) -> (K, V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn name(&self) -> &'static str {
        "Full"
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.tree.get(key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.tree.insert(key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.tree.remove(key)
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_in_bytes()
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        self.tree
            .range(range)
            .map(clone_pair as fn((&K, &V)) -> (K, V))
    }
}

impl<K: Key, V: Clone> BuildableIndex<K, V> for FullIndex<K, V> {
    type Config = ();
    type BuildError = Infallible;

    fn build_from(_: &(), sorted: impl IntoIterator<Item = (K, V)>) -> Result<Self, Infallible> {
        Ok(FullIndex::bulk_load(sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_index_roundtrip() {
        let mut idx = FullIndex::bulk_load((0..10_000u64).map(|k| (k * 3, k)));
        assert_eq!(idx.len(), 10_000);
        assert_eq!(idx.get(&(3 * 777)), Some(&777));
        assert_eq!(idx.get(&1), None);
        assert_eq!(idx.insert(1, 1), None);
        assert_eq!(idx.remove(&1), Some(1));
    }

    #[test]
    fn size_grows_linearly_with_keys() {
        let small = FullIndex::bulk_load((0..1_000u64).map(|k| (k, k)));
        let big = FullIndex::bulk_load((0..100_000u64).map(|k| (k, k)));
        let ratio = big.size_bytes() as f64 / small.size_bytes() as f64;
        assert!(ratio > 50.0 && ratio < 200.0, "ratio {ratio}");
    }
}
