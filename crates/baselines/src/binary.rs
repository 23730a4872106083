//! The binary-search baseline: no index at all.

use fiting_index_api::{BuildableIndex, SortedIndex};
use fiting_tree::Key;
use std::convert::Infallible;
use std::ops::RangeBounds;

/// Plain binary search over one sorted array.
///
/// The paper includes this as "the most extreme case where the error is
/// equal to the data size": zero index bytes, `log2(n)` cache misses per
/// lookup, O(n) inserts. Both the Figure 6 size/latency curves and the
/// Figure 11 scalability comparison use it as the no-index anchor.
#[derive(Debug, Clone)]
pub struct BinarySearchIndex<K, V> {
    data: Vec<(K, V)>,
}

impl<K: Key, V> BinarySearchIndex<K, V> {
    /// Builds from strictly increasing `(key, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if keys are not strictly increasing.
    #[must_use]
    pub fn bulk_load<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let data: Vec<(K, V)> = pairs.into_iter().collect();
        assert!(
            data.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly increasing keys"
        );
        BinarySearchIndex { data }
    }

    /// An empty array.
    #[must_use]
    pub fn new() -> Self {
        BinarySearchIndex { data: Vec::new() }
    }

    /// Removes a key (O(n) shift, like insert).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.data.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => Some(self.data.remove(i).1),
            Err(_) => None,
        }
    }
}

impl<K: Key, V> Default for BinarySearchIndex<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Clone> SortedIndex<K, V> for BinarySearchIndex<K, V> {
    type RangeIter<'a>
        = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (K, V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn name(&self) -> &'static str {
        "Binary"
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
        BinarySearchIndex::remove(self, key)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    /// Binary search needs no index structure at all.
    fn size_bytes(&self) -> usize {
        0
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        fiting_index_api::sorted_slice_range(&self.data, range)
            .iter()
            .map(fiting_index_api::clone_entry as fn(&(K, V)) -> (K, V))
    }
}

impl<K: Key, V: Clone> BuildableIndex<K, V> for BinarySearchIndex<K, V> {
    type Config = ();
    type BuildError = Infallible;

    fn build_sorted(_: &(), sorted: impl IntoIterator<Item = (K, V)>) -> Result<Self, Infallible> {
        Ok(BinarySearchIndex::bulk_load(sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_zero_size() {
        let mut idx = BinarySearchIndex::bulk_load((0..1000u64).map(|k| (k * 2, k)));
        assert_eq!(idx.get(&500), Some(&250));
        assert_eq!(idx.get(&501), None);
        assert_eq!(idx.size_bytes(), 0);
        assert_eq!(idx.insert(501, 9), None);
        assert_eq!(idx.remove(&501), Some(9));
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_input() {
        let _ = BinarySearchIndex::bulk_load([(2u64, 0u64), (1, 0)]);
    }
}
