//! The binary-search baseline: no index at all, one sorted array.

use crate::{BuildableIndex, Key, SortedIndex};
use std::convert::Infallible;
use std::ops::{Bound, RangeBounds};

/// Plain binary search over one sorted array.
///
/// The paper includes this as "the most extreme case where the error is
/// equal to the data size": zero index bytes, `log2(n)` cache misses per
/// lookup, O(n) inserts. Both the Figure 6 size/latency curves and the
/// Figure 11 scalability comparison use it as the no-index anchor.
///
/// It is also the concrete index this crate's own tests and doctests
/// run [`ShardedIndex`](crate::ShardedIndex) over, so it implements the
/// segment-run hooks: a split or merge moves the array's tail.
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

    fn search(&self, key: &K) -> Result<usize, usize> {
        self.data.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The subslice of the array that `range` covers; inverted bounds
    /// give an empty slice rather than a panic.
    fn slice<R: RangeBounds<K>>(&self, range: R) -> &[(K, V)] {
        let start = self
            .data
            .partition_point(|(k, _)| match range.start_bound() {
                Bound::Included(lo) => k < lo,
                Bound::Excluded(lo) => k <= lo,
                Bound::Unbounded => false,
            });
        let end = self.data.partition_point(|(k, _)| match range.end_bound() {
            Bound::Included(hi) => k <= hi,
            Bound::Excluded(hi) => k < hi,
            Bound::Unbounded => true,
        });
        &self.data[start..end.max(start)]
    }
}

/// Maps a borrowed entry to an owned pair, as a plain `fn` pointer so
/// the range iterator's type stays nameable.
fn clone_entry<K: Copy, V: Clone>(entry: &(K, V)) -> (K, V) {
    (entry.0, entry.1.clone())
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
        self.search(key).ok().map(|i| &self.data[i].1)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.data[i].1, value)),
            Err(i) => {
                self.data.insert(i, (key, value));
                None
            }
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.search(key).ok().map(|i| self.data.remove(i).1)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    /// Binary search needs no index structure at all.
    fn size_bytes(&self) -> usize {
        0
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        self.slice(range)
            .iter()
            .map(clone_entry as fn(&(K, V)) -> (K, V))
    }

    fn split_off_tail(&mut self, at: &K) -> Option<Self> {
        let cut = self.data.partition_point(|(k, _)| k < at);
        Some(BinarySearchIndex {
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

impl<K: Key, V: Clone> BuildableIndex<K, V> for BinarySearchIndex<K, V> {
    type Config = ();
    type BuildError = Infallible;

    fn build_from(_: &(), sorted: impl IntoIterator<Item = (K, V)>) -> Result<Self, Infallible> {
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
