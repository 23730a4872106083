//! Range iteration: a `(leaf, slot)` walk along the leaves' `next` links.

use crate::node::Leaf;
use crate::tree::BPlusTree;
use std::ops::{Bound, RangeBounds};

/// Iterator over the entries of a [`BPlusTree`] within a key range.
///
/// Created by [`BPlusTree::range`].
pub struct Range<'a, K, V> {
    leaves: &'a [Leaf<K, V>],
    leaf: Option<usize>,
    slot: usize,
    end: Bound<K>,
}

impl<'a, K: Copy + Ord, V> Range<'a, K, V> {
    pub(crate) fn new<R: RangeBounds<K>>(tree: &'a BPlusTree<K, V>, range: R) -> Self {
        let (leaf, slot) = match range.start_bound() {
            _ if tree.leaves.is_empty() => (None, 0),
            Bound::Unbounded => (Some(0), 0),
            // A slot past the leaf's end moves on along `next`.
            Bound::Included(key) => {
                let id = tree.leaf_id(key);
                (Some(id), tree.leaves[id].find(key).unwrap_or_else(|i| i))
            }
            Bound::Excluded(key) => {
                let id = tree.leaf_id(key);
                (Some(id), tree.leaves[id].count_le(key))
            }
        };
        Range {
            leaves: &tree.leaves,
            leaf,
            slot,
            end: range.end_bound().cloned(),
        }
    }
}

impl<'a, K: Copy + Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = &self.leaves[self.leaf?];
            if self.slot < leaf.len {
                let (k, v) = leaf.entry(self.slot);
                let in_range = match &self.end {
                    Bound::Unbounded => true,
                    Bound::Included(end) => k <= end,
                    Bound::Excluded(end) => k < end,
                };
                if !in_range {
                    self.leaf = None;
                    return None;
                }
                self.slot += 1;
                return Some((k, v));
            }
            self.leaf = leaf.next.map(|id| id as usize);
            self.slot = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::BPlusTree;
    use std::ops::Bound;

    fn tree_of(n: u64) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::new();
        for k in 0..n {
            t.insert(k * 2, k * 2 + 1); // even keys only
        }
        t
    }

    fn keys<'a>(range: impl Iterator<Item = (&'a u64, &'a u64)>) -> Vec<u64> {
        range.map(|(k, _)| *k).collect()
    }

    #[test]
    fn range_inclusive_exclusive_bounds() {
        let t = tree_of(100);
        assert_eq!(keys(t.range(10..20)), vec![10, 12, 14, 16, 18]);
        assert_eq!(keys(t.range(10..=20)), vec![10, 12, 14, 16, 18, 20]);
        assert_eq!(keys(t.range(11..=15)), vec![12, 14]);
        let excluded = t.range((Bound::Excluded(10), Bound::Included(14)));
        assert_eq!(keys(excluded), vec![12, 14]);
    }

    #[test]
    fn range_unbounded_sides() {
        let t = tree_of(50);
        assert_eq!(t.range(..).count(), 50);
        assert_eq!(t.range(90..).count(), 5);
        assert_eq!(t.range(..10).count(), 5);
        assert_eq!(t.range(1000..).count(), 0);
        assert_eq!(t.range(..0).count(), 0);
    }

    #[test]
    fn range_start_past_leaf_boundary_advances() {
        let t = tree_of(200);
        for start in 0..399u64 {
            let want: Vec<u64> = (start..start + 6)
                .filter(|k| k % 2 == 0 && *k <= 398)
                .collect();
            assert_eq!(keys(t.range(start..start + 6)), want, "start {start}");
            let excluded = t.range((Bound::Excluded(start), Bound::Unbounded));
            assert_eq!(excluded.count(), 199 - start as usize / 2, "start {start}");
        }
    }
}
