//! In-order and range iterators over a [`BPlusTree`].

use crate::node::{InternalNode, LeafNode, Node};
use crate::tree::BPlusTree;
use std::ops::Bound;
use std::ops::RangeBounds;

/// Cursor over the tree: a stack of internal nodes (with the index of the
/// *next* child to descend into) plus the current leaf position.
struct Cursor<'a, K, V> {
    stack: Vec<(&'a InternalNode<K, V>, usize)>,
    leaf: Option<(&'a LeafNode<K, V>, usize)>,
}

impl<'a, K: Ord + Clone, V> Cursor<'a, K, V> {
    /// Positions the cursor at the leftmost entry of the tree.
    fn at_start(tree: &'a BPlusTree<K, V>) -> Self {
        let mut c = Cursor {
            stack: Vec::new(),
            leaf: None,
        };
        c.descend_leftmost(&tree.root);
        c
    }

    /// Positions the cursor at the first entry satisfying `start`.
    fn seek(tree: &'a BPlusTree<K, V>, start: Bound<&K>) -> Self {
        let key = match start {
            Bound::Unbounded => return Self::at_start(tree),
            Bound::Included(k) | Bound::Excluded(k) => k,
        };
        let mut c = Cursor {
            stack: Vec::new(),
            leaf: None,
        };
        let mut node: &'a Node<K, V> = &tree.root;
        loop {
            match node {
                Node::Internal(inner) => {
                    let i = inner.keys.partition_point(|k| k <= key);
                    c.stack.push((inner, i + 1));
                    node = &inner.children[i];
                }
                Node::Leaf(leaf) => {
                    let i = match start {
                        Bound::Included(_) => leaf.keys.partition_point(|k| k < key),
                        Bound::Excluded(_) => leaf.keys.partition_point(|k| k <= key),
                        Bound::Unbounded => 0,
                    };
                    c.leaf = Some((leaf, i));
                    if i >= leaf.keys.len() {
                        // Start bound falls past this leaf: advance once.
                        c.advance_leaf();
                    }
                    return c;
                }
            }
        }
    }

    fn descend_leftmost(&mut self, mut node: &'a Node<K, V>) {
        loop {
            match node {
                Node::Internal(inner) => {
                    self.stack.push((inner, 1));
                    node = &inner.children[0];
                }
                Node::Leaf(leaf) => {
                    self.leaf = Some((leaf, 0));
                    return;
                }
            }
        }
    }

    /// Moves to the first entry of the next leaf, if any.
    fn advance_leaf(&mut self) {
        self.leaf = None;
        while let Some((inner, next)) = self.stack.pop() {
            if next < inner.children.len() {
                self.stack.push((inner, next + 1));
                self.descend_leftmost(&inner.children[next]);
                return;
            }
        }
    }

    fn next_entry(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            let (leaf, i) = self.leaf?;
            if i < leaf.keys.len() {
                self.leaf = Some((leaf, i + 1));
                return Some((&leaf.keys[i], &leaf.values[i]));
            }
            self.advance_leaf();
        }
    }
}

/// In-order iterator over all `(key, value)` entries of a [`BPlusTree`].
///
/// Created by [`BPlusTree::iter`].
pub struct Iter<'a, K, V> {
    cursor: Cursor<'a, K, V>,
    remaining: usize,
}

impl<'a, K: Ord + Clone, V> Iter<'a, K, V> {
    pub(crate) fn new(tree: &'a BPlusTree<K, V>) -> Self {
        Iter {
            cursor: Cursor::at_start(tree),
            remaining: tree.len(),
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.cursor.next_entry()?;
        self.remaining -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: Ord + Clone, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<'a, K: Ord + Clone, V> IntoIterator for &'a BPlusTree<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the entries of a [`BPlusTree`] within a key range.
///
/// Created by [`BPlusTree::range`].
pub struct Range<'a, K, V> {
    cursor: Cursor<'a, K, V>,
    end: Bound<K>,
}

impl<'a, K: Ord + Clone, V> Range<'a, K, V> {
    pub(crate) fn new<R: RangeBounds<K>>(tree: &'a BPlusTree<K, V>, range: R) -> Self {
        let start = range.start_bound();
        let cursor = Cursor::seek(tree, start);
        Range {
            cursor,
            end: range.end_bound().cloned(),
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, v) = self.cursor.next_entry()?;
        let in_range = match &self.end {
            Bound::Unbounded => true,
            Bound::Included(end) => k <= end,
            Bound::Excluded(end) => k < end,
        };
        in_range.then_some((k, v))
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{BPlusTree, MIN_ORDER};
    use std::ops::Bound;

    fn tree_of(n: u64) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::with_order(MIN_ORDER);
        for k in 0..n {
            t.insert(k * 2, k * 2 + 1); // even keys only
        }
        t
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let t = tree_of(250);
        let got: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        let want: Vec<u64> = (0..250).map(|k| k * 2).collect();
        assert_eq!(got, want);
        assert_eq!(t.iter().len(), 250);
    }

    #[test]
    fn iter_empty_tree() {
        let t = BPlusTree::<u64, u64>::new();
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn range_inclusive_exclusive_bounds() {
        let t = tree_of(100);
        let got: Vec<u64> = t.range(10..20).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18]);
        let got: Vec<u64> = t.range(10..=20).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        // Start bound between keys.
        let got: Vec<u64> = t.range(11..=15).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![12, 14]);
        // Excluded start.
        let got: Vec<u64> = t
            .range((Bound::Excluded(10), Bound::Included(14)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, vec![12, 14]);
    }

    #[test]
    fn range_unbounded_sides() {
        let t = tree_of(50);
        assert_eq!(t.range(..).count(), 50);
        assert_eq!(t.range(90..).count(), 5);
        assert_eq!(t.range(..10).count(), 5);
    }

    #[test]
    fn range_past_everything_is_empty() {
        let t = tree_of(10);
        assert_eq!(t.range(1000..).count(), 0);
        assert_eq!(t.range(..0).count(), 0);
    }

    #[test]
    fn range_start_past_leaf_boundary_advances() {
        // Probe starts that land exactly past the last key of a leaf.
        let t = tree_of(200);
        for start in 0..399u64 {
            let got: Vec<u64> = t.range(start..start + 6).map(|(k, _)| *k).collect();
            let want: Vec<u64> = (start..start + 6)
                .filter(|k| k % 2 == 0 && *k <= 398)
                .collect();
            assert_eq!(got, want, "start {start}");
        }
    }
}
