//! The [`BPlusTree`] container and its point operations.

use crate::node::{InternalNode, LeafNode, Node};
use crate::{Iter, Range, TreeStats};
use std::borrow::Borrow;
use std::fmt;
use std::ops::RangeBounds;

/// Default maximum number of entries per leaf / children per internal node.
///
/// Sixteen 8-byte keys plus sixteen 8-byte pointers is two cache lines of
/// payload per node, in the same regime as the STX-tree defaults the paper
/// benchmarks against.
pub(crate) const DEFAULT_ORDER: usize = 16;

/// Smallest permitted order. Order 4 keeps splits (2/2) and the
/// borrow/merge deletion rules well-formed.
pub(crate) const MIN_ORDER: usize = 4;

/// An in-memory B+ tree mapping ordered keys to values.
///
/// See the [crate docs](crate) for the role this plays in the FITing-Tree
/// reproduction. All operations are single-threaded; the FITing-Tree core
/// crate layers concurrency on top where needed.
#[derive(Clone)]
pub struct BPlusTree<K, V> {
    pub(crate) root: Box<Node<K, V>>,
    pub(crate) len: usize,
    pub(crate) order: usize,
}

/// Result of inserting into a child that had to split.
struct Split<K, V> {
    sep: K,
    right: Box<Node<K, V>>,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree with `DEFAULT_ORDER`.
    #[must_use]
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree with the given maximum node size.
    ///
    /// # Panics
    ///
    /// Panics if `order < MIN_ORDER`.
    #[must_use]
    pub(crate) fn with_order(order: usize) -> Self {
        assert!(
            order >= MIN_ORDER,
            "B+ tree order must be at least {MIN_ORDER}, got {order}"
        );
        BPlusTree {
            root: Box::new(Node::new_leaf()),
            len: 0,
            order,
        }
    }

    /// Number of entries in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured maximum node size.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        *self.root = Node::new_leaf();
        self.len = 0;
    }

    /// Returns a reference to the value mapped to `key`.
    #[must_use]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_ref();
        loop {
            match node {
                Node::Internal(n) => {
                    let i = n.keys.partition_point(|k| k.borrow() <= key);
                    node = &n.children[i];
                }
                Node::Leaf(n) => {
                    let i = n.keys.binary_search_by(|k| k.borrow().cmp(key)).ok()?;
                    return Some(&n.values[i]);
                }
            }
        }
    }

    /// Returns a mutable reference to the value mapped to `key`.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_mut();
        loop {
            match node {
                Node::Internal(n) => {
                    let i = n.keys.partition_point(|k| k.borrow() <= key);
                    node = &mut n.children[i];
                }
                Node::Leaf(n) => {
                    let i = n.keys.binary_search_by(|k| k.borrow().cmp(key)).ok()?;
                    return Some(&mut n.values[i]);
                }
            }
        }
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Greatest entry with key `<= key` (predecessor query).
    ///
    /// This is the segment-lookup primitive: a FITing-Tree stores each
    /// segment under its *start* key, so locating the segment that covers
    /// an arbitrary probe key is exactly a floor search.
    #[must_use]
    pub fn floor<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_ref();
        // The nearest ancestor subtree that is entirely <= key.
        let mut fallback: Option<&Node<K, V>> = None;
        loop {
            match node {
                Node::Internal(n) => {
                    let i = n.keys.partition_point(|k| k.borrow() <= key);
                    if i > 0 {
                        fallback = Some(&n.children[i - 1]);
                    }
                    node = &n.children[i];
                }
                Node::Leaf(n) => {
                    let i = n.keys.partition_point(|k| k.borrow() <= key);
                    if i > 0 {
                        return Some((&n.keys[i - 1], &n.values[i - 1]));
                    }
                    return fallback.and_then(Node::subtree_max_entry);
                }
            }
        }
    }

    /// First (smallest-key) entry.
    #[must_use]
    pub fn first(&self) -> Option<(&K, &V)> {
        let mut node = self.root.as_ref();
        loop {
            match node {
                Node::Internal(n) => node = n.children.first()?,
                Node::Leaf(n) => {
                    return Some((n.keys.first()?, n.values.first()?));
                }
            }
        }
    }

    /// Last (largest-key) entry.
    #[must_use]
    pub fn last(&self) -> Option<(&K, &V)> {
        self.root.subtree_max_entry()
    }

    /// Inserts `key -> value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let order = self.order;
        let (old, split) = Self::insert_rec(&mut self.root, key, value, order);
        if let Some(split) = split {
            let old_root = std::mem::replace(self.root.as_mut(), Node::new_leaf());
            *self.root = Node::Internal(InternalNode {
                keys: vec![split.sep],
                children: vec![Box::new(old_root), split.right],
            });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(
        node: &mut Node<K, V>,
        key: K,
        value: V,
        order: usize,
    ) -> (Option<V>, Option<Split<K, V>>) {
        match node {
            Node::Leaf(leaf) => match leaf.keys.binary_search(&key) {
                Ok(i) => (Some(std::mem::replace(&mut leaf.values[i], value)), None),
                Err(i) => {
                    leaf.keys.insert(i, key);
                    leaf.values.insert(i, value);
                    if leaf.keys.len() > order {
                        let mid = leaf.keys.len() / 2;
                        let right = LeafNode {
                            keys: leaf.keys.split_off(mid),
                            values: leaf.values.split_off(mid),
                        };
                        let sep = right.keys[0].clone();
                        (
                            None,
                            Some(Split {
                                sep,
                                right: Box::new(Node::Leaf(right)),
                            }),
                        )
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal(inner) => {
                let i = inner.keys.partition_point(|k| *k <= key);
                let (old, child_split) =
                    Self::insert_rec(&mut inner.children[i], key, value, order);
                if let Some(split) = child_split {
                    inner.keys.insert(i, split.sep);
                    inner.children.insert(i + 1, split.right);
                    if inner.children.len() > order {
                        let mid = inner.keys.len() / 2;
                        // Promote keys[mid]; right node takes keys after it.
                        let right_keys = inner.keys.split_off(mid + 1);
                        let sep = inner.keys.pop().expect("mid key exists");
                        let right_children = inner.children.split_off(mid + 1);
                        let right = InternalNode {
                            keys: right_keys,
                            children: right_children,
                        };
                        return (
                            old,
                            Some(Split {
                                sep,
                                right: Box::new(Node::Internal(right)),
                            }),
                        );
                    }
                }
                (old, None)
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let order = self.order;
        let removed = Self::remove_rec(&mut self.root, key, order);
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root that routed down to a single child.
        loop {
            let replace = match self.root.as_mut() {
                Node::Internal(n) if n.children.len() == 1 => {
                    Some(n.children.pop().expect("one child"))
                }
                _ => None,
            };
            match replace {
                Some(child) => self.root = child,
                None => break,
            }
        }
        removed
    }

    fn remove_rec<Q>(node: &mut Node<K, V>, key: &Q, order: usize) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match node {
            Node::Leaf(leaf) => {
                let i = leaf.keys.binary_search_by(|k| k.borrow().cmp(key)).ok()?;
                leaf.keys.remove(i);
                Some(leaf.values.remove(i))
            }
            Node::Internal(inner) => {
                let i = inner.keys.partition_point(|k| k.borrow() <= key);
                let removed = Self::remove_rec(&mut inner.children[i], key, order)?;
                if inner.children[i].is_underfull(order) {
                    Self::rebalance_child(inner, i, order);
                }
                Some(removed)
            }
        }
    }

    /// Restores the minimum-occupancy invariant of `inner.children[i]` by
    /// borrowing from a sibling or merging with one.
    fn rebalance_child(inner: &mut InternalNode<K, V>, i: usize, order: usize) {
        // Try borrowing from the left sibling.
        if i > 0 && inner.children[i - 1].can_lend(order) {
            let (left_slice, right_slice) = inner.children.split_at_mut(i);
            let left = left_slice[i - 1].as_mut();
            let child = right_slice[0].as_mut();
            match (left, child) {
                (Node::Leaf(l), Node::Leaf(c)) => {
                    let k = l.keys.pop().expect("left non-empty");
                    let v = l.values.pop().expect("left non-empty");
                    c.keys.insert(0, k);
                    c.values.insert(0, v);
                    inner.keys[i - 1] = c.keys[0].clone();
                }
                (Node::Internal(l), Node::Internal(c)) => {
                    // Rotate through the separator.
                    let sep = std::mem::replace(
                        &mut inner.keys[i - 1],
                        l.keys.pop().expect("left non-empty"),
                    );
                    let moved_child = l.children.pop().expect("left non-empty");
                    c.keys.insert(0, sep);
                    c.children.insert(0, moved_child);
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Try borrowing from the right sibling.
        if i + 1 < inner.children.len() && inner.children[i + 1].can_lend(order) {
            let (left_slice, right_slice) = inner.children.split_at_mut(i + 1);
            let child = left_slice[i].as_mut();
            let right = right_slice[0].as_mut();
            match (child, right) {
                (Node::Leaf(c), Node::Leaf(r)) => {
                    let k = r.keys.remove(0);
                    let v = r.values.remove(0);
                    c.keys.push(k);
                    c.values.push(v);
                    inner.keys[i] = r.keys[0].clone();
                }
                (Node::Internal(c), Node::Internal(r)) => {
                    let sep = std::mem::replace(&mut inner.keys[i], r.keys.remove(0));
                    let moved_child = r.children.remove(0);
                    c.keys.push(sep);
                    c.children.push(moved_child);
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Merge with a sibling. Merge child i into i-1, or i+1 into i.
        let (left_idx, sep_idx) = if i > 0 { (i - 1, i - 1) } else { (i, i) };
        let right_idx = left_idx + 1;
        if right_idx >= inner.children.len() {
            return; // Root with a single child; handled by the caller.
        }
        let right = inner.children.remove(right_idx);
        let sep = inner.keys.remove(sep_idx);
        let left = inner.children[left_idx].as_mut();
        match (left, *right) {
            (Node::Leaf(l), Node::Leaf(mut r)) => {
                l.keys.append(&mut r.keys);
                l.values.append(&mut r.values);
            }
            (Node::Internal(l), Node::Internal(mut r)) => {
                l.keys.push(sep);
                l.keys.append(&mut r.keys);
                l.children.append(&mut r.children);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    /// In-order iterator over all entries.
    #[must_use]
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(self)
    }

    /// Iterator over the entries whose keys fall in `range`.
    #[must_use]
    pub fn range<R>(&self, range: R) -> Range<'_, K, V>
    where
        R: RangeBounds<K>,
    {
        Range::new(self, range)
    }

    /// Collects shape statistics; walks the whole tree.
    #[must_use]
    pub fn stats(&self) -> TreeStats {
        fn walk<K, V>(node: &Node<K, V>, depth: usize, s: &mut TreeStats) {
            s.size_in_bytes += node.node_bytes();
            s.depth = s.depth.max(depth);
            match node {
                Node::Leaf(leaf) => {
                    s.leaf_nodes += 1;
                    s.len += leaf.keys.len();
                }
                Node::Internal(inner) => {
                    s.internal_nodes += 1;
                    for c in &inner.children {
                        walk(c, depth + 1, s);
                    }
                }
            }
        }
        let mut s = TreeStats {
            len: 0,
            leaf_nodes: 0,
            internal_nodes: 0,
            depth: 0,
            size_in_bytes: 0,
        };
        walk(&self.root, 1, &mut s);
        s
    }

    /// Estimated bytes used by the tree structure.
    #[must_use]
    pub fn size_in_bytes(&self) -> usize {
        self.stats().size_in_bytes
    }

    /// Height of the tree (1 = a lone leaf root).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stats().depth
    }

    /// Verifies structural invariants; used by tests and debug assertions.
    ///
    /// Checks sortedness within nodes, separator bounds, child counts, and
    /// the recorded length. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk<K: Ord + Clone, V>(
            node: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
            order: usize,
            is_root: bool,
            count: &mut usize,
        ) -> Result<(), String> {
            match node {
                Node::Leaf(leaf) => {
                    if leaf.keys.len() != leaf.values.len() {
                        return Err("leaf keys/values length mismatch".into());
                    }
                    if !is_root && leaf.keys.len() < order / 2 {
                        return Err(format!(
                            "underfull leaf: {} < {}",
                            leaf.keys.len(),
                            order / 2
                        ));
                    }
                    if leaf.keys.len() > order {
                        return Err("overfull leaf".into());
                    }
                    for w in leaf.keys.windows(2) {
                        if w[0] >= w[1] {
                            return Err("unsorted leaf keys".into());
                        }
                    }
                    for k in &leaf.keys {
                        if let Some(lo) = lo {
                            if k < lo {
                                return Err("leaf key below separator bound".into());
                            }
                        }
                        if let Some(hi) = hi {
                            if k >= hi {
                                return Err("leaf key not below separator bound".into());
                            }
                        }
                    }
                    *count += leaf.keys.len();
                    Ok(())
                }
                Node::Internal(inner) => {
                    if inner.children.len() != inner.keys.len() + 1 {
                        return Err("internal child/key count mismatch".into());
                    }
                    if !is_root && inner.children.len() < order / 2 {
                        return Err("underfull internal node".into());
                    }
                    if inner.children.len() > order {
                        return Err("overfull internal node".into());
                    }
                    for w in inner.keys.windows(2) {
                        if w[0] >= w[1] {
                            return Err("unsorted separators".into());
                        }
                    }
                    for (i, child) in inner.children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(&inner.keys[i - 1]) };
                        let chi = if i == inner.keys.len() {
                            hi
                        } else {
                            Some(&inner.keys[i])
                        };
                        walk(child, clo, chi, order, false, count)?;
                    }
                    Ok(())
                }
            }
        }
        let mut count = 0;
        walk(&self.root, None, None, self.order, true, &mut count)?;
        if count != self.len {
            return Err(format!(
                "len mismatch: counted {count}, recorded {}",
                self.len
            ));
        }
        Ok(())
    }
}

impl<K: Ord + Clone + fmt::Debug, V: fmt::Debug> fmt::Debug for BPlusTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V> FromIterator<(K, V)> for BPlusTree<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut tree = BPlusTree::new();
        for (k, v) in iter {
            tree.insert(k, v);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "order must be at least")]
    fn rejects_tiny_order() {
        let _ = BPlusTree::<u64, u64>::with_order(2);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new();
        for k in (0..500u64).rev() {
            assert_eq!(t.insert(k, k + 1), None);
        }
        assert_eq!(t.len(), 500);
        for k in 0..500u64 {
            assert_eq!(t.get(&k), Some(&(k + 1)));
        }
        assert_eq!(t.get(&500), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_overwrites_and_returns_old() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(7u64, "a"), None);
        assert_eq!(t.insert(7u64, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7), Some(&"b"));
    }

    #[test]
    fn floor_basics() {
        let mut t = BPlusTree::new();
        for k in [10u64, 20, 30, 40] {
            t.insert(k, k);
        }
        assert_eq!(t.floor(&5), None);
        assert_eq!(t.floor(&10).map(|(k, _)| *k), Some(10));
        assert_eq!(t.floor(&25).map(|(k, _)| *k), Some(20));
        assert_eq!(t.floor(&99).map(|(k, _)| *k), Some(40));
    }

    #[test]
    fn floor_crosses_leaf_boundaries() {
        // Dense enough to force several leaf splits; probe between every
        // pair of adjacent keys.
        let mut t = BPlusTree::with_order(MIN_ORDER);
        for k in (0..200u64).map(|k| k * 10) {
            t.insert(k, k);
        }
        for k in 1..1999u64 {
            let expected = (k / 10) * 10;
            assert_eq!(t.floor(&k).map(|(k, _)| *k), Some(expected), "probe {k}");
        }
    }

    #[test]
    fn remove_all_in_random_order() {
        let mut t = BPlusTree::with_order(MIN_ORDER);
        let keys: Vec<u64> = (0..300).collect();
        for &k in &keys {
            t.insert(k, k);
        }
        // Pseudo-random removal order without a rand dependency.
        let mut order: Vec<u64> = keys.clone();
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for (n, &k) in order.iter().enumerate() {
            assert_eq!(t.remove(&k), Some(k), "removing {k}");
            assert_eq!(t.len(), keys.len() - n - 1);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after removing {k}: {e}"));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = BPlusTree::new();
        t.insert(1u64, 1);
        assert_eq!(t.remove(&2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn first_last_track_extremes() {
        let mut t = BPlusTree::new();
        assert_eq!(t.first(), None);
        assert_eq!(t.last(), None);
        for k in [50u64, 10, 90, 30] {
            t.insert(k, k);
        }
        assert_eq!(t.first().map(|(k, _)| *k), Some(10));
        assert_eq!(t.last().map(|(k, _)| *k), Some(90));
        t.remove(&90);
        assert_eq!(t.last().map(|(k, _)| *k), Some(50));
    }

    #[test]
    fn stats_reflect_shape() {
        let mut t = BPlusTree::with_order(MIN_ORDER);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        let s = t.stats();
        assert_eq!(s.len, 100);
        assert!(s.leaf_nodes >= 100 / MIN_ORDER);
        assert!(s.depth >= 3);
        assert!(s.size_in_bytes > 100 * 16);
    }

    #[test]
    fn clear_resets() {
        let mut t = BPlusTree::new();
        for k in 0..100u64 {
            t.insert(k, k);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&5), None);
        t.insert(1, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn root_collapses_after_mass_removal() {
        let mut t = BPlusTree::with_order(MIN_ORDER);
        for k in 0..64u64 {
            t.insert(k, k);
        }
        for k in 0..63u64 {
            t.remove(&k);
        }
        assert_eq!(t.depth(), 1);
        assert_eq!(t.get(&63), Some(&63));
    }

    /// Model-based: the tree agrees with `BTreeMap` over seeded
    /// operation sequences, at the smallest, the default and a wide
    /// order. Each property runs 64 cases; a failure names its seed.
    mod model {
        use super::*;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};

        fn cases() -> impl Iterator<Item = (u64, StdRng)> {
            (0..64).map(|seed| (seed, StdRng::seed_from_u64(seed)))
        }

        /// Up to 400 operations on keys below 512: inserts, removes,
        /// gets, floors and ranges in the ratio 3 : 2 : 1 : 1 : 1.
        fn agrees_with_btreemap(order: usize) {
            for (seed, mut rng) in cases() {
                let mut tree: BPlusTree<u16, u32> = BPlusTree::with_order(order);
                let mut model: BTreeMap<u16, u32> = BTreeMap::new();
                for _ in 0..rng.gen_range(0..400) {
                    let k = rng.gen_range(0..512);
                    match rng.gen_range(0..8) {
                        0..=2 => {
                            let v = rng.gen();
                            let want = model.insert(k, v);
                            assert_eq!(tree.insert(k, v), want, "seed {seed}: insert {k}");
                        }
                        3 | 4 => {
                            let want = model.remove(&k);
                            assert_eq!(tree.remove(&k), want, "seed {seed}: remove {k}");
                        }
                        5 => assert_eq!(tree.get(&k), model.get(&k), "seed {seed}: get {k}"),
                        6 => {
                            let want = model.range(..=k).next_back();
                            assert_eq!(tree.floor(&k), want, "seed {seed}: floor {k}");
                        }
                        _ => {
                            let other = rng.gen_range(0..512);
                            let (lo, hi) = (k.min(other), k.max(other));
                            let got: Vec<_> = tree.range(lo..hi).collect();
                            let want: Vec<_> = model.range(lo..hi).collect();
                            assert_eq!(got, want, "seed {seed}: range {lo}..{hi}");
                        }
                    }
                    assert_eq!(tree.len(), model.len(), "seed {seed}");
                }
                tree.check_invariants()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                let got: Vec<_> = tree.iter().collect();
                assert_eq!(got, model.iter().collect::<Vec<_>>(), "seed {seed}");
            }
        }

        #[test]
        fn agrees_with_btreemap_min_order() {
            agrees_with_btreemap(MIN_ORDER);
        }

        #[test]
        fn agrees_with_btreemap_default_order() {
            agrees_with_btreemap(DEFAULT_ORDER);
        }

        #[test]
        fn agrees_with_btreemap_wide_order() {
            agrees_with_btreemap(64);
        }

        #[test]
        fn bulk_load_equals_incremental() {
            for (seed, mut rng) in cases() {
                let keys: BTreeSet<u32> = (0..rng.gen_range(0..500)).map(|_| rng.gen()).collect();
                let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0xdead)).collect();
                let bulk = BPlusTree::bulk_load(pairs.clone());
                let incr: BPlusTree<u32, u32> = pairs.iter().copied().collect();
                bulk.check_invariants()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                let (a, b): (Vec<_>, Vec<_>) = (bulk.iter().collect(), incr.iter().collect());
                assert_eq!(a, b, "seed {seed}");
            }
        }

        #[test]
        fn floor_is_total() {
            for (seed, mut rng) in cases() {
                let keys: BTreeSet<u32> = (0..rng.gen_range(1..300))
                    .map(|_| rng.gen_range(0..10_000))
                    .collect();
                let probe = rng.gen_range(0..10_000);
                let tree = BPlusTree::bulk_load(keys.iter().map(|&k| (k, ())));
                let floor = tree.floor(&probe).map(|(k, _)| *k);
                let want = keys.range(..=probe).next_back().copied();
                assert_eq!(floor, want, "seed {seed}: floor {probe}");
            }
        }
    }
}
