//! One-pass bottom-up bulk loading.
//!
//! The FITing-Tree's bulk-load path (paper Section 3) segments the data in
//! one pass and then loads the resulting `(start_key, segment)` pairs into
//! its inner B+ tree. Building that tree bottom-up from sorted input is
//! both faster than repeated inserts and yields densely packed nodes,
//! which is what the paper's size accounting assumes (fill factor `f` in
//! the Section 6.2 size model).

use crate::node::{InternalNode, LeafNode, Node};
use crate::tree::{BPlusTree, DEFAULT_ORDER, MIN_ORDER};

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Builds a tree from an iterator of **strictly increasing** keys.
    ///
    /// Equivalent to `bulk_load_with` at the default order and a 100%
    /// fill factor.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not strictly increasing.
    #[must_use]
    pub fn bulk_load<I>(sorted: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
    {
        Self::bulk_load_with(sorted, DEFAULT_ORDER, 1.0)
    }

    /// Builds a tree from sorted input with explicit `order` and leaf
    /// `fill` factor in `(0, 1]`.
    ///
    /// A fill factor below 1.0 leaves headroom in each leaf so subsequent
    /// inserts do not immediately split, mirroring how the paper's
    /// baselines leave pages partially filled (Section 5).
    ///
    /// # Panics
    ///
    /// Panics if `order < MIN_ORDER`, `fill` is not in `(0, 1]`, or keys
    /// are not strictly increasing.
    #[must_use]
    pub(crate) fn bulk_load_with<I>(sorted: I, order: usize, fill: f64) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
    {
        assert!(order >= MIN_ORDER, "order must be at least {MIN_ORDER}");
        assert!(
            (0.5..=1.0).contains(&fill),
            "fill factor must be in [0.5, 1] so bulk-loaded nodes meet minimum occupancy"
        );
        let per_leaf = ((order as f64 * fill) as usize).clamp(order / 2, order);

        // Level 0: pack leaves.
        let mut leaves: Vec<Box<Node<K, V>>> = Vec::new();
        let mut keys: Vec<K> = Vec::with_capacity(per_leaf);
        let mut values: Vec<V> = Vec::with_capacity(per_leaf);
        let mut last_key: Option<K> = None;
        let mut len = 0usize;
        for (k, v) in sorted {
            if let Some(prev) = &last_key {
                assert!(prev < &k, "bulk_load requires strictly increasing keys");
            }
            last_key = Some(k.clone());
            keys.push(k);
            values.push(v);
            len += 1;
            if keys.len() == per_leaf {
                leaves.push(Box::new(Node::Leaf(LeafNode {
                    keys: std::mem::take(&mut keys),
                    values: std::mem::take(&mut values),
                })));
                keys.reserve(per_leaf);
                values.reserve(per_leaf);
            }
        }
        if !keys.is_empty() {
            leaves.push(Box::new(Node::Leaf(LeafNode { keys, values })));
        }
        if leaves.is_empty() {
            return BPlusTree::with_order(order);
        }
        // Avoid an underfull trailing leaf (would break the occupancy
        // invariant): rebalance the last two leaves if needed.
        if leaves.len() >= 2 {
            let min = order / 2;
            let last_len = leaves.last().expect("non-empty").key_count();
            if last_len < min {
                let prev_len = leaves[leaves.len() - 2].key_count();
                if prev_len + last_len <= order {
                    // Too few entries to make two valid leaves: merge.
                    let Node::Leaf(mut b) = *leaves.pop().expect("non-empty") else {
                        unreachable!("level 0 holds leaves only")
                    };
                    let Node::Leaf(a) = leaves.last_mut().expect("non-empty").as_mut() else {
                        unreachable!("level 0 holds leaves only")
                    };
                    a.keys.append(&mut b.keys);
                    a.values.append(&mut b.values);
                } else {
                    // Steal from the previous leaf to reach occupancy.
                    let prev = leaves.len() - 2;
                    let (l, r) = leaves.split_at_mut(prev + 1);
                    let (Node::Leaf(a), Node::Leaf(b)) = (l[prev].as_mut(), r[0].as_mut()) else {
                        unreachable!("level 0 holds leaves only")
                    };
                    let need = min - last_len;
                    let cut = a.keys.len() - need;
                    let mut moved_k = a.keys.split_off(cut);
                    let mut moved_v = a.values.split_off(cut);
                    moved_k.append(&mut b.keys);
                    moved_v.append(&mut b.values);
                    b.keys = moved_k;
                    b.values = moved_v;
                }
            }
        }

        // Upper levels: group `order` children per internal node.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<Box<Node<K, V>>> = Vec::with_capacity(level.len() / 2 + 1);
            let mut chunk: Vec<Box<Node<K, V>>> = Vec::with_capacity(order);
            for child in level {
                chunk.push(child);
                if chunk.len() == order {
                    next.push(Self::make_internal(std::mem::take(&mut chunk)));
                }
            }
            if !chunk.is_empty() {
                // Same trailing-underflow fix one level up: steal children
                // from the previous node so the last one meets occupancy.
                if chunk.len() < order / 2 && !next.is_empty() {
                    let prev = next.pop().expect("checked non-empty");
                    let Node::Internal(p) = *prev else {
                        unreachable!("upper levels contain internal nodes only")
                    };
                    let mut children = p.children;
                    let need = order / 2 - chunk.len();
                    let cut = children.len() - need;
                    let mut moved = children.split_off(cut);
                    moved.append(&mut chunk);
                    chunk = moved;
                    next.push(Self::make_internal(children));
                }
                next.push(Self::make_internal(chunk));
            }
            level = next;
        }
        let root = level.pop().expect("at least one node");
        BPlusTree { root, len, order }
    }

    /// Wraps `children` in an internal node, computing separators as the
    /// minimum key of each child subtree after the first.
    #[allow(clippy::vec_box)] // see InternalNode::children
    fn make_internal(children: Vec<Box<Node<K, V>>>) -> Box<Node<K, V>> {
        debug_assert!(!children.is_empty());
        let keys = children
            .iter()
            .skip(1)
            .map(|c| {
                c.subtree_min()
                    .expect("bulk-loaded child is non-empty")
                    .clone()
            })
            .collect();
        Box::new(Node::Internal(InternalNode { keys, children }))
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{BPlusTree, MIN_ORDER};

    #[test]
    fn bulk_load_roundtrip_various_sizes() {
        for n in [0u64, 1, 2, 3, 4, 5, 15, 16, 17, 255, 256, 257, 4096, 10_000] {
            let t = BPlusTree::bulk_load((0..n).map(|k| (k, k * 3)));
            assert_eq!(t.len(), n as usize, "n={n}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            for k in 0..n {
                assert_eq!(t.get(&k), Some(&(k * 3)), "n={n} k={k}");
            }
            let collected: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
            assert_eq!(collected, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bulk_load_small_orders_and_fills() {
        for order in [MIN_ORDER, 8, 64] {
            for fill in [0.5, 0.75, 1.0] {
                let n = 1000u64;
                let t = BPlusTree::bulk_load_with((0..n).map(|k| (k, k)), order, fill);
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("order={order} fill={fill}: {e}"));
                assert_eq!(t.len(), n as usize);
                assert_eq!(t.get(&999), Some(&999));
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts_and_removes() {
        let mut t = BPlusTree::bulk_load((0..1000u64).map(|k| (k * 2, k)));
        for k in 0..1000u64 {
            t.insert(k * 2 + 1, k);
        }
        assert_eq!(t.len(), 2000);
        t.check_invariants().unwrap();
        for k in 0..500u64 {
            assert!(t.remove(&(k * 4)).is_some());
        }
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bulk_load_rejects_unsorted() {
        let _ = BPlusTree::bulk_load([(2u64, 0u64), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bulk_load_rejects_duplicates() {
        let _ = BPlusTree::bulk_load([(1u64, 0u64), (1, 1)]);
    }

    #[test]
    fn bulk_load_merges_tiny_trailing_leaf() {
        // order 16, fill 0.5 -> 8 entries per leaf; 9 entries leaves a
        // 1-entry trailing leaf that cannot steal without underfilling
        // its neighbour, so the two merge.
        let t = BPlusTree::bulk_load_with((0..9u64).map(|k| (k, k)), 16, 0.5);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 9);
        assert_eq!(t.stats().leaf_nodes, 1);
    }

    #[test]
    #[should_panic(expected = "fill factor")]
    fn bulk_load_rejects_low_fill() {
        let _ = BPlusTree::bulk_load_with((0..10u64).map(|k| (k, k)), 16, 0.25);
    }

    #[test]
    fn bulk_load_fill_factor_changes_leaf_count() {
        let n = 10_000u64;
        let dense = BPlusTree::bulk_load_with((0..n).map(|k| (k, k)), 16, 1.0);
        let sparse = BPlusTree::bulk_load_with((0..n).map(|k| (k, k)), 16, 0.5);
        assert!(sparse.stats().leaf_nodes > dense.stats().leaf_nodes);
    }
}
