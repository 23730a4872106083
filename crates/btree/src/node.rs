//! Node representation: sorted-array leaves and internal nodes.
//!
//! Separator invariant: an internal node with children `c0..=cn` and keys
//! `k0..=k(n-1)` guarantees that every key in `c(i)` is `< k(i)` and every
//! key in `c(i+1)` is `>= k(i)`. Separators are lower bounds of the
//! right-hand subtree; deletions may leave a separator that no longer
//! occurs in the leaves, which keeps the invariant intact.

use std::mem::size_of;

/// A tree node: either an internal routing node or a leaf holding entries.
#[derive(Debug, Clone)]
pub(crate) enum Node<K, V> {
    /// Routing node: `keys.len() + 1 == children.len()`.
    Internal(InternalNode<K, V>),
    /// Entry node: `keys.len() == values.len()`.
    Leaf(LeafNode<K, V>),
}

#[derive(Debug, Clone)]
pub(crate) struct InternalNode<K, V> {
    pub keys: Vec<K>,
    // Boxed children keep subtree roots address-stable and make the
    // sorted-array shifts on insert/split move 8-byte pointers instead
    // of whole Node values (~4 cache lines each).
    #[allow(clippy::vec_box)]
    pub children: Vec<Box<Node<K, V>>>,
}

#[derive(Debug, Clone)]
pub(crate) struct LeafNode<K, V> {
    pub keys: Vec<K>,
    pub values: Vec<V>,
}

impl<K, V> Node<K, V> {
    pub(crate) fn new_leaf() -> Self {
        Node::Leaf(LeafNode {
            keys: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Number of routing keys (internal) or entries (leaf) in this node.
    pub(crate) fn key_count(&self) -> usize {
        match self {
            Node::Internal(n) => n.keys.len(),
            Node::Leaf(n) => n.keys.len(),
        }
    }

    /// Whether this node violates minimum occupancy for the given order.
    ///
    /// Occupancy is measured in entries for leaves and in *children* for
    /// internal nodes — mixing the two (keys = children − 1) makes merges
    /// overfill nodes by one.
    pub(crate) fn is_underfull(&self, order: usize) -> bool {
        match self {
            Node::Leaf(n) => n.keys.len() < order / 2,
            Node::Internal(n) => n.children.len() < order / 2,
        }
    }

    /// Whether this node can lend one entry/child to a sibling and stay
    /// at or above minimum occupancy.
    pub(crate) fn can_lend(&self, order: usize) -> bool {
        match self {
            Node::Leaf(n) => n.keys.len() > order / 2,
            Node::Internal(n) => n.children.len() > order / 2,
        }
    }

    /// First key of the subtree rooted at this node, if non-empty.
    pub(crate) fn subtree_min(&self) -> Option<&K> {
        let mut node = self;
        loop {
            match node {
                Node::Internal(n) => node = n.children.first()?,
                Node::Leaf(n) => return n.keys.first(),
            }
        }
    }

    /// Last entry of the subtree rooted at this node, if non-empty.
    pub(crate) fn subtree_max_entry(&self) -> Option<(&K, &V)> {
        let mut node = self;
        loop {
            match node {
                Node::Internal(n) => node = n.children.last()?,
                Node::Leaf(n) => {
                    let k = n.keys.last()?;
                    let v = n.values.last()?;
                    return Some((k, v));
                }
            }
        }
    }

    /// Estimated bytes of this single node (not the subtree): sorted key
    /// array + value/child-pointer array + a fixed node header.
    pub(crate) fn node_bytes(&self) -> usize {
        const NODE_HEADER: usize = 24; // enum tag + two Vec headers, amortized
        match self {
            Node::Internal(n) => {
                NODE_HEADER + n.keys.len() * size_of::<K>() + n.children.len() * size_of::<usize>()
            }
            Node::Leaf(n) => {
                NODE_HEADER + n.keys.len() * size_of::<K>() + n.values.len() * size_of::<V>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(keys: Vec<u64>) -> Node<u64, u64> {
        let values = keys.clone();
        Node::Leaf(LeafNode { keys, values })
    }

    #[test]
    fn occupancy_is_measured_in_children_for_internal_nodes() {
        let internal: Node<u64, u64> = Node::Internal(InternalNode {
            keys: vec![10],
            children: vec![Box::new(leaf(vec![1])), Box::new(leaf(vec![10]))],
        });
        // order 4: internal min children = 2, so 2 children is not underfull
        // and cannot lend.
        assert!(!internal.is_underfull(4));
        assert!(!internal.can_lend(4));
        // order 8: min children = 4.
        assert!(internal.is_underfull(8));
    }

    #[test]
    fn subtree_min_max_walk_through_internal_levels() {
        let node: Node<u64, u64> = Node::Internal(InternalNode {
            keys: vec![10],
            children: vec![Box::new(leaf(vec![1, 2])), Box::new(leaf(vec![10, 11]))],
        });
        assert_eq!(node.subtree_min(), Some(&1));
        assert_eq!(node.subtree_max_entry(), Some((&11, &11)));
    }

    #[test]
    fn empty_leaf_has_no_extrema() {
        let node: Node<u64, u64> = Node::new_leaf();
        assert!(node.subtree_min().is_none());
        assert!(node.subtree_max_entry().is_none());
    }

    #[test]
    fn node_bytes_grows_with_entries() {
        let small = leaf(vec![1]);
        let big = leaf((0..100).collect());
        assert!(big.node_bytes() > small.node_bytes());
    }
}
