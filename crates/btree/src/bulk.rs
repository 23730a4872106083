//! One-pass bottom-up bulk loading.
//!
//! Building the tree bottom-up from sorted input is both faster than
//! repeated inserts and yields full nodes, which is what the paper's
//! size accounting assumes (fill factor 1 in the Section 6.2 size model).

use crate::node::{id, Inner, Leaf, MIN, ORDER};
use crate::tree::BPlusTree;

/// Node sizes that pack `count` items into full nodes. When the last
/// node would fall below minimum occupancy it takes items from the one
/// before it, which stays at or above `MIN`.
fn packed(count: usize) -> Vec<usize> {
    let mut sizes = vec![ORDER; count / ORDER];
    if !count.is_multiple_of(ORDER) {
        sizes.push(count % ORDER);
    }
    if let [.., prev, last] = sizes.as_mut_slice() {
        if *last < MIN {
            *prev -= MIN - *last;
            *last = MIN;
        }
    }
    sizes
}

impl<K: Copy + Ord, V: Clone> BPlusTree<K, V> {
    /// Builds a tree from an iterator of **strictly increasing** keys.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not strictly increasing.
    #[must_use]
    pub fn bulk_load<I>(sorted: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let sorted: Vec<(K, V)> = sorted.into_iter().collect();
        assert!(
            sorted.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly increasing keys"
        );
        let len = sorted.len();
        let sizes = packed(len);
        let mut leaves = Vec::with_capacity(sizes.len());
        let mut pairs = sorted.into_iter();
        for (i, &size) in sizes.iter().enumerate() {
            let (key, value) = pairs.next().expect("sizes sum to len");
            let mut leaf = Leaf::new(key, value);
            for (key, value) in pairs.by_ref().take(size - 1) {
                leaf.insert(leaf.len, key, value);
            }
            leaf.next = (i + 1 < sizes.len()).then(|| id(i + 1));
            leaves.push(leaf);
        }

        // Upper levels: each node is its subtree's first key and id.
        let mut level: Vec<(K, u32)> = leaves
            .iter()
            .enumerate()
            .map(|(i, leaf)| (leaf.keys[0], id(i)))
            .collect();
        let mut inners = Vec::new();
        let mut height = 0;
        while level.len() > 1 {
            let mut rest = level.as_slice();
            let mut next = Vec::new();
            for size in packed(level.len()) {
                let (children, tail) = rest.split_at(size);
                next.push((children[0].0, id(inners.len())));
                inners.push(Inner::new(children));
                rest = tail;
            }
            level = next;
            height += 1;
        }
        BPlusTree::from_parts(inners, leaves, height, len)
    }
}

#[cfg(test)]
mod tests {
    use super::packed;
    use crate::node::{MIN, ORDER};
    use crate::tree::BPlusTree;

    #[test]
    fn bulk_load_roundtrip_various_sizes() {
        for n in [
            0u64, 1, 2, 3, 4, 5, 15, 16, 17, 24, 25, 255, 256, 257, 4096, 10_000,
        ] {
            let t = BPlusTree::bulk_load((0..n).map(|k| (k, k * 3)));
            assert_eq!(t.len(), n as usize, "n={n}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            for k in 0..n {
                assert_eq!(t.get(&k), Some(&(k * 3)), "n={n} k={k}");
            }
            let collected: Vec<u64> = t.range(..).map(|(k, _)| *k).collect();
            assert_eq!(collected, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn packing_fills_nodes_and_fixes_the_trailing_one() {
        assert_eq!(packed(0), Vec::<usize>::new());
        assert_eq!(packed(3), vec![3]);
        assert_eq!(packed(2 * ORDER), vec![ORDER, ORDER]);
        assert_eq!(packed(ORDER + 1), vec![ORDER + 1 - MIN, MIN]);
        assert_eq!(packed(ORDER + MIN), vec![ORDER, MIN]);
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
}
