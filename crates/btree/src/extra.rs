//! Convenience APIs layered over the core tree operations: key/value
//! iterators and bulk extension.

use crate::tree::BPlusTree;

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Iterator over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterator over values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord + Clone, V> Extend<(K, V)> for BPlusTree<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BPlusTree;

    #[test]
    fn keys_and_values_are_sorted_projections() {
        let t = BPlusTree::bulk_load((0..100u64).map(|k| (k, k * 2)));
        let ks: Vec<u64> = t.keys().copied().collect();
        assert_eq!(ks, (0..100).collect::<Vec<_>>());
        let vs: Vec<u64> = t.values().copied().collect();
        assert_eq!(vs[10], 20);
    }

    #[test]
    fn extend_merges_entries() {
        let mut t = BPlusTree::bulk_load((0..10u64).map(|k| (k * 2, k)));
        t.extend((0..10u64).map(|k| (k * 2 + 1, k)));
        assert_eq!(t.len(), 20);
        t.check_invariants().unwrap();
    }
}
