//! The [`BPlusTree`] container and its point operations.

use crate::node::{id, Inner, Leaf, MIN, ORDER};
use crate::Range;
use std::fmt;
use std::mem::size_of;
use std::ops::RangeBounds;

/// An in-memory B+ tree mapping ordered keys to values.
///
/// Nodes live in two arenas, internal nodes in one and leaves in the
/// other, and name each other by `u32` index. Leaf 0 is always the
/// leftmost leaf: a split keeps the left half in place and a merge frees
/// the right node, so its id never changes.
///
/// See the [crate docs](crate) for the role this plays in the FITing-Tree
/// reproduction. All operations are single-threaded.
#[derive(Clone)]
pub struct BPlusTree<K, V> {
    pub(crate) inners: Vec<Inner<K>>,
    pub(crate) leaves: Vec<Leaf<K, V>>,
    /// Ids retired by merges, reused by splits.
    free_inners: Vec<u32>,
    free_leaves: Vec<u32>,
    root: u32,
    /// Internal levels above the leaves: 0 while the root is a leaf.
    height: usize,
    len: usize,
}

impl<K: Copy + Ord, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pushes `node` into the free slot `free` offers or onto the arena's end.
fn alloc<T>(arena: &mut Vec<T>, free: &mut Vec<u32>, node: T) -> u32 {
    match free.pop() {
        Some(id) => {
            arena[id as usize] = node;
            id
        }
        None => {
            arena.push(node);
            id(arena.len() - 1)
        }
    }
}

impl<K: Copy + Ord, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        BPlusTree {
            inners: Vec::new(),
            leaves: Vec::new(),
            free_inners: Vec::new(),
            free_leaves: Vec::new(),
            root: 0,
            height: 0,
            len: 0,
        }
    }

    pub(crate) fn from_parts(
        inners: Vec<Inner<K>>,
        leaves: Vec<Leaf<K, V>>,
        height: usize,
        len: usize,
    ) -> Self {
        let root = if height == 0 { 0 } else { inners.len() - 1 };
        BPlusTree {
            root: id(root),
            inners,
            leaves,
            free_inners: Vec::new(),
            free_leaves: Vec::new(),
            height,
            len,
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

    /// Id of the leaf whose key range covers `key`.
    pub(crate) fn leaf_id(&self, key: &K) -> usize {
        let mut id = self.root as usize;
        for _ in 0..self.height {
            let node = &self.inners[id];
            id = node.children[node.route(key)] as usize;
        }
        id
    }

    /// Returns a reference to the value mapped to `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = self.leaves.get(self.leaf_id(key))?;
        let i = leaf.find(key).ok()?;
        Some(&leaf.values[i])
    }

    /// Greatest entry with key `<= key` (predecessor query).
    ///
    /// A sparse index stores each page under its *start* key, so locating
    /// the page that covers an arbitrary probe key is exactly a floor
    /// search.
    #[must_use]
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let mut id = self.root as usize;
        // The nearest subtree left of the path, and its height: every key
        // in it is <= key.
        let mut fallback = None;
        for level in (0..self.height).rev() {
            let node = &self.inners[id];
            let i = node.route(key);
            if i > 0 {
                fallback = Some((node.children[i - 1] as usize, level));
            }
            id = node.children[i] as usize;
        }
        let leaf = self.leaves.get(id)?;
        let i = leaf.count_le(key);
        if i > 0 {
            return Some(leaf.entry(i - 1));
        }
        // A stale separator routed us right of every smaller key.
        let (mut id, level) = fallback?;
        for _ in 0..level {
            let node = &self.inners[id];
            id = node.children[node.len - 1] as usize;
        }
        let leaf = &self.leaves[id];
        Some(leaf.entry(leaf.len - 1))
    }

    /// First (smallest-key) entry.
    #[must_use]
    pub fn first(&self) -> Option<(&K, &V)> {
        let leaf = self.leaves.first()?;
        (leaf.len > 0).then(|| leaf.entry(0))
    }

    /// Iterator over the entries whose keys fall in `range`.
    #[must_use]
    pub fn range<R>(&self, range: R) -> Range<'_, K, V>
    where
        R: RangeBounds<K>,
    {
        Range::new(self, range)
    }

    /// Estimated bytes used by the tree structure, by the Section 6.2
    /// convention: per node a header (the bytes it holds besides its
    /// key, value and child slots), plus per entry in use one key and one value
    /// in a leaf, one separator and one 8-byte child pointer in an
    /// internal node.
    #[must_use]
    pub fn size_in_bytes(&self) -> usize {
        let leaves = self.leaves.len() - self.free_leaves.len();
        let inners = self.inners.len() - self.free_inners.len();
        // Every node but the root is some internal node's child.
        let children = if inners == 0 { 0 } else { leaves + inners - 1 };
        let leaf_header = size_of::<Leaf<K, V>>() - ORDER * (size_of::<K>() + size_of::<V>());
        let inner_header =
            size_of::<Inner<K>>() - (ORDER - 1) * size_of::<K>() - ORDER * size_of::<u32>();
        leaves * leaf_header
            + self.len * (size_of::<K>() + size_of::<V>())
            + inners * inner_header
            + (children - inners) * size_of::<K>()
            + children * size_of::<usize>()
    }

    /// Verifies structural invariants; used by tests.
    ///
    /// Checks sortedness, separator bounds, occupancy, the recorded
    /// length and height, that the `next` chain from leaf 0 visits every
    /// leaf once in key order, and that no free-listed id is reachable.
    /// Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.leaves.is_empty() {
            return match self.len {
                0 => Ok(()),
                n => Err(format!("no leaves but len {n}")),
            };
        }
        let mut walk = Walk {
            tree: self,
            seen_inners: vec![false; self.inners.len()],
            seen_leaves: vec![false; self.leaves.len()],
            leaf_order: Vec::new(),
            count: 0,
        };
        walk.node(self.root, self.height, None, None)?;
        if walk.count != self.len {
            return Err(format!(
                "len mismatch: counted {}, recorded {}",
                walk.count, self.len
            ));
        }
        let mut chain = Vec::new();
        let mut next = Some(0);
        while let Some(id) = next {
            if chain.len() == walk.leaf_order.len() {
                return Err("leaf chain is longer than the tree".into());
            }
            chain.push(id);
            next = self.leaves[id as usize].next;
        }
        if chain != walk.leaf_order {
            return Err("leaf chain does not visit the leaves in key order".into());
        }
        let reachable = |seen: &[bool], free: &[u32]| free.iter().any(|&id| seen[id as usize]);
        if reachable(&walk.seen_inners, &self.free_inners)
            || reachable(&walk.seen_leaves, &self.free_leaves)
        {
            return Err("a free-listed id is reachable from the root".into());
        }
        Ok(())
    }
}

impl<K: Copy + Ord, V: Clone> BPlusTree<K, V> {
    /// Inserts `key -> value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.leaves.is_empty() {
            self.leaves.push(Leaf::new(key, value));
            self.len = 1;
            return None;
        }
        let (old, split) = self.insert_at(self.root, self.height, key, value);
        if let Some((sep, right)) = split {
            let root = Inner::new(&[(sep, self.root), (sep, right)]);
            self.root = alloc(&mut self.inners, &mut self.free_inners, root);
            self.height += 1;
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Inserts into the subtree `id`, `height` levels above the leaves.
    /// A split returns the new right sibling and its separator.
    fn insert_at(
        &mut self,
        id: u32,
        height: usize,
        key: K,
        value: V,
    ) -> (Option<V>, Option<(K, u32)>) {
        if height == 0 {
            return self.insert_leaf(id, key, value);
        }
        let node = &self.inners[id as usize];
        let i = node.route(&key);
        let child = node.children[i];
        let (old, split) = self.insert_at(child, height - 1, key, value);
        let Some((sep, right)) = split else {
            return (old, None);
        };
        let node = &mut self.inners[id as usize];
        if node.len < ORDER {
            node.insert(i, sep, right);
            return (old, None);
        }
        // Full: split first, MIN children a side, then insert into the
        // half that owns child i.
        let up = node.keys[MIN - 1];
        let mut sibling = node.clone();
        sibling.keys.copy_within(MIN.., 0);
        sibling.children.copy_within(MIN.., 0);
        sibling.len = MIN;
        node.len = MIN;
        if i < MIN {
            node.insert(i, sep, right);
        } else {
            sibling.insert(i - MIN, sep, right);
        }
        let sibling = alloc(&mut self.inners, &mut self.free_inners, sibling);
        (old, Some((up, sibling)))
    }

    fn insert_leaf(&mut self, id: u32, key: K, value: V) -> (Option<V>, Option<(K, u32)>) {
        let leaf = &mut self.leaves[id as usize];
        let i = match leaf.find(&key) {
            Ok(i) => return (Some(std::mem::replace(&mut leaf.values[i], value)), None),
            Err(i) => i,
        };
        if leaf.len < ORDER {
            leaf.insert(i, key, value);
            return (None, None);
        }
        let mut right = leaf.split_off(MIN);
        if i <= MIN {
            leaf.insert(i, key, value);
        } else {
            right.insert(i - MIN, key, value);
        }
        let sep = right.keys[0];
        let right = alloc(&mut self.leaves, &mut self.free_leaves, right);
        self.leaves[id as usize].next = Some(right);
        (None, Some((sep, right)))
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.leaves.is_empty() {
            return None;
        }
        let removed = self.remove_at(self.root, self.height, key)?;
        self.len -= 1;
        // A merge under the root can leave it one child, never fewer:
        // collapse it by making that child the root.
        if self.height > 0 && self.inners[self.root as usize].len == 1 {
            self.free_inners.push(self.root);
            self.root = self.inners[self.root as usize].children[0];
            self.height -= 1;
        }
        Some(removed)
    }

    fn remove_at(&mut self, id: u32, height: usize, key: &K) -> Option<V> {
        if height == 0 {
            let leaf = &mut self.leaves[id as usize];
            let i = leaf.find(key).ok()?;
            return Some(leaf.remove(i));
        }
        let node = &self.inners[id as usize];
        let i = node.route(key);
        let child = node.children[i] as usize;
        let removed = self.remove_at(child as u32, height - 1, key)?;
        if height == 1 && self.leaves[child].len < MIN {
            self.rebalance_leaf(id as usize, i);
        } else if height > 1 && self.inners[child].len < MIN {
            self.rebalance_inner(id as usize, i);
        }
        Some(removed)
    }

    /// The sibling pair a merge of child `i` of `parent` joins: child `i`
    /// with its left sibling if it has one, else with its right. `None`
    /// for a lone child, which the root collapse in `remove` handles.
    fn merge_pair(&self, parent: usize, i: usize) -> Option<(usize, u32, u32)> {
        let node = &self.inners[parent];
        let left = if i > 0 { i - 1 } else { i };
        (left + 1 < node.len).then(|| (left, node.children[left], node.children[left + 1]))
    }

    /// Restores occupancy of leaf `i` of `parent` by borrowing from a
    /// sibling or merging with one.
    fn rebalance_leaf(&mut self, parent: usize, i: usize) {
        let children = self.inners[parent].children;
        let n = self.inners[parent].len;
        if i > 0 && self.leaves[children[i - 1] as usize].len > MIN {
            let left = &mut self.leaves[children[i - 1] as usize];
            let last = left.len - 1;
            let key = left.keys[last];
            let value = left.remove(last);
            self.leaves[children[i] as usize].insert(0, key, value);
            self.inners[parent].keys[i - 1] = key;
        } else if i + 1 < n && self.leaves[children[i + 1] as usize].len > MIN {
            let right = &mut self.leaves[children[i + 1] as usize];
            let key = right.keys[0];
            let value = right.remove(0);
            let first = right.keys[0];
            let child = &mut self.leaves[children[i] as usize];
            child.insert(child.len, key, value);
            self.inners[parent].keys[i] = first;
        } else if let Some((sep, left, right)) = self.merge_pair(parent, i) {
            let right_leaf = self.leaves[right as usize].clone();
            let left = &mut self.leaves[left as usize];
            left.append(&right_leaf);
            left.next = right_leaf.next;
            self.free_leaves.push(right);
            self.inners[parent].remove(sep);
        }
    }

    /// Restores occupancy of internal node `i` of `parent`, rotating
    /// children through the parent's separator.
    fn rebalance_inner(&mut self, parent: usize, i: usize) {
        let children = self.inners[parent].children;
        let n = self.inners[parent].len;
        if i > 0 && self.inners[children[i - 1] as usize].len > MIN {
            let left = &mut self.inners[children[i - 1] as usize];
            let moved = left.children[left.len - 1];
            let up = left.keys[left.len - 2];
            left.len -= 1;
            let sep = std::mem::replace(&mut self.inners[parent].keys[i - 1], up);
            // Insert (sep, old first child) at the front, then put the
            // moved child in front of it.
            let child = &mut self.inners[children[i] as usize];
            let first = child.children[0];
            child.insert(0, sep, first);
            child.children[0] = moved;
        } else if i + 1 < n && self.inners[children[i + 1] as usize].len > MIN {
            let right = &mut self.inners[children[i + 1] as usize];
            let moved = right.children[0];
            let up = right.keys[0];
            right.children[0] = right.children[1];
            right.remove(0);
            let sep = std::mem::replace(&mut self.inners[parent].keys[i], up);
            let child = &mut self.inners[children[i] as usize];
            child.insert(child.len - 1, sep, moved);
        } else if let Some((sep, left, right)) = self.merge_pair(parent, i) {
            let right_node = self.inners[right as usize].clone();
            let sep_key = self.inners[parent].keys[sep];
            let left = &mut self.inners[left as usize];
            let (ln, rn) = (left.len, right_node.len);
            left.keys[ln - 1] = sep_key;
            left.keys[ln..ln + rn - 1].copy_from_slice(right_node.seps());
            left.children[ln..ln + rn].copy_from_slice(&right_node.children[..rn]);
            left.len += rn;
            self.free_inners.push(right);
            self.inners[parent].remove(sep);
        }
    }
}

/// State of one `check_invariants` walk.
struct Walk<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    seen_inners: Vec<bool>,
    seen_leaves: Vec<bool>,
    leaf_order: Vec<u32>,
    count: usize,
}

impl<K: Copy + Ord, V> Walk<'_, K, V> {
    fn node(&mut self, id: u32, height: usize, lo: Option<K>, hi: Option<K>) -> Result<(), String> {
        let is_root = id == self.tree.root && height == self.tree.height;
        let in_bounds = |k: &K| lo.is_none_or(|lo| *k >= lo) && hi.is_none_or(|hi| *k < hi);
        let seen = match height {
            0 => &mut self.seen_leaves,
            _ => &mut self.seen_inners,
        };
        match seen.get_mut(id as usize) {
            Some(seen) if !*seen => *seen = true,
            _ => return Err(format!("node {id} at height {height} is missing or shared")),
        }
        if height == 0 {
            let leaf = &self.tree.leaves[id as usize];
            let keys = leaf.keys();
            if keys.len() > ORDER || (!is_root && keys.len() < MIN) {
                return Err(format!("leaf {id} holds {} entries", keys.len()));
            }
            if !keys.windows(2).all(|w| w[0] < w[1]) || !keys.iter().all(in_bounds) {
                return Err(format!("leaf {id} is unsorted or outside its separators"));
            }
            self.leaf_order.push(id);
            self.count += keys.len();
            return Ok(());
        }
        let node = &self.tree.inners[id as usize];
        if node.len > ORDER || node.len < if is_root { 2 } else { MIN } {
            return Err(format!("internal node {id} has {} children", node.len));
        }
        let seps = node.seps();
        if !seps.windows(2).all(|w| w[0] < w[1]) || !seps.iter().all(in_bounds) {
            return Err(format!(
                "internal node {id} has unsorted or unbounded separators"
            ));
        }
        for (i, &child) in node.children[..node.len].iter().enumerate() {
            let clo = if i == 0 { lo } else { Some(seps[i - 1]) };
            let chi = seps.get(i).copied().or(hi);
            self.node(child, height - 1, clo, chi)?;
        }
        Ok(())
    }
}

impl<K: Copy + Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for BPlusTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.range(..)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn shuffle(keys: &mut [u64], rng: &mut StdRng) {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..i + 1));
        }
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
    fn empty_tree_answers_nothing() {
        let mut t = BPlusTree::<u64, u64>::new();
        assert_eq!((t.get(&1), t.floor(&1), t.first()), (None, None, None));
        assert_eq!(t.range(..).count(), 0);
        assert_eq!(t.remove(&1), None);
        assert_eq!(t.size_in_bytes(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn floor_crosses_leaf_boundaries() {
        let mut t = BPlusTree::new();
        assert_eq!(t.floor(&5), None);
        for k in (0..200u64).map(|k| k * 10) {
            t.insert(k, k);
        }
        for k in 0..2100u64 {
            let expected = (k / 10).min(199) * 10;
            assert_eq!(t.floor(&k).map(|(k, _)| *k), Some(expected), "probe {k}");
        }
    }

    #[test]
    fn remove_all_in_random_order() {
        let mut t = BPlusTree::new();
        let mut order: Vec<u64> = (0..600).collect();
        for &k in &order {
            t.insert(k, k);
        }
        shuffle(&mut order, &mut StdRng::seed_from_u64(7));
        for (n, &k) in order.iter().enumerate() {
            assert_eq!(t.remove(&k), Some(k), "removing {k}");
            assert_eq!(t.remove(&k), None, "removing {k} twice");
            assert_eq!(t.len(), order.len() - n - 1);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after removing {k}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!((t.height, t.first()), (0, None));
    }

    #[test]
    fn size_counts_one_key_and_value_per_entry() {
        let t = BPlusTree::bulk_load((0..10_000u64).map(|k| (k, k)));
        let bytes = t.size_in_bytes();
        assert!(bytes > 10_000 * 16 && bytes < 10_000 * 20, "{bytes}");
    }

    /// Seeded model test against `BTreeMap`. 4 000 keys at ORDER 16 make
    /// a tree of at least three levels; the mix churns it through splits,
    /// borrows, merges and root collapses, and every range starts on a
    /// leaf boundary.
    #[test]
    fn agrees_with_btreemap() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree: BPlusTree<u64, u64> = BPlusTree::new();
            let mut model = BTreeMap::new();
            let mut max_height = 0;
            for step in 0..30_000 {
                // Drift from growth to shrinkage and back.
                let grow = (step / 5_000) % 2 == 0;
                let k = rng.gen_range(0..4_000u64);
                match rng.gen_range(0..10) {
                    0..=5 if rng.gen_range(0..10) < if grow { 7 } else { 3 } => {
                        let v = rng.gen();
                        assert_eq!(tree.insert(k, v), model.insert(k, v), "seed {seed}");
                    }
                    0..=5 => {
                        let want = model.remove(&k);
                        assert_eq!(tree.remove(&k), want, "seed {seed}: remove {k}");
                    }
                    6 => assert_eq!(tree.get(&k), model.get(&k), "seed {seed}: get {k}"),
                    7 => {
                        let want = model.range(..=k).next_back();
                        assert_eq!(tree.floor(&k), want, "seed {seed}: floor {k}");
                    }
                    8 => assert_eq!(tree.first(), model.iter().next(), "seed {seed}"),
                    _ => {
                        // Start on the first key of a random leaf.
                        let leaf = tree.leaves.get(rng.gen_range(0..tree.leaves.len().max(1)));
                        let lo = match leaf {
                            Some(leaf) if leaf.len > 0 => leaf.keys[0],
                            _ => k,
                        };
                        let hi = lo + rng.gen_range(0..64u64);
                        // Bounded, so a cycle in the leaf chain fails
                        // instead of exhausting memory.
                        let got: Vec<_> = tree.range(lo..hi).take(65).collect();
                        let want: Vec<_> = model.range(lo..hi).collect();
                        assert_eq!(got, want, "seed {seed}: range {lo}..{hi}");
                    }
                }
                assert_eq!(tree.len(), model.len(), "seed {seed}");
                max_height = max_height.max(tree.height);
                if step % 1_000 == 0 {
                    tree.check_invariants()
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                }
            }
            assert!(
                max_height >= 2,
                "seed {seed}: only {max_height} internal levels"
            );
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let got: Vec<_> = tree.range(..).take(model.len() + 1).collect();
            assert_eq!(got, model.iter().collect::<Vec<_>>(), "seed {seed}");
        }
    }

    /// Emptying the tree and regrowing it reuses the free-listed nodes:
    /// the arenas never grow past the size the first growth reached.
    #[test]
    fn remove_storm_reuses_freed_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut order: Vec<u64> = (0..3_000).collect();
        shuffle(&mut order, &mut rng);
        let mut t = BPlusTree::new();
        let mut peak = None;
        for round in 0..4 {
            for &k in &order {
                t.insert(k, round);
            }
            let arenas = (t.inners.len(), t.leaves.len());
            assert_eq!(*peak.get_or_insert(arenas), arenas, "round {round}");
            let mut storm = order.clone();
            shuffle(&mut storm, &mut rng);
            for k in storm {
                assert_eq!(t.remove(&k), Some(round));
            }
            t.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert!(t.is_empty() && t.range(..).next().is_none());
            assert_eq!(t.free_leaves.len(), t.leaves.len() - 1);
        }
    }

    #[test]
    fn bulk_load_equals_incremental() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys: BTreeSet<u64> = (0..rng.gen_range(0..2_000)).map(|_| rng.gen()).collect();
            let bulk = BPlusTree::bulk_load(keys.iter().map(|&k| (k, k ^ 0xdead)));
            let mut incr = BPlusTree::new();
            for &k in &keys {
                incr.insert(k, k ^ 0xdead);
            }
            bulk.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let (a, b): (Vec<_>, Vec<_>) = (bulk.range(..).collect(), incr.range(..).collect());
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
