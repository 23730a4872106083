//! Node representation: fixed-capacity inline arrays, addressed by `u32`
//! ids into the tree's two arenas.
//!
//! Separator invariant: an internal node with children `c0..=cn` and keys
//! `k0..=k(n-1)` guarantees that every key in `c(i)` is `< k(i)` and every
//! key in `c(i+1)` is `>= k(i)`. Separators are lower bounds of the
//! right-hand subtree; deletions may leave a separator that no longer
//! occurs in the leaves, which keeps the invariant intact.
//!
//! Slots past a node's length hold copies of live keys, clones of live
//! values or stale ids, never uninitialised memory: `K: Copy` and, to
//! mutate a leaf, `V: Clone` are the only bounds needed.

/// Maximum entries per leaf and children per internal node.
///
/// Sixteen 8-byte keys are two cache lines, in the same regime as the
/// STX-tree defaults the paper benchmarks against.
pub(crate) const ORDER: usize = 16;

/// Minimum occupancy of every non-root node (entries for a leaf,
/// children for an internal node).
pub(crate) const MIN: usize = ORDER / 2;

/// The id of arena slot `i`.
pub(crate) fn id(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 nodes")
}

/// Routing node: `len` children and `len - 1` separators.
#[derive(Debug, Clone)]
pub(crate) struct Inner<K> {
    pub len: usize,
    pub keys: [K; ORDER - 1],
    pub children: [u32; ORDER],
}

/// Entry node: `len` entries, keys and values inline so a hit's value
/// sits beside its key; `next` links the leaves in key order.
#[derive(Debug, Clone)]
pub(crate) struct Leaf<K, V> {
    pub len: usize,
    pub keys: [K; ORDER],
    pub values: [V; ORDER],
    pub next: Option<u32>,
}

impl<K: Copy + Ord> Inner<K> {
    /// A node over `children`, each paired with its subtree's first key;
    /// the first pair's key routes nothing and is dropped.
    pub(crate) fn new(children: &[(K, u32)]) -> Self {
        let mut node = Inner {
            len: children.len(),
            keys: [children[0].0; ORDER - 1],
            children: [children[0].1; ORDER],
        };
        for (i, &(key, id)) in children.iter().enumerate() {
            if i > 0 {
                node.keys[i - 1] = key;
            }
            node.children[i] = id;
        }
        node
    }

    pub(crate) fn seps(&self) -> &[K] {
        &self.keys[..self.len - 1]
    }

    /// Index of the child whose subtree covers `key`.
    pub(crate) fn route(&self, key: &K) -> usize {
        self.seps().partition_point(|k| k <= key)
    }

    /// Inserts separator `sep` at `i` and `child` right of it. The node
    /// must not be full.
    pub(crate) fn insert(&mut self, i: usize, sep: K, child: u32) {
        let n = self.len;
        self.keys.copy_within(i..n - 1, i + 1);
        self.keys[i] = sep;
        self.children.copy_within(i + 1..n, i + 2);
        self.children[i + 1] = child;
        self.len += 1;
    }

    /// Removes separator `i` and the child right of it.
    pub(crate) fn remove(&mut self, i: usize) {
        let n = self.len;
        self.keys.copy_within(i + 1..n - 1, i);
        self.children.copy_within(i + 2..n, i + 1);
        self.len -= 1;
    }
}

impl<K: Ord, V> Leaf<K, V> {
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys[..self.len]
    }

    /// How many entries have keys `<= key`.
    pub(crate) fn count_le(&self, key: &K) -> usize {
        self.keys().partition_point(|k| k <= key)
    }

    /// `Ok(slot)` of `key`, or `Err(slot)` where it would be inserted.
    pub(crate) fn find(&self, key: &K) -> Result<usize, usize> {
        self.keys().binary_search(key)
    }

    pub(crate) fn entry(&self, i: usize) -> (&K, &V) {
        (&self.keys[i], &self.values[i])
    }
}

impl<K: Copy + Ord, V: Clone> Leaf<K, V> {
    pub(crate) fn new(key: K, value: V) -> Self {
        Leaf {
            len: 1,
            keys: [key; ORDER],
            values: std::array::from_fn(|_| value.clone()),
            next: None,
        }
    }

    /// Inserts at slot `i`. The leaf must not be full.
    pub(crate) fn insert(&mut self, i: usize, key: K, value: V) {
        let n = self.len;
        self.keys.copy_within(i..n, i + 1);
        self.keys[i] = key;
        self.values[n] = value;
        self.values[i..=n].rotate_right(1);
        self.len += 1;
    }

    pub(crate) fn remove(&mut self, i: usize) -> V {
        let n = self.len;
        self.keys.copy_within(i + 1..n, i);
        self.values[i..n].rotate_left(1);
        self.len -= 1;
        let pad = self.values[0].clone();
        std::mem::replace(&mut self.values[n - 1], pad)
    }

    /// Appends `other`'s entries, which must all be greater.
    pub(crate) fn append(&mut self, other: &Self) {
        let (n, m) = (self.len, other.len);
        self.keys[n..n + m].copy_from_slice(other.keys());
        self.values[n..n + m].clone_from_slice(&other.values[..m]);
        self.len += m;
    }

    /// Moves the entries from slot `at` on into a new leaf that takes
    /// over this one's place in the chain (the caller links `next`).
    pub(crate) fn split_off(&mut self, at: usize) -> Self {
        let mut right = self.clone();
        right.keys.copy_within(at.., 0);
        right.values.rotate_left(at);
        right.len = self.len - at;
        self.len = at;
        right
    }
}
