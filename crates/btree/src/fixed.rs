//! The fixed-size-page sparse index baseline.
//!
//! The data is chopped into pages of a fixed capacity; the B+ tree holds
//! only each page's first key. This is the paper's head-to-head rival:
//! same sparse-directory idea as the FITing-Tree, but pages are sized by
//! fiat instead of by the data's local linearity, and in-page search is
//! a full binary search instead of a bounded window around an
//! interpolated slot.
//!
//! Inserts mirror the FITing-Tree setup used in Figure 7: each page
//! reserves a sorted buffer of half its capacity; when the buffer fills,
//! page + buffer merge and split into two half-full pages ("as usual,
//! once the buffer is full, the page is split into two pages").

use crate::{BPlusTree, Range};
use fiting_index_api::{BuildableIndex, Key, SortedIndex};
use std::convert::Infallible;
use std::ops::{Bound, RangeBounds};

/// Fixed-size-page sparse index.
#[derive(Debug, Clone)]
pub struct FixedPageIndex<K: Key, V> {
    page_size: usize,
    buffer_size: usize,
    tree: BPlusTree<K, usize>,
    pages: Vec<Option<Page<K, V>>>,
    free: Vec<usize>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Page<K: Key, V> {
    data: Vec<(K, V)>,
    buffer: Vec<(K, V)>,
}

impl<K: Key, V> Page<K, V> {
    fn first_key(&self) -> K {
        match (self.data.first(), self.buffer.first()) {
            (Some(&(d, _)), Some(&(b, _))) => d.min(b),
            (Some(&(d, _)), None) => d,
            (None, Some(&(b, _))) => b,
            (None, None) => unreachable!("pages are never empty"),
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        if let Ok(i) = self.data.binary_search_by(|(k, _)| k.cmp(key)) {
            return Some(&self.data[i].1);
        }
        self.buffer
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.buffer[i].1)
    }

    fn merged(self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.data.len() + self.buffer.len());
        let mut a = self.data.into_iter().peekable();
        let mut b = self.buffer.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.0 <= y.0 {
                        out.push(a.next().expect("peeked"));
                    } else {
                        out.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => out.push(a.next().expect("peeked")),
                (None, Some(_)) => out.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        out
    }
}

/// Bytes of metadata per page entry: first key + page pointer.
const PAGE_METADATA_BYTES: usize = 16;

impl<K: Key, V> FixedPageIndex<K, V> {
    /// Builds from strictly increasing pairs with the given page
    /// capacity, cutting pages straight from the input. Buffer capacity
    /// follows the paper's convention of half the page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size < 2` or keys are not strictly increasing.
    #[must_use]
    pub fn bulk_load<I: IntoIterator<Item = (K, V)>>(page_size: usize, pairs: I) -> Self {
        assert!(page_size >= 2, "page size must be at least 2");
        let mut pairs = pairs.into_iter();
        let mut prev: Option<K> = None;
        let (mut pages, mut entries, mut len) = (Vec::new(), Vec::new(), 0);
        loop {
            let mut data = Vec::with_capacity(page_size);
            data.extend(pairs.by_ref().take(page_size).inspect(|&(key, _)| {
                assert!(
                    prev.is_none_or(|prev| prev < key),
                    "bulk_load requires strictly increasing keys"
                );
                prev = Some(key);
            }));
            let Some(&(first, _)) = data.first() else {
                break;
            };
            len += data.len();
            entries.push((first, pages.len()));
            pages.push(Some(Page {
                data,
                buffer: Vec::new(),
            }));
        }
        FixedPageIndex {
            page_size,
            buffer_size: (page_size / 2).max(1),
            tree: BPlusTree::bulk_load(entries),
            pages,
            free: Vec::new(),
            len,
        }
    }

    /// Number of pages.
    #[must_use]
    pub(crate) fn page_count(&self) -> usize {
        self.tree.len()
    }

    /// Configured page capacity.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The page responsible for `key` — the floor page, or the first
    /// page for keys below every registered key — as the first key it
    /// is registered under and its slot.
    fn locate(&self, key: &K) -> Option<(K, usize)> {
        self.tree
            .floor(key)
            .or_else(|| self.tree.first())
            .map(|(&first, &slot)| (first, slot))
    }

    /// Instrumented lookup for the Figure 13 breakdown: value plus
    /// `(tree_nanos, page_nanos)` — time locating the page vs searching
    /// inside it. Mirrors `FitingTree::get_traced`.
    #[must_use]
    pub fn get_traced(&self, key: &K) -> (Option<&V>, (u64, u64)) {
        let t0 = std::time::Instant::now();
        let slot = self.locate(key);
        let tree_nanos = t0.elapsed().as_nanos() as u64;
        let t1 = std::time::Instant::now();
        let value = slot.and_then(|(_, s)| {
            self.pages[s]
                .as_ref()
                .expect("directory points at live page")
                .get(key)
        });
        let page_nanos = t1.elapsed().as_nanos() as u64;
        (value, (tree_nanos, page_nanos))
    }

    fn alloc(&mut self, page: Page<K, V>) -> usize {
        if let Some(slot) = self.free.pop() {
            self.pages[slot] = Some(page);
            slot
        } else {
            self.pages.push(Some(page));
            self.pages.len() - 1
        }
    }

    /// Splits a page whose buffer overflowed: merge, halve, reinsert.
    fn split(&mut self, slot: usize, registered: K) {
        let page = self.pages[slot].take().expect("split target is live");
        self.free.push(slot);
        self.tree.remove(&registered);
        let merged = page.merged();
        let mid = merged.len() / 2;
        let mut left = merged;
        let right = left.split_off(mid);
        for half in [left, right] {
            if half.is_empty() {
                continue;
            }
            let page = Page {
                data: half,
                buffer: Vec::new(),
            };
            let key = page.first_key();
            let new_slot = self.alloc(page);
            self.tree.insert(key, new_slot);
        }
    }
}

/// Lazy cross-page range scan: walks the directory from the floor page
/// of the lower bound, merging each page's data and buffer on the fly.
pub struct FixedPageRange<'a, K: Key, V> {
    pages: &'a [Option<Page<K, V>>],
    walk: Range<'a, K, usize>,
    current: Option<PageCursor<'a, K, V>>,
    lo: Bound<K>,
    hi: Bound<K>,
    done: bool,
}

struct PageCursor<'a, K: Key, V> {
    page: &'a Page<K, V>,
    di: usize,
    bi: usize,
}

impl<K: Key, V: Clone> Iterator for FixedPageRange<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if self.done {
                return None;
            }
            if self.current.is_none() {
                match self.walk.next() {
                    Some((_, &slot)) => {
                        let page = self.pages[slot]
                            .as_ref()
                            .expect("directory points at live page");
                        self.current = Some(PageCursor { page, di: 0, bi: 0 });
                    }
                    None => {
                        self.done = true;
                        return None;
                    }
                }
            }
            let yielded = {
                let cur = self.current.as_mut().expect("cursor ensured above");
                let page = cur.page;
                let d = page.data.get(cur.di);
                let b = page.buffer.get(cur.bi);
                match (d, b) {
                    (Some((dk, dv)), Some((bk, _))) if dk <= bk => {
                        cur.di += 1;
                        Some((dk, dv))
                    }
                    (_, Some((bk, bv))) => {
                        cur.bi += 1;
                        Some((bk, bv))
                    }
                    (Some((dk, dv)), None) => {
                        cur.di += 1;
                        Some((dk, dv))
                    }
                    (None, None) => None,
                }
            };
            let Some((k, v)) = yielded else {
                self.current = None;
                continue;
            };
            let after_lo = match &self.lo {
                Bound::Included(l) => k >= l,
                Bound::Excluded(l) => k > l,
                Bound::Unbounded => true,
            };
            if !after_lo {
                continue;
            }
            let before_hi = match &self.hi {
                Bound::Included(h) => k <= h,
                Bound::Excluded(h) => k < h,
                Bound::Unbounded => true,
            };
            if !before_hi {
                self.done = true;
                return None;
            }
            return Some((*k, v.clone()));
        }
    }
}

impl<K: Key, V: Clone> SortedIndex<K, V> for FixedPageIndex<K, V> {
    type RangeIter<'a>
        = FixedPageRange<'a, K, V>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn get(&self, key: &K) -> Option<&V> {
        let (_, slot) = self.locate(key)?;
        self.pages[slot]
            .as_ref()
            .expect("directory points at live page")
            .get(key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some((registered, slot)) = self.locate(&key) else {
            let page = Page {
                data: vec![(key, value)],
                buffer: Vec::new(),
            };
            let slot = self.alloc(page);
            self.tree.insert(key, slot);
            self.len += 1;
            return None;
        };
        let page = self.pages[slot]
            .as_mut()
            .expect("directory points at live page");
        // Replace in place if present.
        if let Ok(i) = page.data.binary_search_by(|(k, _)| k.cmp(&key)) {
            return Some(std::mem::replace(&mut page.data[i].1, value));
        }
        match page.buffer.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => return Some(std::mem::replace(&mut page.buffer[i].1, value)),
            Err(i) => page.buffer.insert(i, (key, value)),
        }
        self.len += 1;
        if page.buffer.len() > self.buffer_size {
            self.split(slot, registered);
        }
        None
    }

    /// Removes a key. Empty pages leave the directory; a removed first
    /// key re-registers the page under its new first key.
    fn remove(&mut self, key: &K) -> Option<V> {
        let (registered, slot) = self.locate(key)?;
        let (removed, new_first) = {
            let page = self.pages[slot]
                .as_mut()
                .expect("directory points at live page");
            let removed = if let Ok(i) = page.data.binary_search_by(|(k, _)| k.cmp(key)) {
                page.data.remove(i).1
            } else {
                match page.buffer.binary_search_by(|(k, _)| k.cmp(key)) {
                    Ok(i) => page.buffer.remove(i).1,
                    Err(_) => return None,
                }
            };
            let new_first = if page.data.is_empty() && page.buffer.is_empty() {
                None
            } else {
                Some(page.first_key())
            };
            (removed, new_first)
        };
        self.len -= 1;
        match new_first {
            None => {
                self.pages[slot] = None;
                self.free.push(slot);
                self.tree.remove(&registered);
            }
            Some(first) if first != registered => {
                self.tree.remove(&registered);
                self.tree.insert(first, slot);
            }
            Some(_) => {}
        }
        Some(removed)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_in_bytes() + self.page_count() * PAGE_METADATA_BYTES
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        let lo = range.start_bound().cloned();
        let hi = range.end_bound().cloned();
        // Start the directory walk at the page whose registered first
        // key is the floor of the lower bound — the page *containing*
        // the bound may start below it.
        let walk = match &lo {
            Bound::Included(k) | Bound::Excluded(k) => match self.tree.floor(k) {
                Some((start, _)) => {
                    let start = *start;
                    self.tree.range(start..)
                }
                None => self.tree.range(..),
            },
            Bound::Unbounded => self.tree.range(..),
        };
        FixedPageRange {
            pages: &self.pages,
            walk,
            current: None,
            lo,
            hi,
            done: false,
        }
    }
}

impl<K: Key, V: Clone> BuildableIndex<K, V> for FixedPageIndex<K, V> {
    /// Page capacity (the paper sweeps this the way it sweeps the
    /// FITing-Tree's error).
    type Config = usize;
    type BuildError = Infallible;

    fn build_from(
        page_size: &usize,
        sorted: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, Infallible> {
        Ok(FixedPageIndex::bulk_load(*page_size, sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_load_and_lookup() {
        let idx = FixedPageIndex::bulk_load(64, (0..10_000u64).map(|k| (k * 2, k)));
        assert_eq!(idx.len(), 10_000);
        assert_eq!(idx.page_count(), 10_000 / 64 + 1);
        for k in (0..10_000u64).step_by(17) {
            assert_eq!(idx.get(&(k * 2)), Some(&k));
            assert_eq!(idx.get(&(k * 2 + 1)), None);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bulk_load_rejects_unsorted_input() {
        let _ = FixedPageIndex::bulk_load(4, [(1u64, 0u64), (3, 0), (2, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bulk_load_rejects_a_duplicate_key() {
        // The repeat is the first key of the second page.
        let _ = FixedPageIndex::bulk_load(4, [0u64, 1, 2, 3, 3, 4].map(|k| (k, k)));
    }

    #[test]
    fn page_size_controls_index_size() {
        let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k, k)).collect();
        let small_pages = FixedPageIndex::bulk_load(16, pairs.clone());
        let large_pages = FixedPageIndex::bulk_load(1024, pairs);
        assert!(small_pages.size_bytes() > large_pages.size_bytes());
    }

    #[test]
    fn inserts_split_pages() {
        let mut idx = FixedPageIndex::bulk_load(8, (0..100u64).map(|k| (k * 10, k)));
        let before = idx.page_count();
        for k in 0..200u64 {
            idx.insert(k * 5 + 1, k);
        }
        assert!(idx.page_count() > before);
        assert_eq!(idx.len(), 300);
        for k in 0..200u64 {
            assert_eq!(idx.get(&(k * 5 + 1)), Some(&k), "key {}", k * 5 + 1);
        }
        for k in 0..100u64 {
            assert_eq!(idx.get(&(k * 10)), Some(&k));
        }
    }

    #[test]
    fn insert_below_minimum_key() {
        let mut idx = FixedPageIndex::bulk_load(8, (100..200u64).map(|k| (k, k)));
        idx.insert(5, 55);
        assert_eq!(idx.get(&5), Some(&55));
        let first = idx.range(..).next().map(|(k, _)| k);
        assert_eq!(first, Some(5));
    }

    #[test]
    fn range_scan_spans_pages() {
        let idx = FixedPageIndex::bulk_load(8, (0..1000u64).map(|k| (k, k)));
        assert_eq!(idx.range(100..=299).count(), 200);
        let keys: Vec<u64> = idx.range(37..=42).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![37, 38, 39, 40, 41, 42]);
        // Buffered inserts interleave with page data in scans.
        let mut idx = idx;
        idx.insert(40, 999);
        let vals: Vec<u64> = idx.range(39..=41).map(|(_, v)| v).collect();
        assert_eq!(vals, vec![39, 999, 41]);
    }

    #[test]
    fn remove_handles_first_keys_and_empty_pages() {
        let mut idx = FixedPageIndex::bulk_load(4, (0..40u64).map(|k| (k, k)));
        assert_eq!(idx.remove(&100), None);
        // Remove a page's registered first key: page re-registers.
        assert_eq!(idx.remove(&4), Some(4));
        assert_eq!(idx.get(&5), Some(&5));
        assert_eq!(idx.len(), 39);
        // Drain a whole page: it leaves the directory.
        let pages_before = idx.page_count();
        for k in 5..8u64 {
            assert_eq!(idx.remove(&k), Some(k));
        }
        assert!(idx.page_count() < pages_before);
        // Every surviving key still reachable, in order.
        let keys: Vec<u64> = idx.range(..).map(|(k, _)| k).collect();
        let want: Vec<u64> = (0..40u64).filter(|k| !(4..8).contains(k)).collect();
        assert_eq!(keys, want);
    }

    #[test]
    fn empty_then_insert() {
        let mut idx: FixedPageIndex<u64, u64> = FixedPageIndex::bulk_load(4, []);
        assert!(idx.is_empty());
        for k in 0..50 {
            idx.insert(k, k);
        }
        assert_eq!(idx.len(), 50);
        assert_eq!(idx.get(&25), Some(&25));
    }
}
