//! Range scans over a clustered FITing-Tree (paper Section 4.2).
//!
//! A range query locates the segment covering the range start through
//! the **flat segment directory** (the same interpolation-seeded
//! branchless search the point path uses — no B+ tree descent), then
//! sweeps segments in key order by walking the dense directory arrays.
//! Within each segment the page and the insert buffer are two sorted
//! runs, merged on the fly; tombstoned page slots are skipped.

use crate::clustered::FitingTree;
use crate::key::Key;
use crate::segment::Segment;
use std::ops::Bound;
use std::ops::RangeBounds;

/// Iterator over `(key, value)` pairs of a [`FitingTree`] within a key
/// range, in ascending key order.
pub struct RangeIter<'a, K: Key, V> {
    tree: &'a FitingTree<K, V>,
    /// Next flat-directory position to visit after the current segment.
    next_pos: usize,
    current: Option<MergeIter<'a, K, V>>,
    start: Bound<K>,
    end: Bound<K>,
    done: bool,
}

impl<'a, K: Key, V> RangeIter<'a, K, V> {
    pub(crate) fn new<R: RangeBounds<K>>(tree: &'a FitingTree<K, V>, range: R) -> Self {
        let start = range.start_bound().cloned();
        let end = range.end_bound().cloned();
        // Start the directory walk at the segment covering the range
        // start: the floor anchor's position (or the very first
        // segment, for buffered keys below every anchor).
        let start_pos = match &start {
            Bound::Unbounded => (!tree.dir.is_empty()).then_some(0),
            Bound::Included(k) | Bound::Excluded(k) => tree.dir.floor_index(*k),
        };
        let current = start_pos
            .map(|pos| MergeIter::starting_at(segment(tree, tree.dir.slot_at(pos)), &start));
        RangeIter {
            tree,
            next_pos: start_pos.map_or(0, |pos| pos + 1),
            current,
            start,
            end,
            done: false,
        }
    }

    fn passes_start(&self, key: &K) -> bool {
        match &self.start {
            Bound::Unbounded => true,
            Bound::Included(s) => key >= s,
            Bound::Excluded(s) => key > s,
        }
    }

    fn passes_end(&self, key: &K) -> bool {
        match &self.end {
            Bound::Unbounded => true,
            Bound::Included(e) => key <= e,
            Bound::Excluded(e) => key < e,
        }
    }
}

fn segment<K: Key, V>(tree: &FitingTree<K, V>, slot: usize) -> &Segment<K, V> {
    tree.segments[slot]
        .as_ref()
        .expect("directory points at live segment")
}

impl<'a, K: Key, V> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Some(cur) = &mut self.current else {
                self.done = true;
                return None;
            };
            match cur.next() {
                Some((k, v)) => {
                    if !self.passes_start(k) {
                        continue; // still before the range start
                    }
                    if !self.passes_end(k) {
                        self.done = true;
                        return None;
                    }
                    return Some((k, v));
                }
                None => {
                    if self.next_pos < self.tree.dir.len() {
                        let slot = self.tree.dir.slot_at(self.next_pos);
                        self.next_pos += 1;
                        self.current = Some(MergeIter::new(segment(self.tree, slot)));
                    } else {
                        self.done = true;
                        return None;
                    }
                }
            }
        }
    }
}

/// Merges a segment's sorted page (skipping tombstones) and sorted
/// buffer.
struct MergeIter<'a, K, V> {
    seg: &'a Segment<K, V>,
    di: usize,
    bi: usize,
}

impl<'a, K: Key, V> MergeIter<'a, K, V> {
    fn new(seg: &'a Segment<K, V>) -> Self {
        MergeIter { seg, di: 0, bi: 0 }
    }

    /// Positions both runs at the first entry satisfying `start`, so a
    /// range scan does not walk the segment prefix item by item. The
    /// page seek searches only the model's window
    /// ([`Segment::lower_bound`]), not the whole page.
    fn starting_at(seg: &'a Segment<K, V>, start: &Bound<K>) -> Self {
        let (di, bi) = match start {
            Bound::Unbounded => (0, 0),
            Bound::Included(s) => (
                seg.lower_bound(*s),
                seg.buffer.partition_point(|(k, _)| k < s),
            ),
            Bound::Excluded(s) => {
                let di = seg.lower_bound(*s);
                (
                    di + usize::from(seg.keys.get(di) == Some(s)),
                    seg.buffer.partition_point(|(k, _)| k <= s),
                )
            }
        };
        MergeIter { seg, di, bi }
    }
}

impl<'a, K: Key, V> Iterator for MergeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let d = self.seg.keys.get(self.di);
            let b = self.seg.buffer.get(self.bi);
            match (d, b) {
                (Some(dk), Some((bk, bv))) => {
                    if dk <= bk {
                        let i = self.di;
                        self.di += 1;
                        // Tombstoned slots stay in the key array but are
                        // invisible to scans.
                        if self.seg.is_live(i) {
                            return Some((&self.seg.keys[i], &self.seg.values[i]));
                        }
                    } else {
                        self.bi += 1;
                        return Some((bk, bv));
                    }
                }
                (Some(_), None) => {
                    let i = self.di;
                    self.di += 1;
                    if self.seg.is_live(i) {
                        return Some((&self.seg.keys[i], &self.seg.values[i]));
                    }
                }
                (None, Some((bk, bv))) => {
                    self.bi += 1;
                    return Some((bk, bv));
                }
                (None, None) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FitingTree, FitingTreeBuilder};

    fn tree_with_buffered() -> FitingTree<u64, u64> {
        let mut t = FitingTreeBuilder::new(64)
            .bulk_load((0..1000u64).map(|k| (k * 10, k)))
            .unwrap();
        // Buffered entries interleaved between page keys.
        for k in 0..50u64 {
            t.insert(k * 10 + 5, 100_000 + k);
        }
        t
    }

    #[test]
    fn full_scan_is_sorted_and_complete() {
        let t = tree_with_buffered();
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), 1050);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_bounds_are_respected() {
        let t = tree_with_buffered();
        let got: Vec<u64> = t.range(100..=125).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![100, 105, 110, 115, 120, 125]);
        let got: Vec<u64> = t.range(101..110).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![105]);
    }

    #[test]
    fn range_starting_mid_segment_skips_prefix() {
        let t = FitingTreeBuilder::new(1000)
            .bulk_load((0..10_000u64).map(|k| (k, k)))
            .unwrap();
        assert_eq!(t.segment_count(), 1);
        let got: Vec<u64> = t.range(9_995..).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![9_995, 9_996, 9_997, 9_998, 9_999]);
    }

    #[test]
    fn range_beyond_data_is_empty() {
        let t = tree_with_buffered();
        assert_eq!(t.range(1_000_000..).count(), 0);
    }

    #[test]
    fn range_selectivity_matches_model() {
        // Range scans return exactly selectivity * n items.
        let t = FitingTreeBuilder::new(32)
            .bulk_load((0..100_000u64).map(|k| (k, k)))
            .unwrap();
        assert_eq!(t.range(500..1_500).count(), 1_000);
        assert_eq!(t.range(0..100_000).count(), 100_000);
    }

    #[test]
    fn seeks_agree_with_btreemap_for_every_kind_of_start_key() {
        use std::collections::BTreeMap;
        use std::ops::Bound::{Excluded, Included, Unbounded};
        // Curved keys (many segments, wide envelopes), then buffered
        // back-fills, in-place appends and tombstones on top.
        let mut t = FitingTreeBuilder::new(16)
            .bulk_load((0..3_000u64).map(|k| (1_000 + k * k / 16 + k * 3, k)))
            .unwrap();
        let mut model: BTreeMap<u64, u64> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let top = *model.keys().next_back().unwrap();
        for k in 0..400u64 {
            for key in [1_001 + k * 1_400, top + 380 * (k + 1)] {
                assert_eq!(t.insert(key, k), model.insert(key, k));
            }
        }
        let s = t.stats();
        assert!(s.in_place_appends > 300 && s.buffered_entries > 0);
        let doomed: Vec<u64> = model.keys().copied().step_by(7).collect();
        for key in doomed {
            assert_eq!(t.remove(&key), model.remove(&key));
        }
        t.check_invariants().unwrap();

        let last = *model.keys().next_back().unwrap();
        let mut starts: Vec<u64> = vec![0, 999, 1_000, last, last + 1, u64::MAX];
        // Present keys, removed keys, and absent neighbours of both.
        for key in (1_000..last).step_by(997) {
            let at = *model.range(key..).next().unwrap().0;
            starts.extend([key, at, at + 1, at - 1]);
        }
        for &s in &starts {
            let e = s.saturating_add(20_000);
            for bounds in [
                (Included(s), Excluded(e)),
                (Excluded(s), Included(e)),
                (Included(s), Unbounded),
            ] {
                let got: Vec<(u64, u64)> =
                    t.range(bounds).map(|(k, v)| (*k, *v)).take(50).collect();
                let want: Vec<(u64, u64)> = model
                    .range(bounds)
                    .map(|(k, v)| (*k, *v))
                    .take(50)
                    .collect();
                assert_eq!(got, want, "range {bounds:?}");
            }
        }
    }

    #[test]
    fn scans_skip_tombstoned_slots() {
        let mut t = tree_with_buffered();
        for k in (0..1000u64).step_by(2) {
            assert_eq!(t.remove(&(k * 10)), Some(k));
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), 1050 - 500);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|&k| k % 20 != 0 || k % 10 == 5));
        // A bounded scan across removed keys sees only survivors.
        let got: Vec<u64> = t.range(100..140).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![105, 110, 115, 125, 130, 135]);
    }
}
