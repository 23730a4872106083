//! Range scans over a clustered FITing-Tree (paper Section 4.2).
//!
//! A range query locates the segment covering the range start through
//! the **flat segment directory** (the same interpolation-seeded
//! branchless search the point path uses — no B+ tree descent), then
//! sweeps segments in key order by walking the dense directory arrays.
//!
//! Within a segment the page and the insert buffer are two sorted
//! runs, and the scan is **one run cursor** over them. Opening a
//! segment cuts both runs at both ends *by search*
//! (`Segment::cut`): the start in the first segment only, the end
//! only in the segment the end falls in — which one compare against
//! the directory decides: it routes every key of a segment below the
//! next segment's anchor, so `next anchor <= end` puts the whole
//! segment inside the range and no entry of it is compared with the
//! end. From then on the cursor yields **runs** — `(&[K], &[V])`
//! stretches of live page slots between two interruptions (a buffered
//! key, a tombstone, the cut), a buffered pair being a one-element run
//! — and every consumer takes its entries from it: `next` steps a
//! slice iterator that refills from the cursor, `fold` (hence
//! `for_each`, `sum`, `Map::fold`) loops run by run, `count` is
//! arithmetic per segment (page span − tombstones in it + buffer
//! span), and `collect_into` — behind `SortedIndex::range_into` —
//! reserves once per segment opened and copies each run as a slice.

use crate::clustered::FitingTree;
use crate::key::Key;
use crate::segment::Segment;
use fiting_index_api::clone_pair;
use std::iter::Zip;
use std::ops::Bound;
use std::ops::RangeBounds;
use std::slice;

/// A stretch of entries at consecutive positions of two parallel arrays.
type Run<'a, K, V> = (&'a [K], &'a [V]);

/// Iterator over `(key, value)` pairs of a [`FitingTree`] within a key
/// range, in ascending key order.
pub struct RangeIter<'a, K: Key, V> {
    tree: &'a FitingTree<K, V>,
    /// Directory position of the next segment to open; the directory's
    /// length once the segment the range ends in is open.
    next_pos: usize,
    /// Where the range ends: the key, and whether the cut falls above
    /// it (`Included`). `None` is `Unbounded`.
    end: Option<(K, bool)>,
    /// The open segment; `None` once the scan is over.
    seg: Option<&'a Segment<K, V>>,
    /// What the cursor has not yet handed out of the open segment:
    /// page slots `di..de` and the buffered pairs `buf`.
    di: usize,
    de: usize,
    buf: &'a [(K, V)],
    /// The page slot where `buf`'s first key interrupts the page
    /// (`de` when nothing is buffered).
    stop: usize,
    /// The run `next` is stepping through.
    run: Zip<slice::Iter<'a, K>, slice::Iter<'a, V>>,
}

impl<'a, K: Key, V> RangeIter<'a, K, V> {
    pub(crate) fn new<R: RangeBounds<K>>(tree: &'a FitingTree<K, V>, range: R) -> Self {
        let start = match range.start_bound() {
            Bound::Unbounded => None,
            Bound::Included(s) => Some((*s, false)),
            Bound::Excluded(s) => Some((*s, true)),
        };
        let mut scan = RangeIter {
            tree,
            // The segment covering the range start: the floor anchor's
            // position (or the very first segment, for buffered keys
            // below every anchor).
            next_pos: start
                .and_then(|(s, _)| tree.dir.floor_index(s))
                .unwrap_or(0),
            end: match range.end_bound() {
                Bound::Unbounded => None,
                Bound::Included(e) => Some((*e, true)),
                Bound::Excluded(e) => Some((*e, false)),
            },
            seg: None,
            di: 0,
            de: 0,
            buf: &[],
            stop: 0,
            run: [].iter().zip(&[]),
        };
        scan.open(start);
        scan
    }

    /// Opens the segment at `next_pos` (closing the scan when the
    /// directory has none left), cutting both of its runs at `start`
    /// and, if the range ends in it, at the end.
    fn open(&mut self, start: Option<(K, bool)>) {
        let dir = &self.tree.dir;
        if self.next_pos >= dir.len() {
            self.seg = None;
            return;
        }
        let seg = self.tree.segments[dir.slot_at(self.next_pos)]
            .as_ref()
            .expect("directory points at live segment");
        self.next_pos += 1;
        let (di, bi) = start.map_or((0, 0), |(s, through)| seg.cut(s, through));
        // The directory routes every key of this segment below the next
        // anchor: with that anchor at or below the end, the whole segment
        // is inside the range and no entry is compared with the end.
        let next_anchor = (self.next_pos < dir.len()).then(|| dir.anchor_at(self.next_pos));
        let ends_here = (self.end).filter(|&(e, _)| next_anchor.is_none_or(|anchor| anchor > e));
        let (de, be) = match ends_here {
            Some((e, through)) => {
                self.next_pos = dir.len();
                seg.cut(e, through)
            }
            None => (seg.keys.len(), seg.buffer.len()),
        };
        // Inverted bounds cut the end before the start: an empty scan.
        self.seg = Some(seg);
        (self.di, self.de) = (di, de.max(di));
        self.buf = &seg.buffer[bi..be.max(bi)];
        self.stop = self.page_stop(seg);
    }

    /// The page slot where the first buffered key interrupts the page.
    fn page_stop(&self, seg: &Segment<K, V>) -> usize {
        match self.buf.first() {
            Some((bk, _)) => self.di + seg.keys[self.di..self.de].partition_point(|k| k < bk),
            None => self.de,
        }
    }

    /// The next run of the open segment; `None` when it has none left.
    fn next_run(&mut self) -> Option<Run<'a, K, V>> {
        let seg = self.seg?;
        while self.di < self.stop {
            // Tombstoned slots stay in the page arrays but are
            // invisible to scans.
            let (from, to) = seg.live_run(self.di, self.stop);
            self.di = to;
            if from < to {
                return Some((&seg.keys[from..to], &seg.values[from..to]));
            }
        }
        let ((k, v), rest) = self.buf.split_first()?;
        self.buf = rest;
        self.stop = self.page_stop(seg);
        Some((slice::from_ref(k), slice::from_ref(v)))
    }

    /// What `next` left of the run it was stepping through.
    fn take_run(&mut self) -> Zip<slice::Iter<'a, K>, slice::Iter<'a, V>> {
        std::mem::replace(&mut self.run, [].iter().zip(&[]))
    }

    /// Live entries the cursor has yet to hand out of the open segment,
    /// by arithmetic: no key is read, no value ever.
    fn open_len(&self) -> usize {
        self.seg.map_or(0, |seg| {
            self.de - self.di - seg.dead_in(self.di, self.de) + self.buf.len()
        })
    }

    /// Appends the rest of the scan to `out`: one reservation per
    /// segment opened, each run copied as a slice (a `TrustedLen`
    /// extend — no per-entry capacity check).
    pub(crate) fn collect_into(mut self, out: &mut Vec<(K, V)>)
    where
        V: Clone,
    {
        out.extend(self.take_run().map(clone_pair));
        while self.seg.is_some() {
            out.reserve(self.de - self.di + self.buf.len());
            while let Some((keys, values)) = self.next_run() {
                out.extend(keys.iter().zip(values).map(clone_pair));
            }
            self.open(None);
        }
    }
}

impl<'a, K: Key, V> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.run.next() {
                return Some(entry);
            }
            match self.next_run() {
                Some((keys, values)) => self.run = keys.iter().zip(values),
                None => {
                    self.seg?;
                    self.open(None);
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.run.len() + self.open_len(), None)
    }

    fn count(mut self) -> usize {
        let mut n = self.run.len();
        while self.seg.is_some() {
            n += self.open_len();
            self.open(None);
        }
        n
    }

    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let mut acc = self.take_run().fold(init, &mut f);
        while self.seg.is_some() {
            while let Some((keys, values)) = self.next_run() {
                acc = keys.iter().zip(values).fold(acc, &mut f);
            }
            self.open(None);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::{FitingTree, FitingTreeBuilder};
    use fiting_index_api::SortedIndex;
    use std::fmt::Debug;
    use std::ops::Bound::{self, Excluded, Included, Unbounded};
    use std::ops::RangeBounds;

    type Bounds = (Bound<u64>, Bound<u64>);

    /// What a scan of `bounds` must return: a filter over the model,
    /// which — unlike `BTreeMap::range` — takes inverted bounds.
    fn oracle<V: Clone>(model: &[(u64, V)], bounds: Bounds) -> Vec<(u64, V)> {
        let in_bounds = |(k, _): &&(u64, V)| bounds.contains(k);
        model.iter().filter(in_bounds).cloned().collect()
    }

    /// The scan of `bounds` against `want`, consumed every way the run
    /// cursor is: `next` in a loop (`size_hint` never promising more
    /// than is left), `for_each`, `count`, the collect hook appending to
    /// what `out` already held — and each bulk consumer once more on a
    /// scan `next` has already stepped into.
    fn check_scan<V: Clone + PartialEq + Debug>(
        t: &FitingTree<u64, V>,
        bounds: Bounds,
        want: &[(u64, V)],
    ) {
        let own = |(k, v): (&u64, &V)| (*k, v.clone());
        let mut got = Vec::new();
        let mut scan = t.range(bounds);
        loop {
            let (lower, left) = (scan.size_hint().0, want.len() - got.len());
            assert!(lower <= left, "{bounds:?}: size_hint {lower} > {left}");
            match scan.next() {
                Some(entry) => got.push(own(entry)),
                None => break,
            }
        }
        assert!(scan.next().is_none(), "{bounds:?}: not fused");
        assert_eq!(got, want, "{bounds:?} by next");

        for stepped in [0, 1, 3] {
            let stepped = stepped.min(want.len());
            let scan = || {
                let mut scan = t.range(bounds);
                let head: Vec<(u64, V)> = scan.by_ref().take(stepped).map(own).collect();
                (head, scan)
            };
            let (mut got, rest) = scan();
            rest.for_each(|entry| got.push(own(entry)));
            assert_eq!(got, want, "{bounds:?} by for_each after {stepped}");

            let (_, rest) = scan();
            assert_eq!(stepped + rest.count(), want.len(), "{bounds:?} by count");

            let (mut got, rest) = scan();
            rest.collect_into(&mut got);
            assert_eq!(got, want, "{bounds:?} by collect_into after {stepped}");
        }

        let mut out = want[..want.len().min(1)].to_vec();
        t.range_into(bounds, &mut out);
        assert_eq!(out[out.len() - want.len()..], *want, "{bounds:?} by hook");
        assert_eq!(out.len(), want.len() + want.len().min(1), "{bounds:?} kept");
        assert_eq!(t.range_count(bounds), want.len());
        assert_eq!(SortedIndex::range(t, bounds).count(), want.len());
    }

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
        for key in &doomed {
            assert_eq!(t.remove(key), model.remove(key));
        }
        // Keys below every anchor: buffered in the first segment.
        for key in [10, 500, 990] {
            assert_eq!(t.insert(key, key), model.insert(key, key));
        }
        assert!(t.dir.anchor_at(0) > 990);
        t.check_invariants().unwrap();
        let model: Vec<(u64, u64)> = model.into_iter().collect();
        let check = |bounds| check_scan(&t, bounds, &oracle(&model, bounds));

        let last = model[model.len() - 1].0;
        let mut starts: Vec<u64> = vec![0, 10, 11, 999, 1_000, last, last + 1, u64::MAX];
        // Present keys, removed keys, and absent neighbours of both.
        for key in (1_000..last).step_by(997) {
            let at = model[model.partition_point(|&(k, _)| k < key)].0;
            starts.extend([key, at, at + 1, at - 1]);
        }
        for &s in &starts {
            let e = s.saturating_add(20_000);
            check((Included(s), Excluded(e)));
            check((Excluded(s), Included(e)));
            // Start and end in the same run, on the same key, inverted.
            check((Included(s), Included(s.saturating_add(40))));
            check((Included(s), Included(s)));
            check((Included(s), Excluded(s)));
            check((Excluded(s), Excluded(s)));
            check((Included(e), Included(s)));
            check((Excluded(e), Excluded(s.saturating_sub(9_000))));
        }
        for s in [0, 990, 1_000, last - 50_000, last] {
            check((Included(s), Unbounded));
            check((Excluded(s), Unbounded));
        }
        check((Unbounded, Unbounded));

        // Ends the one-compare end test and the count arithmetic can get
        // wrong: a segment anchor (the compare's own operand) and the key
        // below it, a tombstoned key, a buffered key — each `Included`
        // and `Excluded`, each also as the start.
        let anchors: Vec<u64> = t.dir.entries().map(|(anchor, _)| anchor).collect();
        let buffered = t.segments.iter().flatten().flat_map(|seg| &seg.buffer);
        let buffered: Vec<u64> = buffered.map(|&(k, _)| k).collect();
        assert!(anchors.len() > 20 && buffered.len() > 50 && doomed.len() > 400);
        let ends: Vec<u64> = (anchors.iter())
            .flat_map(|&anchor| [anchor, anchor - 1])
            .chain(doomed.iter().copied().step_by(11))
            .chain(buffered.iter().copied().step_by(2))
            .collect();
        for &e in &ends {
            let s = e.saturating_sub(15_000);
            check((Included(s), Included(e)));
            check((Excluded(s), Excluded(e)));
            check((Unbounded, Included(e)));
            check((Included(e), Excluded(e.saturating_add(15_000))));
            check((Excluded(e), Included(e.saturating_add(15_000))));
        }
    }

    /// A page whose every slot is dead over a live buffer, between two
    /// ordinary segments; with `V = ()` the value run is zero-sized.
    fn dead_page_over_a_live_buffer<V: Clone + PartialEq + Debug>(value: fn(u64) -> V) {
        // Three runs a million apart: 200, 40 and 200 keys, ten apart.
        let run = |base: u64, n: u64| (0..n).map(move |k| base + k * 10);
        let keys = run(0, 200)
            .chain(run(1_000_000, 40))
            .chain(run(2_000_000, 200));
        let mut model: Vec<(u64, V)> = keys.map(|k| (k, value(k))).collect();
        let mut t = FitingTreeBuilder::new(64).bulk_load(model.clone()).unwrap();
        assert_eq!(t.segment_count(), 3);
        // 34 removes re-carve the middle page twice, down to six slots —
        // few enough to all die without another re-carve.
        let middle = |t: &FitingTree<u64, V>| {
            let seg = t.segments[t.dir.locate(1_000_395).unwrap()]
                .as_ref()
                .unwrap();
            (seg.keys.len(), seg.live_len(), seg.buffer.len())
        };
        for key in run(1_000_000, 34) {
            assert!(t.remove(&key).is_some());
        }
        assert_eq!(middle(&t), (6, 6, 0));
        for key in [1_000_345, 1_000_365, 1_000_385] {
            t.insert(key, value(key));
            model.push((key, value(key)));
        }
        for key in run(1_000_340, 6) {
            assert!(t.remove(&key).is_some());
        }
        assert_eq!(middle(&t), (6, 0, 3));
        model.retain(|(k, _)| !(1_000_000..1_000_400).contains(k) || k % 10 == 5);
        model.sort_by_key(|&(k, _)| k);
        t.check_invariants().unwrap();

        let check = |bounds| check_scan(&t, bounds, &oracle(&model, bounds));
        for s in [0, 1_990, 1_000_000, 1_000_345, 1_000_350, 1_000_390] {
            for e in [
                1_000_000, 1_000_364, 1_000_365, 1_000_395, 2_000_000, 2_000_090,
            ] {
                check((Included(s), Included(e)));
                check((Excluded(s), Excluded(e)));
            }
            check((Included(s), Unbounded));
        }
        check((Unbounded, Unbounded));
    }

    #[test]
    fn a_dead_page_over_a_live_buffer_scans_as_its_buffer() {
        dead_page_over_a_live_buffer(|v| v);
        dead_page_over_a_live_buffer(|_| ());
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
