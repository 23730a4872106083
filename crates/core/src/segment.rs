//! A segment: one variable-sized table page plus its insert buffer.
//!
//! Each segment owns the sorted run of keys it covers (the paper's
//! variable-sized table page), the fitted slope used for interpolation,
//! and a fixed-capacity sorted delta buffer for inserts (paper
//! Section 5). Lookups interpolate a position from the slope, then
//! search only the `±seg_error` window around it — the bound the
//! segmentation algorithm guarantees — and finally the buffer.
//!
//! A new key above the page's last key whose slot the *existing* model
//! predicts within `seg_error` is pushed onto the page tail in O(1)
//! (the paper's in-place insert strategy, for the case that shifts
//! nothing); every other new key goes to the buffer. A full buffer (or
//! tombstone pressure) ends the segment: [`Segment::into_merged_run`]
//! hands page ⨝ buffer over as one sorted run — moved by runs of live
//! slots, not entry by entry — and the tree makes the next page or
//! pages from it, re-fitted under the run's endpoint line where the
//! envelope [`Segment::from_run`] measures allows, carved by the cone
//! where not, and capped at 64 buffers either way
//! (`FitingTree::resegment`).
//!
//! # Page layout (SoA)
//!
//! The page is stored **structure-of-arrays**: `keys: Vec<K>` parallel
//! to `values: Vec<V>`. The bounded window search only ever touches the
//! dense key array — every cache line it pulls is full of keys, not
//! half value payload — and is the paper's Section 4.1.2 search, a
//! binary search of the window (`Segment::search`, one for every
//! caller and every width); the value array is read exactly once, on a
//! confirmed hit, and range scans stream exactly `size_of::<V>()`
//! bytes per entry.
//!
//! # Miss budget of a point lookup
//!
//! directory search → `slots[i]` + this header → {key window ∥ value
//! window}. The model bounds the slot to `[lo, hi]` before a page byte
//! is read, so every cache line of `keys[lo..=hi]` and of
//! `values[lo..=hi]` is requested up front, each array while its window
//! is at most `REQUEST_LINES` lines long. One DRAM round trip per
//! page — and the search that follows is `log2(window)` dependent
//! compare-and-select steps on lines already in flight, few enough
//! that the out-of-order core starts the *next* lookup's directory
//! search while this one's lines are still on their way (a scan of the
//! window is hundreds of waiting µops, and nothing starts behind it).
//!
//! Removals are **tombstones** in a lazily-allocated bitmap: O(1), and
//! they leave every surviving key at its original slot, so
//! interpolated predictions stay exact and the search window never
//! needs to widen. The
//! `removed` count still drives re-segmentation so pages don't
//! accumulate dead slots forever.

use crate::key::Key;
use fiting_index_api::prefetch_read;

/// Bytes one prefetch hint covers.
pub(crate) const CACHE_LINE: usize = 64;

/// The most cache lines a search requests of one array (128 `u64`
/// keys). A longer window is searched the same way and misses on
/// demand: the search touches `log2` of its lines, and the budget caps
/// what one lookup may pull into the cache for the single line a hit
/// lands on.
pub(crate) const REQUEST_LINES: usize = 16;

/// Slots from one hint to the next over `run` — a line's worth, or one
/// slot for a `T` wider than a line — or `None` when nothing is
/// requested: `run` holds no bytes or more than [`REQUEST_LINES`] lines.
fn hint_stride<T>(run: &[T]) -> Option<usize> {
    (1..=REQUEST_LINES * CACHE_LINE)
        .contains(&std::mem::size_of_val(run))
        .then(|| (CACHE_LINE / std::mem::size_of::<T>()).max(1))
}

/// Requests the cache lines of `run`, fire-and-forget, if it is within
/// the budget.
#[inline]
fn request_lines<T>(run: &[T]) {
    if let Some(stride) = hint_stride(run) {
        run.iter().step_by(stride).for_each(prefetch_read);
        // `run[0]` may sit mid-line, so the strides can stop one line
        // short of the run's end.
        prefetch_read(&run[run.len() - 1]);
    }
}

/// An envelope deviation as stored (the window caps it at the budget).
fn saturate_u32(deviation: usize) -> u32 {
    u32::try_from(deviation).unwrap_or(u32::MAX)
}

/// A sorted run as the parallel arrays a page adopts: keys ∥ values.
pub(crate) type Run<K, V> = (Vec<K>, Vec<V>);

/// One variable-sized page of the clustered index.
#[derive(Debug, Clone)]
pub(crate) struct Segment<K, V> {
    /// Interpolation anchor: the first key the segmentation placed in
    /// this segment. Buffered inserts may hold smaller keys.
    pub start_key: K,
    /// Cached `start_key.to_f64()` — hoisted out of the per-lookup
    /// prediction, which previously recomputed the projection on every
    /// probe.
    start_key_f: f64,
    /// Fitted slope (positions per key unit), from the segmentation cone.
    pub slope: f64,
    /// The sorted page keys (dense; tombstoned slots keep their key).
    pub keys: Vec<K>,
    /// Values parallel to `keys`, dense — liveness lives in the `dead`
    /// bitmap so scans stream exactly `size_of::<V>()` bytes per entry.
    pub values: Vec<V>,
    /// Tombstone bitmap (one bit per page slot), allocated lazily on
    /// the first page removal; empty means every slot is live, so
    /// segments that never see a delete pay one predictable branch and
    /// zero extra memory.
    dead: Vec<u64>,
    /// Sorted delta buffer; bounded by the tree's configured buffer size.
    pub buffer: Vec<(K, V)>,
    /// Tombstoned page slots since the last (re-)segmentation. Slots
    /// stay in place, so predictions remain exact; the count triggers
    /// re-segmentation before dead slots dominate the page (delete
    /// support is an extension over the paper).
    pub removed: u64,
    /// Measured prediction error bounds over this page: every key at
    /// position `i` satisfies `pred − under ≤ i ≤ pred + over`, where
    /// `pred` is [`predict`](Self::predict) — clamped at 0 only, never
    /// at the page end, so a key's deviation depends on the key and the
    /// model alone and a tail append leaves every older slot's
    /// deviation as it was (tombstones never move slots either). The
    /// search window is the *intersection* of these bounds with the
    /// configured `±(seg_error + 1)` budget and with the page, so it
    /// can only shrink relative to the paper's worst case.
    under: u32,
    /// See [`under`](field@Self::under): max of `i − pred` over the page.
    over: u32,
}

impl<K: Key, V> Segment<K, V> {
    /// A segment whose page adopts the sorted parallel arrays `keys` ∥
    /// `values` as they are (no copy); one pass measures the envelope.
    pub(crate) fn from_run(start_key: K, slope: f64, keys: Vec<K>, values: Vec<V>) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(keys.len(), values.len());
        let mut seg = Segment {
            start_key,
            start_key_f: start_key.to_f64(),
            slope,
            keys,
            values,
            dead: Vec::new(),
            buffer: Vec::new(),
            removed: 0,
            under: 0,
            over: 0,
        };
        seg.measure_error_bounds();
        seg
    }

    /// The tombstone bitmap words (empty when no slot was ever
    /// removed) — read by the snapshot writer, which persists liveness
    /// alongside the SoA page arrays.
    pub(crate) fn dead_words(&self) -> &[u64] {
        &self.dead
    }

    /// The measured prediction-error envelope `(under, over)` — read
    /// by the snapshot writer, which persists it so the decoder can
    /// skip the O(page) re-measurement pass.
    pub(crate) fn error_envelope(&self) -> (u32, u32) {
        (self.under, self.over)
    }

    /// Reassembles a segment from its persisted parts — the snapshot
    /// decoder's constructor. `removed` is recounted from the bitmap
    /// (a cheap popcount); the error envelope `(under, over)` is taken
    /// as persisted — it sits under the section checksum. Debug builds
    /// re-measure it to catch codec bugs and return `None` when the
    /// page disagrees.
    ///
    /// `dead` must be either empty or exactly
    /// `keys.len().div_ceil(64)` words; `buffer` must be sorted by key.
    pub(crate) fn from_raw_parts(
        start_key: K,
        slope: f64,
        keys: Vec<K>,
        values: Vec<V>,
        dead: Vec<u64>,
        buffer: Vec<(K, V)>,
        envelope: (u32, u32),
    ) -> Option<Self> {
        debug_assert!(dead.is_empty() || dead.len() == keys.len().div_ceil(64));
        debug_assert!(buffer.windows(2).all(|w| w[0].0 <= w[1].0));
        let removed: u64 = dead.iter().map(|w| u64::from(w.count_ones())).sum();
        let mut seg = Segment {
            start_key,
            start_key_f: start_key.to_f64(),
            slope,
            keys,
            values,
            dead,
            buffer,
            removed,
            under: envelope.0,
            over: envelope.1,
        };
        if cfg!(debug_assertions) {
            seg.measure_error_bounds();
        }
        (seg.error_envelope() == envelope).then_some(seg)
    }

    /// Whether page slot `i` holds a live (non-tombstoned) entry.
    #[inline]
    pub(crate) fn is_live(&self, i: usize) -> bool {
        self.dead.is_empty() || self.dead[i >> 6] & (1 << (i & 63)) == 0
    }

    /// First slot of `from..to` whose tombstone bit equals `dead`, or
    /// `to` when there is none — a word of the bitmap per step.
    fn next_slot(&self, from: usize, to: usize, dead: bool) -> usize {
        let mut i = from;
        while i < to {
            let word = self.dead[i >> 6];
            let wanted = if dead { word } else { !word } >> (i & 63);
            if wanted != 0 {
                return (i + wanted.trailing_zeros() as usize).min(to);
            }
            i = (i | 63) + 1;
        }
        to
    }

    /// The first stretch of live slots in `from..to`, as `(start, end)`:
    /// `end` is the tombstone that interrupts it, or `to`; `start == end`
    /// when every slot of `from..to` is dead.
    pub(crate) fn live_run(&self, from: usize, to: usize) -> (usize, usize) {
        if self.dead.is_empty() {
            return (from, to);
        }
        let start = self.next_slot(from, to, false);
        (start, self.next_slot(start, to, true))
    }

    /// Tombstones among page slots `from..to`, by popcount: no key and
    /// no value is read.
    pub(crate) fn dead_in(&self, from: usize, to: usize) -> usize {
        if self.dead.is_empty() || from >= to {
            return 0;
        }
        if (from, to) == (0, self.keys.len()) {
            return self.removed as usize;
        }
        let ones = |word: u64| word.count_ones() as usize;
        let (first, last) = (from >> 6, (to - 1) >> 6);
        // Slots at or after `from` in its word; slots before `to` in its.
        let head = !0u64 << (from & 63);
        let tail = !0u64 >> (63 - ((to - 1) & 63));
        if first == last {
            return ones(self.dead[first] & head & tail);
        }
        let between: usize = self.dead[first + 1..last].iter().map(|&w| ones(w)).sum();
        ones(self.dead[first] & head) + between + ones(self.dead[last] & tail)
    }

    /// Tombstones page slot `i`, allocating the bitmap on first use.
    fn mark_dead(&mut self, i: usize) {
        if self.dead.is_empty() {
            self.dead = vec![0u64; self.keys.len().div_ceil(64)];
        }
        debug_assert!(self.is_live(i));
        self.dead[i >> 6] |= 1 << (i & 63);
        self.removed += 1;
    }

    /// Resurrects page slot `i` (insert over a tombstone).
    fn mark_live(&mut self, i: usize) {
        debug_assert!(!self.is_live(i));
        self.dead[i >> 6] &= !(1 << (i & 63));
        self.removed -= 1;
    }

    /// One build-time pass measuring the page's actual prediction error
    /// envelope (`under`/`over`), which the window search intersects
    /// with the configured budget. O(page) with pure arithmetic.
    fn measure_error_bounds(&mut self) {
        let (mut under, mut over) = (0usize, 0usize);
        for (i, &k) in self.keys.iter().enumerate() {
            let pred = self.predict(k);
            under = under.max(pred.saturating_sub(i));
            over = over.max(i.saturating_sub(pred));
        }
        self.under = saturate_u32(under);
        self.over = saturate_u32(over);
    }

    /// Live page entries (tombstones excluded).
    pub(crate) fn live_len(&self) -> usize {
        self.keys.len() - self.removed as usize
    }

    /// Live entries in page + buffer.
    pub(crate) fn len(&self) -> usize {
        self.live_len() + self.buffer.len()
    }

    /// First live page entry.
    fn first_live(&self) -> Option<(&K, &V)> {
        (0..self.keys.len())
            .find(|&i| self.is_live(i))
            .map(|i| (&self.keys[i], &self.values[i]))
    }

    /// Last live page entry.
    pub(crate) fn last_live(&self) -> Option<(&K, &V)> {
        (0..self.keys.len())
            .rev()
            .find(|&i| self.is_live(i))
            .map(|i| (&self.keys[i], &self.values[i]))
    }

    /// Smallest key stored anywhere in this segment.
    pub(crate) fn min_key(&self) -> Option<K> {
        match (self.first_live(), self.buffer.first()) {
            (Some((&d, _)), Some(&(b, _))) => Some(d.min(b)),
            (Some((&d, _)), None) => Some(d),
            (None, Some(&(b, _))) => Some(b),
            (None, None) => None,
        }
    }

    /// Largest key stored anywhere in this segment.
    pub(crate) fn max_key(&self) -> Option<K> {
        match (self.last_live(), self.buffer.last()) {
            (Some((&d, _)), Some(&(b, _))) => Some(d.max(b)),
            (Some((&d, _)), None) => Some(d),
            (None, Some(&(b, _))) => Some(b),
            (None, None) => None,
        }
    }

    /// Interpolated local slot for `key`, clamped at 0 but **not** at
    /// the page end (see [`under`](field@Self::under)): callers clip to
    /// the page.
    ///
    /// Rounds to the nearest slot: the segmentation bound holds in real
    /// arithmetic, and rounding (plus one slot of window slack below)
    /// absorbs `f64` evaluation error in `(key − start) × slope`.
    #[inline]
    pub(crate) fn predict(&self, key: K) -> usize {
        // `+ 0.5` then truncate rounds half up without the libm call
        // `f64::round` costs on baseline x86-64 (this runs once per page
        // key in the envelope pass). The cast saturates: negative
        // predictions land on slot 0 (keys are NaN-free by the Key
        // contract), huge ones on `usize::MAX`.
        ((key.to_f64() - self.start_key_f) * self.slope + 0.5) as usize
    }

    /// The bounded search window `(lo, hi)` (inclusive) for `key` on a
    /// non-empty page: the measured per-page error envelope
    /// intersected with the `±(seg_error + 1)` budget (the `+ 1` covers
    /// `f64` rounding, see [`predict`](Self::predict)) and clipped to
    /// the page. Tombstones keep slots in place and appends leave old
    /// deviations alone, so the window does **not** widen with either.
    #[inline]
    fn window(&self, key: K, seg_error: u64) -> (usize, usize) {
        let pred = self.predict(key);
        let budget = seg_error as usize + 1;
        let hi = pred
            .saturating_add(budget.min(self.over as usize))
            .min(self.keys.len() - 1);
        // A prediction past the page leaves a one-slot window at the
        // tail, which the exact-match compare then rejects.
        let lo = pred.saturating_sub(budget.min(self.under as usize)).min(hi);
        (lo, hi)
    }

    /// First page slot whose key is `>= key` (`keys.len()` if none) —
    /// the range-scan seek. Predictions are monotone in the key, so the
    /// lower bound of *any* key lies in `[pred − under, pred + over + 1]`
    /// clipped to the page: only that window is searched, as the
    /// paper's range query (point lookup, then scan) does.
    pub(crate) fn lower_bound(&self, key: K) -> usize {
        let pred = self.predict(key);
        let n = self.keys.len();
        let hi = pred
            .saturating_add(self.over as usize)
            .saturating_add(1)
            .min(n);
        let lo = pred.saturating_sub(self.under as usize).min(hi);
        self.search(lo, hi, key)
    }

    /// Where a scan bound at `key` cuts the two sorted runs: the page
    /// slots and the buffered pairs that sort before the cut, which
    /// falls just below `key`, or just above it when `through`. Both
    /// ends of a scan are this one search — an `Included` start and an
    /// `Excluded` end cut below their key, the other two above.
    pub(crate) fn cut(&self, key: K, through: bool) -> (usize, usize) {
        let slot = self.lower_bound(key);
        if through {
            (
                slot + usize::from(self.keys.get(slot) == Some(&key)),
                self.buffer.partition_point(|(k, _)| *k <= key),
            )
        } else {
            (slot, self.buffer.partition_point(|(k, _)| *k < key))
        }
    }

    /// The in-window search: the first slot of `lo..hi` whose key is
    /// `>= key`, or `hi`. Both windows are requested before the first
    /// compare — the hit's value sits on one of those lines; which is
    /// only known after the search, and a request issued then is a
    /// second, serialized miss.
    #[inline]
    fn search(&self, lo: usize, hi: usize, key: K) -> usize {
        let window = &self.keys[lo..hi];
        request_lines(window);
        request_lines(&self.values[lo..hi]);
        lo + window.partition_point(|&k| k < key)
    }

    /// Exact-match probe of the page keys, honoring the error window
    /// (the paper's Section 4.1.2 bounded search) — returns the slot
    /// whether it is live or tombstoned (callers that only want live
    /// hits use [`search_data`](Self::search_data); the insert path uses
    /// the raw slot to resurrect tombstones).
    #[inline]
    fn probe(&self, key: K, seg_error: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let (lo, hi) = self.window(key, seg_error);
        let idx = self.search(lo, hi + 1, key);
        (idx <= hi && self.keys[idx] == key).then_some(idx)
    }

    /// Exact-match search in the page, honoring the error window.
    /// Returns the index into the page for a **live** slot.
    pub(crate) fn search_data(&self, key: K, seg_error: u64) -> Option<usize> {
        self.probe(key, seg_error).filter(|&i| self.is_live(i))
    }

    /// Exact-match search in the buffer.
    pub(crate) fn search_buffer(&self, key: K) -> Option<usize> {
        self.buffer.binary_search_by(|(k, _)| k.cmp(&key)).ok()
    }

    /// Point lookup across page and buffer.
    pub(crate) fn get(&self, key: K, seg_error: u64) -> Option<&V> {
        if let Some(i) = self.probe(key, seg_error) {
            // A page key is never duplicated in the buffer, so a dead
            // hit means the key is absent.
            return self.is_live(i).then(|| &self.values[i]);
        }
        self.search_buffer(key).map(|i| &self.buffer[i].1)
    }

    /// Mutable point lookup across page and buffer.
    pub(crate) fn get_mut(&mut self, key: K, seg_error: u64) -> Option<&mut V> {
        if let Some(i) = self.probe(key, seg_error) {
            return self.is_live(i).then(move || &mut self.values[i]);
        }
        if let Some(i) = self.search_buffer(key) {
            return Some(&mut self.buffer[i].1);
        }
        None
    }

    /// Inserts into the segment: replaces in place if the key exists
    /// (page or buffer, resurrecting a tombstoned page slot). A new key
    /// above the page's last key whose slot the existing model predicts
    /// within `seg_error` is pushed onto the page tail; any other new
    /// key goes to the sorted buffer. Returns the previous value if any.
    pub(crate) fn insert(&mut self, key: K, value: V, seg_error: u64) -> Option<V> {
        if let Some(i) = self.probe(key, seg_error) {
            if self.is_live(i) {
                return Some(std::mem::replace(&mut self.values[i], value));
            }
            // Resurrect the tombstoned slot in place: the key was
            // logically absent, so there is no previous value.
            self.values[i] = value;
            self.mark_live(i);
            return None;
        }
        match self.buffer.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.buffer[i].1, value)),
            Err(i) => {
                if let Err(value) = self.push_tail(key, value, seg_error) {
                    self.buffer.insert(i, (key, value));
                }
                None
            }
        }
    }

    /// The in-place append: admits `key` iff it sorts after the whole
    /// page and the model's prediction for it is within `seg_error` of
    /// the next free slot — so the one new deviation fits the search
    /// budget and nothing already on the page moves or is re-measured.
    /// `value` is only consumed on admission.
    fn push_tail(&mut self, key: K, value: V, seg_error: u64) -> Result<(), V> {
        if self.keys.last().is_none_or(|&last| key <= last) {
            return Err(value);
        }
        let slot = self.keys.len();
        let pred = self.predict(key);
        if slot.abs_diff(pred) as u64 > seg_error {
            return Err(value);
        }
        self.under = self.under.max(saturate_u32(pred.saturating_sub(slot)));
        self.over = self.over.max(saturate_u32(slot.saturating_sub(pred)));
        self.keys.push(key);
        self.values.push(value);
        if !self.dead.is_empty() {
            self.dead.resize(self.keys.len().div_ceil(64), 0);
        }
        self.assert_invariants(seg_error, slot);
        Ok(())
    }

    /// Removes `key` from the segment. Buffer entries are moved out;
    /// page entries become O(1) tombstones (the key keeps its slot, so
    /// predictions stay exact). The dense value array keeps the slot
    /// until the next re-segmentation, so the value is cloned out of it;
    /// the tombstoned slot is never read again.
    pub(crate) fn remove(&mut self, key: K, seg_error: u64) -> Option<V>
    where
        V: Clone,
    {
        if let Some(i) = self.search_buffer(key) {
            return Some(self.buffer.remove(i).1);
        }
        if let Some(i) = self.search_data(key, seg_error) {
            let value = self.values[i].clone();
            self.mark_dead(i);
            return Some(value);
        }
        None
    }

    /// The live page entries merged with the buffer — one sorted run, as
    /// the parallel arrays a new page adopts — consuming the segment
    /// (the first step of the paper's Algorithm 4 split). The merge
    /// moves runs, not entries: the live slots between two buffered
    /// keys, and between tombstones, are copied as slices. Tombstones
    /// are dropped here; a page with neither hands its arrays over.
    pub(crate) fn into_merged_run(mut self) -> Run<K, V> {
        if self.buffer.is_empty() && self.removed == 0 {
            return (self.keys, self.values);
        }
        let mut keys = Vec::with_capacity(self.len());
        let mut values = Vec::with_capacity(self.len());
        // Searched while the page still holds its values: the search
        // requests their lines.
        let stops: Vec<usize> = (self.buffer.iter())
            .map(|&(key, _)| self.lower_bound(key))
            .collect();
        let mut page_values = std::mem::take(&mut self.values).into_iter();
        let mut buffer = std::mem::take(&mut self.buffer).into_iter().zip(stops);
        let mut from = 0;
        loop {
            // The page slots below the next buffered key, then that key.
            let next = buffer.next();
            let to = next.as_ref().map_or(self.keys.len(), |&(_, stop)| stop);
            while from < to {
                let (start, end) = self.live_run(from, to);
                page_values.by_ref().take(start - from).for_each(drop);
                keys.extend_from_slice(&self.keys[start..end]);
                values.extend(page_values.by_ref().take(end - start));
                from = end;
            }
            let Some(((key, value), _)) = next else {
                return (keys, values);
            };
            keys.push(key);
            values.push(value);
        }
    }

    /// Verifies the segment from page slot `from` on: page arrays
    /// parallel and sorted, bitmap sized to the page, every live slot
    /// inside its own search window, buffer sorted and disjoint from
    /// the page.
    pub(crate) fn check_invariants(&self, seg_error: u64, from: usize) -> Result<(), String> {
        if self.keys.len() != self.values.len() {
            return Err("page keys/values length mismatch".into());
        }
        if !self.dead.is_empty() && self.dead.len() != self.keys.len().div_ceil(64) {
            return Err(format!(
                "bitmap holds {} words for a {}-slot page",
                self.dead.len(),
                self.keys.len()
            ));
        }
        for i in from..self.keys.len() {
            let k = self.keys[i];
            if i > 0 && self.keys[i - 1] >= k {
                return Err(format!("segment page unsorted at slot {i}"));
            }
            let (lo, hi) = self.window(k, seg_error);
            if self.is_live(i) && !(lo..=hi).contains(&i) {
                return Err(format!(
                    "error guarantee violated: slot {i} ({k:?}) outside its window {lo}..={hi}"
                ));
            }
        }
        if !self.buffer.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("unsorted segment buffer".into());
        }
        match self
            .buffer
            .iter()
            .find(|(k, _)| self.keys.binary_search(k).is_ok())
        {
            Some((k, _)) => Err(format!("{k:?} is both buffered and on the page")),
            None => Ok(()),
        }
    }

    /// Debug builds panic unless [`check_invariants`](Self::check_invariants)
    /// holds; called after every mutation that restructures a segment,
    /// with `from` at the first slot touched. Compiles to nothing in
    /// release builds.
    #[inline]
    pub(crate) fn assert_invariants(&self, seg_error: u64, from: usize) {
        if cfg!(debug_assertions) {
            if let Err(why) = self.check_invariants(seg_error, from) {
                panic!("segment anchored at {:?}: {why}", self.start_key);
            }
        }
    }

    /// Estimated heap bytes of the page + buffer payload.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<K>()
            + self.values.len() * std::mem::size_of::<V>()
            + self.dead.len() * std::mem::size_of::<u64>()
            + self.buffer.len() * std::mem::size_of::<(K, V)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(keys: &[u64]) -> Segment<u64, u64> {
        let values = keys.iter().map(|&k| k * 10).collect();
        // Slope from endpoints.
        let slope = if keys.len() > 1 {
            (keys.len() - 1) as f64 / (keys[keys.len() - 1] - keys[0]) as f64
        } else {
            0.0
        };
        Segment::from_run(keys[0], slope, keys.to_vec(), values)
    }

    #[test]
    fn every_key_is_found_and_neighbours_miss() {
        let keys: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let s = seg(&keys);
        for &k in &keys {
            assert_eq!(s.get(k, 1), Some(&(k * 10)), "key {k}");
        }
        assert_eq!(s.get(1, 1), None);
        assert_eq!(s.get(1_000_000, 1), None);
    }

    /// The count scan `search` replaced, kept as its oracle: keys of the
    /// sorted `window` below `key`.
    fn count_below(window: &[u64], key: u64) -> usize {
        window.iter().filter(|&&k| k < key).count()
    }

    #[test]
    fn search_is_the_lower_bound_at_every_length_and_position() {
        // Odd keys: every even key falls below all, between two, or
        // above all of them.
        for n in 0..=160usize {
            let keys: Vec<u64> = (0..n as u64).map(|i| 2 * i + 1).collect();
            let s = Segment::from_run(1u64, 0.0, keys.clone(), keys.clone());
            for key in 0..=2 * n as u64 + 2 {
                assert_eq!(s.search(0, n, key), count_below(&keys, key), "{n} {key}");
            }
            // Off the page's ends: a window is a sub-slice.
            if n >= 3 {
                let key = n as u64;
                let want = 1 + count_below(&keys[1..n - 1], key);
                assert_eq!(s.search(1, n - 1, key), want, "{n}");
            }
        }
    }

    #[test]
    fn the_request_budget_is_in_lines_of_each_array() {
        const EDGE: usize = REQUEST_LINES * CACHE_LINE / 8;
        assert_eq!(hint_stride(&[0u64; EDGE]), Some(8));
        assert_eq!(hint_stride(&[0u64; EDGE + 1]), None);
        assert_eq!(hint_stride(&[0u8; 1]), Some(64));
        assert_eq!(hint_stride(&[0u128; EDGE / 2]), Some(4));
        // A value wider than a line: one hint a slot, and only while
        // the slots together fit the budget.
        assert_eq!(hint_stride(&[[0u64; 32]; 4]), Some(1));
        assert_eq!(hint_stride(&[[0u64; 32]; 5]), None);
        // Nothing to ask for.
        assert_eq!(hint_stride(&[(); EDGE]), None);
        assert_eq!(hint_stride::<u64>(&[]), None);
    }

    /// Hits, misses, tombstones and both scan ends on a page whose one
    /// window is the whole page, against a linear search.
    fn whole_page_window_agrees<V: Clone + PartialEq + std::fmt::Debug>(
        n: usize,
        value: impl Fn(u64) -> V,
    ) {
        // Slope 0 predicts slot 0 for every key: `over` = n − 1, so
        // under a budget past the page both windows are `0..n`.
        let keys: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
        let values: Vec<V> = keys.iter().map(|&k| value(k)).collect();
        let mut s = Segment::from_run(1u64, 0.0, keys.clone(), values);
        let error = 10 * n as u64;
        assert_eq!(s.window(keys[n / 2], error), (0, n - 1));
        let dead: Vec<u64> = [0, 1, n / 2, n - 2, n - 1].map(|i| keys[i]).into();
        for round in 0..2 {
            for probe in 0..=keys[n - 1] + 2 {
                let slot = keys.iter().position(|&k| k == probe);
                let live = slot.filter(|_| round == 0 || !dead.contains(&probe));
                assert_eq!(s.probe(probe, error), slot, "{n} {probe}");
                assert_eq!(s.search_data(probe, error), live, "{n} {probe}");
                assert_eq!(s.get(probe, error).cloned(), live.map(|_| value(probe)));
                let below = keys.iter().take_while(|&&k| k < probe).count();
                assert_eq!(s.lower_bound(probe), below, "{n} {probe}");
                assert_eq!(s.cut(probe, true).0, below + usize::from(slot.is_some()));
            }
            for &k in &dead {
                let taken = s.remove(k, error);
                assert_eq!(taken, (round == 0).then(|| value(k)), "{n} {k}");
            }
        }
        // A tombstoned slot is still found, and resurrected in place.
        assert_eq!(s.insert(keys[n - 1], value(0), error), None);
        assert_eq!(s.get(keys[n - 1], error), Some(&value(0)));
        assert_eq!((s.buffer.len(), s.removed), (0, 4));
    }

    #[test]
    fn both_window_regimes_agree_on_hits_and_misses() {
        // Requested and not (`the_request_budget_is_in_lines_of_each_array`
        // pins which): with `u64` keys 128 slots are the budget exactly
        // and 136 one line over it. Values: as long as the keys, absent,
        // and — at 256 bytes a slot — over the budget on both pages.
        let at = REQUEST_LINES * CACHE_LINE / 8;
        for n in [at, at + 8] {
            whole_page_window_agrees(n, |k| k * 10);
            whole_page_window_agrees(n, |_| ());
            whole_page_window_agrees(n, |k| [k; 32]);
        }
        // A curved page under an endpoint slope, where the error budget
        // — not the envelope — decides whether a slot is in reach, from
        // a few slots wide to well past the request budget.
        let curved: Vec<u64> = (0..2_000).map(|i| i * i / 5 + i * 2).collect();
        let s = seg(&curved);
        for error in [1u64, 4, 11, 12, 64, 500] {
            for (slot, &k) in curved.iter().enumerate().step_by(37) {
                let (lo, hi) = s.window(k, error);
                let reachable = (lo..=hi).contains(&slot);
                assert_eq!(s.get(k, error), reachable.then_some(&(k * 10)), "{k}");
                assert_eq!(s.get(k + 1, error), None);
            }
        }
        let (lo, hi) = s.window(curved[1_000], 500);
        assert!(hint_stride(&s.keys[lo..=hi]).is_none());
    }

    #[test]
    fn window_respects_error_budget() {
        // Deliberately bad slope: predictions land at slot 0 for every
        // key, so only keys within the window of slot 0 are findable.
        let s = Segment::from_run(0u64, 0.0, (0..100).collect(), (0..100u64).collect());
        assert_eq!(s.get(3, 5), Some(&3));
        // The window ends at slot 6 (±5, plus one for rounding): the
        // search stops on slot 7, which holds the key, out of reach.
        assert_eq!(s.window(7, 5), (0, 6));
        assert_eq!((s.get(6, 5), s.get(7, 5)), (Some(&6), None));
        // Slot 50 is outside the ±5 window around slot 0.
        assert_eq!(s.get(50, 5), None);
        // A wider budget finds it.
        assert_eq!(s.get(50, 64), Some(&50));
    }

    #[test]
    fn insert_buffers_and_replaces() {
        let mut s = seg(&[10, 20, 30]);
        assert_eq!(s.insert(15, 150, 2), None);
        assert_eq!(s.buffer.len(), 1);
        assert_eq!(s.get(15, 2), Some(&150));
        // Replace buffered value.
        assert_eq!(s.insert(15, 151, 2), Some(150));
        // Replace page value in place, not via buffer.
        assert_eq!(s.insert(20, 999, 2), Some(200));
        assert_eq!(s.buffer.len(), 1);
    }

    #[test]
    fn tail_append_is_admitted_only_within_seg_error() {
        let keys: Vec<u64> = (0..100).map(|i| i * 10).collect();
        let mut s = seg(&keys);
        // On the model's line: pushed onto the page, nothing buffered.
        for k in 100..200u64 {
            assert_eq!(s.insert(k * 10, k, 2), None);
        }
        assert_eq!((s.keys.len(), s.buffer.len()), (200, 0));
        assert_eq!(s.error_envelope(), (0, 0));
        // Off the line by more than ±2 slots: buffered; by less: admitted,
        // and the envelope records the one new deviation.
        assert_eq!(s.insert(2_100, 7, 2), None);
        assert_eq!((s.keys.len(), s.buffer.len()), (200, 1));
        assert_eq!(s.insert(2_018, 8, 2), None);
        assert_eq!((s.keys.len(), s.buffer.len()), (201, 1));
        assert_eq!(s.error_envelope(), (2, 0));
        // A duplicate of an appended key replaces; every older key is
        // still found through its unchanged window.
        assert_eq!(s.insert(2_018, 9, 2), Some(8));
        for k in 0..200u64 {
            assert!(s.get(k * 10, 2).is_some(), "{k}");
        }
        assert_eq!(s.get(2_100, 2), Some(&7));
    }

    #[test]
    fn append_grows_the_tombstone_bitmap_and_resurrects_the_tail() {
        let keys: Vec<u64> = (0..64).collect();
        let mut s = seg(&keys);
        assert_eq!(s.remove(63, 1), Some(630));
        assert_eq!(s.dead_words().len(), 1);
        // Slot 64 opens a second bitmap word, live.
        assert_eq!(s.insert(64, 1, 1), None);
        assert_eq!(s.dead_words().len(), 2);
        assert_eq!(s.get(64, 1), Some(&1));
        assert_eq!(s.remove(64, 1), Some(1));
        assert_eq!(s.max_key(), Some(62));
        // Re-inserting a removed tail key reclaims its slot.
        assert_eq!(s.insert(64, 2, 1), None);
        assert_eq!((s.keys.len(), s.buffer.len(), s.removed), (65, 0, 1));
    }

    #[test]
    fn lower_bound_agrees_with_partition_point() {
        // Curved keys and a coarse slope, so the envelope is wide on
        // both sides; then appends, so it is wider than the page tail.
        let keys: Vec<u64> = (0..300u64).map(|i| i * i / 7 + i).collect();
        let mut s = seg(&keys);
        for k in 0..40u64 {
            s.insert(keys[299] + 1 + k * 40, k, 64);
        }
        assert!(s.keys.len() > 300);
        let top = *s.keys.last().unwrap() + 500;
        for key in (0..top).step_by(3) {
            assert_eq!(
                s.lower_bound(key),
                s.keys.partition_point(|&k| k < key),
                "key {key}"
            );
        }
        let empty: Segment<u64, u64> = Segment::from_run(5, 1.0, Vec::new(), Vec::new());
        assert_eq!(empty.lower_bound(9), 0);
    }

    #[test]
    fn buffer_stays_sorted() {
        let mut s = seg(&[100]);
        for k in [50u64, 10, 70, 30] {
            s.insert(k, k, 1);
        }
        let buffered: Vec<u64> = s.buffer.iter().map(|(k, _)| *k).collect();
        assert_eq!(buffered, vec![10, 30, 50, 70]);
    }

    #[test]
    fn remove_tombstones_keep_predictions_exact() {
        let keys: Vec<u64> = (0..50).collect();
        let mut s = seg(&keys);
        // Remove a few early keys: tombstones keep every surviving key
        // at its slot, so even a ±1 window still finds them all.
        for k in 0..5u64 {
            assert_eq!(s.remove(k, 1), Some(k * 10));
            assert_eq!(s.get(k, 1), None, "key {k} dead");
        }
        assert_eq!(s.removed, 5);
        assert_eq!(s.live_len(), 45);
        for k in 5..50u64 {
            assert_eq!(s.get(k, 1), Some(&(k * 10)));
        }
    }

    #[test]
    fn tombstone_resurrection_via_insert() {
        let mut s = seg(&[10, 20, 30]);
        assert_eq!(s.remove(20, 2), Some(200));
        assert_eq!(s.removed, 1);
        assert_eq!(s.len(), 2);
        // Re-inserting the key reclaims the page slot — no buffer entry.
        assert_eq!(s.insert(20, 7, 2), None);
        assert_eq!(s.removed, 0);
        assert_eq!(s.buffer.len(), 0);
        assert_eq!(s.get(20, 2), Some(&7));
    }

    #[test]
    fn remove_from_buffer_does_not_tombstone() {
        let mut s = seg(&[10, 20]);
        s.insert(15, 1, 1);
        assert_eq!(s.remove(15, 1), Some(1));
        assert_eq!(s.removed, 0);
        assert_eq!(s.remove(99, 1), None);
        // Double-remove of a page key: second call is a miss.
        assert_eq!(s.remove(10, 1), Some(100));
        assert_eq!(s.remove(10, 1), None);
        assert_eq!(s.removed, 1);
    }

    #[test]
    fn into_merged_run_interleaves_sorted_and_drops_tombstones() {
        let mut s = seg(&[10, 30, 50]);
        s.insert(20, 2, 1);
        s.insert(5, 0, 1);
        s.insert(1000, 9, 1); // bends past ±1: buffered
        s.remove(30, 1);
        assert_eq!(s.buffer.len(), 3);
        let (keys, values) = s.into_merged_run();
        assert_eq!(keys, vec![5, 10, 20, 50, 1000]);
        assert_eq!(values, vec![0, 100, 2, 500, 9]);
    }

    #[test]
    fn into_merged_run_moves_every_live_run_between_stops() {
        // Slots 0..200 (key = 10 × slot); every stop a run can end at:
        // a tombstone first, last, alone, in a stretch across a bitmap
        // word, next to a buffered key on either side; buffered keys
        // below the page, between adjacent slots and above it.
        let page: Vec<u64> = (0..200).map(|i| i * 10).collect();
        let dead = [0u64, 1, 60, 61, 62, 63, 64, 65, 100, 131, 199];
        let buffered = [5u64, 15, 595, 655, 1_005, 1_295, 1_296, 1_985, 2_050, 2_500];
        let mut s = seg(&page);
        for slot in dead {
            assert_eq!(s.remove(slot * 10, 1), Some(slot * 100));
        }
        for key in buffered {
            assert_eq!(s.insert(key, key + 1, 0), None);
        }
        assert_eq!((s.buffer.len(), s.removed), (10, 11));
        let mut want: Vec<(u64, u64)> = page
            .iter()
            .filter(|&&k| !dead.contains(&(k / 10)))
            .map(|&k| (k, k * 10))
            .chain(buffered.map(|k| (k, k + 1)))
            .collect();
        want.sort_unstable();
        let (keys, values) = s.into_merged_run();
        assert_eq!(keys.into_iter().zip(values).collect::<Vec<_>>(), want);
        // Nothing to merge: the page's own arrays are the run.
        let (keys, values) = seg(&page).into_merged_run();
        assert_eq!((keys.len(), values.len()), (200, 200));
        assert_eq!(keys, page);
    }

    #[test]
    fn min_max_consider_buffer_and_skip_tombstones() {
        let mut s = seg(&[100, 200]);
        s.insert(5, 0, 1);
        s.insert(500, 0, 1);
        assert_eq!(s.min_key(), Some(5));
        assert_eq!(s.max_key(), Some(500));
        // Tombstoned endpoints no longer count.
        let mut t = seg(&[10, 20, 30]);
        t.remove(10, 2);
        t.remove(30, 2);
        assert_eq!(t.min_key(), Some(20));
        assert_eq!(t.max_key(), Some(20));
    }

    #[test]
    fn empty_page_lookups_hit_buffer_only() {
        let mut s: Segment<u64, u64> = Segment::from_run(0, 0.0, Vec::new(), Vec::new());
        assert_eq!(s.get(1, 10), None);
        s.insert(1, 11, 10);
        assert_eq!(s.get(1, 10), Some(&11));
        assert_eq!(s.min_key(), Some(1));
    }
}
