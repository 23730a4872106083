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
//! tombstone pressure) ends the segment: [`Segment::take_merged_run`]
//! hands page ⨝ buffer over as one sorted run — moved by runs of live
//! slots, not entry by entry — and the tree makes the next page or
//! pages from it, re-fitted under the run's endpoint line where the
//! envelope [`Segment::from_run`] measures allows, carved by the cone
//! where not, and capped at 64 buffers either way
//! (`FitingTree::resegment`).
//!
//! # Page layout (SoA windows of a column)
//!
//! A page is a **window** `start..start + len` of a [`Column`]: one
//! `keys: Vec<K>` parallel to one `values: Vec<V>`, shared by every
//! page bulk load carves: it writes the whole tree into one column, on
//! huge pages where the kernel grants them. A re-segmentation's pages
//! each own a column — its run's arrays, when it makes one page — so
//! the next re-segmentation of one page frees that page's slots. The
//! bounded window search only ever touches the dense key array — every
//! cache line it pulls is full of keys, not half value payload — and
//! is the paper's Section 4.1.2 search, a binary search of the window
//! (`Segment::search`, one for every caller and every width); the
//! value array is read exactly once, on a confirmed hit, and range
//! scans stream exactly `size_of::<V>()` bytes per entry.
//!
//! Writes are copy-on-write. A page writes in place only when it owns
//! its whole column — no other page or cloned tree holds it, and the
//! window is all of it — so a tail append lands at the column's end;
//! any other write first copies the page into a column of its own.
//!
//! # Miss budget of a point lookup
//!
//! directory search → `segments[i]` + this header → the column header
//! (one line every page of the column shares, so it stays cached) →
//! {key window ∥ value window}. The model bounds the slot to `[lo, hi]`
//! before a page byte is read, so every cache line of `keys[lo..=hi]`
//! and of `values[lo..=hi]` is requested up front, each array while its
//! window is at most `REQUEST_LINES` lines long. One DRAM round trip
//! per page — and the search that follows is `log2(window)` dependent
//! compare-and-select steps on lines already in flight, few enough
//! that the out-of-order core starts the *next* lookup's directory
//! search while this one's lines are still on their way (a scan of the
//! window is hundreds of waiting µops, and nothing starts behind it).
//! Each window's address translation is a page walk when it misses the
//! TLB. On 4 KiB pages a uniform lookup pays one for its key window and
//! one for its value window, because a 128 MB tree spans ≈ 32 K of
//! them. A bulk-loaded column advised onto 2 MiB pages spans ≈ 64,
//! which the TLB holds, so where the kernel grants huge pages the two
//! walks are gone.
//!
//! Removals are **tombstones** in a lazily-allocated bitmap: O(1), and
//! they leave every surviving key at its original slot, so
//! interpolated predictions stay exact and the search window never
//! needs to widen. The
//! `removed` count still drives re-segmentation so pages don't
//! accumulate dead slots forever.

use fiting_index_api::Key;
use fiting_index_api::{advise_huge_pages, prefetch_read};
use std::sync::Arc;

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

/// The slot the line through `(start, 0)` with `slope` predicts for a
/// key projected to `key`: [`Segment::predict`]'s arithmetic, for a
/// page that is not a segment yet.
#[inline]
fn predict_slot(key: f64, start: f64, slope: f64) -> usize {
    // `+ 0.5` then truncate rounds half up without the libm call
    // `f64::round` costs on baseline x86-64. The cast saturates:
    // negative predictions land on slot 0 (keys are NaN-free by the Key
    // contract), huge ones on `usize::MAX`.
    ((key - start) * slope + 0.5) as usize
}

/// Keys [`measure_envelope`] projects at a time, into a stack array.
const CHUNK: usize = 256;

/// Independent max and min chains of the envelope fold; the loop over
/// them compiles to packed `f64` arithmetic.
const LANES: usize = 4;

/// 2⁵²: the `f64`s from here to 2⁵³ are the integers, so
/// `(q + ROUND) - ROUND` rounds a `q` in `[0, 2⁵²]` to an integer.
const ROUND: f64 = 4_503_599_627_370_496.0;

/// The prediction-error envelope `(under, over)` of the page `keys`
/// under the line from `start` with `slope` (see
/// [`Segment::under`](field@Segment::under)). O(page), pure arithmetic:
/// [`envelope_of`] of the keys' projections, made [`CHUNK`] at a time.
pub(crate) fn measure_envelope<K: Key>(keys: &[K], start: f64, slope: f64) -> (u32, u32) {
    let (mut fold, mut chunk) = (Envelope::new(start, slope), [0.0; CHUNK]);
    for keys in keys.chunks(CHUNK) {
        let xs = &mut chunk[..keys.len()];
        xs.iter_mut().zip(keys).for_each(|(x, k)| *x = k.to_f64());
        fold.feed(xs);
    }
    fold.finish()
}

/// [`measure_envelope`] of a page whose keys are already projected,
/// `xs`, folded in [`LANES`] `f64` lanes. A key's deviation is
/// `⌊max(p, 0)⌋ − slot`, where `p = (x − start) · slope + 0.5` is
/// [`predict_slot`]'s line, floored as `r − (r > q)` for `q = max(p, 0)`
/// and `r` its rounding by [`ROUND`]. That is exact for `q ≤ 2⁵²`; a
/// larger `q` (+∞ too) rounds to an `r ≥ 2⁵²` and saturates the stored
/// `u32`, as it does under the definition, and NaN and −∞ give 0 both
/// ways. Each deviation is a difference of integers below 2⁵³, so
/// exact, and the envelope is the per-key `i64` fold's bit for bit.
pub(crate) fn envelope_of(xs: &[f64], start: f64, slope: f64) -> (u32, u32) {
    let mut fold = Envelope::new(start, slope);
    fold.feed(xs);
    fold.finish()
}

/// An envelope fold: the slot of the next key fed, and per lane the
/// largest and smallest deviation so far, from 0.
struct Envelope {
    start: f64,
    slope: f64,
    next: usize,
    max: [f64; LANES],
    min: [f64; LANES],
}

impl Envelope {
    fn new(start: f64, slope: f64) -> Self {
        let (next, max, min) = (0, [0.0; LANES], [0.0; LANES]);
        Envelope {
            start,
            slope,
            next,
            max,
            min,
        }
    }

    /// Folds in the next keys, projected to `xs`.
    fn feed(&mut self, xs: &[f64]) {
        let (start, slope, max, min) = (self.start, self.slope, &mut self.max, &mut self.min);
        let mut slots: [f64; LANES] = std::array::from_fn(|l| (self.next + l) as f64);
        let mut step = |l: usize, x: f64| {
            // Selects, not `f64::max`: they compile to `maxpd` alone.
            let p = (x - start) * slope + 0.5;
            let q = if p > 0.0 { p } else { 0.0 };
            let r = (q + ROUND) - ROUND;
            let deviation = r - if r > q { 1.0 } else { 0.0 } - slots[l];
            let (hi, lo) = (max[l], min[l]);
            max[l] = if deviation > hi { deviation } else { hi };
            min[l] = if deviation < lo { deviation } else { lo };
            slots[l] += LANES as f64;
        };
        let mut lanes = xs.chunks_exact(LANES);
        for xs in &mut lanes {
            (0..LANES).for_each(|l| step(l, xs[l]));
        }
        for (l, &x) in lanes.remainder().iter().enumerate() {
            step(l, x);
        }
        self.next += xs.len();
    }

    /// `(under, over)`, each saturated at `u32::MAX`.
    fn finish(self) -> (u32, u32) {
        let under = self.max.into_iter().fold(0.0, f64::max);
        let over = -self.min.into_iter().fold(0.0, f64::min);
        (under as u32, over as u32)
    }
}

/// An empty array with room for `capacity` items, advised onto huge
/// pages before its first write: how bulk load and the snapshot
/// decoder start a column.
pub(crate) fn advised<T>(capacity: usize) -> Vec<T> {
    let mut items = Vec::with_capacity(capacity);
    advise_huge_pages(items.spare_capacity_mut());
    items
}

/// A sorted run as the parallel arrays a page adopts: keys ∥ values.
pub(crate) type Run<K, V> = (Vec<K>, Vec<V>);

/// The parallel key ∥ value arrays one or more pages are windows of.
#[derive(Debug, Clone)]
pub(crate) struct Column<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K, V> Column<K, V> {
    /// A column of the run `keys` ∥ `values`, ready to be shared.
    pub(crate) fn shared((keys, values): Run<K, V>) -> Arc<Self> {
        debug_assert_eq!(keys.len(), values.len());
        Arc::new(Column { keys, values })
    }
}

/// A page: the window `start..start + len` of a shared [`Column`].
#[derive(Debug, Clone)]
pub(crate) struct Page<K, V> {
    column: Arc<Column<K, V>>,
    start: usize,
    len: usize,
}

impl<K: Copy, V> Page<K, V> {
    /// The window `start..start + len` of `column`.
    pub(crate) fn new(column: &Arc<Column<K, V>>, start: usize, len: usize) -> Self {
        debug_assert!(start + len <= column.keys.len());
        Page {
            column: Arc::clone(column),
            start,
            len,
        }
    }

    /// A page that is the whole of a column of its own.
    fn owned(keys: Vec<K>, values: Vec<V>) -> Self {
        let len = keys.len();
        Page::new(&Column::shared((keys, values)), 0, len)
    }

    /// The window's keys.
    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        &self.column.keys[self.start..self.start + self.len]
    }

    /// The window's values, parallel to its keys.
    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        &self.column.values[self.start..self.start + self.len]
    }

    /// Whether the window is all of its column.
    fn is_whole(&self) -> bool {
        self.start == 0 && self.len == self.column.keys.len()
    }
}

impl<K: Copy, V: Clone> Page<K, V> {
    /// The page's column, to write: in place when the page owns its
    /// whole column; otherwise the page first moves to a copy of its
    /// window that it does own.
    fn column_mut(&mut self) -> &mut Column<K, V> {
        if !self.is_whole() {
            *self = Page::owned(self.keys().to_vec(), self.values().to_vec());
        }
        Arc::make_mut(&mut self.column)
    }

    fn values_mut(&mut self) -> &mut [V] {
        &mut self.column_mut().values
    }

    /// Appends `key` ∥ `value` at the column's end.
    fn push(&mut self, key: K, value: V) {
        let column = self.column_mut();
        column.keys.push(key);
        column.values.push(value);
        self.len += 1;
    }

    /// Takes the window out as a run, leaving the page empty: the
    /// column's own arrays, moved out, when the page owns the whole of
    /// it; a copy otherwise.
    fn take_run(&mut self) -> Run<K, V> {
        let whole = self.is_whole();
        let run = match Arc::get_mut(&mut self.column) {
            Some(column) if whole => (
                std::mem::take(&mut column.keys),
                std::mem::take(&mut column.values),
            ),
            _ => (self.keys().to_vec(), self.values().to_vec()),
        };
        (self.start, self.len) = (0, 0);
        run
    }
}

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
    /// The sorted page keys ∥ values, a window of a shared column
    /// (dense; tombstoned slots keep their key and value — liveness
    /// lives in the `dead` bitmap, so scans stream exactly
    /// `size_of::<V>()` bytes per entry).
    page: Page<K, V>,
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
    /// `values` as a column of its own (no copy).
    pub(crate) fn from_run(start_key: K, slope: f64, keys: Vec<K>, values: Vec<V>) -> Self {
        Self::from_page(start_key, slope, Page::owned(keys, values))
    }

    /// A segment over `page`; one pass measures the envelope.
    pub(crate) fn from_page(start_key: K, slope: f64, page: Page<K, V>) -> Self {
        debug_assert!(page.keys().windows(2).all(|w| w[0] < w[1]));
        let start = start_key.to_f64();
        let envelope = measure_envelope(page.keys(), start, slope);
        Self::assemble(start_key, slope, page, envelope)
    }

    /// A segment over `page`, anchored at its first key, whose envelope
    /// the cut measured as it closed the page. Debug builds measure it
    /// again.
    pub(crate) fn from_cut(slope: f64, page: Page<K, V>, envelope: (u32, u32)) -> Self {
        let seg = Self::assemble(page.keys()[0], slope, page, envelope);
        debug_assert_eq!(
            seg.measured_envelope(),
            envelope,
            "cut at {:?}",
            seg.start_key
        );
        seg
    }

    /// A segment of the given parts, taking `envelope` on trust; no slot
    /// is dead and nothing is buffered.
    fn assemble(start_key: K, slope: f64, page: Page<K, V>, (under, over): (u32, u32)) -> Self {
        Segment {
            start_key,
            start_key_f: start_key.to_f64(),
            slope,
            page,
            dead: Vec::new(),
            buffer: Vec::new(),
            removed: 0,
            under,
            over,
        }
    }

    /// The envelope of the page as it stands, measured afresh.
    fn measured_envelope(&self) -> (u32, u32) {
        measure_envelope(self.keys(), self.start_key_f, self.slope)
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

    /// The segment with the tombstone bitmap `dead` and the insert
    /// buffer `buffer` it was persisted with: the snapshot decoder adds
    /// them to a page it cut as bulk load does. `removed` is recounted
    /// from the bitmap (a popcount).
    ///
    /// `dead` must be either empty or exactly `page len.div_ceil(64)`
    /// words; `buffer` must be sorted by key.
    pub(crate) fn with_sparse(mut self, dead: Vec<u64>, buffer: Vec<(K, V)>) -> Self {
        self.removed = dead.iter().map(|w| u64::from(w.count_ones())).sum();
        self.dead = dead;
        self.buffer = buffer;
        self
    }

    /// The sorted page keys, tombstoned slots included.
    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        self.page.keys()
    }

    /// The page values, parallel to [`keys`](Self::keys).
    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        self.page.values()
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
        if (from, to) == (0, self.page.len) {
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
            self.dead = vec![0u64; self.page.len.div_ceil(64)];
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

    /// Live page entries (tombstones excluded).
    pub(crate) fn live_len(&self) -> usize {
        self.page.len - self.removed as usize
    }

    /// Live entries in page + buffer.
    pub(crate) fn len(&self) -> usize {
        self.live_len() + self.buffer.len()
    }

    /// First live page entry.
    fn first_live(&self) -> Option<(&K, &V)> {
        (0..self.page.len)
            .find(|&i| self.is_live(i))
            .map(|i| (&self.keys()[i], &self.values()[i]))
    }

    /// Last live page entry.
    pub(crate) fn last_live(&self) -> Option<(&K, &V)> {
        (0..self.page.len)
            .rev()
            .find(|&i| self.is_live(i))
            .map(|i| (&self.keys()[i], &self.values()[i]))
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
        predict_slot(key.to_f64(), self.start_key_f, self.slope)
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
            .min(self.page.len - 1);
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
        let n = self.page.len;
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
                slot + usize::from(self.keys().get(slot) == Some(&key)),
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
        let window = &self.keys()[lo..hi];
        request_lines(window);
        request_lines(&self.values()[lo..hi]);
        lo + window.partition_point(|&k| k < key)
    }

    /// Exact-match probe of the page keys, honoring the error window
    /// (the paper's Section 4.1.2 bounded search) — returns the slot
    /// whether it is live or tombstoned (callers that only want live
    /// hits use [`search_data`](Self::search_data); the insert path uses
    /// the raw slot to resurrect tombstones).
    #[inline]
    fn probe(&self, key: K, seg_error: u64) -> Option<usize> {
        if self.page.len == 0 {
            return None;
        }
        let (lo, hi) = self.window(key, seg_error);
        let idx = self.search(lo, hi + 1, key);
        (idx <= hi && self.keys()[idx] == key).then_some(idx)
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
            return self.is_live(i).then(|| &self.values()[i]);
        }
        self.search_buffer(key).map(|i| &self.buffer[i].1)
    }
}

/// The writes: a page write goes through the copy-on-write column, and
/// a tombstoned value is cloned out.
impl<K: Key, V: Clone> Segment<K, V> {
    /// Moves the page to a column of its own, unless it owns one.
    pub(crate) fn detach(&mut self) {
        self.page.column_mut();
    }

    /// Inserts into the segment: replaces in place if the key exists
    /// (page or buffer, resurrecting a tombstoned page slot). A new key
    /// above the page's last key whose slot the existing model predicts
    /// within `seg_error` is pushed onto the page tail; any other new
    /// key goes to the sorted buffer. Returns the previous value if any.
    /// A write to the page goes through its copy-on-write column.
    pub(crate) fn insert(&mut self, key: K, value: V, seg_error: u64) -> Option<V> {
        if let Some(i) = self.probe(key, seg_error) {
            if self.is_live(i) {
                return Some(std::mem::replace(&mut self.page.values_mut()[i], value));
            }
            // Resurrect the tombstoned slot in place: the key was
            // logically absent, so there is no previous value.
            self.page.values_mut()[i] = value;
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
        if self.keys().last().is_none_or(|&last| key <= last) {
            return Err(value);
        }
        let slot = self.page.len;
        let pred = self.predict(key);
        if slot.abs_diff(pred) as u64 > seg_error {
            return Err(value);
        }
        self.under = self.under.max(saturate_u32(pred.saturating_sub(slot)));
        self.over = self.over.max(saturate_u32(slot.saturating_sub(pred)));
        self.page.push(key, value);
        if !self.dead.is_empty() {
            self.dead.resize(self.page.len.div_ceil(64), 0);
        }
        self.assert_invariants(seg_error, slot);
        Ok(())
    }

    /// Removes `key` from the segment. Buffer entries are moved out;
    /// page entries become O(1) tombstones (the key keeps its slot, so
    /// predictions stay exact). The dense value array keeps the slot
    /// until the next re-segmentation, so the value is cloned out of it;
    /// the tombstoned slot is never read again.
    pub(crate) fn remove(&mut self, key: K, seg_error: u64) -> Option<V> {
        if let Some(i) = self.search_buffer(key) {
            return Some(self.buffer.remove(i).1);
        }
        if let Some(i) = self.search_data(key, seg_error) {
            let value = self.values()[i].clone();
            self.mark_dead(i);
            return Some(value);
        }
        None
    }

    /// Takes the live page entries merged with the buffer out — one
    /// sorted run, as the parallel arrays a new page adopts — leaving
    /// the segment empty (the first step of the paper's Algorithm 4
    /// split). The merge copies runs, not entries: the live slots
    /// between two buffered keys, and between tombstones, are copied as
    /// slices. Tombstones are dropped here; a page with neither hands
    /// its column over when it owns the whole of it.
    pub(crate) fn take_merged_run(&mut self) -> Run<K, V> {
        let buffer = std::mem::take(&mut self.buffer);
        let run = if buffer.is_empty() && self.removed == 0 {
            self.page.take_run()
        } else {
            let len = self.len() + buffer.len();
            let mut run = (Vec::with_capacity(len), Vec::with_capacity(len));
            let mut from = 0;
            for (key, value) in buffer {
                // The page slots below the next buffered key, then that key.
                let stop = self.lower_bound(key);
                self.extend_live(from, stop, &mut run);
                run.0.push(key);
                run.1.push(value);
                from = stop;
            }
            self.extend_live(from, self.page.len, &mut run);
            run
        };
        self.page.len = 0;
        self.dead.clear();
        self.removed = 0;
        run
    }

    /// Appends the live page entries of slots `from..to` to `run`, one
    /// slice per stretch between tombstones.
    fn extend_live(&self, mut from: usize, to: usize, run: &mut Run<K, V>) {
        while from < to {
            let (start, end) = self.live_run(from, to);
            run.0.extend_from_slice(&self.keys()[start..end]);
            run.1.extend_from_slice(&self.values()[start..end]);
            from = end;
        }
    }
}

impl<K: Key, V> Segment<K, V> {
    /// Verifies the segment from page slot `from` on: column arrays
    /// parallel, the page window inside its column, anchored at its
    /// first key and sorted, bitmap sized to the page, every live slot
    /// inside its own search window, buffer sorted and disjoint from the
    /// page.
    pub(crate) fn check_invariants(&self, seg_error: u64, from: usize) -> Result<(), String> {
        let Page { column, start, len } = &self.page;
        if column.keys.len() != column.values.len() {
            return Err("column keys/values length mismatch".into());
        }
        if start + len > column.keys.len() {
            return Err(format!(
                "window {start}..{} lies outside its {}-slot column",
                start + len,
                column.keys.len()
            ));
        }
        if !self.dead.is_empty() && self.dead.len() != len.div_ceil(64) {
            return Err(format!(
                "bitmap holds {} words for a {len}-slot page",
                self.dead.len(),
            ));
        }
        let keys = self.keys();
        if keys.first() != Some(&self.start_key) {
            return Err(format!(
                "page does not start at its anchor {:?}",
                self.start_key
            ));
        }
        for i in from..keys.len() {
            let k = keys[i];
            if i > 0 && keys[i - 1] >= k {
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
            .find(|(k, _)| keys.binary_search(k).is_ok())
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

    /// Whether `self`'s page and `other`'s are windows of one column.
    #[cfg(test)]
    pub(crate) fn shares_column(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.page.column, &other.page.column)
    }

    /// Estimated heap bytes of the page + buffer payload.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.page.len * (std::mem::size_of::<K>() + std::mem::size_of::<V>())
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
        assert!(hint_stride(&s.keys()[lo..=hi]).is_none());
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
        assert_eq!((s.keys().len(), s.buffer.len()), (200, 0));
        assert_eq!(s.error_envelope(), (0, 0));
        // Off the line by more than ±2 slots: buffered; by less: admitted,
        // and the envelope records the one new deviation.
        assert_eq!(s.insert(2_100, 7, 2), None);
        assert_eq!((s.keys().len(), s.buffer.len()), (200, 1));
        assert_eq!(s.insert(2_018, 8, 2), None);
        assert_eq!((s.keys().len(), s.buffer.len()), (201, 1));
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
        assert_eq!((s.keys().len(), s.buffer.len(), s.removed), (65, 0, 1));
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
        assert!(s.keys().len() > 300);
        let top = *s.keys().last().unwrap() + 500;
        for key in (0..top).step_by(3) {
            assert_eq!(
                s.lower_bound(key),
                s.keys().partition_point(|&k| k < key),
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
        let (keys, values) = s.take_merged_run();
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
        let (keys, values) = s.take_merged_run();
        assert_eq!(keys.into_iter().zip(values).collect::<Vec<_>>(), want);
        // Nothing to merge: the page's own arrays are the run, moved.
        let mut s = seg(&page);
        let at = (s.keys().as_ptr(), s.values().as_ptr());
        let (keys, values) = s.take_merged_run();
        assert_eq!((keys.as_ptr(), values.as_ptr()), at);
        assert_eq!(keys, page);
    }

    /// Two pages cut from one 200-slot column, `key = 10 × slot`.
    fn two_windows() -> [Segment<u64, u64>; 2] {
        let keys: Vec<u64> = (0..200).map(|i| i * 10).collect();
        let values = keys.iter().map(|&k| k + 1).collect();
        let column = Column::shared((keys, values));
        [0, 100].map(|start| {
            let page = Page::new(&column, start, 100);
            Segment::from_page(page.keys()[0], 0.1, page)
        })
    }

    #[test]
    fn a_write_to_a_shared_window_goes_to_a_copy_of_it() {
        let [mut a, b] = two_windows();
        let untouched = |b: &Segment<u64, u64>| {
            assert!(b.keys().iter().copied().eq((100..200).map(|i| i * 10)));
            assert!(b
                .values()
                .iter()
                .copied()
                .eq((100..200).map(|i| i * 10 + 1)));
        };
        // Reads and tombstones leave the column shared.
        assert_eq!(a.get(500, 1), Some(&501));
        assert_eq!(a.remove(500, 1), Some(501));
        assert!(a.shares_column(&b));
        // A value replacement copies the window first; the copy is all
        // of its column, so the next write goes in place.
        assert_eq!(a.insert(20, 7, 1), Some(21));
        assert!(!a.shares_column(&b));
        let at = a.values().as_ptr();
        assert_eq!(a.insert(30, 8, 1), Some(31));
        assert_eq!(a.insert(500, 9, 1), None); // resurrected
        assert_eq!(a.values().as_ptr(), at);
        assert_eq!(
            (a.get(20, 1), a.get(30, 1), a.get(500, 1)),
            (Some(&7), Some(&8), Some(&9))
        );
        untouched(&b);

        // A tail append to a window that ends mid-column: copied.
        let [mut a, b] = two_windows();
        assert_eq!(a.insert(1_000, 3, 1), None);
        assert_eq!((a.keys().len(), a.buffer.len()), (101, 0));
        assert!(!a.shares_column(&b));
        a.check_invariants(1, 0).unwrap();
        untouched(&b);
        // At the column's end, but not all of it: copied.
        let [a, mut b] = two_windows();
        assert_eq!(b.insert(2_000, 4, 1), None);
        assert_eq!(b.keys().len(), 101);
        assert!(!a.shares_column(&b));
        assert!(a.keys().iter().copied().eq((0..100).map(|i| i * 10)));

        // A shared window's run is a copy; the column stays whole.
        let [mut a, mut b] = two_windows();
        let (keys, values) = b.take_merged_run();
        assert!(keys.iter().copied().eq((100..200).map(|i| i * 10)));
        assert_eq!(values[0], 1_001);
        assert!(a.values().iter().copied().eq((0..100).map(|i| i * 10 + 1)));
        a.check_invariants(1, 0).unwrap();
        // The last page left on a column is still only a window of it.
        let (keys, values) = a.take_merged_run();
        assert!(keys.iter().copied().eq((0..100).map(|i| i * 10)));
        assert_eq!(values.len(), 100);
    }

    #[test]
    fn a_window_outside_its_column_is_reported() {
        let [a, mut stray] = two_windows();
        assert!(a.shares_column(&stray));
        stray.page.start = 150;
        let why = stray.check_invariants(1, 0).unwrap_err();
        assert!(why.contains("outside its 200-slot column"), "{why}");
        // A page anchored anywhere but at its first key.
        let [mut adrift, _] = two_windows();
        adrift.start_key = 5;
        let why = adrift.check_invariants(1, 0).unwrap_err();
        assert!(why.contains("does not start at its anchor"), "{why}");
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

    /// The envelope fold one key at a time in `i64`, as the definition
    /// reads: the oracle the lane kernel must equal bit for bit.
    fn scalar_envelope(xs: impl Iterator<Item = f64>, start: f64, slope: f64) -> (u32, u32) {
        let (under, over) = xs.enumerate().fold((0, 0), |(under, over), (i, key)| {
            let deviation = (((key - start) * slope + 0.5) as i64).max(0) - i as i64;
            (deviation.max(under), (-deviation).max(over))
        });
        let saturate = |deviation| u32::try_from(deviation).unwrap_or(u32::MAX);
        (saturate(under), saturate(over))
    }

    /// Both entries to the kernel, from keys and from projections,
    /// against the oracle.
    fn assert_exact<K: Key>(keys: &[K], start: f64, slope: f64, label: &str) {
        let xs: Vec<f64> = keys.iter().map(|k| k.to_f64()).collect();
        let want = scalar_envelope(xs.iter().copied(), start, slope);
        let at = format!(
            "{label}: {} keys, start {start:e}, slope {slope:e}",
            keys.len()
        );
        assert_eq!(measure_envelope(keys, start, slope), want, "keys, {at}");
        assert_eq!(envelope_of(&xs, start, slope), want, "projections, {at}");
    }

    #[test]
    fn the_lane_kernel_is_the_scalar_fold_on_cut_pages_and_windows() {
        use fiting_datasets::{make_strictly_increasing, Dataset};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(54);
        for dataset in Dataset::headline() {
            let mut keys = dataset.generate(100_000, 42);
            make_strictly_increasing(&mut keys);
            for seg_error in [16, 64, 4096] {
                let cuts = crate::cut::cut_spans(seg_error, &keys, &[], keys.len()).unwrap();
                for cut in &cuts {
                    let page = &keys[cut.slots.clone()];
                    let want =
                        scalar_envelope(page.iter().map(|&k| k as f64), page[0] as f64, cut.slope);
                    assert_eq!(cut.envelope, want, "{}, e={seg_error}", dataset.name());
                    assert_exact(page, page[0] as f64, cut.slope, dataset.name());
                }
                // Windows that start mid-page and cross chunk
                // boundaries, under slopes near those the cut chose.
                for _ in 0..200 {
                    let from = rng.gen_range(0..keys.len() - 1);
                    let len = rng.gen_range(1..3_000usize).min(keys.len() - from);
                    let slope = cuts[rng.gen_range(0..cuts.len())].slope * rng.gen_range(0.5..2.0);
                    assert_exact(
                        &keys[from..from + len],
                        keys[from] as f64,
                        slope,
                        dataset.name(),
                    );
                }
            }
        }
    }

    #[test]
    fn the_lane_kernel_is_exact_at_every_length_slope_and_edge() {
        let curvy: Vec<u64> = (0..1_300u64).map(|i| i * 50 + i * i / 7).collect();
        let lengths = [0, 1, 3, 4, 5, 255, 256, 257, 511, 513, 1_000, 1_300];
        let fit =
            |keys: &[u64]| (keys.len() as f64 - 1.0) / (keys[keys.len() - 1] - keys[0]) as f64;
        for len in lengths {
            for offset in [0, 1, 130] {
                let keys = &curvy[offset.min(len)..len];
                let Some(&first) = keys.first() else {
                    assert_exact(keys, 0.0, 1.0, "empty");
                    continue;
                };
                let slopes = [
                    0.0,
                    1e-300,
                    f64::MIN_POSITIVE,
                    0.02,
                    fit(&curvy[..len.max(2)]),
                    1e300,
                ];
                let extremes = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.02];
                for slope in slopes.into_iter().chain(extremes) {
                    // Anchored at the first key, at 0, and one above
                    // every key, so that every prediction is negative.
                    for start in [first as f64, 0.0, (keys[keys.len() - 1] + 1) as f64] {
                        assert_exact(keys, start, slope, "curvy");
                    }
                }
            }
        }
        // Predictions within an ulp or two of an integer, of a half,
        // and of the floor trick's edges at 2^52 and 2^53.
        let mut xs = Vec::new();
        let centres = (0..600).map(|n| f64::from(n) / 2.0 - 0.5);
        for centre in centres.chain([
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_992.0,
        ]) {
            let (mut down, mut up) = (centre, centre);
            xs.push(centre);
            for _ in 0..2 {
                (down, up) = (down.next_down(), up.next_up());
                xs.extend([down, up]);
            }
        }
        for len in [xs.len(), 257, 4] {
            for start in [0.0, -0.5, 0.25] {
                let want = scalar_envelope(xs[..len].iter().copied(), start, 1.0);
                assert_eq!(
                    envelope_of(&xs[..len], start, 1.0),
                    want,
                    "{len} near-integers from {start}"
                );
            }
        }
        // Keys whose projections collide or go negative.
        let high: Vec<u64> = (0..700)
            .map(|i| (1 << 60) + i * 3 + (1 << 53) * (i % 5))
            .collect();
        assert_exact(&high, high[0] as f64, fit(&high), "u64 above 2^53");
        assert_exact(&high, high[0] as f64, 1.0, "u64 above 2^53");
        let signed: Vec<i64> = (-400..400).map(|i| i * i * i).collect();
        assert_exact(&signed, -64e6, 8e-7, "negative i64");
        assert_exact(&signed, -64e6, 1e-3, "negative i64");
        assert_exact(&signed, 0.0, 1e-5, "negative i64");
        let wide: Vec<u128> = (0..600).map(|i| (1 << 100) + (i << 70) + i * i).collect();
        assert_exact(&wide, wide[0] as f64, 1.0 / (1u128 << 70) as f64, "u128");
        assert_exact(&wide, wide[0] as f64, 1e-9, "u128");
    }

    #[test]
    fn every_page_a_churn_stream_makes_stores_the_scalar_envelope() {
        use crate::builder::FitingTreeBuilder;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Fixture keys 16 apart, back-filled mostly in the top 1 %, as
        // the recent-key churn workload does; one op in eight removes.
        let mut rng = StdRng::seed_from_u64(42);
        let keys = (0..30_000u64).map(|i| (i * 16, i));
        let mut tree = FitingTreeBuilder::new(64).bulk_load(keys).unwrap();
        let mut resegmentations = 0;
        for op in 0..40_000u64 {
            let slot = if rng.gen_range(0..10) == 0 {
                rng.gen_range(0..480_000)
            } else {
                480_000 - rng.gen_range(1..4_800u64)
            };
            if op % 8 == 0 {
                tree.remove(&slot);
            } else {
                tree.insert(slot, op);
            }
            if tree.stats().resegmentations == resegmentations {
                continue;
            }
            resegmentations = tree.stats().resegmentations;
            for seg in &tree.segments {
                let oracle = scalar_envelope(
                    seg.keys().iter().map(|&k| k as f64),
                    seg.start_key_f,
                    seg.slope,
                );
                assert_eq!(
                    seg.error_envelope(),
                    oracle,
                    "page at {} after op {op}",
                    seg.start_key
                );
            }
        }
        assert!(resegmentations > 100, "{resegmentations} re-segmentations");
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
