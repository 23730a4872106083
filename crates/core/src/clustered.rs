//! The clustered FITing-Tree (paper Figure 2): unique keys over a sorted
//! attribute, segments owned by one dense flat directory.
//!
//! The paper stores segments under a conventional B+ tree; here the
//! [`FlatDirectory`] — one dense array of anchor keys — is the *single*
//! directory structure, and the segments sit beside it in directory
//! order, boxed: lookups search the anchors branchlessly and read the
//! segment at the position found, and structural mutations patch the affected
//! window of both arrays in place (O(moved segments + tail shift), one
//! `memmove` each). Whole-run handoffs ([`FitingTree::split_off`] /
//! `absorb`) move runs of segments between trees without
//! re-segmentation.

use crate::builder::FitingTreeBuilder;
use crate::cut::{chunks_for, cut, cut_pieces, PageCut};
use crate::directory::FlatDirectory;
use crate::error::{AbsorbError, BuildError};
use crate::range::RangeIter;
use crate::segment::{advised, Column, Page, Run, Segment};
use crate::stats::{FitingTreeStats, LookupTrace};
use fiting_index_api::{GiveBack, Key};
use fiting_plr::Cone;
use std::ops::{Range, RangeBounds};
use std::sync::Arc;
use std::time::Instant;
use std::vec::Splice;

/// How many bytes of a caller's input an owned bulk load copies between
/// two give-backs: the most the build holds of both copies at once.
const STEP: usize = 2 << 20;

/// A clustered FITing-Tree index mapping unique keys to values.
///
/// See the [crate docs](crate) for the full model. Construction goes
/// through [`FitingTreeBuilder::new`] (or the equivalent
/// `FitingTree::<K, V>::builder`); the only required parameter is the
/// error budget (maximum distance, in slots, between a key's interpolated
/// and true position).
#[derive(Clone)]
pub struct FitingTree<K: Key, V> {
    pub(crate) error: u64,
    pub(crate) buffer_size: u64,
    /// Segmentation budget: `error − buffer_size` (paper Section 5).
    pub(crate) seg_error: u64,
    /// The segment directory — the anchor keys in one dense array. The
    /// **only** directory structure: lookups search it with an
    /// interpolation-seeded branchless bounded search.
    pub(crate) dir: FlatDirectory<K>,
    /// The segments in directory order: `segments[i]` is anchored at
    /// the directory's `i`-th anchor, so the position a search returns
    /// indexes the segment. Each is boxed, so a splice that changes the
    /// segment count shifts one pointer a tail segment, not the whole
    /// header. After [`load`](Self::load), only
    /// [`splice_directory`](Self::splice_directory) writes the two
    /// arrays.
    pub(crate) segments: Vec<Box<Segment<K, V>>>,
    pub(crate) len: usize,
    /// Cumulative directory splice operations (structural mutations
    /// applied incrementally since construction).
    pub(crate) splices: u64,
    /// Cumulative segments written by those splices.
    pub(crate) splice_entries: u64,
    /// Cumulative new keys pushed onto a page tail without buffering.
    pub(crate) in_place_appends: u64,
    /// Cumulative merge-and-re-segment passes over one segment.
    pub(crate) resegmentations: u64,
    /// Cumulative entries those passes rewrote.
    pub(crate) resegmented_entries: u64,
}

impl<K: Key, V> FitingTree<K, V> {
    /// Starts building an index with the given error budget (in slots).
    ///
    /// Default buffer size: `error / 2` (the paper's evaluation split).
    #[must_use]
    pub fn builder(error: u64) -> FitingTreeBuilder {
        FitingTreeBuilder::new(error)
    }

    pub(crate) fn from_parts(error: u64, buffer_size: u64) -> Result<Self, BuildError> {
        if buffer_size > error || (error > 0 && buffer_size == error) {
            return Err(BuildError::BufferConsumesError { error, buffer_size });
        }
        Ok(FitingTree {
            error,
            buffer_size,
            seg_error: error - buffer_size,
            dir: FlatDirectory::new(),
            segments: Vec::new(),
            len: 0,
            splices: 0,
            splice_entries: 0,
            in_place_appends: 0,
            resegmentations: 0,
            resegmented_entries: 0,
        })
    }

    /// An empty tree sharing `self`'s error split — the seed for
    /// [`split_off`](Self::split_off).
    fn empty_like(&self) -> Self {
        FitingTree::from_parts(self.error, self.buffer_size)
            .expect("configuration was already validated")
    }

    /// Bulk loads strictly increasing `(key, value)` pairs (paper
    /// Section 3). One sequential pass copies the pairs into one column,
    /// sized from the input's `size_hint` and advised onto huge pages
    /// before the first write; then [`cut_and_load`](Self::cut_and_load).
    pub(crate) fn bulk_load_sorted<I>(self, iter: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let iter = iter.into_iter();
        let expected = iter.size_hint().0;
        let mut run: Run<K, V> = (advised(expected), advised(expected));
        run.extend(iter);
        let len = run.0.len();
        let mut trees = self.cut_and_load(run, &[len])?;
        Ok(trees.pop().expect("one span loads one tree"))
    }

    /// [`bulk_load_sorted`](Self::bulk_load_sorted) from the caller's
    /// own `Vec`, copied into the column [`STEP`] bytes of input at a
    /// time, and one tree per span of it (as
    /// [`build_spans`](fiting_index_api::BuildableIndex::build_spans)
    /// marks them by `ends`). After each step the input's consumed
    /// pages go back to the kernel, so the load holds one copy of the
    /// data plus one step, not two copies, however many spans it cuts.
    pub(crate) fn bulk_load_owned(
        self,
        sorted: Vec<(K, V)>,
        ends: &[usize],
    ) -> Result<Vec<Self>, BuildError> {
        let step = (STEP / std::mem::size_of::<(K, V)>().max(1)).max(1);
        let mut run: Run<K, V> = (advised(sorted.len()), advised(sorted.len()));
        let mut input = GiveBack::new(sorted);
        while !input.is_empty() {
            run.extend(input.next_run(step));
            input.give_back();
        }
        drop(input);
        self.cut_and_load(run, ends)
    }

    /// The tail both bulk loads share: one tree per span of `run` that
    /// `ends` marks, each span cut on its own, so a span end is a page
    /// end and each tree is the one its span alone would load.
    /// ShrinkingCone cuts a span into pages on every core, one chunk of
    /// at least [`MIN_KEYS_PER_THREAD`](crate::cut::MIN_KEYS_PER_THREAD)
    /// keys a thread, and the chunks are stitched back into the
    /// sequential cut bit for bit ([`cut`]); a span that never resyncs
    /// is cut again on this thread. Every tree's pages are windows of
    /// the one column `run` becomes, and one dense directory build over
    /// its segment anchors ends each tree's load. An unsorted slot is
    /// named from the start of `run`, a span's first key checked
    /// against the key before it too.
    fn cut_and_load(self, run: Run<K, V>, ends: &[usize]) -> Result<Vec<Self>, BuildError> {
        let column = Column::shared(run);
        let keys = column.keys();
        let mut trees = Vec::with_capacity(ends.len());
        let mut start = 0;
        for &end in ends {
            let unsorted = |at| BuildError::UnsortedInput { at: start + at };
            if start > 0 && start < end && keys[start - 1] >= keys[start] {
                return Err(unsorted(0));
            }
            let cuts = cut(self.seg_error, &keys[start..end], chunks_for(end - start))
                .map_err(unsorted)?;
            trees.push(self.empty_like().load(paginate(&column, start, cuts)));
            start = end;
        }
        Ok(trees)
    }

    /// Fills an empty tree with the pages of one carved run, collected
    /// straight into an exactly sized segment array. A load is
    /// construction, not a mutation: it counts no splice.
    pub(crate) fn load(mut self, pages: impl ExactSizeIterator<Item = Segment<K, V>>) -> Self {
        debug_assert!(self.segments.is_empty());
        self.segments = pages
            .inspect(|page| page.assert_invariants(self.seg_error, 0))
            .map(Box::new)
            .collect();
        self.len = self.segments.iter().map(|page| page.len()).sum();
        self.dir
            .splice(0..0, self.segments.iter().map(|page| page.start_key));
        self
    }

    /// Replaces the segments at directory positions `range` with
    /// `pages`, in key order: after [`load`](Self::load), the one
    /// writer of the anchors and the segments, whose tails shift
    /// together — O(pages + tail shift). The entries of `pages` join
    /// `len` and those of the replaced segments leave it. Counts toward
    /// the splice statistics. The splice lands when the returned
    /// iterator drops; it yields the replaced segments to a caller that
    /// keeps them.
    fn splice_directory(
        &mut self,
        range: Range<usize>,
        pages: Vec<Box<Segment<K, V>>>,
    ) -> Splice<'_, std::vec::IntoIter<Box<Segment<K, V>>>> {
        self.splices += 1;
        self.splice_entries += pages.len() as u64;
        let entries = |segments: &[Box<Segment<K, V>>]| -> usize {
            segments.iter().map(|page| page.len()).sum()
        };
        self.len = self.len + entries(&pages) - entries(&self.segments[range.clone()]);
        self.dir
            .splice(range.clone(), pages.iter().map(|page| page.start_key));
        self.segments.splice(range, pages)
    }

    /// Number of key/value pairs in the index.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured total error budget.
    #[must_use]
    pub fn error(&self) -> u64 {
        self.error
    }

    /// The per-segment insert buffer capacity.
    #[must_use]
    pub fn buffer_size(&self) -> u64 {
        self.buffer_size
    }

    /// The effective segmentation error (`error − buffer_size`).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn segmentation_error(&self) -> u64 {
        self.seg_error
    }

    /// Number of segments (= entries of the flat directory).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Point lookup (paper Algorithm 3): flat-directory search (the
    /// floor segment, or the first one for keys below every anchor),
    /// interpolation, bounded local search, buffer check.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        let pos = self.dir.floor_index(*key)?;
        self.segments[pos].get(*key, self.seg_error)
    }

    /// Instrumented lookup for the Figure 13 breakdown: returns the value
    /// and the time spent in each of the two phases (segment location
    /// vs in-segment search). Same routing as [`get`](Self::get).
    #[must_use]
    pub fn get_traced(&self, key: &K) -> (Option<&V>, LookupTrace) {
        let t0 = Instant::now();
        let located = self.dir.floor_index(*key);
        let tree_nanos = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let value = located.and_then(|pos| self.segments[pos].get(*key, self.seg_error));
        let segment_nanos = t1.elapsed().as_nanos() as u64;
        (
            value,
            LookupTrace {
                tree_nanos,
                segment_nanos,
            },
        )
    }

    /// Inserts `key → value` (paper Section 5), returning the previous
    /// value if the key existed. A new key that sorts after the covering
    /// segment's page and sits where that segment's model already
    /// predicts the next slot (within the segmentation error) is
    /// appended to the page in place; any other new key goes to the
    /// segment's sorted buffer, and a full buffer triggers merge +
    /// re-segmentation (Algorithm 4) — of a bounded page: the pages a
    /// re-segmentation makes hold at most 64 full buffers, so the next
    /// overflow among them rewrites at most 64 entries per insert it
    /// absorbed, not a page of whatever size appends or bulk load left.
    ///
    /// Pages are windows of columns that bulk load, re-segmentation and
    /// [`Clone`] share, so a write to a page is copy-on-write: in place
    /// only when the page owns its whole column, and otherwise into a
    /// column of the page's own. The `V: Clone` bound makes that copy.
    pub fn insert(&mut self, key: K, value: V) -> Option<V>
    where
        V: Clone,
    {
        let Some(pos) = self.dir.floor_index(key) else {
            // Empty index: open the first segment.
            let first = Segment::from_run(key, 0.0, vec![key], vec![value]);
            self.splice_directory(0..0, vec![Box::new(first)]);
            return None;
        };
        let seg = &mut self.segments[pos];
        let page_len = seg.keys().len();
        let old = seg.insert(key, value, self.seg_error);
        if old.is_some() {
            return old;
        }
        self.len += 1;
        if seg.keys().len() > page_len {
            self.in_place_appends += 1;
        } else if seg.buffer.len() > self.buffer_size as usize {
            self.resegment(pos);
        }
        None
    }

    /// Removes `key`, returning its value. **Extension over the paper**
    /// (which does not discuss deletes): buffer entries are dropped
    /// directly; page removals are O(1) tombstones (slots keep their
    /// position, so predictions stay exact — the value is cloned out of
    /// the dense page) and trigger re-segmentation once they exceed
    /// both half the segmentation budget and a quarter of the page's
    /// slots — so a page sheds dead slots in proportion to its size:
    /// O(1) amortized per removal, never more than ¼ of a page dead.
    ///
    /// The `V: Clone` bound exists only to extract the value from a
    /// tombstoned page slot (the dense value array keeps the slot until
    /// the next re-segmentation).
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let pos = self.dir.floor_index(*key)?;
        let seg = &mut self.segments[pos];
        let removed = seg.remove(*key, self.seg_error)?;
        self.len -= 1;
        if seg.len() == 0 {
            // Drop the empty segment entirely (keep at least none: an
            // empty index has an empty directory).
            self.splice_directory(pos..pos + 1, Vec::new());
        } else if seg.removed > (self.seg_error / 2).max(seg.keys().len() as u64 / 4) {
            self.resegment(pos);
        }
        Some(removed)
    }

    /// Iterator over entries with keys in `range`, in key order.
    #[must_use]
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> RangeIter<'_, K, V> {
        RangeIter::new(self, range)
    }

    /// Iterator over all entries in key order.
    #[must_use]
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        self.range(..)
    }

    /// Index structure size in bytes, following the paper's accounting:
    /// each segment's start key (its directory anchor), slope and page
    /// pointer, and the directory's pointer to it. The table data itself
    /// is *not* index overhead (it exists regardless).
    #[must_use]
    pub fn index_size_bytes(&self) -> usize {
        self.segment_count() * crate::segment_bytes(std::mem::size_of::<K>())
    }

    /// Full statistics snapshot; walks the segments.
    #[must_use]
    pub fn stats(&self) -> FitingTreeStats {
        let mut buffered = 0usize;
        let mut data_bytes = 0usize;
        for seg in &self.segments {
            buffered += seg.buffer.len();
            data_bytes += seg.payload_bytes();
        }
        let live = self.segments.len();
        FitingTreeStats {
            len: self.len,
            segment_count: live,
            flat_directory_bytes: self.dir.size_bytes(),
            index_size_bytes: self.index_size_bytes(),
            data_size_bytes: data_bytes,
            buffered_entries: buffered,
            directory_splices: self.splices,
            directory_splice_entries: self.splice_entries,
            in_place_appends: self.in_place_appends,
            resegmentations: self.resegmentations,
            resegmented_entries: self.resegmented_entries,
            avg_segment_len: if live == 0 {
                0.0
            } else {
                self.len as f64 / live as f64
            },
            error: self.error,
            seg_error: self.seg_error,
            buffer_size: self.buffer_size,
        }
    }

    /// Iterator over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterator over values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// First (smallest-key) entry.
    #[must_use]
    pub fn first(&self) -> Option<(&K, &V)> {
        self.iter().next()
    }

    /// Last (largest-key) entry.
    #[must_use]
    pub fn last(&self) -> Option<(&K, &V)> {
        // The last segment owns the largest anchor; its page and buffer
        // maxima compete for the global maximum.
        let seg = self.segments.last()?;
        match (seg.last_live(), seg.buffer.last()) {
            (Some((dk, dv)), Some((bk, bv))) => Some(if dk > bk { (dk, dv) } else { (bk, bv) }),
            (Some((dk, dv)), None) => Some((dk, dv)),
            (None, Some((bk, bv))) => Some((bk, bv)),
            (None, None) => None,
        }
    }

    /// Takes the entries of the segment at `pos` out (and out of `len`)
    /// as one merged run, to be re-carved. The emptied segment holds
    /// the position until the splice that replaces it, so the tail
    /// shifts once, in that splice.
    fn take_for_recarve(&mut self, pos: usize) -> Run<K, V>
    where
        V: Clone,
    {
        let seg = &mut self.segments[pos];
        self.len -= seg.len();
        self.resegmentations += 1;
        self.resegmented_entries += seg.len() as u64;
        seg.take_merged_run()
    }

    /// The most entries a page made by re-segmentation holds: 64 full
    /// buffers. The next overflow in its key range rewrites at most
    /// this many entries — 64 per buffered insert, whatever the page
    /// was before. ×64 is where a sweep of ×16 … ×256 left the index
    /// smallest (ROADMAP, "Settled by measurement").
    fn page_cap(&self) -> usize {
        64 * (self.buffer_size as usize + 1)
    }

    /// Merges a segment's page and buffer and splices the resulting
    /// segment(s) into the directory window the old segment occupied
    /// (paper Algorithm 4, lines 5–9). The paper re-runs ShrinkingCone
    /// over the whole merged run; here the run is first bounded — one
    /// longer than [`page_cap`](Self::page_cap) is carved in the fewest
    /// equal stretches that fit it — and one that fits is re-fitted
    /// under its endpoint line before the cone is asked ([`refit`]).
    /// Either way the splice replaces the old anchor, which the first
    /// segment's buffer may have undercut.
    fn resegment(&mut self, pos: usize)
    where
        V: Clone,
    {
        let run = self.take_for_recarve(pos);
        let pieces = run.0.len().div_ceil(self.page_cap());
        let fitted = if pieces == 1 {
            refit(self.seg_error, run)
        } else {
            Err(run)
        };
        let pages = fitted.map_or_else(
            |run| carve(self.seg_error, run, pieces),
            |page| vec![Box::new(page)],
        );
        self.splice_directory(pos..pos + 1, pages);
    }

    /// Splits the tree at `at`: every entry with key `>= at` moves into
    /// the returned tree (same configuration), everything below stays.
    ///
    /// Cost is **O(moved segments + one boundary segment)**: whole SoA
    /// pages and their directory span are handed off without
    /// re-segmentation or per-entry copying — only the single segment
    /// straddling `at` (if any) is merged and re-segmented into a left
    /// and a right part. This is what makes
    /// `ShardedIndex::split_shard` over FITing-Tree shards
    /// O(moved-segment-count) instead of O(moved entries × rebuild).
    ///
    /// Degenerate cuts work: `at` below every key moves the whole tree,
    /// `at` above every key returns an empty tree.
    pub fn split_off(&mut self, at: &K) -> FitingTree<K, V>
    where
        V: Clone,
    {
        let mut right = self.empty_like();
        let Some(p) = self.dir.floor_index(*at) else {
            return right;
        };
        // The boundary segment may straddle `at`; only then is it
        // merged and re-segmented into a left and a right side (the
        // only re-segmentation a split ever pays). A cut at or below
        // its minimum key hands it off whole instead — fitted slope
        // and measured envelope intact.
        let seg = &self.segments[p];
        let covers = seg.max_key().is_some_and(|m| m >= *at);
        let whole = covers && seg.min_key().is_some_and(|m| m >= *at);
        // Whole segments after the boundary move as-is: one O(moved)
        // cut of both arrays, no page touched.
        let from = if whole { p } else { p + 1 };
        let tail: Vec<_> = self
            .splice_directory(from..self.segments.len(), Vec::new())
            .collect();
        let mut pages = Vec::new();
        if covers && !whole {
            let (mut keys, mut values) = self.take_for_recarve(p);
            let cut = keys.partition_point(|k| k < at);
            let upper = (keys.split_off(cut), values.split_off(cut));
            self.splice_directory(p..p + 1, carve(self.seg_error, (keys, values), 1));
            pages = carve(self.seg_error, upper, 1);
        }
        pages.extend(tail);
        right.splice_directory(0..0, pages);
        right
    }

    /// Absorbs every entry of `other` — all of whose keys must be
    /// strictly greater than every key in `self` — leaving `other`
    /// empty. The symmetric counterpart of
    /// [`split_off`](Self::split_off): `other`'s segments (pages,
    /// buffers, fitted slopes and measured error envelopes intact) are
    /// appended to `self`'s with one splice — **O(moved segments)**, no
    /// re-segmentation and no per-entry copying.
    ///
    /// Returns the number of entries moved.
    ///
    /// # Errors
    ///
    /// * [`AbsorbError::ConfigMismatch`] when the two trees disagree on
    ///   error budget or buffer split (moved segments would carry
    ///   envelopes the absorbing tree's search window could clip).
    /// * [`AbsorbError::KeyOverlap`] when `other` holds a key `<=`
    ///   `self`'s maximum (the runs cannot be concatenated).
    ///
    /// Either error leaves both trees untouched.
    pub fn absorb(&mut self, other: &mut FitingTree<K, V>) -> Result<usize, AbsorbError>
    where
        V: Clone,
    {
        if self.error != other.error || self.buffer_size != other.buffer_size {
            return Err(AbsorbError::ConfigMismatch);
        }
        if other.is_empty() {
            return Ok(0);
        }
        let moved = other.len;
        let mut reinserts: Vec<(K, V)> = Vec::new();
        if !self.is_empty() {
            let self_max = *self.last().expect("non-empty tree has a last entry").0;
            let other_min = *other.first().expect("non-empty tree has a first entry").0;
            if other_min <= self_max {
                return Err(AbsorbError::KeyOverlap);
            }
            // Only `other`'s *first* segment may hold buffered keys
            // below its anchor; after the append those keys would route
            // to `self`'s last segment instead. Drain them here and
            // re-insert through the normal path after the handoff.
            let first = &mut other.segments[0];
            let below = first.buffer.partition_point(|(k, _)| *k < first.start_key);
            reinserts.extend(first.buffer.drain(..below));
            first.assert_invariants(other.seg_error, 0);
            other.len -= below;
        }
        // `other` keeps its config and is left a clean empty tree.
        let mut pages: Vec<_> = other
            .splice_directory(0..other.segments.len(), Vec::new())
            .collect();
        // The drain above may have emptied the first segment.
        pages.retain(|seg| seg.len() > 0);
        let n = self.segments.len();
        self.splice_directory(n..n, pages);
        for (k, v) in reinserts {
            self.insert(k, v);
        }
        Ok(moved)
    }

    /// Verifies structural invariants; used by tests.
    ///
    /// Coherence is checked **directly between the flat directory and
    /// the segment run**. Checks: one anchor per segment; directory
    /// anchors are strictly ascending and each is its segment's start
    /// key; every segment is well formed on its own (sorted page and
    /// buffer, disjoint, bitmap sized, live slots inside their
    /// windows); every live page key is found by a windowed lookup (the
    /// error guarantee) *and* located to its segment by the directory;
    /// `len` consistency; segments are disjoint and ordered.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.segments.len() != self.dir.len() {
            return Err(format!(
                "directory has {} anchors for {} segments",
                self.dir.len(),
                self.segments.len()
            ));
        }
        let mut counted = 0usize;
        let mut prev_max: Option<K> = None;
        for (pos, seg) in self.segments.iter().enumerate() {
            let anchor = self.dir.anchor_at(pos);
            if pos > 0 && self.dir.anchor_at(pos - 1) >= anchor {
                return Err(format!(
                    "directory anchors not strictly ascending: {:?} then {anchor:?}",
                    self.dir.anchor_at(pos - 1)
                ));
            }
            if seg.start_key != anchor {
                return Err(format!(
                    "segment anchored at {anchor:?} believes its start is {:?}",
                    seg.start_key
                ));
            }
            seg.check_invariants(self.seg_error, 0)?;
            let dead = (0..seg.keys().len()).filter(|&i| !seg.is_live(i)).count();
            if seg.removed as usize != dead {
                return Err("tombstone count diverged from bitmap".into());
            }
            if seg.buffer.len() > self.buffer_size as usize + 1 {
                return Err(format!(
                    "buffer over capacity: {} > {}",
                    seg.buffer.len(),
                    self.buffer_size
                ));
            }
            if let (Some(min), Some(prev)) = (seg.min_key(), prev_max) {
                // Only the first segment may hold keys below its anchor.
                if pos > 0 && min <= prev {
                    return Err(format!(
                        "segment overlap: min {min:?} <= previous max {prev:?}"
                    ));
                }
            }
            for (i, k) in seg.keys().iter().enumerate() {
                if !seg.is_live(i) {
                    continue; // tombstoned slot: invisible to lookups
                }
                if seg.get(*k, self.seg_error).is_none() {
                    return Err(format!(
                        "error guarantee violated: page key {k:?} not found within window"
                    ));
                }
                if self.dir.floor_index(*k) != Some(pos) {
                    return Err(format!(
                        "flat directory routes live key {k:?} away from its segment"
                    ));
                }
            }
            for (k, _) in &seg.buffer {
                if self.dir.floor_index(*k) != Some(pos) {
                    return Err(format!(
                        "flat directory routes buffered key {k:?} away from its segment"
                    ));
                }
            }
            counted += seg.len();
            prev_max = seg.max_key().or(prev_max);
        }
        if counted != self.len {
            return Err(format!(
                "len mismatch: counted {counted}, recorded {}",
                self.len
            ));
        }
        Ok(())
    }
}

/// The page over a whole sorted, non-empty run under its endpoint line
/// — the slope [`Cone::final_slope`] hands a run the cone keeps in one
/// piece — when the envelope `from_run` measures (a pass the page pays
/// anyway) fits the segmentation budget: correct by measurement, the
/// guarantee the search window relies on. The run comes back when it
/// does not.
fn refit<K: Key, V: Clone>(
    seg_error: u64,
    (keys, values): Run<K, V>,
) -> Result<Segment<K, V>, Run<K, V>> {
    let (first, last) = (keys[0].to_f64(), keys[keys.len() - 1].to_f64());
    let slope = Cone::new(first, 0).final_slope(last, keys.len() as u64 - 1);
    let mut page = Segment::from_run(keys[0], slope, keys, values);
    let (under, over) = page.error_envelope();
    if u64::from(under.max(over)) <= seg_error {
        page.assert_invariants(seg_error, 0);
        Ok(page)
    } else {
        Err(page.take_merged_run())
    }
}

/// Carves a sorted run in `pieces` stretches of equal length (to within
/// one entry), each through a cone of its own, which may cut it further.
/// Each page then owns a column — the run's own arrays when the run is
/// one page — so that re-segmenting one page later frees its slots
/// instead of leaving them pinned by the pages cut beside it.
fn carve<K: Key, V: Clone>(
    seg_error: u64,
    run: Run<K, V>,
    pieces: usize,
) -> Vec<Box<Segment<K, V>>> {
    let cuts = cut_pieces(seg_error, &run.0, pieces).expect("a merged run is sorted");
    let mut pages: Vec<_> = paginate(&Column::shared(run), 0, cuts)
        .map(Box::new)
        .collect();
    for page in &mut pages {
        page.detach();
        page.assert_invariants(seg_error, 0);
    }
    pages
}

/// The pages `cuts` marks out of `column` from slot `from` on, each a
/// window of it.
pub(crate) fn paginate<K: Key, V>(
    column: &Arc<Column<K, V>>,
    from: usize,
    cuts: Vec<PageCut>,
) -> impl ExactSizeIterator<Item = Segment<K, V>> {
    let column = Arc::clone(column);
    cuts.into_iter().map(move |cut| {
        let page = Page::new(&column, from + cut.slots.start, cut.slots.len());
        Segment::from_cut(cut.slope, page, cut.envelope)
    })
}

impl<K: Key, V: std::fmt::Debug> std::fmt::Debug for FitingTree<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitingTree")
            .field("len", &self.len)
            .field("error", &self.error)
            .field("segments", &self.segment_count())
            .finish()
    }
}

impl<K: Key, V: Clone> fiting_index_api::SortedIndex<K, V> for FitingTree<K, V> {
    type RangeIter<'a>
        = std::iter::Map<crate::range::RangeIter<'a, K, V>, fn((&'a K, &'a V)) -> (K, V)>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn get(&self, key: &K) -> Option<&V> {
        FitingTree::get(self, key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        FitingTree::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        FitingTree::remove(self, key)
    }

    fn len(&self) -> usize {
        FitingTree::len(self)
    }

    fn size_bytes(&self) -> usize {
        FitingTree::index_size_bytes(self)
    }

    fn range<R: std::ops::RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        FitingTree::range(self, range).map(fiting_index_api::clone_pair as fn((&K, &V)) -> (K, V))
    }

    /// Run by run, one reservation per segment — not through the `fn`
    /// pointer [`range`](Self::range) maps each entry with.
    fn range_into<R: std::ops::RangeBounds<K>>(&self, range: R, out: &mut Vec<(K, V)>) {
        FitingTree::range(self, range).collect_into(out);
    }

    /// Native run handoff: `ShardedIndex::split_shard` over FITing-Tree
    /// shards moves whole segments in O(moved segments); never refuses.
    fn split_off_tail(&mut self, at: &K) -> Option<Self> {
        Some(FitingTree::split_off(self, at))
    }

    /// Native append: `ShardedIndex::merge_with_next` hands the right
    /// shard's segment run over without re-segmentation. Refuses
    /// (returning `false`, touching nothing) on config mismatch or key
    /// overlap, which the sharded layer reports as a refused merge.
    fn absorb_tail(&mut self, other: &mut Self) -> bool {
        FitingTree::absorb(self, other).is_ok()
    }
}

impl<K: Key, V: Clone> fiting_index_api::BuildableIndex<K, V> for FitingTree<K, V> {
    type Config = crate::builder::FitingTreeBuilder;
    type BuildError = crate::error::BuildError;

    fn build_from(
        config: &Self::Config,
        sorted: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, crate::error::BuildError> {
        config.clone().bulk_load(sorted)
    }

    /// Copies the whole input once into one column, giving the `Vec`'s
    /// memory back as it copies it (the build peaks at one copy of the
    /// data plus one 2 MiB step), and cuts each span's tree out of that
    /// column. A span end is a page end, so each tree's pages are the
    /// ones `build_sorted` of its span makes; they stay windows of the
    /// one column, which is freed once every page has left it.
    /// [`BuildError::UnsortedInput`](crate::error::BuildError::UnsortedInput)
    /// names the slot in `sorted`, not in the span.
    fn build_spans(
        config: &Self::Config,
        sorted: Vec<(K, V)>,
        ends: &[usize],
    ) -> Result<Vec<Self>, crate::error::BuildError> {
        assert_eq!(
            ends.last(),
            Some(&sorted.len()),
            "the spans cover the input"
        );
        config.clone().build_empty()?.bulk_load_owned(sorted, ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FitingTreeBuilder;

    fn build(n: u64, error: u64) -> FitingTree<u64, u64> {
        FitingTreeBuilder::new(error)
            .bulk_load((0..n).map(|k| (k * 7, k)))
            .unwrap()
    }

    #[test]
    fn bulk_load_and_get_all() {
        let t = build(10_000, 32);
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(&(k * 7)), Some(&k), "key {}", k * 7);
            assert_eq!(t.get(&(k * 7 + 1)), None);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn empty_index() {
        let t: FitingTree<u64, u64> = FitingTreeBuilder::new(16).build_empty().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let err = FitingTree::<u64, u64>::builder(16)
            .bulk_load([(3, 0), (2, 0)])
            .unwrap_err();
        assert!(matches!(err, BuildError::UnsortedInput { at: 1 }));
        // Long enough to be cut on every core: the slot is still the
        // first one out of order, wherever its chunk starts.
        let keys = (0..200_000u64).map(|k| if k == 150_000 { 0 } else { k * 3 });
        let err = FitingTree::<u64, u64>::builder(16)
            .bulk_load(keys.map(|k| (k, k)))
            .unwrap_err();
        assert!(matches!(err, BuildError::UnsortedInput { at: 150_000 }));
    }

    /// Every page of `t` in key order: start key, length, slope bits
    /// and error envelope.
    fn page_shapes(t: &FitingTree<u64, u64>) -> Vec<(u64, usize, u64, (u32, u32))> {
        t.segments
            .iter()
            .map(|page| {
                let slope = page.slope.to_bits();
                (page.start_key, page.len(), slope, page.error_envelope())
            })
            .collect()
    }

    #[test]
    fn owned_and_streamed_loads_build_one_tree() {
        use fiting_index_api::BuildableIndex;
        let config = FitingTreeBuilder::new(16);
        // Two cut chunks on a multi-core machine, and a last step that
        // is one pair long.
        let n = 2 * crate::cut::MIN_KEYS_PER_THREAD as u64 + 1;
        assert_ne!(n as usize % (STEP / 16), 0);
        let curvy: Vec<(u64, u64)> = (0..n).map(|k| (k * k / 1024 + 3 * k, k)).collect();
        let owned = FitingTree::build_sorted(&config, curvy.clone()).unwrap();
        let streamed = FitingTree::build_from(&config, curvy.iter().copied()).unwrap();
        owned.check_invariants().unwrap();
        assert!(page_shapes(&owned).len() > 1);
        assert_eq!(page_shapes(&owned), page_shapes(&streamed));
        assert!(owned
            .iter()
            .map(|(&k, &v)| (k, v))
            .eq(curvy.iter().copied()));

        let mut unsorted = curvy;
        unsorted[100_000].0 = 0;
        let owned = FitingTree::build_sorted(&config, unsorted.clone()).unwrap_err();
        let streamed = FitingTree::build_from(&config, unsorted).unwrap_err();
        assert!(matches!(owned, BuildError::UnsortedInput { at: 100_000 }));
        assert!(matches!(
            streamed,
            BuildError::UnsortedInput { at: 100_000 }
        ));

        let owned = FitingTree::<u64, u64>::build_sorted(&config, Vec::new()).unwrap();
        let streamed = FitingTree::<u64, u64>::build_from(&config, []).unwrap();
        assert!(owned.is_empty() && streamed.is_empty());
        assert_eq!(page_shapes(&owned), page_shapes(&streamed));
    }

    #[test]
    fn linear_keys_make_one_segment() {
        let t = build(100_000, 16);
        assert_eq!(t.segment_count(), 1);
        // The directory is then a single leaf.
        assert!(t.index_size_bytes() < 200);
    }

    #[test]
    fn error_controls_segment_count_on_curvy_data() {
        let keys: Vec<u64> = (0..50_000u64).map(|k| k * k / 64).collect();
        let mut dedup = keys;
        dedup.dedup();
        let pairs: Vec<(u64, u64)> = dedup.iter().map(|&k| (k, k)).collect();
        let tight = FitingTreeBuilder::new(8).bulk_load(pairs.clone()).unwrap();
        let loose = FitingTreeBuilder::new(512).bulk_load(pairs).unwrap();
        assert!(tight.segment_count() > loose.segment_count());
        tight.check_invariants().unwrap();
        loose.check_invariants().unwrap();
    }

    #[test]
    fn insert_then_get() {
        let mut t = build(1_000, 64);
        assert_eq!(t.insert(7 * 500 + 1, 9999), None);
        assert_eq!(t.get(&(7 * 500 + 1)), Some(&9999));
        assert_eq!(t.len(), 1001);
        // Replacement returns the old value and does not grow the index.
        assert_eq!(t.insert(7 * 500 + 1, 1), Some(9999));
        assert_eq!(t.len(), 1001);
        t.check_invariants().unwrap();
    }

    #[test]
    fn inserts_below_global_minimum() {
        let mut t = FitingTreeBuilder::new(16)
            .bulk_load((100..200u64).map(|k| (k, k)))
            .unwrap();
        t.insert(5, 55);
        t.insert(1, 11);
        assert_eq!(t.get(&5), Some(&55));
        assert_eq!(t.get(&1), Some(&11));
        assert_eq!(t.range(..).next().map(|(k, _)| *k), Some(1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn buffer_overflow_triggers_resegmentation() {
        let mut t = FitingTreeBuilder::new(16)
            .buffer_size(4)
            .bulk_load((0..1000u64).map(|k| (k * 10, k)))
            .unwrap();
        let before = t.segment_count();
        // Flood one region with inserts to overflow its buffer.
        for k in 0..100u64 {
            t.insert(5000 + k * 2 + 1, k);
        }
        assert_eq!(t.len(), 1100);
        for k in 0..100u64 {
            assert_eq!(t.get(&(5000 + k * 2 + 1)), Some(&k));
        }
        // Everything originally present is still there.
        for k in 0..1000u64 {
            assert_eq!(t.get(&(k * 10)), Some(&k));
        }
        assert!(t.segment_count() >= before);
        t.check_invariants().unwrap();
    }

    #[test]
    fn monotonic_append_workload() {
        let mut t: FitingTree<u64, u64> = FitingTreeBuilder::new(32).build_empty().unwrap();
        for k in 0..5_000u64 {
            t.insert(k, k);
        }
        assert_eq!(t.len(), 5_000);
        for k in (0..5_000u64).step_by(97) {
            assert_eq!(t.get(&k), Some(&k));
        }
        t.check_invariants().unwrap();
        // The opening one-key segment has no slope to extend; one
        // re-carve learns the line and every later key lands in place.
        let s = t.stats();
        assert_eq!((s.resegmentations, s.segment_count), (1, 1));
        assert!(s.in_place_appends > 4_900);
    }

    /// Linear `(k * 10, k)` for `k < n`: `error` 32 ⇒ `seg_error` 16.
    fn linear(n: u64) -> FitingTree<u64, u64> {
        FitingTreeBuilder::new(32)
            .bulk_load((0..n).map(|k| (k * 10, k)))
            .unwrap()
    }

    #[test]
    fn linear_appends_never_resegment() {
        let mut t = linear(1_000);
        for k in 1_000..101_000u64 {
            assert_eq!(t.insert(k * 10, k), None);
        }
        let s = t.stats();
        assert_eq!(s.in_place_appends, 100_000);
        assert_eq!((s.resegmentations, s.resegmented_entries), (0, 0));
        assert_eq!((s.segment_count, s.buffered_entries), (1, 0));
        assert_eq!(s.directory_splices, 0);
        assert_eq!(t.len(), 101_000);
        assert_eq!(t.last(), Some((&1_009_990, &100_999)));
        for k in (0..101_000u64).step_by(101) {
            assert_eq!(t.get(&(k * 10)), Some(&k));
            assert_eq!(t.get(&(k * 10 + 1)), None);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn appends_that_bend_the_model_recarve_into_a_new_tail_segment() {
        let mut t = linear(1_000);
        // A hundredfold sparser: the old line predicts slots far past
        // the tail, so these are buffered until the buffer overflows.
        let bent = |k: u64| 9_990 + (k + 1) * 1_000;
        for k in 0..16 {
            t.insert(bent(k), k);
        }
        let s = t.stats();
        assert_eq!((s.in_place_appends, s.buffered_entries), (0, 16));
        t.insert(bent(16), 16);
        let s = t.stats();
        assert_eq!((s.resegmentations, s.resegmented_entries), (1, 1_017));
        assert_eq!((s.segment_count, s.buffered_entries), (2, 0));
        // The new tail segment was fitted to the sparse keys: it takes
        // the rest in place.
        for k in 17..500 {
            t.insert(bent(k), k);
        }
        let s = t.stats();
        assert_eq!((s.in_place_appends, s.resegmentations), (483, 1));
        assert_eq!(s.segment_count, 2);
        for k in 0..500 {
            assert_eq!(t.get(&bent(k)), Some(&k));
        }
        assert_eq!(t.get(&9_990), Some(&999));
        t.check_invariants().unwrap();
    }

    #[test]
    fn appended_keys_replace_remove_and_resurrect_like_any_page_key() {
        let mut t = linear(100);
        assert_eq!(t.insert(1_000, 1), None);
        assert_eq!(t.insert(1_000, 2), Some(1), "duplicate of an appended key");
        assert_eq!(t.len(), 101);
        // Remove the tail key, re-insert it: the slot is reclaimed.
        assert_eq!(t.remove(&1_000), Some(2));
        assert_eq!(t.last(), Some((&990, &99)));
        assert_eq!(t.insert(1_000, 3), None);
        assert_eq!(t.last(), Some((&1_000, &3)));
        // Remove it again and append past the tombstone.
        assert_eq!(t.remove(&1_000), Some(3));
        assert_eq!(t.insert(1_010, 4), None);
        assert_eq!(t.get(&1_000), None);
        assert_eq!(t.last(), Some((&1_010, &4)));
        let s = t.stats();
        assert_eq!((s.in_place_appends, s.buffered_entries), (2, 0));
        assert_eq!(t.len(), 101);
        t.check_invariants().unwrap();
    }

    #[test]
    fn buffered_key_above_the_tail_survives_admitted_appends() {
        let mut t = linear(100);
        // 40 slots past the tail: off the line by more than 16, buffered.
        assert_eq!(t.insert(990 + 400, 7_000), None);
        assert_eq!(t.stats().buffered_entries, 1);
        assert_eq!(t.last(), Some((&1_390, &7_000)));
        // Appends walk up to it, over it (a replace in the buffer), and
        // past it; the page and the buffer stay sorted and disjoint.
        for k in 100..160u64 {
            let old = t.insert(k * 10, k);
            assert_eq!(old, (k == 139).then_some(7_000), "key {}", k * 10);
        }
        let s = t.stats();
        assert_eq!((s.in_place_appends, s.buffered_entries), (59, 1));
        assert_eq!(t.get(&1_390), Some(&139));
        assert_eq!(t.last(), Some((&1_590, &159)));
        let tail: Vec<u64> = t.range(1_370..=1_410).map(|(k, _)| *k).collect();
        assert_eq!(tail, vec![1_370, 1_380, 1_390, 1_400, 1_410]);
        assert_eq!(t.iter().count(), 160);
        assert!(t.keys().zip(t.keys().skip(1)).all(|(a, b)| a < b));
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_off_and_absorb_after_appends() {
        let mut t = linear(2_000);
        for k in 2_000..12_000u64 {
            t.insert(k * 10, k);
        }
        t.insert(55_555, 1); // one buffered key inside the appended run
        assert_eq!(t.remove(&119_990), Some(11_999)); // tombstoned tail slot
        let model: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        // The cut falls inside the page grown by appends.
        let mut right = t.split_off(&60_005);
        assert_eq!(t.len() + right.len(), model.len());
        assert_eq!(t.last(), Some((&60_000, &6_000)));
        assert_eq!(right.first(), Some((&60_010, &6_001)));
        assert_eq!(right.last(), Some((&119_980, &11_998)));
        t.check_invariants().unwrap();
        right.check_invariants().unwrap();
        // Both halves keep appending in place (the boundary re-carve
        // dropped the tombstone, so 119_990 is an append too).
        let appends = (t.stats().in_place_appends, right.stats().in_place_appends);
        t.insert(60_003, 2);
        right.insert(119_990, 3);
        right.insert(120_000, 4);
        assert_eq!(t.stats().in_place_appends, appends.0 + 1);
        assert_eq!(right.stats().in_place_appends, appends.1 + 2);
        assert_eq!(t.remove(&60_003), Some(2));
        t.absorb(&mut right).unwrap();
        let mut want = model;
        want.extend([(119_990, 3), (120_000, 4)]);
        let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        t.check_invariants().unwrap();
    }

    /// Forty blocks of 500 keys three apart, 100 000 apart: one page a
    /// block, all cut from the one column bulk load writes.
    fn blocks() -> FitingTree<u64, u64> {
        let keys = (0..40u64).flat_map(|b| (0..500).map(move |j| b * 100_000 + j * 3));
        FitingTreeBuilder::new(64)
            .bulk_load(keys.map(|k| (k, k / 3)))
            .unwrap()
    }

    /// Every page by anchor: whether it shares `column`'s column, and
    /// its live entries, page then buffer.
    fn pages_of(
        t: &FitingTree<u64, u64>,
        column: &Segment<u64, u64>,
    ) -> std::collections::BTreeMap<u64, (bool, Vec<(u64, u64)>)> {
        (t.segments.iter())
            .map(|seg| {
                let live = (0..seg.keys().len()).filter(|&i| seg.is_live(i));
                let page = live.map(|i| (seg.keys()[i], seg.values()[i]));
                let entries = page.chain(seg.buffer.iter().copied()).collect();
                (seg.start_key, (seg.shares_column(column), entries))
            })
            .collect()
    }

    #[test]
    fn a_bulk_load_cuts_every_page_from_one_column() {
        let t = blocks();
        assert_eq!(t.segment_count(), 40);
        let first = &t.segments[0];
        assert!(t.segments.iter().all(|seg| seg.shares_column(first)));
        t.check_invariants().unwrap();
    }

    /// Runs `write` on `blocks()` beside a model, with a clone taken
    /// first. Only pages in block `block` may leave the column, and at
    /// least one does; every other page is the window it was, holding
    /// what it held; the clone reads as loaded, from the column alone.
    fn assert_copy_on_write(
        block: u64,
        write: impl FnOnce(&mut FitingTree<u64, u64>, &mut std::collections::BTreeMap<u64, u64>),
    ) {
        let mut t = blocks();
        let frozen = t.clone();
        let column = &frozen.segments[0];
        let loaded = pages_of(&frozen, column);
        let mut model: std::collections::BTreeMap<u64, u64> =
            t.iter().map(|(k, v)| (*k, *v)).collect();
        write(&mut t, &mut model);
        t.check_invariants().unwrap();
        assert!(t.iter().map(|(k, v)| (*k, *v)).eq(model));
        let mut copied = 0;
        for (anchor, (shared, entries)) in pages_of(&t, column) {
            if anchor / 100_000 == block && !shared {
                copied += 1;
            } else {
                assert!(shared, "page {anchor} left the column");
                assert_eq!(Some(&entries), loaded.get(&anchor).map(|p| &p.1));
            }
        }
        assert!(copied > 0, "no page of block {block} was written");
        frozen.check_invariants().unwrap();
        assert_eq!(pages_of(&frozen, column), loaded);
    }

    #[test]
    fn a_write_to_a_shared_column_copies_only_its_own_page() {
        let last = |block: u64| block * 100_000 + 499 * 3;
        // Tail appends: at the column's end, and in the middle of it.
        for block in [39, 3] {
            assert_copy_on_write(block, |t, model| {
                let appends = t.stats().in_place_appends;
                for k in 1..=3 {
                    assert_eq!(t.insert(last(block) + 3 * k, k), None);
                    model.insert(last(block) + 3 * k, k);
                }
                assert_eq!(t.stats().in_place_appends, appends + 3);
            });
        }
        // A value replacement, and a tombstone resurrected.
        assert_copy_on_write(5, |t, model| {
            assert_eq!(t.insert(500_030, 1), Some(166_676));
            model.insert(500_030, 1);
            assert_eq!(t.remove(&500_060), model.remove(&500_060));
            assert_eq!(t.insert(500_060, 2), None);
            model.insert(500_060, 2);
        });
        // A value replacement alone.
        assert_copy_on_write(6, |t, model| {
            assert_eq!(t.insert(600_300, 3), Some(200_100));
            model.insert(600_300, 3);
        });
        // A buffer overflow that re-segments.
        assert_copy_on_write(7, |t, model| {
            for j in 0..=t.buffer_size() {
                t.insert(700_001 + 3 * j, j);
                model.insert(700_001 + 3 * j, j);
            }
            assert_eq!(t.stats().resegmentations, 1);
        });
        // A split inside a page and the absorb that undoes it: whole
        // pages move both ways without leaving the column.
        assert_copy_on_write(12, |t, _| {
            let mut right = t.split_off(&1_200_750);
            assert_eq!(right.segment_count(), 28);
            right.check_invariants().unwrap();
            t.absorb(&mut right).unwrap();
        });
    }

    #[test]
    fn remove_roundtrip_and_window_widening() {
        let mut t = build(2_000, 16);
        for k in (0..2_000u64).step_by(3) {
            assert_eq!(t.remove(&(k * 7)), Some(k), "removing {}", k * 7);
        }
        for k in 0..2_000u64 {
            let expect = if k % 3 == 0 { None } else { Some(&k) };
            let expect = expect.copied();
            assert_eq!(t.get(&(k * 7)).copied(), expect, "key {}", k * 7);
        }
        assert_eq!(t.len(), 2_000 - 2_000_usize.div_ceil(3));
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_page_sheds_tombstones_in_proportion_to_its_size() {
        let mut t = build(100_000, 16);
        assert_eq!(t.segment_count(), 1);
        // 30 k removes spread over the one 100 k-slot page. A threshold
        // in slots (`seg_error / 2`) would rewrite it every fifth remove.
        for k in (0..90_000u64).step_by(3) {
            assert_eq!(t.remove(&(k * 7)), Some(k));
        }
        // The bound is on entries rewritten, not on passes: the first
        // re-carve leaves capped pages, which shed separately.
        let s = t.stats();
        assert!(s.resegmented_entries < 200_000, "{}", s.resegmented_entries);
        for seg in &t.segments {
            assert!(seg.removed as usize <= (seg.keys().len() / 4).max(8));
        }
        assert_eq!(t.len(), 70_000);
        for k in 0..100_000u64 {
            let survives = k >= 90_000 || k % 3 != 0;
            assert_eq!(t.get(&(k * 7)), survives.then_some(&k), "key {}", k * 7);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_everything_leaves_clean_index() {
        let mut t = build(500, 8);
        for k in 0..500u64 {
            assert_eq!(t.remove(&(k * 7)), Some(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.segment_count(), 0);
        // And it accepts new data afterwards.
        t.insert(1, 1);
        assert_eq!(t.get(&1), Some(&1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn get_traced_phases_sum_to_a_lookup() {
        let t = build(10_000, 64);
        let (v, trace) = t.get_traced(&(7 * 1234));
        assert_eq!(v, Some(&1234));
        // Both phases took *some* time; this is an instrumentation smoke
        // test, not a benchmark.
        assert!(trace.tree_nanos + trace.segment_nanos > 0);
    }

    #[test]
    fn stats_are_consistent() {
        let t = build(10_000, 32);
        let s = t.stats();
        assert_eq!(s.len, 10_000);
        assert_eq!(s.segment_count, t.segment_count());
        assert_eq!(s.error, 32);
        assert_eq!(s.buffer_size, 16);
        assert_eq!(s.seg_error, 16);
        assert!(s.index_size_bytes < s.data_size_bytes);
        assert!(s.avg_segment_len > 1.0);
    }

    #[test]
    fn window_search_finds_keys_on_a_jittered_line() {
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k * 3 + k % 5, k)).collect();
        let mut sorted = pairs;
        sorted.sort();
        sorted.dedup_by_key(|p| p.0);
        let t = FitingTreeBuilder::new(32)
            .bulk_load(sorted.iter().copied())
            .unwrap();
        for (k, v) in sorted.iter().step_by(53) {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn keys_values_first_last() {
        let mut t = build(1_000, 32);
        assert_eq!(t.first().map(|(k, _)| *k), Some(0));
        assert_eq!(t.last().map(|(k, _)| *k), Some(999 * 7));
        assert_eq!(t.keys().count(), 1_000);
        assert_eq!(t.values().next(), Some(&0));
        // A buffered key beyond the last page key becomes the new last.
        t.insert(999 * 7 + 5, 123);
        assert_eq!(t.last(), Some((&(999 * 7 + 5), &123)));
        let empty: FitingTree<u64, u64> = FitingTreeBuilder::new(8).build_empty().unwrap();
        assert_eq!(empty.first(), None);
        assert_eq!(empty.last(), None);
    }

    #[test]
    fn splice_counters_track_structural_mutations() {
        let mut t = build(1_000, 16);
        let s0 = t.stats();
        assert_eq!(s0.directory_splices, 0, "bulk load is a dense rebuild");
        // Force at least one re-segmentation.
        for k in 0..200u64 {
            t.insert(k * 7 + 1, k);
        }
        let s1 = t.stats();
        assert!(s1.directory_splices > 0);
        assert!(s1.directory_splice_entries >= s1.directory_splices);
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_off_moves_upper_run_without_resegmenting() {
        let mut t = build(10_000, 32);
        let segs_before = t.segment_count();
        let at = 7 * 6_000;
        let right = t.split_off(&at);
        assert_eq!(t.len() + right.len(), 10_000);
        assert_eq!(right.len(), 4_000);
        // Whole-run handoff: total segment count grows by at most the
        // re-segmentation of the single boundary segment.
        assert!(t.segment_count() + right.segment_count() <= segs_before + 4);
        for k in 0..10_000u64 {
            let key = k * 7;
            if key < at {
                assert_eq!(t.get(&key), Some(&k), "left {key}");
                assert_eq!(right.get(&key), None, "right must not hold {key}");
            } else {
                assert_eq!(right.get(&key), Some(&k), "right {key}");
                assert_eq!(t.get(&key), None, "left must not hold {key}");
            }
        }
        t.check_invariants().unwrap();
        right.check_invariants().unwrap();
    }

    #[test]
    fn split_at_segment_anchor_hands_boundary_off_whole() {
        // A cut exactly at a segment's first key must not merge and
        // re-carve that segment: every key in it is >= the cut, so the
        // page moves intact and the total segment count is preserved.
        let t = FitingTreeBuilder::new(8)
            .bulk_load((0..20_000u64).map(|k| (k * k / 8 + k, k)))
            .unwrap();
        let before = t.segment_count();
        assert!(before > 10);
        // Pick a mid-directory anchor as the cut.
        let anchor = t.dir.anchor_at(before / 2);
        let mut left = t.clone();
        let right = left.split_off(&anchor);
        assert_eq!(
            left.segment_count() + right.segment_count(),
            before,
            "anchor cut must not re-segment the boundary"
        );
        assert_eq!(left.len() + right.len(), t.len());
        assert_eq!(right.first().map(|(k, _)| *k), Some(anchor));
        left.check_invariants().unwrap();
        right.check_invariants().unwrap();
    }

    #[test]
    fn split_off_degenerate_cuts() {
        // Below every key: everything moves.
        let mut t = build(500, 16);
        let right = t.split_off(&0);
        assert!(t.is_empty());
        assert_eq!(right.len(), 500);
        t.check_invariants().unwrap();
        right.check_invariants().unwrap();

        // Above every key: nothing moves.
        let mut t = build(500, 16);
        let right = t.split_off(&u64::MAX);
        assert_eq!(t.len(), 500);
        assert!(right.is_empty());
        t.check_invariants().unwrap();
        right.check_invariants().unwrap();

        // Empty tree.
        let mut t: FitingTree<u64, u64> = FitingTreeBuilder::new(16).build_empty().unwrap();
        assert!(t.split_off(&5).is_empty());
    }

    #[test]
    fn split_off_with_buffered_entries_across_the_cut() {
        let mut t = FitingTreeBuilder::new(64)
            .bulk_load((0..2_000u64).map(|k| (k * 10, k)))
            .unwrap();
        // Buffered inserts on both sides of the future cut.
        for k in 0..400u64 {
            t.insert(k * 50 + 3, 900_000 + k);
        }
        let len = t.len();
        let right = t.split_off(&9_999);
        assert_eq!(t.len() + right.len(), len);
        for k in 0..400u64 {
            let key = k * 50 + 3;
            let side = if key >= 9_999 { &right } else { &t };
            assert_eq!(side.get(&key), Some(&(900_000 + k)), "buffered {key}");
        }
        t.check_invariants().unwrap();
        right.check_invariants().unwrap();
    }

    #[test]
    fn absorb_appends_disjoint_run_in_place() {
        let mut left = build(3_000, 32); // keys 0..21_000 step 7
        let mut right: FitingTree<u64, u64> = FitingTreeBuilder::new(32)
            .bulk_load((0..2_000u64).map(|k| (30_000 + k * 5, k)))
            .unwrap();
        let right_segs = right.segment_count();
        let left_segs = left.segment_count();
        let moved = left.absorb(&mut right).unwrap();
        assert_eq!(moved, 2_000);
        assert!(right.is_empty());
        assert_eq!(left.len(), 5_000);
        // Pure handoff: segment counts just add.
        assert_eq!(left.segment_count(), left_segs + right_segs);
        for k in 0..2_000u64 {
            assert_eq!(left.get(&(30_000 + k * 5)), Some(&k));
        }
        assert_eq!(left.get(&(3_000 * 7 - 7)), Some(&2_999));
        left.check_invariants().unwrap();
        right.check_invariants().unwrap();
        // The drained tree is reusable.
        right.insert(1, 1);
        assert_eq!(right.get(&1), Some(&1));
    }

    #[test]
    fn absorb_rejects_overlap_and_config_mismatch() {
        let mut left = build(100, 32);
        let mut overlapping = build(100, 32);
        assert_eq!(
            left.absorb(&mut overlapping),
            Err(crate::error::AbsorbError::KeyOverlap)
        );
        assert_eq!(overlapping.len(), 100, "failed absorb must not drain");

        let mut other_cfg: FitingTree<u64, u64> = FitingTreeBuilder::new(64)
            .bulk_load((10_000..10_100u64).map(|k| (k, k)))
            .unwrap();
        assert_eq!(
            left.absorb(&mut other_cfg),
            Err(crate::error::AbsorbError::ConfigMismatch)
        );
        assert_eq!(other_cfg.len(), 100);
        left.check_invariants().unwrap();
    }

    #[test]
    fn split_then_absorb_round_trips() {
        let mut t = build(5_000, 16);
        for k in 0..300u64 {
            t.insert(k * 35 + 2, k);
        }
        let model: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        // Split at a key that is *not* stored, so the right tree's first
        // anchor sits above the cut...
        let at = 7 * 2_500 + 3;
        let mut right = t.split_off(&at);
        assert!(!model.iter().any(|&(k, _)| k == at));
        // ...then insert the cut key itself: it lands *below* the first
        // anchor in the right tree's first-segment buffer, exercising
        // absorb's drain-and-reinsert path.
        right.insert(at, 424_242);
        t.absorb(&mut right).unwrap();
        assert_eq!(t.get(&at), Some(&424_242));
        let mut want = model;
        want.push((at, 424_242));
        want.sort_unstable();
        let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        t.check_invariants().unwrap();
    }

    #[test]
    fn zero_error_still_works() {
        // error 0 → buffer 0 → every insert re-segments immediately.
        let mut t = FitingTreeBuilder::new(0)
            .bulk_load((0..100u64).map(|k| (k * 2, k)))
            .unwrap();
        for k in 0..100u64 {
            assert_eq!(t.get(&(k * 2)), Some(&k));
        }
        t.insert(51, 999);
        assert_eq!(t.get(&51), Some(&999));
        t.check_invariants().unwrap();
    }

    /// A tree beside a `BTreeMap` oracle that inspects every
    /// re-segmentation as it happens. Values are made twice from one
    /// counter.
    struct Storm<V> {
        tree: FitingTree<u64, V>,
        oracle: std::collections::BTreeMap<u64, V>,
        value: fn(u64) -> V,
        made: u64,
        overflows: u64,
    }

    impl<V: Clone + PartialEq + std::fmt::Debug> Storm<V> {
        fn insert(&mut self, key: u64) {
            self.made += 1;
            let (value, made) = (self.value, self.made);
            self.watched(key, |s| {
                assert_eq!(
                    s.tree.insert(key, value(made)),
                    s.oracle.insert(key, value(made)),
                    "insert {key}"
                );
            });
        }

        fn remove(&mut self, key: u64) {
            self.watched(key, |s| {
                assert_eq!(s.tree.remove(&key), s.oracle.remove(&key), "remove {key}");
            });
        }

        /// Runs `op` on `key`; if it re-segmented the covering segment,
        /// checks the pages that made against the run that went in.
        fn watched(&mut self, key: u64, op: impl FnOnce(&mut Self)) {
            let covering = self.tree.dir.floor_index(key).map(|pos| {
                let seg = &self.tree.segments[pos];
                let span = (seg.min_key().unwrap(), seg.max_key().unwrap());
                (seg.len(), span.0.min(key), span.1.max(key))
            });
            let before = (self.tree.resegmentations, self.tree.resegmented_entries);
            let len = self.tree.len();
            op(self);
            let t = &self.tree;
            assert_eq!(t.len(), self.oracle.len());
            if t.resegmentations == before.0 {
                return;
            }
            self.overflows += 1;
            assert_eq!(t.resegmentations, before.0 + 1);
            let (held, min, max) = covering.expect("only a segment re-segments");
            let first = t.dir.floor_index(min).unwrap_or(0);
            let pages = &t.segments[first..=t.dir.floor_index(max).unwrap()];
            // The run is what the segment held once the operation had
            // added or taken its one entry, counted entry for entry.
            let run: usize = pages.iter().map(|page| page.len()).sum();
            assert_eq!(run, held + t.len() - len, "pages {first}.. are not the run");
            assert_eq!(t.resegmented_entries - before.1, run as u64);
            let cap = t.page_cap();
            for (i, page) in pages.iter().enumerate() {
                assert!(pages[..i].iter().all(|left| !left.shares_column(page)));
                assert!(
                    page.keys().len() <= cap,
                    "{} > cap {cap}",
                    page.keys().len()
                );
                assert!(page.buffer.is_empty() && page.removed == 0);
                let (under, over) = page.error_envelope();
                assert!(u64::from(under.max(over)) <= t.seg_error, "{under} {over}");
                page.check_invariants(t.seg_error, 0).unwrap();
            }
            if pages.len() == run.div_ceil(cap) {
                // No cut of the cone's own: equal pages.
                let lens = pages.iter().map(|page| page.keys().len());
                assert!(lens.clone().max().unwrap() - lens.min().unwrap() <= 1);
            }
            // The whole tree, at a stride a 300 k-key page can afford.
            if self.overflows % 64 == 1 || t.len() < 10_000 {
                t.check_invariants().unwrap();
            }
        }

        fn agree(&self) {
            self.tree.check_invariants().unwrap();
            assert!(self.tree.iter().eq(self.oracle.iter()));
            for (k, v) in self.oracle.iter().step_by(7) {
                assert_eq!(self.tree.get(k), Some(v));
                assert_eq!(self.tree.get(&(k + 1)), self.oracle.get(&(k + 1)));
            }
        }
    }

    /// Every shape of overflow, at one configuration and value type.
    fn overflow_storm<V: Clone + PartialEq + std::fmt::Debug>(
        config: &FitingTreeBuilder,
        value: fn(u64) -> V,
    ) {
        let start = |keys: Vec<u64>| {
            let load = |made| keys.iter().map(move |&k| (k, value(made)));
            Storm {
                tree: config.clone().bulk_load(load(0)).unwrap(),
                oracle: load(0).collect(),
                value,
                made: 0,
                overflows: 0,
            }
        };
        let tens = |keys: std::ops::Range<u64>| keys.map(|k| k * 10).collect();
        let mut next = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move |below: u64| {
            next ^= next << 13;
            next ^= next >> 7;
            next ^= next << 17;
            next % below
        };

        // The giant page: a 300 k-key tail appended in place, then
        // back-fills uniform over its first tenth.
        let mut s = start(tens(0..1_000));
        for k in 1_000..300_000 {
            s.insert(k * 10);
        }
        assert_eq!((s.overflows, s.tree.segment_count()), (0, 1));
        for _ in 0..4_000 {
            s.insert(random(30_000) * 10 + 1 + random(9));
        }
        assert!(s.overflows > 8, "{} overflows", s.overflows);
        assert!(s.tree.segment_count() >= 300_000 / s.tree.page_cap());
        s.agree();

        // A page a quarter tombstoned (one short of shedding them on
        // its own), back-filled: the runs between dead slots are short.
        let mut s = start(tens(0..4_000));
        for k in (0..4_000).step_by(4) {
            s.remove(k * 10);
        }
        assert_eq!(s.overflows, 0, "a quarter dead is not yet pressure");
        for _ in 0..1_500 {
            s.insert(random(40_000));
        }
        assert!(s.overflows > 2);
        s.agree();

        // The first segment, undercut: every key below the anchor is
        // buffered there, so each overflow moves the anchor down.
        let mut s = start(tens(100_000..100_500));
        for k in (0..1_200).rev() {
            let overflows = s.overflows;
            s.insert(k * 700 + random(700));
            if s.overflows > overflows {
                assert_eq!(s.tree.dir.anchor_at(0), *s.oracle.keys().next().unwrap());
            }
        }
        assert!(s.overflows > 1);
        s.agree();

        // A one-slot page under a growing buffer, from an empty tree.
        let mut s = start(tens(0..0));
        s.insert(5_000_000);
        for k in (0..600).rev() {
            s.insert(k * 13);
        }
        assert!(s.overflows > 1);
        s.agree();

        // Duplicates: a buffered key replaced, a tombstoned slot
        // resurrected, a removed buffered key re-buffered — none grows
        // a buffer twice, and the overflows between them stay exact.
        let mut s = start(tens(0..2_000));
        for round in 0..400.max(4 * s.tree.buffer_size + 4) {
            let page_key = random(2_000) * 10;
            let odd = random(20_000) | 1;
            s.insert(odd);
            s.insert(odd);
            s.remove(page_key);
            if round % 3 > 0 {
                s.insert(page_key);
            }
            if round % 5 == 0 {
                s.remove(odd);
                s.insert(odd);
            }
        }
        assert!(s.overflows > 2);
        s.agree();

        // Many pages cut from one column, and a clone that holds it too:
        // every page write copies its page first, and the clone never
        // sees one.
        let blocks = (0..40u64).flat_map(|b| (0..500).map(move |j| b * 100_000 + j * 3));
        let mut s = start(blocks.clone().collect());
        assert!(s.tree.segment_count() >= 40);
        let frozen = s.tree.clone();
        for round in 0..6_000u64 {
            // Writes in the first five blocks, a third of them on a key
            // the load made.
            let (block, at) = (random(5) * 100_000, random(1_800));
            let key = block + at;
            match round % 4 {
                0 | 1 => s.insert(key),
                2 => s.remove(block + at - at % 3),
                _ if s.oracle.contains_key(&key) => s.insert(key),
                _ => assert_eq!(s.tree.get(&key), None),
            }
        }
        assert!(s.overflows > 2, "{} overflows", s.overflows);
        s.agree();
        frozen.check_invariants().unwrap();
        assert!(frozen.iter().map(|(k, _)| *k).eq(blocks));
        assert!(frozen.iter().all(|(_, v)| *v == value(0)));
    }

    #[test]
    fn overflow_storm_matches_a_btreemap_and_makes_capped_equal_pages() {
        for error in [8, 64, 512] {
            let config = FitingTreeBuilder::new(error);
            overflow_storm::<u64>(&config, |made| made);
        }
        // No buffer at all: every buffered insert is an overflow.
        let config = FitingTreeBuilder::new(16).buffer_size(0);
        overflow_storm::<u64>(&config, |made| made);
        let config = FitingTreeBuilder::new(64);
        overflow_storm::<()>(&config, |_| ());
    }

    #[test]
    fn back_fills_into_a_giant_page_rewrite_it_once() {
        let mut t = FitingTreeBuilder::new(64)
            .bulk_load((0..1_000_000u64).map(|k| (k * 10, k)))
            .unwrap();
        assert_eq!(t.segment_count(), 1);
        let back_fills = 20_000u64;
        for i in 0..back_fills {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 10_000_000;
            t.insert(key | 1, i);
        }
        let s = t.stats();
        assert!(s.resegmentations > 100);
        // One pass over the million, then 64 entries a buffered insert
        // (twice that while a page one buffer over the cap halves).
        assert!(
            s.resegmented_entries <= 1_000_000 + 2 * 64 * back_fills,
            "{} entries rewritten",
            s.resegmented_entries
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn a_refit_is_the_page_the_cone_would_carve() {
        let runs: Vec<Vec<u64>> = vec![
            vec![42],
            vec![7, 9],
            (0..2_000).map(|i| i * 3).collect(),
            (0..2_000).map(|i| i * 5 + i % 5).collect(),
            (0..1_500).map(|i| i * 100 + (i * i) % 97).collect(),
            (0..3_000u64).map(|i| i * 50 + i * i / 400).collect(),
            (0..500).map(|i| (1u64 << 60) + i).collect(),
        ];
        let mut one_piece = 0;
        for keys in &runs {
            for seg_error in [0, 4, 32, 256] {
                let carved = carve(seg_error, (keys.clone(), keys.clone()), 1);
                let model = |page: &Segment<u64, u64>| {
                    let envelope = page.error_envelope();
                    (page.start_key, page.slope.to_bits(), envelope)
                };
                match refit(seg_error, (keys.clone(), keys.clone())) {
                    Ok(page) if carved.len() == 1 => {
                        assert_eq!(model(&page), model(&carved[0]), "e={seg_error}");
                        one_piece += 1;
                    }
                    // Accepted where the greedy cone cut: still a page
                    // measured inside the budget.
                    Ok(page) => page.check_invariants(seg_error, 0).unwrap(),
                    Err((k, v)) => {
                        assert!(carved.len() > 1, "the cone kept what the fit refused");
                        assert_eq!((&k, &v), (keys, keys), "the run comes back whole");
                    }
                }
            }
        }
        assert!(one_piece >= 12, "{one_piece} one-piece runs");
    }

    #[test]
    fn a_fit_one_slot_over_the_budget_is_carved_instead() {
        // A line with `extra` keys packed behind its midpoint: the
        // endpoint line's envelope grows with the cluster, one slot at a
        // time somewhere along the way.
        let run = |extra: u64| -> Vec<u64> {
            let mut keys: Vec<u64> = (0..400).map(|i| i * 100).collect();
            keys.extend(20_001..=20_000 + extra);
            keys.sort_unstable();
            keys
        };
        let envelope = |keys: &[u64]| {
            let slope = (keys.len() - 1) as f64 / (keys[keys.len() - 1] - keys[0]) as f64;
            let (under, over) =
                Segment::from_run(keys[0], slope, keys.to_vec(), keys.to_vec()).error_envelope();
            u64::from(under.max(over))
        };
        let seg_error = 8;
        let mut seen = [false; 2];
        for keys in (1..60).map(run) {
            let fitted = refit(seg_error, (keys.clone(), keys.clone()));
            match envelope(&keys) {
                e if e == seg_error => {
                    seen[0] = true;
                    assert!(fitted.is_ok(), "on the budget is inside it");
                }
                e if e == seg_error + 1 => {
                    seen[1] = true;
                    assert!(fitted.is_err(), "one over is outside it");
                    for page in carve(seg_error, (keys.clone(), keys), 1) {
                        let (under, over) = page.error_envelope();
                        assert!(u64::from(under.max(over)) <= seg_error);
                    }
                }
                e => assert_eq!(fitted.is_ok(), e < seg_error),
            }
        }
        assert_eq!(seen, [true, true], "the sweep crosses the boundary");
    }
}
