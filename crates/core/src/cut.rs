//! The cut: where ShrinkingCone (paper Section 3, Algorithm 2) ends
//! each page of a sorted run, with each page's measured error envelope.
//!
//! One [`Cutter`] does the work for every caller: one sequential cone
//! pass over the run's keys in order, fed their projections in batches
//! of any size ([`project`] checks that each key sorts strictly above
//! the one before it and projects it once). A page also ends at every
//! span end the cutter is given, where a fresh cone opens the next
//! span. A page the cone opens and closes inside one batch is measured
//! from that batch's projections while they are in cache, by the lane
//! kernel every page measurement shares ([`envelope_of`]); the few
//! that straddle a batch or a span end are measured from the column in
//! [`Cutter::finish`], which projects their keys again
//! ([`measure_envelope`]). Either way the envelope is the one the
//! definition's per-key fold gives. The batching does not show in the
//! result: every batch size cuts the same pages, with the same starts,
//! slopes and envelopes.
//!
//! * Bulk load feeds a cutter on a thread of its own, one copy step at
//!   a time, while it copies, checks and projects the next step.
//! * Re-segmentation, short inputs and a build whose cutter thread
//!   cannot start cut the whole run on the calling thread
//!   ([`cut_spans`]).

use crate::error::BuildError;
use crate::segment::{envelope_of, measure_envelope};
use fiting_index_api::Key;
use fiting_plr::{Point, ShrinkingCone};
use std::ops::Range;

/// One page of a cut: the slots it spans, its slope, and its measured
/// envelope `(under, over)`.
#[derive(Debug)]
pub(crate) struct PageCut {
    pub(crate) slots: Range<usize>,
    pub(crate) slope: f64,
    pub(crate) envelope: (u32, u32),
}

/// The envelope a page carries until [`Cutter::finish`] measures it
/// from the column, its keys not all in one batch. A genuine envelope
/// of this value is measured again to the same value.
const UNMEASURED: (u32, u32) = (u32::MAX, u32::MAX);

/// The sequential cut of a run fed in batches, so far.
pub(crate) struct Cutter<'a> {
    /// The span ends not reached yet, each the first slot of a span.
    breaks: &'a [usize],
    cone: ShrinkingCone,
    /// The pages the cone closed, in slot order.
    pages: Vec<PageCut>,
    /// The open page's first slot, and the slot the next key fills.
    open: usize,
    next: usize,
}

impl<'a> Cutter<'a> {
    /// A cut under `seg_error` that ends a page at each of `breaks`
    /// (non-decreasing slots).
    pub(crate) fn new(seg_error: u64, breaks: &'a [usize]) -> Self {
        Cutter {
            breaks,
            cone: ShrinkingCone::new(seg_error),
            pages: Vec::new(),
            open: 0,
            next: 0,
        }
    }

    /// Feeds the run's next keys, as [`project`] makes them.
    pub(crate) fn feed(&mut self, mut batch: &[f64]) {
        let end = self.next + batch.len();
        while let Some(&at) = self.breaks.first().filter(|&&at| at < end) {
            let (span, rest) = batch.split_at(at - self.next);
            self.push(span);
            let fresh = ShrinkingCone::new(self.cone.error());
            if let Some(done) = std::mem::replace(&mut self.cone, fresh).finish() {
                self.close(done.slope, at, None);
            }
            self.breaks = &self.breaks[1..];
            batch = rest;
        }
        self.push(batch);
    }

    /// Feeds a batch all in one span through the cone. A page it closes
    /// that opened in it is measured from its projections there.
    fn push(&mut self, batch: &[f64]) {
        let first = self.next;
        for (slot, &x) in (first..).zip(batch) {
            if let Some(done) = self.cone.push(Point::new(x, slot as u64)) {
                debug_assert_eq!(done.start_pos as usize, self.open);
                let page = (self.open >= first).then(|| &batch[self.open - first..slot - first]);
                self.close(done.slope, slot, page);
            }
        }
        self.next += batch.len();
    }

    /// Closes the open page before slot `end` under `slope`, measured
    /// from `page`, its keys' projections, if they are at hand.
    fn close(&mut self, slope: f64, end: usize, page: Option<&[f64]>) {
        let envelope = page.map_or(UNMEASURED, |xs| envelope_of(xs, xs[0], slope));
        self.pages.push(PageCut {
            slots: self.open..end,
            slope,
            envelope,
        });
        self.open = end;
    }

    /// The pages cut, the open one closed: `keys` is the whole run fed,
    /// which measures the pages no one batch held.
    pub(crate) fn finish<K: Key>(mut self, keys: &[K]) -> Vec<PageCut> {
        debug_assert_eq!(self.next, keys.len());
        if let Some(done) = self.cone.clone().finish() {
            self.close(done.slope, self.next, None);
        }
        for page in self.pages.iter_mut().filter(|p| p.envelope == UNMEASURED) {
            let keys = &keys[page.slots.clone()];
            page.envelope = measure_envelope(keys, keys[0].to_f64(), page.slope);
        }
        self.pages
    }
}

/// Projects `keys[fed..]` onto `xs`, once each is checked to sort
/// strictly above the key before it.
///
/// # Errors
///
/// [`BuildError::UnsortedInput`] names the first slot whose key does
/// not.
pub(crate) fn project<K: Key>(keys: &[K], fed: usize, xs: &mut Vec<f64>) -> Result<(), BuildError> {
    let start = fed.saturating_sub(1);
    if let Some(i) = keys[start..].windows(2).position(|pair| pair[0] >= pair[1]) {
        return Err(BuildError::UnsortedInput { at: start + i + 1 });
    }
    xs.clear();
    xs.extend(keys[fed..].iter().map(|key| key.to_f64()));
    Ok(())
}

/// The cut of the whole run `keys`, a page ending at each of `breaks`,
/// fed `batch` keys at a time. On the calling thread.
///
/// # Errors
///
/// As [`project`]'s.
pub(crate) fn cut_spans<K: Key>(
    seg_error: u64,
    keys: &[K],
    breaks: &[usize],
    batch: usize,
) -> Result<Vec<PageCut>, BuildError> {
    let (mut cutter, mut projected) = (Cutter::new(seg_error, breaks), Vec::new());
    for from in (0..keys.len()).step_by(batch.max(1)) {
        project(&keys[..keys.len().min(from + batch)], from, &mut projected)?;
        cutter.feed(&projected);
    }
    Ok(cutter.finish(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use fiting_datasets::{make_strictly_increasing, Dataset};
    use fiting_plr::points_from_sorted_keys;

    /// A page as compared: its slots, its slope's bits, its envelope.
    type Model = (Range<usize>, u64, (u32, u32));

    fn models(cuts: &[PageCut]) -> Vec<Model> {
        cuts.iter()
            .map(|c| (c.slots.clone(), c.slope.to_bits(), c.envelope))
            .collect()
    }

    /// The sequential cut by other means: `ShrinkingCone::segment` over
    /// each span of the run, each page measured by `Segment::from_run`.
    fn oracle(keys: &[u64], seg_error: u64, breaks: &[usize]) -> Vec<Model> {
        let mut want = Vec::new();
        let mut start = 0;
        for &end in breaks.iter().chain([&keys.len()]) {
            let projected: Vec<f64> = keys[start..end].iter().map(|&k| k as f64).collect();
            let segments = ShrinkingCone::segment(&points_from_sorted_keys(&projected), seg_error);
            want.extend(segments.into_iter().map(|s| {
                let slots = start + s.start_pos as usize..start + s.end_pos as usize + 1;
                let page = keys[slots.clone()].to_vec();
                let envelope =
                    Segment::from_run(page[0], s.slope, page.clone(), page).error_envelope();
                (slots, s.slope.to_bits(), envelope)
            }));
            start = end;
        }
        want
    }

    /// Every batch size, and the whole run at once, cut the oracle's
    /// pages.
    fn assert_sequential(keys: &[u64], seg_error: u64, breaks: &[usize], label: &str) {
        let want = oracle(keys, seg_error, breaks);
        for batch in [1, 2, 3, 64, 4_096, keys.len()] {
            let got = models(&cut_spans(seg_error, keys, breaks, batch).unwrap());
            assert!(got == want, "{label}, e={seg_error}, batches of {batch}");
        }
    }

    #[test]
    fn every_batch_size_cuts_the_sequential_pages() {
        for dataset in Dataset::headline() {
            let mut keys = dataset.generate(200_000, 42);
            make_strictly_increasing(&mut keys);
            for seg_error in [4, 64, 4096] {
                assert_sequential(&keys, seg_error, &[], dataset.name());
            }
        }
    }

    #[test]
    fn colliding_projections_short_runs_and_span_ends() {
        let curvy: Vec<u64> = (0..2_000u64).map(|i| i * 50 + i * i / 7).collect();
        // Above 2^53 neighbours project to one `f64`: vertical runs of
        // 256 keys, as a secondary index's duplicates make.
        let collided: Vec<u64> = (0..3_000u64).map(|i| (1 << 60) + i).collect();
        for seg_error in [0, 1, 64] {
            assert_sequential(&curvy, seg_error, &[], "curvy");
            assert_sequential(&collided, seg_error, &[], "collided");
            for len in 0..=8 {
                assert_sequential(&curvy[..len], seg_error, &[], "short");
            }
            // Spans, empty ones among them, ending inside and at the
            // edges of batches.
            let breaks = [0, 1, 64, 64, 700, 1_999];
            assert_sequential(&curvy, seg_error, &breaks, "spans");
            assert_sequential(&collided, seg_error, &[256, 2_048, 3_000], "spans");
        }
    }

    #[test]
    fn a_page_over_every_batch_is_measured_from_the_column() {
        // Linear keys are one page over every batch.
        let keys: Vec<u64> = (0..100_000).map(|i| i * 3).collect();
        assert_eq!(oracle(&keys, 8, &[]).len(), 1);
        assert_sequential(&keys, 8, &[], "linear");
        // Linear, then a jump: the long page closes at the jump, and a
        // short one follows it.
        let mut keys = keys;
        keys.extend((0..1_000).map(|i| 1 << 40 | i));
        assert_eq!(oracle(&keys, 8, &[]).len(), 2);
        assert_sequential(&keys, 8, &[], "linear then a jump");
        // The long page is left to `finish`, which measures it from the
        // column.
        let projected: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        let mut cutter = Cutter::new(8, &[]);
        projected.chunks(64).for_each(|batch| cutter.feed(batch));
        assert_eq!(cutter.pages[0].envelope, UNMEASURED);
        // Pages inside one batch are measured as the cone closes them.
        let curvy: Vec<f64> = (0..2_000).map(|i| f64::from(i * 50 + i * i / 7)).collect();
        let mut cutter = Cutter::new(4, &[]);
        cutter.feed(&curvy);
        assert!(cutter.pages.len() > 10);
        assert!(cutter.pages.iter().all(|p| p.envelope != UNMEASURED));
    }

    #[test]
    fn unsorted_input_names_the_first_slot_out_of_order() {
        let sorted: Vec<u64> = (0..3_000u64).map(|i| i * 10 + i % 7).collect();
        let mut batch = Vec::new();
        assert_eq!(project(&sorted, 0, &mut batch), Ok(()));
        assert_eq!(batch.len(), 3_000);
        assert_eq!(project(&sorted[..0], 0, &mut batch), Ok(()));
        // Alone and behind a later one.
        let mut keys = sorted.clone();
        keys[2_500] = keys[2_499];
        keys[2_900] = 0;
        let unsorted = |at| Err(BuildError::UnsortedInput { at });
        assert_eq!(
            cut_spans(16, &keys, &[1_000], 64).map(|_| ()),
            unsorted(2_500)
        );
        // The first key checked, against the key before it.
        let mut keys = sorted;
        keys[1_024] = keys[1_023] - 1;
        assert_eq!(project(&keys, 1_024, &mut batch), unsorted(1_024));
        assert_eq!(project(&keys, 1_025, &mut batch), Ok(()));
        keys[1_000] = 0;
        assert_eq!(project(&keys, 0, &mut batch), unsorted(1_000));
        assert_eq!(
            cut_spans(16, &keys, &[1_000], 7).map(|_| ()),
            unsorted(1_000)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cut at")]
    fn debug_builds_measure_a_handed_envelope_again() {
        use crate::segment::{Column, Page};
        let keys: Vec<u64> = (0..100).map(|i| i * i).collect();
        let column = Column::shared((keys.clone(), keys));
        let _ = Segment::from_cut(1.0, Page::new(&column, 0, 100), (0, 0));
    }
}
