//! The cut: where ShrinkingCone (paper Section 3, Algorithm 2) ends
//! each page of a sorted run, with each page's measured error envelope.
//!
//! One chunk pass does the work for every caller. A fresh cone runs over
//! a stretch of slots. Each key is checked to sort above the one before
//! it before the cone sees it, and each page's envelope is measured as
//! the cone closes the page, while its keys are still in cache.
//!
//! * Re-segmentation and the `split_off` boundary run one pass per
//!   stretch, on the calling thread, and keep the cut between stretches
//!   ([`cut_pieces`]).
//! * Bulk load runs one pass per core ([`cut`]) and stitches the chunks
//!   back into the sequential cut. The cone carried out of chunk *i*
//!   runs on into chunk *i + 1* until it closes a page at a slot where
//!   chunk *i + 1*'s own cone opened one too. A cone is determined by
//!   its page's first key and slot, so from that slot on the two cuts
//!   agree, and chunk *i + 1*'s pages and open cone are adopted as they
//!   are. The result is the sequential cut, page for page: the same
//!   starts, slopes and envelopes. A run that never resyncs (perfectly
//!   linear keys, one page over everything) is cut again on the calling
//!   thread, which costs about one sequential pass.

use crate::segment::measure_envelope;
use fiting_index_api::Key;
use fiting_plr::{Point, ShrinkingCone};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// The fewest keys a chunk pass gets a thread for. At ≈ 12 ns of cone
/// work a key this is ≈ 0.8 ms of work. On a 2-vCPU KVM guest a scoped
/// thread takes ≈ 47 µs to spawn and join, and asking for the core
/// count takes ≈ 170 µs.
pub(crate) const MIN_KEYS_PER_THREAD: usize = 65_536;

/// One page of a cut: the slots it spans, its slope, and its measured
/// envelope `(under, over)`.
#[derive(Debug)]
pub(crate) struct PageCut {
    pub(crate) slots: Range<usize>,
    pub(crate) slope: f64,
    pub(crate) envelope: (u32, u32),
}

impl PageCut {
    /// The page `keys[slots]` under `slope`, its envelope measured.
    fn measure<K: Key>(keys: &[K], slots: Range<usize>, slope: f64) -> Self {
        let page = &keys[slots.clone()];
        let envelope = measure_envelope(page, page[0].to_f64(), slope);
        PageCut {
            slots,
            slope,
            envelope,
        }
    }
}

/// How many chunks [`cut`] splits a run of `len` keys into: one per
/// available core, each at least [`MIN_KEYS_PER_THREAD`] keys. A run
/// shorter than two such chunks stays on the calling thread without
/// asking for the core count, which reads cgroup files.
pub(crate) fn chunks_for(len: usize) -> usize {
    if len < 2 * MIN_KEYS_PER_THREAD {
        return 1;
    }
    thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(len / MIN_KEYS_PER_THREAD)
}

/// Stretch `i` of `n` stretches of equal length (to within one slot)
/// over `len` slots.
fn stretch(len: usize, n: usize, i: usize) -> Range<usize> {
    i * len / n..(i + 1) * len / n
}

/// The sequential ShrinkingCone cut of `keys` under `seg_error`,
/// computed as `chunks` chunk passes, each on a thread of its own (the
/// first on the calling thread), stitched together.
///
/// # Errors
///
/// The first slot whose key does not sort strictly above the one
/// before it.
pub(crate) fn cut<K: Key>(
    seg_error: u64,
    keys: &[K],
    chunks: usize,
) -> Result<Vec<PageCut>, usize> {
    let mut passes = chunk_passes(seg_error, keys, chunks).into_iter();
    let mut whole = passes.next().expect("at least one chunk")?;
    for (i, pass) in passes.enumerate() {
        whole.stitch(pass?, keys, stretch(keys.len(), chunks, i + 1));
    }
    Ok(whole.close(keys, keys.len()))
}

/// `keys` cut in `pieces` stretches of equal length (to within one
/// slot), each through a cone of its own, which may cut it further. On
/// the calling thread.
///
/// # Errors
///
/// As [`cut`]'s.
pub(crate) fn cut_pieces<K: Key>(
    seg_error: u64,
    keys: &[K],
    pieces: usize,
) -> Result<Vec<PageCut>, usize> {
    let mut pages = Vec::new();
    for piece in 0..pieces {
        let slots = stretch(keys.len(), pieces, piece);
        let end = slots.end;
        pages.extend(Pass::run(seg_error, keys, slots)?.close(keys, end));
    }
    Ok(pages)
}

/// One pass per chunk, in chunk order. A helper that cannot be spawned
/// leaves its chunk to the calling thread.
fn chunk_passes<K: Key>(seg_error: u64, keys: &[K], chunks: usize) -> Vec<Result<Pass, usize>> {
    let run = |chunk| Pass::run(seg_error, keys, stretch(keys.len(), chunks, chunk));
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..chunks)
            .map(|chunk| {
                thread::Builder::new()
                    .spawn_scoped(scope, move || run(chunk))
                    .map_err(|_| chunk)
            })
            .collect();
        let first = run(0);
        let rest = helpers.into_iter().map(|helper| match helper {
            Ok(handle) => handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(chunk) => run(chunk),
        });
        std::iter::once(first).chain(rest).collect()
    })
}

/// A cone's cut of a stretch of slots so far.
struct Pass {
    /// The pages the cone closed, in slot order.
    pages: Vec<PageCut>,
    /// The cone over the page still open.
    cone: ShrinkingCone,
    /// That page's first slot.
    open: usize,
}

impl Pass {
    /// A fresh cone fed `keys[slots]` in order, each key checked against
    /// the one before it (the one before `slots` included).
    fn run<K: Key>(seg_error: u64, keys: &[K], slots: Range<usize>) -> Result<Self, usize> {
        let mut pass = Pass {
            pages: Vec::new(),
            cone: ShrinkingCone::new(seg_error),
            open: slots.start,
        };
        for slot in slots {
            if slot > 0 && keys[slot - 1] >= keys[slot] {
                return Err(slot);
            }
            pass.push(keys, slot);
        }
        Ok(pass)
    }

    /// Feeds the key at `slot`. Returns whether the cone closed a page,
    /// opening the next one at `slot`.
    fn push<K: Key>(&mut self, keys: &[K], slot: usize) -> bool {
        let Some(done) = self.cone.push(Point::new(keys[slot].to_f64(), slot as u64)) else {
            return false;
        };
        debug_assert_eq!(done.start_pos as usize, self.open);
        self.pages
            .push(PageCut::measure(keys, self.open..slot, done.slope));
        self.open = slot;
        true
    }

    /// Carries this pass's cone — the true one up to `slots`, `next`'s
    /// stretch — on through `slots` until it closes a page at a slot
    /// where `next` opened one too; from there `next`'s pages and cone
    /// are adopted. The keys of `slots` were checked by `next`.
    fn stitch<K: Key>(&mut self, mut next: Pass, keys: &[K], slots: Range<usize>) {
        // `next`'s first page not below the slot fed last.
        let mut page = 0;
        for slot in slots {
            if !self.push(keys, slot) {
                continue;
            }
            while next.pages.get(page).is_some_and(|p| p.slots.start < slot) {
                page += 1;
            }
            if next.pages.get(page).map_or(next.open, |p| p.slots.start) == slot {
                self.pages.extend(next.pages.drain(page..));
                self.cone = next.cone;
                self.open = next.open;
                return;
            }
        }
    }

    /// The pages cut, the open one ending before slot `end`.
    fn close<K: Key>(self, keys: &[K], end: usize) -> Vec<PageCut> {
        let Pass {
            mut pages,
            cone,
            open,
        } = self;
        if let Some(done) = cone.finish() {
            debug_assert_eq!(done.start_pos as usize, open);
            pages.push(PageCut::measure(keys, open..end, done.slope));
        }
        pages
    }
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
    /// the whole run, each page measured by `Segment::from_page`.
    fn oracle(keys: &[u64], seg_error: u64) -> Vec<Model> {
        let projected: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        ShrinkingCone::segment(&points_from_sorted_keys(&projected), seg_error)
            .into_iter()
            .map(|s| {
                let slots = s.start_pos as usize..s.end_pos as usize + 1;
                let page = keys[slots.clone()].to_vec();
                let envelope =
                    Segment::from_run(page[0], s.slope, page.clone(), page).error_envelope();
                (slots, s.slope.to_bits(), envelope)
            })
            .collect()
    }

    fn assert_sequential(keys: &[u64], seg_error: u64, label: &str) {
        let want = oracle(keys, seg_error);
        for chunks in [1, 2, 3, 7] {
            let got = models(&cut(seg_error, keys, chunks).unwrap());
            assert!(got == want, "{label}, e={seg_error}, {chunks} chunks");
        }
    }

    #[test]
    fn every_chunk_count_cuts_the_sequential_pages() {
        for dataset in Dataset::headline() {
            let mut keys = dataset.generate(600_000, 42);
            make_strictly_increasing(&mut keys);
            for seg_error in [4, 64, 4096] {
                assert_sequential(&keys, seg_error, dataset.name());
            }
        }
    }

    #[test]
    fn a_run_that_never_resyncs_is_cut_again_on_the_calling_thread() {
        // Linear keys are one page: no chunk after the first ever opens
        // a page where the true cone does.
        let keys: Vec<u64> = (0..100_000).map(|i| i * 3).collect();
        assert_eq!(oracle(&keys, 8).len(), 1);
        assert_sequential(&keys, 8, "linear");
        // Linear, then a jump: the stitch carries the cone through
        // every chunk and closes the one page at the jump.
        let mut keys = keys;
        keys.extend((0..1_000).map(|i| 1 << 40 | i));
        assert_eq!(oracle(&keys, 8).len(), 2);
        assert_sequential(&keys, 8, "linear then a jump");
    }

    #[test]
    fn chunks_smaller_than_a_page_and_runs_shorter_than_the_chunks() {
        let curvy: Vec<u64> = (0..2_000u64).map(|i| i * 50 + i * i / 7).collect();
        // Above 2^53 neighbours project to one `f64`: vertical runs of
        // 256 keys, as a secondary index's duplicates make.
        let collided: Vec<u64> = (0..3_000u64).map(|i| (1 << 60) + i).collect();
        for seg_error in [0, 1, 64] {
            assert_sequential(&curvy, seg_error, "curvy");
            assert_sequential(&collided, seg_error, "collided");
            for len in 0..=8 {
                assert_sequential(&curvy[..len], seg_error, "short");
            }
        }
    }

    #[test]
    fn unsorted_input_names_the_first_slot_out_of_order() {
        let sorted: Vec<u64> = (0..3_000u64).map(|i| i * 10 + i % 7).collect();
        let boundary = stretch(sorted.len(), 3, 2).start;
        // Inside the last chunk, alone and behind a later one.
        let mut keys = sorted.clone();
        keys[2_500] = keys[2_499];
        keys[2_900] = 0;
        assert_eq!(cut(16, &keys, 3).unwrap_err(), 2_500);
        // Exactly on a chunk boundary: its first key against the last
        // key of the chunk before.
        let mut keys = sorted;
        keys[boundary] = keys[boundary - 1] - 1;
        assert_eq!(cut(16, &keys, 3).unwrap_err(), boundary);
        // Two chunks out of order: the earlier one is reported.
        keys[1_500] = 0;
        assert_eq!(cut(16, &keys, 3).unwrap_err(), 1_500);
        assert_eq!(cut(16, &keys, 1).unwrap_err(), 1_500);
        assert_eq!(cut_pieces(16, &keys, 3).unwrap_err(), 1_500);
    }

    #[test]
    fn pieces_end_a_page_at_every_stretch() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let pages = cut_pieces(8, &keys, 4).unwrap();
        let starts: Vec<usize> = pages.iter().map(|p| p.slots.start).collect();
        assert_eq!(starts, [0, 2_500, 5_000, 7_500]);
        assert_eq!(pages[3].slots.end, 10_000);
    }

    #[test]
    fn short_runs_stay_on_the_calling_thread() {
        assert_eq!(chunks_for(0), 1);
        assert_eq!(chunks_for(2 * MIN_KEYS_PER_THREAD - 1), 1);
        let chunks = chunks_for(3 * MIN_KEYS_PER_THREAD);
        assert!((1..=3).contains(&chunks), "{chunks}");
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
