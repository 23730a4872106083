//! Flat segment directory: the read-hot-path replacement for the
//! per-lookup B+ tree descent.
//!
//! The paper's pitch (Sections 4 and 6) is that a model-predicted
//! position plus a bounded search beats a B+ tree because it replaces
//! cache-missing pointer chases with arithmetic over dense arrays. Our
//! *in-segment* search always worked that way, but every lookup still
//! began with a pointer-based tree descent to find the covering
//! segment. [`FlatDirectory`] removes that: segment anchors live in one
//! dense array (`anchors: Vec<K>`), and the floor segment is located by
//! an **interpolation-seeded, branchless bounded search**:
//!
//! 1. interpolate a guess position from the anchor-key span (the same
//!    trick the segments use internally),
//! 2. gallop outward from the guess to a bracket that must contain the
//!    floor anchor,
//! 3. finish with [`branchless_floor`] inside the bracket — the one
//!    floor kernel, whose step is `std::hint::select_unpredictable`
//!    (a conditional move in the compiled loop, no data-dependent
//!    branch).
//!
//! The position found indexes the tree's segments directly: they are
//! kept in directory order, `segments[i]` anchored at `anchors[i]`,
//! each behind a pointer so that a splice shifts 8 B a segment. This is
//! the first step of a lookup's miss budget (directory →
//! `segments[i]` + segment header → {key window ∥ value window}, see
//! `segment.rs`): about 1 MB per 8 M keys, so it is served from cache
//! while the pages are not.
//!
//! Structural mutations (segment split/merge/insert/remove, whole-run
//! handoffs) patch the affected window of `anchors` and of the segments
//! together, through the tree's one splice — O(moved segments + tail
//! shift), one `memmove` each. `FitingTree::check_invariants` verifies
//! the directory directly against the segment run.

use fiting_index_api::Key;

/// Anchors below this count skip interpolation seeding: the floor
/// kernel over one or two cache lines is already minimal.
const SEED_MIN_ANCHORS: usize = 64;

/// Dense segment directory: the anchors, and the seed state of the
/// search over them.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatDirectory<K> {
    /// Segment anchor keys, ascending.
    anchors: Vec<K>,
    /// Projection of `anchors[0]`, cached for the interpolation seed.
    min_f: f64,
    /// `(len − 1) / (max_f − min_f)`; `0.0` disables seeding (too few
    /// anchors, or a projection span that is zero/non-finite).
    inv_span: f64,
}

impl<K: Key> FlatDirectory<K> {
    /// An empty directory.
    pub(crate) fn new() -> Self {
        FlatDirectory {
            anchors: Vec::new(),
            min_f: 0.0,
            inv_span: 0.0,
        }
    }

    /// Number of segments.
    pub(crate) fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Replaces the window `range` with `anchors`, shifting the tail —
    /// O(`anchors` + tail shift), one `memmove`. The resulting run must
    /// remain strictly ascending (debug-asserted). The seed state is
    /// recomputed from the endpoints, O(1).
    pub(crate) fn splice(
        &mut self,
        range: std::ops::Range<usize>,
        anchors: impl IntoIterator<Item = K>,
    ) {
        self.anchors.splice(range, anchors);
        debug_assert!(self.anchors.windows(2).all(|w| w[0] < w[1]));
        let n = self.anchors.len();
        self.min_f = 0.0;
        self.inv_span = 0.0;
        if n >= SEED_MIN_ANCHORS {
            let min_f = self.anchors[0].to_f64();
            let span = self.anchors[n - 1].to_f64() - min_f;
            if span.is_finite() && span > 0.0 {
                self.min_f = min_f;
                self.inv_span = (n - 1) as f64 / span;
            }
        }
    }

    /// Directory position of the segment responsible for `key`: the
    /// floor anchor, falling back to position 0 for keys below every
    /// anchor (the first segment may hold buffered keys below its
    /// anchor). `None` only when the directory is empty.
    #[inline]
    pub(crate) fn floor_index(&self, key: K) -> Option<usize> {
        let n = self.anchors.len();
        if n == 0 {
            return None;
        }
        let (base, size) = self.bracket(key, n);
        Some(base + branchless_floor(&self.anchors[base..base + size], &key))
    }

    /// Anchor key at directory position `i`.
    #[inline]
    pub(crate) fn anchor_at(&self, i: usize) -> K {
        self.anchors[i]
    }

    /// Heap bytes of the anchor array.
    pub(crate) fn size_bytes(&self) -> usize {
        self.anchors.len() * std::mem::size_of::<K>()
    }

    /// Interpolation-seeded bracket `[base, base + size)` guaranteed to
    /// contain the floor position (or position 0 when every anchor
    /// exceeds `key`).
    #[inline]
    fn bracket(&self, key: K, n: usize) -> (usize, usize) {
        if self.inv_span == 0.0 {
            return (0, n);
        }
        let kf = key.to_f64();
        // Keys are NaN-free by the Key contract; clamp handles both
        // out-of-span keys and f64 rounding.
        let guess = ((kf - self.min_f) * self.inv_span)
            .max(0.0)
            .min((n - 1) as f64) as usize;
        if self.anchors[guess] <= key {
            // Exact-guess fast path: on near-affine anchor sets the
            // interpolated position usually *is* the floor — confirm
            // with one neighbor compare and skip the gallop entirely.
            if guess + 1 >= n || self.anchors[guess + 1] > key {
                return (guess, 1);
            }
            // Floor is at or right of the guess: gallop right.
            let mut lo = guess;
            let mut step = 8usize;
            loop {
                let probe = lo + step;
                if probe >= n {
                    return (lo, n - lo);
                }
                if self.anchors[probe] > key {
                    return (lo, probe - lo);
                }
                lo = probe;
                step <<= 1;
            }
        } else {
            // Floor is strictly left of the guess: gallop left.
            let mut hi = guess; // anchors[hi] > key
            let mut step = 8usize;
            loop {
                let probe = hi.saturating_sub(step);
                if self.anchors[probe] <= key {
                    return (probe, hi - probe);
                }
                if probe == 0 {
                    // Every anchor exceeds the key: first-segment
                    // fallback.
                    return (0, 1);
                }
                hi = probe;
                step <<= 1;
            }
        }
    }
}

/// Largest index in `run` whose element is `<= key`, or 0 when every
/// element exceeds `key` — the directory's floor kernel.
///
/// The step is a data-dependent select, not a branch: an `if`/`else`
/// here compiles to compare-and-jump on the pinned toolchain, and on
/// uniform keys that jump mispredicts every other probe.
/// `select_unpredictable` asks for the conditional move by name
/// (`fiting-check`'s `branchless-claim` rule keeps name and body
/// together).
#[inline]
pub(crate) fn branchless_floor<T: Ord>(run: &[T], key: &T) -> usize {
    debug_assert!(!run.is_empty());
    let mut base = 0usize;
    let mut size = run.len();
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = std::hint::select_unpredictable(run[mid] <= *key, mid, base);
        size -= half;
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(anchors: &[u64]) -> FlatDirectory<u64> {
        let mut d = FlatDirectory::new();
        d.splice(0..0, anchors.iter().copied());
        d
    }

    #[test]
    fn empty_directory_locates_nothing() {
        let d: FlatDirectory<u64> = FlatDirectory::new();
        assert_eq!(d.floor_index(5), None);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn floor_matches_scan_small() {
        // Below SEED_MIN_ANCHORS: unseeded branchless path.
        let anchors = [10u64, 20, 30, 40];
        let d = dir(&anchors);
        for key in 0..60u64 {
            let want = anchors.iter().rposition(|&a| a <= key).unwrap_or(0);
            assert_eq!(d.floor_index(key), Some(want), "key {key}");
        }
    }

    #[test]
    fn floor_matches_scan_seeded_uniform_and_skewed() {
        for anchors in [
            (0..500u64).map(|i| i * 97 + 13).collect::<Vec<_>>(),
            (0..500u64).map(|i| i * i * i).collect::<Vec<_>>(),
        ] {
            let d = dir(&anchors);
            let mut probes: Vec<u64> = anchors.clone();
            probes.extend(anchors.iter().map(|a| a.saturating_sub(1)));
            probes.extend(anchors.iter().map(|a| a + 1));
            probes.push(0);
            probes.push(u64::MAX);
            for key in probes {
                let want = anchors.iter().rposition(|&a| a <= key).unwrap_or(0);
                assert_eq!(d.floor_index(key), Some(want), "key {key}");
            }
        }
    }

    #[test]
    fn seeding_disabled_on_flat_projection_span() {
        // Identical projections (span 0) must fall back to the unseeded
        // bracket instead of dividing by zero.
        let anchors: Vec<u64> = (0..100).collect();
        let mut d = dir(&anchors);
        assert!(d.inv_span != 0.0);
        // A splice down to a single anchor resets the seed state.
        d.splice(0..100, [7u64]);
        assert_eq!(d.inv_span, 0.0);
        assert_eq!(d.floor_index(100), Some(0));
        assert_eq!(d.floor_index(0), Some(0)); // first-segment fallback
    }

    #[test]
    fn splice_insert_remove_replace_match_rebuild() {
        let mut d = dir(&[10, 20, 30, 40]);
        // Insert in the middle.
        d.splice(2..2, [25]);
        assert_eq!(d.anchors, [10, 20, 25, 30, 40]);
        // Replace one entry with two.
        d.splice(1..2, [18, 22]);
        assert_eq!(d.anchors, [10, 18, 22, 25, 30, 40]);
        // Remove a window.
        d.splice(1..4, []);
        assert_eq!(d.anchors, [10, 30, 40]);
        // Append splice.
        let n = d.len();
        d.splice(n..n, [50]);
        assert_eq!(d.anchor_at(3), 50);
        for key in [0u64, 10, 29, 30, 45, 50, 99] {
            let want = [10u64, 30, 40, 50]
                .iter()
                .rposition(|&a| a <= key)
                .unwrap_or(0);
            assert_eq!(d.floor_index(key), Some(want), "key {key}");
        }
    }

    /// Proptest-style battery: random splice sequences against a
    /// from-scratch rebuild oracle, across sizes that cross the
    /// interpolation-seeding threshold in both directions.
    #[test]
    fn random_splice_sequences_match_rebuild_oracle() {
        let mut state = 0x1357_9bdf_2468_acecu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..60u64 {
            // Model: a sorted set of anchors.
            let start_n = (rng() % 200) as usize;
            let mut model: Vec<u64> = (0..start_n as u64).map(|i| i * 1_000 + 500).collect();
            let mut d = dir(&model);
            for _step in 0..40 {
                let lo = if model.is_empty() {
                    0
                } else {
                    (rng() as usize) % (model.len() + 1)
                };
                let hi = (lo + (rng() as usize) % 4).min(model.len());
                // Replacement anchors strictly inside the hole's key gap.
                let gap_lo = if lo == 0 { 0 } else { model[lo - 1] + 1 };
                let gap_hi = if hi == model.len() {
                    gap_lo + 1_000_000
                } else {
                    model[hi]
                };
                let room = gap_hi.saturating_sub(gap_lo);
                let count = (rng() % 4).min(room) as usize;
                let repl: Vec<u64> = (0..count as u64)
                    .map(|i| gap_lo + i * (room / count.max(1) as u64).max(1))
                    .collect();
                // Skip degenerate replacements that would collide.
                if repl.windows(2).any(|w| w[0] >= w[1])
                    || repl.last().is_some_and(|&a| a >= gap_hi)
                {
                    continue;
                }
                model.splice(lo..hi, repl.iter().copied());
                d.splice(lo..hi, repl);

                // Oracle: a from-scratch build of the same anchors.
                let oracle = dir(&model);
                assert_eq!(d.anchors, oracle.anchors, "case {case} anchors diverged");
                assert_eq!(
                    (d.min_f.to_bits(), d.inv_span.to_bits()),
                    (oracle.min_f.to_bits(), oracle.inv_span.to_bits()),
                    "case {case} seed diverged"
                );
                // Every floor query agrees with a linear scan of the model.
                let mut probes: Vec<u64> = model.clone();
                probes.extend(model.iter().map(|a| a.saturating_sub(1)));
                probes.extend(model.iter().map(|a| a + 1));
                probes.push(0);
                probes.push(u64::MAX);
                for key in probes {
                    let want = model.iter().rposition(|&a| a <= key).unwrap_or(0);
                    let want = (!model.is_empty()).then_some(want);
                    assert_eq!(d.floor_index(key), want, "case {case} key {key}");
                }
            }
        }
    }

    #[test]
    fn cutting_off_a_tail_reseeds() {
        let anchors: Vec<u64> = (0..300u64).map(|i| i * 17 + 3).collect();
        let mut d = dir(&anchors);
        d.splice(120..300, []);
        assert_eq!(d.len(), 120);
        // Answers floor queries as if built fresh from what is left.
        for key in (0..6_000u64).step_by(7) {
            let want = anchors[..120].iter().rposition(|&a| a <= key).unwrap_or(0);
            assert_eq!(d.floor_index(key), Some(want), "key {key}");
        }
        assert_eq!(
            d.inv_span.to_bits(),
            dir(&anchors[..120]).inv_span.to_bits()
        );
        // Degenerate cuts.
        d.splice(120..120, []);
        assert_eq!(d.len(), 120);
        d.splice(0..120, []);
        assert_eq!(d.len(), 0);
        assert_eq!(d.floor_index(0), None);
    }

    #[test]
    fn branchless_floor_agrees_with_rposition() {
        let run: Vec<u64> = (0..97).map(|i| i * 3).collect();
        for key in 0..300u64 {
            let want = run.iter().rposition(|&a| a <= key).unwrap_or(0);
            assert_eq!(branchless_floor(&run, &key), want, "key {key}");
        }
        assert_eq!(branchless_floor(&[42u64], &0), 0);
    }
}
