//! Flat segment directory: the read-hot-path replacement for the
//! per-lookup B+ tree descent.
//!
//! The paper's pitch (Sections 4 and 6) is that a model-predicted
//! position plus a bounded search beats a B+ tree because it replaces
//! cache-missing pointer chases with arithmetic over dense arrays. Our
//! *in-segment* search always worked that way, but every lookup still
//! began with a pointer-based tree descent to find the covering
//! segment. [`FlatDirectory`] removes that: segment anchors live in one
//! dense, SoA pair of arrays (`anchors: Vec<K>`, `slots: Vec<u32>`),
//! immutable between structural rebuilds, and the floor segment is
//! located by an **interpolation-seeded, branchless bounded search**:
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
//! This is the first step of a lookup's miss budget (directory →
//! `slots[i]` + segment header → {key window ∥ value window}, see
//! `segment.rs`): about 1 MB per 8 M keys, so it is served from cache
//! while the pages are not.
//!
//! Since the mutation-side B+ tree was retired, this flat form is the
//! **only** segment directory: structural mutations (segment
//! split/merge/insert/remove) patch the affected window of the
//! `anchors`/`slots` arrays in place with [`FlatDirectory::splice`] —
//! O(moved segments + tail shift), one `memmove` instead of the old
//! O(S) re-mirror of a pointer-based tree — and whole-run handoffs
//! ([`FlatDirectory::split_off`]) move directory spans without touching
//! the entries inside them. `FitingTree::check_invariants` verifies the
//! directory directly against the segment run.

use crate::key::Key;

/// Anchors below this count skip interpolation seeding: the floor
/// kernel over one or two cache lines is already minimal.
const SEED_MIN_ANCHORS: usize = 64;

/// Dense, immutable-between-rebuilds segment directory (SoA layout).
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatDirectory<K> {
    /// Segment anchor keys, ascending.
    anchors: Vec<K>,
    /// Arena slot of the segment anchored at `anchors[i]`.
    slots: Vec<u32>,
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
            slots: Vec::new(),
            min_f: 0.0,
            inv_span: 0.0,
        }
    }

    /// Number of segments.
    pub(crate) fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Whether the directory is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// Rebuilds from `(anchor, slot)` entries in ascending anchor order
    /// — one dense pass, used by bulk load (where the whole run changes
    /// anyway). Incremental mutations use [`splice`](Self::splice).
    pub(crate) fn rebuild<I: IntoIterator<Item = (K, u32)>>(&mut self, entries: I) {
        self.anchors.clear();
        self.slots.clear();
        for (anchor, slot) in entries {
            self.anchors.push(anchor);
            self.slots.push(slot);
        }
        self.reseed();
    }

    /// Recomputes the interpolation-seed state from the current anchor
    /// run. O(1): only the endpoints are read. Every structural
    /// mutation funnels through here.
    fn reseed(&mut self) {
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

    /// Replaces the directory window `range` with `entries`, shifting
    /// the tail — the incremental mutation primitive. Cost is
    /// O(`entries.len()` + tail shift): one `memmove` of the dense
    /// arrays instead of the retired O(S) tree re-mirror. The resulting
    /// anchor run must remain strictly ascending (debug-asserted).
    pub(crate) fn splice(&mut self, range: std::ops::Range<usize>, entries: &[(K, u32)]) {
        self.anchors
            .splice(range.clone(), entries.iter().map(|&(a, _)| a));
        self.slots.splice(range, entries.iter().map(|&(_, s)| s));
        self.reseed();
    }

    /// Splits the directory at position `pos`: entries `[pos, len)`
    /// move into the returned directory, `[0, pos)` stay. Both sides
    /// reseed. O(moved entries) — the whole-run handoff primitive
    /// behind `FitingTree::split_off`.
    pub(crate) fn split_off(&mut self, pos: usize) -> FlatDirectory<K> {
        let anchors = self.anchors.split_off(pos);
        let slots = self.slots.split_off(pos);
        self.reseed();
        let mut upper = FlatDirectory {
            anchors,
            slots,
            min_f: 0.0,
            inv_span: 0.0,
        };
        upper.reseed();
        upper
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

    /// Arena slot of the segment responsible for `key`.
    #[inline]
    pub(crate) fn locate(&self, key: K) -> Option<usize> {
        self.floor_index(key).map(|i| self.slots[i] as usize)
    }

    /// Arena slot at directory position `i` (for ordered walks).
    #[inline]
    pub(crate) fn slot_at(&self, i: usize) -> usize {
        self.slots[i] as usize
    }

    /// Anchor key at directory position `i` — O(1), used by the tree's
    /// debug assertions so they don't reintroduce per-mutation O(S)
    /// walks in debug builds.
    #[inline]
    pub(crate) fn anchor_at(&self, i: usize) -> K {
        self.anchors[i]
    }

    /// Slot of the last (largest-anchor) segment.
    pub(crate) fn last_slot(&self) -> Option<usize> {
        self.slots.last().map(|&s| s as usize)
    }

    /// Heap bytes of the two directory arrays.
    pub(crate) fn size_bytes(&self) -> usize {
        self.anchors.len() * std::mem::size_of::<K>()
            + self.slots.len() * std::mem::size_of::<u32>()
    }

    /// Ordered `(anchor, slot)` view, for invariant checks.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        self.anchors
            .iter()
            .zip(&self.slots)
            .map(|(&a, &s)| (a, s as usize))
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
        d.rebuild(anchors.iter().enumerate().map(|(i, &a)| (a, i as u32)));
        d
    }

    #[test]
    fn empty_directory_locates_nothing() {
        let d: FlatDirectory<u64> = FlatDirectory::new();
        assert_eq!(d.locate(5), None);
        assert_eq!(d.last_slot(), None);
        assert!(d.is_empty());
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
        let mut d = FlatDirectory::new();
        d.rebuild(anchors.iter().map(|&a| (a, a as u32)));
        assert!(d.inv_span != 0.0);
        // A rebuild with a single anchor resets the seed state.
        d.rebuild([(7u64, 3u32)]);
        assert_eq!(d.inv_span, 0.0);
        assert_eq!(d.locate(100), Some(3));
        assert_eq!(d.locate(0), Some(3));
    }

    #[test]
    fn slots_follow_arena_not_position() {
        let mut d = FlatDirectory::new();
        d.rebuild([(10u64, 5u32), (20, 0), (30, 9)]);
        assert_eq!(d.locate(25), Some(0));
        assert_eq!(d.locate(9), Some(5)); // first-segment fallback
        assert_eq!(d.last_slot(), Some(9));
        assert_eq!(d.slot_at(2), 9);
        assert_eq!(
            d.entries().collect::<Vec<_>>(),
            vec![(10, 5), (20, 0), (30, 9)]
        );
    }

    #[test]
    fn splice_insert_remove_replace_match_rebuild() {
        let mut d = dir(&[10, 20, 30, 40]);
        // Insert in the middle.
        d.splice(2..2, &[(25, 7)]);
        assert_eq!(
            d.entries().collect::<Vec<_>>(),
            vec![(10, 0), (20, 1), (25, 7), (30, 2), (40, 3)]
        );
        // Replace one entry with two.
        d.splice(1..2, &[(18, 8), (22, 9)]);
        assert_eq!(
            d.entries().collect::<Vec<_>>(),
            vec![(10, 0), (18, 8), (22, 9), (25, 7), (30, 2), (40, 3)]
        );
        // Remove a window.
        d.splice(1..4, &[]);
        assert_eq!(
            d.entries().collect::<Vec<_>>(),
            vec![(10, 0), (30, 2), (40, 3)]
        );
        // Append splice.
        let n = d.len();
        d.splice(n..n, &[(50, 4)]);
        assert_eq!(d.last_slot(), Some(4));
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
            // Model: a sorted set of (anchor, slot) entries.
            let start_n = (rng() % 200) as usize;
            let mut model: Vec<(u64, u32)> = (0..start_n as u64)
                .map(|i| (i * 1_000 + 500, rng() as u32))
                .collect();
            let mut d = FlatDirectory::new();
            d.rebuild(model.iter().copied());
            for _step in 0..40 {
                let lo = if model.is_empty() {
                    0
                } else {
                    (rng() as usize) % (model.len() + 1)
                };
                let hi = (lo + (rng() as usize) % 4).min(model.len());
                // Replacement anchors strictly inside the hole's key gap.
                let gap_lo = if lo == 0 { 0 } else { model[lo - 1].0 + 1 };
                let gap_hi = if hi == model.len() {
                    gap_lo + 1_000_000
                } else {
                    model[hi].0
                };
                let room = gap_hi.saturating_sub(gap_lo);
                let count = (rng() % 4).min(room) as usize;
                let repl: Vec<(u64, u32)> = (0..count as u64)
                    .map(|i| {
                        (
                            gap_lo + i * (room / count.max(1) as u64).max(1),
                            rng() as u32,
                        )
                    })
                    .collect();
                // Skip degenerate replacements that would collide.
                if repl.windows(2).any(|w| w[0].0 >= w[1].0)
                    || repl.last().is_some_and(|&(a, _)| a >= gap_hi)
                {
                    continue;
                }
                model.splice(lo..hi, repl.iter().copied());
                d.splice(lo..hi, &repl);

                // Oracle: a from-scratch rebuild of the same entries.
                let mut oracle = FlatDirectory::new();
                oracle.rebuild(model.iter().copied());
                assert_eq!(
                    d.entries().collect::<Vec<_>>(),
                    oracle.entries().collect::<Vec<_>>(),
                    "case {case} entries diverged"
                );
                // Every floor query agrees with both the oracle and a
                // linear scan of the model.
                let mut probes: Vec<u64> = model.iter().map(|&(a, _)| a).collect();
                probes.extend(model.iter().map(|&(a, _)| a.saturating_sub(1)));
                probes.extend(model.iter().map(|&(a, _)| a + 1));
                probes.push(0);
                probes.push(u64::MAX);
                for key in probes {
                    let want = model.iter().rposition(|&(a, _)| a <= key).unwrap_or(0);
                    let want = (!model.is_empty()).then_some(want);
                    assert_eq!(d.floor_index(key), want, "case {case} key {key}");
                    assert_eq!(oracle.floor_index(key), want, "case {case} oracle {key}");
                }
            }
        }
    }

    #[test]
    fn split_off_partitions_and_reseeds() {
        let anchors: Vec<u64> = (0..300u64).map(|i| i * 17 + 3).collect();
        let mut d = dir(&anchors);
        let upper = {
            let mut d = d.clone();
            let u = d.split_off(120);
            assert_eq!(d.len(), 120);
            assert_eq!(u.len(), 180);
            // Both sides answer floor queries as if rebuilt fresh.
            for key in (0..6_000u64).step_by(7) {
                let want = anchors[..120].iter().rposition(|&a| a <= key).unwrap_or(0);
                assert_eq!(d.floor_index(key), Some(want), "lower {key}");
                let want = anchors[120..].iter().rposition(|&a| a <= key).unwrap_or(0);
                assert_eq!(u.floor_index(key), Some(want), "upper {key}");
            }
            u
        };
        // Degenerate splits.
        let all = d.split_off(0);
        assert!(d.is_empty());
        assert_eq!(all.len(), 300);
        let mut d2 = all;
        let none = d2.split_off(300);
        assert!(none.is_empty());
        assert_eq!(d2.len(), 300);
        drop(upper);
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
