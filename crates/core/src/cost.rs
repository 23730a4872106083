//! The paper's cost model (Section 6): pick an error threshold from a
//! latency SLA or a storage budget.
//!
//! Both models are deliberately simple; the paper validates them as
//! upper bounds (Figure 10). The `paper` bench's Fig. 10 holds the
//! latency estimate to that at every error. For keys of at most 12 B
//! (`u64` among them) the size estimate is one too: it charges at least
//! 40 B a segment (one 16 B tree level plus 24 B of metadata), where
//! the flat directory costs `size_of::<K>()` + 4 B a segment on top of
//! the same 24 B — so at the segment count the tree really has, the
//! estimate never falls below `FitingTree::index_size_bytes`. Wider
//! keys (`u128`, `SecondaryIndex`'s 16 B `DupKey<u64>`) can exceed it
//! on a tree of few segments.
//!
//! * Latency (Section 6.1):
//!   `latency(e) = c · (log_b(S_e) + log2(e) + log2(bu))` — a cache miss
//!   per touched tree level, per binary-search step in the `±e` window,
//!   and per binary-search step in the buffer.
//! * Size (Section 6.2):
//!   `size(e) = f · S_e · log_b(S_e) · 16 B + S_e · 24 B` — the paper's
//!   tree term (8-byte keys + pointers per entry per level) plus segment
//!   metadata.
//!
//! `S_e`, the number of segments at error `e`, is data-dependent; the
//! paper suggests learning it per dataset. [`SegmentCountModel::learn`]
//! does exactly that: it runs the one-pass ShrinkingCone at each
//! candidate error (O(n) apiece) and interpolates between samples in
//! log-log space. A tree of total error `e` segments at `e − e/2` (the
//! buffer takes the rest), so that is where each sample is segmented.

use crate::key::Key;
use fiting_plr::{Point, ShrinkingCone};

/// Learned mapping from error threshold to segment count for one dataset.
#[derive(Debug, Clone)]
pub struct SegmentCountModel {
    /// `(error, segments)` samples, sorted by error.
    samples: Vec<(u64, usize)>,
}

impl SegmentCountModel {
    /// Learns the model by segmenting `keys` (sorted, duplicates allowed)
    /// for each candidate total error `e` at `e − e/2`, the segmentation
    /// error of a tree built with `FitingTreeBuilder::new(e)` (whose
    /// buffer takes `e / 2`). A sample is keyed by `e`, so
    /// [`segments_at`](Self::segments_at)`(e)` is that tree's segment
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `errors` is empty or `keys` is empty.
    #[must_use]
    pub fn learn<K: Key>(keys: &[K], errors: &[u64]) -> Self {
        assert!(!errors.is_empty(), "need at least one candidate error");
        assert!(!keys.is_empty(), "cannot learn from an empty dataset");
        let mut sorted_errors: Vec<u64> = errors.to_vec();
        sorted_errors.sort_unstable();
        sorted_errors.dedup();
        let samples = sorted_errors
            .into_iter()
            .map(|e| {
                let mut sc = ShrinkingCone::new(e - e / 2);
                let mut count = 0usize;
                for (pos, k) in keys.iter().enumerate() {
                    if sc.push(Point::new(k.to_f64(), pos as u64)).is_some() {
                        count += 1;
                    }
                }
                if sc.finish().is_some() {
                    count += 1;
                }
                (e, count)
            })
            .collect();
        SegmentCountModel { samples }
    }

    /// Builds a model from explicit `(error, segments)` samples (e.g.
    /// replayed from a previous run).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn from_samples(mut samples: Vec<(u64, usize)>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_unstable_by_key(|&(e, _)| e);
        samples.dedup_by_key(|&mut (e, _)| e);
        SegmentCountModel { samples }
    }

    /// The candidate errors the model was learned at.
    #[must_use]
    pub fn errors(&self) -> Vec<u64> {
        self.samples.iter().map(|&(e, _)| e).collect()
    }

    /// Estimated segment count at total error `error`, interpolating
    /// between samples in log-log space and clamping outside the
    /// sampled range.
    #[must_use]
    pub fn segments_at(&self, error: u64) -> f64 {
        let e = error.max(1) as f64;
        match self
            .samples
            .binary_search_by(|&(se, _)| se.max(1).cmp(&error.max(1)))
        {
            Ok(i) => self.samples[i].1 as f64,
            Err(0) => self.samples[0].1 as f64,
            Err(i) if i == self.samples.len() => self.samples[i - 1].1 as f64,
            Err(i) => {
                let (e0, s0) = self.samples[i - 1];
                let (e1, s1) = self.samples[i];
                let (x0, x1) = ((e0.max(1) as f64).ln(), (e1.max(1) as f64).ln());
                let (y0, y1) = ((s0.max(1) as f64).ln(), (s1.max(1) as f64).ln());
                let t = (e.ln() - x0) / (x1 - x0);
                (y0 + t * (y1 - y0)).exp()
            }
        }
    }
}

/// Directory tree fanout `b` of the Section 6 formulas.
const FANOUT: f64 = 16.0;

/// Tree fill factor `f` in the size model.
const FILL_FACTOR: f64 = 1.0;

/// The hardware constant of the Section 6 formulas.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of one random memory access in nanoseconds (the paper's `c`;
    /// it measures ≈50 ns on its testbed and notes 100 ns as a
    /// conservative default).
    pub cache_miss_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cache_miss_ns: 100.0,
        }
    }
}

impl CostModel {
    /// Estimated lookup latency (ns) at error `e` with the given buffer
    /// capacity and segment count (paper Equation 6.1.1).
    #[must_use]
    pub fn lookup_latency_ns(&self, error: u64, buffer_size: u64, segments: f64) -> f64 {
        let tree = segments.max(2.0).ln() / FANOUT.ln();
        let window = (error.max(2) as f64).log2();
        let buffer = (buffer_size.max(2) as f64).log2();
        self.cache_miss_ns * (tree.max(1.0) + window + buffer)
    }

    /// Estimated index size in bytes at a given segment count (paper
    /// Equation 6.2.1): tree term + 24 B segment metadata.
    #[must_use]
    pub fn index_size_bytes(&self, segments: f64) -> f64 {
        let s = segments.max(1.0);
        let levels = (s.ln() / FANOUT.ln()).max(1.0);
        FILL_FACTOR * s * levels * 16.0 + s * 24.0
    }

    /// Smallest-index error meeting a lookup-latency requirement (paper
    /// Equation 6.1.2): among candidate errors whose estimated latency is
    /// within `latency_req_ns`, the one minimizing estimated size.
    /// Buffers follow the paper's `e / 2` convention.
    ///
    /// Returns `None` if no candidate meets the requirement.
    #[must_use]
    pub fn pick_error_for_latency(
        &self,
        model: &SegmentCountModel,
        latency_req_ns: f64,
    ) -> Option<u64> {
        model
            .errors()
            .into_iter()
            .filter(|&e| self.lookup_latency_ns(e, e / 2, model.segments_at(e)) <= latency_req_ns)
            .min_by(|&a, &b| {
                let sa = self.index_size_bytes(model.segments_at(a));
                let sb = self.index_size_bytes(model.segments_at(b));
                sa.total_cmp(&sb)
            })
    }

    /// Fastest error fitting a storage budget (paper Equation 6.2.2):
    /// among candidate errors whose estimated size is within
    /// `size_budget_bytes`, the one minimizing estimated latency.
    ///
    /// Returns `None` if no candidate fits.
    #[must_use]
    pub fn pick_error_for_size(
        &self,
        model: &SegmentCountModel,
        size_budget_bytes: f64,
    ) -> Option<u64> {
        model
            .errors()
            .into_iter()
            .filter(|&e| self.index_size_bytes(model.segments_at(e)) <= size_budget_bytes)
            .min_by(|&a, &b| {
                let la = self.lookup_latency_ns(a, a / 2, model.segments_at(a));
                let lb = self.lookup_latency_ns(b, b / 2, model.segments_at(b));
                la.total_cmp(&lb)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curvy_keys(n: u64) -> Vec<u64> {
        (0..n).map(|k| k * k / 16).collect()
    }

    #[test]
    fn learned_model_is_monotone_decreasing() {
        let mut keys = curvy_keys(50_000);
        keys.dedup();
        let model = SegmentCountModel::learn(&keys, &[8, 32, 128, 512, 2048]);
        let s: Vec<f64> = model
            .errors()
            .iter()
            .map(|&e| model.segments_at(e))
            .collect();
        for w in s.windows(2) {
            assert!(w[1] <= w[0], "segment count increased with error: {s:?}");
        }
    }

    /// At a sampled error the model prices the tree that error builds:
    /// its segment count exactly, and a size no smaller than the tree's.
    #[test]
    fn size_estimate_bounds_the_built_tree_at_every_sampled_error() {
        let weblogs = fiting_datasets::Dataset::Weblogs.generate(100_000, 42);
        let mut curvy = curvy_keys(50_000);
        curvy.dedup();
        let errors = [16, 64, 256, 1024, 4096, 16_384];
        let cm = CostModel::default();
        for keys in [weblogs, curvy] {
            let model = SegmentCountModel::learn(&keys, &errors);
            for e in errors {
                let pairs = keys.iter().map(|&k| (k, ()));
                let tree = crate::FitingTreeBuilder::new(e).bulk_load(pairs).unwrap();
                let segments = model.segments_at(e);
                assert_eq!(segments, tree.segment_count() as f64, "e = {e}");
                let (estimate, actual) = (cm.index_size_bytes(segments), tree.index_size_bytes());
                assert!(estimate >= actual as f64, "e = {e}: {estimate} < {actual}");
            }
        }
    }

    #[test]
    fn interpolation_between_samples() {
        let model = SegmentCountModel::from_samples(vec![(10, 1000), (1000, 10)]);
        let mid = model.segments_at(100);
        assert!(mid < 1000.0 && mid > 10.0);
        // Log-log midpoint of (10,1000)-(1000,10) is (100,100).
        assert!((mid - 100.0).abs() < 1.0, "mid {mid}");
        // Clamped outside the sampled range.
        assert_eq!(model.segments_at(1), 1000.0);
        assert_eq!(model.segments_at(100_000), 10.0);
    }

    #[test]
    fn latency_grows_with_error_and_shrinks_with_fewer_segments() {
        let cm = CostModel::default();
        let small_e = cm.lookup_latency_ns(16, 8, 1000.0);
        let big_e = cm.lookup_latency_ns(1024, 512, 1000.0);
        assert!(big_e > small_e);
        let many_segs = cm.lookup_latency_ns(16, 8, 1_000_000.0);
        assert!(many_segs > small_e);
    }

    #[test]
    fn default_estimates_are_pinned() {
        let cm = CostModel::default();
        assert_eq!(
            cm.lookup_latency_ns(64, 32, 1000.0).to_bits(),
            0x4095_1494_13e3_5171 // 1349.1446071165522
        );
        assert_eq!(
            cm.index_size_bytes(1000.0).to_bits(),
            0x40ef_2ee4_6370_9736 // 63863.13713864835
        );
    }

    #[test]
    fn size_grows_with_segments() {
        let cm = CostModel::default();
        assert!(cm.index_size_bytes(1_000.0) < cm.index_size_bytes(100_000.0));
        // One segment: metadata + one tree level.
        assert!(cm.index_size_bytes(1.0) >= 24.0);
    }

    #[test]
    fn latency_selector_picks_smallest_feasible_index() {
        let mut keys = curvy_keys(50_000);
        keys.dedup();
        let model = SegmentCountModel::learn(&keys, &[8, 32, 128, 512, 2048]);
        let cm = CostModel::default();
        // Generous SLA: every error qualifies, so the selector picks the
        // smallest index = largest error.
        let e = cm.pick_error_for_latency(&model, 1e9).unwrap();
        assert_eq!(e, 2048);
        // Impossible SLA.
        assert_eq!(cm.pick_error_for_latency(&model, 1.0), None);
    }

    #[test]
    fn size_selector_picks_fastest_fitting_index() {
        let mut keys = curvy_keys(50_000);
        keys.dedup();
        let model = SegmentCountModel::learn(&keys, &[8, 32, 128, 512, 2048]);
        let cm = CostModel::default();
        // Huge budget: everything fits, pick the lowest-latency = smallest
        // error (fewer window probes beat fewer tree levels here).
        let e = cm.pick_error_for_size(&model, 1e12).unwrap();
        let lat_e = cm.lookup_latency_ns(e, e / 2, model.segments_at(e));
        for cand in model.errors() {
            let lat_c = cm.lookup_latency_ns(cand, cand / 2, model.segments_at(cand));
            assert!(lat_e <= lat_c + 1e-9);
        }
        // Tiny budget: nothing fits.
        assert_eq!(cm.pick_error_for_size(&model, 10.0), None);
    }

    #[test]
    fn selectors_respect_constraints() {
        let model = SegmentCountModel::from_samples(vec![(10, 100_000), (100, 1_000), (1000, 10)]);
        let cm = CostModel::default();
        if let Some(e) = cm.pick_error_for_latency(&model, 2_000.0) {
            assert!(cm.lookup_latency_ns(e, e / 2, model.segments_at(e)) <= 2_000.0);
        }
        if let Some(e) = cm.pick_error_for_size(&model, 100_000.0) {
            assert!(cm.index_size_bytes(model.segments_at(e)) <= 100_000.0);
        }
    }
}
