//! The paper's cost model (Section 6): pick an error threshold from a
//! lookup-latency requirement or a storage budget.
//!
//! Both estimates price the structure that ships: a flat directory —
//! one anchor key and one segment pointer a segment, in two dense
//! arrays — over variable-sized
//! pages whose lookup requests its key and value windows before it
//! searches them (`segment.rs`, "Miss budget").
//! The paper's terms for a B+ tree directory (fanout, fill factor, one
//! miss a level) price a tree this crate does not build.
//!
//! * Size (Section 6.2): `size(e) = S_e · (|K| + 24 B)` — the start
//!   key (the directory anchor), the slope, the page pointer and the
//!   directory's pointer to the segment, the bytes a segment costs in
//!   `FitingTree::index_size_bytes`. At a sampled `e`,
//!   `S_e` is the built tree's segment count, so the estimate is that
//!   tree's size exactly, for every key type.
//! * Latency (Section 6.1), with `w = 2(e − e/2 + 1) + 1` the widest
//!   window a page searches:
//!   `latency(e) = s · (log2 S_e + log2 w) + c · (1 + ⌈log2(w · |K| / 1 KiB)⌉⁺)`.
//!   The directory search and the in-window search are compare steps on
//!   cache-resident lines, `s` each (`STEP_NS`). The key window and
//!   the value window arrive in one DRAM round trip `c`. A window longer
//!   than the 16-line (1 KiB) request budget is not requested, and each
//!   doubling past the budget costs one more dependent miss. The
//!   paper's buffer term is not charged: a hit on the page returns
//!   before the buffer is read, so a buffered key costs one search more
//!   than the estimate.
//!
//! `S_e`, the number of segments at error `e`, is data-dependent; the
//! paper suggests learning it per dataset. [`SegmentCountModel::learn`]
//! does exactly that: it runs the one-pass ShrinkingCone at each
//! candidate error (O(n) apiece) and interpolates between samples in
//! log-log space. A tree of total error `e` segments at `e − e/2` (the
//! buffer takes the rest), so that is where each sample is segmented.

use crate::segment::{CACHE_LINE, REQUEST_LINES};
use fiting_index_api::Key;
use fiting_plr::{Point, ShrinkingCone};

/// Learned mapping from error threshold to segment count for one dataset.
#[derive(Debug, Clone)]
pub struct SegmentCountModel {
    /// `(error, segments)` samples, sorted by error.
    samples: Vec<(u64, usize)>,
    /// `size_of` the key type the samples were learned from.
    key_bytes: usize,
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
                let points = keys
                    .iter()
                    .zip(0u64..)
                    .map(|(k, pos)| Point::new(k.to_f64(), pos));
                let closed = points.filter_map(|p| sc.push(p)).count();
                (e, closed + usize::from(sc.finish().is_some()))
            })
            .collect();
        SegmentCountModel {
            samples,
            key_bytes: std::mem::size_of::<K>(),
        }
    }

    /// Builds a model of `u64` keys from explicit `(error, segments)`
    /// samples.
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
        SegmentCountModel {
            samples,
            key_bytes: std::mem::size_of::<u64>(),
        }
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

/// One compare-and-select step of a search on cache-resident lines
/// (`s`). Set by `paper --fig fig10 --n 100000`, seeds 42–46, on a
/// 2-vCPU Xeon VM: there the whole tree is cache-resident, and the
/// measured lookup divided by the steps the model charges was
/// 4.0–9.3 ns (median 5.8). Rounding the worst up keeps the estimate a
/// bound.
const STEP_NS: f64 = 10.0;

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
    /// Estimated lookup latency (ns) at total error `error` on the
    /// dataset `model` was learned from (paper Equation 6.1.1, priced
    /// for the flat directory; see the module docs).
    #[must_use]
    pub fn lookup_latency_ns(&self, model: &SegmentCountModel, error: u64) -> f64 {
        let window = 2.0 * (error - error / 2 + 1) as f64 + 1.0;
        let steps = model.segments_at(error).max(1.0).log2() + window.log2();
        let budget = (REQUEST_LINES * CACHE_LINE) as f64;
        let doublings = (window * model.key_bytes as f64 / budget).log2().ceil();
        STEP_NS * steps + self.cache_miss_ns * (1.0 + doublings.max(0.0))
    }

    /// Estimated index size in bytes at total error `error` (paper
    /// Equation 6.2.1): `S_e` segments at the bytes each costs the tree.
    #[must_use]
    pub fn index_size_bytes(&self, model: &SegmentCountModel, error: u64) -> f64 {
        model.segments_at(error) * crate::segment_bytes(model.key_bytes) as f64
    }

    /// Smallest-index error meeting a lookup-latency requirement (paper
    /// Equation 6.1.2): among candidate errors whose estimated latency is
    /// within `latency_req_ns`, the one minimizing estimated size.
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
            .filter(|&e| self.lookup_latency_ns(model, e) <= latency_req_ns)
            .min_by(|&a, &b| {
                self.index_size_bytes(model, a)
                    .total_cmp(&self.index_size_bytes(model, b))
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
            .filter(|&e| self.index_size_bytes(model, e) <= size_budget_bytes)
            .min_by(|&a, &b| {
                self.lookup_latency_ns(model, a)
                    .total_cmp(&self.lookup_latency_ns(model, b))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curvy_keys(n: u64) -> Vec<u64> {
        (0..n).map(|k| k * k / 16).collect()
    }

    fn weblogs_100k() -> Vec<u64> {
        fiting_datasets::Dataset::Weblogs.generate(100_000, 42)
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

    /// Learns `keys` and builds the tree at every sampled error: the
    /// model prices that tree's segment count and size exactly.
    fn assert_size_estimate_is_exact<K: Key>(keys: &[K]) {
        let errors = [16, 64, 256, 1024, 4096, 16_384];
        let model = SegmentCountModel::learn(keys, &errors);
        let cm = CostModel::default();
        for e in errors {
            let pairs = keys.iter().map(|&k| (k, ()));
            let tree = crate::FitingTreeBuilder::new(e).bulk_load(pairs).unwrap();
            assert_eq!(model.segments_at(e), tree.segment_count() as f64, "e = {e}");
            let actual = tree.index_size_bytes() as f64;
            assert_eq!(cm.index_size_bytes(&model, e), actual, "e = {e}");
        }
    }

    #[test]
    fn size_estimate_is_the_built_tree_at_every_sampled_error() {
        let weblogs = weblogs_100k();
        let mut curvy = curvy_keys(50_000);
        curvy.dedup();
        for keys in [&weblogs, &curvy] {
            assert_size_estimate_is_exact(keys);
            let wide: Vec<u128> = keys.iter().map(|&k| u128::from(k) << 40).collect();
            assert_size_estimate_is_exact(&wide);
        }
    }

    /// The abstract's example requirement, 500 ns, is feasible on
    /// Weblogs at the paper's default `c`.
    #[test]
    fn a_500ns_requirement_is_feasible_on_weblogs() {
        let model = SegmentCountModel::learn(&weblogs_100k(), &[16, 64, 256, 1024, 4096]);
        let cm = CostModel::default();
        let e = cm.pick_error_for_latency(&model, 500.0).expect("feasible");
        assert!(cm.lookup_latency_ns(&model, e) <= 500.0);
    }

    /// A budget just above the real e = 64 index admits e = 64, so the
    /// pick is priced no slower than it.
    #[test]
    fn a_budget_just_above_an_index_buys_its_latency() {
        let keys = weblogs_100k();
        let model = SegmentCountModel::learn(&keys, &[16, 32, 64, 128, 256, 1024]);
        let pairs = keys.iter().map(|&k| (k, ()));
        let tree = crate::FitingTreeBuilder::new(64).bulk_load(pairs).unwrap();
        let cm = CostModel::default();
        let budget = 1.05 * tree.index_size_bytes() as f64;
        let e = cm.pick_error_for_size(&model, budget).expect("e = 64 fits");
        assert!(cm.lookup_latency_ns(&model, e) <= cm.lookup_latency_ns(&model, 64));
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
        let few = SegmentCountModel::from_samples(vec![(16, 1000), (1024, 1000)]);
        let (small_e, big_e) = (
            cm.lookup_latency_ns(&few, 16),
            cm.lookup_latency_ns(&few, 1024),
        );
        assert!(big_e > small_e);
        let many = SegmentCountModel::from_samples(vec![(16, 1_000_000)]);
        assert!(cm.lookup_latency_ns(&many, 16) > small_e);
    }

    #[test]
    fn default_estimates_are_pinned() {
        let cm = CostModel::default();
        let model = SegmentCountModel::from_samples(vec![(64, 1000), (256, 100)]);
        // 10 · (log2 1000 + log2 67) + 100: a window of 536 B is requested.
        assert_eq!(
            cm.lookup_latency_ns(&model, 64).to_bits(),
            0x4070_4519_899c_47f2 // 260.3187347511986
        );
        // 10 · (log2 100 + log2 259) + 100 · 3: 2 072 B is past 1 KiB by
        // two doublings, rounded up.
        assert_eq!(
            cm.lookup_latency_ns(&model, 256).to_bits(),
            0x407b_e9b4_d126_b405 // 446.6066447746128
        );
        // 1 000 segments of 8 + 24 B.
        assert_eq!(cm.index_size_bytes(&model, 64), 32_000.0);
    }

    #[test]
    fn size_grows_with_segments() {
        let cm = CostModel::default();
        let model = SegmentCountModel::from_samples(vec![(16, 100_000), (1024, 1)]);
        assert!(cm.index_size_bytes(&model, 1024) < cm.index_size_bytes(&model, 16));
        // One segment: its directory anchor and metadata.
        assert_eq!(cm.index_size_bytes(&model, 1024), 32.0);
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
        // Huge budget: everything fits, pick the lowest-latency error.
        let e = cm.pick_error_for_size(&model, 1e12).unwrap();
        let lat_e = cm.lookup_latency_ns(&model, e);
        for cand in model.errors() {
            assert!(lat_e <= cm.lookup_latency_ns(&model, cand) + 1e-9);
        }
        // Tiny budget: nothing fits.
        assert_eq!(cm.pick_error_for_size(&model, 10.0), None);
    }

    #[test]
    fn selectors_respect_constraints() {
        let model = SegmentCountModel::from_samples(vec![(10, 100_000), (100, 1_000), (1000, 10)]);
        let cm = CostModel::default();
        if let Some(e) = cm.pick_error_for_latency(&model, 2_000.0) {
            assert!(cm.lookup_latency_ns(&model, e) <= 2_000.0);
        }
        if let Some(e) = cm.pick_error_for_size(&model, 100_000.0) {
            assert!(cm.index_size_bytes(&model, e) <= 100_000.0);
        }
    }
}
