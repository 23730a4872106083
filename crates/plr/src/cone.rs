//! The shrinking cone: the family of feasible slopes for a growing segment.
//!
//! Given a segment origin `(x₀, y₀)` and an error budget `E`, a candidate
//! slope `m` is feasible for a set of points if every point `(x, y)` in
//! the set satisfies `|y₀ + m·(x − x₀) − y| ≤ E`. The feasible set is an
//! interval `[low, high]` — the *cone* (paper Section 3.3, Figure 5).
//! Adding a point intersects the cone with that point's slope band; the
//! cone therefore only narrows, which is the invariant ShrinkingCone and
//! the optimal DP both exploit.

/// The feasible-slope interval of a segment under construction.
///
/// Keys are monotonically non-decreasing, so slopes are non-negative; the
/// low bound is clamped at 0 exactly as Algorithm 2 initializes
/// `sl_low ← 0`.
#[derive(Debug, Clone, Copy)]
pub struct Cone {
    origin_key: f64,
    origin_pos: u64,
    /// Inclusive lower slope bound.
    low: f64,
    /// Inclusive upper slope bound; `f64::INFINITY` until the first point
    /// with a distinct key arrives.
    high: f64,
}

/// A point `(dx, dy, err)` from a cone's origin under an error budget.
pub(crate) type Offset = (f64, f64, f64);

impl Cone {
    /// Opens a cone at the segment origin.
    #[must_use]
    pub fn new(origin_key: f64, origin_pos: u64) -> Self {
        Cone {
            origin_key,
            origin_pos,
            low: 0.0,
            high: f64::INFINITY,
        }
    }

    /// The origin key of the segment.
    #[must_use]
    pub(crate) fn origin_key(&self) -> f64 {
        self.origin_key
    }

    /// The origin position of the segment.
    #[must_use]
    pub(crate) fn origin_pos(&self) -> u64 {
        self.origin_pos
    }

    /// Where `(key, pos)` sits from the origin under an `error` budget,
    /// each converted once: what the admission tests and
    /// [`update`](Self::update) read.
    pub(crate) fn offset(&self, key: f64, pos: u64, error: u64) -> Offset {
        debug_assert!(key >= self.origin_key, "keys must arrive in order");
        (
            key - self.origin_key,
            (pos - self.origin_pos) as f64,
            error as f64,
        )
    }

    /// The paper's Algorithm 2 admission test: the point must lie
    /// **inside** the cone, i.e. the slope of the line from the origin
    /// through the point falls within `[low, high]`.
    ///
    /// This is the test ShrinkingCone uses. It is slightly stricter than
    /// [`admits_feasible`](Self::admits_feasible): a point within `error`
    /// of the cone's edge but outside the cone is rejected, because the
    /// greedy commits to the endpoint-exact line when the segment closes.
    ///
    /// For a duplicate of the origin key (`dx == 0`) the prediction is
    /// pinned at `origin_pos`, so the point fits iff its distance from the
    /// origin position is within `error`.
    ///
    /// A non-finite `dx` (an infinite origin or key, or `f64::MAX`-scale
    /// keys whose difference overflows) has no slope: the point is
    /// rejected, closing the segment, in both admission tests.
    #[must_use]
    pub(crate) fn admits_endpoint(&self, (dx, dy, err): Offset) -> bool {
        if !dx.is_finite() {
            return false;
        }
        if dx == 0.0 {
            return dy <= err;
        }
        let slope = dy / dx;
        slope >= self.low && slope <= self.high
    }

    /// Existence admission test: **some** slope in the cone predicts the
    /// point's position within `error`.
    ///
    /// Used by the optimal DP, where feasibility of a segment means "a
    /// single line satisfies every covered point" — the line need not pass
    /// through the endpoints. If this test fails, no extension of the
    /// segment can ever cover the point, which is what makes the DP's
    /// early break sound.
    #[must_use]
    pub(crate) fn admits_feasible(&self, (dx, dy, err): Offset) -> bool {
        if !dx.is_finite() {
            return false;
        }
        if dx == 0.0 {
            return dy <= err;
        }
        // Predictions over the cone span [low·dx, high·dx] (relative to
        // the origin position); the point's acceptable band is dy ± err.
        let pred_lo = self.low * dx;
        let pred_hi = self.high * dx; // may be +inf
        pred_lo <= dy + err && pred_hi >= dy - err
    }

    /// Narrows the cone with the point's slope band. Must only be
    /// called after [`admits_endpoint`](Self::admits_endpoint) or
    /// [`admits_feasible`](Self::admits_feasible) admitted the same
    /// offset.
    pub(crate) fn update(&mut self, (dx, dy, err): Offset) {
        if dx == 0.0 {
            return; // duplicate of the origin: no slope information
        }
        let band_low = ((dy - err) / dx).max(0.0);
        let band_high = (dy + err) / dx;
        self.low = self.low.max(band_low);
        self.high = self.high.min(band_high);
        debug_assert!(
            self.low <= self.high,
            "cone emptied by an admitted point: low {} > high {}",
            self.low,
            self.high
        );
    }

    /// A concrete slope from the cone for the finished segment, biased
    /// toward the line through `(last_key, last_pos)` (the paper's
    /// first-to-last-point fit) and clamped into the feasible interval.
    #[must_use]
    pub fn final_slope(&self, last_key: f64, last_pos: u64) -> f64 {
        let dx = last_key - self.origin_key;
        if dx <= 0.0 {
            // Single-key (possibly duplicated) segment: slope is unused by
            // prediction at the origin key; pick the lower bound.
            return self.low.max(0.0);
        }
        let candidate = (last_pos - self.origin_pos) as f64 / dx;
        if self.high.is_finite() {
            candidate.clamp(self.low, self.high)
        } else {
            candidate.max(self.low)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cone_admits_anything_reachable() {
        let c = Cone::new(0.0, 0);
        assert!(c.admits_endpoint(c.offset(10.0, 1_000_000, 1))); // high = inf
        assert!(c.admits_endpoint(c.offset(10.0, 0, 1))); // slope 0 = low bound
        assert!(c.admits_feasible(c.offset(10.0, 1_000_000, 1)));
    }

    #[test]
    fn cone_narrows_monotonically() {
        let mut c = Cone::new(0.0, 0);
        c.update(c.offset(10.0, 10, 2));
        let (l1, h1) = (c.low, c.high);
        assert!(l1 > 0.0 && h1.is_finite());
        c.update(c.offset(20.0, 20, 2));
        let (l2, h2) = (c.low, c.high);
        assert!(l2 >= l1 && h2 <= h1);
    }

    #[test]
    fn rejects_point_outside_band() {
        let mut c = Cone::new(0.0, 0);
        c.update(c.offset(10.0, 10, 1)); // slope ∈ [0.9, 1.1]

        // At x=20 the cone spans positions [18, 22]; y=30 is out for both
        // tests, y=21 is inside the cone, y=23 is outside the cone but
        // within error of its edge — feasible only.
        assert!(!c.admits_endpoint(c.offset(20.0, 30, 1)));
        assert!(!c.admits_feasible(c.offset(20.0, 30, 1)));
        assert!(c.admits_endpoint(c.offset(20.0, 21, 1)));
        assert!(!c.admits_endpoint(c.offset(20.0, 23, 1)));
        assert!(c.admits_feasible(c.offset(20.0, 23, 1)));
    }

    #[test]
    fn duplicate_origin_keys_admit_up_to_error() {
        let c = Cone::new(5.0, 100);
        assert!(c.admits_endpoint(c.offset(5.0, 100, 3)));
        assert!(c.admits_endpoint(c.offset(5.0, 103, 3)));
        assert!(!c.admits_endpoint(c.offset(5.0, 104, 3)));
        assert!(!c.admits_feasible(c.offset(5.0, 104, 3)));
    }

    #[test]
    fn non_finite_dx_closes_the_segment() {
        // slope = dy / ∞ = 0 would pass `low <= 0 <= high` and then
        // collapse the cone to [0, 0], admitting every later point.
        for (origin, key) in [
            (f64::NEG_INFINITY, 0.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY), // dx is NaN
            (-f64::MAX, f64::MAX),                  // dx overflows
        ] {
            let c = Cone::new(origin, 0);
            assert!(
                !c.admits_endpoint(c.offset(key, 1, 16)),
                "{origin} -> {key}"
            );
            assert!(
                !c.admits_feasible(c.offset(key, 1, 16)),
                "{origin} -> {key}"
            );
        }
    }

    #[test]
    fn duplicates_after_origin_constrain_via_band() {
        let mut c = Cone::new(0.0, 0);
        c.update(c.offset(10.0, 10, 1));
        // Duplicates of key 10 at increasing positions tighten the low
        // bound: position 12 needs slope ≥ 1.1.
        assert!(c.admits_endpoint(c.offset(10.0, 11, 1)));
        c.update(c.offset(10.0, 11, 1));
        let (low, _) = (c.low, c.high);
        assert!(low >= 1.0);
    }

    #[test]
    fn final_slope_clamped_into_cone() {
        let mut c = Cone::new(0.0, 0);
        c.update(c.offset(10.0, 10, 1));
        c.update(c.offset(20.0, 20, 1));
        let slope = c.final_slope(20.0, 20);
        let (l, h) = (c.low, c.high);
        assert!(slope >= l && slope <= h);
        assert!((slope - 1.0).abs() < 1e-9);
    }

    #[test]
    fn final_slope_single_key_segment() {
        let c = Cone::new(7.0, 3);
        assert_eq!(c.final_slope(7.0, 5), 0.0);
    }

    #[test]
    fn final_slope_with_open_cone_uses_candidate() {
        let c = Cone::new(0.0, 0); // never updated: high = inf
        let slope = c.final_slope(4.0, 8);
        assert!((slope - 2.0).abs() < 1e-12);
    }
}
