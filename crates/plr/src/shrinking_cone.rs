//! ShrinkingCone: the paper's one-pass greedy segmentation (Algorithm 2).

use crate::cone::Cone;
use crate::point::Point;
use crate::segment::LinearSegment;

/// Streaming greedy segmentation with O(1) state.
///
/// Feed points in key order with [`push`](Self::push); each call returns
/// a finished [`LinearSegment`] whenever the incoming point falls outside
/// the current cone and therefore starts a new segment. Call
/// [`finish`](Self::finish) to flush the trailing segment.
///
/// The invariant (paper Section 3.3): a point may join the current
/// segment iff it lies inside the cone — the intersection of the slope
/// bands of every point accepted so far. Accepting a point never widens
/// the cone, so previously accepted points keep their error guarantee no
/// matter where the segment ends.
///
/// ```
/// use fiting_plr::{Point, ShrinkingCone};
///
/// let mut sc = ShrinkingCone::new(4);
/// let mut segments = Vec::new();
/// for (i, key) in [0.0f64, 1.0, 2.0, 100.0, 101.0].into_iter().enumerate() {
///     segments.extend(sc.push(Point::new(key, i as u64)));
/// }
/// segments.extend(sc.finish());
/// assert!(!segments.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ShrinkingCone {
    error: u64,
    state: Option<SegState>,
}

#[derive(Debug, Clone)]
struct SegState {
    cone: Cone,
    last: Point,
}

impl ShrinkingCone {
    /// Creates a segmenter with the given maximal error (in positions).
    #[must_use]
    pub fn new(error: u64) -> Self {
        ShrinkingCone { error, state: None }
    }

    /// The configured error threshold.
    #[must_use]
    pub fn error(&self) -> u64 {
        self.error
    }

    /// Feeds the next point (keys non-decreasing, positions strictly
    /// increasing). Returns the segment that just closed, if this point
    /// could not extend it.
    ///
    /// # Panics
    ///
    /// Panics if points arrive out of order.
    #[inline]
    pub fn push(&mut self, p: Point) -> Option<LinearSegment> {
        match &mut self.state {
            None => {
                self.state = Some(SegState {
                    cone: Cone::new(p.key, p.pos),
                    last: p,
                });
                None
            }
            Some(state) => {
                assert!(
                    p.key >= state.last.key && p.pos > state.last.pos,
                    "points must arrive with non-decreasing keys and increasing positions"
                );
                let offset = state.cone.offset(p.key, p.pos, self.error);
                if state.cone.admits_endpoint(offset) {
                    state.cone.update(offset);
                    state.last = p;
                    None
                } else {
                    let finished = Self::close(state);
                    self.state = Some(SegState {
                        cone: Cone::new(p.key, p.pos),
                        last: p,
                    });
                    Some(finished)
                }
            }
        }
    }

    /// Flushes the trailing segment, consuming the segmenter.
    #[must_use]
    pub fn finish(self) -> Option<LinearSegment> {
        self.state.as_ref().map(Self::close)
    }

    fn close(state: &SegState) -> LinearSegment {
        let cone = &state.cone;
        LinearSegment {
            start_key: cone.origin_key(),
            start_pos: cone.origin_pos(),
            end_key: state.last.key,
            end_pos: state.last.pos,
            slope: cone.final_slope(state.last.key, state.last.pos),
        }
    }

    /// Convenience: segments a whole slice of points at once.
    ///
    /// # Panics
    ///
    /// Panics if points are out of order (see [`push`](Self::push)).
    #[must_use]
    pub fn segment(points: &[Point], error: u64) -> Vec<LinearSegment> {
        let mut sc = ShrinkingCone::new(error);
        let mut out = Vec::new();
        for &p in points {
            if let Some(seg) = sc.push(p) {
                out.push(seg);
            }
        }
        if let Some(seg) = sc.finish() {
            out.push(seg);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::points_from_sorted_keys;
    use crate::validate::validate_segmentation;

    #[test]
    fn empty_input_yields_no_segments() {
        let sc = ShrinkingCone::new(10);
        assert!(sc.finish().is_none());
        assert!(ShrinkingCone::segment(&[], 10).is_empty());
    }

    #[test]
    fn single_point_yields_one_segment() {
        let segs = ShrinkingCone::segment(&[Point::new(42.0, 0)], 10);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].start_pos, 0);
        assert_eq!(segs[0].end_pos, 0);
    }

    #[test]
    fn perfectly_linear_data_is_one_segment() {
        let points = points_from_sorted_keys(&(0..10_000).map(|k| k as f64).collect::<Vec<_>>());
        let segs = ShrinkingCone::segment(&points, 1);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].slope - 1.0).abs() < 1e-9);
        validate_segmentation(&points, &segs, 1).unwrap();
    }

    #[test]
    fn linear_data_with_any_positive_error_is_one_segment() {
        let keys: Vec<f64> = (0..1000).map(|k| (k * 7) as f64).collect();
        let points = points_from_sorted_keys(&keys);
        for error in [0, 1, 10, 100] {
            let segs = ShrinkingCone::segment(&points, error);
            assert_eq!(segs.len(), 1, "error={error}");
        }
    }

    #[test]
    fn step_data_needs_one_segment_per_step_below_threshold() {
        // 10 steps of 50 duplicate keys each: a vertical run of 50
        // positions cannot satisfy error < 49 in one segment.
        let mut keys = Vec::new();
        for step in 0..10 {
            keys.extend(std::iter::repeat_n((step * 1000) as f64, 50));
        }
        let points = points_from_sorted_keys(&keys);
        let segs = ShrinkingCone::segment(&points, 10);
        assert!(segs.len() >= 10, "got {} segments", segs.len());
        validate_segmentation(&points, &segs, 10).unwrap();
    }

    #[test]
    fn step_data_collapses_above_threshold() {
        let mut keys = Vec::new();
        for step in 0..10u64 {
            keys.extend(std::iter::repeat_n((step * 50) as f64, 50));
        }
        let points = points_from_sorted_keys(&keys);
        // error ≥ run length: the whole staircase fits one segment.
        let segs = ShrinkingCone::segment(&points, 60);
        assert_eq!(segs.len(), 1);
        validate_segmentation(&points, &segs, 60).unwrap();
    }

    #[test]
    fn segments_partition_the_input() {
        let keys: Vec<f64> = (0..5000).map(|k| ((k * k) % 100_000) as f64).collect();
        let mut sorted = keys;
        sorted.sort_by(f64::total_cmp);
        let points = points_from_sorted_keys(&sorted);
        let segs = ShrinkingCone::segment(&points, 32);
        assert_eq!(segs[0].start_pos, 0);
        assert_eq!(segs.last().unwrap().end_pos, points.len() as u64 - 1);
        for w in segs.windows(2) {
            assert_eq!(w[0].end_pos + 1, w[1].start_pos);
        }
        validate_segmentation(&points, &segs, 32).unwrap();
    }

    #[test]
    fn error_zero_is_supported() {
        // With error 0 the prediction must be exact; stair data breaks
        // into one segment per distinct key pair at best.
        let keys = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0];
        let points = points_from_sorted_keys(&keys);
        let segs = ShrinkingCone::segment(&points, 0);
        validate_segmentation(&points, &segs, 0).unwrap();
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_out_of_order_points() {
        let mut sc = ShrinkingCone::new(10);
        let _ = sc.push(Point::new(5.0, 0));
        let _ = sc.push(Point::new(4.0, 1));
    }

    #[test]
    fn larger_error_never_increases_segment_count() {
        let keys: Vec<f64> = (0..2000)
            .map(|k| (k as f64) + 50.0 * ((k as f64) / 100.0).sin())
            .collect();
        let mut sorted = keys;
        sorted.sort_by(f64::total_cmp);
        let points = points_from_sorted_keys(&sorted);
        let mut prev = usize::MAX;
        for error in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let n = ShrinkingCone::segment(&points, error).len();
            assert!(n <= prev, "error={error}: {n} > {prev}");
            prev = n;
        }
    }
}
