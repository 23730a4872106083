//! Optimal segmentation: the paper's dynamic program (Algorithm 1),
//! re-engineered to O(n) memory.
//!
//! `T[k]` is the minimal number of segments covering the first `k`
//! points. For every candidate start `j` we grow a [`Cone`] rightward;
//! the first point whose slope band no longer intersects the cone ends
//! the scan, because the cone only narrows — once a point is
//! unreachable, every longer segment from the same origin is infeasible
//! too. This prunes the paper's O(n²) feasibility matrix down to the
//! points actually reachable from each start, and removes the O(n²)
//! memory that limited the paper's own evaluation to 10⁶-element samples
//! on a 768 GB machine (Section 3.4).

use crate::cone::Cone;
use crate::point::Point;
#[cfg(test)]
use crate::segment::LinearSegment;

/// Minimal number of maximal-error segments covering `points`.
///
/// Equivalent to `optimal_segmentation(points, error).len()` but without
/// materializing the segments.
#[must_use]
pub fn optimal_segment_count(points: &[Point], error: u64) -> usize {
    dp(points, error).0.last().copied().unwrap_or(0)
}

/// Computes an optimal (minimum-cardinality) segmentation — the DP's
/// boundaries materialized, which only the tests read.
///
/// Ties are broken toward the longest feasible last segment, which tends
/// to produce the same boundaries the paper's formulation yields.
///
/// # Panics
///
/// Panics if `points` are not in non-decreasing key / increasing
/// position order.
#[cfg(test)]
#[must_use]
pub(crate) fn optimal_segmentation(points: &[Point], error: u64) -> Vec<LinearSegment> {
    if points.is_empty() {
        return Vec::new();
    }
    let (_, parent) = dp(points, error);
    // Reconstruct boundaries right-to-left.
    let mut bounds = Vec::new();
    let mut k = points.len();
    while k > 0 {
        let j = parent[k];
        bounds.push((j, k - 1)); // inclusive point range
        k = j;
    }
    bounds.reverse();
    bounds
        .into_iter()
        .map(|(j, k)| fit_segment(&points[j..=k], error))
        .collect()
}

/// Runs the DP, returning (`T`, `parent`) where `parent[k]` is the start
/// index of the optimal last segment covering points `parent[k]..k-1`.
fn dp(points: &[Point], error: u64) -> (Vec<usize>, Vec<usize>) {
    let n = points.len();
    for w in points.windows(2) {
        assert!(
            w[1].key >= w[0].key && w[1].pos > w[0].pos,
            "points must be sorted with increasing positions"
        );
    }
    let mut t = vec![usize::MAX; n + 1];
    let mut parent = vec![0usize; n + 1];
    t[0] = 0;
    for j in 0..n {
        if t[j] == usize::MAX {
            continue;
        }
        let cost = t[j] + 1;
        let mut cone = Cone::new(points[j].key, points[j].pos);
        // Single-point segment [j, j].
        if cost < t[j + 1] {
            t[j + 1] = cost;
            parent[j + 1] = j;
        }
        for k in (j + 1)..n {
            let p = points[k];
            let offset = cone.offset(p.key, p.pos, error);
            if !cone.admits_feasible(offset) {
                break;
            }
            cone.update(offset);
            // `<=` prefers later starts at equal cost, i.e. the longest
            // feasible final segment.
            if cost <= t[k + 1] {
                if cost < t[k + 1] || parent[k + 1] < j {
                    parent[k + 1] = j;
                }
                t[k + 1] = cost;
            }
        }
    }
    (t, parent)
}

/// Minimal segment count under the paper's **endpoint-exact** segment
/// definition (Section 3.1): a segment is the line from its first point
/// to its last point, and feasibility means every interior point lies
/// within `error` of that line.
///
/// This is the feasibility notion the paper's Table 1 optimal uses. It
/// is never smaller than [`optimal_segment_count`] (which allows any
/// line, not just the endpoint chord) and never larger than the greedy.
///
/// The scan from each start `j` maintains the running intersection of
/// the interior points' slope bands; once that intersection empties, no
/// extension of `j` can be feasible, bounding the scan. (An individual
/// infeasible endpoint `k` does *not* end the scan — a later endpoint
/// can re-enter the band — which is exactly why the greedy is not
/// optimal here.)
#[must_use]
pub fn optimal_segment_count_endpoint(points: &[Point], error: u64) -> usize {
    dp_endpoint(points, error).0.last().copied().unwrap_or(0)
}

/// Materializes an optimal **endpoint-chord** segmentation for the
/// tests (see [`optimal_segment_count_endpoint`] for the feasibility
/// notion): each returned segment's slope is exactly the chord from
/// its first to its last point.
///
/// # Panics
///
/// Panics if `points` are out of order.
#[cfg(test)]
#[must_use]
pub(crate) fn optimal_segmentation_endpoint(points: &[Point], error: u64) -> Vec<LinearSegment> {
    if points.is_empty() {
        return Vec::new();
    }
    let (_, parent) = dp_endpoint(points, error);
    let mut bounds = Vec::new();
    let mut k = points.len();
    while k > 0 {
        let j = parent[k];
        bounds.push((j, k - 1));
        k = j;
    }
    bounds.reverse();
    bounds
        .into_iter()
        .map(|(j, k)| {
            let first = points[j];
            let last = points[k];
            let dx = last.key - first.key;
            let slope = if dx > 0.0 {
                (last.pos - first.pos) as f64 / dx
            } else {
                0.0
            };
            LinearSegment {
                start_key: first.key,
                start_pos: first.pos,
                end_key: last.key,
                end_pos: last.pos,
                slope,
            }
        })
        .collect()
}

/// Endpoint-definition DP: `(T, parent)` as in [`dp`].
fn dp_endpoint(points: &[Point], error: u64) -> (Vec<usize>, Vec<usize>) {
    let n = points.len();
    let mut t = vec![usize::MAX; n + 1];
    let mut parent = vec![0usize; n + 1];
    t[0] = 0;
    if n == 0 {
        return (t, parent);
    }
    for w in points.windows(2) {
        assert!(
            w[1].key >= w[0].key && w[1].pos > w[0].pos,
            "points must be sorted with increasing positions"
        );
    }
    let err = error as f64;
    for j in 0..n {
        if t[j] == usize::MAX {
            continue;
        }
        let cost = t[j] + 1;
        if cost < t[j + 1] {
            t[j + 1] = cost; // single-point segment
            parent[j + 1] = j;
        }
        let (x0, y0) = (points[j].key, points[j].pos as f64);
        // Band intersection over interior points j+1..k-1.
        let (mut low, mut high) = (0.0f64, f64::INFINITY);
        // Duplicate-of-origin prefix: a vertical run is feasible while
        // its depth stays within the error.
        for k in (j + 1)..n {
            let p = points[k];
            let dx = p.key - x0;
            let dy = p.pos as f64 - y0;
            // Endpoint feasibility of [j, k]: the chord slope must fall
            // in the interior band intersection (or the run is vertical
            // and shallow enough).
            let feasible = if dx == 0.0 {
                dy <= err && low <= 0.0
            } else {
                let slope = dy / dx;
                slope >= low && slope <= high
            };
            if feasible && cost < t[k + 1] {
                t[k + 1] = cost;
                parent[k + 1] = j;
            }
            // Fold point k into the interior band set for larger k.
            if dx == 0.0 {
                if dy > err {
                    // A vertical run deeper than the error makes every
                    // longer segment infeasible (interior point k can
                    // never be within err of a chord through the origin
                    // at the same x).
                    break;
                }
            } else {
                low = low.max((dy - err) / dx);
                high = high.min((dy + err) / dx);
                if low > high {
                    break;
                }
            }
        }
    }
    (t, parent)
}

/// Fits one segment over a point range known to be feasible.
#[cfg(test)]
fn fit_segment(points: &[Point], error: u64) -> LinearSegment {
    let first = points[0];
    let last = points[points.len() - 1];
    let mut cone = Cone::new(first.key, first.pos);
    for p in &points[1..] {
        let offset = cone.offset(p.key, p.pos, error);
        debug_assert!(cone.admits_feasible(offset), "infeasible reconstruction");
        cone.update(offset);
    }
    LinearSegment {
        start_key: first.key,
        start_pos: first.pos,
        end_key: last.key,
        end_pos: last.pos,
        slope: cone.final_slope(last.key, last.pos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::points_from_sorted_keys;
    use crate::shrinking_cone::ShrinkingCone;
    use crate::validate::validate_segmentation;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(optimal_segment_count(&[], 10), 0);
        assert!(optimal_segmentation(&[], 10).is_empty());
        let one = [Point::new(5.0, 0)];
        assert_eq!(optimal_segment_count(&one, 10), 1);
        assert_eq!(optimal_segmentation(&one, 10).len(), 1);
    }

    /// The DP's boundaries satisfy the E∞ bound on 128 seeded inputs:
    /// 1 to 399 sorted keys below 1 000 000, error below 64.
    #[test]
    fn optimal_segmentation_satisfies_error_bound() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..128 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut keys: Vec<u32> = (0..rng.gen_range(1..400))
                .map(|_| rng.gen_range(0..1_000_000))
                .collect();
            keys.sort_unstable();
            let keys: Vec<f64> = keys.into_iter().map(f64::from).collect();
            let error = rng.gen_range(0..64);
            let points = points_from_sorted_keys(&keys);
            let segs = optimal_segmentation(&points, error);
            validate_segmentation(&points, &segs, error)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn linear_data_is_one_segment() {
        let points = points_from_sorted_keys(&(0..500).map(f64::from).collect::<Vec<_>>());
        assert_eq!(optimal_segment_count(&points, 0), 1);
    }

    #[test]
    fn optimal_never_exceeds_greedy() {
        let keys: Vec<f64> = (0..800)
            .map(|k| (k as f64) * 3.0 + 40.0 * ((k as f64) / 37.0).sin())
            .collect();
        let points = points_from_sorted_keys(&keys);
        for error in [1u64, 4, 16, 64] {
            let greedy = ShrinkingCone::segment(&points, error).len();
            let optimal = optimal_segment_count(&points, error);
            assert!(optimal <= greedy, "error={error}: {optimal} > {greedy}");
            assert!(optimal >= 1);
        }
    }

    #[test]
    fn reconstruction_matches_count_and_validates() {
        let keys: Vec<f64> = (0..600).map(|k| (k as f64).powf(1.3) * 2.0).collect();
        let points = points_from_sorted_keys(&keys);
        for error in [2u64, 8, 32] {
            let segs = optimal_segmentation(&points, error);
            assert_eq!(segs.len(), optimal_segment_count(&points, error));
            validate_segmentation(&points, &segs, error).unwrap();
        }
    }

    #[test]
    fn two_plateaus_need_two_segments_at_small_error() {
        // Two long vertical runs far apart in key space.
        let mut keys = vec![0.0; 30];
        keys.extend(vec![1_000_000.0; 30]);
        let points = points_from_sorted_keys(&keys);
        // A run of 30 duplicates spans 30 positions: error 10 cannot
        // cover one run in one segment (needs ceil(30/11) pieces).
        let n = optimal_segment_count(&points, 10);
        assert!((2..=6).contains(&n), "got {n}");
        // error 29 covers each run exactly; the two runs cannot share a
        // segment at error 29... unless interpolation spans them. Check
        // validity instead of exact count.
        let segs = optimal_segmentation(&points, 29);
        validate_segmentation(&points, &segs, 29).unwrap();
    }

    #[test]
    fn endpoint_optimal_sits_between_anyline_and_greedy() {
        let keys: Vec<f64> = (0..700)
            .map(|k| (k as f64) * 2.0 + 35.0 * ((k as f64) / 23.0).sin())
            .collect();
        let points = points_from_sorted_keys(&keys);
        for error in [2u64, 8, 32] {
            let greedy = ShrinkingCone::segment(&points, error).len();
            let endpoint = optimal_segment_count_endpoint(&points, error);
            let anyline = optimal_segment_count(&points, error);
            assert!(anyline <= endpoint, "error {error}: {anyline} > {endpoint}");
            assert!(endpoint <= greedy, "error {error}: {endpoint} > {greedy}");
        }
    }

    #[test]
    fn endpoint_optimal_on_adversarial_input_is_small() {
        // Appendix A.3: the paper's optimal (endpoint definition) needs
        // 2 segments while the greedy needs N + 2.
        let e = 50u64;
        let pts = crate::adversarial::adversarial_input(e, 20);
        let endpoint = optimal_segment_count_endpoint(&pts, e);
        let greedy = ShrinkingCone::segment(&pts, e).len();
        assert!(endpoint <= 3, "endpoint optimal used {endpoint}");
        assert!(greedy >= 20);
    }

    #[test]
    fn endpoint_segmentation_reconstructs_and_validates() {
        let keys: Vec<f64> = (0..400)
            .map(|k| (k as f64) * 1.5 + 20.0 * ((k as f64) / 13.0).cos())
            .collect();
        let mut sorted = keys;
        sorted.sort_by(f64::total_cmp);
        let points = points_from_sorted_keys(&sorted);
        for error in [4u64, 16, 64] {
            let segs = optimal_segmentation_endpoint(&points, error);
            assert_eq!(segs.len(), optimal_segment_count_endpoint(&points, error));
            // Endpoint chords satisfy the E-infinity bound by definition.
            validate_segmentation(&points, &segs, error).unwrap();
            // And each slope really is the first-to-last chord.
            for s in &segs {
                if s.end_key > s.start_key {
                    let chord = (s.end_pos - s.start_pos) as f64 / (s.end_key - s.start_key);
                    assert!((s.slope - chord).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn endpoint_optimal_edge_cases() {
        assert_eq!(optimal_segment_count_endpoint(&[], 5), 0);
        assert_eq!(optimal_segment_count_endpoint(&[Point::new(1.0, 0)], 5), 1);
        // Vertical run deeper than the error still terminates and covers.
        let mut keys = vec![7.0; 40];
        keys.push(8.0);
        let points = points_from_sorted_keys(&keys);
        let n = optimal_segment_count_endpoint(&points, 10);
        assert!((2..=5).contains(&n), "got {n}");
    }

    #[test]
    fn dp_handles_error_zero() {
        let keys = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0];
        let points = points_from_sorted_keys(&keys);
        let segs = optimal_segmentation(&points, 0);
        validate_segmentation(&points, &segs, 0).unwrap();
        assert!(segs.len() >= 2);
    }
}
