//! Exhaustive cross-validation of the optimal DPs against brute force.
//!
//! For small inputs we enumerate *every* partition of the point
//! sequence into contiguous segments, check feasibility directly from
//! the definitions, and take the true minimum. Both DPs must match
//! their respective definitions exactly.

use fiting_plr::{
    optimal_segment_count, optimal_segment_count_endpoint, points_from_sorted_keys, Point,
    ShrinkingCone,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Direct ∃-line feasibility: some slope from the first point predicts
/// every point within `error`.
fn feasible_anyline(points: &[Point], error: u64) -> bool {
    let origin = points[0];
    let err = error as f64;
    let (mut low, mut high) = (0.0f64, f64::INFINITY);
    for p in &points[1..] {
        let dx = p.key - origin.key;
        let dy = (p.pos - origin.pos) as f64;
        if dx == 0.0 {
            if dy > err {
                return false;
            }
        } else {
            low = low.max((dy - err) / dx);
            high = high.min((dy + err) / dx);
            if low > high {
                return false;
            }
        }
    }
    true
}

/// Direct endpoint-chord feasibility: the line from first to last point
/// keeps every interior point within `error`.
fn feasible_endpoint(points: &[Point], error: u64) -> bool {
    let first = points[0];
    let last = points[points.len() - 1];
    let err = error as f64;
    let dx = last.key - first.key;
    if dx == 0.0 {
        // Vertical run: prediction pinned at the first position.
        return (last.pos - first.pos) as f64 <= err;
    }
    let slope = (last.pos - first.pos) as f64 / dx;
    points.iter().all(|p| {
        let pred = first.pos as f64 + (p.key - first.key) * slope;
        (pred - p.pos as f64).abs() <= err + 1e-9
    })
}

/// Brute force: minimum number of contiguous feasible segments, by DP
/// over all O(2^n) boundaries (fine for n ≤ 14).
fn brute_force(points: &[Point], error: u64, feasible: fn(&[Point], u64) -> bool) -> usize {
    let n = points.len();
    let mut t = vec![usize::MAX; n + 1];
    t[0] = 0;
    for j in 0..n {
        if t[j] == usize::MAX {
            continue;
        }
        for k in j..n {
            if feasible(&points[j..=k], error) {
                t[k + 1] = t[k + 1].min(t[j] + 1);
            }
        }
    }
    t[n]
}

/// 256 seeded cases, each 1 to 11 sorted keys below 60 (duplicates
/// likely) at an error below 12; a failure names its seed.
fn cases() -> impl Iterator<Item = (u64, Vec<Point>, u64)> {
    (0..256).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<u32> = (0..rng.gen_range(1..12))
            .map(|_| rng.gen_range(0..60))
            .collect();
        keys.sort_unstable();
        let points = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| Point::new(f64::from(k), i as u64))
            .collect();
        (seed, points, rng.gen_range(0..12))
    })
}

#[test]
fn anyline_dp_matches_brute_force() {
    for (seed, points, error) in cases() {
        let dp = optimal_segment_count(&points, error);
        let bf = brute_force(&points, error, feasible_anyline);
        assert_eq!(dp, bf, "seed {seed}: points {points:?} error {error}");
    }
}

#[test]
fn endpoint_dp_matches_brute_force() {
    for (seed, points, error) in cases() {
        let dp = optimal_segment_count_endpoint(&points, error);
        let bf = brute_force(&points, error, feasible_endpoint);
        assert_eq!(dp, bf, "seed {seed}: points {points:?} error {error}");
    }
}

/// Ordering invariant on arbitrary tiny inputs:
/// any-line ≤ endpoint ≤ greedy.
#[test]
fn optimality_ordering() {
    for (seed, points, error) in cases() {
        let anyline = optimal_segment_count(&points, error);
        let endpoint = optimal_segment_count_endpoint(&points, error);
        let greedy = ShrinkingCone::segment(&points, error).len();
        assert!(
            anyline <= endpoint && endpoint <= greedy,
            "seed {seed}: any-line {anyline}, endpoint {endpoint}, greedy {greedy}"
        );
    }
}

#[test]
fn known_hand_case() {
    // Keys 0,1,2,10 positions 0..3 at error 0: the chord 0→10 misses
    // interior points badly; exact fits need the slope to match each
    // gap. Brute force says 2 for both definitions (0,1,2 are collinear
    // with slope 1; the jump to 10 breaks it).
    let points = points_from_sorted_keys(&[0.0, 1.0, 2.0, 10.0]);
    assert_eq!(optimal_segment_count(&points, 0), 2);
    assert_eq!(optimal_segment_count_endpoint(&points, 0), 2);
}
