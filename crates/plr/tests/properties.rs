//! Property tests for the segmentation algorithms: the paper's
//! guarantees, stated as executable properties over seeded random
//! monotonic inputs. Each property runs 128 cases; a failure names its
//! seed.

use fiting_plr::{
    optimal_segment_count, points_from_sorted_keys, validate::validate_segmentation, Point,
    ShrinkingCone,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..128).map(|seed| (seed, StdRng::seed_from_u64(seed)))
}

/// 1 to 399 sorted keys below 1 000 000, possibly with duplicates.
fn sorted_keys(rng: &mut StdRng) -> Vec<f64> {
    let mut keys: Vec<u32> = (0..rng.gen_range(1..400))
        .map(|_| rng.gen_range(0..1_000_000))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(f64::from).collect()
}

/// Paper Section 3.4's bound on ShrinkingCone's segment count:
/// `min(|keys| / 2, |D| / (error + 1))`, where `|keys|` counts distinct
/// keys and `|D|` counts elements including duplicates. It follows from
/// Theorem 3.1: no input with fewer than 3 keys spanning at least
/// `error + 2` locations forces a segment break.
fn segment_count_bound(distinct_keys: usize, total_elements: usize, error: u64) -> usize {
    let by_keys = distinct_keys.div_ceil(2);
    let by_elems = total_elements.div_ceil(error as usize + 1);
    by_keys.min(by_elems).max(1)
}

/// The E∞ guarantee: every greedy segmentation satisfies the error
/// bound and partitions the input (paper Section 3.1).
#[test]
fn greedy_satisfies_error_bound() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (sorted_keys(&mut rng), rng.gen_range(0..64));
        let points = points_from_sorted_keys(&keys);
        let segs = ShrinkingCone::segment(&points, error);
        validate_segmentation(&points, &segs, error).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Optimality sanity: the DP never uses more segments than the greedy.
#[test]
fn optimal_is_at_most_greedy() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (sorted_keys(&mut rng), rng.gen_range(0..64));
        let points = points_from_sorted_keys(&keys);
        let greedy = ShrinkingCone::segment(&points, error).len();
        let optimal = optimal_segment_count(&points, error);
        assert!(
            (1..=greedy).contains(&optimal),
            "seed {seed}: optimal {optimal}, greedy {greedy}"
        );
    }
}

/// ShrinkingCone emits at most [`segment_count_bound`] segments.
#[test]
fn greedy_respects_count_bound() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (sorted_keys(&mut rng), rng.gen_range(1..64));
        let points = points_from_sorted_keys(&keys);
        let mut distinct = keys.clone();
        distinct.dedup();
        let segs = ShrinkingCone::segment(&points, error);
        let bound = segment_count_bound(distinct.len(), points.len(), error);
        assert!(
            segs.len() <= bound,
            "seed {seed}: {} segments > bound {bound} (distinct {}, total {}, error {error})",
            segs.len(),
            distinct.len(),
            points.len(),
        );
    }
}

/// Theorem 3.1 corollary: every *closed* greedy segment (all but the
/// final one) covers at least error + 1 locations.
#[test]
fn closed_greedy_segments_cover_error_plus_one() {
    for (seed, mut rng) in cases() {
        let mut keys = sorted_keys(&mut rng);
        keys.dedup();
        let error = rng.gen_range(1..64);
        let points = points_from_sorted_keys(&keys);
        let segs = ShrinkingCone::segment(&points, error);
        for seg in &segs[..segs.len().saturating_sub(1)] {
            assert!(
                seg.len() > error,
                "seed {seed}: closed segment of {} locations < error+1 = {}",
                seg.len(),
                error + 1
            );
        }
    }
}

/// Streaming and batch APIs agree.
#[test]
fn streaming_equals_batch() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (sorted_keys(&mut rng), rng.gen_range(0..32));
        let points = points_from_sorted_keys(&keys);
        let batch = ShrinkingCone::segment(&points, error);
        let mut sc = ShrinkingCone::new(error);
        let mut streamed = Vec::new();
        for &p in &points {
            streamed.extend(sc.push(p));
        }
        streamed.extend(sc.finish());
        assert_eq!(batch, streamed, "seed {seed}");
    }
}

/// Doubling the error cannot increase the optimal segment count.
#[test]
fn optimal_count_monotone_in_error() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (sorted_keys(&mut rng), rng.gen_range(1..32));
        let points = points_from_sorted_keys(&keys);
        let tight = optimal_segment_count(&points, error);
        let loose = optimal_segment_count(&points, error * 2);
        assert!(loose <= tight, "seed {seed}: {loose} > {tight}");
    }
}

/// Every segment's predicted position, clamped to its slots, lands
/// within error of the true position for every covered point — the
/// exact quantity the index's local search depends on.
#[test]
fn clamped_prediction_within_error() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (sorted_keys(&mut rng), rng.gen_range(0..32));
        let points = points_from_sorted_keys(&keys);
        let segs = ShrinkingCone::segment(&points, error);
        let mut si = 0;
        for p in &points {
            while p.pos > segs[si].end_pos {
                si += 1;
            }
            let seg = segs[si];
            let slot = seg.predict(p.key).max(seg.start_pos as f64) as u64;
            let dev = slot.min(seg.end_pos).abs_diff(p.pos);
            assert!(
                dev <= error + 1,
                "seed {seed}: clamped prediction off by {dev} > error+1 ({})",
                error + 1
            );
        }
    }
}

/// Deterministic regression: a handful of shapes that once broke naive
/// segmenters.
#[test]
fn regression_shapes() {
    let shapes: Vec<Vec<f64>> = vec![
        vec![0.0],
        vec![0.0, 0.0, 0.0, 0.0],
        vec![0.0, 1e12],
        vec![0.0, 1.0, 1.0 + 1e-9, 2.0],
        (0..100).map(|i| f64::from(i * i)).collect(),
        (0..100).map(|i| (f64::from(i)).exp().min(1e15)).collect(),
    ];
    for keys in shapes {
        let points = points_from_sorted_keys(&keys);
        for error in [0u64, 1, 5, 100] {
            let segs = ShrinkingCone::segment(&points, error);
            validate_segmentation(&points, &segs, error)
                .unwrap_or_else(|e| panic!("keys {keys:?} error {error}: {e}"));
        }
    }
}

#[test]
fn point_rejects_nan_in_debug() {
    let result = std::panic::catch_unwind(|| Point::new(f64::NAN, 0));
    if cfg!(debug_assertions) {
        assert!(result.is_err());
    }
}
