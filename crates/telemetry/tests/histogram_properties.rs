//! Property battery for the telemetry layer.
//!
//! * **Accuracy**: histogram percentiles are held to a sorted-vector
//!   oracle within the layout's ≤ 1 % relative-error bound, across
//!   uniform, lognormal (heavy right tail — the latency shape), and
//!   bimodal (fast-path / slow-path mixture) distributions.
//! * **Algebra**: snapshot merging is associative and commutative with
//!   [`HistogramSnapshot::empty`] as identity, and merging partitions
//!   of a stream reproduces the unpartitioned recording exactly.
//! * **Monotonicity**: percentile readout is non-decreasing in `p` and
//!   capped by the exact max.
//! * **Snapshots**: readings taken while writer threads record stay
//!   internally consistent — counters and histogram counts only grow
//!   between successive snapshots, and the final snapshot is exact.

use fiting_telemetry::{Counter, Histogram, HistogramSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Distributions (compat rand has uniform only; the lognormal is built
// from it via Box-Muller)
// ---------------------------------------------------------------------

/// Standard normal via Box-Muller from two uniforms.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn uniform_samples(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(1..100_000_000u64)).collect()
}

/// Lognormal around ~100 µs with a heavy right tail — the canonical
/// service-latency shape.
fn lognormal_samples(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mu = (100_000f64).ln();
    (0..n)
        .map(|_| (mu + 1.5 * normal(&mut rng)).exp().max(1.0) as u64)
        .collect()
}

/// Fast-path / slow-path mixture: 90 % a few µs, 10 % tens of ms.
fn bimodal_samples(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..10u32) == 0 {
                rng.gen_range(10_000_000..80_000_000u64)
            } else {
                rng.gen_range(1_000..8_000u64)
            }
        })
        .collect()
}

/// Exact percentile by sorting — the oracle, using the same rank rule
/// as the histogram (1-based ceil, clamped).
fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    if p >= 100.0 {
        return *sorted.last().expect("nonempty");
    }
    let n = sorted.len() as f64;
    let rank = ((p.max(0.0) / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_within_error_bound(dist: &str, samples: &[u64]) {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), samples.len() as u64, "{dist}: exact count");

    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    assert_eq!(
        snap.max(),
        *sorted.last().expect("nonempty"),
        "{dist}: exact max"
    );

    for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
        let got = snap.percentile(p) as f64;
        let want = oracle_percentile(&sorted, p) as f64;
        // ≤ 1% relative error, with one ns of absolute slack so the
        // exact low buckets (< 128 ns) can't fail on integer rounding.
        let tolerance = (want * 0.01).max(1.0);
        assert!(
            (got - want).abs() <= tolerance,
            "{dist}: p{p} = {got}, oracle {want} (> 1% off)"
        );
    }
}

#[test]
fn percentiles_match_sorted_oracle_across_distributions() {
    assert_within_error_bound("uniform", &uniform_samples(50_000, 0xA11CE));
    assert_within_error_bound("lognormal", &lognormal_samples(50_000, 0xB0B));
    assert_within_error_bound("bimodal", &bimodal_samples(50_000, 0xCAFE));
}

#[test]
fn merge_is_associative_commutative_with_identity() {
    let samples = lognormal_samples(30_000, 7);
    // Partition the stream three ways.
    let hists = [Histogram::new(), Histogram::new(), Histogram::new()];
    let all = Histogram::new();
    for (i, &v) in samples.iter().enumerate() {
        hists[i % 3].record(v);
        all.record(v);
    }
    let [a, b, c] = hists.map(|h| h.snapshot());
    let whole = all.snapshot();

    // (a ⊕ b) ⊕ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut right_inner = b.clone();
    right_inner.merge(&c);
    let mut right = a.clone();
    right.merge(&right_inner);

    assert_eq!(left, right, "associativity");
    assert_eq!(
        left, whole,
        "partition merge reproduces the unpartitioned stream"
    );

    // a ⊕ b == b ⊕ a
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba, "commutativity");

    // empty is the identity on both sides.
    let mut id = HistogramSnapshot::empty();
    id.merge(&a);
    assert_eq!(id, a, "left identity");
    let mut a2 = a.clone();
    a2.merge(&HistogramSnapshot::empty());
    assert_eq!(a2, a, "right identity");
}

#[test]
fn percentile_readout_is_monotone_and_max_capped() {
    for (seed, samples) in [
        (1u64, uniform_samples(10_000, 11)),
        (2, lognormal_samples(10_000, 12)),
        (3, bimodal_samples(10_000, 13)),
    ] {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps: Vec<f64> = (0..200).map(|_| rng.gen::<f64>() * 100.0).collect();
        ps.push(0.0);
        ps.push(100.0);
        ps.sort_by(f64::total_cmp);
        let mut prev = 0u64;
        for &p in &ps {
            let v = snap.percentile(p);
            assert!(v >= prev, "percentile({p}) = {v} < previous {prev}");
            assert!(v <= snap.max(), "percentile({p}) above the exact max");
            prev = v;
        }
        assert_eq!(snap.percentile(100.0), snap.max());
    }
}

#[test]
fn registry_snapshots_stay_consistent_under_concurrent_recording() {
    let ops = Arc::new(Counter::new());
    let lat = Arc::new(Histogram::new());

    const THREADS: u64 = 4;
    const PER: u64 = 50_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ops = Arc::clone(&ops);
            let lat = Arc::clone(&lat);
            scope.spawn(move || {
                for i in 0..PER {
                    lat.record((t * PER + i) % 1_000_000 + 1);
                    ops.add(1);
                }
            });
        }

        // Interleaved snapshots: totals may lag the writers but must
        // only grow, and a histogram's count never exceeds the ops
        // counter incremented *after* each record.
        let mut last_ops = 0u64;
        let mut last_count = 0u64;
        for _ in 0..50 {
            // The counter is read first, as a scrape lists it first.
            let ops_now = ops.get();
            let count_now = lat.snapshot().count();
            assert!(ops_now >= last_ops, "counter went backwards");
            assert!(count_now >= last_count, "histogram count went backwards");
            assert!(
                count_now >= ops_now,
                "a record landed after its op was counted: {count_now} < {ops_now}"
            );
            last_ops = ops_now;
            last_count = count_now;
        }
    });

    assert_eq!(ops.get(), THREADS * PER);
    let h = lat.snapshot();
    assert_eq!(h.count(), THREADS * PER);
    assert!(h.max() <= 1_000_000);
}
