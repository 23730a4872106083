//! Model-based and property tests for the FITing-Tree: under seeded
//! random operation sequences it must behave exactly like `BTreeMap`,
//! while maintaining the paper's structural guarantees. Each property
//! runs 48 cases; a failure names its seed.

use fiting_tree::{FitingTreeBuilder, SecondaryIndex};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..48).map(|seed| (seed, StdRng::seed_from_u64(seed)))
}

/// Fewer than `max` keys, each below `modulo`.
fn keys(rng: &mut StdRng, max: usize, modulo: u32) -> Vec<u32> {
    (0..rng.gen_range(0..max))
        .map(|_| rng.gen_range(0..modulo))
        .collect()
}

/// Bulk loads `keys`, then runs fewer than `max_ops` operations on keys
/// below 4096 — inserts, removes, gets and ranges in the ratio
/// 4 : 2 : 2 : 1 — checking each answer against a `BTreeMap`, and the
/// tree's structural invariants every 64th operation and at the end.
fn run_against_model(
    seed: u64,
    rng: &mut StdRng,
    error: u64,
    buffer: Option<u64>,
    mut keys: Vec<u32>,
    max_ops: usize,
) {
    let mut builder = FitingTreeBuilder::new(error);
    if let Some(b) = buffer {
        builder = builder.buffer_size(b);
    }
    keys.sort_unstable();
    keys.dedup();
    let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0xaaaa)).collect();
    let mut tree = builder.bulk_load(pairs.clone()).unwrap();
    let mut model: BTreeMap<u32, u32> = pairs.into_iter().collect();

    for op in 0..rng.gen_range(0..max_ops) {
        let k = rng.gen_range(0..4096);
        match rng.gen_range(0..9) {
            0..=3 => {
                let v = rng.gen();
                let want = model.insert(k, v);
                assert_eq!(tree.insert(k, v), want, "seed {seed}: insert {k}");
            }
            4 | 5 => assert_eq!(tree.remove(&k), model.remove(&k), "seed {seed}: remove {k}"),
            6 | 7 => assert_eq!(tree.get(&k), model.get(&k), "seed {seed}: get {k}"),
            _ => {
                let other = rng.gen_range(0..4096);
                let (lo, hi) = (k.min(other), k.max(other));
                let got: Vec<_> = tree.range(lo..=hi).collect();
                let want: Vec<_> = model.range(lo..=hi).collect();
                assert_eq!(got, want, "seed {seed}: range {lo}..={hi}");
            }
        }
        assert_eq!(tree.len(), model.len(), "seed {seed}");
        if op % 64 == 63 {
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}, op {op}: {e}"));
        }
    }
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let got: Vec<u32> = tree.iter().map(|(k, _)| *k).collect();
    let want: Vec<u32> = model.keys().copied().collect();
    assert_eq!(got, want, "seed {seed}");
}

#[test]
fn agrees_with_btreemap_default_buffer() {
    for (seed, mut rng) in cases() {
        let (keys, error) = (keys(&mut rng, 300, 4096), rng.gen_range(2..128));
        run_against_model(seed, &mut rng, error, None, keys, 300);
    }
}

#[test]
fn agrees_with_btreemap_tiny_buffer() {
    for (seed, mut rng) in cases() {
        // Buffer of 1: almost every insert triggers re-segmentation.
        let keys = keys(&mut rng, 200, 4096);
        run_against_model(seed, &mut rng, 8, Some(1), keys, 200);
    }
}

#[test]
fn agrees_with_btreemap_zero_error() {
    for (seed, mut rng) in cases() {
        let keys = keys(&mut rng, 150, 1024);
        run_against_model(seed, &mut rng, 0, Some(0), keys, 150);
    }
}

/// The error guarantee under churn: after any op sequence, every key
/// present is found — meaning interpolation + windowed search never
/// misses. (check_invariants verifies the window bound per key.)
#[test]
fn error_bound_survives_churn() {
    for (seed, mut rng) in cases() {
        run_against_model(seed, &mut rng, 16, None, (0..512).collect(), 400);
    }
}

/// The paper's per-dataset workloads, deterministic: bulk load real-shaped
/// data, hammer with lookups and inserts.
#[test]
fn dataset_shaped_workloads() {
    for ds in [
        fiting_datasets::Dataset::Weblogs,
        fiting_datasets::Dataset::Iot,
    ] {
        let keys = ds.generate(50_000, 99);
        let pairs: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        for error in [16u64, 64, 128, 1024] {
            let mut tree = FitingTreeBuilder::new(error)
                .bulk_load(pairs.clone())
                .unwrap();
            for (i, &k) in keys.iter().enumerate().step_by(101) {
                assert_eq!(tree.get(&k), Some(&(i as u64)), "{} e={error}", ds.name());
                if keys.binary_search(&(k + 1)).is_err() {
                    assert_eq!(tree.get(&(k + 1)), None, "{} e={error}", ds.name());
                }
            }
            // Insert between existing keys.
            for &k in keys.iter().step_by(503) {
                tree.insert(k + 1, u64::MAX);
            }
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("{} e={error}: {e}", ds.name()));
        }
    }
}

/// A secondary index over duplicate-heavy data agrees with a model
/// multimap.
#[test]
fn secondary_index_agrees_with_multimap() {
    let keys = fiting_datasets::Dataset::Maps.generate(30_000, 5);
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let idx = SecondaryIndex::bulk_load(64, pairs.clone()).unwrap();
    let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (k, r) in pairs {
        model.entry(k).or_default().push(r);
    }
    for (k, rows) in model.iter().step_by(37) {
        let got: Vec<u64> = idx.get(k).collect();
        assert_eq!(&got, rows, "key {k}");
    }
    idx.check_invariants().unwrap();
}
