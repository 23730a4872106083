//! Model-based and property tests for the FITing-Tree: under arbitrary
//! operation sequences it must behave exactly like `BTreeMap`, while
//! maintaining the paper's structural guarantees.

use fiting_tree::{FitingTreeBuilder, SecondaryIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Remove(u32),
    Get(u32),
    Range(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u32>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 4096, v)),
        2 => any::<u32>().prop_map(|k| Op::Remove(k % 4096)),
        2 => any::<u32>().prop_map(|k| Op::Get(k % 4096)),
        1 => (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Op::Range(a % 4096, b % 4096)),
    ]
}

fn run_against_model(error: u64, buffer: Option<u64>, seed_keys: Vec<u32>, ops: Vec<Op>) {
    let mut builder = FitingTreeBuilder::new(error);
    if let Some(b) = buffer {
        builder = builder.buffer_size(b);
    }
    let mut sorted: Vec<u32> = seed_keys;
    sorted.sort_unstable();
    sorted.dedup();
    let pairs: Vec<(u32, u32)> = sorted.iter().map(|&k| (k, k ^ 0xaaaa)).collect();
    let mut tree = builder.bulk_load(pairs.clone()).unwrap();
    let mut model: BTreeMap<u32, u32> = pairs.into_iter().collect();

    for op in ops {
        match op {
            Op::Insert(k, v) => {
                assert_eq!(tree.insert(k, v), model.insert(k, v), "insert {k}");
            }
            Op::Remove(k) => {
                assert_eq!(tree.remove(&k), model.remove(&k), "remove {k}");
            }
            Op::Get(k) => {
                assert_eq!(tree.get(&k), model.get(&k), "get {k}");
            }
            Op::Range(a, b) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let got: Vec<(u32, u32)> = tree.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u32, u32)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "range {lo}..={hi}");
            }
        }
        assert_eq!(tree.len(), model.len());
    }
    tree.check_invariants().unwrap();
    let got: Vec<u32> = tree.iter().map(|(k, _)| *k).collect();
    let want: Vec<u32> = model.keys().copied().collect();
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn agrees_with_btreemap_default_buffer(
        seed in proptest::collection::vec(any::<u32>().prop_map(|k| k % 4096), 0..300),
        ops in proptest::collection::vec(op_strategy(), 0..300),
        error in 2u64..128,
    ) {
        run_against_model(error, None, seed, ops);
    }

    #[test]
    fn agrees_with_btreemap_tiny_buffer(
        seed in proptest::collection::vec(any::<u32>().prop_map(|k| k % 4096), 0..200),
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        // Buffer of 1: almost every insert triggers re-segmentation.
        run_against_model(8, Some(1), seed, ops);
    }

    #[test]
    fn agrees_with_btreemap_zero_error(
        seed in proptest::collection::vec(any::<u32>().prop_map(|k| k % 1024), 0..150),
        ops in proptest::collection::vec(op_strategy(), 0..150),
    ) {
        run_against_model(0, Some(0), seed, ops);
    }

    /// The error guarantee under churn: after any op sequence, every key
    /// present is found — meaning interpolation + windowed search never
    /// misses. (check_invariants verifies the window bound per key.)
    #[test]
    fn error_bound_survives_churn(
        ops in proptest::collection::vec(op_strategy(), 0..400),
    ) {
        run_against_model(16, None, (0..512u32).collect(), ops);
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
