//! Cross-crate integration: datasets → segmentation → index → baselines
//! → cost model, exercised together the way the benchmark harness and a
//! downstream user would.

use fiting::btree::{BPlusTree, FixedPageIndex};
use fiting::datasets::Dataset;
use fiting::index_api::BinarySearchIndex;
use fiting::plr::{validate::validate_segmentation, Point, ShrinkingCone};
use fiting::tree::cost::{CostModel, SegmentCountModel};
use fiting::tree::{FitingTreeBuilder, SecondaryIndex};
use fiting::DynSortedIndex;

fn dataset_pairs(ds: Dataset, n: usize) -> Vec<(u64, u64)> {
    let mut keys = ds.generate(n, 77);
    keys.dedup();
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect()
}

#[test]
fn segmentation_contract_holds_on_every_dataset() {
    for ds in [
        Dataset::Weblogs,
        Dataset::Iot,
        Dataset::Maps,
        Dataset::TaxiPickupTime,
        Dataset::TaxiDropLat,
        Dataset::TaxiDropLon,
        Dataset::Step(100),
        Dataset::Uniform,
    ] {
        let keys = ds.generate(30_000, 5);
        let points: Vec<Point> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Point::new(k as f64, i as u64))
            .collect();
        for error in [0u64, 10, 100, 1000] {
            let segs = ShrinkingCone::segment(&points, error);
            validate_segmentation(&points, &segs, error)
                .unwrap_or_else(|e| panic!("{} e={error}: {e}", ds.name()));
        }
    }
}

#[test]
fn all_index_structures_answer_identically() {
    let pairs = dataset_pairs(Dataset::Weblogs, 60_000);
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();

    let mut fiting = FitingTreeBuilder::new(64)
        .bulk_load(pairs.iter().copied())
        .unwrap();
    let mut full = BPlusTree::bulk_load(pairs.iter().copied());
    let mut fixed = FixedPageIndex::bulk_load(64, pairs.iter().copied());
    let mut binary = BinarySearchIndex::bulk_load(pairs.iter().copied());

    let indexes: [&mut dyn DynSortedIndex<u64, u64>; 4] =
        [&mut fiting, &mut full, &mut fixed, &mut binary];
    let mut results: Vec<Vec<Option<u64>>> = Vec::new();
    for idx in indexes {
        let mut per = Vec::new();
        for &k in keys.iter().step_by(101) {
            per.push(idx.dyn_get(&k));
            per.push(idx.dyn_get(&(k + 1)));
        }
        // Mixed churn.
        for &k in keys.iter().step_by(977) {
            idx.dyn_insert(k + 1, k);
        }
        for &k in keys.iter().step_by(101) {
            per.push(idx.dyn_get(&(k + 1)));
        }
        results.push(per);
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

#[test]
fn cost_model_configurations_are_feasible_end_to_end() {
    let pairs = dataset_pairs(Dataset::Iot, 100_000);
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let candidates = vec![16u64, 64, 256, 1024, 4096];
    let model = SegmentCountModel::learn(&keys, &candidates);
    let cost = CostModel::default();

    // Every candidate the selector returns must build an index whose
    // *actual* size is the estimate, within the budget the selector
    // was given.
    for budget in [8.0 * 1024.0, 64.0 * 1024.0, 1024.0 * 1024.0] {
        if let Some(e) = cost.pick_error_for_size(&model, budget) {
            let tree = FitingTreeBuilder::new(e)
                .bulk_load(pairs.iter().copied())
                .unwrap();
            let actual = tree.index_size_bytes() as f64;
            assert!(
                actual <= budget,
                "budget {budget}: picked e={e}, actual {actual} bytes"
            );
            assert_eq!(actual, cost.index_size_bytes(&model, e), "e = {e}");
        }
    }
}

#[test]
fn secondary_and_clustered_agree_on_unique_keys() {
    // On duplicate-free data a secondary index answers exactly like a
    // clustered one.
    let pairs = dataset_pairs(Dataset::Uniform, 40_000);
    let clustered = FitingTreeBuilder::new(32)
        .bulk_load(pairs.iter().copied())
        .unwrap();
    let secondary = SecondaryIndex::bulk_load(32, pairs.iter().copied()).unwrap();
    for &(k, v) in pairs.iter().step_by(53) {
        assert_eq!(clustered.get(&k), Some(&v));
        let rows: Vec<u64> = secondary.get(&k).collect();
        assert_eq!(rows, vec![v]);
    }
    assert_eq!(
        clustered.range(pairs[10].0..pairs[200].0).count(),
        secondary.range(pairs[10].0..pairs[200].0).count()
    );
}

#[test]
fn paper_headline_size_claim_holds() {
    // "Comparable performance, orders of magnitude less space": at a
    // moderate error the FITing-Tree index must be at least 50x smaller
    // than the dense index on every headline dataset.
    for ds in Dataset::headline() {
        let pairs = dataset_pairs(ds, 200_000);
        let fiting = FitingTreeBuilder::new(256)
            .bulk_load(pairs.iter().copied())
            .unwrap();
        let full = BPlusTree::bulk_load(pairs.iter().copied());
        let ratio = full.dyn_size_bytes() as f64 / fiting.index_size_bytes().max(1) as f64;
        assert!(
            ratio > 50.0,
            "{}: dense/FITing size ratio only {ratio:.1}",
            ds.name()
        );
    }
}

#[test]
fn step_dataset_reproduces_figure9_cliff() {
    let keys = fiting::datasets::step(50_000, 100);
    let dup_pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let below = SecondaryIndex::bulk_load_with(
        FitingTreeBuilder::new(50).buffer_size(0),
        dup_pairs.iter().copied(),
    )
    .unwrap();
    let above = SecondaryIndex::bulk_load_with(
        FitingTreeBuilder::new(150).buffer_size(0),
        dup_pairs.iter().copied(),
    )
    .unwrap();
    assert!(
        below.segment_count() >= 500,
        "below: {}",
        below.segment_count()
    );
    assert_eq!(above.segment_count(), 1, "above the step size: one segment");
}
