//! Weblog analytics under a storage budget — the paper's DBA story
//! (Section 6): "I have 64 KB of memory for this index and a 500 ns
//! lookup latency requirement; configure it for me."
//!
//! Shows: learning the per-dataset segment-count model, both cost-model
//! selectors, and the resulting index compared against a dense B+ tree.
//!
//! Run: `cargo run --release --example weblog_analytics`

use fiting::baselines::{FullIndex, SortedIndex};
use fiting::datasets;
use fiting::tree::cost::{CostModel, SegmentCountModel};
use fiting::tree::FitingTreeBuilder;

fn main() {
    let keys = datasets::weblogs(2_000_000, 11);
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();

    // Learn how compressible this dataset is: segments as a function of
    // the error threshold (one O(n) ShrinkingCone pass per candidate).
    let candidates: Vec<u64> = vec![16, 64, 256, 1024, 4096, 16384];
    let model = SegmentCountModel::learn(&keys, &candidates);
    println!("segment counts by error:");
    for &e in &candidates {
        println!("  e={e:<6} -> {:>8.0} segments", model.segments_at(e));
    }

    let cost = CostModel::default(); // c = 100ns, the paper's conservative choice

    // Scenario 1: storage budget of 64 KB.
    let budget = 64.0 * 1024.0;
    match cost.pick_error_for_size(&model, budget) {
        Some(e) => {
            let tree = FitingTreeBuilder::new(e)
                .bulk_load(pairs.iter().copied())
                .unwrap();
            println!(
                "\nbudget 64 KB -> error {e}: actual index {} bytes, {} segments",
                tree.index_size_bytes(),
                tree.segment_count()
            );
        }
        None => println!("\nbudget 64 KB: infeasible for this dataset"),
    }

    // Scenario 2: the abstract's lookup latency requirement of 500 ns.
    match cost.pick_error_for_latency(&model, 500.0) {
        Some(e) => {
            let tree = FitingTreeBuilder::new(e)
                .bulk_load(pairs.iter().copied())
                .unwrap();
            let est = cost.lookup_latency_ns(&model, e);
            println!(
                "SLA 500 ns -> error {e}: estimated {est:.0} ns, index {} bytes",
                tree.index_size_bytes()
            );
        }
        None => println!("SLA 500 ns: no candidate error meets it"),
    }

    // The comparison the paper leads with: same data, dense index.
    let full = FullIndex::bulk_load(pairs.iter().copied());
    let fiting = FitingTreeBuilder::new(256)
        .bulk_load(pairs.iter().copied())
        .unwrap();
    println!(
        "\ndense B+ tree: {} bytes; FITing-Tree(e=256): {} bytes — {}x smaller",
        full.size_bytes(),
        fiting.index_size_bytes(),
        full.size_bytes() / fiting.index_size_bytes().max(1)
    );

    // Both answer the same queries.
    for &k in keys.iter().step_by(400_003) {
        assert_eq!(fiting.get(&k), full.get(&k));
    }
    println!("spot-checked: identical answers on sampled lookups");
}
