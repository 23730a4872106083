//! Developer probe: decomposes FITing-Tree vs fixed-page lookup latency
//! into directory-tree and in-page phases on this machine.

use fiting_baselines::{FixedPageIndex, SortedIndex};
use fiting_bench::*;
use fiting_datasets::Dataset;
use fiting_tree::FitingTreeBuilder;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let n = 2_000_000;
    let keys = Dataset::Weblogs.generate(n, 42);
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let probes = sample_probes(&keys, 200_000, 7);

    let tree = FitingTreeBuilder::new(1024)
        .bulk_load(pairs.iter().copied())
        .unwrap();
    let tree0 = FitingTreeBuilder::new(1024)
        .buffer_size(0)
        .bulk_load(pairs.iter().copied())
        .unwrap();
    let fixed = FixedPageIndex::bulk_load(4096, pairs.iter().copied());

    for round in 0..3 {
        let t = time_per_op(&probes, |p| tree.get(&p).copied());
        let t0 = time_per_op(&probes, |p| tree0.get(&p).copied());
        let f = time_per_op(&probes, |p| fixed.get(&p).copied());
        println!("round {round}: fiting={t:.0}ns fiting(buf0)={t0:.0}ns fixed(4096)={f:.0}ns  segs={} segs0={} pages={}",
            tree.segment_count(), tree0.segment_count(), fixed.page_count());
    }
    // decompose: floor-only vs full
    let start = Instant::now();
    for &p in &probes {
        black_box(tree.get_traced(&p));
    }
    let _ = start.elapsed();
    let mut tn = 0u64;
    let mut sn = 0u64;
    for &p in &probes {
        let (_, tr) = tree.get_traced(&p);
        tn += tr.tree_nanos;
        sn += tr.segment_nanos;
    }
    println!(
        "fiting phases: tree={:.0}ns seg={:.0}ns",
        tn as f64 / probes.len() as f64,
        sn as f64 / probes.len() as f64
    );
    let mut tn = 0u64;
    let mut sn = 0u64;
    for &p in &probes {
        let (_, tr) = fixed.get_traced(&p);
        tn += tr.0;
        sn += tr.1;
    }
    println!(
        "fixed  phases: tree={:.0}ns page={:.0}ns",
        tn as f64 / probes.len() as f64,
        sn as f64 / probes.len() as f64
    );
}
