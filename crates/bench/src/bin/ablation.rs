//! **Ablation** (beyond the paper's figures; see ARCHITECTURE.md
//! "Layer 1" for the lookup path it dissects): the buffer split ratio.
//! The paper fixes buffer = error/2 for the Figure 7 comparison; we
//! sweep the ratio at a fixed total error to show the read-side cost of
//! write headroom.
//!
//! Run: `cargo run --release -p fiting-bench --bin ablation`

#![forbid(unsafe_code)]

use fiting_bench::{
    dedup_pairs, default_n, default_probes, default_seed, print_table, sample_probes, time_per_op,
};
use fiting_datasets::Dataset;
use fiting_tree::FitingTreeBuilder;

fn main() {
    let n = default_n();
    let probes_n = default_probes();
    let seed = default_seed();
    println!("# Ablation ({n} rows, {probes_n} probes, Weblogs)");

    let pairs = dedup_pairs(Dataset::Weblogs.generate(n, seed));
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let probes = sample_probes(&keys, probes_n, seed);

    // Buffer split ratio at fixed total error.
    let total_error = 1024u64;
    let mut rows = Vec::new();
    for (label, buffer) in [
        ("1/8", total_error / 8),
        ("1/4", total_error / 4),
        ("1/2 (paper)", total_error / 2),
        ("7/8", total_error * 7 / 8),
    ] {
        let tree = FitingTreeBuilder::new(total_error)
            .buffer_size(buffer)
            .bulk_load(pairs.iter().copied())
            .unwrap();
        let ns = time_per_op(&probes, |p| tree.get(&p).copied());
        rows.push(vec![
            label.to_string(),
            buffer.to_string(),
            (total_error - buffer).to_string(),
            format!("{ns:.0}"),
            tree.segment_count().to_string(),
        ]);
    }
    print_table(
        &format!("lookup ns by buffer split (total error {total_error})"),
        &["split", "buffer", "seg error", "ns/lookup", "segments"],
        &rows,
    );
    println!("\nReading: larger buffers shrink the segmentation budget, producing more");
    println!("segments (bigger directory) in exchange for cheaper inserts.");
}
