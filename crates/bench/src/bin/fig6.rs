//! **Figure 6**: lookup latency vs index size, per dataset.
//!
//! For each of Weblogs / IoT / Maps the paper sweeps the FITing-Tree's
//! error and the fixed-page baseline's page size, plotting per-lookup
//! latency against index size, with the full index as a single point and
//! binary search as a zero-size horizontal line. Expected shape: the
//! FITing-Tree curve sits left of (smaller than) the fixed-page curve at
//! equal latency, by orders of magnitude, and both converge to the full
//! index's latency as the index grows.
//!
//! Every configuration is built and measured through the generic
//! [`fiting_bench::driver`] — one code path for all structures, the
//! paper's Section 7.1 fairness rule by construction.
//!
//! Maps is a non-clustered attribute with duplicates; as in the paper we
//! index its sorted key list. Baselines index the deduplicated keys
//! (which *favors* them on size); the FITing-Tree row additionally
//! reports the duplicate-aware secondary index.
//!
//! Run: `cargo run --release -p fiting-bench --bin fig6`

#![forbid(unsafe_code)]

use fiting_bench::driver::{
    binary_spec, fiting_spec, fixed_spec, full_spec, lookup_row, IndexSpec,
};
use fiting_bench::{
    dedup_pairs, default_n, default_probes, default_seed, error_sweep, fmt_bytes, print_table,
    sample_probes, time_per_op,
};
use fiting_datasets::Dataset;
use fiting_tree::SecondaryIndex;

fn main() {
    let n = default_n();
    let probes_n = default_probes();
    let seed = default_seed();
    println!("# Figure 6 — lookup latency vs index size ({n} rows, {probes_n} probes)");

    // The sweep: FITing-Tree across errors, fixed-size pages across
    // page sizes, one full index, one binary search.
    let mut specs: Vec<IndexSpec> = Vec::new();
    for error in error_sweep() {
        specs.push(fiting_spec(error));
    }
    for page in error_sweep() {
        specs.push(fixed_spec(page as usize));
    }
    specs.push(full_spec());
    specs.push(binary_spec());

    for ds in Dataset::headline() {
        let raw = ds.generate(n, seed);
        let pairs = dedup_pairs(raw.clone());
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let probes = sample_probes(&keys, probes_n, seed);

        let mut rows: Vec<Vec<String>> = specs
            .iter()
            .map(|spec| lookup_row(spec, &pairs, &probes))
            .collect();

        // Maps extra: the duplicate-aware non-clustered index (a
        // multi-value structure, outside the SortedIndex contract).
        if ds.has_duplicates() {
            let dup_pairs: Vec<(u64, u64)> = raw
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u64))
                .collect();
            for error in [64u64, 1024] {
                let idx = SecondaryIndex::bulk_load(error, dup_pairs.iter().copied()).unwrap();
                let ns = time_per_op(&probes, |p| idx.get(&p).next());
                rows.push(vec![
                    "FITing-Tree (secondary)".into(),
                    format!("e={error}"),
                    fmt_bytes(idx.index_size_bytes()),
                    format!("{ns:.0}"),
                ]);
            }
        }

        print_table(
            &format!("{} — latency vs index size", ds.name()),
            &["System", "Param", "Index size", "ns/lookup"],
            &rows,
        );
    }
    println!("\nPaper reference (Fig 6): FITing-Tree matches full-index latency at MB-scale");
    println!("index sizes while fixed-size paging needs GB-scale; tiny indexes of both");
    println!("approaches degenerate to binary-search latency.");
}
