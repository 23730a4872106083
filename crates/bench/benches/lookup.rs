//! Criterion microbench: point lookups across index structures (the
//! paper's Figure 6 operation, in regression-trackable form).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fiting_baselines::{BinarySearchIndex, FixedPageIndex, FullIndex, SortedIndex};
use fiting_bench::{enumerate_pairs, sample_probes};
use fiting_datasets::Dataset;
use fiting_tree::FitingTreeBuilder;
use std::hint::black_box;

const N: usize = 500_000;
const PROBES: usize = 1_024;

fn bench_lookup(c: &mut Criterion) {
    let mut keys = Dataset::Iot.generate(N, 42);
    keys.dedup();
    let pairs = enumerate_pairs(&keys);
    let probes = sample_probes(&keys, PROBES, 7);

    let mut group = c.benchmark_group("lookup_iot");
    for error in [64u64, 1024] {
        let tree = FitingTreeBuilder::new(error)
            .bulk_load(pairs.iter().copied())
            .unwrap();
        group.bench_with_input(BenchmarkId::new("fiting", error), &tree, |b, t| {
            b.iter(|| {
                for &p in &probes {
                    black_box(t.get(black_box(&p)));
                }
            });
        });
        let fixed = FixedPageIndex::bulk_load(error as usize, pairs.iter().copied());
        group.bench_with_input(BenchmarkId::new("fixed", error), &fixed, |b, f| {
            b.iter(|| {
                for &p in &probes {
                    black_box(f.get(black_box(&p)));
                }
            });
        });
    }
    let full = FullIndex::bulk_load(pairs.iter().copied());
    group.bench_function("full", |b| {
        b.iter(|| {
            for &p in &probes {
                black_box(full.get(black_box(&p)));
            }
        });
    });
    let bin = BinarySearchIndex::bulk_load(pairs.iter().copied());
    group.bench_function("binary", |b| {
        b.iter(|| {
            for &p in &probes {
                black_box(bin.get(black_box(&p)));
            }
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lookup
}
criterion_main!(benches);
