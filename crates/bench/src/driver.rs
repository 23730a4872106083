//! Generic benchmark drivers over the unified [`DynSortedIndex`]
//! interface.
//!
//! The figure binaries declare *which* structures to measure as a
//! list of [`IndexSpec`]s — a label plus a boxed builder — and drive
//! every one of them through the same object-safe trait, which is the
//! paper's fairness rule (Section 7.1) enforced by construction: the
//! measurement loop literally cannot special-case a structure.

use crate::{fmt_bytes, throughput_mops, time_per_op};
use fiting_baselines::{BinarySearchIndex, FixedPageIndex, FullIndex};
use fiting_index_api::DynSortedIndex;
use fiting_tree::FitingTreeBuilder;

/// A boxed index over the standard `u64 -> u64` bench schema.
pub type DynIndex = Box<dyn DynSortedIndex<u64, u64>>;

/// A boxed builder from bulk-load pairs to a [`DynIndex`].
type BuildFn = Box<dyn Fn(&[(u64, u64)]) -> DynIndex>;

/// A named recipe for building one index configuration from bulk-load
/// pairs.
pub struct IndexSpec {
    /// Structure name as the paper's tables label it.
    pub label: &'static str,
    /// Sweep parameter rendered for the table (e.g. `e=64`, `page=256`).
    pub param: String,
    build: BuildFn,
}

impl IndexSpec {
    /// Creates a spec from a label, a parameter string, and a builder.
    pub fn new(
        label: &'static str,
        param: impl Into<String>,
        build: impl Fn(&[(u64, u64)]) -> DynIndex + 'static,
    ) -> Self {
        IndexSpec {
            label,
            param: param.into(),
            build: Box::new(build),
        }
    }

    /// Builds the index over `pairs` (strictly increasing keys).
    #[must_use]
    pub fn build(&self, pairs: &[(u64, u64)]) -> DynIndex {
        (self.build)(pairs)
    }
}

/// FITing-Tree at the given error budget.
#[must_use]
pub fn fiting_spec(error: u64) -> IndexSpec {
    IndexSpec::new("FITing-Tree", format!("e={error}"), move |pairs| {
        Box::new(
            FitingTreeBuilder::new(error)
                .bulk_load(pairs.iter().copied())
                .expect("bench data is strictly increasing"),
        )
    })
}

/// Fixed-size-page sparse index at the given page capacity.
#[must_use]
pub fn fixed_spec(page_size: usize) -> IndexSpec {
    IndexSpec::new("Fixed", format!("page={page_size}"), move |pairs| {
        Box::new(FixedPageIndex::bulk_load(page_size, pairs.iter().copied()))
    })
}

/// Dense B+ tree index (one entry per key).
#[must_use]
pub fn full_spec() -> IndexSpec {
    IndexSpec::new("Full", "-", |pairs| {
        Box::new(FullIndex::bulk_load(pairs.iter().copied()))
    })
}

/// Plain binary search over the sorted data (zero index bytes).
#[must_use]
pub fn binary_spec() -> IndexSpec {
    IndexSpec::new("Binary", "-", |pairs| {
        Box::new(BinarySearchIndex::bulk_load(pairs.iter().copied()))
    })
}

/// Mean nanoseconds per point lookup over `probes`.
#[must_use]
pub fn lookup_ns(index: &DynIndex, probes: &[u64]) -> f64 {
    time_per_op(probes, |p| index.dyn_get(&p))
}

/// Insert throughput in million ops/second over `stream` (keys map to
/// themselves).
#[must_use]
pub fn insert_mops(index: &mut DynIndex, stream: &[u64]) -> f64 {
    throughput_mops(stream, |k| index.dyn_insert(k, k))
}

/// Batched insert throughput in million ops/second: `stream` is cut
/// into chunks of `batch` keys and applied through
/// [`DynSortedIndex::insert_many_dyn`], the trait-object bulk path the
/// service layer also uses.
#[must_use]
pub fn batched_insert_mops(index: &mut DynIndex, stream: &[u64], batch: usize) -> f64 {
    assert!(batch >= 1 && !stream.is_empty());
    let start = std::time::Instant::now();
    for chunk in stream.chunks(batch) {
        let pairs: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k)).collect();
        std::hint::black_box(index.insert_many_dyn(pairs));
    }
    stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// One standard measurement row: `[label, param, size, ns/lookup]`.
#[must_use]
pub fn lookup_row(spec: &IndexSpec, pairs: &[(u64, u64)], probes: &[u64]) -> Vec<String> {
    let index = spec.build(pairs);
    let ns = lookup_ns(&index, probes);
    vec![
        spec.label.to_string(),
        spec.param.clone(),
        fmt_bytes(index.dyn_size_bytes()),
        format!("{ns:.0}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_and_answers() {
        let pairs: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k * 2, k)).collect();
        let probes: Vec<u64> = (0..500u64).map(|k| k * 20).collect();
        let specs = vec![fiting_spec(64), fixed_spec(64), full_spec(), binary_spec()];
        for spec in &specs {
            let mut index = spec.build(&pairs);
            assert_eq!(index.dyn_len(), 5_000, "{}", spec.label);
            assert_eq!(index.dyn_get(&20), Some(10), "{}", spec.label);
            assert_eq!(index.dyn_get(&21), None, "{}", spec.label);
            let ns = lookup_ns(&index, &probes);
            assert!(ns >= 0.0);
            let inserted = insert_mops(&mut index, &[1, 3, 5]);
            assert!(inserted > 0.0);
            assert_eq!(index.dyn_len(), 5_003, "{}", spec.label);
            let batched = batched_insert_mops(&mut index, &[7, 9, 11, 13, 15], 2);
            assert!(batched > 0.0);
            assert_eq!(index.dyn_len(), 5_008, "{}", spec.label);
            let row = lookup_row(spec, &pairs, &probes);
            assert_eq!(row.len(), 4);
        }
    }

    #[test]
    fn sizes_keep_the_papers_ordering() {
        let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k, k)).collect();
        let full = full_spec().build(&pairs);
        let fixed = fixed_spec(128).build(&pairs);
        let fiting = fiting_spec(64).build(&pairs);
        let binary = binary_spec().build(&pairs);
        assert!(full.dyn_size_bytes() > fixed.dyn_size_bytes());
        assert!(fixed.dyn_size_bytes() > fiting.dyn_size_bytes());
        assert_eq!(binary.dyn_size_bytes(), 0);
    }
}
