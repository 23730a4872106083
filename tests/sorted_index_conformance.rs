//! Conformance suite for the unified `SortedIndex` API: one shared
//! battery — bulk load, point hit/miss, overwrite, remove,
//! boundary-crossing range scans, empty index — run against **every**
//! implementation in the workspace, all constructed through
//! `BuildableIndex`. This is the paper's Section 7.1 fairness rule as
//! an executable contract: if a structure passes here, the benchmark
//! harness can drive it interchangeably.
//!
//! Plus a multi-threaded smoke test for the sharded concurrent
//! front-end (`ShardedIndex`), and the other half of its move contract:
//! a structure without the segment-run hooks is *refused* a split or a
//! merge — nothing is copied on its behalf.

use fiting::btree::{BPlusTree, FixedPageIndex};
use fiting::index_api::{BinarySearchIndex, RebalanceError, RebalanceOutcome, Rebalancer};
use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::{BuildableIndex, DynSortedIndex, ShardedIndex, SortedIndex};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Runs the full battery against one implementation.
fn battery<I: SortedIndex<u64, u64>>(name: &str, build: impl Fn(Vec<(u64, u64)>) -> I) {
    empty_index(name, &build);
    bulk_load_hit_miss(name, &build);
    overwrite_and_remove(name, &build);
    boundary_crossing_ranges(name, &build);
    churn_agrees_with_model(name, &build);
    batched_inserts_match_model(name, &build);
    collect_hook_appends_what_range_yields(name, &build);
}

/// `range_into` — the provided default and every override — appends
/// exactly what `range` yields, after whatever `out` already held, and
/// `range_collect` and the scan's count agree with it.
fn collect_hook_appends_what_range_yields<I: SortedIndex<u64, u64>>(
    name: &str,
    build: &impl Fn(Vec<(u64, u64)>) -> I,
) {
    let mut idx = build((0..3_000u64).map(|k| (k * 5, k)).collect());
    // Back-fills and removes, so a structure with buffers and
    // tombstones scans across both.
    for k in 0..600u64 {
        idx.insert(k * 25 + 2, k);
        idx.remove(&(k * 35));
    }
    let held = vec![(u64::MAX, 7)];
    let cases: Vec<(Bound<u64>, Bound<u64>)> = vec![
        (Bound::Unbounded, Bound::Unbounded),
        (Bound::Included(2), Bound::Excluded(2_002)),
        (Bound::Excluded(35), Bound::Included(7_000)),
        (Bound::Included(5_000), Bound::Excluded(5_000)), // empty
        (Bound::Included(14_990), Bound::Unbounded),
        (Bound::Unbounded, Bound::Included(27)),
    ];
    for (lo, hi) in cases {
        let want: Vec<(u64, u64)> = idx.range((lo, hi)).collect();
        let mut out = held.clone();
        idx.range_into((lo, hi), &mut out);
        assert_eq!(out[..1], held[..], "{name}: hook kept {lo:?}..{hi:?}");
        assert_eq!(out[1..], want[..], "{name}: hook {lo:?}..{hi:?}");
        assert_eq!(idx.range_collect((lo, hi)), want, "{name}: collect");
        assert_eq!(idx.range((lo, hi)).count(), want.len(), "{name}: count");
    }
}

fn batched_inserts_match_model<I: SortedIndex<u64, u64>>(
    name: &str,
    build: &impl Fn(Vec<(u64, u64)>) -> I,
) {
    let pairs: Vec<(u64, u64)> = (0..1_000u64).map(|k| (k * 2, k)).collect();
    let mut idx = build(pairs.clone());
    let mut model: BTreeMap<u64, u64> = pairs.into_iter().collect();

    // Unsorted batch mixing fresh keys and overwrites; a duplicate key
    // (9) must resolve last-write-wins.
    let batch = vec![(9, 1), (4, 90), (1_999, 2), (9, 3), (0, 91), (777, 4)];
    let mut fresh_model = 0;
    for &(k, v) in &batch {
        if model.insert(k, v).is_none() {
            fresh_model += 1;
        }
    }
    let fresh = idx.insert_many(batch);
    assert_eq!(fresh, fresh_model, "{name}: insert_many fresh count");
    assert_eq!(
        idx.get(&9),
        Some(&3),
        "{name}: duplicate key last-write-wins"
    );
    assert_eq!(idx.get(&4), Some(&90), "{name}: overwrite applied");
    assert_eq!(idx.len(), model.len(), "{name}: len after insert_many");

    let want: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(
        idx.range_collect(..),
        want,
        "{name}: contents after batches"
    );
}

fn empty_index<I: SortedIndex<u64, u64>>(name: &str, build: &impl Fn(Vec<(u64, u64)>) -> I) {
    let mut idx = build(Vec::new());
    assert_eq!(idx.len(), 0, "{name}: empty len");
    assert!(idx.is_empty(), "{name}: empty is_empty");
    assert_eq!(idx.get(&5), None, "{name}: empty get");
    assert_eq!(idx.remove(&5), None, "{name}: empty remove");
    assert_eq!(idx.range_collect(..), Vec::new(), "{name}: empty scan");
    // An empty index still accepts writes.
    assert_eq!(idx.insert(7, 70), None, "{name}: insert into empty");
    assert_eq!(idx.get(&7), Some(&70), "{name}: read back");
    assert_eq!(idx.len(), 1, "{name}: len after insert");
    assert_eq!(idx.remove(&7), Some(70), "{name}: remove last");
    assert!(idx.is_empty(), "{name}: empty again");
}

fn bulk_load_hit_miss<I: SortedIndex<u64, u64>>(name: &str, build: &impl Fn(Vec<(u64, u64)>) -> I) {
    let pairs: Vec<(u64, u64)> = (0..2_000u64).map(|k| (k * 3, k)).collect();
    let idx = build(pairs);
    assert_eq!(idx.len(), 2_000, "{name}: bulk len");
    for k in (0..2_000u64).step_by(19) {
        assert_eq!(idx.get(&(k * 3)), Some(&k), "{name}: hit {k}");
        assert_eq!(idx.get(&(k * 3 + 1)), None, "{name}: miss {k}");
        assert_eq!(idx.get(&(k * 3 + 2)), None, "{name}: miss {k}");
    }
    // Misses beyond both ends.
    assert_eq!(idx.get(&u64::MAX), None, "{name}: miss above");
    assert!(!idx.is_empty(), "{name}");
}

fn overwrite_and_remove<I: SortedIndex<u64, u64>>(
    name: &str,
    build: &impl Fn(Vec<(u64, u64)>) -> I,
) {
    let pairs: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 2, k)).collect();
    let mut idx = build(pairs);
    // Overwrite returns the shadowed value and keeps len.
    assert_eq!(idx.insert(100, 999), Some(50), "{name}: overwrite");
    assert_eq!(idx.get(&100), Some(&999), "{name}: new value visible");
    assert_eq!(idx.len(), 500, "{name}: overwrite keeps len");
    // Remove present / absent.
    assert_eq!(idx.remove(&100), Some(999), "{name}: remove hit");
    assert_eq!(idx.get(&100), None, "{name}: removed gone");
    assert_eq!(idx.remove(&100), None, "{name}: double remove");
    assert_eq!(idx.len(), 499, "{name}: len after remove");
    // Reinsert after remove.
    assert_eq!(idx.insert(100, 1), None, "{name}: reinsert");
    assert_eq!(idx.len(), 500, "{name}");
}

fn boundary_crossing_ranges<I: SortedIndex<u64, u64>>(
    name: &str,
    build: &impl Fn(Vec<(u64, u64)>) -> I,
) {
    // Keys spaced so segment/page/shard boundaries land mid-range for
    // every structure configuration used below.
    let pairs: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k * 5, k)).collect();
    let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let idx = build(pairs);

    let cases: Vec<(Bound<u64>, Bound<u64>)> = vec![
        (Bound::Unbounded, Bound::Unbounded),
        (Bound::Included(0), Bound::Included(14_995)),
        (Bound::Included(4_999), Bound::Included(5_001)), // straddles key 5000
        (Bound::Included(5_000), Bound::Excluded(5_000)), // empty
        (Bound::Excluded(5_000), Bound::Included(5_010)),
        (Bound::Included(1_234), Bound::Included(9_876)), // non-key endpoints
        (Bound::Unbounded, Bound::Excluded(50)),
        (Bound::Included(14_000), Bound::Unbounded),
        (Bound::Included(14_995), Bound::Included(u64::MAX)), // last key
    ];
    for (lo, hi) in cases {
        let got = idx.range_collect((lo, hi));
        let want: Vec<(u64, u64)> = model.range((lo, hi)).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "{name}: range {lo:?}..{hi:?}");
        assert_eq!(
            idx.range((lo, hi)).count(),
            want.len(),
            "{name}: count {lo:?}..{hi:?}"
        );
    }
    // Results come back in strictly increasing key order.
    let all = idx.range_collect(..);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "{name}: ordered");
}

fn churn_agrees_with_model<I: SortedIndex<u64, u64>>(
    name: &str,
    build: &impl Fn(Vec<(u64, u64)>) -> I,
) {
    let pairs: Vec<(u64, u64)> = (0..400u64).map(|k| (k * 4, k)).collect();
    let mut idx = build(pairs.clone());
    let mut model: BTreeMap<u64, u64> = pairs.into_iter().collect();
    // Deterministic xorshift churn: inserts, overwrites, removes.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..3_000u64 {
        let k = rng() % 2_000;
        match rng() % 4 {
            0 | 1 => assert_eq!(idx.insert(k, i), model.insert(k, i), "{name}: insert {k}"),
            2 => assert_eq!(idx.remove(&k), model.remove(&k), "{name}: remove {k}"),
            _ => assert_eq!(idx.get(&k), model.get(&k), "{name}: get {k}"),
        }
        assert_eq!(idx.len(), model.len(), "{name}: len parity");
    }
    let got = idx.range_collect(..);
    let want: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(got, want, "{name}: final scan");
}

/// A structure with no `split_off_tail` / `absorb_tail` cannot move a
/// run, so `ShardedIndex` refuses to move one for it — contents and
/// boundaries untouched — and a `Rebalancer` that wants a merge, then a
/// split, keeps observing instead of copying or panicking.
fn refuses_moves<I: BuildableIndex<u64, u64> + 'static>(name: &str, config: &I::Config) {
    let pairs: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k, k)).collect();
    let index: ShardedIndex<u64, u64, I> = ShardedIndex::bulk_load(config, 8, pairs).unwrap();
    let bounds = index.boundaries();
    let refused = |index: &ShardedIndex<u64, u64, I>, contents: &[(u64, u64)], when: &str| {
        assert_eq!(
            index.split_shard(0, 250),
            Err(RebalanceError::Refused),
            "{name} {when}"
        );
        assert_eq!(
            index.merge_with_next(0),
            Err(RebalanceError::Refused),
            "{name} {when}"
        );
        assert_eq!(index.boundaries(), bounds, "{name} {when}: boundaries");
        assert_eq!(index.range_collect(..), contents, "{name} {when}: contents");
    };
    refused(&index, &index.range_collect(..), "balanced");

    let mut rebalancer = Rebalancer::new();
    // Shards 5 and 6 hollowed out: the policy asks for their merge.
    for k in 2_502..3_498u64 {
        index.remove(&k);
    }
    for _ in 0..4 {
        assert_eq!(rebalancer.step(&index), RebalanceOutcome::Idle, "{name}");
    }
    // An appended tail on the last shard: the policy asks for its split.
    index.insert_many((4_000..8_000u64).map(|k| (k, k)));
    for _ in 0..4 {
        assert_eq!(
            rebalancer.step(&index),
            RebalanceOutcome::Watching,
            "{name}"
        );
    }
    assert_eq!(rebalancer.stats().splits + rebalancer.stats().merges, 0);
    refused(&index, &index.range_collect(..), "after rebalancer steps");
}

/// Two FITing-Tree shards built with different error budgets cannot
/// hand a run over (the moved segments' envelopes would not fit the
/// absorber's window): the merge is refused, not re-inserted entry by
/// entry.
#[test]
fn mixed_config_shards_refuse_to_merge() {
    let build = |error, keys: std::ops::Range<u64>| {
        FitingTree::build_from(&FitingTreeBuilder::new(error), keys.map(|k| (k, k))).unwrap()
    };
    let index = ShardedIndex::from_shards(
        vec![1_000],
        vec![build(16, 0..1_000), build(64, 1_000..2_000)],
    );
    let before = index.range_collect(..);
    assert_eq!(index.merge_with_next(0), Err(RebalanceError::Refused));
    assert_eq!(index.boundaries(), vec![1_000]);
    assert_eq!(index.range_collect(..), before);
    // Each side still splits on its own terms.
    assert_eq!(index.split_shard(1, 1_500), Ok(500));
}

#[test]
fn fiting_tree_conforms() {
    battery("FITing-Tree", |pairs| {
        FitingTree::build_sorted(&FitingTreeBuilder::new(32), pairs).unwrap()
    });
    // Tiny error: many segments, boundaries everywhere.
    battery("FITing-Tree(e=4)", |pairs| {
        FitingTree::build_sorted(&FitingTreeBuilder::new(4), pairs).unwrap()
    });
}

#[test]
fn bplus_tree_conforms() {
    battery("B+ tree", |pairs| {
        BPlusTree::build_sorted(&(), pairs).unwrap()
    });
    refuses_moves::<BPlusTree<u64, u64>>("B+ tree", &());
}

#[test]
fn fixed_page_index_conforms() {
    battery("Fixed(page=64)", |pairs| {
        FixedPageIndex::build_sorted(&64, pairs).unwrap()
    });
    // Tiny pages: every range crosses many pages, removes empty pages.
    battery("Fixed(page=4)", |pairs| {
        FixedPageIndex::build_sorted(&4, pairs).unwrap()
    });
    refuses_moves::<FixedPageIndex<u64, u64>>("Fixed(page=64)", &64);
}

#[test]
fn binary_search_index_conforms() {
    battery("Binary", |pairs| {
        BinarySearchIndex::build_sorted(&(), pairs).unwrap()
    });
}

/// The collect hook's remaining row: `DurableIndex`, which forwards the
/// hook to the structure it wraps as it forwards `range`. (The battery
/// runs it on every other structure; `BinarySearchIndex` keeps the
/// provided default.)
#[test]
fn collect_hook_conforms_for_durable_index() {
    use fiting::storage::{DurableConfig, DurableIndex, FsyncPolicy};

    let root = std::env::temp_dir().join(format!("fiting-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Off, FitingTreeBuilder::new(32)).unwrap();
    collect_hook_appends_what_range_yields("Durable", &|pairs| {
        DurableIndex::<u64, u64, FitingTree<u64, u64>>::build_sorted(&cfg, pairs).unwrap()
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// `build_sorted(v)`, the one-span `build_spans(v, &[v.len()])`, builds
/// what the streaming `build_from(v)` builds, for every structure: the
/// same contents and the same index bytes, and for the FITing-Tree,
/// whose `build_spans` copies the `Vec` its own way, the same snapshot
/// image, page for page.
fn vec_build_agrees<I: BuildableIndex<u64, u64>>(
    name: &str,
    config: &I::Config,
    encode: impl Fn(&I) -> Vec<u8>,
) {
    // A bend in the middle, so the learned structures cut several
    // segments, and an empty input.
    let curvy: Vec<(u64, u64)> = (0..20_000u64)
        .map(|k| (k * 3 + (k * k) / 40_000, k))
        .collect();
    for pairs in [curvy, Vec::new()] {
        let ctx = format!("{name}, {} pairs", pairs.len());
        let sorted = I::build_sorted(config, pairs.clone()).unwrap();
        let streamed = I::build_from(config, pairs.iter().copied()).unwrap();
        assert_eq!(sorted.range(..).collect::<Vec<_>>(), pairs, "{ctx}");
        assert_eq!(streamed.range(..).collect::<Vec<_>>(), pairs, "{ctx}");
        assert_eq!(sorted.len(), streamed.len(), "{ctx}");
        assert_eq!(sorted.size_bytes(), streamed.size_bytes(), "{ctx}");
        assert_eq!(encode(&sorted), encode(&streamed), "{ctx}");
    }
}

#[test]
fn build_sorted_builds_what_build_from_builds() {
    use fiting::storage::{DurableConfig, DurableIndex, FsyncPolicy};
    use fiting::tree::snapshot::encode_tree;

    fn no_image<T>(_: &T) -> Vec<u8> {
        Vec::new()
    }
    vec_build_agrees::<FitingTree<u64, u64>>("FITing-Tree", &FitingTreeBuilder::new(32), |t| {
        encode_tree(t)
    });
    vec_build_agrees::<FitingTree<u64, u64>>("FITing-Tree(e=4)", &FitingTreeBuilder::new(4), |t| {
        encode_tree(t)
    });
    vec_build_agrees::<BPlusTree<u64, u64>>("B+ tree", &(), no_image);
    vec_build_agrees::<FixedPageIndex<u64, u64>>("Fixed(page=64)", &64, no_image);
    vec_build_agrees::<BinarySearchIndex<u64, u64>>("Binary", &(), no_image);

    let root = std::env::temp_dir().join(format!("fiting-vec-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Off, FitingTreeBuilder::new(32)).unwrap();
    vec_build_agrees::<DurableIndex<u64, u64, FitingTree<u64, u64>>>("Durable", &cfg, no_image);
    let _ = std::fs::remove_dir_all(&root);
}

/// Every structure driven through the object-safe interface the
/// benchmark harness uses, `&mut dyn DynSortedIndex`: point reads,
/// writes and the size accounting answer as the static calls do.
#[test]
fn all_implementations_agree_through_dyn() {
    fn drive<I: SortedIndex<u64, u64>>(name: &str, index: &mut I) {
        let size = index.size_bytes();
        let dynamic: &mut dyn DynSortedIndex<u64, u64> = index;
        assert_eq!(dynamic.dyn_size_bytes(), size, "{name}");
        for k in (0..1000u64).step_by(13) {
            assert_eq!(dynamic.dyn_get(&(k * 2)), Some(k), "{name}");
            assert_eq!(dynamic.dyn_get(&(k * 2 + 1)), None, "{name}");
        }
        assert_eq!(dynamic.dyn_insert(5, 555), None, "{name}");
        assert_eq!(dynamic.dyn_insert(8, 888), Some(4), "{name}");
        assert_eq!(dynamic.dyn_get(&5), Some(555), "{name}");
        assert_eq!(index.len(), 1001, "{name}");
        assert_eq!(
            index.range_collect(0..=8),
            vec![(0, 0), (2, 1), (4, 2), (5, 555), (6, 3), (8, 888)],
            "{name}"
        );
        assert_eq!(index.get(&5), Some(&555), "{name}");
        let dynamic: &dyn DynSortedIndex<u64, u64> = index;
        assert_eq!(dynamic.dyn_size_bytes(), index.size_bytes(), "{name}");
    }

    use fiting::storage::{DurableConfig, DurableIndex, FsyncPolicy};
    let pairs: Vec<(u64, u64)> = (0..1000u64).map(|k| (k * 2, k)).collect();
    let mut fiting = FitingTreeBuilder::new(32).bulk_load(pairs.clone()).unwrap();
    let mut full = BPlusTree::bulk_load(pairs.clone());
    let mut fixed = FixedPageIndex::bulk_load(64, pairs.clone());
    let mut binary = BinarySearchIndex::bulk_load(pairs.clone());
    drive("FITing-Tree", &mut fiting);
    drive("Full", &mut full);
    drive("Fixed", &mut fixed);
    drive("Binary", &mut binary);
    let root = std::env::temp_dir().join(format!("fiting-dyn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Off, FitingTreeBuilder::new(32)).unwrap();
    let mut durable =
        DurableIndex::<u64, u64, FitingTree<u64, u64>>::build_sorted(&cfg, pairs).unwrap();
    drive("Durable", &mut durable);
    drop(durable);
    let _ = std::fs::remove_dir_all(&root);
}

/// The size-accounting contract across structures, on the same data:
/// dense > fixed-page > FITing-Tree > binary (= 0), and the sharded
/// front-end adds only routing metadata on top of its shards.
#[test]
fn size_accounting_contract() {
    let pairs: Vec<(u64, u64)> = (0..100_000u64).map(|k| (k, k)).collect();
    let full = BPlusTree::build_sorted(&(), pairs.clone()).unwrap();
    let fixed = FixedPageIndex::build_sorted(&128, pairs.clone()).unwrap();
    let fiting = FitingTree::build_sorted(&FitingTreeBuilder::new(64), pairs.clone()).unwrap();
    let binary = BinarySearchIndex::build_sorted(&(), pairs.clone()).unwrap();
    assert!(SortedIndex::size_bytes(&full) > SortedIndex::size_bytes(&fixed));
    assert!(SortedIndex::size_bytes(&fixed) > SortedIndex::size_bytes(&fiting));
    assert_eq!(SortedIndex::size_bytes(&binary), 0);

    let sharded: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), 8, pairs).unwrap();
    let mut shard_sum = 0;
    sharded.for_each_shard(|s| shard_sum += SortedIndex::size_bytes(s));
    assert_eq!(
        sharded.size_bytes(),
        shard_sum + sharded.shard_count() * fiting::index_api::SHARD_METADATA_BYTES
    );
}

/// Shard occupancy must be observable: `shard_lens` / `shard_stats`
/// see skewed growth (the rebalancing item's input signal), and the
/// per-shard sizes reconcile with the front-end's total.
#[test]
fn shard_stats_expose_imbalance() {
    let pairs: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k * 2, k)).collect();
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), 4, pairs).unwrap();
    let before = index.shard_stats();
    assert_eq!(before.len(), index.shard_count());
    assert_eq!(index.shard_lens().iter().sum::<usize>(), 10_000);
    for (len, stats) in index.shard_lens().iter().zip(&before) {
        assert_eq!(*len, stats.entries);
    }

    // Append-heavy growth: everything routes past the last boundary.
    index.insert_many((0..3_000u64).map(|k| (100_000 + k * 2, k)));
    assert_eq!(index.shard_of(&200_000), index.shard_count() - 1);
    let after = index.shard_stats();
    assert_eq!(
        after.last().unwrap().entries,
        before.last().unwrap().entries + 3_000,
        "growth lands in (and is visible on) the last shard"
    );
    assert_eq!(after[0].entries, before[0].entries, "first shard untouched");

    let shard_bytes: usize = after.iter().map(|s| s.size_bytes).sum();
    assert_eq!(
        index.size_bytes(),
        shard_bytes + index.shard_count() * fiting::index_api::SHARD_METADATA_BYTES
    );
}

/// Multi-threaded smoke test: concurrent readers, point writers, and a
/// batched writer against a sharded FITing-Tree; final state must match
/// a sequential model.
#[test]
fn sharded_index_concurrent_smoke() {
    let n = 20_000u64;
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 2, k)).collect();
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), 8, pairs).unwrap();
    assert_eq!(index.shard_count(), 8);

    std::thread::scope(|scope| {
        // Readers hammer point lookups and cross-shard scans while
        // writers run.
        for r in 0..4u64 {
            let index = index.clone();
            scope.spawn(move || {
                let mut hits = 0u64;
                for pass in 0..30u64 {
                    for k in (0..n).step_by(23) {
                        if index.get(&(k * 2)).is_some() {
                            hits += 1;
                        }
                    }
                    let lo = (r * 1_000 + pass) * 2;
                    let window = index.range_collect(lo..lo + 2_000);
                    assert!(window.windows(2).all(|w| w[0].0 < w[1].0));
                }
                assert!(hits > 0);
            });
        }
        // Point writer: odd keys, disjoint from the batch writer's.
        {
            let index = index.clone();
            scope.spawn(move || {
                for k in 0..2_000u64 {
                    index.insert(k * 4 + 1, k);
                }
            });
        }
        // Batch writer: one insert_many spanning all shards.
        {
            let index = index.clone();
            scope.spawn(move || {
                let fresh = index.insert_many((0..2_000u64).map(|k| (k * 4 + 3, k)));
                assert_eq!(fresh, 2_000);
            });
        }
    });

    assert_eq!(index.len(), (n + 4_000) as usize);
    let mut model: BTreeMap<u64, u64> = (0..n).map(|k| (k * 2, k)).collect();
    for k in 0..2_000u64 {
        model.insert(k * 4 + 1, k);
        model.insert(k * 4 + 3, k);
    }
    let want: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(index.range_collect(..), want);
    index.for_each_shard(|s| s.check_invariants().unwrap());
}
