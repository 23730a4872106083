//! `build_spans` against its definition. Each shard a sharded bulk load
//! builds is the tree `build_sorted` builds from that shard's span
//! alone, byte for byte, and every page of every shard is a window of
//! the one column the load copied the input into. The shards then take
//! an insert / remove / split / merge stream against a `BTreeMap`.

use crate::builder::FitingTreeBuilder;
use crate::clustered::FitingTree;
use crate::error::BuildError;
use crate::segment::Segment;
use crate::snapshot::encode_tree;
use fiting_datasets::{make_strictly_increasing, Dataset};
use fiting_index_api::{BuildableIndex, ShardedIndex};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

type Tree = FitingTree<u64, u64>;
type Sharded = ShardedIndex<u64, u64, Tree>;

fn config() -> FitingTreeBuilder {
    FitingTreeBuilder::new(32)
}

/// Every shard of `index` passes `check_invariants`.
fn check_shards(index: &Sharded, label: &str) {
    index.for_each_shard(|shard| {
        if let Err(why) = shard.check_invariants() {
            panic!("{label}: {why}");
        }
    });
}

/// `pairs` bulk-loaded into at most `shards` shards, each checked
/// against `build_sorted` of its span.
fn load_and_compare(pairs: &[(u64, u64)], shards: usize, label: &str) -> Sharded {
    let index = Sharded::bulk_load(&config(), shards, pairs.to_vec()).unwrap();
    let bounds = index.boundaries();
    let ends: Vec<usize> = bounds
        .iter()
        .map(|b| pairs.partition_point(|(k, _)| k < b))
        .chain([pairs.len()])
        .collect();
    let (mut shard, mut start) = (0, 0);
    let mut first: Option<Segment<u64, u64>> = None;
    index.for_each_shard(|tree| {
        let label = format!("{label}, shard {shard}");
        let alone = Tree::build_sorted(&config(), pairs[start..ends[shard]].to_vec()).unwrap();
        assert!(encode_tree(tree) == encode_tree(&alone), "{label}");
        tree.check_invariants().unwrap();
        for page in &tree.segments {
            let first = first.get_or_insert_with(|| (**page).clone());
            assert!(page.shares_column(first), "{label}: a page off the column");
        }
        start = ends[shard];
        shard += 1;
    });
    assert_eq!(shard, ends.len(), "{label}");
    index
}

#[test]
fn every_shard_is_the_tree_its_span_builds_alone() {
    for dataset in Dataset::headline() {
        let mut keys = dataset.generate(120_000, 42);
        make_strictly_increasing(&mut keys);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k / 3)).collect();
        for shards in [1, 2, 3, 7] {
            let label = format!("{}, {shards} shards", dataset.name());
            let index = load_and_compare(&pairs, shards, &label);
            assert_eq!(index.shard_count(), shards, "{label}");
        }
    }
}

#[test]
fn more_shards_than_boundary_keys() {
    let pairs: Vec<(u64, u64)> = (0..5).map(|k| (k * 9, k)).collect();
    assert_eq!(load_and_compare(&pairs, 16, "5 keys").shard_count(), 5);
    assert_eq!(load_and_compare(&pairs[..1], 4, "1 key").shard_count(), 1);
    assert_eq!(load_and_compare(&[], 4, "no keys").shard_count(), 1);
}

#[test]
fn empty_spans_load_empty_trees() {
    let pairs: Vec<(u64, u64)> = (0..1_000).map(|k| (k * k, k)).collect();
    let trees = Tree::build_spans(&config(), pairs.clone(), &[0, 400, 400, 1_000]).unwrap();
    let lens: Vec<usize> = trees.iter().map(Tree::len).collect();
    assert_eq!(lens, [0, 400, 0, 600]);
    for tree in &trees {
        tree.check_invariants().unwrap();
    }
    assert!(trees[3]
        .range(..)
        .map(|(&k, &v)| (k, v))
        .eq(pairs[400..].iter().copied()));
}

#[test]
fn an_unsorted_slot_is_named_in_the_input_not_the_span() {
    // The sharded layer cuts four spans of 250 000 pairs; the duplicate
    // sits 200 001 slots into the third.
    let mut pairs: Vec<(u64, u64)> = (0..1_000_000).map(|k| (3 * k, k)).collect();
    pairs[700_001].0 = pairs[700_000].0;
    let want = Some(BuildError::UnsortedInput { at: 700_001 });
    assert_eq!(Sharded::bulk_load(&config(), 4, pairs.clone()).err(), want);
    let spans = Tree::build_spans(&config(), pairs, &[10, 700_001, 1_000_000]);
    assert_eq!(spans.err(), want);
}

#[test]
fn shards_cut_from_one_column_take_writes_and_rebalances() {
    let mut keys = Dataset::Iot.generate(20_000, 43);
    make_strictly_increasing(&mut keys);
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 7)).collect();
    let index = load_and_compare(&pairs, 3, "IoT, 3 shards");
    let mut oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let top = keys[keys.len() - 1] + 100;
    let mut rng = StdRng::seed_from_u64(7);
    let (mut splits, mut merges) = (0, 0);
    for step in 0..6_000 {
        let key = rng.gen_range(0..top);
        match rng.gen_range(0..100) {
            0..=54 => assert_eq!(index.insert(key, step), oracle.insert(key, step)),
            55..=94 => {
                // Half the removals aim at stored keys.
                let key = if step % 2 == 0 {
                    keys[rng.gen_range(0..keys.len())]
                } else {
                    key
                };
                assert_eq!(index.remove(&key), oracle.remove(&key));
            }
            95..=97 => {
                let shard = rng.gen_range(0..index.shard_count());
                if let Ok(moved) = index.split_shard(shard, key) {
                    assert!(moved > 0);
                    splits += 1;
                }
                check_shards(&index, &format!("step {step}: split {shard} at {key}"));
            }
            _ => {
                if index.shard_count() > 1 {
                    let shard = rng.gen_range(0..index.shard_count() - 1);
                    index.merge_with_next(shard).unwrap();
                    merges += 1;
                    check_shards(&index, &format!("step {step}: merge {shard}"));
                }
            }
        }
        assert_eq!(index.len(), oracle.len(), "step {step}");
    }
    check_shards(&index, "after the stream");
    assert!(
        splits > 10 && merges > 10,
        "{splits} splits, {merges} merges"
    );
    let all = index.range_collect(..);
    assert!(all.iter().copied().eq(oracle.into_iter()));
}
