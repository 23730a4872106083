//! `ShardedIndex` itself under the model checker: `get` and `insert`
//! as they ship — `Snapshots::read`'s pin, `SeqRwLock::read_with` /
//! `write`, the version check and `still_owns` — racing the real
//! `split_shard` and `merge_with_next` (`RUSTFLAGS="--cfg
//! fiting_model"`; the file is empty in a normal build). Each model
//! clears `shuttle::model::battery`'s budget of DFS schedules and as
//! many seeded walks. The bug classes the rebalance protocol exists to
//! prevent (publishing after the shard lock is released, two mergers
//! locking a pair in opposite orders) are pinned on fixtures in
//! `crates/compat/shuttle/tests`; CHANGES.md (PR 24) lists the mutants
//! of `sharded.rs` run through these models by hand.
#![cfg(fiting_model)]

use fiting_index_api::{BinarySearchIndex, BuildableIndex, ShardedIndex};
use shuttle::{model, thread};

type Index = ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>>;

/// Two shards split at key 10, each key mapped to itself.
fn two_shards(lower: &[u64], upper: &[u64]) -> Index {
    let shard = |keys: &[u64]| {
        let Ok(built) = BinarySearchIndex::build_from(&(), keys.iter().map(|&k| (k, k)));
        built
    };
    ShardedIndex::from_shards(vec![10], vec![shard(lower), shard(upper)])
}

/// A key that starts in the split shard is found in *every*
/// interleaving — before the split, after it, or when the reader routed
/// under the old table and entered the shard after the run had moved.
#[test]
fn get_racing_split_shard() {
    model::battery("get vs split_shard", || {
        let index = two_shards(&[1, 5], &[10, 15]);
        let splitter = index.clone();
        let split = thread::spawn(move || splitter.split_shard(0, 5));
        assert_eq!(index.get(&5), Some(5), "key 5 lost during split");
        assert_eq!(index.get(&1), Some(1), "key 1 lost during split");
        assert_eq!(split.join().unwrap(), Ok(1));
        assert_eq!(index.boundaries(), vec![5, 10]);
        assert_eq!((index.get(&5), index.get(&1)), (Some(5), Some(1)));
    });
}

/// Keep→retire merge racing readers of both shards: every key stays
/// reachable, and the two write locks held in ascending order cannot
/// deadlock against single-section readers.
#[test]
fn get_racing_merge_with_next() {
    model::battery("get vs merge_with_next", || {
        let index = two_shards(&[1], &[10]);
        let merger = index.clone();
        let merge = thread::spawn(move || merger.merge_with_next(0));
        assert_eq!(index.get(&10), Some(10), "retired shard's key lost");
        assert_eq!(index.get(&1), Some(1), "kept shard's key lost");
        assert_eq!(merge.join().unwrap(), Ok(1));
        assert_eq!(index.shard_count(), 1);
        assert_eq!((index.get(&10), index.get(&1)), (Some(10), Some(1)));
    });
}

/// A write routed to the shard being split lands exactly once, on
/// whichever side of the new boundary owns its key when it enters.
#[test]
fn insert_racing_split_shard() {
    model::battery("insert vs split_shard", || {
        let index = two_shards(&[1, 5], &[10, 15]);
        let splitter = index.clone();
        let split = thread::spawn(move || splitter.split_shard(0, 5));
        assert_eq!(index.insert(7, 70), None);
        // Key 7 moved with the run if it was inserted before the cut.
        assert!(matches!(split.join().unwrap(), Ok(1 | 2)));
        assert_eq!(index.get(&7), Some(70), "acknowledged insert lost");
        assert_eq!(index.range_collect(..).len(), 5);
    });
}
