//! Durability layer for the FITing-Tree workspace: snapshot pages +
//! write-ahead log + crash-consistent recovery, behind an injectable
//! I/O boundary with a classified fault taxonomy.
//!
//! The rest of the workspace is volatile by design — the paper's
//! evaluation is in-memory — but the FITing-Tree's size advantage
//! (Section 6.2) matters most at scales where restart cost does too.
//! This crate adds the missing layer without touching the in-memory
//! hot paths:
//!
//! * [`StorageIo`] — the boundary every durable-path syscall crosses:
//!   [`RealIo`] in production, [`FaultIo`] (a deterministic, seeded
//!   fault harness) in the chaos battery.
//! * [`StorageError`] — the fault taxonomy: every failure is
//!   classified transient vs permanent; a [`RetryPolicy`] absorbs
//!   transients with capped, jittered exponential backoff before anyone
//!   upstream sees them.
//! * [`Wal`] — the per-shard write-ahead log: per-record CRC32,
//!   group-commit batching, [`FsyncPolicy`] knobs, and a replay that
//!   truncates at the first torn/corrupt record.
//! * [`DurableIndex`] — wraps any [`SortedIndex`] structure that can
//!   snapshot itself ([`PageSnapshot`], implemented for `FitingTree`
//!   via the core snapshot codec), logging every mutation and
//!   checkpointing on demand. Implements `SortedIndex` +
//!   `BuildableIndex`, so it drops into [`ShardedIndex`] and the
//!   service layer unchanged — rebalance splits/merges rotate the
//!   per-shard logs automatically. A permanent WAL/checkpoint fault
//!   flips the shard into degraded read-only mode (typed refusals on
//!   the `try_*` vocabulary, reads unaffected) until a successful
//!   checkpoint heals it.
//!
//! [`SortedIndex`]: fiting_index_api::SortedIndex
//! [`ShardedIndex`]: fiting_index_api::ShardedIndex
//! * [`open_sharded`] — store-level recovery: reopen every shard
//!   (newest intact snapshot + WAL tail), reconcile overlapping spans
//!   left by an interrupted split/merge, skip-and-report
//!   unrecoverable directories, reassemble the `ShardedIndex`.
//!
//! Restart cost is the point: replaying a bounded WAL tail over a
//! decoded snapshot is far cheaper than re-running segmentation over
//! the full dataset — the `durability` bench bin records the ratio at
//! n=10M into `BENCH_durability.json`.
//!
//! # Quickstart
//!
//! ```
//! use fiting_index_api::SortedIndex;
//! use fiting_storage::{DurableConfig, DurableIndex, FsyncPolicy};
//! use fiting_tree::{FitingTree, FitingTreeBuilder};
//! use fiting_index_api::BuildableIndex;
//!
//! let root = std::env::temp_dir().join(format!("fiting-doc-{}", std::process::id()));
//! let config = DurableConfig::new(&root, FsyncPolicy::Always, FitingTreeBuilder::new(32)).unwrap();
//!
//! // Build a durable shard, mutate it, group-commit.
//! let mut index: DurableIndex<u64, u64> =
//!     DurableIndex::build_sorted(&config, (0..1000u64).map(|k| (k * 2, k))).unwrap();
//! index.insert(1001, 7);
//! index.remove(&0);
//! index.try_sync().expect("the log reaches the disk"); // durable up to here
//! let dir = index.shard_dir().to_path_buf();
//! drop(index); // "crash"
//!
//! // Reopen: snapshot + WAL replay.
//! let (recovered, info) = DurableIndex::<u64, u64, FitingTree<u64, u64>>::open_shard(&config, &dir).unwrap();
//! assert_eq!(recovered.get(&1001), Some(&7));
//! assert_eq!(recovered.get(&0), None);
//! assert_eq!(info.replayed, 2);
//! # std::fs::remove_dir_all(&root).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod durable;
mod error;
mod fault;
mod io;
mod wal;

pub use durable::{
    open_sharded, DurableConfig, DurableIndex, OpenError, PageSnapshot, RecoveredStore,
    ShardRecovery, SkippedShard, StorageBuildError, StoreReport,
};
pub use error::{IoOp, RetryPolicy, StorageError};
pub use fault::{FaultIo, FaultPlan, InjectKind};
pub use io::{IoFile, RealIo, StorageIo};
pub use wal::{FsyncPolicy, Wal, WalOp};

// Re-exported so durability consumers can checksum without depending
// on the core crate directly.
pub use fiting_tree::snapshot::{crc32, SnapshotError};

#[cfg(test)]
mod tests {
    use super::*;
    use fiting_index_api::{BuildableIndex, RebalanceError, ShardHealth, SortedIndex};
    use fiting_tree::{FitingTree, FitingTreeBuilder};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fiting-storage-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn config(root: &PathBuf) -> DurableConfig<FitingTreeBuilder> {
        DurableConfig::new(root, FsyncPolicy::EveryN(4), FitingTreeBuilder::new(64)).unwrap()
    }

    fn fault_config(root: &PathBuf, io: &FaultIo) -> DurableConfig<FitingTreeBuilder> {
        DurableConfig::with_io(
            root,
            FsyncPolicy::Always,
            FitingTreeBuilder::new(64),
            Arc::new(io.clone()),
            RetryPolicy::immediate(3),
        )
        .unwrap()
    }

    type Durable = DurableIndex<u64, u64, FitingTree<u64, u64>>;

    #[test]
    fn build_mutate_reopen_recovers_everything_synced() {
        let root = temp_root("reopen");
        let cfg = config(&root);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..5000u64).map(|k| (k * 2, k))).unwrap();
        assert_eq!(idx.name(), "Durable");
        assert!(idx.disk_bytes() > 0);
        assert_eq!(idx.wal_bytes(), 0);

        idx.insert(9999, 1);
        idx.remove(&0);
        idx.insert_many(vec![(11111, 2), (11113, 3)]);
        assert!(idx.wal_bytes() > 0);
        assert!(idx.try_sync().expect("the log reaches the disk"));
        let dir = idx.shard_dir().to_path_buf();
        let expect: Vec<(u64, u64)> = idx.range(..).collect();
        drop(idx);

        let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
        assert_eq!(info.replayed, 3);
        assert!(!info.wal_truncated);
        assert_eq!(back.range(..).collect::<Vec<_>>(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_rotates_generation_and_empties_wal() {
        let root = temp_root("ckpt");
        let cfg = config(&root);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..1000u64).map(|k| (k, k))).unwrap();
        idx.insert(5000, 5);
        assert!(idx.wal_bytes() > 0);
        assert_eq!(idx.generation(), 0);
        assert!(idx.try_checkpoint().unwrap());
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.wal_bytes(), 0);
        // Old generation files are gone; new pair exists.
        let dir = idx.shard_dir().to_path_buf();
        assert!(!dir.join("snapshot.000000").exists());
        assert!(!dir.join("wal.000000").exists());
        assert!(dir.join("snapshot.000001").exists());
        assert!(dir.join("wal.000001").exists());
        drop(idx);
        let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.replayed, 0);
        assert_eq!(back.get(&5000), Some(&5));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_generation() {
        let root = temp_root("fallback");
        let cfg = config(&root);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..500u64).map(|k| (k, k))).unwrap();
        idx.insert(9000, 9);
        idx.try_sync().expect("the log reaches the disk");
        let dir = idx.shard_dir().to_path_buf();
        drop(idx);
        // Plant a corrupt "newer" snapshot; recovery must skip it and
        // use generation 0 + its log.
        std::fs::write(dir.join("snapshot.000007"), b"garbage").unwrap();
        let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
        assert_eq!(info.generation, 0);
        assert_eq!(info.replayed, 1);
        assert_eq!(back.get(&9000), Some(&9));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_carries_unflushable_acknowledged_records() {
        let root = temp_root("carry");
        let io = FaultIo::quiet();
        let cfg = fault_config(&root, &io);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..100u64).map(|k| (k, k))).unwrap();
        // Acknowledged but never committed: lives only in the buffer.
        assert_eq!(idx.try_insert(7777, 70), Ok(None));
        assert_eq!(idx.try_remove(&0), Ok(Some(0)));
        // The reopen's own flush attempt hits ENOSPC — the records
        // must ride across the reload instead of dying with the
        // handle (this is the lane-resurrection path).
        io.fail_nth(IoOp::Write, "wal.000000", 1, InjectKind::Enospc, false);
        assert!(idx.reload());
        assert_eq!(idx.get(&7777), Some(&70));
        assert_eq!(idx.get(&0), None);
        // The carried suffix was re-logged and committed by the
        // reopen; a second, fully clean reload proves it hit disk.
        assert!(idx.reload());
        assert_eq!(idx.get(&7777), Some(&70));
        assert_eq!(idx.get(&0), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sharded_store_splits_merges_and_reopens() {
        use fiting_index_api::ShardedIndex;
        let root = temp_root("sharded");
        let cfg = config(&root);
        let index: ShardedIndex<u64, u64, Durable> =
            ShardedIndex::bulk_load(&cfg, 4, (0..8000u64).map(|k| (k, k)).collect()).unwrap();
        assert_eq!(index.shard_count(), 4);

        // Native split path rotates logs and mints a new shard dir.
        let moved = index.split_shard(0, 1000).unwrap();
        assert!(moved > 0);
        assert_eq!(index.shard_count(), 5);
        // Merge drains a shard; its directory stays behind (empty).
        index.merge_with_next(0).unwrap();
        assert_eq!(index.shard_count(), 4);

        index.insert(90001, 42);
        assert_eq!(index.sync_all(), 4);
        let stats = index.shard_stats();
        assert!(stats.iter().all(|s| s.disk_bytes > 0));
        assert!(stats.iter().any(|s| s.wal_bytes > 0));
        assert!(stats.iter().all(|s| s.health == ShardHealth::Healthy));
        let expect = index.len();
        drop(index);

        let (back, report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&cfg).unwrap();
        // Six dirs on disk (4 bulk + 1 split + … minus none deleted),
        // but the drained one recovers empty and is skipped.
        assert!(report.shards.len() >= 5);
        assert!(report.skipped.is_empty());
        assert_eq!(back.len(), expect);
        assert_eq!(back.get(&90001), Some(42));
        assert_eq!(back.get(&500), Some(500));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Two durable shards, `[0, 1000)` in `shard-000000` and
    /// `[1000, 2000)` in `shard-000001`, behind `io`.
    fn two_shards(
        root: &PathBuf,
        io: &FaultIo,
    ) -> fiting_index_api::ShardedIndex<u64, u64, Durable> {
        let pairs = (0..2000u64).map(|k| (k, k)).collect();
        fiting_index_api::ShardedIndex::bulk_load(&fault_config(root, io), 2, pairs).unwrap()
    }

    fn healths(index: &fiting_index_api::ShardedIndex<u64, u64, Durable>) -> Vec<ShardHealth> {
        index.shard_stats().iter().map(|s| s.health).collect()
    }

    #[test]
    fn merge_the_keeper_cannot_persist_is_refused_then_heals() {
        let root = temp_root("merge-keeper");
        let io = FaultIo::quiet();
        let index = two_shards(&root, &io);
        let before = index.range_collect(..);

        io.fail_nth(IoOp::Rename, "shard-000000", 1, InjectKind::Enospc, false);
        assert_eq!(index.merge_with_next(0), Err(RebalanceError::Refused));
        assert_eq!(index.boundaries(), vec![1000]);
        assert_eq!(index.range_collect(..), before);
        assert_eq!(
            healths(&index),
            [ShardHealth::Degraded, ShardHealth::Healthy]
        );

        assert_eq!(index.heal_shards(), 1);
        assert_eq!(index.merge_with_next(0), Ok(1000));
        assert_eq!(index.shard_count(), 1);
        assert_eq!(index.range_collect(..), before);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn split_of_a_degraded_shard_is_refused_and_mints_nothing() {
        let root = temp_root("split-degraded");
        let io = FaultIo::quiet();
        let index = two_shards(&root, &io);
        index.insert(1, 11);
        io.fail_nth(IoOp::Fsync, "shard-000000", 1, InjectKind::Eio, false);
        assert_eq!(index.try_sync_all(), (1, 1));
        let before = index.range_collect(..);

        assert_eq!(index.split_shard(0, 500), Err(RebalanceError::Refused));
        assert_eq!(index.boundaries(), vec![1000]);
        assert_eq!(index.range_collect(..), before);
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 2, "shard dirs");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_the_donor_cannot_drain_is_undone_so_reopen_keeps_later_writes() {
        let root = temp_root("merge-donor");
        let io = FaultIo::quiet();
        let index = two_shards(&root, &io);
        let before = index.range_collect(..);

        io.fail_nth(IoOp::Rename, "shard-000001", 1, InjectKind::Enospc, false);
        assert_eq!(index.merge_with_next(0), Err(RebalanceError::Refused));
        assert_eq!(index.boundaries(), vec![1000]);
        assert_eq!(index.range_collect(..), before);
        assert_eq!(
            healths(&index),
            [ShardHealth::Healthy, ShardHealth::Degraded]
        );

        // The donor stayed in the table, so it heals and the run's
        // later writes land in the directory reopen will believe.
        assert_eq!(index.heal_shards(), 1);
        assert_eq!(index.insert(1500, 777), Some(1500));
        assert_eq!(index.remove(&1600), Some(1600));
        assert_eq!(index.try_sync_all(), (2, 0));
        let expect = index.range_collect(..);
        drop(index);

        let (back, report) =
            open_sharded::<u64, u64, FitingTree<u64, u64>>(&fault_config(&root, &io)).unwrap();
        assert_eq!(back.get(&1500), Some(777));
        assert_eq!(back.get(&1600), None);
        assert_eq!(back.range_collect(..), expect);
        assert!(report.shards.iter().all(|r| r.overlap_dropped == 0));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_shards_honors_wal_threshold() {
        use fiting_index_api::ShardedIndex;
        let root = temp_root("threshold");
        let cfg = config(&root);
        let index: ShardedIndex<u64, u64, Durable> =
            ShardedIndex::bulk_load(&cfg, 2, (0..2000u64).map(|k| (k, k)).collect()).unwrap();
        // Write into only the low shard.
        index.insert(1, 1);
        index.sync_all();
        assert_eq!(index.checkpoint_shards(1), 1);
        assert_eq!(index.checkpoint_shards(1), 0);
        // Threshold 0 checkpoints everything.
        assert_eq!(index.checkpoint_shards(0), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wal_commit_fault_degrades_and_checkpoint_heals() {
        let root = temp_root("degrade-heal");
        let io = FaultIo::quiet();
        let cfg = fault_config(&root, &io);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..100u64).map(|k| (k, k))).unwrap();

        idx.try_insert(500, 5).unwrap();
        // Kill the log permanently-for-now: the sync must degrade.
        io.fail_nth(IoOp::Fsync, "wal.000000", 1, InjectKind::Eio, false);
        assert!(idx.try_sync().is_err());
        assert!(idx.is_degraded());
        assert_eq!(idx.health(), ShardHealth::Degraded);
        assert!(idx.degraded_reason().unwrap_or_default().contains("fsync"));

        // Writes refuse fast and typed; reads keep serving.
        assert!(idx.try_insert(501, 5).is_err());
        assert!(idx.try_remove(&0).is_err());
        assert!(idx.try_insert_many(vec![(502, 5)]).is_err());
        assert_eq!(idx.get(&500), Some(&5));
        assert_eq!(idx.get(&50), Some(&50));

        // A clean checkpoint rotates the generation and heals.
        assert!(idx.try_checkpoint().unwrap());
        assert!(!idx.is_degraded());
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.try_insert(501, 9).unwrap(), None);
        assert!(idx.try_sync().unwrap());

        // The acknowledged pre-degrade write survived in the snapshot.
        let dir = idx.shard_dir().to_path_buf();
        drop(idx);
        let (back, _) = Durable::open_shard(&cfg, &dir).unwrap();
        assert_eq!(back.get(&500), Some(&5));
        assert_eq!(back.get(&501), Some(&9));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    #[should_panic(expected = "shard degraded")]
    fn plain_insert_on_degraded_shard_panics() {
        let root = temp_root("degrade-panic");
        let io = FaultIo::quiet();
        let cfg = fault_config(&root, &io);
        let mut idx: Durable = DurableIndex::build_sorted(&cfg, vec![(1, 1)]).unwrap();
        idx.try_insert(2, 2).unwrap();
        io.fail_nth(IoOp::Write, "wal.000000", 1, InjectKind::Enospc, true);
        let _ = idx.try_sync();
        assert!(idx.is_degraded());
        let _ = std::fs::remove_dir_all(&root);
        idx.insert(3, 3); // panics
    }

    #[test]
    fn checkpoint_failure_leaves_previous_generation_intact() {
        let root = temp_root("ckpt-rollback");
        let io = FaultIo::quiet();
        let cfg = fault_config(&root, &io);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..200u64).map(|k| (k, k))).unwrap();
        idx.try_insert(900, 9).unwrap();
        idx.try_sync().unwrap();
        let dir = idx.shard_dir().to_path_buf();

        // ENOSPC on the rename step: rotation must roll back.
        io.fail_nth(IoOp::Rename, "snapshot.tmp", 1, InjectKind::Enospc, false);
        assert!(idx.try_checkpoint().is_err());
        assert!(idx.is_degraded());
        assert_eq!(idx.generation(), 0);
        assert!(dir.join("snapshot.000000").exists());
        assert!(dir.join("wal.000000").exists());
        assert!(!dir.join("snapshot.000001").exists());
        assert!(!dir.join("wal.000001").exists());
        assert!(!dir.join("snapshot.tmp").exists());

        // Re-armed: the next checkpoint (fault gone) heals.
        assert!(idx.try_checkpoint().unwrap());
        assert_eq!(idx.generation(), 1);
        assert!(!idx.is_degraded());
        drop(idx);
        let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(back.get(&900), Some(&9));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn transient_storms_are_invisible_to_callers() {
        let root = temp_root("transient");
        let io = FaultIo::quiet();
        let cfg = fault_config(&root, &io);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..50u64).map(|k| (k, k))).unwrap();
        io.fail_nth(IoOp::Write, "wal.000000", 1, InjectKind::Transient, false);
        io.fail_nth(IoOp::Fsync, "wal.000000", 1, InjectKind::Transient, false);
        idx.try_insert(77, 7).unwrap();
        assert!(idx.try_sync().unwrap());
        assert!(!idx.is_degraded());
        assert!(idx.io_retries() >= 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_in_place_rebuilds_from_disk() {
        let root = temp_root("reload");
        let cfg = config(&root);
        let mut idx: Durable =
            DurableIndex::build_sorted(&cfg, (0..300u64).map(|k| (k, k))).unwrap();
        idx.try_insert(800, 8).unwrap();
        // Not synced: reopen_in_place must flush the buffered record
        // before discarding memory, so the acknowledged write survives.
        let info = idx.reopen_in_place().unwrap();
        assert_eq!(info.replayed, 1);
        assert_eq!(idx.get(&800), Some(&8));
        assert_eq!(idx.len(), 301);
        assert!(SortedIndex::reload(&mut idx));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_sharded_skips_unrecoverable_dir_and_reports_it() {
        use fiting_index_api::ShardedIndex;
        let root = temp_root("skip");
        let cfg = config(&root);
        let index: ShardedIndex<u64, u64, Durable> =
            ShardedIndex::bulk_load(&cfg, 2, (0..1000u64).map(|k| (k, k)).collect()).unwrap();
        index.sync_all();
        drop(index);
        // A shard directory minted by a split that died before its
        // first snapshot landed: present but empty.
        std::fs::create_dir_all(root.join("shard-000099")).unwrap();
        let (back, report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&cfg).unwrap();
        assert_eq!(back.len(), 1000);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].dir.ends_with("shard-000099"));
        assert!(matches!(
            report.skipped[0].error,
            OpenError::NoValidSnapshot(_)
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_sharded_reconciles_overlapping_spans() {
        use fiting_index_api::ShardedIndex;
        let root = temp_root("overlap");
        let cfg = config(&root);
        let index: ShardedIndex<u64, u64, Durable> =
            ShardedIndex::bulk_load(&cfg, 1, (0..1000u64).map(|k| (k, k)).collect()).unwrap();
        index.sync_all();
        drop(index);
        // Fake the crash window of an interrupted split: a second
        // shard holding a copy of the tail [600, 1000) while the first
        // still holds everything.
        let tail_cfg = config(&root);
        let tail: Durable =
            DurableIndex::build_sorted(&tail_cfg, (600..1000u64).map(|k| (k, k + 1))).unwrap();
        drop(tail);
        let (back, report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&cfg).unwrap();
        assert_eq!(back.len(), 1000);
        // The tail shard's copy wins; the lower shard dropped its
        // duplicates.
        assert_eq!(back.get(&700), Some(701));
        assert_eq!(back.get(&599), Some(599));
        assert_eq!(
            report
                .shards
                .iter()
                .map(|r| r.overlap_dropped)
                .sum::<usize>(),
            400
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_snapshot_write_failing_mid_stream_keeps_the_last_generation() {
        use fiting_index_api::Degraded;
        use fiting_tree::snapshot::SNAPSHOT_CHUNK;
        // 50 000 pairs over heavy-tailed gaps make pages of a few
        // hundred keys, which stream as a dozen chunks; fail the k-th.
        let pairs = || {
            let mut key = 0;
            (0..50_000u64).map(move |k| {
                key += 1u64 << (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59);
                (key, k)
            })
        };
        let no_temp = |dir: &std::path::Path| !dir.join("snapshot.tmp").exists();
        for k in [1, 2, 7] {
            let root = temp_root("stream-fault");
            let io = FaultIo::quiet();
            let cfg = fault_config(&root, &io);

            // A shard's birth surfaces the failure and leaves nothing
            // that reopens.
            io.fail_nth(IoOp::Write, "snapshot.tmp", k, InjectKind::Eio, false);
            let Err(StorageBuildError::Io(e)) = Durable::build_sorted(&cfg, pairs()) else {
                panic!("create must fail on chunk {k}");
            };
            assert_eq!(e.op(), IoOp::Write);
            let stillborn = root.join("shard-000000");
            assert!(no_temp(&stillborn));
            assert!(Durable::open_shard(&cfg, &stillborn).is_err());

            // A checkpoint does too, and generation 0 still opens with
            // its log.
            let mut idx = Durable::build_sorted(&cfg, pairs()).unwrap();
            assert!(idx.disk_bytes() > 8 * SNAPSHOT_CHUNK);
            idx.insert(0, 1);
            idx.try_sync().expect("the log reaches the disk");
            io.fail_nth(IoOp::Write, "snapshot.tmp", k, InjectKind::Eio, false);
            assert_eq!(idx.try_checkpoint(), Err(Degraded));
            assert_eq!(idx.generation(), 0);
            let dir = idx.shard_dir().to_path_buf();
            assert!(no_temp(&dir));
            drop(idx);
            let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
            assert_eq!((info.generation, info.replayed), (0, 1));
            assert_eq!(back.len(), 50_001);
            assert_eq!(back.get(&0), Some(&1));
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}
