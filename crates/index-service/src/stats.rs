//! Pipeline observability: per-lane counters the workers maintain and
//! the snapshot types [`IndexService::stats`](crate::IndexService::stats)
//! assembles.
//!
//! The counters are plain relaxed atomics — they order nothing, they
//! only count — and the snapshot combines them with the queue depths,
//! the underlying index's live per-shard occupancy, and (when a
//! rebalancer is attached) the rebalancing totals, so one call shows
//! where load is piling up, where data is piling up, *and* what the
//! rebalancer has done about it.
//!
//! Lanes vs shards: commands are routed to **lanes** — queue/worker
//! pairs fixed at service start — while the index's **shards** move
//! underneath as the rebalancer splits and merges them. The two
//! vectors in [`ServiceStats`] therefore have independent lengths.

use fiting_index_api::{RebalanceStats, RoutingStats, ShardHealth, ShardStats};
use std::sync::atomic::{AtomicU64, Ordering};

/// The lifecycle state of one lane (queue + worker pair), as reported
/// by [`LaneServiceStats::health`].
///
/// State machine (see ARCHITECTURE.md "Failure model"):
///
/// ```text
/// Healthy -> Poisoned           (worker panic it cannot heal; queue closed)
/// ```
///
/// A lane's health is its queue's closed flag: while the service is
/// observable, only a worker that gave up on its lane closes it. A
/// worker that catches a panic on a durable service
/// ([`IndexService::start_durable`]) reloads its shard and keeps
/// draining, so its lane stays `Healthy` until it runs out of heals;
/// on any other service the first panic poisons the lane. `Poisoned`
/// is terminal for the process lifetime.
///
/// "Writes may be refused" is not a lane state: a shard owns its
/// [`ShardHealth`] under its write lock, and
/// [`ServiceStats::is_degraded`] reads it there.
///
/// [`IndexService::start_durable`]: crate::IndexService::start_durable
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneHealth {
    /// Serving normally.
    Healthy,
    /// The worker caught a panic it could not heal: the queue is
    /// closed and everything queued was canceled.
    Poisoned,
}

/// Live counters for one lane worker (internal; snapshot via
/// [`LaneServiceStats`]).
#[derive(Debug, Default)]
pub(crate) struct WorkerCounters {
    /// Commands fully executed (their tickets resolved).
    pub processed: AtomicU64,
    /// Queue drains that produced at least one command.
    pub batches: AtomicU64,
    /// Largest single drain seen.
    pub largest_batch: AtomicU64,
    /// Write-lock acquisitions taken for coalesced point-write runs
    /// (one per involved shard per run).
    pub write_runs: AtomicU64,
    /// Shard read sections entered for point reads — one per `Get`.
    pub read_runs: AtomicU64,
    /// Point writes (`Insert`/`Remove`) applied in a run of more than
    /// one, under one lock per shard instead of one per op.
    pub coalesced_writes: AtomicU64,
    /// Panics caught by the lane's worker: each one either healed the
    /// lane (see `restarts`) or poisoned it.
    pub panics: AtomicU64,
    /// Times the lane's worker reloaded its shard after a caught panic
    /// and kept draining.
    pub restarts: AtomicU64,
    /// Write commands refused with `CommandError::Degraded` because
    /// their shard was in degraded read-only mode.
    pub degraded_writes: AtomicU64,
    /// Post-batch group commits (`try_sync_all`) that reported at
    /// least one shard failing to flush its WAL.
    pub sync_failures: AtomicU64,
}

impl WorkerCounters {
    // ordering: all counters here are monotonic statistics read only by
    // stats snapshots; they synchronize nothing, so Relaxed suffices.
    pub(crate) fn note_batch(&self, len: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.processed.fetch_add(len as u64, Ordering::Relaxed);
        self.largest_batch.fetch_max(len as u64, Ordering::Relaxed);
    }
}

/// Snapshot of one lane's pipeline state (a lane is one bounded queue
/// plus its worker thread; lane routing is fixed at service start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneServiceStats {
    /// Lane index in routing order.
    pub lane: usize,
    /// Commands currently waiting in the lane's queue.
    pub queue_depth: usize,
    /// The queue's fixed capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Commands executed so far.
    pub processed: u64,
    /// Non-empty queue drains so far.
    pub batches: u64,
    /// Largest single drain.
    pub largest_batch: u64,
    /// Write-lock acquisitions for coalesced point-write runs (one
    /// per involved shard per run).
    pub write_runs: u64,
    /// Shard read sections entered for point reads (one per executed
    /// `Get`; reads take no lock, so runs of `Get`s are not grouped).
    pub read_runs: u64,
    /// Point writes applied in a run of more than one.
    pub coalesced_writes: u64,
    /// Worker panics caught on this lane; each one not matched by a
    /// restart poisoned the lane (queue closed, queued commands
    /// canceled).
    pub panics: u64,
    /// Heals of this lane by its own worker (each one rebuilt the
    /// shard from snapshot + WAL between two drains).
    pub restarts: u64,
    /// Writes refused by a degraded read-only shard on this lane.
    pub degraded_writes: u64,
    /// Post-batch group commits that failed on at least one shard.
    pub sync_failures: u64,
    /// Current lifecycle state of the lane.
    pub health: LaneHealth,
}

impl LaneServiceStats {
    pub(crate) fn from_counters(
        lane: usize,
        queue_depth: usize,
        queue_capacity: usize,
        c: &WorkerCounters,
        health: LaneHealth,
    ) -> Self {
        // ordering: statistics snapshot — approximate cross-counter
        // consistency is acceptable, so Relaxed loads suffice.
        LaneServiceStats {
            lane,
            queue_depth,
            queue_capacity,
            processed: c.processed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            largest_batch: c.largest_batch.load(Ordering::Relaxed),
            write_runs: c.write_runs.load(Ordering::Relaxed),
            read_runs: c.read_runs.load(Ordering::Relaxed),
            coalesced_writes: c.coalesced_writes.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            degraded_writes: c.degraded_writes.load(Ordering::Relaxed),
            sync_failures: c.sync_failures.load(Ordering::Relaxed),
            health,
        }
    }
}

/// Whole-service snapshot: pipeline state per lane, index occupancy
/// per shard, and rebalancing totals when a rebalancer is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Per-lane pipeline snapshots, in lane order.
    pub lanes: Vec<LaneServiceStats>,
    /// Live per-shard occupancy of the underlying index, in shard
    /// order. Under an active rebalancer this vector's length tracks
    /// the current shard count, not the (fixed) lane count.
    pub shards: Vec<ShardStats>,
    /// Totals from the attached rebalancer; `None` when the service
    /// was started without one.
    pub rebalance: Option<RebalanceStats>,
    /// Wait-free read-path counters of the underlying index's routing
    /// snapshot and shard seqlocks. Steady state shows `refreshes` and
    /// `contended_reads` flat between snapshots; each rebalance step
    /// bumps `publishes`.
    pub routing: RoutingStats,
    /// Checkpoint rotations the coordinator attempted that failed
    /// (each one also flipped its shard to
    /// [`ShardHealth::Degraded`] — see [`is_degraded`](Self::is_degraded)).
    /// The coordinator keeps re-arming, so a later pass can heal the
    /// shard and the degraded flag clears while this total stands.
    pub checkpoint_failures: u64,
}

impl ServiceStats {
    /// Whether any shard is currently in degraded read-only mode —
    /// the service-level "writes may be refused" flag operators alert
    /// on.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.health == ShardHealth::Degraded)
    }

    /// Commands executed across all lanes.
    #[must_use]
    pub fn total_processed(&self) -> u64 {
        self.lanes.iter().map(|s| s.processed).sum()
    }

    /// Commands waiting across all lanes.
    #[must_use]
    pub(crate) fn total_queued(&self) -> usize {
        self.lanes.iter().map(|s| s.queue_depth).sum()
    }

    /// Mean commands per non-empty drain across all lanes — how much
    /// batching the pipeline actually achieved.
    #[must_use]
    pub fn mean_batch_len(&self) -> f64 {
        let batches: u64 = self.lanes.iter().map(|s| s.batches).sum();
        if batches == 0 {
            return 0.0;
        }
        self.total_processed() as f64 / batches as f64
    }

    /// Ratio of the fullest shard's entries to the mean — 1.0 is
    /// perfectly balanced; the trigger metric rebalancing acts on
    /// (a rebalancer splits above 1.5, its `SPLIT_IMBALANCE`).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let lens: Vec<usize> = self.shards.iter().map(|s| s.entries).collect();
        let total: usize = lens.iter().sum();
        if total == 0 || lens.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / lens.len() as f64;
        *lens.iter().max().unwrap() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_across_lanes_and_shards() {
        let c = WorkerCounters::default();
        c.note_batch(4);
        c.note_batch(2);
        let snap = LaneServiceStats::from_counters(0, 1, 64, &c, LaneHealth::Healthy);
        assert_eq!(snap.processed, 6);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.largest_batch, 4);
        assert_eq!(snap.health, LaneHealth::Healthy);
        assert_eq!(snap.restarts, 0);

        let mut other = snap;
        other.lane = 1;
        other.queue_depth = 3;
        let stats = ServiceStats {
            lanes: vec![snap, other],
            // Three shards under two lanes: a rebalancer has split one.
            shards: vec![
                ShardStats {
                    entries: 30,
                    size_bytes: 100,
                    ..Default::default()
                },
                ShardStats {
                    entries: 10,
                    size_bytes: 40,
                    ..Default::default()
                },
                ShardStats {
                    entries: 20,
                    size_bytes: 70,
                    ..Default::default()
                },
            ],
            rebalance: Some(RebalanceStats {
                steps: 5,
                splits: 1,
                merges: 0,
                moved_keys: 20,
            }),
            routing: RoutingStats::default(),
            checkpoint_failures: 0,
        };
        assert_eq!(stats.total_processed(), 12);
        assert_eq!(stats.total_queued(), 4);
        assert!((stats.mean_batch_len() - 3.0).abs() < 1e-9);
        // 30/10/20 entries: max/mean = 30/20.
        assert!((stats.imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(stats.rebalance.unwrap().splits, 1);
        assert!(!stats.is_degraded());
    }

    #[test]
    fn degraded_flag_reflects_shard_health() {
        let c = WorkerCounters::default();
        let mut stats = ServiceStats {
            lanes: vec![LaneServiceStats::from_counters(
                0,
                0,
                64,
                &c,
                LaneHealth::Healthy,
            )],
            shards: vec![ShardStats::default()],
            rebalance: None,
            routing: RoutingStats::default(),
            checkpoint_failures: 0,
        };
        assert!(!stats.is_degraded());
        stats.shards[0].health = ShardHealth::Degraded;
        assert!(stats.is_degraded());
        // A lane's lifecycle state says nothing about refused writes.
        stats.shards[0].health = ShardHealth::Healthy;
        stats.lanes[0].health = LaneHealth::Poisoned;
        assert!(!stats.is_degraded());
    }

    #[test]
    fn empty_service_degenerates_cleanly() {
        let stats = ServiceStats {
            lanes: Vec::new(),
            shards: Vec::new(),
            rebalance: None,
            routing: RoutingStats::default(),
            checkpoint_failures: 0,
        };
        assert_eq!(stats.mean_batch_len(), 0.0);
        assert_eq!(stats.imbalance(), 1.0);
        assert_eq!(stats.total_processed(), 0);
        assert!(!stats.is_degraded());
    }
}
