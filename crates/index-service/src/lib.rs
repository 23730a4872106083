//! **fiting-index-service** — the command-pipeline service layer over
//! [`ShardedIndex`]: the API redesign that turns direct
//! method-calls-under-a-lock into batched, backpressured command
//! submission.
//!
//! # Why a pipeline
//!
//! Delta-buffered learned indexes amortize best when writes arrive in
//! batches, and `ShardedIndex::with_write_groups` applies a batch under
//! one write lock per shard — but no caller-facing API *produced*
//! batches. Here, callers hold a cheap [`Client`] handle and submit
//! typed [`Command`]s into bounded per-lane queues (a **lane** is one
//! queue + one worker thread; lane routing is a boundary snapshot
//! frozen at service start); each lane's worker drains its queue and
//! manufactures the batches automatically:
//!
//! * runs of point writes apply under **one** write-lock acquisition
//!   per involved shard,
//! * point reads are answered one by one straight off the index's
//!   wait-free read path (there is no read lock to amortize),
//! * each command resolves exactly its own executor-free Condvar
//!   [`Ticket`], which the submitter holds; a caller that must act the
//!   instant a command resolves (the `slo` bench's open-loop latency
//!   recorder) wraps its own sink in [`Completer::from_fn`].
//!
//! Backpressure is structural: queues are bounded, so
//! [`Client::submit`] blocks — and [`Client::try_submit`] refuses with
//! [`TryPushError::Busy`] — when a lane falls behind.
//! [`IndexService::shutdown`] closes the queues, drains every accepted
//! command, resolves every ticket, joins the workers, and hands the
//! index back.
//!
//! # Online rebalancing
//!
//! [`IndexService::start_rebalancing`] additionally runs a coordinator
//! thread that periodically [`step`](Rebalancer::step)s a
//! [`Rebalancer`]: the workers feed every inserted key to its
//! [`WriteSampler`], and when a shard runs hot the coordinator splits
//! it at the sampled write median (or merges cold neighbors) without
//! stopping traffic — lanes and their ordering guarantee are
//! unaffected because lane routing is frozen while *shard* routing
//! moves. [`stats`](IndexService::stats) reports the split/merge/moved
//! totals next to the per-lane queue counters and the live per-shard
//! occupancy.
//!
//! # End to end
//!
//! ```
//! use fiting_index_api::{BinarySearchIndex, ShardedIndex};
//! use fiting_index_service::{IndexService, ServiceConfig};
//!
//! let pairs: Vec<(u64, u64)> = (0..1_000).map(|k| (k * 2, k)).collect();
//! let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
//!     ShardedIndex::bulk_load(&(), 4, pairs).unwrap();
//!
//! let service = IndexService::start(index, ServiceConfig::default());
//! let client = service.client();
//!
//! // Pipelined: fire commands, hold tickets, wait when needed.
//! let hit = client.get(500);
//! let writes: Vec<_> = (0..10).map(|k| client.insert(k * 2 + 1, k)).collect();
//! let scan = client.range(0..=9);
//!
//! assert_eq!(hit.wait(), Ok(Some(250)));
//! assert!(writes.into_iter().all(|t| t.wait() == Ok(None))); // all fresh
//! assert_eq!(scan.wait().unwrap().len(), 10);
//!
//! let index = service.shutdown(); // drains, resolves, joins
//! assert_eq!(index.len(), 1_010);
//! ```

#![warn(missing_docs)]

mod client;
mod command;
mod queue;
mod stats;
mod telemetry;
mod ticket;
mod worker;

pub use client::Client;
pub use command::Command;
pub use queue::{BoundedQueue, Closed, TryPushError};
pub use stats::{LaneHealth, LaneServiceStats, ServiceStats};
// Re-exported so embedders can name what `metrics()` returns without
// a separate fiting-telemetry import.
pub use fiting_telemetry::MetricsSnapshot;
pub use ticket::{ticket, CommandError, Completer, Ticket};

// Re-exported so service users can start rebalancing without a
// separate fiting-index-api import.
pub use fiting_index_api::{RebalanceStats, Rebalancer, WriteSampler};

use fiting_index_api::{Key, RebalanceCounters, ShardedIndex, SortedIndex};
use fiting_sync::primitives::{Condvar, Mutex};
use stats::WorkerCounters;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::{ServiceTelemetry, Timed};

/// Sizing for one [`IndexService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Per-lane queue bound — the backpressure threshold. Submitters
    /// block (or get [`TryPushError::Busy`]) once a lane has this many
    /// commands in flight.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1_024,
        }
    }
}

/// Durability hooks for a service whose shards are durable wrappers
/// (e.g. `fiting-storage`'s `DurableIndex`): group-commit the
/// write-ahead logs after each drained write batch, and periodically
/// checkpoint shards whose log has outgrown a threshold.
///
/// The service layer stays storage-agnostic — both hooks go through
/// [`SortedIndex`] provided methods (`try_sync`, `try_checkpoint`,
/// `wal_bytes`), which volatile structures implement as no-ops. A
/// `DurabilityConfig` over a volatile index is therefore harmless;
/// it simply does nothing.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Group-commit every shard's WAL after each drained batch that
    /// contained a write ([`ShardedIndex::try_sync_all`]). This is the
    /// service's commit point: by the time a write batch's tickets
    /// resolve *and* the next batch has been synced, those writes are
    /// as durable as the store's fsync policy allows.
    pub sync_each_batch: bool,
    /// How often the checkpoint coordinator scans the shards.
    pub checkpoint_interval: Duration,
    /// Per-shard WAL size (bytes) that triggers a checkpoint on the
    /// next coordinator pass; smaller logs are left to keep growing.
    pub checkpoint_wal_bytes: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_each_batch: true,
            checkpoint_interval: Duration::from_secs(30),
            checkpoint_wal_bytes: 1 << 20,
        }
    }
}

/// Everything clients and workers share: the index, the frozen lane
/// router, the per-lane queues and counters, and the (optional)
/// rebalancing hooks.
pub(crate) struct ServiceShared<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> {
    pub(crate) index: ShardedIndex<K, V, I>,
    /// Lane routing boundaries — the index's shard boundaries at
    /// service start, frozen so key → lane (and therefore per-key
    /// ordering) is stable while shard boundaries move underneath.
    pub(crate) router: Vec<K>,
    /// Queue payloads carry their acceptance stamp, from which the
    /// worker measures queue wait at drain and end-to-end latency at
    /// ticket resolution.
    pub(crate) queues: Vec<BoundedQueue<Timed<Command<K, V>>>>,
    pub(crate) counters: Vec<WorkerCounters>,
    /// Per-kind latency histograms and submission counters; recording
    /// is a single relaxed atomic, shared by clients and workers.
    pub(crate) telemetry: ServiceTelemetry,
    /// Failed checkpoint rotations observed by the checkpoint
    /// coordinator — surfaced through [`ServiceStats`], where before
    /// this counter the coordinator silently dropped the error.
    pub(crate) checkpoint_failures: AtomicU64,
    /// Write-stream sampler feeding the rebalancer's split boundaries;
    /// `None` when the service runs without rebalancing.
    pub(crate) sampler: Option<Arc<fiting_index_api::WriteSampler<K>>>,
    /// Rebalancing totals for [`IndexService::stats`]; `None` when the
    /// service runs without rebalancing.
    pub(crate) rebalance: Option<Arc<RebalanceCounters>>,
    /// Durability hooks; `None` when the service runs volatile.
    pub(crate) durability: Option<DurabilityConfig>,
}

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> ServiceShared<K, V, I> {
    /// The lane owning `key` under the frozen router.
    pub(crate) fn lane_of(&self, key: &K) -> usize {
        self.router.partition_point(|b| b <= key)
    }

    /// Assembles the whole-service stats snapshot (shared by
    /// [`IndexService::stats`] and [`IndexService::metrics`]).
    pub(crate) fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            lanes: self
                .counters
                .iter()
                .enumerate()
                .map(|(lane, counters)| {
                    let queue = &self.queues[lane];
                    // While the service is observable, only a worker
                    // that gave up on its lane closes its queue.
                    let health = if queue.is_closed() {
                        LaneHealth::Poisoned
                    } else {
                        LaneHealth::Healthy
                    };
                    LaneServiceStats::from_counters(
                        lane,
                        queue.len(),
                        queue.capacity(),
                        counters,
                        health,
                    )
                })
                .collect(),
            shards: self.index.shard_stats(),
            rebalance: self.rebalance.as_ref().map(|c| c.snapshot()),
            routing: self.index.routing_stats(),
            // ordering: Relaxed — advisory stats counter.
            checkpoint_failures: self.checkpoint_failures.load(AtomicOrdering::Relaxed),
        }
    }
}

/// A running command-pipeline service: one bounded queue plus one
/// worker thread per lane (lanes mirror the wrapped [`ShardedIndex`]'s
/// shards at start time), plus at most one timer thread (the rebalance
/// coordinator or the checkpointer).
///
/// Dropping the service shuts it down (close → drain → join); prefer
/// the explicit [`shutdown`](Self::shutdown), which also returns the
/// index.
pub struct IndexService<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> {
    shared: Arc<ServiceShared<K, V, I>>,
    /// One per lane, for the service's lifetime: a worker heals its
    /// lane itself, so shutdown joins the threads spawned at start.
    workers: Vec<JoinHandle<()>>,
    /// The timer thread (rebalance coordinator or checkpointer), if
    /// this service was started with one.
    coordinator: Option<JoinHandle<()>>,
    coordinator_stop: Arc<(Mutex<bool>, Condvar)>,
}

impl<K, V, I> IndexService<K, V, I>
where
    K: Key + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    I: SortedIndex<K, V> + Send + Sync + 'static,
{
    /// Starts the service over `index`: one queue and one worker
    /// thread per lane (= per shard at start time), with no
    /// rebalancing.
    #[must_use]
    pub fn start(index: ShardedIndex<K, V, I>, config: ServiceConfig) -> Self {
        Self::launch(index, config, None, None, None)
    }

    /// Starts the service with durability hooks: workers group-commit
    /// the shards' write-ahead logs after every drained batch that
    /// contained a write (when
    /// [`sync_each_batch`](DurabilityConfig::sync_each_batch) is set),
    /// and a checkpoint coordinator thread wakes every
    /// [`checkpoint_interval`](DurabilityConfig::checkpoint_interval)
    /// to snapshot-and-rotate shards whose WAL has reached
    /// [`checkpoint_wal_bytes`](DurabilityConfig::checkpoint_wal_bytes).
    ///
    /// Shutdown issues one final [`ShardedIndex::try_sync_all`] after the
    /// workers drain, so a clean [`shutdown`](Self::shutdown) leaves
    /// every accepted write in the log.
    ///
    /// Lanes heal in place: a worker that catches a panic rebuilds its
    /// shard from the newest snapshot plus WAL replay
    /// ([`SortedIndex::reload`]) and goes back to draining its queue,
    /// which stays open throughout — commands queued behind the
    /// panicked batch run in order, and submissions made meanwhile are
    /// accepted. The panicked batch's unresolved commands report
    /// [`CommandError::Canceled`]; acknowledged writes survive (their
    /// log records outlive the in-memory structure). A lane that keeps
    /// panicking stops healing after a fixed number of heals (32) and
    /// becomes [`LaneHealth::Poisoned`]: the crash loop evidently is
    /// not transient.
    ///
    /// A durable service runs without a rebalancer on purpose: the
    /// lane ↔ shard mapping stays 1:1 for the service's lifetime,
    /// which is what lets a worker reload exactly its own lane's shard
    /// by position.
    #[must_use]
    pub fn start_durable(
        index: ShardedIndex<K, V, I>,
        config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Self {
        let mut service = Self::launch(index, config, None, None, Some(durability));
        service.spawn_checkpointer();
        service
    }

    /// Spawns the checkpoint coordinator thread: every
    /// [`checkpoint_interval`](DurabilityConfig::checkpoint_interval)
    /// it rotates shards whose WAL has outgrown the threshold, counts
    /// failed rotations into
    /// [`ServiceStats::checkpoint_failures`] (a failed rotation also
    /// flips its shard degraded read-only), and then runs a heal pass:
    /// degraded shards retry their checkpoint regardless of WAL size,
    /// since a successful rotation is the only thing that clears
    /// degraded mode.
    fn spawn_checkpointer(&mut self) {
        let durability = self
            .shared
            .durability
            .as_ref()
            .expect("checkpointer requires durability config");
        let interval = durability.checkpoint_interval;
        let threshold = durability.checkpoint_wal_bytes;
        let shared = Arc::clone(&self.shared);
        self.spawn_ticker("index-service-checkpoint", interval, move || {
            let (_rotated, failed) = shared.index.try_checkpoint_shards(threshold);
            if failed > 0 {
                // ordering: Relaxed — advisory failure total, read only
                // by stats snapshots; the shard's own degraded flag
                // (under its write lock) carries the behavioral change.
                shared
                    .checkpoint_failures
                    .fetch_add(failed as u64, AtomicOrdering::Relaxed);
            }
            let _ = shared.index.heal_shards();
        });
    }

    /// Starts the service *and* a rebalance coordinator thread that
    /// calls [`Rebalancer::step`] every `interval`.
    ///
    /// Workers feed every inserted key to the rebalancer's
    /// [`WriteSampler`], so split boundaries track the live write
    /// distribution. Lane count (and with it the per-key ordering
    /// guarantee) stays fixed at the shard count seen here, while the
    /// underlying shard layout adapts; size the initial shard count
    /// for the worker parallelism wanted.
    #[must_use]
    pub fn start_rebalancing(
        index: ShardedIndex<K, V, I>,
        config: ServiceConfig,
        rebalancer: Rebalancer<K>,
        interval: Duration,
    ) -> Self {
        let sampler = rebalancer.sampler();
        let counters = rebalancer.counters();
        let mut service = Self::launch(index, config, Some(sampler), Some(counters), None);
        let index = service.shared.index.clone();
        let mut rebalancer = rebalancer;
        service.spawn_ticker("index-service-rebalance", interval, move || {
            rebalancer.step(&index);
        });
        service
    }

    fn launch(
        index: ShardedIndex<K, V, I>,
        config: ServiceConfig,
        sampler: Option<Arc<fiting_index_api::WriteSampler<K>>>,
        rebalance: Option<Arc<RebalanceCounters>>,
        durability: Option<DurabilityConfig>,
    ) -> Self {
        let router = index.boundaries();
        let lanes = router.len() + 1;
        let shared = Arc::new(ServiceShared {
            queues: (0..lanes)
                .map(|_| BoundedQueue::new(config.queue_capacity))
                .collect(),
            counters: (0..lanes).map(|_| WorkerCounters::default()).collect(),
            telemetry: ServiceTelemetry::new(),
            checkpoint_failures: AtomicU64::new(0),
            index,
            router,
            sampler,
            rebalance,
            durability,
        });
        let workers = (0..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("index-service-{lane}"))
                    .spawn(move || worker::run(lane, &shared))
                    .expect("spawn index-service worker")
            })
            .collect();
        IndexService {
            shared,
            workers,
            coordinator: None,
            coordinator_stop: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// A new submission handle; clone freely, one per connection.
    #[must_use]
    pub fn client(&self) -> Client<K, V, I> {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Point-in-time pipeline snapshot: per-lane queue depths and batch
    /// counters, the underlying index's live per-shard occupancy, and
    /// — when started with [`start_rebalancing`](Self::start_rebalancing)
    /// — the rebalancing totals.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.shared.service_stats()
    }

    /// Unified metrics snapshot: per-command-kind latency histograms
    /// (end-to-end, queue wait, execute) and submission counters from
    /// the telemetry layer, plus the pipeline / shard / routing /
    /// durability counters of [`stats`](Self::stats) translated into
    /// the same typed schema. Serialize with
    /// [`MetricsSnapshot::to_json`]; the metric catalog is documented
    /// in `docs/OBSERVABILITY.md`.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut metrics = self.shared.telemetry.metrics();
        metrics.extend(telemetry::stats_metrics(&self.shared.service_stats()));
        MetricsSnapshot { metrics }
    }

    /// Shared handle to the underlying index (same shards the workers
    /// serve). Direct reads race queued commands; direct writes are
    /// safe (the shard locks still arbitrate) but bypass the per-lane
    /// ordering the queues provide.
    #[must_use]
    pub fn index(&self) -> ShardedIndex<K, V, I> {
        self.shared.index.clone()
    }

    /// Clean shutdown: stops the rebalance coordinator (if any),
    /// closes every queue (further submissions fail), drains and
    /// executes every already-accepted command — resolving its ticket
    /// — joins the workers, and returns the index.
    #[must_use = "shutdown returns the drained index"]
    pub fn shutdown(mut self) -> ShardedIndex<K, V, I> {
        self.stop();
        self.shared.index.clone()
    }
}

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> IndexService<K, V, I> {
    /// Spawns the service's one timer thread, named `name`, that runs
    /// `body` every `interval` until [`stop`](Self::stop) raises the
    /// shared stop flag (checked under its mutex before and after every
    /// wait, so a stop raised mid-`body` is seen without sleeping a full
    /// interval).
    fn spawn_ticker(
        &mut self,
        name: &str,
        interval: Duration,
        mut body: impl FnMut() + Send + 'static,
    ) {
        let stop = Arc::clone(&self.coordinator_stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let (lock, cvar) = &*stop;
                loop {
                    let mut stopped = lock.lock();
                    if !*stopped {
                        let _ = cvar.wait_for(&mut stopped, interval);
                    }
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    body();
                }
            })
            .expect("spawn index-service timer thread");
        let previous = self.coordinator.replace(handle);
        debug_assert!(previous.is_none(), "a service runs one timer thread");
    }

    fn stop(&mut self) {
        // The timer first, so the layout stops moving while queues
        // drain.
        {
            let (lock, cvar) = &*self.coordinator_stop;
            *lock.lock() = true;
            cvar.notify_all();
        }
        if let Some(coordinator) = self.coordinator.take() {
            let _ = coordinator.join();
        }
        // A worker healing its lane right now drains what its queue
        // accepted and then exits like the others, so every join below
        // returns.
        for queue in &self.shared.queues {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            // A panicked worker already canceled its in-flight tickets
            // (completers resolve on drop); nothing more to salvage.
            let _ = worker.join();
        }
        // Final group commit: a durable service leaves no accepted
        // write sitting in an unsynced WAL buffer after clean shutdown.
        if self.shared.durability.is_some() {
            self.shared.index.try_sync_all();
        }
    }
}

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> Drop for IndexService<K, V, I> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "tests line threads up on a std Barrier; no production type is modelled here"
)]
mod tests {
    use super::*;
    use fiting_index_api::{BinarySearchIndex, BuildableIndex, RebalanceOutcome};
    use std::thread;

    type Svc = IndexService<u64, u64, BinarySearchIndex<u64, u64>>;

    fn start(n: u64, shards: usize, config: ServiceConfig) -> Svc {
        let index =
            ShardedIndex::bulk_load(&(), shards, (0..n).map(|k| (k * 2, k)).collect()).unwrap();
        IndexService::start(index, config)
    }

    #[test]
    fn typed_round_trips() {
        let svc = start(1_000, 4, ServiceConfig::default());
        let client = svc.client();

        assert_eq!(client.get(500).wait(), Ok(Some(250)));
        assert_eq!(client.get(501).wait(), Ok(None));
        assert_eq!(client.insert(501, 7).wait(), Ok(None));
        assert_eq!(client.insert(501, 8).wait(), Ok(Some(7)));
        assert_eq!(client.remove(501).wait(), Ok(Some(8)));
        assert_eq!(client.remove(501).wait(), Ok(None));
        let scan = client.range(10..=20).wait().unwrap();
        assert_eq!(
            scan,
            vec![(10, 5), (12, 6), (14, 7), (16, 8), (18, 9), (20, 10)]
        );
        assert_eq!(svc.shutdown().len(), 1_000);
    }

    #[test]
    fn durable_hooks_are_noops_on_volatile_shards() {
        // BinarySearchIndex leaves the SortedIndex durability defaults in place
        // (try_sync/try_checkpoint do nothing), so a durable service
        // over it must behave exactly like a volatile one — hooks fire,
        // nothing breaks, shutdown is clean.
        let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 4, (0..1_000u64).map(|k| (k * 2, k)).collect()).unwrap();
        let durability = DurabilityConfig {
            sync_each_batch: true,
            checkpoint_interval: Duration::from_millis(1),
            checkpoint_wal_bytes: 0,
        };
        let svc = IndexService::start_durable(index, ServiceConfig::default(), durability);
        let client = svc.client();
        assert_eq!(client.insert(1, 7).wait(), Ok(None));
        assert_eq!(client.remove(1).wait(), Ok(Some(7)));
        let writes = [client.insert(3, 1), client.insert(5, 2)];
        assert_eq!(writes.map(Ticket::wait), [Ok(None), Ok(None)]);
        // Give the checkpoint coordinator a few beats; every pass is a
        // no-op because try_checkpoint() defaults to Ok(false).
        thread::sleep(Duration::from_millis(10));
        assert_eq!(svc.shutdown().len(), 1_002);
    }

    #[test]
    fn pipelined_inserts_fan_out_across_lanes() {
        let svc = start(10_000, 8, ServiceConfig::default());
        let client = svc.client();
        let fresh = |tickets: Vec<Ticket<Option<u64>>>| {
            tickets
                .into_iter()
                .map(Ticket::wait)
                .filter(|r| *r == Ok(None))
                .count()
        };
        // Odd keys across the whole key space: touches every lane.
        let writes = (0..1_000u64).map(|k| client.insert(k * 20 + 1, k));
        assert_eq!(fresh(writes.collect()), 1_000);
        // Overwrites are not fresh.
        let again = [1, 21, 2_000_001].map(|k| client.insert(k, 9));
        assert_eq!(fresh(again.into()), 1);
        assert_eq!(svc.shutdown().len(), 11_001);
    }

    #[test]
    fn pipelined_inserts_take_one_lock_per_shard_per_drain() {
        // Two lanes over four shards: each lane's keys span two shards.
        let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 2, (0..4_000u64).map(|k| (k * 2, k)).collect()).unwrap();
        let shards = index.clone();
        let svc = IndexService::start(index, ServiceConfig::default());
        shards.split_shard(1, 6_000).unwrap();
        shards.split_shard(0, 2_000).unwrap();
        assert_eq!((svc.stats().lanes.len(), shards.shard_count()), (2, 4));
        let client = svc.client();
        let submitted = || svc.metrics().counter("service.insert.submitted");
        let before = submitted().unwrap_or(0);
        // Stall each lane's worker inside a `Get`'s completion until the
        // whole wave of inserts has queued behind it, so the worker
        // must drain them as runs.
        let gate = Arc::new(std::sync::Barrier::new(3));
        for key in [0, 7_998] {
            let gate = Arc::clone(&gate);
            let done = Completer::from_fn(move |_: Result<Option<u64>, CommandError>| {
                gate.wait();
            });
            client.submit(Command::Get { key, done }).unwrap();
        }
        // 1 000 writes to 800 fresh odd keys; the last 200 rewrite the
        // first 200 keys.
        let writes: Vec<_> = (0..1_000u64)
            .map(|i| client.insert((i % 800) * 10 + 1, i))
            .collect();
        gate.wait();
        let fresh = writes
            .into_iter()
            .map(Ticket::wait)
            .filter(|r| *r == Ok(None))
            .count();
        assert_eq!(fresh, 800);
        for j in 0..800u64 {
            let last = if j < 200 { j + 800 } else { j };
            assert_eq!(shards.get(&(j * 10 + 1)), Some(last), "key {}", j * 10 + 1);
        }
        assert_eq!(submitted(), Some(before + 1_000));
        for lane in svc.stats().lanes {
            assert!(lane.write_runs <= lane.batches * 2, "{lane:?}");
            assert!(lane.coalesced_writes > 0, "{lane:?}");
        }
        let _ = svc.shutdown();
    }

    #[test]
    fn submission_order_per_key_is_observed() {
        let svc = start(100, 4, ServiceConfig::default());
        let client = svc.client();
        // Pipelined writes then a read on the same key, no waits
        // between: the single worker per lane applies them in order.
        let mut tickets = Vec::new();
        for v in 0..50u64 {
            tickets.push(client.insert(3, v));
        }
        let read = client.get(3);
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(read.wait(), Ok(Some(49)));
        drop(client);
        let _ = svc.shutdown();
    }

    #[test]
    fn shutdown_drains_and_cancels_late_submissions() {
        let svc = start(1_000, 2, ServiceConfig::default());
        let client = svc.client();
        let pending: Vec<_> = (0..200u64).map(|k| client.insert(k * 2 + 1, k)).collect();
        let index = svc.shutdown();
        // Every accepted command resolved.
        for t in pending {
            assert_eq!(t.wait().err(), None);
        }
        assert_eq!(index.len(), 1_200);
        // Post-shutdown submissions come back canceled, not hung.
        assert!(client.is_closed());
        assert_eq!(client.get(0).wait(), Err(CommandError::Canceled));
        assert_eq!(client.insert(1, 1).wait(), Err(CommandError::Canceled));
        let (cmd, t) = Command::get(0);
        assert!(client.submit(cmd).is_err());
        assert_eq!(t.wait(), Err(CommandError::Canceled));
    }

    #[test]
    fn try_submit_backpressures() {
        // Capacity 1 and no worker progress guarantee isn't easy to
        // arrange deterministically; instead saturate a tiny queue and
        // accept either success or Busy — but require that Busy hands
        // the command back intact.
        let svc = start(100, 1, ServiceConfig { queue_capacity: 1 });
        let client = svc.client();
        let mut busy = 0;
        for k in 0..1_000u64 {
            let (cmd, _t) = Command::insert(k * 2 + 1, k);
            match client.try_submit(cmd) {
                Ok(()) => {}
                Err(TryPushError::Busy(cmd)) => {
                    busy += 1;
                    // Blocking resubmission of the exact command works.
                    client.submit(cmd).unwrap();
                }
                Err(TryPushError::Closed(_)) => panic!("service is open"),
            }
        }
        // Busy rejections are counted per kind before shutdown tears
        // the service down.
        let rejected = svc.metrics().counter("service.insert.rejected_busy");
        let index = svc.shutdown();
        assert_eq!(index.len(), 1_100);
        // On a capacity-1 queue some pushes must have seen Busy.
        assert!(busy > 0, "expected at least one backpressure rejection");
        assert_eq!(rejected, Some(busy));
    }

    #[test]
    fn metrics_snapshot_reflects_traffic() {
        let svc = start(1_000, 2, ServiceConfig::default());
        let client = svc.client();
        let tickets: Vec<_> = (0..100u64).map(|k| client.insert(k * 2 + 1, k)).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(client.get(0).wait(), Ok(Some(0)));

        let snap = svc.metrics();
        // Every resolved command recorded an end-to-end and a
        // queue-wait sample under its kind.
        let e2e = snap.histogram("service.insert.end_to_end").unwrap();
        assert_eq!(e2e.count(), 100);
        assert!(e2e.max() > 0);
        assert!(e2e.percentile(50.0) <= e2e.percentile(99.0));
        assert_eq!(
            snap.histogram("service.insert.queue_wait").unwrap().count(),
            100
        );
        assert_eq!(snap.histogram("service.get.end_to_end").unwrap().count(), 1);
        assert_eq!(snap.counter("service.insert.submitted"), Some(100));
        assert_eq!(snap.counter("service.get.submitted"), Some(1));
        assert_eq!(snap.counter("service.insert.rejected_busy"), Some(0));
        // Execute samples are per coalesced run: at least one, never
        // more than one per command.
        let execute = snap.histogram("service.insert.execute").unwrap();
        assert!(execute.count() >= 1 && execute.count() <= 100);
        // The stats translation rides in the same snapshot.
        assert_eq!(snap.counter("service.processed"), Some(101));
        assert_eq!(snap.gauge("service.lanes"), Some(2.0));
        assert_eq!(snap.gauge("service.degraded"), Some(0.0));
        assert!(snap.gauge("index.entries").unwrap() >= 1_000.0);
        // The exported document is valid JSON with the histogram
        // summary fields.
        let text = snap.to_json().pretty();
        let back = fiting_telemetry::Json::parse(&text).unwrap();
        assert!(back
            .get("service.insert.end_to_end")
            .and_then(|m| m.get("p99"))
            .and_then(fiting_telemetry::Json::as_f64)
            .is_some());
        let _ = svc.shutdown();
    }

    #[test]
    fn every_kind_records_end_to_end_before_its_ticket_resolves() {
        // Each round's `insert`s are their own commands and samples.
        let svc = start(1_000, 2, ServiceConfig::default());
        let client = svc.client();
        let e2e = |kind: &str| {
            let name = format!("service.{kind}.end_to_end");
            svc.metrics()
                .histogram(&name)
                .map(fiting_telemetry::HistogramSnapshot::count)
        };
        for round in 1..=20u64 {
            // Read straight after each `wait()`: a sample recorded
            // after the ticket resolved would be missing here.
            assert_eq!(client.get(10).wait(), Ok(Some(5)));
            assert_eq!(e2e("get"), Some(round));
            assert_eq!(client.range(10..=14).wait().map(|v| v.len()), Ok(3));
            assert_eq!(e2e("range"), Some(round));
            assert_eq!(client.insert(11, round).wait(), Ok(None));
            assert_eq!(e2e("insert"), Some(3 * round - 2));
            assert_eq!(client.remove(11).wait(), Ok(Some(round)));
            assert_eq!(e2e("remove"), Some(round));
            let writes = [client.insert(1, round), client.insert(1_999, round)];
            let old = if round == 1 { None } else { Some(round - 1) };
            assert_eq!(writes.map(Ticket::wait), [Ok(old), Ok(old)]);
            assert_eq!(e2e("insert"), Some(3 * round));
        }
        // The same order without a race to win: a sink reads the
        // count at the instant the worker resolves the ticket.
        let shared = Arc::clone(&svc.shared);
        let (seen_tx, seen) = std::sync::mpsc::channel();
        let done = Completer::from_fn(move |result: Result<Option<u64>, CommandError>| {
            let get = telemetry::CommandKind::Get;
            let count = shared.telemetry.end_to_end(get).snapshot().count();
            let _ = seen_tx.send((result, count));
        });
        client.submit(Command::Get { key: 10, done }).unwrap();
        assert_eq!(seen.recv(), Ok((Ok(Some(5)), 21)));
        let _ = svc.shutdown();
    }

    #[test]
    fn is_closed_needs_every_lane_closed() {
        let svc = start(100, 2, ServiceConfig::default());
        let client = svc.client();
        assert_eq!(svc.stats().lanes.len(), 2);
        // Lane 0 refuses from here on (as a poisoned lane does), while
        // lane 1 still serves: the service is not closed.
        svc.shared.queues[0].close();
        assert!(!client.is_closed());
        assert_eq!(client.get(0).wait(), Err(CommandError::Canceled));
        assert_eq!(client.insert(199, 1).wait(), Ok(None));
        let _ = svc.shutdown();
        assert!(client.is_closed());
    }

    #[test]
    fn canceled_commands_do_not_pollute_latency() {
        // Poison the lane mid-stream: the canceled tickets must not
        // record end-to-end samples (their wall time measures
        // teardown), while the pre-panic insert does.
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 1, (0..10u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let client = svc.client();
        assert_eq!(client.insert(20, 1).wait(), Ok(None));
        assert_eq!(
            client.insert(BOOM_KEY, 0).wait(),
            Err(CommandError::Canceled)
        );
        let behind: Vec<_> = (0..20u64).map(|k| client.insert(30 + k, k)).collect();
        for t in behind {
            assert_eq!(t.wait(), Err(CommandError::Canceled));
        }
        await_panics(&svc, 0, 1);
        let snap = svc.metrics();
        // Only the successful pre-panic insert recorded end-to-end.
        assert_eq!(
            snap.histogram("service.insert.end_to_end").unwrap().count(),
            1
        );
        assert_eq!(snap.counter("service.panics"), Some(1));
        let _ = svc.shutdown();
    }

    #[test]
    fn stats_observe_batching_and_occupancy() {
        let svc = start(10_000, 4, ServiceConfig::default());
        let client = svc.client();
        let tickets: Vec<_> = (0..2_000u64).map(|k| client.insert(k * 2 + 1, k)).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = svc.stats();
        assert_eq!(stats.lanes.len(), 4);
        assert_eq!(stats.shards.len(), 4, "no rebalancer: shards == lanes");
        assert_eq!(stats.rebalance, None);
        assert_eq!(stats.total_processed(), 2_000);
        assert!(stats.mean_batch_len() >= 1.0);
        let entries: usize = stats.shards.iter().map(|s| s.entries).sum();
        assert_eq!(entries, 12_000);
        assert!(stats.imbalance() >= 1.0);
        for s in &stats.lanes {
            assert_eq!(s.queue_capacity, 1_024);
        }
        // Every ticket has resolved, so the per-kind submission
        // counters account for exactly what the lanes processed.
        let snap = svc.metrics();
        let submitted: u64 = crate::telemetry::CommandKind::ALL
            .iter()
            .filter_map(|k| snap.counter(&format!("service.{}.submitted", k.as_str())))
            .sum();
        assert_eq!(submitted, stats.total_processed());
        let _ = svc.shutdown();
    }

    #[test]
    fn concurrent_clients_hammer_service() {
        let svc = start(10_000, 4, ServiceConfig::default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let client = svc.client();
            handles.push(thread::spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..500u64 {
                    let k = (t * 500 + i) * 2 + 1;
                    tickets.push(client.insert(k, i));
                }
                for ticket in tickets {
                    ticket.wait().unwrap();
                }
                let hits = client.range(..).wait().unwrap();
                assert!(hits.len() >= 10_000);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.shutdown().len(), 12_000);
    }

    #[test]
    fn rebalancing_service_splits_hot_shard_under_load() {
        let index: fiting_index_api::ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 4, (0..4_000u64).map(|k| (k, k)).collect()).unwrap();
        let rebalancer = Rebalancer::new();
        let svc = IndexService::start_rebalancing(
            index,
            ServiceConfig::default(),
            rebalancer,
            Duration::from_millis(1),
        );
        let client = svc.client();
        // Append-skew through the pipeline: all writes land past the
        // last boundary.
        let mut tickets = Vec::new();
        for k in 4_000..12_000u64 {
            tickets.push(client.insert(k, k));
        }
        for t in tickets {
            t.wait().unwrap();
        }
        // The coordinator runs every 1ms; give it a few beats.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = svc.stats();
            let reb = stats.rebalance.expect("rebalancer attached");
            if reb.splits >= 1 {
                assert!(stats.shards.len() > stats.lanes.len());
                assert!(reb.moved_keys > 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no split within deadline: {stats:?}"
            );
            thread::sleep(Duration::from_millis(2));
        }
        // Reads still resolve for every key, on both layouts' terms.
        for k in (0..12_000u64).step_by(251) {
            assert_eq!(client.get(k).wait(), Ok(Some(k)), "lost key {k}");
        }
        let index = svc.shutdown();
        assert_eq!(index.len(), 12_000);
    }

    #[test]
    fn rebalance_outcome_is_exported() {
        // The outcome enum rides along for embedders that step a
        // Rebalancer by hand; make sure the re-export path stays.
        let o = RebalanceOutcome::Idle;
        assert_eq!(o, RebalanceOutcome::Idle);
    }

    /// Fault injection for the worker's panic-containment path: a
    /// [`BinarySearchIndex`] that panics when asked to insert [`BOOM_KEY`].
    /// Either step can be held: the boom insert meets `boom_gate`, and
    /// `reload` meets `reload_gate`, each on entry and again to leave.
    struct PanicOnKey {
        inner: BinarySearchIndex<u64, u64>,
        boom_gate: Option<Arc<std::sync::Barrier>>,
        reload_gate: Option<Arc<std::sync::Barrier>>,
    }

    impl PanicOnKey {
        fn gated(
            boom_gate: Option<Arc<std::sync::Barrier>>,
            reload_gate: Option<Arc<std::sync::Barrier>>,
        ) -> ShardedIndex<u64, u64, Self> {
            let inner = BinarySearchIndex::build_from(&(), (0..10u64).map(|k| (k, k))).unwrap();
            let shard = PanicOnKey {
                inner,
                boom_gate,
                reload_gate,
            };
            ShardedIndex::from_shards(Vec::new(), vec![shard])
        }
    }

    fn hold(gate: Option<&Arc<std::sync::Barrier>>) {
        if let Some(gate) = gate {
            gate.wait();
            gate.wait();
        }
    }

    const BOOM_KEY: u64 = u64::MAX;

    impl SortedIndex<u64, u64> for PanicOnKey {
        type RangeIter<'a> = <BinarySearchIndex<u64, u64> as SortedIndex<u64, u64>>::RangeIter<'a>;

        fn get(&self, key: &u64) -> Option<&u64> {
            self.inner.get(key)
        }
        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
            if key == BOOM_KEY {
                hold(self.boom_gate.as_ref());
                panic!("injected fault");
            }
            self.inner.insert(key, value)
        }
        fn remove(&mut self, key: &u64) -> Option<u64> {
            self.inner.remove(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn range<R: std::ops::RangeBounds<u64>>(&self, range: R) -> Self::RangeIter<'_> {
            self.inner.range(range)
        }
        fn reload(&mut self) -> bool {
            hold(self.reload_gate.as_ref());
            false
        }
    }

    impl BuildableIndex<u64, u64> for PanicOnKey {
        type Config = ();
        type BuildError = std::convert::Infallible;

        fn build_from(
            config: &(),
            sorted: impl IntoIterator<Item = (u64, u64)>,
        ) -> Result<Self, Self::BuildError> {
            Ok(PanicOnKey {
                inner: BinarySearchIndex::build_from(config, sorted)?,
                boom_gate: None,
                reload_gate: None,
            })
        }
    }

    /// Waits until the lane's caught-panic counter reaches `want`.
    /// The counter increments on the worker thread after the panicking
    /// ticket has already canceled, so observers must poll briefly.
    fn await_panics(svc: &IndexService<u64, u64, PanicOnKey>, lane: usize, want: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.stats().lanes[lane].panics < want {
            assert!(
                std::time::Instant::now() < deadline,
                "lane {lane} never recorded {want} caught panic(s): {:?}",
                svc.stats().lanes
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn worker_panic_cancels_inflight_and_queued_tickets() {
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 1, (0..100u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let client = svc.client();
        assert_eq!(client.insert(200, 1).wait(), Ok(None));

        // The boom command panics mid-batch; everything queued behind
        // it on the lane must cancel — the pre-guard failure mode was
        // these waits hanging forever on a dead worker.
        let boom = client.insert(BOOM_KEY, 0);
        let behind: Vec<_> = (0..50u64).map(|k| client.insert(300 + k, k)).collect();
        assert_eq!(boom.wait(), Err(CommandError::Canceled));
        for t in behind {
            assert_eq!(
                t.wait(),
                Err(CommandError::Canceled),
                "queued ticket must not hang"
            );
        }
        await_panics(&svc, 0, 1);

        // The lane is poisoned: submissions fail fast, tickets come
        // back pre-canceled rather than hanging.
        assert!(client.is_closed());
        let (cmd, t) = Command::insert(1u64, 1u64);
        assert!(client.submit(cmd).is_err());
        assert_eq!(t.wait(), Err(CommandError::Canceled));
        assert_eq!(client.get(0).wait(), Err(CommandError::Canceled));

        // Shutdown still joins cleanly and hands the index back; the
        // pre-panic write survived.
        let index = svc.shutdown();
        assert_eq!(index.get(&200), Some(1));
    }

    #[test]
    fn a_durable_lane_heals_in_place() {
        // BOOM_KEY routes to lane 1 of 2. After the panic, the lane's
        // worker must reload its shard and serve fresh writes through
        // the same queue.
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 2, (0..100u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start_durable(
            index,
            ServiceConfig::default(),
            DurabilityConfig {
                checkpoint_interval: Duration::from_millis(5),
                ..DurabilityConfig::default()
            },
        );
        let client = svc.client();

        assert_eq!(
            client.insert(BOOM_KEY, 0).wait(),
            Err(CommandError::Canceled)
        );
        await_panics(&svc, 1, 1);

        // Wait for the heal: restart counted, health Healthy.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let lane = svc.stats().lanes[1];
            if lane.restarts >= 1 && lane.health == LaneHealth::Healthy {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "lane 1 never healed: {lane:?}"
            );
            thread::sleep(Duration::from_millis(2));
        }
        assert!(!client.is_closed());

        // Fresh writes and reads round-trip through the healed lane
        // (keys ≥ 50 route to lane 1); pre-panic data survived (the
        // volatile shard has nothing to reload, so it keeps serving
        // its in-memory state).
        assert_eq!(client.insert(90, 909).wait(), Ok(Some(90)));
        assert_eq!(client.get(90).wait(), Ok(Some(909)));
        assert_eq!(client.get(99).wait(), Ok(Some(99)));
        // The healthy lane was never disturbed.
        assert_eq!(svc.stats().lanes[0].panics, 0);

        // A second panic on the same lane heals again.
        assert_eq!(
            client.insert(BOOM_KEY, 0).wait(),
            Err(CommandError::Canceled)
        );
        await_panics(&svc, 1, 2);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.stats().lanes[1].restarts < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "no second heal: {:?}",
                svc.stats().lanes
            );
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(client.insert(91, 1).wait(), Ok(Some(91)));

        let index = svc.shutdown();
        assert_eq!(index.get(&90), Some(909));
    }

    #[test]
    fn writes_queued_behind_a_panic_run_in_order() {
        // The worker is held inside the boom insert — the boom alone in
        // its drain — while one client pipelines 50 writes to the same
        // key behind it. Released, the worker panics, heals, and runs
        // every queued write in submission order: each sees the value
        // the write before it left.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let svc = IndexService::start_durable(
            PanicOnKey::gated(Some(Arc::clone(&gate)), None),
            ServiceConfig::default(),
            DurabilityConfig::default(),
        );
        let client = svc.client();
        let boom = client.insert(BOOM_KEY, 0);
        gate.wait();
        let behind: Vec<_> = (0..50u64).map(|v| client.insert(5, 100 + v)).collect();
        gate.wait();
        assert_eq!(boom.wait(), Err(CommandError::Canceled));
        let mut previous = 5;
        for (v, t) in (100u64..).zip(behind) {
            assert_eq!(t.wait(), Ok(Some(previous)), "write of {v}");
            previous = v;
        }
        assert_eq!(client.get(5).wait(), Ok(Some(149)));
        let lane = svc.stats().lanes[0];
        assert_eq!((lane.panics, lane.restarts), (1, 1));
        assert_eq!(lane.health, LaneHealth::Healthy);
        assert_eq!(svc.shutdown().get(&5), Some(149));
    }

    #[test]
    fn a_lane_heals_with_no_timer_due() {
        // The checkpoint timer is an hour away and nothing else ticks:
        // the panicking worker heals its own lane.
        let svc = IndexService::start_durable(
            PanicOnKey::gated(None, None),
            ServiceConfig::default(),
            DurabilityConfig {
                checkpoint_interval: Duration::from_secs(3_600),
                ..DurabilityConfig::default()
            },
        );
        let client = svc.client();
        assert_eq!(
            client.insert(BOOM_KEY, 0).wait(),
            Err(CommandError::Canceled)
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.stats().lanes[0].health != LaneHealth::Healthy
            || svc.stats().lanes[0].restarts < 1
        {
            assert!(
                std::time::Instant::now() < deadline,
                "lane never healed: {:?}",
                svc.stats().lanes
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(client.insert(20, 2).wait(), Ok(None));
        // Every heal is spent by the shipped budget's last panic; the
        // one after it leaves the lane down.
        for _ in 0..worker::LANE_HEALS {
            assert_eq!(
                client.insert(BOOM_KEY, 0).wait(),
                Err(CommandError::Canceled)
            );
        }
        await_panics(&svc, 0, worker::LANE_HEALS + 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.stats().lanes[0].health != LaneHealth::Poisoned {
            assert!(std::time::Instant::now() < deadline, "lane not poisoned");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.stats().lanes[0].restarts, worker::LANE_HEALS);
        // Poisoned: submissions fail fast.
        assert!(client.is_closed());
        assert_eq!(client.get(20).wait(), Err(CommandError::Canceled));
        assert_eq!(svc.shutdown().get(&20), Some(2));
    }

    #[test]
    fn shutdown_during_a_lane_recovery_returns() {
        // The worker is held inside its shard reload while shutdown
        // closes the queue; released, it must drain and exit rather
        // than block the join in `pop_batch` forever.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let svc = IndexService::start_durable(
            PanicOnKey::gated(None, Some(Arc::clone(&gate))),
            ServiceConfig::default(),
            DurabilityConfig::default(),
        );
        assert_eq!(
            svc.client().insert(BOOM_KEY, 0).wait(),
            Err(CommandError::Canceled)
        );
        // The worker is now inside the reload, under the shard's write
        // lock (so no `stats()` here: it would wait for that lock).
        gate.wait();
        let shared = Arc::clone(&svc.shared);
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = thread::spawn(move || done.send(svc.shutdown().len()).unwrap());
        // Release the reload only once shutdown has closed the queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !shared.queues[0].is_closed() {
            assert!(
                std::time::Instant::now() < deadline,
                "shutdown never closed the queue"
            );
            thread::yield_now();
        }
        gate.wait();
        assert_eq!(stopped.recv_timeout(Duration::from_secs(10)), Ok(10));
        stopper.join().unwrap();
    }

    #[test]
    fn worker_panic_is_contained_to_its_lane() {
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 2, (0..100u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let client = svc.client();
        assert_eq!(svc.stats().lanes.len(), 2);

        // BOOM_KEY is u64::MAX, so it routes to the last lane.
        assert_eq!(
            client.insert(BOOM_KEY, 0).wait(),
            Err(CommandError::Canceled)
        );
        await_panics(&svc, 1, 1);
        assert_eq!(svc.stats().lanes[0].panics, 0);

        // The healthy lane keeps serving reads and writes...
        assert_eq!(client.insert(10, 99).wait(), Ok(Some(10)));
        assert_eq!(client.get(10).wait(), Ok(Some(99)));
        // ...while the poisoned lane cancels instead of hanging.
        assert_eq!(client.get(90).wait(), Err(CommandError::Canceled));

        let index = svc.shutdown();
        assert_eq!(index.get(&10), Some(99));
    }
}
