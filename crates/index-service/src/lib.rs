//! **fiting-index-service** — the command-pipeline service layer over
//! [`ShardedIndex`]: the API redesign that turns direct
//! method-calls-under-a-lock into batched, backpressured command
//! submission.
//!
//! # Why a pipeline
//!
//! Delta-buffered learned indexes amortize best when writes arrive in
//! batches, and `ShardedIndex` already has a batched `insert_many` —
//! but no caller-facing API *produced* batches. Here, callers hold a
//! cheap [`Client`] handle and submit typed [`Command`]s into bounded
//! per-lane queues (a **lane** is one queue + one worker thread; lane
//! routing is a boundary snapshot frozen at service start); each lane's
//! worker drains its queue and manufactures the batches automatically:
//!
//! * runs of point writes apply under **one** write-lock acquisition
//!   per involved shard,
//! * point reads are answered one by one straight off the index's
//!   wait-free read path (there is no read lock to amortize),
//! * `InsertMany` flows through a single `insert_many` call,
//! * each command resolves an executor-free Condvar [`Ticket`] the submitter
//!   holds (executor-agnostic: a future `tokio` front-end wraps
//!   [`Completer::from_fn`] around a oneshot sender instead of
//!   replacing this crate).
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
//! use fiting_index_api::doctest_support::VecIndex;
//! use fiting_index_api::ShardedIndex;
//! use fiting_index_service::{IndexService, ServiceConfig};
//!
//! let pairs: Vec<(u64, u64)> = (0..1_000).map(|k| (k * 2, k)).collect();
//! let index: ShardedIndex<u64, u64, VecIndex<u64, u64>> =
//!     ShardedIndex::bulk_load(&(), 4, pairs).unwrap();
//!
//! let service = IndexService::start(index, ServiceConfig::default());
//! let client = service.client();
//!
//! // Pipelined: fire commands, hold tickets, wait when needed.
//! let hit = client.get(500);
//! let fresh = client.insert_many((0..10).map(|k| (k * 2 + 1, k)).collect());
//! let scan = client.range(0..=9);
//!
//! assert_eq!(hit.wait(), Ok(Some(250)));
//! assert_eq!(fresh.wait(), Ok(10));
//! assert_eq!(scan.wait().unwrap().len(), 10);
//!
//! let index = service.shutdown(); // drains, resolves, joins
//! assert_eq!(index.len(), 1_010);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
// `Canceled` is re-exported as a bare name (it is a `CommandError`
// variant) so pre-taxonomy call sites — `Err(Canceled)` — still read
// and pattern-match unchanged.
pub use ticket::CommandError::Canceled;
pub use ticket::{ticket, CommandError, Completer, Outcome, Ticket};

// Re-exported so service users can configure rebalancing without a
// separate fiting-index-api import.
pub use fiting_index_api::{RebalancePolicy, RebalanceStats, Rebalancer, WriteSampler};

use fiting_index_api::{Key, RebalanceCounters, ShardedIndex, SortedIndex};
use fiting_sync::primitives::{Condvar, Mutex};
use stats::{LaneState, WorkerCounters};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::{ServiceTelemetry, Timed};

/// Tuning for one [`IndexService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Per-lane queue bound — the backpressure threshold. Submitters
    /// block (or get [`TryPushError::Busy`]) once a lane has this many
    /// commands in flight.
    pub queue_capacity: usize,
    /// Most commands one queue drain may return; caps worker
    /// lock-hold time per batch.
    pub max_batch: usize,
    /// How long a worker lingers after its first command to let a
    /// batch accumulate. Zero (the default) drains whatever is
    /// present — under load, batches form by themselves; a small
    /// window trades latency for larger batches on light traffic.
    pub batch_window: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1_024,
            max_batch: 256,
            batch_window: Duration::ZERO,
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
    /// contained a write ([`ShardedIndex::sync_all`]). This is the
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

/// Tuning for the lane supervisor
/// ([`IndexService::start_supervised`]): how often it probes for
/// poisoned lanes and how many times it will resurrect any one lane
/// before giving up on it.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// How often the supervisor scans lane health.
    pub interval: Duration,
    /// Resurrections allowed per lane. Once a lane has been restarted
    /// this many times it stays [`LaneHealth::Poisoned`] (submissions
    /// fail fast) — the crash loop evidently is not transient. `0`
    /// disables resurrection entirely.
    pub max_lane_restarts: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            interval: Duration::from_millis(20),
            max_lane_restarts: 8,
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
    /// Queue payloads carry their acceptance stamp so the worker can
    /// measure queue wait and arm end-to-end recording at drain time.
    pub(crate) queues: Vec<BoundedQueue<Timed<Command<K, V>>>>,
    pub(crate) counters: Vec<WorkerCounters>,
    /// Per-kind latency histograms and submission counters; recording
    /// is a single relaxed atomic, shared by clients and workers.
    pub(crate) telemetry: Arc<ServiceTelemetry>,
    /// Per-lane health words (see [`LaneHealth`]); written by the
    /// workers (Poisoned) and the supervisor (Recovering/Healthy),
    /// read by stats snapshots.
    pub(crate) lane_state: Vec<LaneState>,
    /// Failed checkpoint rotations observed by the checkpoint
    /// coordinator — surfaced through [`ServiceStats`], where before
    /// this counter the coordinator silently dropped the error.
    pub(crate) checkpoint_failures: AtomicU64,
    pub(crate) config: ServiceConfig,
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
                    LaneServiceStats::from_counters(
                        lane,
                        self.queues[lane].len(),
                        self.queues[lane].capacity(),
                        counters,
                        self.lane_state[lane].get(),
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
/// shards at start time), optionally plus a rebalance coordinator.
///
/// Dropping the service shuts it down (close → drain → join); prefer
/// the explicit [`shutdown`](Self::shutdown), which also returns the
/// index.
pub struct IndexService<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> {
    shared: Arc<ServiceShared<K, V, I>>,
    /// One slot per lane; the supervisor takes a dead worker's handle
    /// to join it and stores the respawned one, so shutdown always
    /// joins the *current* generation of every lane's worker.
    workers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    /// The timer threads (rebalance coordinator, checkpointer, lane
    /// supervisor — whichever this service was started with), in spawn
    /// order; all share `coordinator_stop`.
    coordinators: Vec<JoinHandle<()>>,
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
    /// Shutdown issues one final [`ShardedIndex::sync_all`] after the
    /// workers drain, so a clean [`shutdown`](Self::shutdown) leaves
    /// every accepted write in the log.
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

    /// Starts a durable service *with a lane supervisor*: a thread
    /// that probes lane health every
    /// [`interval`](SupervisorConfig::interval) and resurrects
    /// poisoned lanes — the shard is rebuilt from its newest snapshot
    /// plus WAL replay ([`SortedIndex::reload`]), the lane's queue is
    /// reopened, and a fresh worker thread takes over. Acknowledged
    /// writes survive (they were WAL-committed before their tickets
    /// resolved); commands canceled by the poisoning were reported as
    /// [`Canceled`] and stay that way.
    ///
    /// A supervised service runs without a rebalancer on purpose: the
    /// lane ↔ shard mapping stays 1:1 for the service's lifetime,
    /// which is what lets the supervisor reload exactly the poisoned
    /// lane's shard by position.
    #[must_use]
    pub fn start_supervised(
        index: ShardedIndex<K, V, I>,
        config: ServiceConfig,
        durability: DurabilityConfig,
        supervisor: SupervisorConfig,
    ) -> Self {
        let mut service = Self::launch(index, config, None, None, Some(durability));
        service.spawn_checkpointer();
        let SupervisorConfig {
            interval,
            max_lane_restarts: max_restarts,
        } = supervisor;
        let shared = Arc::clone(&service.shared);
        let workers = Arc::clone(&service.workers);
        service.spawn_ticker("index-service-supervisor", interval, move || {
            supervise_pass(&shared, &workers, max_restarts);
        });
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
            lane_state: (0..lanes).map(|_| LaneState::default()).collect(),
            telemetry: Arc::new(ServiceTelemetry::new()),
            checkpoint_failures: AtomicU64::new(0),
            index,
            router,
            config,
            sampler,
            rebalance,
            durability,
        });
        let workers = (0..lanes)
            .map(|lane| Some(spawn_worker(lane, Arc::clone(&shared))))
            .collect();
        IndexService {
            shared,
            workers: Arc::new(Mutex::new(workers)),
            coordinators: Vec::new(),
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
    /// Spawns a timer thread named `name` that runs `body` every
    /// `interval` until [`stop`](Self::stop) raises the shared stop
    /// flag (checked under its mutex before and after every wait, so a
    /// stop raised mid-`body` is seen without sleeping a full interval).
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
        self.coordinators.push(handle);
    }

    fn stop(&mut self) {
        // Timer threads first, so the layout stops moving while queues
        // drain — and, critically, so the supervisor cannot reopen a
        // queue or respawn a worker after we close and join below:
        // joining it means any in-flight resurrection has finished (its
        // respawned worker handle is in `workers`) before the
        // close-and-join sweep starts.
        {
            let (lock, cvar) = &*self.coordinator_stop;
            *lock.lock() = true;
            cvar.notify_all();
        }
        for coordinator in self.coordinators.drain(..) {
            let _ = coordinator.join();
        }
        for queue in &self.shared.queues {
            queue.close();
        }
        for worker in self.workers.lock().iter_mut() {
            // A panicked worker already canceled its in-flight tickets
            // (completers resolve on drop); nothing more to salvage.
            if let Some(worker) = worker.take() {
                let _ = worker.join();
            }
        }
        // Final group commit: a durable service leaves no accepted
        // write sitting in an unsynced WAL buffer after clean shutdown.
        if self.shared.durability.is_some() {
            self.shared.index.sync_all();
        }
    }
}

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> Drop for IndexService<K, V, I> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_worker<K, V, I>(lane: usize, shared: Arc<ServiceShared<K, V, I>>) -> JoinHandle<()>
where
    K: Key + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    I: SortedIndex<K, V> + Send + Sync + 'static,
{
    std::thread::Builder::new()
        .name(format!("index-service-{lane}"))
        .spawn(move || worker::run(lane, &shared))
        .expect("spawn index-service worker")
}

/// One supervisor sweep: resurrect every poisoned lane that still has
/// restart budget.
///
/// Ordering is what makes this safe: the old worker is **joined**
/// before anything else, so its poison-path teardown (close queue,
/// drain-and-cancel everything queued) has fully finished before the
/// queue is reopened — no canceled command can race a resurrected
/// consumer. The shard reload happens while the queue is still closed,
/// so the fresh worker's first batch runs against the rebuilt shard.
fn supervise_pass<K, V, I>(
    shared: &Arc<ServiceShared<K, V, I>>,
    workers: &Mutex<Vec<Option<JoinHandle<()>>>>,
    max_restarts: u64,
) where
    K: Key + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    I: SortedIndex<K, V> + Send + Sync + 'static,
{
    for lane in 0..shared.queues.len() {
        let state = &shared.lane_state[lane];
        if state.get() != LaneHealth::Poisoned {
            continue;
        }
        // ordering: Relaxed — the supervisor is the only writer of
        // restarts, so its own read-modify-write sequence is ordered
        // by program order; snapshots only observe.
        let restarts = shared.counters[lane].restarts.load(AtomicOrdering::Relaxed);
        if restarts >= max_restarts {
            // Crash-looping lane: leave it Poisoned so submissions
            // keep failing fast instead of bouncing forever.
            continue;
        }
        if !state.transition(LaneHealth::Poisoned, LaneHealth::Recovering) {
            continue;
        }
        // Join the dead worker first: its poison path may still be
        // draining the closed queue, and reopening mid-drain would
        // feed it (and cancel) freshly accepted commands.
        if let Some(dead) = workers.lock()[lane].take() {
            let _ = dead.join();
        }
        // Rebuild the lane's shard from its newest snapshot + WAL
        // replay, discarding whatever partially-applied batch the
        // panic left in memory. Supervised services run without a
        // rebalancer, so lane index == shard index. Volatile shards
        // report `false` (nothing to reload) and simply keep serving
        // their in-memory state.
        let _ = shared.index.reload_shard(lane);
        shared.queues[lane].reopen();
        let fresh = spawn_worker(lane, Arc::clone(shared));
        workers.lock()[lane] = Some(fresh);
        // ordering: Relaxed — advisory stats counter.
        shared.counters[lane]
            .restarts
            .fetch_add(1, AtomicOrdering::Relaxed);
        // CAS, not a blind set: the freshly spawned worker may already
        // have hit another poison pill and re-flipped the lane to
        // Poisoned — stomping that with Healthy would strand a closed
        // queue behind a healthy-looking lane forever. On CAS failure
        // the lane stays Poisoned and the next pass resurrects again.
        state.transition(LaneHealth::Recovering, LaneHealth::Healthy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiting_index_api::doctest_support::VecIndex;
    use fiting_index_api::{BuildableIndex, RebalanceOutcome};
    use std::thread;

    type Svc = IndexService<u64, u64, VecIndex<u64, u64>>;

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
        // VecIndex leaves the SortedIndex durability defaults in place
        // (try_sync/try_checkpoint do nothing), so a durable service
        // over it must behave exactly like a volatile one — hooks fire,
        // nothing breaks, shutdown is clean.
        let index: ShardedIndex<u64, u64, VecIndex<u64, u64>> =
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
        assert_eq!(client.insert_many(vec![(3, 1), (5, 2)]).wait(), Ok(2));
        // Give the checkpoint coordinator a few beats; every pass is a
        // no-op because try_checkpoint() defaults to Ok(false).
        thread::sleep(Duration::from_millis(10));
        assert_eq!(svc.shutdown().len(), 1_002);
    }

    #[test]
    fn insert_many_fans_out_and_sums() {
        let svc = start(10_000, 8, ServiceConfig::default());
        let client = svc.client();
        // Odd keys across the whole key space: touches every lane.
        let fresh = client.insert_many((0..1_000u64).map(|k| (k * 20 + 1, k)).collect());
        assert_eq!(fresh.wait(), Ok(1_000));
        // Overwrites are not fresh.
        let again = client.insert_many(vec![(1, 9), (21, 9), (2_000_001, 9)]);
        assert_eq!(again.wait(), Ok(1));
        assert_eq!(client.insert_many(Vec::new()).wait(), Ok(0));
        assert_eq!(svc.shutdown().len(), 11_001);
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
        assert_eq!(client.get(0).wait(), Err(Canceled));
        assert_eq!(client.insert_many(vec![(1, 1)]).wait(), Err(Canceled));
        let (cmd, t) = Command::get(0);
        assert!(client.submit(cmd).is_err());
        assert_eq!(t.wait(), Err(Canceled));
    }

    #[test]
    fn try_submit_backpressures() {
        // Capacity 1 and no worker progress guarantee isn't easy to
        // arrange deterministically; instead saturate a tiny queue and
        // accept either success or Busy — but require that Busy hands
        // the command back intact.
        let svc = start(
            100,
            1,
            ServiceConfig {
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
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
    fn canceled_commands_do_not_pollute_latency() {
        // Poison the lane mid-stream: the canceled tickets must not
        // record end-to-end samples (their wall time measures
        // teardown), while the pre-panic insert does.
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 1, (0..10u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let client = svc.client();
        assert_eq!(client.insert(20, 1).wait(), Ok(None));
        assert_eq!(client.insert(BOOM_KEY, 0).wait(), Err(Canceled));
        let behind: Vec<_> = (0..20u64).map(|k| client.insert(30 + k, k)).collect();
        for t in behind {
            assert_eq!(t.wait(), Err(Canceled));
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
    fn batch_window_accumulates_light_traffic() {
        let svc = start(
            1_000,
            1,
            ServiceConfig {
                batch_window: Duration::from_millis(30),
                ..ServiceConfig::default()
            },
        );
        let client = svc.client();
        // Two quick submissions should usually land in one drained
        // batch thanks to the window; assert only on correctness (the
        // timing claim is probabilistic) plus the stats invariant.
        let a = client.insert(1, 1);
        let b = client.insert(3, 3);
        a.wait().unwrap();
        b.wait().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.total_processed(), 2);
        assert!(stats.lanes[0].batches <= 2);
        let _ = svc.shutdown();
    }

    #[test]
    fn rebalancing_service_splits_hot_shard_under_load() {
        let index: fiting_index_api::ShardedIndex<u64, u64, VecIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 4, (0..4_000u64).map(|k| (k, k)).collect()).unwrap();
        let rebalancer = Rebalancer::new(RebalancePolicy {
            trigger_steps: 1,
            cooldown_steps: 0,
            min_split_entries: 256,
            min_reservoir_samples: 8,
            ..RebalancePolicy::default()
        });
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
    /// [`VecIndex`] that panics when asked to insert [`BOOM_KEY`].
    struct PanicOnKey {
        inner: VecIndex<u64, u64>,
    }

    const BOOM_KEY: u64 = u64::MAX;

    impl SortedIndex<u64, u64> for PanicOnKey {
        type RangeIter<'a> = <VecIndex<u64, u64> as SortedIndex<u64, u64>>::RangeIter<'a>;

        fn name(&self) -> &'static str {
            "panic-on-key"
        }
        fn get(&self, key: &u64) -> Option<&u64> {
            self.inner.get(key)
        }
        fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
            assert_ne!(key, BOOM_KEY, "injected fault");
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
    }

    impl BuildableIndex<u64, u64> for PanicOnKey {
        type Config = ();
        type BuildError = std::convert::Infallible;

        fn build_sorted(
            config: &(),
            sorted: impl IntoIterator<Item = (u64, u64)>,
        ) -> Result<Self, Self::BuildError> {
            Ok(PanicOnKey {
                inner: VecIndex::build_sorted(config, sorted)?,
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
        assert_eq!(boom.wait(), Err(Canceled));
        for t in behind {
            assert_eq!(t.wait(), Err(Canceled), "queued ticket must not hang");
        }
        await_panics(&svc, 0, 1);

        // The lane is poisoned: submissions fail fast, tickets come
        // back pre-canceled rather than hanging.
        assert!(client.is_closed());
        let (cmd, t) = Command::insert(1u64, 1u64);
        assert!(client.submit(cmd).is_err());
        assert_eq!(t.wait(), Err(Canceled));
        assert_eq!(client.get(0).wait(), Err(Canceled));

        // Shutdown still joins cleanly and hands the index back; the
        // pre-panic write survived.
        let index = svc.shutdown();
        assert_eq!(index.get(&200), Some(1));
    }

    #[test]
    fn supervisor_resurrects_poisoned_lane() {
        // BOOM_KEY routes to lane 1 of 2. After the panic poisons the
        // lane, the supervisor must rebuild it and serve fresh writes
        // through it again — the acceptance-criteria round trip.
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 2, (0..100u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start_supervised(
            index,
            ServiceConfig::default(),
            DurabilityConfig {
                checkpoint_interval: Duration::from_millis(5),
                ..DurabilityConfig::default()
            },
            SupervisorConfig {
                interval: Duration::from_millis(2),
                max_lane_restarts: 4,
            },
        );
        let client = svc.client();

        assert_eq!(client.insert(BOOM_KEY, 0).wait(), Err(Canceled));
        await_panics(&svc, 1, 1);

        // Wait for the resurrection: restart counted, health Healthy.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let lane = svc.stats().lanes[1];
            if lane.restarts >= 1 && lane.health == LaneHealth::Healthy {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "lane 1 never resurrected: {lane:?}"
            );
            thread::sleep(Duration::from_millis(2));
        }
        assert!(!client.is_closed());

        // Fresh writes and reads round-trip through the revived lane
        // (keys ≥ 50 route to lane 1); pre-panic data survived (the
        // volatile shard has nothing to reload, so it keeps serving
        // its in-memory state).
        assert_eq!(client.insert(90, 909).wait(), Ok(Some(90)));
        assert_eq!(client.get(90).wait(), Ok(Some(909)));
        assert_eq!(client.get(99).wait(), Ok(Some(99)));
        // The healthy lane was never disturbed.
        assert_eq!(svc.stats().lanes[0].panics, 0);

        // A second panic on the same lane resurrects again.
        assert_eq!(client.insert(BOOM_KEY, 0).wait(), Err(Canceled));
        await_panics(&svc, 1, 2);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while svc.stats().lanes[1].restarts < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "no second resurrection: {:?}",
                svc.stats().lanes
            );
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(client.insert(91, 1).wait(), Ok(Some(91)));

        let index = svc.shutdown();
        assert_eq!(index.get(&90), Some(909));
    }

    #[test]
    fn supervisor_respects_restart_budget() {
        // max_lane_restarts == 0: the supervisor must leave the
        // poisoned lane alone, so it behaves like the unsupervised
        // service — submissions fail fast forever.
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 1, (0..10u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start_supervised(
            index,
            ServiceConfig::default(),
            DurabilityConfig::default(),
            SupervisorConfig {
                interval: Duration::from_millis(1),
                max_lane_restarts: 0,
            },
        );
        let client = svc.client();
        assert_eq!(client.insert(BOOM_KEY, 0).wait(), Err(Canceled));
        await_panics(&svc, 0, 1);
        // Give the supervisor several beats to (wrongly) act.
        thread::sleep(Duration::from_millis(20));
        let lane = svc.stats().lanes[0];
        assert_eq!(lane.health, LaneHealth::Poisoned);
        assert_eq!(lane.restarts, 0);
        assert!(client.is_closed());
        assert_eq!(client.get(0).wait(), Err(Canceled));
        let _ = svc.shutdown();
    }

    #[test]
    fn worker_panic_is_contained_to_its_lane() {
        let index: ShardedIndex<u64, u64, PanicOnKey> =
            ShardedIndex::bulk_load(&(), 2, (0..100u64).map(|k| (k, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let client = svc.client();
        assert_eq!(client.lane_count(), 2);

        // BOOM_KEY is u64::MAX, so it routes to the last lane.
        assert_eq!(client.insert(BOOM_KEY, 0).wait(), Err(Canceled));
        await_panics(&svc, 1, 1);
        assert_eq!(svc.stats().lanes[0].panics, 0);

        // The healthy lane keeps serving reads and writes...
        assert_eq!(client.insert(10, 99).wait(), Ok(Some(10)));
        assert_eq!(client.get(10).wait(), Ok(Some(99)));
        // ...while the poisoned lane cancels instead of hanging.
        assert_eq!(client.get(90).wait(), Err(Canceled));

        let index = svc.shutdown();
        assert_eq!(index.get(&10), Some(99));
    }
}
