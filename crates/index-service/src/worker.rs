//! The per-lane worker loop: drain, coalesce, execute, complete.
//!
//! Each lane has exactly one worker thread, so commands routed to a
//! lane execute **in submission order** — that single-consumer
//! discipline is what turns the queue into a per-key ordering
//! guarantee (lane routing is frozen at service start, so a key's
//! commands always share a lane even while the rebalancer moves shard
//! boundaries underneath). Within one drained batch the worker groups
//! maximal runs of point writes and executes everything else one
//! command at a time:
//!
//! * a run of point writes (`Insert`/`Remove`) executes through
//!   [`ShardedIndex::with_write_groups`] — **one** write-lock
//!   acquisition per involved shard instead of one per op;
//! * a `Get` is answered by one [`ShardedIndex::get`] — the read path
//!   is wait-free, so there is no lock to amortize and reads are not
//!   grouped; like a `Range`, each is its own run with its own
//!   `execute` sample;
//! * `Range` executes through [`ShardedIndex::range_collect`], which
//!   walks the live routing table shard by shard, one read section at
//!   a time.
//!
//! All three paths revalidate against the routing table after entering
//! each shard, so a concurrent split/merge re-routes rather than
//! strands a command. Every ticket resolves through one helper that
//! first records the command's end-to-end latency from its acceptance
//! stamp. Inserted keys are fed to the rebalancer's
//! [`WriteSampler`](fiting_index_api::WriteSampler) (when attached) so
//! split boundaries track the live write distribution.
//!
//! The worker never holds two locks at once — every cross-shard call
//! it makes acquires ascending and releases before the next — so
//! workers cannot deadlock each other. The loop exits when its queue
//! reports closed-and-drained; every command drained before that point
//! has its ticket resolved, which is the shutdown guarantee
//! [`IndexService::shutdown`](crate::IndexService::shutdown) documents.
//!
//! # Panic containment
//!
//! A panic escaping the index structure (or a completer sink) while a
//! batch executes would kill the worker thread outright, stranding
//! every command still queued on the lane: nothing would ever drain
//! the queue again, so their submitters' [`Ticket::wait`] calls would
//! hang forever. The loop catches the unwind instead; the in-flight
//! batch's unresolved completers cancel as the unwind drops them, and
//! the lane's [`panics`](crate::LaneServiceStats::panics) counter
//! records the event. Then one of two things happens:
//!
//! * on a durable service
//!   ([`start_durable`](crate::IndexService::start_durable)) with heals
//!   left, the worker **heals the lane in place**: it reloads its
//!   shard from snapshot + WAL, discarding whatever partial batch the
//!   panic left in memory, and goes back to draining. The queue is
//!   never closed — this worker is its only consumer, so nothing can
//!   drain it mid-reload — and commands queued behind the panicked
//!   batch run next, in submission order;
//! * otherwise the worker **poisons the lane**: the queue is closed so
//!   further submissions fail fast with [`Closed`](crate::Closed),
//!   everything already queued is drained and canceled, and the worker
//!   exits. The shard may keep a partially applied batch (the locks
//!   themselves do not poison), which is exactly the weaker guarantee
//!   the canceled tickets report.
//!
//! Other lanes — and [`shutdown`](crate::IndexService::shutdown) —
//! proceed normally either way.
//!
//! # Degraded shards
//!
//! Writes execute through the fallible [`SortedIndex::try_insert`] /
//! [`try_remove`](SortedIndex::try_remove) paths: a shard in degraded
//! read-only mode (permanent storage failure) refuses fast and the
//! ticket resolves `Err(`[`CommandError::Degraded`]`)` — the write was
//! declined, not lost — while reads keep serving. Refusals and failed
//! post-batch group commits are counted per lane (`degraded_writes`,
//! `sync_failures`); *whether* writes may be refused right now is the
//! shards' own [`ShardHealth`](fiting_index_api::ShardHealth), which
//! [`ServiceStats::is_degraded`](crate::ServiceStats::is_degraded)
//! reads and a healing checkpoint clears — the lane keeps no copy.
//!
//! [`CommandError::Degraded`]: crate::CommandError::Degraded
//!
//! [`Ticket::wait`]: crate::Ticket::wait
//! [`ShardedIndex::get`]: fiting_index_api::ShardedIndex::get
//! [`ShardedIndex::range_collect`]: fiting_index_api::ShardedIndex::range_collect
//! [`ShardedIndex::with_write_groups`]: fiting_index_api::ShardedIndex::with_write_groups

// A panic on a lane's path strands queued tickets: production code
// returns an error, and a vetted site says why with
// `#[expect(.., reason)]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]

use crate::command::Command;
use crate::telemetry::{CommandKind, ServiceTelemetry, Timed};
use crate::ticket::{CommandError, Completer};
use crate::{BoundedQueue, ServiceShared};
use fiting_index_api::{Degraded, Key, SortedIndex};
use std::panic::AssertUnwindSafe;
// ordering: worker counters are monotonic statistics — nothing reads
// them to synchronize, so Relaxed is sufficient everywhere here.
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Most commands one queue drain returns, capping how long one batch
/// holds its shards' write locks. A drain takes whatever is queued
/// without lingering: under load, batches form by themselves.
const MAX_BATCH: usize = 256;

/// Heals one lane's worker performs before it gives the lane up as
/// crash-looping. A heal costs one shard reload, so the cap only has
/// to stop a poison pill that keeps coming back; 32 is twice the most
/// panics one lane takes in any of the chaos battery's service storms
/// (15, at `FITING_CHAOS_SEEDS=1600` and at nightly's 4000), so that
/// battery never exhausts it.
pub(crate) const LANE_HEALS: u64 = 32;

/// One point write travelling through a grouped run: the new value
/// (`None` removes the key), the completer to resolve with the
/// previous value, and the command's acceptance stamp.
struct PointWrite<V> {
    put: Option<V>,
    done: Completer<Option<V>>,
    accepted: Instant,
}

/// Reshapes a point-write command for a grouped run; `None` for any
/// other command shape (the callers only feed it point writes).
fn as_point_write<K, V>(timed: Timed<Command<K, V>>) -> Option<(K, PointWrite<V>)> {
    let Timed { item, accepted } = timed;
    let (key, put, done) = match item {
        Command::Insert { key, value, done } => (key, Some(value), done),
        Command::Remove { key, done } => (key, None, done),
        _ => return None,
    };
    Some((
        key,
        PointWrite {
            put,
            done,
            accepted,
        },
    ))
}

/// Resolves one command's ticket — the worker's only way to do so.
/// The `service.{kind}.end_to_end` sample is recorded from the
/// command's acceptance stamp *before* the ticket resolves, so it has
/// landed by the time the submitter's `wait` returns. A completer
/// dropped unresolved (a caught panic's unwind, lane teardown) never
/// comes through here: a canceled command records nothing.
fn resolve<T>(
    telemetry: &ServiceTelemetry,
    kind: CommandKind,
    accepted: Instant,
    done: Completer<T>,
    result: Result<T, CommandError>,
) {
    telemetry
        .end_to_end(kind)
        .record_duration(accepted.elapsed());
    done.resolve(result);
}

/// The body of lane `lane`'s worker thread.
pub(crate) fn run<K, V, I>(lane: usize, shared: &ServiceShared<K, V, I>)
where
    K: Key + Send + 'static,
    V: Clone + Send + 'static,
    I: SortedIndex<K, V> + 'static,
{
    let queue = &shared.queues[lane];
    let sync_batches = shared
        .durability
        .as_ref()
        .is_some_and(|d| d.sync_each_batch);
    loop {
        let drained = queue.pop_batch(MAX_BATCH, Duration::ZERO);
        if drained.is_empty() {
            // Closed and fully drained: every accepted command has
            // been executed and completed.
            return;
        }
        // One timestamp for the whole drain: each command's queue wait
        // is measured here, drain side — the submitter's hot path only
        // stamps.
        let now = Instant::now();
        let mut had_writes = false;
        for timed in &drained {
            had_writes |= timed.item.is_write();
            shared
                .telemetry
                .queue_wait(timed.item.command_kind())
                .record_duration(now.saturating_duration_since(timed.accepted));
        }
        shared.counters[lane].note_batch(drained.len());
        // Contain panics from the index structure (or a completer
        // sink): the unwind cancels the batch's unresolved tickets as
        // it drops them, and the lane is then healed or poisoned below
        // instead of silently stranding its queue.
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| execute_batch(lane, shared, drained)));
        if outcome.is_err() {
            // ordering: Relaxed — advisory stats counter.
            shared.counters[lane].panics.fetch_add(1, Ordering::Relaxed);
            if !heal_lane(lane, shared) {
                poison_lane(queue);
                return;
            }
            continue;
        }
        if had_writes && sync_batches {
            // Group commit: one flush(+fsync per the store's policy)
            // per drained write batch rather than per operation. Shards
            // with an empty WAL buffer make this a cheap no-op. A shard
            // refusing the flush has just degraded itself; count it.
            let (_flushed, failed) = shared.index.try_sync_all();
            if failed > 0 {
                // ordering: Relaxed — advisory stats counter.
                shared.counters[lane]
                    .sync_failures
                    .fetch_add(failed as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Heals lane `lane` after a caught panic, if it may: on a durable
/// service with heals left, reload the shard from snapshot + WAL replay
/// and count the restart. Returns `false` — the lane is then poisoned —
/// on a volatile service or with no heals left. Lanes run 1:1 with
/// shards on a durable service (no rebalancer), so the lane index is
/// the shard index; a volatile shard has nothing to reload and keeps
/// its state.
fn heal_lane<K: Key, V: Clone, I: SortedIndex<K, V> + 'static>(
    lane: usize,
    shared: &ServiceShared<K, V, I>,
) -> bool {
    let restarts = &shared.counters[lane].restarts;
    // ordering: Relaxed — this worker is the only writer of its lane's
    // restarts, so program order orders its own read and increment;
    // stats snapshots only observe.
    if shared.durability.is_none() || restarts.load(Ordering::Relaxed) >= LANE_HEALS {
        return false;
    }
    let _ = shared.index.reload_shard(lane);
    restarts.fetch_add(1, Ordering::Relaxed);
    true
}

/// Lane teardown after a caught panic that did not heal: refuse new
/// submissions, then cancel every command already accepted, so no
/// submitter ever hangs on a lane whose worker is gone.
fn poison_lane<T>(queue: &BoundedQueue<T>) {
    queue.close();
    // Drain whatever was queued and drop it: dropping a command drops
    // its completer, which resolves the ticket as Canceled. After
    // close(), an empty drain means the queue is spent — blocked
    // submitters were woken with `Closed` by close() itself.
    while !queue.pop_batch(usize::MAX, Duration::ZERO).is_empty() {}
}

/// Executes one drained batch. Write commands refused by degraded
/// read-only shards resolve `Err(Degraded)` rather than canceling —
/// the write was declined, not lost.
fn execute_batch<K: Key, V: Clone, I: SortedIndex<K, V> + 'static>(
    lane: usize,
    shared: &ServiceShared<K, V, I>,
    batch: Vec<Timed<Command<K, V>>>,
) {
    let counters = &shared.counters[lane];
    let telemetry = &shared.telemetry;
    // ordering: Relaxed on every counter update in this function —
    // monotonic stats, read only by racy snapshots; ticket completion
    // (a mutex) orders the results themselves.
    let mut cmds = batch.into_iter().peekable();
    while let Some(Timed { item, accepted }) = cmds.next() {
        // Execute time is recorded per *run* — one index call, or one
        // grouped call for a run of point writes, attributed to the
        // run's first command's kind.
        let kind = item.command_kind();
        let run_started = Instant::now();
        match item {
            Command::Range { lo, hi, done } => {
                let pairs = shared.index.range_collect((lo, hi));
                resolve(telemetry, kind, accepted, done, Ok(pairs));
            }
            Command::Get { key, done } => {
                // Straight off the wait-free read path: a steady-state
                // `get` takes no lock, so there is nothing to amortize
                // over a run of them.
                counters.read_runs.fetch_add(1, Ordering::Relaxed);
                resolve(telemetry, kind, accepted, done, Ok(shared.index.get(&key)));
            }
            first @ (Command::Insert { .. } | Command::Remove { .. }) => {
                // Maximal run of point writes: apply them all — in
                // submission order per key, which grouping preserves —
                // with one write-lock acquisition per involved shard.
                let mut run: Vec<(K, PointWrite<V>)> = Vec::new();
                run.extend(as_point_write(Timed {
                    item: first,
                    accepted,
                }));
                while matches!(
                    cmds.peek().map(|next| &next.item),
                    Some(Command::Insert { .. } | Command::Remove { .. })
                ) {
                    let Some(write) = cmds.next().and_then(as_point_write) else {
                        break;
                    };
                    run.push(write);
                }
                let coalesced = run.len();
                if let Some(sampler) = &shared.sampler {
                    sampler.observe_all(
                        run.iter()
                            .filter_map(|(k, w)| w.put.is_some().then_some(*k)),
                    );
                }
                let mut declined = 0u64;
                let locks = shared.index.with_write_groups(run, |idx, key, write| {
                    // Fallible writes: a degraded read-only shard
                    // refuses fast with a typed error instead of
                    // panicking the worker; the ticket resolves
                    // `Err(Degraded)` so the submitter knows the write
                    // was declined, not lost.
                    let (kind, applied) = match write.put {
                        Some(value) => (CommandKind::Insert, idx.try_insert(key, value)),
                        None => (CommandKind::Remove, idx.try_remove(&key)),
                    };
                    let result = applied.map_err(|Degraded| {
                        declined += 1;
                        CommandError::Degraded
                    });
                    resolve(telemetry, kind, write.accepted, write.done, result);
                });
                counters
                    .write_runs
                    .fetch_add(locks as u64, Ordering::Relaxed);
                if declined > 0 {
                    counters
                        .degraded_writes
                        .fetch_add(declined, Ordering::Relaxed);
                }
                if coalesced > 1 {
                    counters
                        .coalesced_writes
                        .fetch_add(coalesced as u64, Ordering::Relaxed);
                }
            }
        }
        telemetry
            .execute(kind)
            .record_duration(run_started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexService, ServiceConfig};
    use fiting_index_api::{BinarySearchIndex, ShardedIndex};

    #[test]
    fn a_get_after_an_insert_in_one_batch_observes_it() {
        // One hand-built batch through `execute_batch` (the lane's own
        // worker idles on its empty queue), so "one drained batch" is a
        // fact rather than a timing hope.
        let index: ShardedIndex<u64, u64, BinarySearchIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 2, (0..100u64).map(|k| (k * 2, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let (miss, miss_ticket) = Command::get(7);
        let (put, put_ticket) = Command::insert(7, 70);
        let (hit, hit_ticket) = Command::get(7);
        let (other, other_ticket) = Command::get(150);
        let (del, del_ticket) = Command::remove(7);
        let (gone, gone_ticket) = Command::get(7);
        let batch = [miss, put, hit, other, del, gone].map(Timed::new);
        execute_batch(0, &svc.shared, batch.into());
        // Per-lane order: each read sees exactly the writes before it.
        assert_eq!(miss_ticket.wait(), Ok(None));
        assert_eq!(put_ticket.wait(), Ok(None));
        assert_eq!(hit_ticket.wait(), Ok(Some(70)));
        assert_eq!(other_ticket.wait(), Ok(Some(75)), "cross-shard read");
        assert_eq!(del_ticket.wait(), Ok(Some(70)));
        assert_eq!(gone_ticket.wait(), Ok(None));
        // One read section and one execute sample per executed `Get`;
        // each point write here is a run of one.
        let lane = &svc.stats().lanes[0];
        assert_eq!(lane.read_runs, 4);
        assert_eq!(lane.write_runs, 2);
        let samples = |kind| svc.shared.telemetry.execute(kind).snapshot().count();
        assert_eq!(samples(CommandKind::Get), 4);
        let _ = svc.shutdown();
    }
}
