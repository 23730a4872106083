//! The per-lane worker loop: drain, coalesce, execute, complete.
//!
//! Each lane has exactly one worker thread, so commands routed to a
//! lane execute **in submission order** — that single-consumer
//! discipline is what turns the queue into a per-key ordering
//! guarantee (lane routing is frozen at service start, so a key's
//! commands always share a lane even while the rebalancer moves shard
//! boundaries underneath). Within one drained batch the worker groups
//! maximal runs of like commands:
//!
//! * a run of point writes (`Insert`/`Remove`) executes through
//!   [`ShardedIndex::with_write_groups`] — **one** write-lock
//!   acquisition per involved shard instead of one per op;
//! * a run of point reads (`Get`) is answered one
//!   [`ShardedIndex::get`] at a time — the read path is wait-free, so
//!   there is no lock to amortize; the run only shares one `execute`
//!   latency sample;
//! * `InsertMany` goes through a single
//!   [`ShardedIndex::insert_many_reporting`] call (cross-shard capable,
//!   one lock per destination shard);
//! * `Range` executes through [`ShardedIndex::range_collect`], which
//!   walks the live routing table shard by shard, one read section at
//!   a time.
//!
//! All four paths revalidate against the routing table after entering
//! each shard, so a concurrent split/merge re-routes rather than
//! strands a command. Inserted keys are fed to the rebalancer's
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
//! batch executes used to kill the worker thread outright, stranding
//! every command still queued on the lane: nothing would ever drain
//! the queue again, so their submitters' [`Ticket::wait`] calls hung
//! forever. The loop now catches the unwind and **poisons the lane**:
//! the in-flight batch's unresolved completers cancel as the unwind
//! drops them, the queue is closed so further submissions fail fast
//! with [`Closed`](crate::Closed), everything already queued is
//! drained and canceled, and the lane's
//! [`panics`](crate::LaneServiceStats::panics) counter records the
//! event. Other lanes — and [`shutdown`](crate::IndexService::shutdown)
//! — proceed normally. The shard the panic escaped from may hold a
//! partially applied batch (the locks themselves do not poison), which
//! is exactly the weaker guarantee the canceled tickets report. Under
//! [`start_supervised`](crate::IndexService::start_supervised) a
//! poisoned lane is later resurrected: shard reloaded from snapshot +
//! WAL, queue reopened, worker respawned.
//!
//! # Degraded shards
//!
//! Writes execute through the fallible [`SortedIndex::try_insert`] /
//! [`try_remove`](SortedIndex::try_remove) /
//! [`ShardedIndex::insert_many_reporting`] paths: a shard in degraded
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
//! [`ShardedIndex::insert_many_reporting`]: fiting_index_api::ShardedIndex::insert_many_reporting
//! [`ShardedIndex::range_collect`]: fiting_index_api::ShardedIndex::range_collect
//! [`ShardedIndex::with_write_groups`]: fiting_index_api::ShardedIndex::with_write_groups

use crate::command::Command;
use crate::stats::LaneHealth;
use crate::telemetry;
use crate::ticket::Completer;
use crate::ServiceShared;
use fiting_index_api::{Key, SortedIndex};
use std::panic::AssertUnwindSafe;
// ordering: worker counters are monotonic statistics — nothing reads
// them to synchronize, so Relaxed is sufficient everywhere here.
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One point write travelling through a grouped run: what to do to the
/// key, and the completer to resolve with the previous value.
enum PointWrite<V> {
    Put(V, Completer<Option<V>>),
    Del(Completer<Option<V>>),
}

/// Reshapes a point-write command for a grouped run; `None` for any
/// other command shape (the callers only feed it point writes).
fn as_point_write<K: Key, V: Clone>(cmd: Command<K, V>) -> Option<(K, PointWrite<V>)> {
    match cmd {
        Command::Insert { key, value, done } => Some((key, PointWrite::Put(value, done))),
        Command::Remove { key, done } => Some((key, PointWrite::Del(done))),
        _ => None,
    }
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
        let drained = queue.pop_batch(shared.config.max_batch, shared.config.batch_window);
        if drained.is_empty() {
            // Closed and fully drained: every accepted command has
            // been executed and completed.
            return;
        }
        // One timestamp for the whole drain: each command's queue wait
        // is measured here (drain side), and its completer is armed to
        // record end-to-end latency when the ticket resolves — the
        // submitter's hot path only stamps.
        let now = Instant::now();
        let batch: Vec<Command<K, V>> = drained
            .into_iter()
            .map(|timed| telemetry::observe_dequeue(&shared.telemetry, timed, now))
            .collect();
        shared.counters[lane].note_batch(batch.len());
        let had_writes = batch.iter().any(Command::is_write);
        // Contain panics from the index structure (or a completer
        // sink): the unwind cancels the batch's unresolved tickets as
        // it drops them, and the lane is then poisoned below instead
        // of silently stranding its queue.
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| execute_batch(lane, shared, batch)));
        if outcome.is_err() {
            poison_lane(lane, shared);
            return;
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

/// Lane teardown after a caught panic: refuse new submissions, then
/// cancel every command already accepted, so no submitter ever hangs
/// on a lane whose worker is gone.
fn poison_lane<K: Key, V: Clone, I: SortedIndex<K, V> + 'static>(
    lane: usize,
    shared: &ServiceShared<K, V, I>,
) {
    let queue = &shared.queues[lane];
    // ordering: Relaxed — the panic count is advisory stats; the
    // queue.close() below (a mutex) is what submitters synchronize on.
    shared.counters[lane].panics.fetch_add(1, Ordering::Relaxed);
    // Unconditional store: the supervisor is the only thing that moves
    // a lane out of `Poisoned`.
    shared.lane_state[lane].set(LaneHealth::Poisoned);
    queue.close();
    // Drain whatever was queued and drop it: dropping a command drops
    // its completer, which resolves the ticket as Canceled. After
    // close(), an empty drain means the queue is spent — blocked
    // submitters were woken with `Closed` by close() itself.
    loop {
        let rest = queue.pop_batch(usize::MAX, Duration::ZERO);
        if rest.is_empty() {
            return;
        }
    }
}

/// Executes one drained batch. Write commands refused by degraded
/// read-only shards resolve `Err(Degraded)` rather than canceling —
/// the write was declined, not lost.
fn execute_batch<K: Key, V: Clone, I: SortedIndex<K, V> + 'static>(
    lane: usize,
    shared: &ServiceShared<K, V, I>,
    batch: Vec<Command<K, V>>,
) {
    let counters = &shared.counters[lane];
    // ordering: Relaxed on every counter update in this function —
    // monotonic stats, read only by racy snapshots; ticket completion
    // (a mutex) orders the results themselves.
    let mut cmds = batch.into_iter().peekable();
    while let Some(cmd) = cmds.next() {
        // Execute time is recorded per *run* (the coalescing
        // granularity — one grouped index call), attributed to the
        // run's first command's kind.
        let kind = cmd.command_kind();
        let run_started = Instant::now();
        match cmd {
            Command::Range { lo, hi, done } => {
                done.complete(shared.index.range_collect((lo, hi)));
            }
            Command::InsertMany { batch, done } => {
                counters
                    .coalesced_writes
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                counters.write_runs.fetch_add(1, Ordering::Relaxed);
                if let Some(sampler) = &shared.sampler {
                    sampler.observe_all(batch.iter().map(|&(k, _)| k));
                }
                let (fresh, declined) = shared.index.insert_many_reporting(batch);
                if declined == 0 {
                    done.complete(fresh);
                } else {
                    // Part of the batch hit a degraded shard. Report
                    // the refusal loudly; keys routed to healthy
                    // shards were still applied (documented on
                    // `CommandError::Degraded`).
                    counters
                        .degraded_writes
                        .fetch_add(declined as u64, Ordering::Relaxed);
                    done.degrade();
                }
            }
            Command::Get { key, done } => {
                // Maximal run of point reads, each answered straight
                // off the wait-free read path (nothing to amortize: a
                // steady-state `get` takes no lock); the run shares
                // one `execute` sample.
                done.complete(shared.index.get(&key));
                let mut reads = 1u64;
                while let Some(Command::Get { key, done }) =
                    cmds.next_if(|next| matches!(next, Command::Get { .. }))
                {
                    done.complete(shared.index.get(&key));
                    reads += 1;
                }
                counters.read_runs.fetch_add(reads, Ordering::Relaxed);
            }
            first @ (Command::Insert { .. } | Command::Remove { .. }) => {
                // Maximal run of point writes: apply them all — in
                // submission order per key, which grouping preserves —
                // with one write-lock acquisition per involved shard.
                let mut run: Vec<(K, PointWrite<V>)> = Vec::new();
                run.extend(as_point_write(first));
                while matches!(
                    cmds.peek(),
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
                            .filter_map(|(k, w)| matches!(w, PointWrite::Put(..)).then_some(*k)),
                    );
                }
                let mut declined = 0u64;
                let locks = shared
                    .index
                    .with_write_groups(run, |idx, key, write| match write {
                        // Fallible writes: a degraded read-only shard
                        // refuses fast with a typed error instead of
                        // panicking the worker; the ticket resolves
                        // `Err(Degraded)` so the submitter knows the
                        // write was declined, not lost.
                        PointWrite::Put(value, done) => match idx.try_insert(key, value) {
                            Ok(prev) => done.complete(prev),
                            Err(fiting_index_api::Degraded) => {
                                declined += 1;
                                done.degrade();
                            }
                        },
                        PointWrite::Del(done) => match idx.try_remove(&key) {
                            Ok(prev) => done.complete(prev),
                            Err(fiting_index_api::Degraded) => {
                                declined += 1;
                                done.degrade();
                            }
                        },
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
        shared
            .telemetry
            .execute(kind)
            .record_duration(run_started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexService, ServiceConfig};
    use fiting_index_api::doctest_support::VecIndex;
    use fiting_index_api::ShardedIndex;

    #[test]
    fn a_get_after_an_insert_in_one_batch_observes_it() {
        // One hand-built batch through `execute_batch` (the lane's own
        // worker idles on its empty queue), so "one drained batch" is a
        // fact rather than a timing hope.
        let index: ShardedIndex<u64, u64, VecIndex<u64, u64>> =
            ShardedIndex::bulk_load(&(), 2, (0..100u64).map(|k| (k * 2, k)).collect()).unwrap();
        let svc = IndexService::start(index, ServiceConfig::default());
        let (miss, miss_ticket) = Command::get(7);
        let (put, put_ticket) = Command::insert(7, 70);
        let (hit, hit_ticket) = Command::get(7);
        let (other, other_ticket) = Command::get(150);
        let (del, del_ticket) = Command::remove(7);
        let (gone, gone_ticket) = Command::get(7);
        execute_batch(0, &svc.shared, vec![miss, put, hit, other, del, gone]);
        // Per-lane order: each read sees exactly the writes before it.
        assert_eq!(miss_ticket.wait(), Ok(None));
        assert_eq!(put_ticket.wait(), Ok(None));
        assert_eq!(hit_ticket.wait(), Ok(Some(70)));
        assert_eq!(other_ticket.wait(), Ok(Some(75)), "cross-shard read");
        assert_eq!(del_ticket.wait(), Ok(Some(70)));
        assert_eq!(gone_ticket.wait(), Ok(None));
        // One read section per executed `Get`, one execute sample per
        // run (get, insert, get+get, remove, get).
        let lane = &svc.stats().lanes[0];
        assert_eq!(lane.read_runs, 4);
        assert_eq!(lane.write_runs, 2);
        let samples = |kind| svc.shared.telemetry.execute(kind).snapshot().count();
        assert_eq!(samples(telemetry::CommandKind::Get), 3);
        let _ = svc.shutdown();
    }
}
