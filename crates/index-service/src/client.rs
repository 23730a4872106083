//! The caller-facing handle: routing, submission, backpressure, and
//! the typed convenience front-end.
//!
//! A [`Client`] is a cheap `Arc` clone — hand one to every connection /
//! thread. Submission is two-level:
//!
//! * [`submit`](Client::submit) / [`try_submit`](Client::try_submit)
//!   take a raw [`Command`] and route it to the owning **lane**'s
//!   queue (lane routing is a boundary snapshot frozen at service
//!   start; the live shard a key maps to is re-resolved by the worker
//!   at execution time, so rebalancing never re-orders a key) —
//!   `submit` blocks when that queue is full (backpressure),
//!   `try_submit` hands the command back as
//!   [`Busy`](TryPushError::Busy) so the caller can shed load.
//! * The typed methods ([`get`](Client::get), [`insert`](Client::insert),
//!   [`remove`](Client::remove), [`range`](Client::range),
//!   [`insert_many`](Client::insert_many)) build the command, submit
//!   it, and return its [`Ticket`]. If the service is already shut
//!   down the ticket comes back pre-canceled rather than erroring —
//!   one code path for callers either way.
//!
//! # Ordering
//!
//! Commands routed to the same lane execute in submission order, so
//! operations on a single key from a single submitter are applied in
//! program order and a `get` observes every earlier write to that key
//! (the frozen lane table makes key → lane stable for the service's
//! lifetime). Across lanes there is no global order, and two command
//! shapes span lanes:
//!
//! * A `Range` is routed by its **lower bound**; shards past the first
//!   are read directly at execution time, bypassing other lanes'
//!   queues. A pipelined scan therefore observes the submitter's
//!   earlier writes only for keys owned by the lower bound's lane —
//!   writes still queued on later lanes may be missed. Wait on the
//!   write tickets first when a scan must see them.
//! * A raw `Command::InsertMany` whose batch spans lanes is routed by
//!   its *first* key and executed as one cross-shard call — keys
//!   living on other lanes bypass those lanes' queues and may race
//!   queued commands for the same keys.
//!   [`insert_many`](Client::insert_many) instead splits the batch per
//!   lane and fans completion back into one ticket, preserving the
//!   per-key ordering guarantee; prefer it unless the batch is known
//!   to be lane-local.

use crate::command::Command;
use crate::queue::{Closed, TryPushError};
use crate::telemetry::Timed;
use crate::ticket::{ticket, Completer, Outcome, Ticket};
use crate::ServiceShared;
use fiting_index_api::{Key, SortedIndex};
use fiting_sync::primitives::Mutex;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A shared submission handle to a running
/// [`IndexService`](crate::IndexService).
pub struct Client<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> {
    pub(crate) shared: Arc<ServiceShared<K, V, I>>,
}

impl<K: Key, V: Clone, I: SortedIndex<K, V> + 'static> Clone for Client<K, V, I> {
    fn clone(&self) -> Self {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<K, V, I> Client<K, V, I>
where
    K: Key + Send + 'static,
    V: Clone + Send + 'static,
    I: SortedIndex<K, V>,
{
    /// The lane queue `cmd` routes to.
    ///
    /// Lane routing uses the boundary snapshot frozen at service start
    /// — *not* the index's live shard layout — so a key's commands
    /// always share a lane (and therefore a worker, and therefore an
    /// order) even while the rebalancer moves shard boundaries
    /// underneath. Workers re-resolve the live owning shard at
    /// execution time.
    fn route(&self, cmd: &Command<K, V>) -> usize {
        match cmd {
            Command::Get { key, .. }
            | Command::Insert { key, .. }
            | Command::Remove { key, .. } => self.shared.lane_of(key),
            Command::Range { lo, .. } => match lo {
                Bound::Included(k) | Bound::Excluded(k) => self.shared.lane_of(k),
                Bound::Unbounded => 0,
            },
            Command::InsertMany { batch, .. } => {
                batch.first().map_or(0, |(k, _)| self.shared.lane_of(k))
            }
        }
    }

    /// Routes `cmd` to its shard queue, blocking while that queue is
    /// full. Fails only after shutdown, handing the command back (its
    /// ticket is canceled when the returned command is dropped).
    ///
    /// An accepted command is stamped on acceptance: the lane worker
    /// measures its queue wait at drain and its end-to-end latency at
    /// ticket resolution (see `docs/OBSERVABILITY.md`). The stamp is
    /// taken *before* any backpressure blocking, so a submission that
    /// waited out a full queue carries that wait in its latency — the
    /// coordinated-omission-honest reading.
    pub fn submit(&self, cmd: Command<K, V>) -> Result<(), Closed<Command<K, V>>> {
        let shard = self.route(&cmd);
        let kind = cmd.command_kind();
        match self.shared.queues[shard].push(Timed::new(cmd)) {
            Ok(()) => {
                self.shared.telemetry.note_accepted(kind);
                Ok(())
            }
            Err(Closed(timed)) => Err(Closed(timed.item)),
        }
    }

    /// Routes `cmd` without blocking: [`TryPushError::Busy`] hands the
    /// command back when the shard queue is at capacity — the explicit
    /// backpressure signal, counted per kind as
    /// `service.{kind}.rejected_busy`.
    pub fn try_submit(&self, cmd: Command<K, V>) -> Result<(), TryPushError<Command<K, V>>> {
        let shard = self.route(&cmd);
        let kind = cmd.command_kind();
        match self.shared.queues[shard].try_push(Timed::new(cmd)) {
            Ok(()) => {
                self.shared.telemetry.note_accepted(kind);
                Ok(())
            }
            Err(TryPushError::Busy(timed)) => {
                self.shared.telemetry.note_busy(kind);
                Err(TryPushError::Busy(timed.item))
            }
            Err(TryPushError::Closed(timed)) => Err(TryPushError::Closed(timed.item)),
        }
    }

    /// Submits a point lookup; blocks only on backpressure.
    #[must_use]
    pub fn get(&self, key: K) -> Ticket<Option<V>> {
        let (cmd, t) = Command::get(key);
        let _ = self.submit(cmd);
        t
    }

    /// Submits an upsert; the ticket resolves with the replaced value.
    #[must_use]
    pub fn insert(&self, key: K, value: V) -> Ticket<Option<V>> {
        let (cmd, t) = Command::insert(key, value);
        let _ = self.submit(cmd);
        t
    }

    /// Submits a delete; the ticket resolves with the removed value.
    #[must_use]
    pub fn remove(&self, key: K) -> Ticket<Option<V>> {
        let (cmd, t) = Command::remove(key);
        let _ = self.submit(cmd);
        t
    }

    /// Submits a range scan; the ticket resolves with the pairs in key
    /// order.
    #[must_use]
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Ticket<Vec<(K, V)>> {
        let (cmd, t) = Command::range(range);
        let _ = self.submit(cmd);
        t
    }

    /// Submits a batched upsert, split per destination lane so every
    /// key goes through its owning lane's queue (full per-key
    /// ordering). The single ticket resolves with the total fresh-key
    /// count once every lane's sub-batch has been applied.
    ///
    /// If shutdown interrupts the fan-out, the ticket resolves
    /// [`Canceled`](crate::Canceled) — some sub-batches may still have
    /// been applied (at-most-once *reporting*, like any RPC cut off
    /// mid-flight).
    #[must_use]
    pub fn insert_many(&self, batch: Vec<(K, V)>) -> Ticket<usize> {
        let (t, done) = ticket();
        let lanes = self.shared.queues.len();
        let mut groups: Vec<Vec<(K, V)>> = (0..lanes).map(|_| Vec::new()).collect();
        for (k, v) in batch {
            groups[self.shared.lane_of(&k)].push((k, v));
        }
        let groups: Vec<(usize, Vec<(K, V)>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .collect();
        if groups.is_empty() {
            done.complete(0);
            return t;
        }
        let agg = Arc::new(Aggregate::new(groups.len(), done));
        for (lane, group) in groups {
            let agg = Arc::clone(&agg);
            let cmd = Command::InsertMany {
                batch: group,
                done: Completer::from_fn(move |o| agg.resolve_one(o)),
            };
            // `route` sends a single-lane batch to `lane`; a Closed
            // rejection drops the sub-completer, canceling the
            // aggregate.
            debug_assert_eq!(self.route(&cmd), lane);
            let _ = self.submit(cmd);
        }
        t
    }

    /// Number of lanes (queue/worker pairs) behind this client — fixed
    /// at service start, even as the index's shard count changes under
    /// rebalancing.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.shared.queues.len()
    }

    /// Whether the service has shut down (all further submissions
    /// fail).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shared
            .queues
            .first()
            .is_none_or(super::queue::BoundedQueue::is_closed)
    }
}

/// Fans `n` per-shard sub-completions back into one `usize` ticket,
/// summing fresh counts. Once all `n` have resolved: any canceled
/// sub-completion cancels the whole ticket (unknown application);
/// otherwise any degraded refusal resolves it `Err(Degraded)` (the
/// refused sub-batch was declined, the others applied); otherwise it
/// completes with the summed fresh count.
struct Aggregate {
    state: Mutex<AggregateState>,
}

struct AggregateState {
    pending: usize,
    fresh: usize,
    canceled: bool,
    degraded: bool,
    done: Option<Completer<usize>>,
}

impl Aggregate {
    fn new(pending: usize, done: Completer<usize>) -> Self {
        Aggregate {
            state: Mutex::new(AggregateState {
                pending,
                fresh: 0,
                canceled: false,
                degraded: false,
                done: Some(done),
            }),
        }
    }

    fn resolve_one(&self, outcome: Outcome<usize>) {
        let mut state = self.state.lock();
        state.pending -= 1;
        match outcome {
            Outcome::Done(n) => state.fresh += n,
            Outcome::Canceled => state.canceled = true,
            Outcome::Degraded => state.degraded = true,
        }
        if state.pending == 0 {
            let done = state.done.take().expect("aggregate resolves once");
            let fresh = state.fresh;
            let canceled = state.canceled;
            let degraded = state.degraded;
            drop(state);
            if canceled {
                done.cancel();
            } else if degraded {
                done.degrade();
            } else {
                done.complete(fresh);
            }
        }
    }
}
