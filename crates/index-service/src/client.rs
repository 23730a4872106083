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
//!   [`remove`](Client::remove), [`range`](Client::range)) build the
//!   command, submit it, and return its [`Ticket`]. If the service is
//!   already shut down the ticket comes back pre-canceled rather than
//!   erroring — one code path for callers either way. Every command
//!   resolves exactly its own ticket; a batch of writes is a loop over
//!   [`insert`](Client::insert), pipelined by holding the tickets.
//!
//! # Ordering
//!
//! Commands routed to the same lane execute in submission order, so
//! operations on a single key from a single submitter are applied in
//! program order and a `get` observes every earlier write to that key
//! (the frozen lane table makes key → lane stable for the service's
//! lifetime). Across lanes there is no global order, and one command
//! shape spans lanes: a `Range` is routed by its **lower bound**;
//! shards past the first are read directly at execution time,
//! bypassing other lanes' queues. A pipelined scan therefore observes
//! the submitter's earlier writes only for keys owned by the lower
//! bound's lane — writes still queued on later lanes may be missed.
//! Wait on the write tickets first when a scan must see them.

// A panic on a lane's path strands queued tickets: production code
// returns an error, and a vetted site says why with
// `#[expect(.., reason)]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]

use crate::command::Command;
use crate::queue::{Closed, TryPushError};
use crate::telemetry::Timed;
use crate::ticket::Ticket;
use crate::ServiceShared;
use fiting_index_api::{Key, SortedIndex};
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

    /// Whether the service has shut down (all further submissions
    /// fail): every lane's queue is closed. A single poisoned lane
    /// refuses only the commands routed to it.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shared
            .queues
            .iter()
            .all(super::queue::BoundedQueue::is_closed)
    }
}
