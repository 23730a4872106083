//! The typed command vocabulary of the pipeline.
//!
//! Callers no longer invoke index methods under a lock; they build a
//! [`Command`] — which carries its own typed [`Completer`] — and submit
//! it to the owning shard's queue. Each constructor returns the command
//! together with the [`Ticket`] that will carry its result, so the
//! submit-then-wait flow is misuse-proof: there is no way to build a
//! command whose result type disagrees with its ticket.

use crate::telemetry::CommandKind;
use crate::ticket::{ticket, Completer, Ticket};
use std::ops::{Bound, RangeBounds};

/// One operation travelling through a shard queue, carrying the
/// completion handle that resolves its submitter's [`Ticket`].
///
/// Routing (done by [`Client::submit`](crate::Client::submit)):
/// point commands go to the shard owning their key; `Range` goes to the
/// shard owning its lower bound (shard 0 when unbounded) — see the
/// ordering notes on [`Client`](crate::Client).
pub enum Command<K, V> {
    /// Point lookup; resolves with the value, cloned out.
    Get {
        /// Key to look up.
        key: K,
        /// Resolves with `Some(value)` on a hit.
        done: Completer<Option<V>>,
    },
    /// Range scan; resolves with the collected pairs in key order.
    Range {
        /// Lower bound of the scan.
        lo: Bound<K>,
        /// Upper bound of the scan.
        hi: Bound<K>,
        /// Resolves with the pairs in `[lo, hi]`.
        done: Completer<Vec<(K, V)>>,
    },
    /// Upsert; resolves with the previous value when the key existed.
    Insert {
        /// Key to upsert.
        key: K,
        /// New value.
        value: V,
        /// Resolves with the replaced value, if any.
        done: Completer<Option<V>>,
    },
    /// Delete; resolves with the removed value when the key existed.
    Remove {
        /// Key to remove.
        key: K,
        /// Resolves with the removed value, if any.
        done: Completer<Option<V>>,
    },
}

impl<K: Send + 'static, V: Send + 'static> Command<K, V> {
    /// Builds a point-lookup command and its result ticket.
    #[must_use]
    pub fn get(key: K) -> (Self, Ticket<Option<V>>) {
        let (t, done) = ticket();
        (Command::Get { key, done }, t)
    }

    /// Builds a range-scan command and its result ticket.
    #[must_use]
    pub fn range<R: RangeBounds<K>>(range: R) -> (Self, Ticket<Vec<(K, V)>>)
    where
        K: Clone,
    {
        let (t, done) = ticket();
        (
            Command::Range {
                lo: range.start_bound().cloned(),
                hi: range.end_bound().cloned(),
                done,
            },
            t,
        )
    }

    /// Builds an upsert command and its result ticket.
    #[must_use]
    pub fn insert(key: K, value: V) -> (Self, Ticket<Option<V>>) {
        let (t, done) = ticket();
        (Command::Insert { key, value, done }, t)
    }

    /// Builds a delete command and its result ticket.
    #[must_use]
    pub fn remove(key: K) -> (Self, Ticket<Option<V>>) {
        let (t, done) = ticket();
        (Command::Remove { key, done }, t)
    }
}

impl<K, V> Command<K, V> {
    /// Whether executing this command mutates the index.
    #[must_use]
    pub(crate) fn is_write(&self) -> bool {
        matches!(self, Command::Insert { .. } | Command::Remove { .. })
    }

    /// The command's shape as a dense [`CommandKind`] — the index the
    /// per-kind telemetry instruments key on.
    #[must_use]
    pub(crate) fn command_kind(&self) -> CommandKind {
        match self {
            Command::Get { .. } => CommandKind::Get,
            Command::Range { .. } => CommandKind::Range,
            Command::Insert { .. } => CommandKind::Insert,
            Command::Remove { .. } => CommandKind::Remove,
        }
    }
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for Command<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Command::Get { key, .. } => f.debug_struct("Get").field("key", key).finish(),
            Command::Range { lo, hi, .. } => f
                .debug_struct("Range")
                .field("lo", lo)
                .field("hi", hi)
                .finish(),
            Command::Insert { key, .. } => f.debug_struct("Insert").field("key", key).finish(),
            Command::Remove { key, .. } => f.debug_struct("Remove").field("key", key).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pair_command_with_typed_ticket() {
        let (cmd, t) = Command::<u64, u64>::get(3);
        assert!(!cmd.is_write());
        assert_eq!(cmd.command_kind().as_str(), "get");
        drop(cmd); // dropping the command cancels its ticket
        assert!(t.wait().is_err());

        let (cmd, _t) = Command::insert(1u64, 2u64);
        assert!(cmd.is_write());
        assert_eq!(format!("{cmd:?}"), "Insert { key: 1 }");

        let (cmd, _t) = Command::<u64, u64>::range(5..10);
        assert_eq!(cmd.command_kind().as_str(), "range");
        assert!(format!("{cmd:?}").contains("lo"));

        assert_eq!(
            Command::<u64, u64>::remove(9).0.command_kind().as_str(),
            "remove"
        );
    }
}
