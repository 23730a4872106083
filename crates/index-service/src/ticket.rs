//! Completion handles: the [`Ticket`] a submitter holds and the
//! [`Completer`] that travels with the command through the pipeline.
//!
//! The pair is the pipeline's only synchronization primitive beyond the
//! queues themselves, and it is deliberately executor-free (one `Mutex`
//! and `Condvar` per ticket). A caller that must act at the instant a
//! command resolves wraps its own sink in [`Completer::from_fn`]: the
//! `slo` bench's open-loop recorder measures latency from each
//! command's intended send time that way.
//!
//! Lifecycle guarantees:
//!
//! * Every [`Completer`] resolves its ticket **exactly once** — with a
//!   value via [`complete`](Completer::complete), as
//!   [`Canceled`](CommandError::Canceled) by being dropped, or as
//!   [`Degraded`](CommandError::Degraded) via
//!   [`degrade`](Completer::degrade) when a write is refused by a
//!   read-only shard. A command dropped on the floor (worker panic,
//!   queue teardown) therefore cancels rather than hangs its submitter.
//! * [`Ticket::wait`] blocks until resolution. Shutdown drains every
//!   queued command, so waiting on a submitted ticket never deadlocks
//!   against service teardown.

use fiting_sync::primitives::{Condvar, Mutex};
use std::sync::Arc;

/// Why a command resolved without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandError {
    /// The command's completer was dropped before completing: the
    /// service was torn down (or a worker died) with the command still
    /// in flight. The command may or may not have been applied.
    Canceled,
    /// The command was a write refused fast by a shard in degraded
    /// read-only mode (permanent storage failure; see
    /// `fiting_index_api::ShardHealth`). The command was **not**
    /// applied.
    Degraded,
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Canceled => f.write_str("command canceled before completion"),
            CommandError::Degraded => {
                f.write_str("write refused: target shard is degraded (read-only)")
            }
        }
    }
}

impl std::error::Error for CommandError {}

struct Shared<T> {
    /// `None` until the completer resolves.
    state: Mutex<Option<Result<T, CommandError>>>,
    resolved: Condvar,
}

impl<T> Shared<T> {
    fn fulfill(&self, result: Result<T, CommandError>) {
        let mut state = self.state.lock();
        debug_assert!(state.is_none(), "a Completer resolves exactly once");
        *state = Some(result);
        drop(state);
        self.resolved.notify_all();
    }
}

/// Creates a connected [`Ticket`] / [`Completer`] pair.
#[must_use]
pub fn ticket<T: Send + 'static>() -> (Ticket<T>, Completer<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(None),
        resolved: Condvar::new(),
    });
    let sink = Arc::clone(&shared);
    (
        Ticket { shared },
        Completer::from_fn(move |result| sink.fulfill(result)),
    )
}

/// The submitter's half: [`wait`](Self::wait) blocks on the command's
/// result.
///
/// ```
/// use fiting_index_service::ticket;
///
/// let (t, c) = ticket::<u32>();
/// c.complete(7);
/// assert_eq!(t.wait(), Ok(7));
/// ```
pub struct Ticket<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Ticket<T> {
    /// Whether the command has resolved (completed or canceled).
    #[must_use]
    pub(crate) fn is_resolved(&self) -> bool {
        self.shared.state.lock().is_some()
    }

    /// Blocks until the command resolves; `Err(CommandError::Canceled)` if its
    /// completer was dropped without completing, `Err(Degraded)` if a
    /// degraded read-only shard refused the write.
    pub fn wait(self) -> Result<T, CommandError> {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(result) = (*state).take() {
                return result;
            }
            self.shared.resolved.wait(&mut state);
        }
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.is_resolved())
            .finish()
    }
}

type Sink<T> = Box<dyn FnOnce(Result<T, CommandError>) + Send>;

/// The pipeline's half: resolves the paired [`Ticket`] exactly once.
///
/// Internally a boxed one-shot sink rather than a hard-wired ticket
/// reference, so a caller can act at the instant the command resolves
/// (the `slo` bench's open-loop recorder stamps latency from intended
/// send time in one).
pub struct Completer<T> {
    sink: Option<Sink<T>>,
}

impl<T> Completer<T> {
    /// Wraps an arbitrary one-shot sink. The sink is invoked exactly
    /// once — with `Err(`[`CommandError::Canceled`]`)` if the completer
    /// is dropped unresolved.
    pub fn from_fn(sink: impl FnOnce(Result<T, CommandError>) + Send + 'static) -> Self {
        Completer {
            sink: Some(Box::new(sink)),
        }
    }

    /// Resolves the ticket with an already-shaped result — what the
    /// worker hands on when the value or the refusal is computed
    /// before the ticket resolves.
    pub fn resolve(mut self, result: Result<T, CommandError>) {
        if let Some(sink) = self.sink.take() {
            sink(result);
        }
    }

    /// Resolves the ticket with `value`.
    pub fn complete(self, value: T) {
        self.resolve(Ok(value));
    }

    /// Resolves the ticket as [`Degraded`](CommandError::Degraded):
    /// the write was refused fast by a read-only shard, not lost in
    /// flight.
    pub fn degrade(self) {
        self.resolve(Err(CommandError::Degraded));
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink(Err(CommandError::Canceled));
        }
    }
}

impl<T> std::fmt::Debug for Completer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completer")
            .field("resolved", &self.sink.is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn complete_then_wait() {
        let (t, c) = ticket::<u32>();
        c.complete(41);
        assert_eq!(t.wait(), Ok(41));
    }

    #[test]
    fn wait_blocks_until_cross_thread_completion() {
        let (t, c) = ticket::<String>();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            c.complete("done".to_string());
        });
        assert_eq!(t.wait(), Ok("done".to_string()));
        h.join().unwrap();
    }

    #[test]
    fn dropping_completer_cancels() {
        let (t, c) = ticket::<u32>();
        drop(c);
        assert_eq!(t.wait(), Err(CommandError::Canceled));
    }

    #[test]
    fn degrade_surfaces_typed_refusal() {
        let (t, c) = ticket::<u32>();
        c.degrade();
        assert_eq!(t.wait(), Err(CommandError::Degraded));
        assert_ne!(CommandError::Degraded, CommandError::Canceled);
        assert!(CommandError::Degraded.to_string().contains("read-only"));
    }

    #[test]
    fn is_resolved_tracks_completion() {
        let (t, c) = ticket::<u32>();
        assert!(!t.is_resolved());
        c.complete(5);
        assert!(t.is_resolved());
        assert_eq!(t.wait(), Ok(5));
    }

    #[test]
    fn from_fn_feeds_custom_sinks() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits = Arc::new(AtomicU32::new(0));
        let sink = Arc::clone(&hits);
        let c = Completer::from_fn(move |o| {
            if let Ok(v) = o {
                sink.fetch_add(v, Ordering::SeqCst);
            }
        });
        c.complete(12);
        assert_eq!(hits.load(Ordering::SeqCst), 12);
    }
}
