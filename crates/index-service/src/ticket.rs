//! Completion handles: the [`Ticket`] a submitter holds and the
//! [`Completer`] that travels with the command through the pipeline.
//!
//! The pair is the pipeline's only synchronization primitive beyond the
//! queues themselves, and it is deliberately executor-free (one `Mutex`
//! and `Condvar` per ticket): a future `tokio` front-end wraps a oneshot
//! sender in [`Completer::from_fn`] instead of replacing the pipeline.
//!
//! Lifecycle guarantees:
//!
//! * Every [`Completer`] resolves its ticket **exactly once** — with a
//!   value via [`complete`](Completer::complete), as
//!   [`Canceled`](CommandError::Canceled) via
//!   [`cancel`](Completer::cancel) or by being dropped, or as
//!   [`Degraded`](CommandError::Degraded) via
//!   [`degrade`](Completer::degrade) when a write is refused by a
//!   read-only shard. A command dropped on the floor (worker panic,
//!   queue teardown) therefore cancels rather than hangs its submitter.
//! * [`Ticket::wait`] blocks until resolution;
//!   [`Ticket::wait_timeout`] gives up at a deadline. Shutdown drains
//!   every queued command, so waiting on a submitted ticket never
//!   deadlocks against service teardown.

use fiting_sync::primitives::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Why a command resolved without a value.
///
/// The `Canceled` variant is re-exported at the crate root, so
/// `Err(Canceled)` continues to read (and pattern-match) exactly as it
/// did when cancellation was the only failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandError {
    /// The command's completer was dropped before completing: the
    /// service was torn down (or a worker died) with the command still
    /// in flight. The command may or may not have been applied.
    Canceled,
    /// The command was a write refused fast by a shard in degraded
    /// read-only mode (permanent storage failure; see
    /// `fiting_index_api::ShardHealth`). The command was **not**
    /// applied — except `insert_many`, whose cross-shard batch may
    /// have landed on healthy shards before a degraded one refused.
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

/// How a command resolved: with a value, canceled, or refused by a
/// degraded shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The command executed and produced `T`.
    Done(T),
    /// The command was dropped before executing.
    Canceled,
    /// The command was a write refused by a degraded read-only shard.
    Degraded,
}

impl<T> Outcome<T> {
    /// Converts into the `Result` form [`Ticket::wait`] returns.
    pub(crate) fn into_result(self) -> Result<T, CommandError> {
        match self {
            Outcome::Done(v) => Ok(v),
            Outcome::Canceled => Err(CommandError::Canceled),
            Outcome::Degraded => Err(CommandError::Degraded),
        }
    }
}

enum State<T> {
    Pending,
    Resolved(Outcome<T>),
    Taken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    resolved: Condvar,
}

impl<T> Shared<T> {
    fn fulfill(&self, outcome: Outcome<T>) {
        let mut state = self.state.lock();
        debug_assert!(
            matches!(*state, State::Pending),
            "a Completer resolves exactly once"
        );
        *state = State::Resolved(outcome);
        drop(state);
        self.resolved.notify_all();
    }
}

/// Creates a connected [`Ticket`] / [`Completer`] pair.
#[must_use]
pub fn ticket<T: Send + 'static>() -> (Ticket<T>, Completer<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Pending),
        resolved: Condvar::new(),
    });
    let sink = Arc::clone(&shared);
    (
        Ticket { shared },
        Completer::from_fn(move |outcome| sink.fulfill(outcome)),
    )
}

/// The submitter's half: blocks on ([`wait`](Self::wait), or
/// [`wait_timeout`](Self::wait_timeout) up to a deadline) the command's
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
        !matches!(*self.shared.state.lock(), State::Pending)
    }

    /// Blocks until the command resolves; `Err(Canceled)` if its
    /// completer was dropped without completing, `Err(Degraded)` if a
    /// degraded read-only shard refused the write.
    ///
    /// # Panics
    ///
    /// Panics if the value was already taken via
    /// [`wait_timeout`](Self::wait_timeout).
    pub fn wait(self) -> Result<T, CommandError> {
        let mut state = self.shared.state.lock();
        loop {
            match *state {
                State::Pending => self.shared.resolved.wait(&mut state),
                State::Taken => panic!("ticket value already taken"),
                State::Resolved(_) => match std::mem::replace(&mut *state, State::Taken) {
                    State::Resolved(outcome) => return outcome.into_result(),
                    _ => unreachable!(),
                },
            }
        }
    }

    /// Blocks up to `timeout` for resolution; `None` on timeout.
    ///
    /// # Panics
    ///
    /// Panics if the value was already taken.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<T, CommandError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            match *state {
                State::Pending => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let _ = self.shared.resolved.wait_for(&mut state, deadline - now);
                }
                State::Taken => panic!("ticket value already taken"),
                State::Resolved(_) => match std::mem::replace(&mut *state, State::Taken) {
                    State::Resolved(outcome) => return Some(outcome.into_result()),
                    _ => unreachable!(),
                },
            }
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

type Sink<T> = Box<dyn FnOnce(Outcome<T>) + Send>;

/// The pipeline's half: resolves the paired [`Ticket`] exactly once.
///
/// Internally a boxed one-shot sink rather than a hard-wired ticket
/// reference, so completions can also fan into an aggregate (the
/// client's cross-shard `insert_many` sums per-shard fresh counts) or,
/// later, an async channel.
pub struct Completer<T> {
    sink: Option<Sink<T>>,
}

impl<T> Completer<T> {
    /// Wraps an arbitrary one-shot sink. The sink is invoked exactly
    /// once — with [`Outcome::Canceled`] if the completer is dropped
    /// unresolved.
    pub fn from_fn(sink: impl FnOnce(Outcome<T>) + Send + 'static) -> Self {
        Completer {
            sink: Some(Box::new(sink)),
        }
    }

    /// Resolves the ticket with an already-shaped [`Outcome`] — the
    /// forwarding primitive for completer *wrappers* (telemetry's
    /// latency recorder, the client's `insert_many` fan-in) that pass
    /// a resolution through unchanged.
    pub fn resolve(mut self, outcome: Outcome<T>) {
        if let Some(sink) = self.sink.take() {
            sink(outcome);
        }
    }

    /// Resolves the ticket with `value`.
    pub fn complete(self, value: T) {
        self.resolve(Outcome::Done(value));
    }

    /// Resolves the ticket as [`Canceled`](CommandError::Canceled)
    /// (same as dropping, but explicit at call sites that decline a
    /// command on purpose).
    pub(crate) fn cancel(self) {
        self.resolve(Outcome::Canceled);
    }

    /// Resolves the ticket as [`Degraded`](CommandError::Degraded):
    /// the write was refused fast by a read-only shard, not lost in
    /// flight.
    pub fn degrade(self) {
        self.resolve(Outcome::Degraded);
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink(Outcome::Canceled);
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

        let (t, c) = ticket::<u32>();
        c.cancel();
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
    #[should_panic(expected = "already taken")]
    fn double_take_panics() {
        let (mut t, c) = ticket::<u32>();
        c.complete(1);
        assert_eq!(t.wait_timeout(Duration::ZERO), Some(Ok(1)));
        let _ = t.wait_timeout(Duration::ZERO);
    }

    #[test]
    fn wait_timeout_times_out_then_succeeds() {
        let (mut t, c) = ticket::<u32>();
        assert_eq!(t.wait_timeout(Duration::from_millis(10)), None);
        c.complete(9);
        assert_eq!(t.wait_timeout(Duration::from_millis(10)), Some(Ok(9)));
    }

    #[test]
    fn from_fn_feeds_custom_sinks() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits = Arc::new(AtomicU32::new(0));
        let sink = Arc::clone(&hits);
        let c = Completer::from_fn(move |o| {
            if let Outcome::Done(v) = o {
                sink.fetch_add(v, Ordering::SeqCst);
            }
        });
        c.complete(12);
        assert_eq!(hits.load(Ordering::SeqCst), 12);
    }
}
