//! The bounded per-shard command queue — where backpressure lives.
//!
//! One producer-facing rule: the queue never grows past its capacity.
//! [`push`](BoundedQueue::push) blocks the submitter when the shard is
//! behind; [`try_push`](BoundedQueue::try_push) refuses with
//! [`Busy`](TryPushError::Busy) instead, handing the item back so the
//! caller can shed load or retry. The consumer side drains in batches:
//! [`pop_batch`](BoundedQueue::pop_batch) returns everything queued (up
//! to a cap), optionally lingering a short *batch window* to let more
//! commands accumulate.
//!
//! Closing ([`close`](BoundedQueue::close)) is one-way: producers are
//! refused from that point, but the consumer keeps draining what was
//! already accepted — an accepted command is never dropped, which is
//! what lets shutdown resolve every in-flight ticket. A lane healing
//! from a caught panic never closes its queue: its worker, the only
//! consumer, reloads the shard between two drains.

// A panic on a lane's path strands queued tickets: production code
// returns an error, and a vetted site says why with
// `#[expect(.., reason)]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]

use fiting_sync::primitives::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The queue was closed; the rejected item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct Closed<T>(pub T);

/// Why a non-blocking push ([`Client::try_submit`](crate::Client::try_submit))
/// refused an item.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity — backpressure. Retry or shed load.
    Busy(T),
    /// The queue is closed (service shut down).
    Closed(T),
}

impl<T> TryPushError<T> {
    /// The rejected item, regardless of the reason.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Busy(item) | TryPushError::Closed(item) => item,
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking, bounded MPSC queue: many submitters, one shard worker.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signaled on push and on close — wakes the draining worker.
    not_empty: Condvar,
    /// Signaled on drain and on close — wakes blocked submitters.
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock()
    }

    /// Enqueues `item`, blocking while the queue is full.
    pub fn push(&self, item: T) -> Result<(), Closed<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(Closed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            self.not_full.wait(&mut state);
        }
    }

    /// Enqueues `item` without blocking; [`Busy`](TryPushError::Busy)
    /// when full.
    pub(crate) fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Busy(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Drains up to `max` items for the worker.
    ///
    /// Blocks until at least one item is available (or the queue is
    /// closed *and* empty — the worker's exit signal, returning an
    /// empty vector). Once the first item is in hand, lingers up to
    /// `window` for more to accumulate, so light load still forms
    /// batches; `window == 0` drains whatever is present immediately.
    pub fn pop_batch(&self, max: usize, window: Duration) -> Vec<T> {
        let mut state = self.lock();
        loop {
            if !state.items.is_empty() {
                break;
            }
            if state.closed {
                return Vec::new();
            }
            self.not_empty.wait(&mut state);
        }
        if window > Duration::ZERO && state.items.len() < max && !state.closed {
            let deadline = Instant::now() + window;
            loop {
                let now = Instant::now();
                if now >= deadline || state.items.len() >= max || state.closed {
                    break;
                }
                let timed_out = self.not_empty.wait_for(&mut state, deadline - now);
                if timed_out {
                    break;
                }
            }
        }
        let take = state.items.len().min(max);
        let batch: Vec<T> = state.items.drain(..take).collect();
        drop(state);
        // All blocked submitters race for the freed slots.
        self.not_full.notify_all();
        batch
    }

    /// Closes the queue: subsequent pushes fail, blocked pushers wake
    /// with [`Closed`], and the worker keeps draining what was already
    /// accepted before seeing the empty-and-closed exit signal.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued (a racy snapshot — for stats).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Whether [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// The fixed capacity this queue bounds itself to.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_batch(3, Duration::ZERO), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(8, Duration::ZERO), vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_backpressures_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Busy(3)));
        q.pop_batch(1, Duration::ZERO);
        q.try_push(3).unwrap();
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn push_blocks_until_drained() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(10).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(11));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_batch(1, Duration::ZERO), vec![10]);
        h.join().unwrap().unwrap();
        assert_eq!(q.pop_batch(1, Duration::ZERO), vec![11]);
    }

    #[test]
    fn close_refuses_pushes_but_drains_accepted() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(Closed(3)));
        assert_eq!(q.try_push(4), Err(TryPushError::Closed(4)));
        assert!(q.is_closed());
        assert_eq!(q.pop_batch(16, Duration::ZERO), vec![1, 2]);
        assert_eq!(q.pop_batch(16, Duration::ZERO), Vec::<i32>::new());
    }

    #[test]
    fn close_wakes_blocked_pusher() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(2));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(Closed(2)));
    }

    #[test]
    fn pop_batch_window_accumulates() {
        let q = Arc::new(BoundedQueue::new(64));
        q.push(0).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            q2.push(1).unwrap();
        });
        // The 100ms window should pick up the straggler pushed at 10ms.
        let batch = q.pop_batch(64, Duration::from_millis(100));
        h.join().unwrap();
        assert_eq!(batch, vec![0, 1]);
    }

    #[test]
    fn pop_batch_blocks_for_first_item() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            q2.push(7).unwrap();
        });
        assert_eq!(q.pop_batch(4, Duration::ZERO), vec![7]);
        h.join().unwrap();
    }

    #[test]
    fn into_inner_recovers_rejected_item() {
        assert_eq!(TryPushError::Busy(5).into_inner(), 5);
        assert_eq!(TryPushError::Closed(6).into_inner(), 6);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<i32>::new(0);
    }
}
