//! `BoundedQueue` and `Ticket` / `Completer` themselves under the model
//! checker — the shipped lock scopes, wait loops and notify placement,
//! with `fiting_sync::primitives` supplying the instrumented `Mutex`
//! and `Condvar` (`RUSTFLAGS="--cfg fiting_model"`; the file is empty
//! in a normal build). Each model clears
//! `shuttle::model::battery`'s budget of DFS schedules and as many
//! seeded walks; a timed condvar wait's timeout firing is one of the
//! scheduler's choices, so both sides of every wake-vs-timeout race
//! are explored.
#![cfg(fiting_model)]

use fiting_index_service::{ticket, BoundedQueue};
use shuttle::{model, thread};
use std::sync::Arc;
use std::time::Duration;

/// Submit / drain / close race on a queue of capacity 1. Under every
/// interleaving an accepted (`Ok`) push is drained exactly once, in
/// the producer's order, and a refused push never surfaces — no loss,
/// no duplication, no post-close acceptance, no lost wakeup.
#[test]
fn bounded_queue_submit_drain_close() {
    model::battery("BoundedQueue submit / drain / close", || {
        let q = Arc::new(BoundedQueue::new(1));
        let (q_prod, q_close) = (Arc::clone(&q), Arc::clone(&q));
        let producer = thread::spawn(move || {
            let mut accepted = Vec::new();
            for item in [1u32, 2] {
                if q_prod.push(item).is_ok() {
                    accepted.push(item);
                }
            }
            accepted
        });
        let closer = thread::spawn(move || q_close.close());
        let mut drained = Vec::new();
        loop {
            let batch = q.pop_batch(4, Duration::ZERO);
            if batch.is_empty() {
                break;
            }
            drained.extend(batch);
        }
        let accepted = producer.join().unwrap();
        closer.join().unwrap();
        // The consumer exits only on closed-and-empty, so by now every
        // accepted item has been drained — exactly the accepted
        // sequence, in order.
        assert_eq!(drained, accepted, "accepted items must drain exactly once");
    });
}

/// Backpressure with nobody to close the queue: the producer of two
/// items into a queue of capacity 1 parks on the second, and only the
/// consumer's drain can wake it (in the model above a lost `not_full`
/// wakeup hides behind the closer's).
#[test]
fn bounded_queue_drain_releases_a_blocked_producer() {
    model::battery("BoundedQueue backpressure", || {
        let q = Arc::new(BoundedQueue::new(1));
        let q_prod = Arc::clone(&q);
        let producer = thread::spawn(move || [1u32, 2].map(|item| q_prod.push(item).is_ok()));
        let mut drained = Vec::new();
        while drained.len() < 2 {
            drained.extend(q.pop_batch(4, Duration::ZERO));
        }
        assert_eq!(producer.join().unwrap(), [true, true]);
        assert_eq!(drained, [1, 2]);
    });
}

/// `Completer::complete` racing `Ticket::wait`: the waiter parks
/// before, between or after the completer's lock and notify, and always
/// comes back with the value.
#[test]
fn ticket_complete_vs_wait() {
    model::battery("Completer::complete vs Ticket::wait", || {
        let (ticket, completer) = ticket::<u32>();
        let done = thread::spawn(move || completer.complete(7));
        assert_eq!(ticket.wait(), Ok(7));
        done.join().unwrap();
    });
}

/// `complete` racing `wait_timeout`, at the two deadlines the wall
/// clock cannot make nondeterministic: an hour (every early return is a
/// timeout the scheduler fired, and the loop must go back to waiting)
/// and zero (pending means `None`, after which a retry once the
/// completer has run must find the value — resolution is not lost to a
/// timed-out waiter).
#[test]
fn ticket_complete_vs_wait_timeout() {
    model::battery("Completer::complete vs Ticket::wait_timeout", || {
        for timeout in [Duration::from_secs(3_600), Duration::ZERO] {
            let (mut ticket, completer) = ticket::<u32>();
            let done = thread::spawn(move || completer.complete(7));
            let first = ticket.wait_timeout(timeout);
            done.join().unwrap();
            match first {
                Some(value) => assert_eq!(value, Ok(7)),
                None => {
                    assert_eq!(timeout, Duration::ZERO, "an hour cannot have passed");
                    assert_eq!(
                        ticket.wait_timeout(Duration::ZERO),
                        Some(Ok(7)),
                        "resolved value lost"
                    );
                }
            }
        }
    });
}
