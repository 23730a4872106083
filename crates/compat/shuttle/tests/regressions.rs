//! Self-tests for the model checker: seeded known-bug regressions that
//! exploration must catch within a bounded schedule budget, plus
//! schedule-replay determinism. These prove the checker *fires* — the
//! workspace's real concurrency models live with the crates they model.

use shuttle::atomic::{AtomicBool, AtomicU64, Ordering};
use shuttle::sync::{Condvar, Mutex, RwLock};
use shuttle::{model, thread};
use std::sync::Arc;

/// A deliberately broken two-lock protocol: one task takes A then B,
/// the other B then A. DFS must find the deadlock interleaving.
fn broken_lock_order() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t = thread::spawn(move || {
        let ga = a2.lock();
        let mut gb = b2.lock();
        *gb += *ga;
    });
    let gb = b.lock();
    let mut ga = a.lock();
    *ga += *gb;
    drop((ga, gb));
    t.join().unwrap();
}

#[test]
fn catches_lock_order_deadlock() {
    let report = model::explore(broken_lock_order, model::DEFAULT_ITERATIONS);
    let failure = report.failure.expect("DFS must find the A/B-B/A deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure kind: {}",
        failure.message
    );
    assert!(
        report.iterations <= model::DEFAULT_ITERATIONS,
        "deadlock must surface within the bounded budget"
    );
}

#[test]
fn fixed_lock_order_is_clean() {
    // Same scenario with both tasks locking in A-then-B order: DFS must
    // exhaust the (small) schedule space without finding anything.
    let report = model::explore(
        || {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let ga = a2.lock();
                let mut gb = b2.lock();
                *gb += *ga;
            });
            let ga = a.lock();
            let mut gb = b.lock();
            *gb += *ga;
            drop((gb, ga));
            t.join().unwrap();
        },
        model::DEFAULT_ITERATIONS,
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "schedule space should be exhaustible");
}

/// The classic publish bug: payload then flag, both stored `Relaxed`.
/// Store buffers commit per location, so a reader can observe the flag
/// flip while the payload store is still buffered — exactly the
/// reordering a missing `Release` on the flag permits.
fn missed_release_store() {
    let payload = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(AtomicBool::new(false));
    let (p2, r2) = (Arc::clone(&payload), Arc::clone(&ready));
    let t = thread::spawn(move || {
        p2.store(42, Ordering::Relaxed);
        // BUG: the flag needs Ordering::Release to publish the payload.
        r2.store(true, Ordering::Relaxed);
        // Keep the task alive so exit does not flush the buffer before
        // the reader gets a chance to observe the stale payload.
        for _ in 0..2 {
            thread::yield_now();
        }
    });
    if ready.load(Ordering::Acquire) {
        assert_eq!(payload.load(Ordering::Acquire), 42, "stale payload");
    }
    t.join().unwrap();
}

#[test]
fn catches_missed_release_store() {
    let report = model::explore(missed_release_store, model::DEFAULT_ITERATIONS);
    let failure = report
        .failure
        .expect("store-buffer model must expose the relaxed publish");
    assert!(
        failure.message.contains("stale payload"),
        "unexpected failure kind: {}",
        failure.message
    );
}

#[test]
fn release_store_publish_is_clean() {
    // The corrected protocol: payload Relaxed, flag Release. The
    // Release store commits the task's whole buffer, so a reader that
    // observes `ready == true` must observe the payload.
    let report = model::explore(
        || {
            let payload = Arc::new(AtomicU64::new(0));
            let ready = Arc::new(AtomicBool::new(false));
            let (p2, r2) = (Arc::clone(&payload), Arc::clone(&ready));
            let t = thread::spawn(move || {
                p2.store(42, Ordering::Relaxed);
                r2.store(true, Ordering::Release);
                for _ in 0..2 {
                    thread::yield_now();
                }
            });
            if ready.load(Ordering::Acquire) {
                assert_eq!(payload.load(Ordering::Acquire), 42, "stale payload");
            }
            t.join().unwrap();
        },
        model::DEFAULT_ITERATIONS,
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

#[test]
fn lost_wakeup_is_caught_and_timeout_rescues_it() {
    // Classic lost wakeup: the notifier does not hold the mutex while
    // setting the flag, so notify can land between the waiter's flag
    // check and its park. An *untimed* wait then deadlocks...
    let lost_wakeup = |timed: bool| {
        move || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s2 = Arc::clone(&state);
            let t = thread::spawn(move || {
                *s2.0.lock() = true;
                s2.1.notify_one();
            });
            let mut done = state.0.lock();
            while !*done {
                if timed {
                    let _timeout = state
                        .1
                        .wait_for(&mut done, std::time::Duration::from_millis(1));
                } else {
                    state.1.wait(&mut done);
                }
            }
            drop(done);
            t.join().unwrap();
        }
    };
    // The untimed variant is actually *correct* here (flag is written
    // under the mutex) — this pins down that wait/notify work at all.
    let report = model::explore(lost_wakeup(false), model::DEFAULT_ITERATIONS);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // And the timed variant additionally explores timeout firings.
    let report = model::explore(lost_wakeup(true), model::DEFAULT_ITERATIONS);
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

#[test]
fn notify_without_flag_deadlocks_untimed_but_not_timed() {
    // A *really* lost wakeup: notify fires before the waiter parks and
    // no predicate flag exists. Untimed wait must deadlock in some
    // schedule; a timed wait must always be rescued by its timeout.
    let body = |timed: bool| {
        move || {
            let state = Arc::new((Mutex::new(()), Condvar::new()));
            let s2 = Arc::clone(&state);
            let t = thread::spawn(move || s2.1.notify_one());
            let mut guard = state.0.lock();
            if timed {
                let _timeout = state
                    .1
                    .wait_for(&mut guard, std::time::Duration::from_millis(1));
            } else {
                state.1.wait(&mut guard);
            }
            drop(guard);
            t.join().unwrap();
        }
    };
    let report = model::explore(body(false), model::DEFAULT_ITERATIONS);
    let failure = report.failure.expect("early notify must strand the waiter");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    let report = model::explore(body(true), model::DEFAULT_ITERATIONS);
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

#[test]
fn rwlock_writer_starvation_free_and_exclusive() {
    let report = model::explore(
        || {
            let lock = Arc::new(RwLock::new(0u64));
            let l2 = Arc::clone(&lock);
            let l3 = Arc::clone(&lock);
            let w = thread::spawn(move || *l2.write() += 1);
            let r = thread::spawn(move || {
                let v = *l3.read();
                assert!(v == 0 || v == 1, "torn read: {v}");
            });
            w.join().unwrap();
            r.join().unwrap();
            assert_eq!(*lock.read(), 1);
        },
        model::DEFAULT_ITERATIONS,
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
}

#[test]
fn replay_reproduces_the_recorded_failure() {
    let report = model::explore(broken_lock_order, model::DEFAULT_ITERATIONS);
    let failure = report.failure.expect("deadlock expected");
    // Replaying the recorded schedule must reproduce the exact failure,
    // deterministically, every time.
    for _ in 0..3 {
        let replayed = model::replay(broken_lock_order, &failure.schedule);
        let rf = replayed.failure.expect("replay must reproduce the failure");
        assert_eq!(rf.message, failure.message);
        assert_eq!(rf.schedule, failure.schedule);
    }
}

#[test]
fn random_walks_are_deterministic_per_seed() {
    let run = |seed| {
        let report = model::explore_random(missed_release_store, seed, 2_000);
        report.failure.map(|f| (f.message, f.schedule))
    };
    let a = run(7);
    assert!(
        a.is_some(),
        "random walk should also find the relaxed publish"
    );
    assert_eq!(a, run(7), "same seed must reproduce the same outcome");
}

#[test]
fn dfs_exhausts_small_spaces_and_counts_iterations() {
    // Two tasks, one lock each: the space is tiny and must be marked
    // complete after more than one interleaving.
    let report = model::explore(
        || {
            let n = Arc::new(Mutex::new(0u32));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || *n2.lock() += 1);
            *n.lock() += 1;
            t.join().unwrap();
            assert_eq!(*n.lock(), 2);
        },
        model::DEFAULT_ITERATIONS,
    );
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
    assert!(report.iterations > 1, "must explore more than one schedule");
}
