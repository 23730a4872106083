//! Self-tests for the model checker: seeded known-bug regressions that
//! exploration must catch within a bounded schedule budget, plus
//! schedule-replay determinism. These prove the checker *fires*, on
//! small fixtures with the shape of the workspace's protocols; that the
//! shipped types do not have these bugs is proved where they live, by
//! the `models` test of `fiting-sync`, `fiting-index-api` and
//! `fiting-index-service`, which run the types themselves under this
//! scheduler (`--cfg fiting_model`).
//!
//! A pinned `schedule` literal is the cross-process half of replay
//! determinism: every run of this file is a fresh process, and each
//! must find the mutant on the schedule the recording process found.

use shuttle::atomic::{AtomicBool, AtomicU64, Ordering};
use shuttle::sync::{Condvar, Mutex};
use shuttle::{model, thread};
use std::sync::Arc;

/// Same pair of locks, both tasks in A-then-B order, or — `opposed` —
/// the second task B-then-A: two mergers of one shard pair with no
/// `rebalances` mutex and no ascending keep→retire discipline.
fn merge_pair(opposed: bool) {
    let a = Arc::new(Mutex::new(vec![1u64]));
    let b = Arc::new(Mutex::new(vec![10u64]));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t = thread::spawn(move || {
        let mut keep = a2.lock();
        let mut retire = b2.lock();
        keep.append(&mut retire);
    });
    if opposed {
        let mut retire = b.lock();
        let mut keep = a.lock();
        keep.append(&mut retire);
    } else {
        let mut keep = a.lock();
        let mut retire = b.lock();
        keep.append(&mut retire);
    }
    t.join().unwrap();
}

#[test]
fn unserialized_opposite_order_merge_deadlocks() {
    let failure = model::must_catch(|| merge_pair(true), "deadlock");
    assert_eq!(failure.schedule, "0.0.1.1.0");
}

#[test]
fn fixed_lock_order_is_clean() {
    let report = model::explore(|| merge_pair(false), model::DEFAULT_ITERATIONS);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "schedule space should be exhaustible");
}

/// The shipped seqlock handshake in miniature: an atomic sequence word,
/// one atomic presence slot per reader, a yielding drain, and a
/// two-word payload the writer stores `Relaxed`, half by half.
struct MiniSeqlock {
    seq: AtomicU64,
    slots: [AtomicU64; 2],
    writer: Mutex<()>,
    pair: [AtomicU64; 2],
}

impl MiniSeqlock {
    fn pair(&self) -> (u64, u64) {
        let pair = &self.pair;
        (
            pair[0].load(Ordering::Relaxed),
            pair[1].load(Ordering::Relaxed),
        )
    }

    fn read(&self, slot: usize) -> (u64, u64) {
        self.slots[slot].fetch_add(1, Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) & 1 == 0 {
            let pair = self.pair();
            self.slots[slot].fetch_sub(1, Ordering::Release);
            return pair;
        }
        self.slots[slot].fetch_sub(1, Ordering::Relaxed);
        let _writer = self.writer.lock();
        self.pair()
    }

    /// `bump = false` is the missing-sequence-bump mutant: the drain
    /// still runs, but a reader announcing after it sees an even word.
    fn write(&self, value: u64, bump: bool) {
        let _writer = self.writer.lock();
        if bump {
            self.seq.fetch_add(1, Ordering::SeqCst);
        }
        for slot in &self.slots {
            while slot.load(Ordering::SeqCst) != 0 {
                thread::yield_now();
            }
        }
        self.pair[0].store(value, Ordering::Relaxed);
        self.pair[1].store(value, Ordering::Relaxed);
        if bump {
            self.seq.fetch_add(1, Ordering::Release);
        }
    }
}

fn seqlock_read_racing_write(bump: bool) {
    let lock = Arc::new(MiniSeqlock {
        seq: AtomicU64::new(0),
        slots: [AtomicU64::new(0), AtomicU64::new(0)],
        writer: Mutex::new(()),
        pair: [AtomicU64::new(0), AtomicU64::new(0)],
    });
    let readers: Vec<_> = (0..2)
        .map(|slot| {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let (a, b) = lock.read(slot);
                assert!(a == b && (a == 0 || a == 7), "torn read: ({a}, {b})");
            })
        })
        .collect();
    lock.write(7, bump);
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn seqlock_missing_bump_mutant_tears_observably() {
    let failure = model::must_catch(|| seqlock_read_racing_write(false), "torn read");
    assert_eq!(failure.schedule, "0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1");
}

#[test]
fn seqlock_fixture_is_clean_with_the_bump() {
    model::battery("mini seqlock", || seqlock_read_racing_write(true));
}

/// Route-then-validate in miniature: a version word, a routing word
/// (the shard key 5 routes to) and per-shard "holds key 5" cells. The
/// split moves the key under the source shard's lock; publishing the
/// new routing only *after* releasing that lock is the mutant.
struct MiniSharded {
    version: AtomicU64,
    owner: AtomicU64,
    shards: [Mutex<bool>; 2],
}

impl MiniSharded {
    fn get(&self) -> bool {
        loop {
            let version = self.version.load(Ordering::Acquire);
            let shard = self.owner.load(Ordering::Acquire);
            let holds = self.shards[shard as usize].lock();
            if self.version.load(Ordering::Acquire) == version
                || self.owner.load(Ordering::Acquire) == shard
            {
                return *holds;
            }
        }
    }

    fn split(&self, publish_before_unlock: bool) {
        let mut source = self.shards[0].lock();
        *source = false;
        *self.shards[1].lock() = true;
        let publish = || {
            self.owner.store(1, Ordering::Relaxed);
            self.version.fetch_add(1, Ordering::Release);
        };
        if publish_before_unlock {
            publish();
            drop(source);
        } else {
            drop(source);
            publish();
        }
    }
}

fn get_racing_split(publish_before_unlock: bool) {
    let s = Arc::new(MiniSharded {
        version: AtomicU64::new(1),
        owner: AtomicU64::new(0),
        shards: [Mutex::new(true), Mutex::new(false)],
    });
    let s2 = Arc::clone(&s);
    let splitter = thread::spawn(move || s2.split(publish_before_unlock));
    assert!(s.get(), "key 5 lost during split");
    splitter.join().unwrap();
    assert!(s.get(), "key 5 lost after split");
}

#[test]
fn publish_after_unlock_split_is_caught() {
    let failure = model::must_catch(|| get_racing_split(false), "lost during split");
    assert_eq!(failure.schedule, "0.0.0.1.1.0.0.0");
}

#[test]
fn publish_before_unlock_split_is_clean() {
    let report = model::explore(|| get_racing_split(true), model::DEFAULT_ITERATIONS);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "schedule space should be exhaustible");
}

/// Two `Relaxed` payload stores published by a read-modify-write of
/// `order` on a counter, read by a task that `Acquire`-loads the
/// counter first. Store buffers commit per location, so unless the RMW
/// publishes the buffer the reader can see the payload half-written.
fn rmw_publish(order: Ordering) {
    let payload = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let counter = Arc::new(AtomicU64::new(0));
    let (p2, c2) = (Arc::clone(&payload), Arc::clone(&counter));
    let t = thread::spawn(move || {
        p2[0].store(7, Ordering::Relaxed);
        p2[1].store(7, Ordering::Relaxed);
        c2.fetch_add(1, order);
        // Keep the task alive so exit does not flush the buffer before
        // the reader gets a chance to observe the stale payload.
        for _ in 0..2 {
            thread::yield_now();
        }
    });
    if counter.load(Ordering::Acquire) == 1 {
        let (a, b) = (
            payload[0].load(Ordering::Relaxed),
            payload[1].load(Ordering::Relaxed),
        );
        assert!(a == 7 && b == 7, "torn payload: ({a}, {b})");
    }
    t.join().unwrap();
}

#[test]
fn release_rmw_publishes_earlier_relaxed_stores() {
    for order in [Ordering::Release, Ordering::AcqRel, Ordering::SeqCst] {
        let report = model::explore(move || rmw_publish(order), model::DEFAULT_ITERATIONS);
        assert!(report.failure.is_none(), "{order:?}: {:?}", report.failure);
        assert!(report.complete, "{order:?}: space should be exhaustible");
    }
}

#[test]
fn relaxed_rmw_publish_is_caught_and_replays() {
    for order in [Ordering::Relaxed, Ordering::Acquire] {
        model::must_catch(move || rmw_publish(order), "torn payload");
    }
}

/// A spin-wait on a flag another task sets, with or without a yield in
/// the loop.
fn spin_on_flag(yielding: bool) {
    let flag = Arc::new(AtomicBool::new(false));
    let f2 = Arc::clone(&flag);
    let t = thread::spawn(move || f2.store(true, Ordering::Release));
    while !flag.load(Ordering::Acquire) {
        if yielding {
            thread::yield_now();
        }
    }
    t.join().unwrap();
}

#[test]
fn yielding_spin_wait_terminates_under_dfs() {
    let report = model::explore(|| spin_on_flag(true), model::DEFAULT_ITERATIONS);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "a fair yield bounds the spin: exhaustible");
}

#[test]
fn spin_wait_without_a_yield_trips_the_decision_budget() {
    // DFS re-elects the spinner at every load until the budget is gone;
    // that failure mode stays visible, and replays like any other.
    model::must_catch(|| spin_on_flag(false), "decision budget exceeded");
}

/// Payload then flag. With the flag stored `Relaxed` this is the classic
/// publish bug: store buffers commit per location, so a reader can
/// observe the flag flip while the payload store is still buffered —
/// exactly the reordering a missing `Release` on the flag permits. A
/// `Release` flag store commits the task's whole buffer first.
fn publish_by_flag(flag_order: Ordering) {
    let payload = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(AtomicBool::new(false));
    let (p2, r2) = (Arc::clone(&payload), Arc::clone(&ready));
    let t = thread::spawn(move || {
        p2.store(42, Ordering::Relaxed);
        r2.store(true, flag_order);
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
    model::must_catch(|| publish_by_flag(Ordering::Relaxed), "stale payload");
}

#[test]
fn release_store_publish_is_clean() {
    let report = model::explore(
        || publish_by_flag(Ordering::Release),
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
fn random_walks_are_deterministic_per_seed() {
    let run = |seed| {
        let report = model::explore_random(|| publish_by_flag(Ordering::Relaxed), seed, 2_000);
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
