//! This crate's own types under the model checker: `SeqRwLock` and
//! `Snapshots` as they ship, their locks and atomics swapped for the
//! instrumented set by `fiting_sync::primitives` (`RUSTFLAGS="--cfg
//! fiting_model"`; the file is empty in a normal build). Each model
//! clears `shuttle::model::battery`'s budget of DFS schedules and as
//! many seeded walks. What a *broken* handshake looks like to the
//! checker is pinned on fixtures in `crates/compat/shuttle/tests`; the
//! mutants of this crate's source that were run through these models by
//! hand are listed in CHANGES.md (PR 24).
#![cfg(fiting_model)]

use fiting_sync::primitives::{AtomicU64, Ordering};
use fiting_sync::{SeqRwLock, Snapshots};
use shuttle::{model, thread};
use std::sync::Arc;

/// The payload a shard stands for: two words a writer updates one at a
/// time (`Relaxed` — the write guard's `Release` exit is what publishes
/// them), instrumented so a read can be preempted between the halves.
type Pair = (AtomicU64, AtomicU64);

fn read_pair(lock: &SeqRwLock<Pair>) -> (u64, u64) {
    // ordering: Relaxed — the lock under test orders these, nothing else.
    lock.read_with(|p| (p.0.load(Ordering::Relaxed), p.1.load(Ordering::Relaxed)))
}

/// Two readers race one writer; `observe` gets each reader's pair and
/// the count of reads that fell back to the writer mutex.
fn seqlock_race(observe: impl FnOnce([(u64, u64); 2], u64)) {
    let lock = Arc::new(SeqRwLock::new((AtomicU64::new(0), AtomicU64::new(0))));
    let readers = [(); 2].map(|()| {
        let lock = Arc::clone(&lock);
        thread::spawn(move || read_pair(&lock))
    });
    {
        let pair = lock.write();
        // ordering: Relaxed halves, published by the guard's exit bump.
        pair.0.store(7, Ordering::Relaxed);
        pair.1.store(7, Ordering::Relaxed);
    }
    let seen = readers.map(|r| r.join().unwrap());
    for (a, b) in seen {
        assert!(a == b && (a == 0 || a == 7), "torn read: ({a}, {b})");
    }
    assert_eq!(read_pair(&lock), (7, 7), "completed write not visible");
    observe(seen, lock.contended_reads());
}

#[test]
fn seqlock_readers_never_observe_a_torn_write() {
    model::battery("seqlock read_with vs write", || seqlock_race(|_, _| ()));
}

/// A schedule of the model above, recorded by another process, with
/// what the two readers saw along it.
const RECORDED_SCHEDULE: &str = "0.1.0.0.2.1.1.1.0.0.1.1.0.1.0.1.0.0.0.1.0.0.1";
const RECORDED_TRACE: &str = "trace [(0, 0), (7, 7)] contended 1";

/// Reader slots come from the model task, not from the process-wide
/// thread counter, so the decision sequence — the writer drains slots
/// in order — is a function of the schedule alone: the recorded string
/// replays to the recorded observations here, in a process that has
/// run other tests on other threads first, and exploring from the same
/// seed finds the same string again.
#[test]
fn recorded_seqlock_schedule_replays_to_the_same_trace() {
    let traced = || seqlock_race(|seen, contended| panic!("trace {seen:?} contended {contended}"));
    let replayed = model::replay(traced, RECORDED_SCHEDULE)
        .failure
        .expect("the traced model ends in its trace");
    assert!(replayed.message.ends_with(RECORDED_TRACE), "{replayed:?}");
    assert_eq!(replayed.schedule, RECORDED_SCHEDULE, "choices left over");
    let walked = model::explore_random(traced, 8, 1)
        .failure
        .expect("as above");
    assert_eq!(walked.schedule, RECORDED_SCHEDULE);
}

/// One publisher, two readers reading twice: every read sees the pair
/// its version names, and a thread's versions never go backwards.
#[test]
fn snapshot_reads_pin_a_consistent_version() {
    model::battery("Snapshots publish vs read", || {
        let snaps = Snapshots::new((0u64, 0u64));
        let readers = [(); 2].map(|()| {
            let snaps = snaps.clone();
            thread::spawn(move || {
                let mut last = 0;
                for _ in 0..2 {
                    let version = snaps.read(|version, &(a, b)| {
                        assert!(a == b && a + 1 == version, "v{version} names ({a}, {b})");
                        version
                    });
                    assert!(version >= last, "version went backwards");
                    last = version;
                }
            })
        });
        assert_eq!(snaps.publish((1, 1)), 2);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(snaps.read(|version, &pair| (version, pair)), (2, (1, 1)));
    });
}
