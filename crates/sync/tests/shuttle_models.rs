//! Model-checked port of this crate's seqlock, run under the
//! workspace's deterministic scheduler (`shuttle`).
//!
//! The model updates a two-word pair non-atomically, so only the
//! announce/drain handshake keeps readers from observing a
//! half-applied splice. (`Snapshots` has no model here: its
//! reclamation is `Arc`'s, and its route-then-validate use is modelled
//! where it is used, in `crates/index-api/tests/shuttle_models.rs`.)
//!
//! The correct protocol clears ≥ 10 000 interleavings; the
//! deliberately broken variant (the bug class the protocol exists to
//! prevent) must be *caught*, and its recorded schedule must replay to
//! the same failure — proving red results reproduce on demand.
//!
//! If a protocol change in `src/seqlock.rs` is intentional, change the
//! mirror here in the same PR — drift between the two is exactly what
//! this file exists to surface.

use shuttle::atomic::{AtomicU64, Ordering};
use shuttle::model;
use shuttle::sync::Mutex;
use shuttle::thread;
use std::sync::Arc;

/// Interleavings every correct model must clear in the CI quick battery.
/// `FITING_MODEL_ITERS` raises the budget for the nightly deep sweep.
const QUICK_BATTERY: usize = 10_000;

fn battery_budget() -> usize {
    std::env::var("FITING_MODEL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(QUICK_BATTERY)
}

/// DFS up to the budget, then seeded random walks until the total
/// reaches it; asserts zero violations along the way.
fn quick_battery<F: Fn() + Send + Sync + Clone + 'static>(name: &str, body: F) {
    let budget = battery_budget();
    let dfs = model::explore(body.clone(), budget);
    assert!(dfs.failure.is_none(), "{name} (dfs): {:?}", dfs.failure);
    let mut total = dfs.iterations;
    if total < budget {
        let random = model::explore_random(body, 0x5EED_F17E, budget - total);
        assert!(
            random.failure.is_none(),
            "{name} (random): {:?}",
            random.failure
        );
        total += random.iterations;
    }
    assert!(total >= budget, "{name}: only {total} interleavings");
}

/// Asserts that `body` fails within the battery budget, that the
/// failure message matches, and that the recorded schedule replays to
/// the same failure.
fn must_catch<F: Fn() + Send + Sync + Clone + 'static>(body: F, expected: &str) {
    // DFS first; if the failing schedules lie deeper than the DFS
    // prefix covers, seeded random walks sample full-depth schedules.
    let report = model::explore(body.clone(), QUICK_BATTERY);
    let failure = report
        .failure
        .or_else(|| model::explore_random(body.clone(), 0x5EED_F17E, QUICK_BATTERY).failure);
    let failure =
        failure.unwrap_or_else(|| panic!("mutant must fail with \"{expected}\" in some schedule"));
    assert!(
        failure.message.contains(expected),
        "unexpected failure kind: {}",
        failure.message
    );
    let replayed = model::replay(body, &failure.schedule)
        .failure
        .expect("recorded schedule must reproduce the failure");
    assert!(
        replayed.message.contains(expected),
        "replay diverged: {}",
        replayed.message
    );
}

// ---------------------------------------------------------------------
// Seqlock read-vs-splice model (mirrors src/seqlock.rs)
// ---------------------------------------------------------------------

/// The seqlock handshake over a two-word pair that a splice updates
/// non-atomically — think `(bounds, shards)` of a routing table, where
/// a torn observation pairs pre-splice bounds with post-splice shards.
///
/// Presence slots are modeled as mutexes the reader holds across its
/// in-section window: the writer's drain (acquire/release each slot)
/// blocks until in-section readers leave, exactly like the real
/// spin-until-zero drain, but bounded for the model checker.
struct ModelSeqlock {
    /// Even = quiescent, odd = splice in progress.
    seq: AtomicU64,
    /// One presence slot per reader.
    slots: Vec<Mutex<()>>,
    /// The writer lock; doubles as the contended-read fallback.
    writer: Mutex<()>,
    /// The spliced pair; halves must always agree.
    pair: [AtomicU64; 2],
}

impl ModelSeqlock {
    fn new(readers: usize) -> Self {
        ModelSeqlock {
            seq: AtomicU64::new(0),
            slots: (0..readers).map(|_| Mutex::new(())).collect(),
            writer: Mutex::new(()),
            pair: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// `read_with`: announce presence, confirm no splice is in
    /// progress, read in-section; on an odd sequence retract and fall
    /// back to reading under the writer lock (`read_contended`).
    fn read(&self, slot: usize) -> u64 {
        {
            let _present = self.slots[slot].lock();
            if self.seq.load(Ordering::SeqCst).is_multiple_of(2) {
                let a = self.pair[0].load(Ordering::SeqCst);
                let b = self.pair[1].load(Ordering::SeqCst);
                assert_eq!(a, b, "torn read: pair halves diverged in-section");
                return a;
            }
            // Retract presence before blocking, as `read_with` does —
            // holding the slot while waiting for the writer would
            // deadlock against the writer's drain.
        }
        let _writer = self.writer.lock();
        let a = self.pair[0].load(Ordering::SeqCst);
        let b = self.pair[1].load(Ordering::SeqCst);
        assert_eq!(a, b, "torn read: pair halves diverged under writer lock");
        a
    }

    /// `write`: serialize on the writer lock, flip the sequence odd,
    /// drain every presence slot, splice the pair word by word, flip
    /// even. `bump_seq = false` is the missing-sequence-bump mutant:
    /// the drain still runs, but a reader entering a slot the drain
    /// already passed sees an even sequence and reads mid-splice.
    fn write(&self, value: u64, bump_seq: bool) {
        let _writer = self.writer.lock();
        if bump_seq {
            self.seq.fetch_add(1, Ordering::SeqCst);
        }
        for slot in &self.slots {
            drop(slot.lock());
        }
        self.pair[0].store(value, Ordering::SeqCst);
        self.pair[1].store(value, Ordering::SeqCst);
        if bump_seq {
            self.seq.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Two readers racing one splice: every observation — in-section or
/// contended — must see both halves agree, and must see either the
/// pre- or post-splice value, never a mix.
fn seqlock_read_racing_splice(bump_seq: bool) {
    let lock = Arc::new(ModelSeqlock::new(2));
    let readers: Vec<_> = (0..2)
        .map(|slot| {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let seen = lock.read(slot);
                assert!(seen == 0 || seen == 7, "impossible pair value {seen}");
            })
        })
        .collect();
    lock.write(7, bump_seq);
    for r in readers {
        r.join().unwrap();
    }
    // After the splice completes, readers are excluded no longer:
    // the final observation must be the post-splice value.
    assert_eq!(lock.read(0), 7, "completed splice not visible");
}

#[test]
fn seqlock_readers_never_observe_a_torn_splice() {
    quick_battery("seqlock_read_racing_splice", || {
        seqlock_read_racing_splice(true);
    });
}

#[test]
fn seqlock_missing_bump_mutant_tears_observably() {
    must_catch(|| seqlock_read_racing_splice(false), "torn read");
}
