//! Oracle-differential battery for the wait-free read path: reader
//! threads drive `get` and `range_collect` against a `BTreeMap` oracle
//! while a writer continuously splits and merges shards and churns a
//! disjoint flux key range through `with_write_groups`/`remove`.
//!
//! Key-space discipline makes every concurrent observation exactly
//! checkable:
//!
//! * **Stable region** (keys `< FLUX_BASE`): bulk-loaded once, never
//!   mutated. Every `get` must return the oracle's value and every
//!   windowed `range_collect` must equal the oracle's window verbatim,
//!   no matter how many routing tables and shard splices the read
//!   crosses.
//! * **Flux region** (keys `≥ FLUX_BASE`): inserted and removed by the
//!   writer mid-flight. A read may see a flux key present or absent —
//!   but a present key must carry its one legal value, and range scans
//!   must stay strictly sorted with no duplicates.
//!
//! The battery ends with the trace-level wait-free assertion: after a
//! warm-up read on a writer-quiescent index, a long read-only window
//! must leave the routing `refreshes` (slow-path `Arc` clones), seqlock
//! `contended_reads` (lock-path fallbacks), and `publishes` counters
//! all unchanged — steady-state reads acquire zero locks and clone
//! zero `Arc`s. `FITING_STRESS_OPS` scales the churn for the nightly
//! soak.

use fiting::index_api::ShardedIndex;
use fiting::tree::{FitingTree, FitingTreeBuilder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

type Idx = ShardedIndex<u64, u64, FitingTree<u64, u64>>;

const SHARDS: usize = 4;
/// Stable keys are `0, 10, …, (STABLE-1)*10`.
const STABLE: u64 = 8_000;
/// First flux key — strictly above every stable key.
const FLUX_BASE: u64 = STABLE * 10 + 10;
/// Flux keys churned per writer cycle.
const FLUX_KEYS: u64 = 500;

fn stable_value(k: u64) -> u64 {
    k * 7 + 1
}

fn flux_value(k: u64) -> u64 {
    k * 13 + 5
}

/// Writer churn cycles: scaled by `FITING_STRESS_OPS` (the same knob
/// the other stress batteries honor), floored at 60 so the default run
/// still crosses many routing republishes.
fn churn_cycles() -> u64 {
    std::env::var("FITING_STRESS_OPS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(60, |ops| (ops / 500).max(60))
}

fn oracle() -> BTreeMap<u64, u64> {
    (0..STABLE)
        .map(|k| (k * 10, stable_value(k * 10)))
        .collect()
}

fn build_index() -> Idx {
    let config = FitingTreeBuilder::new(64);
    ShardedIndex::bulk_load(&config, SHARDS, oracle().into_iter().collect()).unwrap()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One full differential pass: point gets over both regions plus
/// windowed and full-range scans, each checked against the oracle.
fn differential_pass(index: &Idx, oracle: &BTreeMap<u64, u64>, rng: &mut u64) -> u64 {
    let mut checks = 0u64;
    // Point gets: stable keys are exact; absent keys stay absent.
    for _ in 0..64 {
        let k = (xorshift(rng) % STABLE) * 10;
        assert_eq!(index.get(&k), oracle.get(&k).copied(), "stable key {k}");
        assert_eq!(index.get(&(k + 5)), None, "phantom key {}", k + 5);
        checks += 2;
    }
    // Flux gets: present-with-legal-value or absent.
    for _ in 0..16 {
        let k = FLUX_BASE + (xorshift(rng) % FLUX_KEYS) * 10;
        let got = index.get(&k);
        assert!(
            got.is_none() || got == Some(flux_value(k)),
            "flux key {k} carried foreign value {got:?}"
        );
        checks += 1;
    }
    // Windowed scans inside the stable region: verbatim oracle equality.
    for _ in 0..4 {
        let lo = (xorshift(rng) % STABLE) * 10;
        let hi = (lo + 1 + xorshift(rng) % 4_000).min(STABLE * 10);
        let got = index.range_collect(lo..hi);
        let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "window {lo}..{hi} diverged from oracle");
        checks += 1;
    }
    // Full scan: the stable prefix is verbatim; flux tail keys are
    // legal; the whole run is strictly sorted (no duplicates, no
    // cross-shard ordering slips during a splice).
    let all = index.range_collect(..);
    assert!(
        all.windows(2).all(|w| w[0].0 < w[1].0),
        "full scan not strictly sorted"
    );
    let stable_prefix: Vec<(u64, u64)> = all
        .iter()
        .copied()
        .take_while(|&(k, _)| k < FLUX_BASE)
        .collect();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(stable_prefix, want, "stable prefix diverged from oracle");
    for &(k, v) in all.iter().skip_while(|&&(k, _)| k < FLUX_BASE) {
        assert_eq!(v, flux_value(k), "flux key {k} carried foreign value");
    }
    checks + 1
}

/// Steady-state trace assertion: over a warmed, writer-quiescent
/// window, reads must not touch the slow paths — no routing refreshes
/// (each is a mutex hold + `Arc` clone), no contended seqlock reads
/// (each is a lock acquisition), no publishes.
fn assert_steady_state_reads_are_wait_free(index: &Idx, oracle: &BTreeMap<u64, u64>) {
    // Warm this thread's routing cache (one refresh allowed here).
    let mut rng = 0x00D1FF_u64;
    differential_pass(index, oracle, &mut rng);
    let before = index.routing_stats();
    for _ in 0..16 {
        differential_pass(index, oracle, &mut rng);
    }
    let after = index.routing_stats();
    assert_eq!(
        after.refreshes, before.refreshes,
        "steady-state reads refreshed the routing cache (Arc clone on the hot path)"
    );
    assert_eq!(
        after.contended_reads, before.contended_reads,
        "steady-state reads fell back to the seqlock's lock path"
    );
    assert_eq!(after.publishes, before.publishes, "reads published");
    assert_eq!(after.version, before.version, "reads bumped the version");
}

#[test]
fn concurrent_reads_match_oracle_under_split_merge_churn() {
    let index = build_index();
    let oracle = Arc::new(oracle());

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3u64)
        .map(|t| {
            let index = index.clone();
            let oracle = Arc::clone(&oracle);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                let mut checks = 0u64;
                loop {
                    checks += differential_pass(&index, &oracle, &mut rng);
                    if checks > 0 && started.load(Ordering::Relaxed) <= t {
                        // First full pass done: let the writer start.
                        started.fetch_add(1, Ordering::Release);
                    }
                    if stop.load(Ordering::Acquire) {
                        return checks;
                    }
                }
            })
        })
        .collect();

    // On a single-core box the writer can otherwise finish its churn
    // before any reader is scheduled; insist on overlap.
    while started.load(Ordering::Acquire) < 3 {
        thread::yield_now();
    }

    let mut rng = 0xC0FFEE_u64;
    let mut splits = 0u64;
    let mut merges = 0u64;
    for _ in 0..churn_cycles() {
        // Flux churn: batch in, then drain one by one.
        let batch: Vec<(u64, u64)> = (0..FLUX_KEYS)
            .map(|i| {
                let k = FLUX_BASE + i * 10;
                (k, flux_value(k))
            })
            .collect();
        index.with_write_groups(batch, |shard, k, v| {
            shard.insert(k, v);
        });
        for i in 0..FLUX_KEYS {
            let k = FLUX_BASE + i * 10;
            assert_eq!(index.remove(&k), Some(flux_value(k)));
        }
        // Structural churn: split around a random stable key while the
        // shard count is low, merge a random adjacent pair while it is
        // high. Refusals (boundary out of span, tiny shards) are fine —
        // the point is continuous routing republishes.
        if index.shard_count() < 10 {
            let k = (xorshift(&mut rng) % STABLE) * 10;
            let shard = index.boundaries().partition_point(|b| *b <= k);
            if index.split_shard(shard, k).is_ok() {
                splits += 1;
            }
        }
        if index.shard_count() > 4 {
            let at = (xorshift(&mut rng) as usize) % (index.shard_count() - 1);
            if index.merge_with_next(at).is_ok() {
                merges += 1;
            }
        }
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made progress");
    }

    assert!(splits > 0, "churn never split a shard");
    assert!(merges > 0, "churn never merged a pair");
    assert_eq!(index.len(), STABLE as usize, "flux keys fully drained");

    assert_steady_state_reads_are_wait_free(&index, &oracle);
}

/// Scan under a split, against the oracle: one reader runs
/// `range_collect` over windows that straddle the boundary between two
/// shards while the writer splits a shard at keys inside those windows,
/// merges it back, and back-fills and removes flux keys (`…5`) around
/// the boundary — so the scanned segments hold buffered keys and
/// tombstones and are re-carved mid-run. Every stable key of a window
/// must appear exactly once and in order in every result; a flux key
/// may be there or not, with its one legal value.
#[test]
fn scans_straddling_a_moving_boundary_match_the_oracle() {
    const MID: u64 = STABLE * 10 / 2;
    let flux_key = |i: u64| MID - 2_000 + 5 + (i % 400) * 10;

    let config = FitingTreeBuilder::new(64);
    let index: Idx = ShardedIndex::bulk_load(&config, 2, oracle().into_iter().collect()).unwrap();
    let bounds = index.boundaries();
    assert_eq!(
        bounds.partition_point(|b| *b <= MID - 10) + 1,
        bounds.partition_point(|b| *b <= MID)
    );
    let oracle = Arc::new(oracle());

    let stop = Arc::new(AtomicBool::new(false));
    let scans = Arc::new(AtomicU64::new(0));
    let reader = {
        let (index, oracle) = (index.clone(), Arc::clone(&oracle));
        let (stop, scans) = (Arc::clone(&stop), Arc::clone(&scans));
        thread::spawn(move || {
            let mut rng = 0x5CA7_u64;
            loop {
                let lo = MID - 3_000 + xorshift(&mut rng) % 2_900;
                let hi = MID + 100 + xorshift(&mut rng) % 2_900;
                let got = index.range_collect(lo..hi);
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "window {lo}..{hi} not strictly sorted"
                );
                type Rows = Vec<(u64, u64)>;
                let (stable, flux): (Rows, Rows) = got.iter().partition(|(k, _)| k % 10 == 0);
                let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(stable, want, "window {lo}..{hi} diverged from oracle");
                for (k, v) in flux {
                    assert_eq!(v, flux_value(k), "flux key {k} carried foreign value");
                }
                scans.fetch_add(1, Ordering::Release);
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
        })
    };

    let mut rng = 0xB0DE_u64;
    let (mut splits, mut merges) = (0u64, 0u64);
    for cycle in 0..churn_cycles() * 4 {
        // Each cycle waits for a scan that started after the last one
        // ended: the reader and the writer overlap however many cores
        // there are.
        let seen = scans.load(Ordering::Acquire);
        let batch = (0..40)
            .map(|i| {
                let k = flux_key(cycle * 40 + i);
                (k, flux_value(k))
            })
            .collect();
        index.with_write_groups(batch, |shard, k, v| {
            shard.insert(k, v);
        });
        let at = MID - 2_000 + (xorshift(&mut rng) % 400) * 10;
        let shard = index.boundaries().partition_point(|b| *b <= at);
        if index.split_shard(shard, at).is_ok() {
            splits += 1;
        }
        for i in 0..20 {
            index.remove(&flux_key(cycle * 40 + i * 2 + 7));
        }
        if index.shard_count() > 2 {
            let pair = (xorshift(&mut rng) as usize) % (index.shard_count() - 1);
            if index.merge_with_next(pair).is_ok() {
                merges += 1;
            }
        }
        while scans.load(Ordering::Acquire) < seen + 2 {
            thread::yield_now();
        }
    }
    stop.store(true, Ordering::Release);
    reader.join().expect("reader panicked");
    assert!(
        splits > 10 && merges > 10,
        "{splits} splits, {merges} merges"
    );

    // Quiescent: with the flux keys drained, the whole scan is the oracle.
    for i in 0..400 {
        index.remove(&flux_key(i));
    }
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(index.range_collect(..), want);
}

#[test]
fn steady_state_reads_are_wait_free_from_cold_start() {
    let index = build_index();
    // A couple of structural mutations so the routing version is past
    // its initial value — the steady state must hold on any version.
    // 30_000 sits mid-quartile, strictly inside its shard's span.
    let shard = index.boundaries().partition_point(|b| *b <= 30_000);
    index.split_shard(shard, 30_000).expect("mid-key split");
    index.merge_with_next(0).expect("adjacent merge");
    assert_steady_state_reads_are_wait_free(&index, &oracle());
}
