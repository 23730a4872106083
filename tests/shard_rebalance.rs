//! Skew-stress coverage for online shard rebalancing: bulk-load a
//! uniform key set, append a hot tail (the paper's IoT/timestamp
//! shape: every new key larger than every loaded one), and assert
//!
//! * post-rebalance `shard_stats` imbalance drops back near the
//!   policy's 1.5× split threshold (the acceptance gate is
//!   max/mean ≤ 2×, vs
//!   unbounded pile-up on the last shard without rebalancing), and
//! * a concurrent reader sees **every** key throughout — the
//!   linearizable no-lost-keys check: a key that has been inserted
//!   (and never removed) must be visible to every subsequent `get`,
//!   no matter how many splits/merges run in between.
//!
//! Exercises both the direct `ShardedIndex` + `Rebalancer` path and
//! the full service path (`IndexService::start_rebalancing`), both
//! with the policy the rebalancer ships with: a split waits for a
//! second look at a hot shard and each action is followed by a
//! cooldown.

use fiting::index_api::{RebalanceOutcome, Rebalancer, ShardedIndex};
use fiting::service::{IndexService, ServiceConfig};
use fiting::tree::{FitingTree, FitingTreeBuilder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

type Idx = ShardedIndex<u64, u64, FitingTree<u64, u64>>;
type Reb = Rebalancer<u64>;

const SHARDS: usize = 4;
const BULK: u64 = 20_000;

/// Appended hot-tail size: `4 × FITING_STRESS_OPS` (the same knob the
/// linearizability stress honors), floored at the historical 40 000
/// appends. The knob only scales *up* (the nightly CI job raises it
/// for a longer soak): below ~4 000 appends the skew never pushes the
/// hot shard strictly past the 1.5× split threshold (4·(5 000 + T) /
/// (20 000 + T) > 1.5 requires T > 4 000), so a small stress value
/// would turn the "splits must fire" assertions into guaranteed
/// failures rather than a cheaper run.
fn tail_len() -> u64 {
    std::env::var("FITING_STRESS_OPS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(40_000, |ops| (ops * 4).max(40_000))
}

/// Uniformly spaced bulk pairs: keys 0, 10, 20, …
fn bulk_pairs() -> Vec<(u64, u64)> {
    (0..BULK).map(|k| (k * 10, k)).collect()
}

/// Hot-tail key: appended past the bulk maximum, densely packed.
fn tail_key(i: u64) -> u64 {
    BULK * 10 + i
}

/// The post-rebalance gate on max/mean shard occupancy: the
/// rebalancer's 1.5× split threshold plus 0.5 of slack.
const SETTLED_IMBALANCE: f64 = 2.0;

fn imbalance(lens: &[usize]) -> f64 {
    let total: usize = lens.iter().sum();
    let mean = total as f64 / lens.len() as f64;
    *lens.iter().max().unwrap() as f64 / mean
}

#[test]
fn skew_stress_direct_rebalance_drops_imbalance_no_lost_keys() {
    let config = FitingTreeBuilder::new(64);
    let index: Idx = ShardedIndex::bulk_load(&config, SHARDS, bulk_pairs()).unwrap();
    let mut rebalancer: Reb = Rebalancer::new();
    let sampler = rebalancer.sampler();

    // Concurrent readers: every bulk key, plus every appended key the
    // writer has published as durable, must always be visible.
    let stop = Arc::new(AtomicBool::new(false));
    let appended = Arc::new(AtomicU64::new(0)); // tail keys 0..appended are in
    let mut readers = Vec::new();
    for t in 0..2u64 {
        let index = index.clone();
        let stop = Arc::clone(&stop);
        let appended = Arc::clone(&appended);
        readers.push(thread::spawn(move || {
            let mut checks = 0u64;
            // At least one full pass even if the writer outpaces this
            // thread's first scheduling.
            loop {
                for k in (t..BULK).step_by(101) {
                    assert_eq!(index.get(&(k * 10)), Some(k), "lost bulk key {}", k * 10);
                    checks += 1;
                }
                let durable = appended.load(Ordering::Acquire);
                for i in (0..durable).step_by(97) {
                    let k = tail_key(i);
                    assert_eq!(index.get(&k), Some(k), "lost appended key {k}");
                    checks += 1;
                }
                if stop.load(Ordering::Acquire) {
                    return checks;
                }
            }
        }));
    }

    // Append-skew writer: everything lands past the last boundary, in
    // batches, stepping the rebalancer as it goes (a coordinator-less
    // embedder's maintenance loop).
    let mut splits = 0;
    let tail = tail_len();
    for batch in 0..(tail / 1_000) {
        let keys: Vec<(u64, u64)> = (batch * 1_000..(batch + 1) * 1_000)
            .map(|i| (tail_key(i), tail_key(i)))
            .collect();
        sampler.observe_all(keys.iter().map(|&(k, _)| k));
        index.with_write_groups(keys, |shard, k, v| {
            shard.insert(k, v);
        });
        appended.store((batch + 1) * 1_000, Ordering::Release);
        if let RebalanceOutcome::Split { .. } = rebalancer.step(&index) {
            splits += 1;
        }
    }
    // Let the policy settle whatever imbalance the last batch left:
    // each split takes up to a watching step, the split and a
    // cooldown.
    for _ in 0..128 {
        if rebalancer.step(&index) == RebalanceOutcome::Idle {
            break;
        }
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made progress");
    }

    assert!(splits >= 1, "append skew must trigger splits");
    assert!(rebalancer.stats().splits >= splits as u64);
    assert!(rebalancer.stats().moved_keys > 0);
    let lens: Vec<usize> = index.shard_stats().iter().map(|s| s.entries).collect();
    assert!(lens.len() > SHARDS, "shard count grew: {lens:?}");
    let imb = imbalance(&lens);
    assert!(
        imb <= SETTLED_IMBALANCE,
        "post-rebalance imbalance {imb:.2} still above threshold: {lens:?}"
    );
    // Nothing lost, nothing duplicated.
    assert_eq!(index.len(), (BULK + tail) as usize);
    let all = index.range_collect(..);
    assert_eq!(all.len(), (BULK + tail) as usize);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "keys stay sorted");
}

#[test]
fn skew_stress_service_rebalances_under_pipelined_load() {
    let config = FitingTreeBuilder::new(64);
    let index: Idx = ShardedIndex::bulk_load(&config, SHARDS, bulk_pairs()).unwrap();
    let rebalancer: Reb = Rebalancer::new();
    let service: IndexService<u64, u64, FitingTree<u64, u64>> = IndexService::start_rebalancing(
        index,
        ServiceConfig::default(),
        rebalancer,
        Duration::from_millis(1),
    );

    // Reader client alongside the writer: bulk keys must never miss.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let client = service.client();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut checks = 0u64;
            loop {
                for k in (0..BULK).step_by(211) {
                    assert_eq!(
                        client.get(k * 10).wait(),
                        Ok(Some(k)),
                        "lost bulk key {}",
                        k * 10
                    );
                    checks += 1;
                }
                if stop.load(Ordering::Acquire) {
                    return checks;
                }
            }
        })
    };

    let client = service.client();
    let tail = tail_len();
    for wave in 0..(tail / 1_000) {
        let writes: Vec<_> = (wave * 1_000..(wave + 1) * 1_000)
            .map(|i| client.insert(tail_key(i), tail_key(i)))
            .collect();
        for t in writes {
            t.wait().expect("service alive");
        }
    }

    // The coordinator steps every 1ms; wait for it to catch up with
    // the skew, then for the layout to settle.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = service.stats();
        let reb = stats.rebalance.expect("rebalancer attached");
        if reb.splits >= 1 && stats.imbalance() <= SETTLED_IMBALANCE {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "rebalancing never settled: {stats:?}"
        );
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Release);
    assert!(reader.join().unwrap() > 0);

    let stats = service.stats();
    assert!(stats.shards.len() > stats.lanes.len());
    assert!(stats.rebalance.unwrap().moved_keys > 0);

    // Every appended key visible through the pipeline.
    for i in (0..tail).step_by(503) {
        let k = tail_key(i);
        assert_eq!(client.get(k).wait(), Ok(Some(k)), "lost appended key {k}");
    }
    let index = service.shutdown();
    assert_eq!(index.len(), (BULK + tail) as usize);
}

#[test]
fn draining_a_region_merges_cold_shards_back() {
    let config = FitingTreeBuilder::new(64);
    let index: Idx = ShardedIndex::bulk_load(&config, 8, bulk_pairs()).unwrap();
    let mut rebalancer: Reb = Rebalancer::new();

    // Hollow out two adjacent shards (keys are k*10; shard spans are
    // eighths of 0..200_000): leave a couple of sentinels behind.
    let (lo, hi) = (BULK / 8 * 2, BULK / 8 * 4); // positions 5000..10000
    for k in lo + 2..hi - 2 {
        index.remove(&(k * 10));
    }
    let before = index.shard_count();
    let mut merges = 0;
    for _ in 0..8 {
        match rebalancer.step(&index) {
            RebalanceOutcome::Merge { .. } => merges += 1,
            RebalanceOutcome::Idle => break,
            _ => {}
        }
    }
    assert!(merges >= 1, "cold adjacent shards must merge");
    assert!(index.shard_count() < before);
    // Sentinels and everything else survived the merges.
    assert_eq!(index.get(&(lo * 10)), Some(lo));
    assert_eq!(index.get(&((hi - 1) * 10)), Some(hi - 1));
    assert_eq!(
        index.len(),
        (BULK - (hi - 2 - (lo + 2))) as usize,
        "merges move keys, never drop them"
    );
}
