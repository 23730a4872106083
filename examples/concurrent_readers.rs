//! Sharing one index across threads — an extension beyond the paper
//! (whose evaluation is single-threaded per core): a writer thread
//! ingests live events while reader threads serve point and range
//! queries.
//!
//! `ShardedIndex<K, V, FitingTree<K, V>>` is the sharded front-end:
//! the key space is range-partitioned at bulk load and each shard sits
//! behind its own seqlock, so reads are wait-free in steady state and
//! the appending writer contends only with readers of the hottest
//! (latest) shard.
//!
//! Run: `cargo run --release --example concurrent_readers`

use fiting::datasets;
use fiting::index_api::ShardedIndex;
use fiting::tree::{FitingTree, FitingTreeBuilder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn main() {
    let history = datasets::weblogs(500_000, 5);
    let last = *history.last().unwrap();
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> = ShardedIndex::bulk_load(
        &FitingTreeBuilder::new(128),
        8,
        history
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect(),
    )
    .unwrap();
    println!("serving from {} shards", index.shard_count());

    let stop = Arc::new(AtomicBool::new(false));

    // Writer: appends fresh events.
    let writer = {
        let index = index.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut t = last;
            let mut written = 0u64;
            while !stop.load(Ordering::Relaxed) {
                t += 17;
                index.insert(t, written);
                written += 1;
            }
            written
        })
    };

    // Readers: random point lookups + trailing-window counts.
    let readers: Vec<_> = (0..3)
        .map(|id| {
            let index = index.clone();
            let stop = Arc::clone(&stop);
            let probes: Vec<u64> = history.iter().step_by(97 + id).copied().collect();
            thread::spawn(move || {
                let mut hits = 0u64;
                let mut scans = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for &p in probes.iter().take(1_000) {
                        if index.get(&p).is_some() {
                            hits += 1;
                        }
                    }
                    scans += index.range_collect(last.saturating_sub(10_000)..).len() as u64;
                }
                (hits, scans)
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);

    let written = writer.join().unwrap();
    println!("writer ingested {written} events in 500ms");
    for (i, r) in readers.into_iter().enumerate() {
        let (hits, scanned) = r.join().unwrap();
        println!("reader {i}: {hits} point hits, {scanned} rows scanned in trailing windows");
    }
    let mut segments = 0;
    index.for_each_shard(|t| {
        t.check_invariants()
            .expect("index consistent after concurrent churn");
        segments += t.segment_count();
    });
    println!(
        "final: {} keys, {} segments across {} shards, {} bytes of index",
        index.len(),
        segments,
        index.shard_count(),
        index.size_bytes()
    );
}
