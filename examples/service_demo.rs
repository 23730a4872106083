//! The command-pipeline service end to end: a sharded FITing-Tree
//! behind `IndexService`, concurrent clients submitting typed
//! commands, the workers manufacturing batches, and a clean draining
//! shutdown.
//!
//! The flow is the README's architecture diagram in motion:
//!
//! ```text
//! caller → Client → per-shard bounded queue → worker → ShardedIndex
//!            ↑                                   │
//!            └────────── Ticket<T> ◄─────────────┘
//! ```
//!
//! Run: `cargo run --release --example service_demo`

use fiting::datasets;
use fiting::service::{Command, IndexService, ServiceConfig, TryPushError};
use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::ShardedIndex;
use std::thread;
use std::time::Duration;

fn main() {
    // A sharded FITing-Tree over weblog-shaped timestamps.
    let history = datasets::weblogs(200_000, 5);
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> = ShardedIndex::bulk_load(
        &FitingTreeBuilder::new(128),
        4,
        history
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect(),
    )
    .unwrap();
    let last = *history.last().unwrap();

    // One queue + one worker per shard; a worker drains whatever has
    // queued since its last batch, so pipelined traffic coalesces.
    let service = IndexService::start(
        index,
        ServiceConfig {
            queue_capacity: 512,
        },
    );

    // Ingest clients: each pipelines waves of inserts (submit the
    // whole wave, then wait its tickets) — the workers coalesce them —
    // and counts the fresh keys, whose tickets resolve `Ok(None)`.
    let mut ingest = Vec::new();
    for t in 0..2u64 {
        let client = service.client();
        ingest.push(thread::spawn(move || {
            let mut fresh = 0;
            for wave in 0..20u64 {
                let tickets: Vec<_> = (0..500u64)
                    .map(|i| client.insert(last + 1 + (t * 20 + wave) * 500 + i, i))
                    .collect();
                for ticket in tickets {
                    if ticket.wait().expect("service running").is_none() {
                        fresh += 1;
                    }
                }
            }
            fresh
        }));
    }

    // A query client: pipelines point lookups (fire a wave of
    // commands, then wait the tickets) and a cross-shard scan.
    let query = {
        let client = service.client();
        thread::spawn(move || {
            let mut hits = 0u64;
            for wave in 0..50u64 {
                let tickets: Vec<_> = (0..200u64)
                    .map(|i| client.get(history[((wave * 200 + i) % 200_000) as usize]))
                    .collect();
                for t in tickets {
                    if t.wait().expect("service running").is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        })
    };

    // Raw command submission with explicit backpressure handling:
    // `try_submit` hands the command back on Busy instead of blocking.
    let client = service.client();
    let mut busy_retries = 0u64;
    for i in 0..1_000u64 {
        let (cmd, _ticket) = Command::insert(last + 500_000 + i, i);
        let mut pending = cmd;
        loop {
            match client.try_submit(pending) {
                Ok(()) => break,
                Err(TryPushError::Busy(cmd)) => {
                    busy_retries += 1;
                    thread::sleep(Duration::from_micros(50));
                    pending = cmd;
                }
                Err(TryPushError::Closed(_)) => unreachable!("service is open"),
            }
        }
    }

    let ingested: usize = ingest.into_iter().map(|h| h.join().unwrap()).sum();
    let hits = query.join().unwrap();

    // The pipeline is observable: queue depth, batch sizes, shard
    // occupancy.
    let stats = service.stats();
    println!("ingested {ingested} fresh keys, {hits} read hits, {busy_retries} busy retries");
    println!(
        "mean batch {:.1} commands/drain, shard imbalance {:.2}",
        stats.mean_batch_len(),
        stats.imbalance()
    );
    for (lane, shard) in stats.lanes.iter().zip(&stats.shards) {
        println!(
            "  lane {}: {} entries, {} processed in {} batches (largest {})",
            lane.lane, shard.entries, lane.processed, lane.batches, lane.largest_batch
        );
    }

    // Shutdown closes the queues, drains every accepted command, and
    // hands the index back.
    let index = service.shutdown();
    println!("after shutdown: {} entries", index.len());
}
