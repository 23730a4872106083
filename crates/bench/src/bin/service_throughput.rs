//! **Service throughput**: the command-pipeline service versus direct
//! `ShardedIndex` calls under multi-threaded write load — the
//! experiment motivating the `index-service` API redesign.
//!
//! Three write paths over the same preloaded sharded FITing-Tree:
//!
//! * **direct/op** — every client thread calls
//!   `ShardedIndex::insert` itself: one write-lock acquisition per op,
//!   all threads contending on the shard locks.
//! * **service/op** — clients submit per-op `Insert` commands and hold
//!   the tickets (pipelined, waits at the end); the per-shard workers
//!   drain their queues and apply each run of writes under **one**
//!   lock acquisition — the service manufactures the batches.
//! * **service/batch** — clients batch locally and submit through
//!   `Client::insert_many` (split per shard, one `insert_many` call
//!   per destination): the API the pipeline was built to expose.
//!
//! A second table sweeps the worker *batch window* at a fixed thread
//! count, showing how lingering for stragglers trades per-op latency
//! for larger coalesced batches (reported as mean commands per drain).
//!
//! | Variable | Meaning |
//! |---|---|
//! | `FITING_N` | preloaded rows |
//! | `FITING_SVC_OPS` | insert ops per client thread |
//! | `FITING_THREADS` | max client threads (sweeps 1, 2, 4, … up to it; min 8) |
//! | `FITING_SHARDS` | shard count (default 4) |
//! | `FITING_SVC_BATCH` | client-side batch size for service/batch (default 256) |
//!
//! Run: `cargo run --release -p fiting-bench --bin service_throughput`

#![forbid(unsafe_code)]

use fiting_bench::{default_n, env_usize, print_table};
use fiting_index_api::ShardedIndex;
use fiting_index_service::{IndexService, ServiceConfig};
use fiting_tree::{FitingTree, FitingTreeBuilder};
use std::time::{Duration, Instant};

/// Unique odd key for global op number `j`, spread uniformly over the
/// loaded (even-key) range so writes hit every shard.
fn write_key(j: u64, key_span: u64) -> u64 {
    (j.wrapping_mul(0x9e37_79b9_7f4a_7c15) % key_span) * 2 + 1
}

type Index = ShardedIndex<u64, u64, FitingTree<u64, u64>>;
type Service = IndexService<u64, u64, FitingTree<u64, u64>>;

fn load(pairs: &[(u64, u64)], shards: usize) -> Index {
    ShardedIndex::bulk_load(&FitingTreeBuilder::new(128), shards, pairs.to_vec())
        .expect("bench data is strictly increasing")
}

fn direct_per_op(index: &Index, threads: usize, ops: usize, span: u64) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let index = index.clone();
            scope.spawn(move || {
                for i in 0..ops {
                    let j = (t * ops + i) as u64;
                    index.insert(write_key(j, span), j);
                }
            });
        }
    });
    (threads * ops) as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn service_per_op(service: &Service, threads: usize, ops: usize, span: u64) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let client = service.client();
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(ops);
                for i in 0..ops {
                    let j = (t * ops + i) as u64;
                    tickets.push(client.insert(write_key(j, span), j));
                }
                for ticket in tickets {
                    ticket.wait().expect("service is running");
                }
            });
        }
    });
    (threads * ops) as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn service_batched(service: &Service, threads: usize, ops: usize, span: u64, batch: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let client = service.client();
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(ops / batch + 1);
                let mut pending = Vec::with_capacity(batch);
                for i in 0..ops {
                    let j = (t * ops + i) as u64;
                    pending.push((write_key(j, span), j));
                    if pending.len() == batch {
                        tickets.push(client.insert_many(std::mem::take(&mut pending)));
                    }
                }
                if !pending.is_empty() {
                    tickets.push(client.insert_many(pending));
                }
                for ticket in tickets {
                    ticket.wait().expect("service is running");
                }
            });
        }
    });
    (threads * ops) as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn main() {
    let n = default_n();
    let ops = env_usize("FITING_SVC_OPS", 50_000);
    let shards = env_usize("FITING_SHARDS", 4);
    let batch = env_usize("FITING_SVC_BATCH", 256);
    let max_threads = env_usize(
        "FITING_THREADS",
        std::thread::available_parallelism()
            .map_or(8, usize::from)
            .max(8),
    );
    println!(
        "# Service throughput — {n} rows, {shards} shards, {ops} inserts/thread, client batch {batch}"
    );

    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 2, k)).collect();
    let span = n as u64;

    let mut thread_counts = vec![1usize];
    while *thread_counts.last().unwrap() * 2 <= max_threads {
        thread_counts.push(thread_counts.last().unwrap() * 2);
    }

    // Table 1: write path × client threads.
    let mut rows = Vec::new();
    let mut direct_at: Vec<f64> = Vec::new();
    let mut svc_op_at: Vec<f64> = Vec::new();
    let mut svc_batch_at: Vec<f64> = Vec::new();
    for mode in ["direct/op", "service/op", "service/batch"] {
        let mut cells = vec![mode.to_string()];
        for &threads in &thread_counts {
            // Fresh index per cell: every measurement starts from the
            // same bulk-loaded state.
            let mops = match mode {
                "direct/op" => {
                    let index = load(&pairs, shards);
                    let m = direct_per_op(&index, threads, ops, span);
                    direct_at.push(m);
                    m
                }
                "service/op" => {
                    let service =
                        IndexService::start(load(&pairs, shards), ServiceConfig::default());
                    let m = service_per_op(&service, threads, ops, span);
                    let _ = service.shutdown();
                    svc_op_at.push(m);
                    m
                }
                _ => {
                    let service =
                        IndexService::start(load(&pairs, shards), ServiceConfig::default());
                    let m = service_batched(&service, threads, ops, span, batch);
                    let _ = service.shutdown();
                    svc_batch_at.push(m);
                    m
                }
            };
            cells.push(format!("{mops:.2}"));
        }
        rows.push(cells);
    }
    let header: Vec<String> = std::iter::once("write path".to_string())
        .chain(thread_counts.iter().map(|t| format!("{t} thr")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table("insert throughput (M ops/s)", &header_refs, &rows);

    // Table 2: batch-window sweep at the highest thread count.
    let threads = *thread_counts.last().unwrap();
    let mut rows = Vec::new();
    for window_us in [0u64, 50, 200, 1_000] {
        let config = ServiceConfig {
            batch_window: Duration::from_micros(window_us),
            ..ServiceConfig::default()
        };
        let service = IndexService::start(load(&pairs, shards), config);
        let mops = service_per_op(&service, threads, ops, span);
        let stats = service.stats();
        rows.push(vec![
            format!("{window_us} µs"),
            format!("{mops:.2}"),
            format!("{:.1}", stats.mean_batch_len()),
            format!(
                "{}",
                stats
                    .lanes
                    .iter()
                    .map(|s| s.largest_batch)
                    .max()
                    .unwrap_or(0)
            ),
        ]);
        let _ = service.shutdown();
    }
    print_table(
        &format!("batch-window sweep — service/op at {threads} threads"),
        &["window", "M ops/s", "mean batch", "largest batch"],
        &rows,
    );

    // The acceptance comparison: coalesced writes through the service
    // vs per-op inserts on the bare ShardedIndex at max threads.
    let i = thread_counts.len() - 1;
    let best_service = svc_op_at[i].max(svc_batch_at[i]);
    println!(
        "\nAt {threads} client threads: direct/op {:.2} M ops/s, best service path {:.2} M ops/s ({})",
        direct_at[i],
        best_service,
        if best_service > direct_at[i] {
            "service wins — coalescing beats per-op locking"
        } else {
            "direct wins on this machine/configuration"
        }
    );
    println!("Expected shape: per-op locking pays one contended write-lock");
    println!("acquisition per insert; the service drains whole queues and applies");
    println!("each run under a single acquisition, so its advantage grows with");
    println!("client threads and shrinks with shard count.");
}
