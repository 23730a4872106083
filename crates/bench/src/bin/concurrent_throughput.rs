//! **Concurrent throughput**: the sharded front-end under multi-threaded
//! load, sweeping shard counts — the experiment motivating the
//! `ShardedIndex` redesign (beyond the paper, whose evaluation is
//! single-threaded per core).
//!
//! Workload: `FITING_THREADS` worker threads run a 95/5 read/write mix
//! (the classic read-mostly serving mix) against one shared
//! `ShardedIndex<u64, u64, FitingTree>` for a fixed operation count per
//! thread. One shard reproduces the old whole-index `RwLock` wrapper;
//! more shards cut writer-reader contention. Expected shape: read-only
//! throughput scales with threads at every shard count (reader-reader
//! sharing is free), while the mixed workload improves markedly with
//! shards because writers stop serializing all readers.
//!
//! | Variable | Meaning |
//! |---|---|
//! | `FITING_N` | preloaded rows |
//! | `FITING_CONC_OPS` | operations per thread (shard sweep) |
//! | `FITING_SCALE_OPS` | total point ops per read-scaling cell |
//! | `FITING_THREADS` | max worker threads (sweeps 1, 2, 4, … up to it) |
//!
//! Run: `cargo run --release -p fiting-bench --bin concurrent_throughput`
//!
//! Beyond the human-readable shard sweep, the binary maintains the
//! **read-scaling** recording — the wait-free read path's thread sweep
//! (1…64 threads, point and `range100`) over a fixed 8-shard index:
//!
//! * `--record` runs the sweep and merges a `read_scaling` section
//!   into `BENCH_hotpath.json` (override with `--out`), leaving every
//!   other section of the recording untouched.
//! * `--smoke` re-runs a cheap sweep and gates against the recording:
//!   the 1-thread point latency must stay within 2× of the recorded
//!   value, and point throughput must grow (15% tolerance) from cell
//!   to cell **up to this machine's available parallelism** — beyond
//!   it, extra threads only time-slice one core, so those cells are
//!   reported but not gated.

#![forbid(unsafe_code)]

use fiting_bench::json::Json;
use fiting_bench::{default_n, default_seed, env_usize, print_table, sample_probes};
use fiting_index_api::ShardedIndex;
use fiting_tree::{FitingTree, FitingTreeBuilder};
use std::time::Instant;

fn run_mix(
    index: &ShardedIndex<u64, u64, FitingTree<u64, u64>>,
    threads: usize,
    ops_per_thread: usize,
    probes: &[u64],
    write_every: usize,
    key_span: u64,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let index = index.clone();
            scope.spawn(move || {
                let mut hits = 0usize;
                for i in 0..ops_per_thread {
                    if write_every > 0 && i % write_every == 0 {
                        // Writes land on odd keys spread uniformly over
                        // the loaded (even-key) range, so the write
                        // load distributes across every shard instead
                        // of piling onto the last one.
                        let j = (t * ops_per_thread + i) as u64;
                        let k = (j.wrapping_mul(0x9e37_79b9_7f4a_7c15) % key_span) * 2 + 1;
                        index.insert(k, j);
                    } else {
                        let p = probes[(t * 7 + i) % probes.len()];
                        if index.get(&p).is_some() {
                            hits += 1;
                        }
                    }
                }
                assert!(write_every != 0 || hits > 0);
            });
        }
    });
    let total_ops = threads * ops_per_thread;
    total_ops as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Thread counts of the read-scaling sweep. Fixed (not derived from
/// the running machine) so recordings from different boxes stay
/// comparable row for row.
const SCALE_THREADS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Shard count of the read-scaling index: enough that even the widest
/// sweep point keeps multiple readers per shard.
const SCALE_SHARDS: usize = 8;

/// One measured cell of the read-scaling sweep.
struct ScaleCell {
    threads: usize,
    mops: f64,
    ns_per_op: f64,
}

/// Runs `total_ops` operations split across `threads` workers; every
/// worker touches the index once before the clock starts so per-thread
/// routing caches are warm (steady state is what the sweep measures).
fn run_scale_cell(
    index: &ShardedIndex<u64, u64, FitingTree<u64, u64>>,
    threads: usize,
    total_ops: usize,
    probes: &[u64],
    range_span: Option<u64>,
) -> ScaleCell {
    let ops_per_thread = (total_ops / threads).max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let index = index.clone();
            scope.spawn(move || {
                let mut hits = 0usize;
                for i in 0..ops_per_thread {
                    let p = probes[(t * 7919 + i) % probes.len()];
                    match range_span {
                        None => {
                            if index.get(&p).is_some() {
                                hits += 1;
                            }
                        }
                        Some(span) => {
                            hits += index.range_collect(p..p.saturating_add(span)).len();
                        }
                    }
                }
                assert!(hits > 0);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let done = ops_per_thread * threads;
    ScaleCell {
        threads,
        mops: done as f64 / elapsed / 1e6,
        ns_per_op: elapsed * 1e9 / done as f64,
    }
}

/// The full read-scaling sweep: point and 100-entry range lookups at
/// every thread count, on one shared bulk-loaded index.
fn run_scale_sweep(
    n: usize,
    seed: u64,
    point_ops: usize,
    range_ops: usize,
) -> (Vec<ScaleCell>, Vec<ScaleCell>) {
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 2, k)).collect();
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let probes = sample_probes(&keys, 65_536, seed);
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), SCALE_SHARDS, pairs).unwrap();
    let point: Vec<ScaleCell> = SCALE_THREADS
        .iter()
        .map(|&t| run_scale_cell(&index, t, point_ops, &probes, None))
        .collect();
    // Keys are spaced 2 apart: a span of 200 covers ~100 entries,
    // matching the hotpath recording's `range100` op.
    let range: Vec<ScaleCell> = SCALE_THREADS
        .iter()
        .map(|&t| run_scale_cell(&index, t, range_ops, &probes, Some(200)))
        .collect();
    (point, range)
}

fn scale_table(title: &str, cells: &[ScaleCell]) {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.threads.to_string(),
                format!("{:.2}", c.mops),
                format!("{:.0}", c.ns_per_op),
            ]
        })
        .collect();
    print_table(title, &["threads", "M ops/s", "ns/op"], &rows);
}

fn scale_json(cells: &[ScaleCell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj()
                    .with("threads", Json::Num(c.threads as f64))
                    .with("mops", Json::Num(c.mops))
                    .with("ns_per_op", Json::Num(c.ns_per_op))
            })
            .collect(),
    )
}

/// `--record`: run the sweep and merge the `read_scaling` section into
/// the recording, preserving every other key.
fn scale_record(out_path: &str) {
    let n = default_n();
    let seed = default_seed();
    let point_ops = env_usize("FITING_SCALE_OPS", 400_000);
    let range_ops = point_ops / 20;
    println!("# read-scaling sweep ({n} rows, {SCALE_SHARDS} shards, {point_ops} point ops/cell)");
    let (point, range) = run_scale_sweep(n, seed, point_ops, range_ops);
    scale_table("read scaling — point", &point);
    scale_table("read scaling — range100", &range);

    let text = std::fs::read_to_string(out_path).expect("readable recording (run hotpath first)");
    let mut doc = Json::parse(&text).expect("well-formed recording");
    doc.set(
        "read_scaling",
        Json::obj()
            .with("shards", Json::Num(SCALE_SHARDS as f64))
            .with("n", Json::Num(n as f64))
            .with("point_ops_per_cell", Json::Num(point_ops as f64))
            .with("range_ops_per_cell", Json::Num(range_ops as f64))
            .with("point", scale_json(&point))
            .with("range100", scale_json(&range)),
    );
    std::fs::write(out_path, doc.pretty()).expect("writable recording");
    println!("\nmerged read_scaling into {out_path}");
}

/// `--smoke`: cheap sweep gated against the recorded `read_scaling`
/// section. Parallelism-aware: scaling is only demanded of thread
/// counts this machine can actually run in parallel.
fn scale_smoke(out_path: &str) -> i32 {
    let text = match std::fs::read_to_string(out_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke: cannot read {out_path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smoke: {out_path} is malformed JSON: {e}");
            return 1;
        }
    };
    let Some(recorded_1t) = doc
        .get("read_scaling")
        .and_then(|s| s.get("point"))
        .and_then(Json::as_arr)
        .and_then(|cells| cells.first())
        .and_then(|c| c.get("ns_per_op"))
        .and_then(Json::as_f64)
    else {
        eprintln!("smoke: {out_path} has no read_scaling.point recording");
        return 1;
    };

    let n = env_usize("FITING_N", 50_000);
    let point_ops = env_usize("FITING_SCALE_OPS", 100_000);
    let (point, _range) = run_scale_sweep(n, default_seed(), point_ops, point_ops / 20);
    scale_table("read scaling — point (smoke)", &point);

    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let mut failures = 0;
    // 1-thread latency regression gate: generous 2x factor absorbs the
    // smoke run's smaller n and cross-machine variance, same spirit as
    // the hotpath smoke gate.
    let measured_1t = point[0].ns_per_op;
    if measured_1t > 2.0 * recorded_1t {
        eprintln!(
            "smoke REGRESSION: 1-thread point {measured_1t:.0} ns/op vs recorded \
             {recorded_1t:.0} ns/op (>2x)"
        );
        failures += 1;
    }
    // Scaling gate: through counts the machine can parallelize, each
    // doubling must not lose more than 15% throughput (monotonic with
    // tolerance). Beyond available parallelism extra threads only
    // time-slice, so those cells are informational.
    for pair in point.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.threads > available {
            break;
        }
        if hi.mops < lo.mops * 0.85 {
            eprintln!(
                "smoke REGRESSION: point throughput fell {}→{} threads: {:.2} → {:.2} M ops/s \
                 (beyond 15% tolerance, within available parallelism {available})",
                lo.threads, hi.threads, lo.mops, hi.mops
            );
            failures += 1;
        }
    }
    println!(
        "smoke: read scaling checked against {out_path} \
         (available parallelism {available}), {failures} regressions"
    );
    i32::from(failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut record = false;
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--record" => record = true,
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            other => {
                eprintln!("unknown argument {other:?} (expected --record, --smoke, --out)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if smoke {
        std::process::exit(scale_smoke(&out_path));
    }
    if record {
        scale_record(&out_path);
        return;
    }

    let n = default_n();
    let seed = default_seed();
    let ops = env_usize("FITING_CONC_OPS", 200_000);
    let max_threads = env_usize(
        "FITING_THREADS",
        std::thread::available_parallelism().map_or(4, usize::from),
    );
    println!(
        "# Concurrent throughput — shard sweep ({n} rows, {ops} ops/thread, up to {max_threads} threads)"
    );

    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 2, k)).collect();
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let probes = sample_probes(&keys, 65_536, seed);
    let key_span = n as u64;

    let mut thread_counts = vec![1usize];
    while *thread_counts.last().unwrap() * 2 <= max_threads {
        thread_counts.push(thread_counts.last().unwrap() * 2);
    }

    for write_every in [0usize, 20] {
        let title = if write_every == 0 {
            "read-only throughput (M ops/s)".to_string()
        } else {
            format!("95/5 read/write throughput (M ops/s, 1 write per {write_every} ops)")
        };
        let mut rows = Vec::new();
        for shards in [1usize, 2, 4, 8, 16] {
            let mut cells = Vec::new();
            for &threads in &thread_counts {
                // Fresh index per cell: every measurement starts from
                // the same bulk-loaded state, not one mutated by the
                // previous cell's inserts.
                let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
                    ShardedIndex::bulk_load(&FitingTreeBuilder::new(128), shards, pairs.clone())
                        .unwrap();
                if cells.is_empty() {
                    cells.push(format!("{} shards", index.shard_count()));
                }
                let mops = run_mix(&index, threads, ops, &probes, write_every, key_span);
                cells.push(format!("{mops:.2}"));
            }
            rows.push(cells);
        }
        let header: Vec<String> = std::iter::once("config".to_string())
            .chain(thread_counts.iter().map(|t| format!("{t} thr")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(&title, &header_refs, &rows);
    }
    println!("\nExpected shape: 1 shard = the old whole-index lock — mixed-workload");
    println!("throughput stalls as threads grow; more shards restore scaling by");
    println!("letting writers block only one shard's readers.");
}
