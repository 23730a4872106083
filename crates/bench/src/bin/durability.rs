//! `durability` — restart-cost benchmark for the storage layer.
//!
//! Compares three ways of getting a queryable FITing-Tree shard after
//! a restart, at the same `n`:
//!
//! * **cold build** — re-run bounded-error segmentation over the full
//!   sorted dataset (the only option without a durability layer);
//! * **checkpoint** — what writing the snapshot costs up front
//!   (encode + write + fsync + rename);
//! * **recover** — decode the newest snapshot and replay a WAL tail of
//!   `n/100` logged mutations (the `open_shard` path).
//!
//! The headline is `recover_ms / cold_build_ms`: recovery must be
//! *measurably faster* than a cold bulk load, which is the point of
//! shipping snapshots at all. Results go to `BENCH_durability.json`
//! (`--out` to change), and `--smoke` re-measures at a small `n`,
//! failing when that ratio is more than 3× away from the recorded
//! baseline in either direction — a machine-independent check, since
//! both timings come from the same run.
//!
//! Knobs: `FITING_N` (rows; default 1M full, 200k smoke),
//! `FITING_SEED`.

#![forbid(unsafe_code)]

use fiting_bench::{default_seed, env_usize};
use fiting_index_api::{BuildableIndex, SortedIndex};
use fiting_storage::{DurableConfig, DurableIndex, FsyncPolicy};
use fiting_telemetry::json::Json;
use fiting_tree::{FitingTree, FitingTreeBuilder};
use std::time::Instant;

type Durable = DurableIndex<u64, u64, FitingTree<u64, u64>>;

struct Measurement {
    n: usize,
    wal_ops: usize,
    cold_build_ms: f64,
    checkpoint_ms: f64,
    recover_ms: f64,
    recover_ratio: f64,
    snapshot_bytes: usize,
    wal_bytes: usize,
    replayed: usize,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn measure(n: usize, seed: u64) -> Measurement {
    let mut keys = fiting_datasets::uniform(n, seed);
    fiting_datasets::make_strictly_increasing(&mut keys);
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let wal_ops = (n / 100).max(1);

    // Cold restart: segmentation over the full dataset, every time.
    let t = Instant::now();
    let cold: FitingTree<u64, u64> =
        FitingTree::build_sorted(&FitingTreeBuilder::new(64), pairs.clone()).unwrap();
    let cold_build_ms = ms(t);
    assert_eq!(cold.len(), n);
    drop(cold);

    let root = std::env::temp_dir().join(format!("fiting-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Always, FitingTreeBuilder::new(64)).unwrap();

    // Durable shard + a WAL tail of n/100 mutations, group-committed.
    let mut idx: Durable = DurableIndex::build_sorted(&cfg, pairs).unwrap();
    let max_key = *keys.last().unwrap();
    for i in 0..wal_ops {
        idx.insert(max_key + 1 + i as u64, i as u64);
    }
    idx.try_sync().expect("the log reaches the disk");

    // Checkpoint cost (encode + write + fsync + rename + log rotate).
    let t = Instant::now();
    assert!(idx.try_checkpoint().expect("the checkpoint rotates"));
    let checkpoint_ms = ms(t);
    let snapshot_bytes = idx.disk_bytes();

    // Rebuild the WAL tail on the fresh generation so recovery replays
    // a realistic log, then "crash".
    for i in 0..wal_ops {
        idx.insert(max_key + 1 + i as u64, (i as u64) ^ 1);
    }
    idx.try_sync().expect("the log reaches the disk");
    let wal_bytes = idx.wal_bytes();
    let dir = idx.shard_dir().to_path_buf();
    drop(idx);

    // Warm restart: decode snapshot + replay the tail.
    let t = Instant::now();
    let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
    let recover_ms = ms(t);
    assert_eq!(back.len(), n + wal_ops);
    assert_eq!(info.replayed, wal_ops);
    drop(back);
    let _ = std::fs::remove_dir_all(&root);

    Measurement {
        n,
        wal_ops,
        cold_build_ms,
        checkpoint_ms,
        recover_ms,
        recover_ratio: recover_ms / cold_build_ms,
        snapshot_bytes,
        wal_bytes,
        replayed: info.replayed,
    }
}

fn to_json(m: &Measurement, seed: u64) -> Json {
    Json::obj()
        .with("schema", Json::Num(1.0))
        .with("bench", Json::Str("durability".into()))
        .with(
            "created_unix",
            Json::Num(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs() as f64)
                    .unwrap_or(0.0),
            ),
        )
        .with("n", Json::Num(m.n as f64))
        .with("seed", Json::Num(seed as f64))
        .with("wal_ops", Json::Num(m.wal_ops as f64))
        .with("cold_build_ms", Json::Num(m.cold_build_ms))
        .with("checkpoint_ms", Json::Num(m.checkpoint_ms))
        .with("recover_ms", Json::Num(m.recover_ms))
        .with("recover_ratio", Json::Num(m.recover_ratio))
        .with("snapshot_bytes", Json::Num(m.snapshot_bytes as f64))
        .with("wal_bytes", Json::Num(m.wal_bytes as f64))
        .with("replayed", Json::Num(m.replayed as f64))
}

fn print_measurement(m: &Measurement) {
    println!(
        "n={} wal_ops={}: cold build {:.1} ms | checkpoint {:.1} ms | recover {:.1} ms \
         (ratio {:.3}) | snapshot {:.1} MiB, wal {:.1} KiB, {} replayed",
        m.n,
        m.wal_ops,
        m.cold_build_ms,
        m.checkpoint_ms,
        m.recover_ms,
        m.recover_ratio,
        m.snapshot_bytes as f64 / (1024.0 * 1024.0),
        m.wal_bytes as f64 / 1024.0,
        m.replayed
    );
}

/// Staleness gate: the smoke run's recover/cold ratio must sit within
/// 3× of the recorded one **in either direction** — slower is a
/// durability-layer regression, faster means the recording (and every
/// document quoting it) describes a system that no longer exists.
fn smoke_gate(baseline_path: &str) -> i32 {
    let n = env_usize("FITING_N", 200_000);
    let m = measure(n, default_seed());
    print_measurement(&m);

    let recorded = std::fs::read_to_string(baseline_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("recover_ratio").and_then(Json::as_f64));
    let Some(recorded) = recorded else {
        eprintln!("smoke: no recorded recover_ratio in {baseline_path}");
        return 1;
    };
    let (low, high) = (recorded / 3.0, recorded * 3.0);
    if !(low..=high).contains(&m.recover_ratio) {
        eprintln!(
            "smoke DRIFT: recover/cold ratio {:.3} outside {low:.3}..={high:.3} \
             (recorded {recorded:.3}): a regression if above, a stale recording if below",
            m.recover_ratio
        );
        return 1;
    }
    println!(
        "smoke: recover/cold ratio {:.3} within {low:.3}..={high:.3} (recorded {recorded:.3})",
        m.recover_ratio
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_durability.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            other => {
                eprintln!("unknown argument {other:?} (expected --smoke, --out)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if smoke {
        println!("# durability — restart cost (smoke)");
        std::process::exit(smoke_gate(&out_path));
    }

    let n = env_usize("FITING_N", 1_000_000);
    let seed = default_seed();
    println!("# durability — restart cost, {n} rows");
    let m = measure(n, seed);
    print_measurement(&m);
    assert!(
        m.recover_ratio < 1.0,
        "recovery ({:.1} ms) is not faster than a cold build ({:.1} ms)",
        m.recover_ms,
        m.cold_build_ms
    );
    std::fs::write(&out_path, to_json(&m, seed).pretty()).expect("write results");
    println!("wrote {out_path}");
}
