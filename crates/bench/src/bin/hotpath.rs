//! **Hot-path perf harness**: point and range lookups across strategy ×
//! error × dataset, on the direct, sharded, and service paths, recorded
//! as machine-readable `BENCH_hotpath.json` so every PR has a comparable
//! perf trajectory.
//!
//! Modes:
//!
//! * `hotpath` — full sweep; writes `BENCH_hotpath.json` (override with
//!   `--out <path>`). Pass `--before <prev.json>` to embed a previous
//!   run's `after` section as this file's `before` and compute
//!   headline speedups. Also runs the append-skew-with-rebalance
//!   scenario (half bulk-loaded, half appended, measured with fixed vs
//!   online-rebalanced shard boundaries) into the `rebalance` section.
//! * `hotpath --smoke` — a seconds-scale subset that does **not** write
//!   the results file; instead it parses the committed
//!   `BENCH_hotpath.json` and exits non-zero if the file is malformed
//!   or any matching direct/sharded lookup is more than 2× slower than
//!   the recorded baseline after normalizing by a machine-calibration
//!   factor (the binary-search reference rows, which exercise none of
//!   the guarded code, measure how much slower this machine is than
//!   the recording's). Service rows are excluded — their latency is
//!   queue-round-trip bound, which the calibration cannot normalize.
//!
//! Scales come from the usual env knobs (`FITING_N`, `FITING_PROBES`,
//! `FITING_SEED`).

#![forbid(unsafe_code)]

use fiting_baselines::{BinarySearchIndex, FullIndex};
use fiting_bench::json::Json;
use fiting_bench::{default_n, default_probes, default_seed, print_table, sample_probes};
use fiting_datasets::Dataset;
use fiting_index_api::{RebalancePolicy, Rebalancer, ShardedIndex, SortedIndex};
use fiting_index_service::{IndexService, ServiceConfig};
use fiting_tree::{FitingTree, FitingTreeBuilder, SearchStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One measurement row.
struct Entry {
    path: &'static str,
    dataset: &'static str,
    index: &'static str,
    strategy: &'static str,
    error: u64,
    op: &'static str,
    ns_per_op: f64,
    ops: usize,
}

impl Entry {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("path", Json::Str(self.path.into()))
            .with("dataset", Json::Str(self.dataset.into()))
            .with("index", Json::Str(self.index.into()))
            .with("strategy", Json::Str(self.strategy.into()))
            .with("error", Json::Num(self.error as f64))
            .with("op", Json::Str(self.op.into()))
            .with("ns_per_op", Json::Num(self.ns_per_op))
            .with("ops", Json::Num(self.ops as f64))
    }
}

/// Identity of a row when matching against a recorded baseline.
const IDENTITY: &[&str] = &["path", "dataset", "index", "strategy", "error", "op"];

struct Config {
    n: usize,
    probes: usize,
    scans: usize,
    seed: u64,
    errors: Vec<u64>,
    strategies: Vec<SearchStrategy>,
    smoke: bool,
}

fn strategy_name(s: SearchStrategy) -> &'static str {
    match s {
        SearchStrategy::Binary => "Binary",
        SearchStrategy::Linear => "Linear",
        SearchStrategy::Exponential => "Exponential",
        SearchStrategy::Interpolation => "Interpolation",
    }
}

/// The three workload shapes of the sweep.
#[derive(Clone, Copy)]
enum Workload {
    /// Uniform random keys — the fig6 headline shape, near-linear.
    Uniform,
    /// IoT sensor timestamps — strongly periodic, many segments.
    Clustered,
    /// Dense bulk-loaded run plus an appended, bursty tail that arrives
    /// through the write path (buffers + re-segmentation exercised).
    AppendSkew,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Clustered => "clustered",
            Workload::AppendSkew => "append-skew",
        }
    }

    /// Bulk-load pairs plus keys to apply afterwards through the
    /// measured path's write interface.
    fn generate(self, n: usize, seed: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
        match self {
            Workload::Uniform => {
                let mut keys = Dataset::Uniform.generate(n, seed);
                keys.dedup();
                (enumerate(&keys), Vec::new())
            }
            Workload::Clustered => {
                let keys = Dataset::Iot.generate(n, seed);
                (enumerate(&keys), Vec::new())
            }
            Workload::AppendSkew => {
                let bulk_n = n * 4 / 5;
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA99E);
                let mut key = 0u64;
                let mut bulk = Vec::with_capacity(bulk_n);
                for _ in 0..bulk_n {
                    key += 1 + rng.gen::<u64>() % 4;
                    bulk.push(key);
                }
                let mut appends = Vec::with_capacity(n - bulk_n);
                for i in 0..n.saturating_sub(bulk_n) {
                    // Bursty appends: dense runs broken by occasional
                    // large jumps, so the tail is piecewise linear.
                    key += if i % 512 == 0 {
                        10_000
                    } else {
                        1 + rng.gen::<u64>() % 8
                    };
                    appends.push(key);
                }
                (enumerate(&bulk), appends)
            }
        }
    }
}

fn enumerate(keys: &[u64]) -> Vec<(u64, u64)> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect()
}

/// Mean ns/op of `f` over `probes`.
fn measure<T>(probes: &[u64], mut f: impl FnMut(u64) -> T) -> f64 {
    assert!(!probes.is_empty());
    let start = Instant::now();
    for &p in probes {
        std::hint::black_box(f(std::hint::black_box(p)));
    }
    start.elapsed().as_nanos() as f64 / probes.len() as f64
}

/// Direct path: concrete `FitingTree` (the hot path this harness
/// guards) plus the B+ tree and binary-search reference points.
fn bench_direct(cfg: &Config, wl: Workload, out: &mut Vec<Entry>) {
    let (pairs, appends) = wl.generate(cfg.n, cfg.seed);
    let all_keys: Vec<u64> = pairs
        .iter()
        .map(|&(k, _)| k)
        .chain(appends.iter().copied())
        .collect();
    let probes = sample_probes(&all_keys, cfg.probes, cfg.seed);
    let scan_starts = sample_probes(&all_keys, cfg.scans, cfg.seed ^ 0x51ca);

    for &strategy in &cfg.strategies {
        for &error in &cfg.errors {
            let mut tree = FitingTreeBuilder::new(error)
                .search_strategy(strategy)
                .bulk_load(pairs.iter().copied())
                .expect("bulk pairs are strictly increasing");
            for &k in &appends {
                tree.insert(k, k);
            }
            out.push(Entry {
                path: "direct",
                dataset: wl.name(),
                index: "fiting",
                strategy: strategy_name(strategy),
                error,
                op: "point",
                ns_per_op: measure(&probes, |p| tree.get(&p).copied()),
                ops: probes.len(),
            });
            out.push(Entry {
                path: "direct",
                dataset: wl.name(),
                index: "fiting",
                strategy: strategy_name(strategy),
                error,
                op: "range100",
                ns_per_op: measure(&scan_starts, |s| {
                    tree.range(s..).take(100).map(|(_, &v)| v).sum::<u64>()
                }),
                ops: scan_starts.len(),
            });
        }
    }

    // Reference points, one config each: a dense B+ tree and plain
    // binary search over the sorted run.
    let mut btree = FullIndex::bulk_load(pairs.iter().copied());
    let mut binary = BinarySearchIndex::bulk_load(pairs.iter().copied());
    for &k in &appends {
        btree.insert(k, k);
        binary.insert(k, k);
    }
    out.push(Entry {
        path: "direct",
        dataset: wl.name(),
        index: "btree",
        strategy: "-",
        error: 0,
        op: "point",
        ns_per_op: measure(&probes, |p| SortedIndex::get(&btree, &p).copied()),
        ops: probes.len(),
    });
    out.push(Entry {
        path: "direct",
        dataset: wl.name(),
        index: "btree",
        strategy: "-",
        error: 0,
        op: "range100",
        ns_per_op: measure(&scan_starts, |s| {
            btree.range(s..).take(100).map(|(_, v)| v).sum::<u64>()
        }),
        ops: scan_starts.len(),
    });
    out.push(Entry {
        path: "direct",
        dataset: wl.name(),
        index: "binary_search",
        strategy: "-",
        error: 0,
        op: "point",
        ns_per_op: measure(&probes, |p| SortedIndex::get(&binary, &p).copied()),
        ops: probes.len(),
    });
}

/// Average key span covering ~`want` entries, for end-bounded scans on
/// paths without a lazy cursor (sharded `range_collect`, service).
fn span_for(keys_min: u64, keys_max: u64, len: usize, want: u64) -> u64 {
    let gap = (keys_max - keys_min) / (len.max(2) as u64 - 1);
    gap.max(1) * want
}

fn bench_sharded(cfg: &Config, wl: Workload, out: &mut Vec<Entry>) {
    let (pairs, appends) = wl.generate(cfg.n, cfg.seed);
    let (kmin, kmax) = (
        pairs[0].0,
        pairs[pairs.len() - 1].0.max(*appends.last().unwrap_or(&0)),
    );
    let all_keys: Vec<u64> = pairs
        .iter()
        .map(|&(k, _)| k)
        .chain(appends.iter().copied())
        .collect();
    let probes = sample_probes(&all_keys, cfg.probes / 2, cfg.seed);
    let scan_starts = sample_probes(&all_keys, cfg.scans, cfg.seed ^ 0x51ca);
    let span = span_for(kmin, kmax, all_keys.len(), 100);

    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), 4, pairs).expect("sorted bulk");
    for &k in &appends {
        index.insert(k, k);
    }
    out.push(Entry {
        path: "sharded",
        dataset: wl.name(),
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "point",
        ns_per_op: measure(&probes, |p| index.get(&p)),
        ops: probes.len(),
    });
    out.push(Entry {
        path: "sharded",
        dataset: wl.name(),
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "range100",
        ns_per_op: measure(&scan_starts, |s| {
            index.range_collect(s..s.saturating_add(span)).len()
        }),
        ops: scan_starts.len(),
    });
}

fn bench_service(cfg: &Config, wl: Workload, out: &mut Vec<Entry>) {
    let (pairs, appends) = wl.generate(cfg.n, cfg.seed);
    let (kmin, kmax) = (
        pairs[0].0,
        pairs[pairs.len() - 1].0.max(*appends.last().unwrap_or(&0)),
    );
    let all_keys: Vec<u64> = pairs
        .iter()
        .map(|&(k, _)| k)
        .chain(appends.iter().copied())
        .collect();
    // Every service op is a queue round trip; keep probe counts modest.
    let probes = sample_probes(&all_keys, (cfg.probes / 10).max(1_000), cfg.seed);
    let scan_starts = sample_probes(&all_keys, cfg.scans / 2, cfg.seed ^ 0x51ca);
    let span = span_for(kmin, kmax, all_keys.len(), 100);

    let index = ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), 4, pairs).expect("sorted");
    let service: IndexService<u64, u64, FitingTree<u64, u64>> =
        IndexService::start(index, ServiceConfig::default());
    let client = service.client();
    if !appends.is_empty() {
        client
            .insert_many(appends.iter().map(|&k| (k, k)).collect())
            .wait()
            .expect("service alive");
    }
    out.push(Entry {
        path: "service",
        dataset: wl.name(),
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "point",
        ns_per_op: measure(&probes, |p| client.get(p).wait().expect("service alive")),
        ops: probes.len(),
    });
    out.push(Entry {
        path: "service",
        dataset: wl.name(),
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "range100",
        ns_per_op: measure(&scan_starts, |s| {
            client
                .range(s..s.saturating_add(span))
                .wait()
                .expect("service alive")
                .len()
        }),
        ops: scan_starts.len(),
    });
    drop(service.shutdown());
}

/// Max/mean shard occupancy — the imbalance ratio rebalancing bounds.
fn imbalance(lens: &[usize]) -> f64 {
    let total: usize = lens.iter().sum();
    if total == 0 || lens.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / lens.len() as f64;
    *lens.iter().max().unwrap() as f64 / mean
}

/// The append-skew-with-rebalance scenario: half the keys bulk-loaded
/// uniformly into 4 shards, half appended past the maximum (the
/// paper's IoT/timestamp shape, exaggerated so the static layout's
/// imbalance is pronounced). Measured twice — boundaries fixed (what
/// every PR before this one did) vs. an online `Rebalancer` stepping
/// between append batches — recording the final occupancy shape into
/// the JSON `rebalance` section plus lookup rows on the rebalanced
/// layout.
fn bench_rebalance(cfg: &Config, out: &mut Vec<Entry>) -> Json {
    let shards = 4usize;
    let bulk_n = cfg.n / 2;
    let tail_n = cfg.n - bulk_n;
    let bulk: Vec<(u64, u64)> = (0..bulk_n as u64).map(|k| (k * 10, k)).collect();
    let tail: Vec<u64> = (0..tail_n as u64).map(|i| bulk_n as u64 * 10 + i).collect();
    let all_keys: Vec<u64> = bulk
        .iter()
        .map(|&(k, _)| k)
        .chain(tail.iter().copied())
        .collect();
    let probes = sample_probes(&all_keys, cfg.probes / 2, cfg.seed);
    let scan_starts = sample_probes(&all_keys, cfg.scans, cfg.seed ^ 0x51ca);
    let span = span_for(all_keys[0], *all_keys.last().unwrap(), all_keys.len(), 100);
    let config = FitingTreeBuilder::new(64);

    // Static boundaries: the whole tail piles onto the last shard.
    let fixed: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&config, shards, bulk.clone()).expect("sorted bulk");
    fixed.insert_many(tail.iter().map(|&k| (k, k)));
    let imbalance_static = imbalance(&fixed.shard_lens());

    // Rebalanced: same load, same appends, but a Rebalancer steps
    // between batches (what the service coordinator does on a timer).
    let rebalanced: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&config, shards, bulk).expect("sorted bulk");
    let mut rebalancer: Rebalancer<u64, u64, FitingTree<u64, u64>> = Rebalancer::new(
        config,
        RebalancePolicy {
            trigger_steps: 1,
            cooldown_steps: 0,
            min_split_entries: 4_096,
            ..RebalancePolicy::default()
        },
    );
    let sampler = rebalancer.sampler();
    for batch in tail.chunks(8_192) {
        sampler.observe_all(batch.iter().copied());
        rebalanced.insert_many(batch.iter().map(|&k| (k, k)));
        rebalancer.step(&rebalanced);
    }
    for _ in 0..64 {
        if rebalancer.step(&rebalanced) == fiting_index_api::RebalanceOutcome::Idle {
            break;
        }
    }
    let imbalance_rebalanced = imbalance(&rebalanced.shard_lens());
    let stats = rebalancer.stats();

    // Lookup rows on the rebalanced layout (comparable against the
    // "sharded" path rows: same structure, moved boundaries).
    out.push(Entry {
        path: "sharded-rebalanced",
        dataset: "append-heavy",
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "point",
        ns_per_op: measure(&probes, |p| rebalanced.get(&p)),
        ops: probes.len(),
    });
    out.push(Entry {
        path: "sharded-rebalanced",
        dataset: "append-heavy",
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "range100",
        ns_per_op: measure(&scan_starts, |s| {
            rebalanced.range_collect(s..s.saturating_add(span)).len()
        }),
        ops: scan_starts.len(),
    });
    out.push(Entry {
        path: "sharded",
        dataset: "append-heavy",
        index: "fiting",
        strategy: "Binary",
        error: 64,
        op: "point",
        ns_per_op: measure(&probes, |p| fixed.get(&p)),
        ops: probes.len(),
    });

    Json::obj()
        .with("scenario", Json::Str("append-heavy".into()))
        .with("bulk_n", Json::Num(bulk_n as f64))
        .with("appended_n", Json::Num(tail_n as f64))
        .with("shards_initial", Json::Num(shards as f64))
        .with(
            "shards_after_rebalance",
            Json::Num(rebalanced.shard_count() as f64),
        )
        .with("imbalance_static", Json::Num(imbalance_static))
        .with("imbalance_rebalanced", Json::Num(imbalance_rebalanced))
        .with("splits", Json::Num(stats.splits as f64))
        .with("merges", Json::Num(stats.merges as f64))
        .with("moved_keys", Json::Num(stats.moved_keys as f64))
}

fn run(cfg: &Config) -> Vec<Entry> {
    let mut out = Vec::new();
    for wl in [Workload::Uniform, Workload::Clustered, Workload::AppendSkew] {
        eprintln!("  measuring {} / direct ...", wl.name());
        bench_direct(cfg, wl, &mut out);
        eprintln!("  measuring {} / sharded ...", wl.name());
        bench_sharded(cfg, wl, &mut out);
        if !cfg.smoke {
            // The smoke gate excludes service rows (queue-round-trip
            // bound, not normalizable by the calibration factor), so
            // don't spend CI seconds measuring them.
            eprintln!("  measuring {} / service ...", wl.name());
            bench_service(cfg, wl, &mut out);
        }
    }
    out
}

fn entries_json(entries: &[Entry]) -> Json {
    Json::Arr(entries.iter().map(Entry::to_json).collect())
}

/// The acceptance headline: uniform workload, Binary strategy, e=64,
/// direct point lookups.
fn headline_of(rows: &[Json]) -> Option<f64> {
    Json::index_by(rows, IDENTITY)
        .get("direct/uniform/fiting/Binary/64/point")
        .and_then(|r| r.get("ns_per_op"))
        .and_then(Json::as_f64)
}

fn smoke_gate(cfg: &Config, baseline_path: &str) -> i32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smoke: cannot read {baseline_path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smoke: {baseline_path} is malformed JSON: {e}");
            return 1;
        }
    };
    let Some(after) = doc.get("after").and_then(Json::as_arr) else {
        eprintln!("smoke: {baseline_path} has no \"after\" results array");
        return 1;
    };
    for required in ["schema", "n", "seed"] {
        if doc.get(required).is_none() {
            eprintln!("smoke: {baseline_path} is missing required field {required:?}");
            return 1;
        }
    }
    let baseline = Json::index_by(after, IDENTITY);

    let entries = run(cfg);

    // Machine calibration: the recorded baseline was measured on some
    // other (possibly much faster) box. The binary-search reference
    // rows exercise none of the code this gate guards, so the ratio of
    // this machine's binary-search latency to the recording's measures
    // pure hardware/scale difference; regressions are judged relative
    // to that factor (floored at 1 so a faster machine doesn't hide a
    // real slowdown).
    let entry_key = |e: &Entry| {
        format!(
            "{}/{}/{}/{}/{}/{}",
            e.path, e.dataset, e.index, e.strategy, e.error, e.op
        )
    };
    let mut ratios: Vec<f64> = entries
        .iter()
        .filter(|e| e.index == "binary_search" && e.op == "point")
        .filter_map(|e| {
            baseline
                .get(&entry_key(e))
                .and_then(|r| r.get("ns_per_op"))
                .and_then(Json::as_f64)
                .map(|base| e.ns_per_op / base)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    // The ratio applies in both directions: >1 keeps a slower CI runner
    // from failing spuriously, <1 keeps a faster machine (or the smoke
    // run's smaller, cache-friendlier n) from hiding a real slowdown.
    // The floor only bounds how far the limit can shrink, so shape
    // differences between the reference and the guarded structures at
    // small n can't produce false failures on their own.
    let calibration = ratios
        .get(ratios.len() / 2)
        .copied()
        .unwrap_or(1.0)
        .max(0.5);
    println!("smoke: machine calibration factor {calibration:.2} (binary-search reference)");

    let mut failures = 0;
    let mut compared = 0;
    for entry in &entries {
        if entry.path == "service" {
            // Service latency is queue-round-trip bound — dominated by
            // scheduler behavior, not the lookup code this gate guards —
            // and does not scale with n, so the cross-machine
            // calibration below cannot normalize it.
            continue;
        }
        let key = entry_key(entry);
        let Some(base_ns) = baseline
            .get(&key)
            .and_then(|r| r.get("ns_per_op"))
            .and_then(Json::as_f64)
        else {
            continue; // configuration not in the recorded sweep
        };
        compared += 1;
        let limit = 2.0 * base_ns * calibration;
        if entry.ns_per_op > limit {
            eprintln!(
                "smoke REGRESSION: {key}: {:.0} ns/op vs recorded {:.0} ns/op \
                 (>2x after {calibration:.2}x machine calibration)",
                entry.ns_per_op, base_ns
            );
            failures += 1;
        }
    }
    if compared == 0 {
        eprintln!("smoke: no smoke configuration matched the recorded baseline");
        return 1;
    }
    println!(
        "smoke: {compared} configurations checked against {baseline_path}, {failures} regressions"
    );
    i32::from(failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut before_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--before" => {
                i += 1;
                before_path = Some(args.get(i).expect("--before needs a path").clone());
            }
            other => {
                eprintln!("unknown argument {other:?} (expected --smoke, --out, --before)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let cfg = if smoke {
        Config {
            n: fiting_bench::env_usize("FITING_N", 50_000),
            probes: fiting_bench::env_usize("FITING_PROBES", 20_000),
            scans: 200,
            seed: default_seed(),
            errors: vec![64],
            strategies: vec![SearchStrategy::Binary, SearchStrategy::Exponential],
            smoke: true,
        }
    } else {
        Config {
            n: default_n(),
            probes: default_probes(),
            scans: 2_000,
            seed: default_seed(),
            errors: vec![16, 64, 256, 1024],
            strategies: vec![
                SearchStrategy::Binary,
                SearchStrategy::Linear,
                SearchStrategy::Exponential,
                SearchStrategy::Interpolation,
            ],
            smoke: false,
        }
    };

    println!(
        "# hotpath — point/range lookups, {} rows, {} probes{}",
        cfg.n,
        cfg.probes,
        if cfg.smoke { " (smoke)" } else { "" }
    );

    if smoke {
        std::process::exit(smoke_gate(&cfg, &out_path));
    }

    let mut entries = run(&cfg);
    eprintln!("  measuring append-heavy / rebalance ...");
    let rebalance_summary = bench_rebalance(&cfg, &mut entries);
    let after = entries_json(&entries);

    let before = before_path.map(|p| {
        let text = std::fs::read_to_string(&p).expect("readable --before file");
        let doc = Json::parse(&text).expect("well-formed --before file");
        doc.get("after")
            .and_then(Json::as_arr)
            .map(|rows| Json::Arr(rows.to_vec()))
            .expect("--before file has an \"after\" array")
    });

    let mut doc = Json::obj()
        .with("schema", Json::Num(1.0))
        .with("bench", Json::Str("hotpath".into()))
        .with(
            "created_unix",
            Json::Num(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs() as f64)
                    .unwrap_or(0.0),
            ),
        )
        .with("n", Json::Num(cfg.n as f64))
        .with("probes", Json::Num(cfg.probes as f64))
        .with("seed", Json::Num(cfg.seed as f64))
        .with(
            "identity_fields",
            Json::Arr(IDENTITY.iter().map(|f| Json::Str((*f).into())).collect()),
        );
    let headline_after = headline_of(after.as_arr().unwrap_or(&[]));
    match &before {
        Some(b) => {
            let headline_before = headline_of(b.as_arr().unwrap_or(&[]));
            if let (Some(bn), Some(an)) = (headline_before, headline_after) {
                doc.set(
                    "headline",
                    Json::obj()
                        .with(
                            "workload",
                            Json::Str("direct/uniform/Binary/e=64/point".into()),
                        )
                        .with("before_ns_per_op", Json::Num(bn))
                        .with("after_ns_per_op", Json::Num(an))
                        .with("speedup", Json::Num(bn / an)),
                );
            }
            doc.set("before", b.clone());
        }
        None => {
            doc.set("before", Json::Null);
        }
    }
    doc.set("rebalance", rebalance_summary);
    doc.set("after", after);

    std::fs::write(&out_path, doc.pretty()).expect("writable output path");
    println!("\nwrote {out_path}");

    // Human-readable summary table.
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.path.to_string(),
                e.dataset.to_string(),
                e.index.to_string(),
                e.strategy.to_string(),
                e.error.to_string(),
                e.op.to_string(),
                format!("{:.0}", e.ns_per_op),
            ]
        })
        .collect();
    print_table(
        "hotpath sweep",
        &[
            "path", "dataset", "index", "strategy", "error", "op", "ns/op",
        ],
        &rows,
    );
    if let Some(h) = doc.get("headline") {
        println!(
            "\nheadline speedup (direct/uniform/Binary/e=64/point): {:.2}x",
            h.get("speedup").and_then(Json::as_f64).unwrap_or(0.0)
        );
    }
    if let Some(r) = doc.get("rebalance") {
        let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "rebalance (append-heavy): max/mean occupancy {:.2}x static -> {:.2}x \
             rebalanced, {} -> {} shards ({} splits, {} merges, {} keys moved)",
            num("imbalance_static"),
            num("imbalance_rebalanced"),
            num("shards_initial"),
            num("shards_after_rebalance"),
            num("splits"),
            num("merges"),
            num("moved_keys"),
        );
    }
}
