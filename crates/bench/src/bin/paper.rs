//! The paper's evaluation — Table 1, Figures 6–13 and a buffer-split
//! ablation — as one table whose claims run.
//!
//! Each row of [`FIGURES`] is one table or figure: its id, its title,
//! a function that measures its rows, and the shape claims it is held
//! to, each a named pure function of those rows. Every run prints each
//! selected table, then each of its claims as `holds` or `FAILS`, and
//! exits 1 if any claim failed. A paper sentence the table does not
//! reproduce at laptop scale has no claim here; README's "Reproducing
//! the paper" names it and says what the table shows instead.
//!
//! `--n` (default 1 000 000) sets every size: lookups sample n / 5
//! probes, Table 1's optimal DP runs on n / 50 keys, Fig. 11 starts at
//! n / 4 keys and Fig. 12's error is n / 500 (at least 1 000). The
//! paper runs 0.7–2 B rows on a 256 GB server; the shapes are what
//! reproduce here, not the nanoseconds.
//!
//! Run: `cargo run --release -p fiting-bench --bin paper -- [--fig ID]... [--n ROWS] [--seed SEED]`

#![forbid(unsafe_code)]

use fiting_baselines::FixedPageIndex;
use fiting_bench::driver::Structure::{self, Binary, Fiting, Fixed, Full};
use fiting_bench::driver::{insert_mops, lookup_ns};
use fiting_bench::{
    dedup_pairs, enumerate_pairs, fmt_bytes, measure_cache_miss_ns, print_table, sample_probes,
    throughput_mops, time_per_op,
};
use fiting_datasets::{nonlinearity::non_linearity_ratio, step, Dataset};
use fiting_plr::{optimal_segment_count, optimal_segment_count_endpoint, Point, ShrinkingCone};
use fiting_tree::cost::{CostModel, SegmentCountModel};
use fiting_tree::{FitingTree, FitingTreeBuilder, SecondaryIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use Cell::{Bytes, Int, Ns, Num, Pct, Text};

const USAGE: &str = "usage: paper [--fig ID]... [--n ROWS >= 1000] [--seed SEED]";

/// One measured table cell. Claims read numbers back with [`Cell::num`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    Text(&'static str),
    Int(u64),
    Bytes(usize),
    /// Nanoseconds, printed whole.
    Ns(f64),
    Num(f64),
    /// A share in `[0, 1]`, printed as a percentage.
    Pct(f64),
}

impl Cell {
    fn num(self) -> f64 {
        match self {
            Int(v) => v as f64,
            Bytes(b) => b as f64,
            Ns(v) | Num(v) | Pct(v) => v,
            Text(_) => f64::NAN,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Text(t) => f.write_str(t),
            Int(v) => write!(f, "{v}"),
            Bytes(b) => f.write_str(&fmt_bytes(b)),
            Ns(v) => write!(f, "{v:.0}"),
            Num(v) => write!(f, "{v:.3}"),
            Pct(v) => write!(f, "{:.0} %", v * 100.0),
        }
    }
}

type Row = Vec<Cell>;

/// A shape statement about one figure, checked against its rows.
struct Claim {
    says: &'static str,
    holds: fn(&[Row]) -> bool,
}

/// What every figure derives its sizes from.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scale {
    n: usize,
    seed: u64,
}

struct Figure {
    id: &'static str,
    title: &'static str,
    header: &'static [&'static str],
    measure: fn(Scale) -> Vec<Row>,
    claims: &'static [Claim],
}

const FIGURES: &[Figure] = &[
    Figure {
        id: "table1",
        title: "Table 1 — segments: ShrinkingCone (greedy) vs optimal, n / 50 keys a sample",
        header: &["dataset", "e", "greedy", "optimal", "ratio", "any line"],
        measure: table1,
        claims: &[
            Claim {
                says: "any-line optimum <= optimal <= ShrinkingCone on every row",
                holds: table1_optimal_is_bracketed,
            },
            Claim {
                says: "sum of ShrinkingCone / sum of optimal <= 1.6",
                holds: table1_greedy_within_ceiling,
            },
        ],
    },
    Figure {
        id: "fig6",
        title: "Fig. 6 — lookup latency vs index size (e = page size)",
        header: &["dataset", "system", "e / page", "index size", "ns/lookup"],
        measure: fig6,
        claims: &[Claim {
            says: "every dataset, every e = page: FITing-Tree bytes <= Fixed bytes < Full bytes",
            holds: fig6_sizes_ordered,
        }],
    },
    Figure {
        id: "fig7",
        title: "Fig. 7 — insert throughput, M inserts/s (n / 4 inserts into gaps)",
        header: &["dataset", "error", "FITing-Tree", "Fixed", "Full"],
        measure: fig7,
        claims: &[],
    },
    Figure {
        id: "fig8",
        title: "Fig. 8 — non-linearity ratio by error scale",
        header: &["error scale", "Weblogs", "IoT", "Maps"],
        measure: fig8,
        claims: &[Claim {
            says: "IoT's peak at scales <= 1 % of the largest exceeds Maps' peak",
            holds: fig8_iot_peaks_above_maps,
        }],
    },
    Figure {
        id: "fig9",
        title: "Fig. 9 — index size on step data (step 100, no insert buffer)",
        header: &["e", "FITing", "segments", "per step", "Fixed", "Full"],
        measure: fig9,
        claims: &[Claim {
            says: "e <= step / 2 needs >= 1 segment per step; e >= step needs exactly 1",
            holds: fig9_cliff_at_the_step,
        }],
    },
    Figure {
        id: "fig10",
        title: "Fig. 10 — cost model vs measurement (Weblogs, c measured on this machine)",
        header: &["error", "est ns", "measured ns", "est size", "actual size"],
        measure: fig10,
        claims: &[
            Claim {
                says: "estimated latency >= measured latency at every e",
                holds: fig10_estimate_bounds_latency,
            },
            Claim {
                says: "estimated size = actual size at every e",
                holds: fig10_size_estimate_is_exact,
            },
        ],
    },
    Figure {
        id: "fig11",
        title: "Fig. 11 — lookup ns by scale factor (Weblogs, n / 4 keys × scale, e = page = 100)",
        header: &[
            "scale",
            "FITing-Tree",
            "Fixed",
            "Full",
            "Binary",
            "FITing size",
            "Full size",
        ],
        measure: fig11,
        claims: &[Claim {
            says: "binary search's 32× / 1× latency growth exceeds the FITing-Tree's",
            holds: fig11_binary_grows_faster,
        }],
    },
    Figure {
        id: "fig12",
        title: "Fig. 12 — insert throughput vs buffer size (Weblogs, e = max(n / 500, 1 000))",
        header: &["buffer", "M inserts/s", "segments after"],
        measure: fig12,
        claims: &[Claim {
            says: "the largest buffer inserts faster than the smallest",
            holds: fig12_largest_buffer_fastest,
        }],
    },
    Figure {
        id: "fig13",
        title: "Fig. 13 — directory share of a lookup (Weblogs, e = page size)",
        header: &["e / page", "FITing-Tree", "segments", "Fixed"],
        measure: fig13,
        claims: &[],
    },
    Figure {
        id: "ablation",
        title: "Ablation — buffer share of a total error of 1 024 (Weblogs; the paper's is 512)",
        header: &["buffer", "seg error", "ns/lookup", "segments"],
        measure: ablation,
        claims: &[Claim {
            says: "segments never decrease as the buffer share grows",
            holds: ablation_segments_grow_with_buffer,
        }],
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, scale) = parse(&args).unwrap_or_else(|problem| {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("paper: {problem}\n{USAGE}; ID: {}", known.join(" "));
        std::process::exit(2)
    });
    println!("# paper — n = {}, seed = {}", scale.n, scale.seed);
    let mut failed = 0;
    for figure in FIGURES
        .iter()
        .filter(|f| ids.is_empty() || ids.contains(&f.id))
    {
        let rows = (figure.measure)(scale);
        print_table(figure.title, figure.header, &rows);
        println!();
        for claim in figure.claims {
            let holds = (claim.holds)(&rows);
            failed += usize::from(!holds);
            let verdict = if holds { "holds" } else { "FAILS" };
            println!("{verdict}  {}: {}", figure.id, claim.says);
        }
    }
    if failed > 0 {
        eprintln!("paper: {failed} claim(s) failed");
        std::process::exit(1);
    }
}

/// Parses `--fig ID` (repeatable), `--n ROWS` and `--seed SEED`.
fn parse(args: &[String]) -> Result<(Vec<&str>, Scale), String> {
    let mut ids = Vec::new();
    let mut scale = Scale {
        n: 1_000_000,
        seed: 42,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--fig", Some(id)) if FIGURES.iter().any(|f| f.id == id) => ids.push(id),
            ("--n", Some(n)) => match n.parse() {
                Ok(n) if n >= 1_000 => scale.n = n,
                _ => return Err(format!("`--n {n}` is not a row count >= 1000")),
            },
            ("--seed", Some(seed)) => match seed.parse() {
                Ok(seed) => scale.seed = seed,
                Err(_) => return Err(format!("`--seed {seed}` is not a u64")),
            },
            _ => return Err(format!("bad argument `{flag}` `{}`", value.unwrap_or(""))),
        }
    }
    Ok((ids, scale))
}

/// Error thresholds (Figs. 6 and 13 pair each with an equal page size).
const SWEEP: [u64; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];

/// A FITing-Tree over `pairs` (strictly increasing keys).
fn fiting(builder: FitingTreeBuilder, pairs: &[(u64, u64)]) -> FitingTree<u64, u64> {
    builder
        .bulk_load(pairs.iter().copied())
        .expect("generated keys are sorted")
}

/// `count` distinct keys absent from `keys`: midpoints of random gaps.
fn insert_stream(keys: &[u64], count: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let mut used = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = rng.gen_range(0..keys.len() - 1);
        let (a, b) = (keys[i], keys[i + 1]);
        let mid = a + (b - a) / 2;
        if b > a + 1 && used.insert(mid) {
            out.push(mid);
        }
    }
    out
}

/// Greedy vs the endpoint-chord optimum the paper's DP computes, plus
/// the any-line optimum, a strictly stronger lower bound.
fn table1(s: Scale) -> Vec<Row> {
    let configs: [(Dataset, &[u64]); 6] = [
        (Dataset::TaxiDropLat, &[10, 100, 1000]),
        (Dataset::TaxiDropLon, &[10, 100, 1000]),
        (Dataset::TaxiPickupTime, &[10, 100]),
        (Dataset::Maps, &[10, 100]), // "OSM lon" in the paper
        (Dataset::Weblogs, &[10, 100]),
        (Dataset::Iot, &[10, 100]),
    ];
    let mut rows = Vec::new();
    for (ds, errors) in configs {
        let points: Vec<Point> = ds
            .generate(s.n / 50, s.seed)
            .iter()
            .enumerate()
            .map(|(i, &k)| Point::new(k as f64, i as u64))
            .collect();
        for &e in errors {
            let greedy = ShrinkingCone::segment(&points, e).len();
            let optimal = optimal_segment_count_endpoint(&points, e);
            rows.push(vec![
                Text(ds.name()),
                Int(e),
                Int(greedy as u64),
                Int(optimal as u64),
                Num(greedy as f64 / optimal.max(1) as f64),
                Int(optimal_segment_count(&points, e) as u64),
            ]);
        }
    }
    rows
}

fn table1_optimal_is_bracketed(rows: &[Row]) -> bool {
    rows.iter()
        .all(|r| r[5].num() <= r[3].num() && r[3].num() <= r[2].num())
}

fn table1_greedy_within_ceiling(rows: &[Row]) -> bool {
    let sum = |col: usize| rows.iter().map(|r| r[col].num()).sum::<f64>();
    sum(2) <= 1.6 * sum(3)
}

/// Every structure through the same [`Structure`] path (the paper's
/// Section 7.1 fairness rule). Maps has duplicates: the baselines index
/// its deduplicated keys, which favours them on size, and two extra rows
/// give the duplicate-aware secondary FITing-Tree.
fn fig6(s: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for ds in Dataset::headline() {
        let raw = ds.generate(s.n, s.seed);
        let pairs = dedup_pairs(raw.clone());
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let probes = sample_probes(&keys, s.n / 5, s.seed);
        let mut measure = |structure: Structure, param: Cell| {
            let index = structure.build(&pairs);
            let ns = lookup_ns(&index, &probes);
            rows.push(vec![
                Text(ds.name()),
                Text(structure.label()),
                param,
                Bytes(index.dyn_size_bytes()),
                Ns(ns),
            ]);
        };
        for e in SWEEP {
            measure(Fiting(e), Int(e));
        }
        for e in SWEEP {
            measure(Fixed(e as usize), Int(e));
        }
        measure(Full, Text("-"));
        measure(Binary, Text("-"));
        if ds.has_duplicates() {
            let dup_pairs = enumerate_pairs(&raw);
            for e in [64u64, 1024] {
                let index = SecondaryIndex::bulk_load(e, dup_pairs.iter().copied())
                    .expect("generated keys are sorted");
                let ns = time_per_op(&probes, |p| index.get(&p).next());
                rows.push(vec![
                    Text(ds.name()),
                    Text("FITing-Tree (secondary)"),
                    Int(e),
                    Bytes(index.index_size_bytes()),
                    Ns(ns),
                ]);
            }
        }
    }
    rows
}

fn fig6_sizes_ordered(rows: &[Row]) -> bool {
    let size = |key: [Cell; 3]| rows.iter().find(|r| r[..3] == key).map(|r| r[3].num());
    rows.iter().filter(|r| r[1] == Text("FITing-Tree")).all(|r| {
        let fixed = size([r[0], Text("Fixed"), r[2]]);
        let full = size([r[0], Text("Full"), Text("-")]);
        matches!((fixed, full), (Some(fixed), Some(full)) if r[3].num() <= fixed && fixed < full)
    })
}

/// The FITing-Tree's buffer is e / 2, the fixed-page baseline's page
/// is e; the full index inserts in place.
fn fig7(s: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for ds in Dataset::headline() {
        let pairs = dedup_pairs(ds.generate(s.n, s.seed));
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let stream = insert_stream(&keys, s.n / 4, s.seed);
        for e in [16u64, 64, 256, 1024] {
            let mut row = vec![Text(ds.name()), Int(e)];
            for structure in [Fiting(e), Fixed(e as usize), Full] {
                row.push(Num(insert_mops(&mut structure.build(&pairs), &stream)));
            }
            rows.push(row);
        }
    }
    rows
}

/// Log-spaced scales up to n; near n the ratio's normalization
/// saturates for every dataset.
fn fig8(s: Scale) -> Vec<Row> {
    let keys = Dataset::headline().map(|ds| ds.generate(s.n, s.seed));
    (1..=9)
        .flat_map(|p| [10u64.pow(p), 3 * 10u64.pow(p)])
        .filter(|&e| e <= s.n as u64)
        .map(|e| {
            let mut row = vec![Int(e)];
            row.extend(keys.iter().map(|k| Num(non_linearity_ratio(k, e))));
            row
        })
        .collect()
}

fn fig8_iot_peaks_above_maps(rows: &[Row]) -> bool {
    let largest = rows.iter().map(|r| r[0].num()).fold(0.0, f64::max);
    let peak = |col: usize| {
        rows.iter()
            .filter(|r| r[0].num() * 100.0 <= largest)
            .map(|r| r[col].num())
            .fold(0.0, f64::max)
    };
    peak(2) > peak(3)
}

const STEP: u64 = 100;

/// A pure bulk load: no insert buffer, so the whole error budget goes
/// to segmentation. The secondary FITing-Tree indexes the duplicates;
/// the baselines get unique keys `key · 1000 + offset`, which keep the
/// staircase.
fn fig9(s: Scale) -> Vec<Row> {
    let keys = step(s.n, STEP);
    let dup_pairs = enumerate_pairs(&keys);
    let unique_pairs: Vec<(u64, u64)> = dup_pairs
        .iter()
        .map(|&(k, i)| (k * 1_000 + i % STEP, i))
        .collect();
    let full = Full.build(&unique_pairs).dyn_size_bytes();
    let steps = s.n.div_ceil(STEP as usize) as f64;
    [1u64, 10, 50, 99, 100, 150, 1_000, 10_000, 100_000]
        .into_iter()
        .map(|e| {
            let fiting = SecondaryIndex::bulk_load_with(
                FitingTreeBuilder::new(e).buffer_size(0),
                dup_pairs.iter().copied(),
            )
            .expect("step keys are sorted");
            let segments = fiting.segment_count();
            let fixed = Fixed(e.max(2) as usize).build(&unique_pairs);
            vec![
                Int(e),
                Bytes(fiting.index_size_bytes()),
                Int(segments as u64),
                Num(segments as f64 / steps),
                Bytes(fixed.dyn_size_bytes()),
                Bytes(full),
            ]
        })
        .collect()
}

fn fig9_cliff_at_the_step(rows: &[Row]) -> bool {
    rows.iter().all(|r| match r[0].num() as u64 {
        e if e <= STEP / 2 => r[3].num() >= 1.0,
        e if e >= STEP => r[2] == Int(1),
        _ => true,
    })
}

/// `c` is a dependent pointer chase on this machine (the paper measured
/// ≈ 50 ns on its testbed).
fn fig10(s: Scale) -> Vec<Row> {
    let keys = Dataset::Weblogs.generate(s.n, s.seed);
    let pairs = enumerate_pairs(&keys);
    let probes = sample_probes(&keys, s.n / 5, s.seed);
    let errors = [16u64, 64, 256, 1024, 4096, 16384];
    let segment_model = SegmentCountModel::learn(&keys, &errors);
    let cost = CostModel {
        cache_miss_ns: measure_cache_miss_ns(),
    };
    errors
        .into_iter()
        .map(|e| {
            let tree = fiting(FitingTreeBuilder::new(e), &pairs);
            vec![
                Int(e),
                Ns(cost.lookup_latency_ns(&segment_model, e)),
                Ns(time_per_op(&probes, |p| tree.get(&p).copied())),
                Bytes(cost.index_size_bytes(&segment_model, e) as usize),
                Bytes(tree.index_size_bytes()),
            ]
        })
        .collect()
}

fn fig10_estimate_bounds_latency(rows: &[Row]) -> bool {
    rows.iter().all(|r| r[1].num() >= r[2].num())
}

/// The model is learned at the tree's own segmentation error, so at a
/// sampled e it prices the tree's segment count, and its size, exactly.
fn fig10_size_estimate_is_exact(rows: &[Row]) -> bool {
    rows.iter().all(|r| r[3] == r[4])
}

/// e = page = 100 is the paper's optimum for this dataset.
fn fig11(s: Scale) -> Vec<Row> {
    let structures = [Fiting(100), Fixed(100), Full, Binary];
    [1u64, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|scale| {
            let keys = Dataset::Weblogs.generate(s.n / 4 * scale as usize, s.seed);
            let pairs = enumerate_pairs(&keys);
            let probes = sample_probes(&keys, s.n / 5, s.seed);
            let mut row = vec![Int(scale)];
            let mut sizes = Vec::new();
            for structure in structures {
                let index = structure.build(&pairs);
                row.push(Ns(lookup_ns(&index, &probes)));
                sizes.push(Bytes(index.dyn_size_bytes()));
            }
            row.extend([sizes[0], sizes[2]]);
            row
        })
        .collect()
}

fn fig11_binary_grows_faster(rows: &[Row]) -> bool {
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return false;
    };
    let growth = |col: usize| last[col].num() / first[col].num();
    growth(4) > growth(1)
}

/// The paper's error of 20 000 at 715 M rows, kept at the same
/// segments per row: at n = 1 M a fixed 20 000 would leave a handful of
/// huge segments, and a tiny buffer would re-segment one of them every
/// few inserts. Buffers stay below the error, which must leave room to
/// segment.
fn fig12(s: Scale) -> Vec<Row> {
    let error = (s.n as u64 / 500).max(1_000);
    let keys = Dataset::Weblogs.generate(s.n, s.seed);
    let pairs = enumerate_pairs(&keys);
    let stream = insert_stream(&keys, s.n / 10, s.seed);
    [10u64, 100, 1_000, 10_000]
        .into_iter()
        .filter(|&b| b < error)
        .chain([error * 9 / 10])
        .map(|buffer| {
            let mut tree = fiting(FitingTreeBuilder::new(error).buffer_size(buffer), &pairs);
            let mops = throughput_mops(&stream, |k| tree.insert(k, k));
            vec![Int(buffer), Num(mops), Int(tree.segment_count() as u64)]
        })
        .collect()
}

fn fig12_largest_buffer_fastest(rows: &[Row]) -> bool {
    matches!((rows.first(), rows.last()), (Some(small), Some(large)) if large[1].num() > small[1].num())
}

/// The share of each lookup spent finding the page, for the FITing-Tree
/// and for fixed pages of the same size. Tracing times every probe, so
/// at most 50 000 of them.
fn fig13(s: Scale) -> Vec<Row> {
    let keys = Dataset::Weblogs.generate(s.n, s.seed);
    let pairs = enumerate_pairs(&keys);
    let probes = sample_probes(&keys, (s.n / 5).min(50_000), s.seed);
    let share = |(directory, page): (u64, u64)| directory as f64 / (directory + page).max(1) as f64;
    SWEEP
        .into_iter()
        .map(|e| {
            let tree = fiting(FitingTreeBuilder::new(e), &pairs);
            let fixed = FixedPageIndex::bulk_load(e as usize, pairs.iter().copied());
            let ft = probes.iter().fold((0, 0), |(d, s), p| {
                let trace = tree.get_traced(p).1;
                (d + trace.tree_nanos, s + trace.segment_nanos)
            });
            let fx = probes.iter().fold((0, 0), |(d, s), p| {
                let (directory, page) = fixed.get_traced(p).1;
                (d + directory, s + page)
            });
            vec![
                Int(e),
                Pct(share(ft)),
                Int(tree.segment_count() as u64),
                Pct(share(fx)),
            ]
        })
        .collect()
}

/// The paper fixes buffer = e / 2 for Fig. 7; this sweeps the split at
/// a fixed total to show what write headroom costs the read side.
fn ablation(s: Scale) -> Vec<Row> {
    let pairs = dedup_pairs(Dataset::Weblogs.generate(s.n, s.seed));
    let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
    let probes = sample_probes(&keys, s.n / 5, s.seed);
    let total = 1024u64;
    [total / 8, total / 4, total / 2, total * 7 / 8]
        .into_iter()
        .map(|buffer| {
            let tree = fiting(FitingTreeBuilder::new(total).buffer_size(buffer), &pairs);
            vec![
                Int(buffer),
                Int(total - buffer),
                Ns(time_per_op(&probes, |p| tree.get(&p).copied())),
                Int(tree.segment_count() as u64),
            ]
        })
        .collect()
}

fn ablation_segments_grow_with_buffer(rows: &[Row]) -> bool {
    rows.windows(2).all(|w| w[0][3].num() <= w[1][3].num())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts_then_rejects(holds: fn(&[Row]) -> bool, good: &[Row], bad: &[Row]) {
        assert!(holds(good), "rejected {good:?}");
        assert!(!holds(bad), "accepted {bad:?}");
    }

    #[test]
    fn table1_claims() {
        let row = |greedy, optimal, bound| {
            vec![
                Text("Maps"),
                Int(10),
                Int(greedy),
                Int(optimal),
                Num(0.0),
                Int(bound),
            ]
        };
        let (good, bad) = ([row(5, 4, 3), row(4, 4, 4)], [row(5, 4, 3), row(3, 4, 3)]);
        accepts_then_rejects(table1_optimal_is_bracketed, &good, &bad);
        accepts_then_rejects(table1_optimal_is_bracketed, &good, &[row(5, 4, 5)]);
        let (good, bad) = ([row(16, 10, 9), row(3, 3, 1)], [row(17, 10, 9)]);
        accepts_then_rejects(table1_greedy_within_ceiling, &good, &bad);
    }

    #[test]
    fn fig6_claim() {
        let rows = |fiting, full| {
            let row = |system, param, bytes| vec![Text("IoT"), Text(system), param, Bytes(bytes)];
            [
                row("FITing-Tree", Int(16), fiting),
                row("Fixed", Int(16), 200),
                row("Fixed", Int(64), 100),
                row("Full", Text("-"), full),
            ]
        };
        accepts_then_rejects(fig6_sizes_ordered, &rows(200, 1000), &rows(201, 1000));
        accepts_then_rejects(fig6_sizes_ordered, &rows(100, 1000), &rows(100, 200));
    }

    #[test]
    fn fig8_claim() {
        // The 10 000 row is past 1 % of the largest scale: ignored.
        let rows = |iot| {
            [
                vec![Int(10), Num(0.3), Num(iot), Num(0.2)],
                vec![Int(10_000), Num(1.0), Num(0.0), Num(1.0)],
            ]
        };
        accepts_then_rejects(fig8_iot_peaks_above_maps, &rows(0.3), &rows(0.1));
    }

    #[test]
    fn fig9_claim() {
        let row = |e, segments, per_step| {
            vec![
                Int(e),
                Bytes(0),
                Int(segments),
                Num(per_step),
                Bytes(0),
                Bytes(0),
            ]
        };
        let good = [row(50, 1001, 1.001), row(99, 7, 0.007), row(100, 1, 0.001)];
        accepts_then_rejects(fig9_cliff_at_the_step, &good, &[row(100, 2, 0.002)]);
        accepts_then_rejects(fig9_cliff_at_the_step, &good, &[row(50, 999, 0.999)]);
    }

    #[test]
    fn fig10_claims() {
        let row = |estimate, measured, est_size, size| {
            vec![
                Int(16),
                Ns(estimate),
                Ns(measured),
                Bytes(est_size),
                Bytes(size),
            ]
        };
        accepts_then_rejects(
            fig10_estimate_bounds_latency,
            &[row(1000.0, 100.0, 0, 0), row(60.0, 60.0, 0, 0)],
            &[row(1000.0, 100.0, 0, 0), row(100.0, 101.0, 0, 0)],
        );
        accepts_then_rejects(
            fig10_size_estimate_is_exact,
            &[row(0.0, 0.0, 36, 36), row(0.0, 0.0, 72, 72)],
            &[row(0.0, 0.0, 36, 36), row(0.0, 0.0, 72, 36)],
        );
    }

    #[test]
    fn fig11_claim() {
        let row =
            |scale, fiting, binary| vec![Int(scale), Ns(fiting), Ns(0.0), Ns(0.0), Ns(binary)];
        accepts_then_rejects(
            fig11_binary_grows_faster,
            &[row(1, 50.0, 30.0), row(32, 100.0, 240.0)],
            &[row(1, 50.0, 30.0), row(32, 100.0, 60.0)],
        );
    }

    #[test]
    fn fig12_claim() {
        let rows = |small, large| [vec![Int(10), Num(small)], vec![Int(900), Num(large)]];
        accepts_then_rejects(
            fig12_largest_buffer_fastest,
            &rows(1.5, 4.0),
            &rows(4.0, 1.5),
        );
    }

    #[test]
    fn ablation_claim() {
        let rows = |segments: [u64; 3]| segments.map(|s| vec![Int(0), Int(0), Ns(0.0), Int(s)]);
        accepts_then_rejects(
            ablation_segments_grow_with_buffer,
            &rows([2, 7, 7]),
            &rows([2, 7, 5]),
        );
    }

    #[test]
    fn parse_selects_scales_and_refuses_the_rest() {
        let args = |line: &str| {
            line.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let default = Scale {
            n: 1_000_000,
            seed: 42,
        };
        assert_eq!(parse(&args("")), Ok((vec![], default)));
        assert_eq!(
            parse(&args("--fig fig9 --n 50000 --seed 7 --fig table1")),
            Ok((vec!["fig9", "table1"], Scale { n: 50_000, seed: 7 }))
        );
        for bad in [
            "--fig fig14",
            "--n abc",
            "--n 999",
            "--seed -1",
            "--n",
            "--smoke 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
