//! The five workloads and the end-to-end (tracing off) measurement.
//!
//! Every workload loads the same fixture, then executes a seeded op
//! stream against one layer boundary in a closed loop: one generator
//! thread, callers that wait for their replies. Ops are generated in
//! [`CHUNK`]-op chunks outside the timed region; only chunk execution
//! is timed. Op counts are fixed — `ops_per_second × --seconds`, the
//! rate frozen per workload from the reference box — so the index
//! size, the log tail and the bytes written are exact functions of the
//! seed, and a run measures for about `--seconds` seconds there.
//!
//! A run is [`PASSES`] passes of the same work from the same seed (see
//! [`best_per_slice`] for how they become one number).

use crate::counting_io::IoCounts;
use crate::gen::{Fixture, Generator, Kind, Mix, Op, Picker, CHUNK, KINDS};
use crate::stats;
use crate::sut::{Boundary, Sut, Tally, WINDOW};
use std::path::Path;
use std::time::Instant;

/// Keys loaded before every workload: 128 MB of pairs against a ~1 MB
/// directory — the index fits the cache, the data does not.
pub const FIXTURE_KEYS: usize = 8_000_000;
/// `--smoke`: a fixture and a run length that finish all five workloads
/// in under 5 s, for the harness's own tests.
pub const SMOKE_KEYS: usize = 200_000;
pub const SMOKE_SECONDS: f64 = 0.2;
/// Passes per run: set-up, warm-up and the timed phase, repeated.
pub const PASSES: usize = 5;
/// Equal slices the timed phase of a pass is cut into.
pub const SLICES: u64 = 8;
/// Warm-up ops, discarded, as a share of the timed ops (1⁄21 of all).
const WARMUP_SHARE: u64 = 20;
/// Checkpoints the durable workload takes in a pass, evenly spaced by
/// op count.
pub const CHECKPOINTS: u64 = 3;
/// Acknowledged inserts re-read after each recovery.
const RECOVERY_SAMPLES: u64 = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub boundary: Boundary,
    pub mix: Mix,
    pub picker: Picker,
    /// Timed ops per `--seconds` second; tuned once on the reference
    /// box so the timed phases last about `--seconds`, then frozen.
    pub ops_per_second: u64,
    /// Whether `BENCHMARK.json` lists it, so that its end-to-end
    /// metrics are held to their bounds. The two that are not did not
    /// repeat on the reference box (README, "Noise floor"): they run
    /// under `--all` and by name, and report the same metrics.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "core_point",
        why: "Paper Fig. 6: uniform point gets on FitingTree alone; DRAM-bound data, cached directory; bypasses every layer above core.",
        boundary: Boundary::Core,
        mix: Mix { get: 100, insert: 0, remove: 0, range: 0 },
        picker: Picker::Uniform,
        ops_per_second: 2_000_000,
        gated: true,
    },
    Workload {
        name: "core_churn",
        why: "Same layer, write-heavy: buffers fill, plr re-segments, the directory is spliced; a read win bought with write cost shows here.",
        boundary: Boundary::Core,
        mix: Mix { get: 50, insert: 35, remove: 5, range: 10 },
        picker: Picker::Recent,
        ops_per_second: 620_000,
        gated: true,
    },
    Workload {
        name: "sharded_mix",
        why: "ShardedIndex over 4 shards, one thread: routing, seqlock validation, value clone and range_collect are the cost above core.",
        boundary: Boundary::Sharded(4),
        mix: Mix { get: 80, insert: 10, remove: 0, range: 10 },
        picker: Picker::Recent,
        ops_per_second: 1_300_000,
        gated: true,
    },
    Workload {
        name: "service_read",
        why: "The service tax: one Client keeps 128 reads in flight through IndexService; enqueue, wake and Ticket dominate, core does little.",
        boundary: Boundary::Service(2),
        mix: Mix { get: 90, insert: 0, remove: 0, range: 10 },
        picker: Picker::Recent,
        ops_per_second: 440_000,
        gated: false,
    },
    Workload {
        name: "durable_ingest",
        why: "Only workload where storage works: WAL group commit with fsyncs, 3 op-count checkpoints, shutdown, recovery, re-read of acked inserts.",
        boundary: Boundary::Durable(2),
        mix: Mix { get: 30, insert: 70, remove: 0, range: 0 },
        picker: Picker::Recent,
        ops_per_second: 90_000,
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The inputs of one run. `--seed` is the only one that varies the ops.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub n: usize,
    pub seed: u64,
    pub seconds: f64,
}

impl RunOpts {
    /// Chunks in each of the [`SLICES`] timed slices of a pass of `w`.
    pub fn slice_chunks(&self, w: &Workload) -> u64 {
        let ops = (w.ops_per_second as f64 * self.seconds) as u64;
        ops.div_ceil(CHUNK as u64 * SLICES * PASSES as u64).max(1)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Individually timed samples behind a percentile.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics `BENCHMARK.json` declares, in its order.
    pub declared: Vec<Metric>,
    /// Numbers only this workload has (an op the others lack, recovery,
    /// write amplification): printed, never gated.
    pub extras: Vec<Metric>,
    /// Verified ops and end-of-run checks, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the workload's op stream (untraced runs).
    pub stream_hash: Option<u64>,
}

/// A timed phase cut into equal slices of chunks: per slice, the summed
/// chunk time and the percentiles of the ops timed on their own.
#[derive(Debug, Default)]
pub struct Slices {
    pub ops: u64,
    pub failed: u64,
    pub seconds: Vec<f64>,
    ops_per_slice: u64,
    submit_s: f64,
    submits: u64,
    /// Per op kind, per slice: p50 and p99 of the individually timed
    /// ops; NaN for a slice that timed none of that kind.
    p50: [Vec<f64>; 4],
    p99: [Vec<f64>; 4],
    samples: [usize; 4],
}

impl Slices {
    pub fn push(&mut self, mut slice: Tally) {
        self.ops += slice.ops;
        self.failed += slice.failed;
        self.ops_per_slice = slice.ops;
        self.seconds.push(slice.busy.as_secs_f64());
        self.submit_s += slice.submit.as_secs_f64();
        self.submits += slice.submits;
        for kind in KINDS {
            let samples = &mut slice.samples[kind as usize];
            self.samples[kind as usize] += samples.len();
            let percentile = |samples: &mut [u32], p| match samples {
                [] => f64::NAN,
                _ => stats::percentile(samples, p),
            };
            self.p50[kind as usize].push(percentile(samples, 50.0));
            self.p99[kind as usize].push(percentile(samples, 99.0));
        }
    }

    /// Per-op time of the slice an eighth in from the fast end: the
    /// traced run's single-pass phases have no second pass to compare
    /// a slice with, so they report their quiet slice.
    pub fn quiet_ns_per_op(&self) -> f64 {
        stats::quiet(&self.seconds) * 1e9 / self.ops_per_slice as f64
    }

    /// Mean time inside the client's submit call (service boundaries).
    pub fn submit_ns_per_op(&self) -> f64 {
        self.submit_s * 1e9 / self.submits as f64
    }
}

/// Per slice, the fastest of the passes.
///
/// The reference box shares its host: for seconds at a time its
/// neighbours slow memory-bound work by up to half, so neither the
/// total nor the median of one timed phase repeats. Every pass does
/// identical work from the same seed, so slice *i* of each pass is the
/// same ops on the same state, and what differs between the passes is
/// the box. Taking each slice from the pass that ran it fastest keeps
/// every part of the phase in the result — a re-segmentation storm, a
/// slowdown as the tree grows or a periodic stall is there in every
/// pass — and drops what only one pass saw.
fn best_per_slice(passes: &[&[f64]]) -> Vec<f64> {
    let slices = passes.iter().map(|pass| pass.len()).min().unwrap_or(0);
    (0..slices)
        .map(|i| passes.iter().map(|pass| pass[i]).fold(f64::NAN, f64::min))
        .collect()
}

/// The inserts a pass made: how many, and every `stride`-th one, to be
/// re-read after recovery.
#[derive(Debug, Default)]
struct AckedInserts {
    stride: u64,
    count: u64,
    sample: Vec<(u64, u64)>,
}

impl AckedInserts {
    fn note(&mut self, ops: &[Op]) {
        for op in ops {
            if let Op::Insert { key, value, .. } = *op {
                if self.count.is_multiple_of(self.stride) {
                    self.sample.push((key, value));
                }
                self.count += 1;
            }
        }
    }
}

/// Generates and executes `chunks` chunks; `on_chunk` sees each chunk's
/// ops after they ran. Generation is outside the timed region.
pub fn run_slice(
    sut: &mut Sut,
    gen: &mut Generator<'_>,
    ops: &mut Vec<Op>,
    chunks: u64,
    traced: bool,
    mut on_chunk: impl FnMut(&[Op]),
) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..chunks {
        gen.fill(ops, CHUNK);
        sut.run(ops, &mut tally, traced);
        on_chunk(ops);
    }
    tally
}

/// What the durable boundary adds to a pass.
#[derive(Debug)]
struct Durability {
    checkpoint_s: Vec<f64>,
    recover_s: f64,
    replayed: u64,
    write_amp: f64,
    /// The store's I/O from set-up to the end of shutdown.
    io: IoCounts,
}

/// One pass: set-up, warm-up, the timed phase, the end-of-run checks.
#[derive(Debug)]
struct Pass {
    setup_s: f64,
    slices: Slices,
    stream_hash: u64,
    index_bytes_per_key: f64,
    attempted: u64,
    failed: u64,
    durability: Option<Durability>,
}

fn run_pass(w: &Workload, opts: &RunOpts, fixture: &Fixture, store_root: &Path) -> Pass {
    // Owned sorted pairs → ready to serve; making the pairs is not set-up.
    let pairs = fixture.pairs();
    let start = Instant::now();
    let mut sut = Sut::build(w.boundary, pairs, store_root);
    let setup_s = start.elapsed().as_secs_f64();

    let mut gen = Generator::new(fixture, opts.seed, w.mix, w.picker);
    let mut ops: Vec<Op> = Vec::with_capacity(CHUNK);
    let slice_chunks = opts.slice_chunks(w);
    let warm_chunks = (SLICES * slice_chunks / WARMUP_SHARE).max(1);

    let expected_inserts =
        (warm_chunks + SLICES * slice_chunks) * CHUNK as u64 * w.mix.insert / 100;
    let mut acked = AckedInserts {
        stride: (expected_inserts / RECOVERY_SAMPLES).max(1),
        ..AckedInserts::default()
    };
    let mut inserts_at_checkpoint = 0u64;

    let warm = run_slice(&mut sut, &mut gen, &mut ops, warm_chunks, false, |ops| {
        acked.note(ops);
    });

    let mut slices = Slices::default();
    let mut checkpoint_s = Vec::new();
    for slice in 1..=SLICES {
        slices.push(run_slice(
            &mut sut,
            &mut gen,
            &mut ops,
            slice_chunks,
            false,
            |ops| acked.note(ops),
        ));
        if slice < SLICES && slice % (SLICES / (CHECKPOINTS + 1)) == 0 {
            if let Some(seconds) = sut.checkpoint() {
                checkpoint_s.push(seconds);
                inserts_at_checkpoint = acked.count;
            }
        }
    }
    let live = gen.live();

    let mut attempted = warm.ops + slices.ops;
    let mut failed = warm.failed + slices.failed;
    let mut check = |ok: bool, what: &str| {
        attempted += 1;
        if !ok {
            failed += 1;
            eprintln!("{}: FAILED check: {what}", w.name);
        }
    };
    check(
        sut.len() as u64 == live,
        "len() equals the shadow's live count",
    );
    let index_bytes_per_key = sut.index_bytes() as f64 / sut.len() as f64;

    let durability = sut.shutdown_and_recover().map(|(recovered, _store)| {
        let replayed: usize = recovered.report.shards.iter().map(|s| s.replayed).sum();
        check(
            replayed as u64 == acked.count - inserts_at_checkpoint,
            "the replayed log tail is exactly the inserts after the last checkpoint",
        );
        check(
            recovered.index.len() as u64 == live,
            "recovered len() equals the shadow's live count",
        );
        check(
            recovered.report.skipped.is_empty(),
            "every shard directory recovered",
        );
        for &(key, value) in &acked.sample {
            check(
                recovered.index.get(&key) == Some(value),
                "an acknowledged insert is readable after recovery",
            );
        }
        let io = recovered.io_at_shutdown;
        Durability {
            checkpoint_s,
            recover_s: recovered.seconds,
            replayed: replayed as u64,
            write_amp: io.bytes_written as f64 / (16 * (acked.count + fixture.n())) as f64,
            io,
        }
    });
    Pass {
        setup_s,
        slices,
        stream_hash: gen.stream_hash(),
        index_bytes_per_key,
        attempted,
        failed,
        durability,
    }
}

/// `<kind>_ns_p50` or `_p99` (`p` is 50 or 99): the mean over the
/// slices of the best pass's percentile, if the workload has that op.
fn latency(passes: &[Pass], kind: Kind, p: u32) -> Option<Metric> {
    let per_slice: Vec<&[f64]> = passes
        .iter()
        .map(|pass| {
            let percentiles = if p == 50 {
                &pass.slices.p50
            } else {
                &pass.slices.p99
            };
            percentiles[kind as usize].as_slice()
        })
        .collect();
    let best: Vec<f64> = best_per_slice(&per_slice)
        .into_iter()
        .filter(|ns| ns.is_finite())
        .collect();
    (!best.is_empty()).then(|| Metric {
        name: format!("{}_ns_p{p}", kind.name()),
        value: best.iter().sum::<f64>() / best.len() as f64,
        unit: "ns",
        samples: Some(passes.iter().map(|p| p.slices.samples[kind as usize]).sum()),
    })
}

/// Runs `w` with tracing off and reports its end-to-end metrics.
pub fn measure(w: &Workload, opts: &RunOpts, store_root: &Path) -> Report {
    let fixture = Fixture::generate(opts.n, opts.seed);
    // A thread per pass: the index caches routing snapshots in
    // thread-locals, which would keep a finished pass's index alive
    // into the next.
    let passes: Vec<Pass> = (0..PASSES)
        .map(|_| {
            std::thread::scope(|scope| {
                let pass = scope.spawn(|| run_pass(w, opts, &fixture, store_root));
                pass.join().expect("a pass panicked")
            })
        })
        .collect();
    let last = passes.last().expect("PASSES > 0");

    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    attempted += 1;
    if passes.iter().any(|p| p.stream_hash != last.stream_hash) {
        failed += 1;
        eprintln!(
            "{}: FAILED check: every pass ran the same op stream",
            w.name
        );
    }

    // A checkpoint is part of the timed phase: a slice of its own.
    let timed: Vec<Vec<f64>> = passes
        .iter()
        .map(|pass| {
            let checkpoints = pass.durability.iter().flat_map(|d| &d.checkpoint_s);
            pass.slices
                .seconds
                .iter()
                .chain(checkpoints)
                .copied()
                .collect()
        })
        .collect();
    let best_s: f64 = best_per_slice(&timed.iter().map(Vec::as_slice).collect::<Vec<_>>())
        .iter()
        .sum();
    let all_s: f64 = timed.iter().flatten().sum();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();

    let mut declared = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("ops_per_s", last.slices.ops as f64 / best_s, "1/s"),
    ];
    declared.extend(latency(&passes, Kind::Get, 50));
    declared.push(Metric::new(
        "index_bytes_per_key",
        last.index_bytes_per_key,
        "B",
    ));
    declared.push(Metric::new("rss_mib", stats::peak_rss_mib(), "MiB"));

    // `get_ns_p99` is printed, not gated: with a window of commands in
    // flight it is a scheduling tail, and did not repeat (see README).
    let mut extras: Vec<Metric> = latency(&passes, Kind::Get, 99).into_iter().collect();
    for kind in [Kind::Insert, Kind::Remove, Kind::Range] {
        extras.extend(latency(&passes, kind, 50));
        extras.extend(latency(&passes, kind, 99));
    }
    let all_ops: u64 = passes.iter().map(|p| p.slices.ops).sum();
    extras.push(Metric::new(
        "ops_per_s_all_passes",
        all_ops as f64 / all_s,
        "1/s",
    ));
    extras.push(Metric::new("timed_s", all_s, "s"));
    extras.push(Metric::new("timed_ops", all_ops as f64, "count"));
    extras.push(Metric::new("passes", PASSES as f64, "count"));
    extras.push(Metric::new(
        "in_flight",
        in_flight(w.boundary) as f64,
        "count",
    ));

    if let Some(d) = &last.durability {
        let over_passes = |f: fn(&Durability) -> f64| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.durability.as_ref().map(f))
                .collect();
            stats::median(&values)
        };
        extras.push(Metric::new("recover_s", over_passes(|d| d.recover_s), "s"));
        extras.push(Metric::new(
            "checkpoint_s",
            over_passes(|d| stats::median(&d.checkpoint_s)),
            "s",
        ));
        extras.push(Metric::new("write_amp", d.write_amp, "ratio"));
        extras.push(Metric::new("replayed_ops", d.replayed as f64, "count"));
        extras.push(Metric::new("io_fsyncs", d.io.fsyncs as f64, "count"));
        extras.push(Metric::new("io_fsync_s", d.io.fsync_ns as f64 / 1e9, "s"));
        extras.push(Metric::new(
            "io_write_calls",
            d.io.write_calls as f64,
            "count",
        ));
        extras.push(Metric::new("io_write_s", d.io.write_ns as f64 / 1e9, "s"));
    }
    extras.push(Metric::new(
        "failed_ops_share",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    Report {
        declared,
        extras,
        attempted,
        failed,
        stream_hash: Some(last.stream_hash),
    }
}

/// Commands in flight at `boundary`: a direct call has one.
pub fn in_flight(boundary: Boundary) -> usize {
    match boundary {
        Boundary::Core | Boundary::Sharded(_) => 1,
        Boundary::Service(_) | Boundary::Durable(_) => WINDOW,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declared::{END_TO_END, PER_LAYER};

    /// Small enough for an unoptimised test build.
    const TINY: RunOpts = RunOpts {
        n: 50_000,
        seed: 42,
        seconds: 0.02,
    };

    fn store(test: &str) -> std::path::PathBuf {
        let parent = crate::out_dir().join("e2e-store");
        parent.join(format!("{}-{test}", std::process::id()))
    }

    #[test]
    fn every_workload_is_correct_and_emits_exactly_the_declared_metrics() {
        for w in &WORKLOADS {
            let report = measure(w, &TINY, &store(w.name));
            assert_eq!(report.failed, 0, "{}", w.name);
            assert!(report.attempted > SLICES * CHUNK as u64, "{}", w.name);
            let emitted: Vec<_> = report.declared.iter().map(|m| (&*m.name, m.unit)).collect();
            let declared: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(emitted, declared, "{}", w.name);
            assert!(
                report
                    .declared
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{}: {:?}",
                w.name,
                report.declared
            );
            assert!(!store(w.name).exists(), "{} left its store behind", w.name);
        }
    }

    #[test]
    fn each_slice_comes_from_the_pass_that_ran_it_fastest() {
        let passes: [&[f64]; 3] = [
            &[3.0, 1.0, f64::NAN],
            &[2.0, 5.0, f64::NAN],
            &[4.0, 2.0, 7.0],
        ];
        let best = best_per_slice(&passes);
        assert_eq!(best[..2], [2.0, 1.0]);
        assert_eq!(best[2], 7.0, "a pass that timed no such op is skipped");
        assert!(best_per_slice(&[&[f64::NAN]])[0].is_nan());
        assert!(best_per_slice(&[]).is_empty());
    }

    fn value(report: &Report, name: &str) -> f64 {
        let mut all = report.declared.iter().chain(&report.extras);
        all.find(|m| m.name == name).map(|m| m.value).expect(name)
    }

    #[test]
    fn count_derived_metrics_are_exact_functions_of_the_seed() {
        // Direct calls: one thread applies the ops in stream order.
        let w = workload("core_churn").expect("declared");
        let runs = [42, 42, 7].map(|seed| measure(w, &RunOpts { seed, ..TINY }, &store("-")));
        assert_eq!(runs[0].stream_hash, runs[1].stream_hash);
        assert_ne!(runs[0].stream_hash, runs[2].stream_hash);
        for name in ["index_bytes_per_key", "timed_ops"] {
            assert_eq!(
                value(&runs[0], name).to_bits(),
                value(&runs[1], name).to_bits(),
                "{name}"
            );
        }
        assert_eq!(runs[2].failed, 0);

        // Through the service, the op counts and the replayed tail are
        // exact; bytes are exact up to the order in which a lane applies
        // the writes of one coalesced batch, which moves a segment
        // boundary (and so a few snapshot bytes) now and then.
        let w = workload("durable_ingest").expect("declared");
        let (a, b) = (
            measure(w, &TINY, &store("exact-a")),
            measure(w, &TINY, &store("exact-b")),
        );
        assert_eq!(a.stream_hash, b.stream_hash);
        for name in ["replayed_ops", "timed_ops"] {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{name}"
            );
        }
        for name in ["index_bytes_per_key", "write_amp"] {
            let (a, b) = (value(&a, name), value(&b, name));
            assert!((a - b).abs() / a < 2e-3, "{name}: {a} vs {b}");
        }
    }

    #[test]
    fn the_traced_run_is_correct_and_emits_exactly_the_per_layer_metrics() {
        let w = workload("core_churn").expect("declared");
        let dir = store("traced");
        let trace_path = dir.join("trace.json");
        let report = crate::trace::measure(w, &TINY, &dir.join("store"), &trace_path);
        assert_eq!(report.failed, 0);
        let emitted: Vec<_> = report.declared.iter().map(|m| (&*m.name, m.unit)).collect();
        let declared: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, declared);
        assert!(report.declared.iter().all(|m| m.value.is_finite()));

        let spans = std::fs::read_to_string(&trace_path).expect("trace.json written");
        let spans = fiting_telemetry::json::Json::parse(&spans).expect("trace.json parses");
        let spans = spans.as_arr().expect("an array of spans");
        let named = |name: &str| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
                .count()
        };
        assert!(named("op") > 0 && named("storage.checkpoint") >= 1);
        // (Spans are process-wide, so tests running beside this one may add to them.)
        assert!(named("core.locate") > 0 && named("core.locate") == named("core.segment"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
