//! The traced run: the layer ladder and the per-layer metrics.
//!
//! The ladder drives one op stream — point gets, 100-rank scans, fresh
//! inserts, on the workload's key picker — against each boundary in
//! turn, from the same seed, so every boundary sees the same keys. A
//! layer's `*_self_ns` is its boundary's per-op time minus the boundary
//! below it. Around the ladder sit the probes that need no index
//! (`plr`, the snapshot codec, the queue, the ticket, the histogram),
//! the counters each layer already exports, and a replay of ⅛ of the
//! workload's own stream with spans on every other chunk, which gives
//! the tracing overhead and the residual between the ladder's
//! prediction and the workload as run.
//!
//! Every per-layer metric is measured in every traced run, whatever
//! the workload; the workload chooses the key picker and the replay.

use crate::counting_io::IoCounts;
use crate::declared::PER_LAYER;
use crate::gen::{Fixture, Generator, Kind, Mix, Op, CHUNK};
use crate::spans;
use crate::stats;
use crate::sut::{self, Boundary, Sut, Tally};
use crate::workloads::{run_slice, Metric, Report, RunOpts, Slices, Workload, PASSES, SLICES};
use fiting_index_service::{ticket, BoundedQueue};
use fiting_plr::{points_from_sorted_keys, ShrinkingCone};
use fiting_storage::{RetryPolicy, Wal, WalOp};
use fiting_telemetry::Histogram;
use fiting_tree::snapshot::{decode_tree, encode_tree};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The boundaries, bottom up; the same shard counts the workloads use.
const LADDER: [Boundary; 4] = [
    Boundary::Core,
    Boundary::Sharded(4),
    Boundary::Service(2),
    Boundary::Durable(2),
];
/// Slices per ladder phase; each phase reports its quiet slice.
const PHASE_SLICES: u64 = 8;
/// Chunks per slice of each ladder phase at `--seconds 15`.
const GET_CHUNKS: u64 = 12;
const RANGE_CHUNKS: u64 = 2;
const INSERT_CHUNKS: u64 = 6;
const REMOVE_CHUNKS: u64 = 2;
/// Calls of each index-free probe.
const PROBE_CALLS: u64 = 1_000_000;
const SYNC_ROUNDTRIPS: usize = 20_000;
const WAL_BATCH: u64 = 32;
const WAL_BATCHES: u64 = 2_048;

const fn only(kind: Kind) -> Mix {
    let mut mix = Mix {
        get: 0,
        insert: 0,
        remove: 0,
        range: 0,
    };
    match kind {
        Kind::Get => mix.get = 100,
        Kind::Insert => mix.insert = 100,
        Kind::Remove => mix.remove = 100,
        Kind::Range => mix.range = 100,
    }
    mix
}

/// Everything a traced run accumulates.
struct Trace<'a> {
    w: &'a Workload,
    opts: &'a RunOpts,
    fixture: &'a Fixture,
    metrics: BTreeMap<&'static str, f64>,
    /// Quiet ns per op: `[boundary][kind]`, NaN where not measured.
    rungs: [[f64; 4]; 4],
    /// Ops per ladder phase, per kind.
    phase_ops: [u64; 4],
    attempted: u64,
    failed: u64,
    /// The workload's own replay: ns per op untraced and traced.
    replay: Option<(f64, f64)>,
    ops: Vec<Op>,
}

impl<'a> Trace<'a> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn count(&mut self, tally: &Tally) {
        self.attempted += tally.ops;
        self.failed += tally.failed;
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("{}: FAILED check: {what}", self.w.name);
        }
    }

    /// Chunks per slice for a phase sized `at_15s` at `--seconds 15`.
    fn chunks(&self, at_15s: u64) -> u64 {
        ((at_15s as f64 * self.opts.seconds / 15.0).ceil() as u64).max(1)
    }

    fn generator(&self) -> Generator<'a> {
        Generator::new(self.fixture, self.opts.seed, only(Kind::Get), self.w.picker)
    }

    /// One ladder phase: [`PHASE_SLICES`] slices of one op kind.
    fn phase(
        &mut self,
        rung: usize,
        sut: &mut Sut,
        gen: &mut Generator<'_>,
        kind: Kind,
        chunks: u64,
    ) -> Slices {
        gen.set_mix(only(kind));
        let mut slices = Slices::default();
        for _ in 0..PHASE_SLICES {
            let tally = run_slice(sut, gen, &mut self.ops, chunks, false, |_| {});
            slices.push(tally);
        }
        self.attempted += slices.ops;
        self.failed += slices.failed;
        self.rungs[rung][kind as usize] = slices.quiet_ns_per_op();
        self.phase_ops[kind as usize] = slices.ops;
        slices
    }

    /// Gets, scans and inserts against `sut`: the rungs every boundary has.
    fn common_phases(&mut self, rung: usize, sut: &mut Sut, gen: &mut Generator<'_>) {
        self.phase(rung, sut, gen, Kind::Get, self.chunks(GET_CHUNKS));
        self.phase(rung, sut, gen, Kind::Range, self.chunks(RANGE_CHUNKS));
        self.phase(rung, sut, gen, Kind::Insert, self.chunks(INSERT_CHUNKS));
    }

    /// If `sut` is the workload's own boundary: ⅛ of its stream, spans
    /// on every other chunk, continuing the ladder's generator so the
    /// expected answers stay exact.
    /// Returns how many inserts the replay made.
    fn replay_if_own(&mut self, boundary: Boundary, sut: &mut Sut, gen: &mut Generator<'_>) -> u64 {
        if boundary != self.w.boundary {
            return 0;
        }
        gen.set_mix(self.w.mix);
        let chunks = (PASSES as u64 * SLICES * self.opts.slice_chunks(self.w) / 8).max(2);
        let (mut plain, mut traced) = (Tally::default(), Tally::default());
        for chunk in 0..chunks {
            gen.fill(&mut self.ops, CHUNK);
            if chunk % 2 == 0 {
                sut.run(&self.ops, &mut plain, false);
            } else {
                sut.run(&self.ops, &mut traced, true);
            }
        }
        self.count(&plain);
        self.count(&traced);
        self.replay = Some((plain.ns_per_op(), traced.ns_per_op()));
        (plain.by_kind[Kind::Insert as usize]) + traced.by_kind[Kind::Insert as usize]
    }

    fn plr(&mut self) {
        let keys: Vec<f64> = self.fixture.keys.iter().map(|&k| k as f64).collect();
        let points = points_from_sorted_keys(&keys);
        let start = Instant::now();
        let segments = black_box(ShrinkingCone::segment(black_box(&points), sut::ERROR));
        let elapsed = start.elapsed();
        let n = points.len() as f64;
        self.set("plr.segment_ns_per_key", elapsed.as_nanos() as f64 / n);
        self.set("plr.segments_per_mkey", segments.len() as f64 / n * 1e6);
    }

    fn core(&mut self, store_root: &Path) {
        let boundary = LADDER[0];
        let pairs = self.fixture.pairs();
        let start = Instant::now();
        let mut sut = Sut::build(boundary, pairs, store_root);
        let n = self.fixture.n() as f64;
        self.set(
            "core.build_ns_per_key",
            start.elapsed().as_nanos() as f64 / n,
        );

        let mut gen = self.generator();
        self.common_phases(0, &mut sut, &mut gen);
        self.phase(
            0,
            &mut sut,
            &mut gen,
            Kind::Remove,
            self.chunks(REMOVE_CHUNKS),
        );
        self.set("core.get_ns", self.rungs[0][Kind::Get as usize]);
        self.set("core.insert_ns", self.rungs[0][Kind::Insert as usize]);
        self.set("core.remove_ns", self.rungs[0][Kind::Remove as usize]);
        self.set("core.range100_ns", self.rungs[0][Kind::Range as usize]);
        let shape = match &sut {
            Sut::Core(tree) => tree.stats(),
            _ => unreachable!("LADDER[0] is the core boundary"),
        };
        self.replay_if_own(boundary, &mut sut, &mut gen);

        let Sut::Core(tree) = &sut else {
            unreachable!("LADDER[0] is the core boundary")
        };
        // Which half of a get: `get_traced` times the two phases itself.
        gen.set_mix(only(Kind::Get));
        gen.fill(&mut self.ops, 16 * CHUNK);
        let (mut locate, mut segment) = (0u64, 0u64);
        for op in &self.ops {
            if let Op::Get { key, expect } = *op {
                let (found, phases) = tree.get_traced(&key);
                locate += phases.tree_nanos;
                segment += phases.segment_nanos;
                self.attempted += 1;
                self.failed += u64::from(found.copied() != expect);
            }
        }
        let gets = self.ops.len() as f64;
        self.set("core.locate_ns", locate as f64 / gets);
        self.set("core.segment_ns", segment as f64 / gets);

        let inserts = self.phase_ops[Kind::Insert as usize] as f64;
        self.set("core.segments", shape.segment_count as f64);
        self.set(
            "core.resegment_share",
            shape.directory_splices as f64 / inserts,
        );
        self.set(
            "core.entries_per_splice",
            shape.directory_splice_entries as f64 / shape.directory_splices.max(1) as f64,
        );
        self.set(
            "core.buffered_share",
            shape.buffered_entries as f64 / shape.len as f64,
        );

        let len = tree.len() as f64;
        let start = Instant::now();
        let image = encode_tree(tree);
        self.set(
            "core.snapshot_encode_ns_per_key",
            start.elapsed().as_nanos() as f64 / len,
        );
        let start = Instant::now();
        let decoded = decode_tree::<u64, u64>(&image);
        self.set(
            "core.snapshot_decode_ns_per_key",
            start.elapsed().as_nanos() as f64 / len,
        );
        self.check(
            decoded.is_ok_and(|t| t.len() == tree.len()),
            "the snapshot image decodes to a tree of the same length",
        );
    }

    fn sharded(&mut self, store_root: &Path) {
        let boundary = LADDER[1];
        let pairs = self.fixture.pairs();
        let start = Instant::now();
        let mut sut = Sut::build(boundary, pairs, store_root);
        self.set(
            "sharded.bulk_load_ns_per_key",
            start.elapsed().as_nanos() as f64 / self.fixture.n() as f64,
        );
        let mut gen = self.generator();
        self.common_phases(1, &mut sut, &mut gen);
        for (name, kind) in [
            ("sharded.get_self_ns", Kind::Get),
            ("sharded.insert_self_ns", Kind::Insert),
            ("sharded.range100_self_ns", Kind::Range),
        ] {
            self.set(
                name,
                self.rungs[1][kind as usize] - self.rungs[0][kind as usize],
            );
        }
        self.replay_if_own(boundary, &mut sut, &mut gen);

        // Two threads on one index: a reader of loaded keys (which the
        // writer never touches, so its answers stay exact) beside a
        // writer that continues the ladder's insert stream. Noisy by
        // measurement (see README), so per-layer only.
        let Sut::Sharded(index) = &sut else {
            unreachable!("LADDER[1] is the sharded boundary")
        };
        let before = index.routing_stats();
        let chunks = self.chunks(GET_CHUNKS) * 2;
        let mut reader_gen = self.generator();
        gen.set_mix(only(Kind::Insert));
        let start = Instant::now();
        let (reads, writes) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut sut = Sut::Sharded(index.clone());
                run_slice(
                    &mut sut,
                    &mut reader_gen,
                    &mut Vec::new(),
                    chunks,
                    false,
                    |_| {},
                )
            });
            let mut sut = Sut::Sharded(index.clone());
            let writes = run_slice(&mut sut, &mut gen, &mut self.ops, chunks / 4, false, |_| {});
            (reader.join().expect("reader thread"), writes)
        });
        let wall = start.elapsed();
        self.count(&reads);
        self.count(&writes);
        let after = index.routing_stats();
        self.set(
            "sharded.contended_read_share",
            (after.contended_reads - before.contended_reads) as f64 / reads.ops as f64,
        );
        self.set(
            "sharded.routing_refreshes",
            (after.refreshes - before.refreshes) as f64,
        );
        self.set(
            "sharded.publishes",
            (after.publishes - before.publishes) as f64,
        );
        self.set(
            "sharded.mt_ops_per_s",
            (reads.ops + writes.ops) as f64 / wall.as_secs_f64(),
        );
    }

    fn service(&mut self, store_root: &Path) {
        let boundary = LADDER[2];
        let mut sut = Sut::build(boundary, self.fixture.pairs(), store_root);
        let mut gen = self.generator();

        let cpu_before = stats::cpu_seconds();
        let gets = self.phase(2, &mut sut, &mut gen, Kind::Get, self.chunks(GET_CHUNKS));
        // The generator's own CPU time is in here too: it runs between
        // the chunks. It is the same code at every commit.
        let cpu = stats::cpu_seconds() - cpu_before;
        self.set("service.cpu_ns_per_op", cpu * 1e9 / gets.ops as f64);
        self.set("service.submit_ns", gets.submit_ns_per_op());
        self.set(
            "service.get_self_ns",
            self.rungs[2][Kind::Get as usize] - self.rungs[1][Kind::Get as usize],
        );
        self.phase(
            2,
            &mut sut,
            &mut gen,
            Kind::Range,
            self.chunks(RANGE_CHUNKS),
        );
        self.phase(
            2,
            &mut sut,
            &mut gen,
            Kind::Insert,
            self.chunks(INSERT_CHUNKS),
        );
        self.replay_if_own(boundary, &mut sut, &mut gen);

        let Sut::Service(running) = &sut else {
            unreachable!("LADDER[2] is the service boundary")
        };
        // One command outstanding: the wake-up path of the box, not of
        // the program — bimodal (3 µs or 47 µs a hop), so never gated.
        gen.set_mix(only(Kind::Get));
        gen.fill(&mut self.ops, SYNC_ROUNDTRIPS);
        let client = running.service().client();
        let mut roundtrips = Vec::with_capacity(SYNC_ROUNDTRIPS);
        for op in &self.ops {
            if let Op::Get { key, expect } = *op {
                let start = Instant::now();
                let answer = client.get(key).wait();
                roundtrips.push(start.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                self.attempted += 1;
                self.failed += u64::from(answer != Ok(expect));
            }
        }
        self.set(
            "service.sync_roundtrip_ns_p50",
            stats::percentile(&mut roundtrips, 50.0),
        );

        // What the service already exports, read without touching it.
        let exported = running.service().metrics();
        for (name, histogram, p) in [
            (
                "service.get.queue_wait_ns_p50",
                "service.get.queue_wait",
                50.0,
            ),
            (
                "service.get.queue_wait_ns_p99",
                "service.get.queue_wait",
                99.0,
            ),
            ("service.get.execute_ns_p50", "service.get.execute", 50.0),
            ("service.get.execute_ns_p99", "service.get.execute", 99.0),
            (
                "service.insert.queue_wait_ns_p50",
                "service.insert.queue_wait",
                50.0,
            ),
            (
                "service.insert.queue_wait_ns_p99",
                "service.insert.queue_wait",
                99.0,
            ),
            (
                "service.insert.execute_ns_p50",
                "service.insert.execute",
                50.0,
            ),
            (
                "service.insert.execute_ns_p99",
                "service.insert.execute",
                99.0,
            ),
        ] {
            let histogram = exported.histogram(histogram);
            self.set(name, histogram.map_or(0.0, |h| h.percentile(p) as f64));
        }
        let stats = running.service().stats();
        let lanes = |f: fn(&fiting_index_service::LaneServiceStats) -> u64| {
            stats.lanes.iter().map(f).sum::<u64>() as f64
        };
        self.set("service.mean_batch_len", stats.mean_batch_len());
        self.set("service.read_runs", lanes(|l| l.read_runs));
        self.set("service.write_runs", lanes(|l| l.write_runs));
        self.set("service.coalesced_writes", lanes(|l| l.coalesced_writes));
    }

    fn durable(&mut self, store_root: &Path) {
        let boundary = LADDER[3];
        let mut sut = Sut::build(boundary, self.fixture.pairs(), store_root);
        let built = sut.io_counts();
        let mut gen = self.generator();

        // The insert phase is split around a checkpoint, so the log has
        // a tail to replay and the snapshot has inserts to hold.
        self.phase(3, &mut sut, &mut gen, Kind::Get, self.chunks(GET_CHUNKS));
        self.phase(
            3,
            &mut sut,
            &mut gen,
            Kind::Range,
            self.chunks(RANGE_CHUNKS),
        );
        let half = self.chunks(INSERT_CHUNKS).div_ceil(2);
        let first = self.phase(3, &mut sut, &mut gen, Kind::Insert, half);
        let checkpoint_s = sut.checkpoint().expect("the durable boundary checkpoints");
        let second = self.phase(3, &mut sut, &mut gen, Kind::Insert, half);
        let insert_ns = (first.quiet_ns_per_op() + second.quiet_ns_per_op()) / 2.0;
        self.rungs[3][Kind::Insert as usize] = insert_ns;
        self.phase_ops[Kind::Insert as usize] = first.ops + second.ops;
        let replay_inserts = self.replay_if_own(boundary, &mut sut, &mut gen);
        let tail_inserts = second.ops + replay_inserts;

        let (g, i) = (
            self.phase_ops[Kind::Get as usize] as f64,
            (first.ops + second.ops) as f64,
        );
        let at = |rung: usize, kind: Kind| self.rungs[rung][kind as usize];
        self.set(
            "storage.self_ns_per_op",
            ((at(3, Kind::Get) - at(2, Kind::Get)) * g
                + (at(3, Kind::Insert) - at(2, Kind::Insert)) * i)
                / (g + i),
        );
        self.set("storage.checkpoint_s", checkpoint_s);

        let live = gen.live();
        let inserts_total = first.ops + tail_inserts;
        let (recovered, store) = sut
            .shutdown_and_recover()
            .expect("the durable boundary recovers");
        let io = recovered.io_at_shutdown;
        self.storage_counters(&io);
        let shards = &recovered.report.shards;
        let replayed: usize = shards.iter().map(|s| s.replayed).sum();
        // Bytes written are the initial snapshot, the checkpoint's (the
        // one recovery read back) and the log.
        let checkpoint_bytes = shards.iter().map(|s| s.snapshot_bytes).sum::<usize>() as u64;
        let log_bytes = io.bytes_written - built.bytes_written - checkpoint_bytes;
        self.set(
            "storage.wal_bytes_per_insert",
            log_bytes as f64 / inserts_total as f64,
        );
        self.set(
            "storage.write_amp",
            io.bytes_written as f64 / (16 * (inserts_total + self.fixture.n())) as f64,
        );
        self.set("storage.recover_s", recovered.seconds);
        self.set("storage.replayed_ops", replayed as f64);
        self.set("storage.snapshot_bytes", checkpoint_bytes as f64);
        self.check(
            replayed as u64 == tail_inserts,
            "the replayed log tail is exactly the inserts after the checkpoint",
        );
        self.check(
            recovered.index.len() as u64 == live,
            "recovered len() equals the shadow's live count",
        );
        drop(recovered);

        // The log alone: append and group-commit through the same I/O.
        let path = store.root.join("probe.wal");
        let mut wal = Wal::<u64, u64>::create(
            store.io.as_ref(),
            &path,
            sut::FSYNC,
            Arc::new(RetryPolicy::default()),
            Arc::new(AtomicU64::new(0)),
        )
        .expect("create the probe log");
        let start = Instant::now();
        for batch in 0..WAL_BATCHES {
            for record in 0..WAL_BATCH {
                let key = batch * WAL_BATCH + record;
                wal.append(&WalOp::Insert(key, key));
            }
            wal.commit().expect("commit the probe log");
        }
        self.set(
            "storage.wal_append_commit_ns",
            start.elapsed().as_nanos() as f64 / (WAL_BATCHES * WAL_BATCH) as f64,
        );
    }

    fn storage_counters(&mut self, io: &IoCounts) {
        self.set("storage.write_calls", io.write_calls as f64);
        self.set("storage.bytes_written", io.bytes_written as f64);
        self.set("storage.fsyncs", io.fsyncs as f64);
        self.set("storage.dir_syncs", io.dir_syncs as f64);
        self.set("storage.renames", io.renames as f64);
        self.set("storage.write_ns_total", io.write_ns as f64);
        self.set("storage.fsync_ns_total", io.fsync_ns as f64);
    }

    /// The probes that need no index: each layer's smallest moving part.
    fn probes(&mut self) {
        let per_call = |elapsed: Duration| elapsed.as_nanos() as f64 / PROBE_CALLS as f64;

        let queue = BoundedQueue::new(1_024);
        let start = Instant::now();
        for i in 0..PROBE_CALLS {
            queue.push(black_box(i)).expect("the queue is open");
            black_box(queue.pop_batch(256, Duration::ZERO));
        }
        self.set("service.queue_push_pop_ns", per_call(start.elapsed()));

        let start = Instant::now();
        for i in 0..PROBE_CALLS {
            let (waiter, completer) = ticket::<u64>();
            completer.complete(black_box(i));
            black_box(waiter.wait()).expect("completed");
        }
        self.set("service.ticket_roundtrip_ns", per_call(start.elapsed()));

        let histogram = Histogram::new();
        let start = Instant::now();
        for i in 0..PROBE_CALLS {
            histogram.record(black_box(i * 37));
        }
        self.set("telemetry.record_ns", per_call(start.elapsed()));
        black_box(histogram.snapshot().count());
    }

    /// The ladder's prediction for the workload — its mix over its own
    /// boundary's rungs — against the workload's replay as run.
    fn residual(&mut self) {
        let (plain, traced) = self.replay.expect("one rung is the workload's own");
        let rung = LADDER
            .iter()
            .position(|&b| b == self.w.boundary)
            .expect("every workload's boundary is on the ladder");
        let mix = self.w.mix;
        let predicted: f64 = [
            (mix.get, Kind::Get),
            (mix.insert, Kind::Insert),
            (mix.remove, Kind::Remove),
            (mix.range, Kind::Range),
        ]
        .into_iter()
        .filter(|&(share, _)| share > 0)
        .map(|(share, kind)| share as f64 / 100.0 * self.rungs[rung][kind as usize])
        .sum();
        self.set("trace.overhead_share", traced / plain - 1.0);
        self.set("trace.ladder_residual_share", (plain - predicted) / plain);
    }
}

/// Runs the traced run for `w`; writes the spans to `trace_path`.
pub fn measure(w: &Workload, opts: &RunOpts, store_root: &Path, trace_path: &Path) -> Report {
    spans::enable();
    let fixture = Fixture::generate(opts.n, opts.seed);
    let mut trace = Trace {
        w,
        opts,
        fixture: &fixture,
        metrics: BTreeMap::new(),
        rungs: [[f64::NAN; 4]; 4],
        phase_ops: [0; 4],
        attempted: 0,
        failed: 0,
        replay: None,
        ops: Vec::with_capacity(CHUNK),
    };
    trace.plr();
    trace.core(store_root);
    trace.sharded(store_root);
    trace.service(store_root);
    trace.durable(store_root);
    trace.probes();
    trace.residual();

    let recorded = spans::take();
    if let Err(e) = spans::write_json(trace_path, &recorded) {
        eprintln!("{}: could not write {}: {e}", w.name, trace_path.display());
        trace.failed += 1;
    }

    let declared = PER_LAYER
        .iter()
        .map(|m| {
            let value = trace.metrics.remove(m.name);
            Metric::new(
                m.name,
                value.expect("every per-layer metric is measured"),
                m.unit,
            )
        })
        .collect();
    assert!(trace.metrics.is_empty(), "undeclared: {:?}", trace.metrics);

    let mut extras = Vec::new();
    for (rung, boundary) in LADDER.iter().enumerate() {
        for kind in crate::gen::KINDS {
            let ns = trace.rungs[rung][kind as usize];
            if ns.is_finite() {
                let name = format!("ladder.{}.{}_ns", boundary.layer(), kind.name());
                extras.push(Metric::new(name, ns, "ns"));
            }
        }
    }
    extras.push(Metric::new("trace.spans", recorded.len() as f64, "count"));
    Report {
        declared,
        extras,
        attempted: trace.attempted,
        failed: trace.failed,
        stream_hash: None,
    }
}
