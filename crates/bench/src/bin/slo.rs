//! **Open-loop SLO harness**: tail latency of the command-pipeline
//! service as a function of *offered* arrival rate, recorded as
//! `BENCH_latency.json` so every PR carries a comparable
//! throughput-vs-tail curve and an explicit overload knee.
//!
//! # Why open-loop
//!
//! A closed-loop driver (submit, wait, submit …) self-throttles the
//! moment the service slows down: the very stalls the measurement
//! should expose *reduce the offered load*, and the recorded
//! distribution silently omits every request that would have been sent
//! during a stall. That is **coordinated omission**. This harness
//! instead fixes an arrival schedule up front — request *j* is *due*
//! at `j / rate` seconds — and measures every request's latency from
//! its **intended send time**, not from whenever the generator got
//! around to it. A generator running late therefore charges its lag to
//! the requests it delayed, exactly as a real client behind a queue
//! would experience it.
//!
//! Submission is [`Client::try_submit`]: when a lane queue is full the
//! command comes back [`Busy`](TryPushError::Busy) and is counted as
//! shed load — the backpressure signal — rather than blocking the
//! generator (which would re-introduce coordination).
//!
//! # Modes
//!
//! * `slo` — calibrates a closed-loop saturation estimate, then sweeps
//!   offered rate from deep sub-saturation past saturation (fractions
//!   of the calibrated rate up to 1.5×), a fresh preloaded service per
//!   point, writing `BENCH_latency.json` (override with `--out`):
//!   per-rate achieved throughput, p50/p90/p99/p999/max end-to-end
//!   latency, Busy shed counts, the service's own queue-wait/execute
//!   p99 split (from [`IndexService::metrics`]), and the **knee** —
//!   the first offered rate where the service visibly stops keeping up
//!   (sheds Busy or achieves < 95 % of offered).
//! * `slo --smoke` — the CI gate, seconds-scale. Validates the
//!   committed `BENCH_latency.json` (schema, non-empty curve, knee
//!   present and consistent), then re-calibrates on *this* machine and
//!   runs one short open-loop window at 25 % of the local saturation
//!   estimate, asserting the sub-saturation SLO: Busy sheds ≤ 0.5 % of
//!   the schedule, achieved ≥ 85 % of offered, and p99 under an intentionally
//!   generous 50 ms bound (sub-saturation p99 is queue-round-trip
//!   scale — tens of microseconds — so only a real pathology trips
//!   this on a noisy runner). Does not rewrite the results file.
//!
//! Env knobs: `FITING_N` (preloaded rows) and `FITING_SLO_SECS`
//! (seconds per rate point). The fixture has [`SHARDS`] shards, and
//! one generator thread runs per available core, up to 4.
//!
//! [`Client::try_submit`]: fiting_index_service::Client::try_submit
//! [`IndexService::metrics`]: fiting_index_service::IndexService::metrics

use fiting_bench::{env_usize, print_table};
use fiting_index_api::ShardedIndex;
use fiting_index_service::{Command, Completer, IndexService, ServiceConfig, TryPushError};
use fiting_telemetry::json::Json;
use fiting_telemetry::Histogram;
use fiting_tree::{FitingTree, FitingTreeBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload mix: one insert per `WRITE_EVERY` requests, the rest point
/// lookups — read-mostly, the shape the paper's service experiments
/// use.
const WRITE_EVERY: u64 = 10;

/// Shards of the preloaded fixture; the service runs one lane per
/// shard.
const SHARDS: usize = 4;

/// Unique odd key for global op number `j`, spread uniformly over the
/// loaded (even-key) range so writes hit every lane.
fn write_key(j: u64, key_span: u64) -> u64 {
    (j.wrapping_mul(0x9e37_79b9_7f4a_7c15) % key_span) * 2 + 1
}

/// Existing (even) key for op `j` — a different multiplier than
/// [`write_key`] so read and write streams decorrelate.
fn read_key(j: u64, key_span: u64) -> u64 {
    (j.wrapping_mul(0xd1b5_4a32_d192_ed03) % key_span) * 2
}

fn load(n: usize) -> ShardedIndex<u64, u64, FitingTree<u64, u64>> {
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 2, k)).collect();
    ShardedIndex::bulk_load(&FitingTreeBuilder::new(128), SHARDS, pairs)
        .expect("bench data is strictly increasing")
}

struct Config {
    n: usize,
    /// Open-loop generator threads (each owns a stride of the arrival
    /// schedule).
    gens: usize,
    /// Measured seconds per rate point.
    secs: f64,
    /// Closed-loop calibration: threads × pipelined ops per thread.
    calib_threads: usize,
    calib_ops: usize,
}

/// One measured point of the rate sweep.
struct RatePoint {
    offered: f64,
    achieved: f64,
    submitted: u64,
    completed: u64,
    busy: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    p999: u64,
    max: u64,
    mean: f64,
    /// The service's own split of where sub-knee latency goes
    /// (`service.get.queue_wait` / `service.get.execute` p99), pulled
    /// from [`IndexService::metrics`] after the window — 0 when the
    /// window completed no gets.
    ///
    /// [`IndexService::metrics`]: fiting_index_service::IndexService::metrics
    queue_wait_p99: u64,
    execute_p99: u64,
}

impl RatePoint {
    /// Fraction of the schedule shed as `Busy` — the knee test uses a
    /// fraction, not a raw count, so a one-off scheduling hiccup on a
    /// loaded runner can't masquerade as overload.
    fn shed_fraction(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.busy as f64 / self.submitted as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("offered_per_sec", Json::Num(self.offered))
            .with("achieved_per_sec", Json::Num(self.achieved))
            .with("submitted", Json::Num(self.submitted as f64))
            .with("completed", Json::Num(self.completed as f64))
            .with("busy", Json::Num(self.busy as f64))
            .with("p50_ns", Json::Num(self.p50 as f64))
            .with("p90_ns", Json::Num(self.p90 as f64))
            .with("p99_ns", Json::Num(self.p99 as f64))
            .with("p999_ns", Json::Num(self.p999 as f64))
            .with("max_ns", Json::Num(self.max as f64))
            .with("mean_ns", Json::Num(self.mean))
            .with("queue_wait_p99_ns", Json::Num(self.queue_wait_p99 as f64))
            .with("execute_p99_ns", Json::Num(self.execute_p99 as f64))
    }
}

/// Closed-loop saturation estimate: `threads` clients submit pipelined
/// commands as fast as the queues accept them (blocking `submit`, so
/// backpressure — not the generator — sets the pace) and wait for all
/// tickets at the end. The resulting ops/sec anchors the open-loop
/// sweep's rate axis; it is an *estimate*, deliberately re-measured on
/// every machine rather than recorded.
fn closed_loop_calibration(cfg: &Config) -> f64 {
    let service = IndexService::start(load(cfg.n), ServiceConfig::default());
    let span = cfg.n as u64;
    let ops = cfg.calib_ops;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.calib_threads {
            let client = service.client();
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(ops);
                for i in 0..ops {
                    let j = (t * ops + i) as u64;
                    if j.is_multiple_of(WRITE_EVERY) {
                        tickets.push(client.insert(write_key(j, span), j));
                    } else {
                        tickets.push(client.get(read_key(j, span)));
                    }
                }
                for ticket in tickets {
                    ticket.wait().expect("service is running");
                }
            });
        }
    });
    let rate = (cfg.calib_threads * ops) as f64 / start.elapsed().as_secs_f64();
    let _ = service.shutdown();
    rate
}

/// Sleeps until `base + intended`. Never spins: on a small machine a
/// spinning generator steals the very cores the lane workers need,
/// manufacturing the queueing delay it is trying to measure. Oversleep
/// makes the *send* late, not the measurement — latency is charged
/// from the intended time regardless — and a generator that falls
/// behind schedule finds subsequent due times already in the past and
/// catches up in a burst, preserving the offered rate.
fn wait_until(base: Instant, intended: Duration) {
    let now = base.elapsed();
    if now < intended {
        std::thread::sleep(intended - now);
    }
}

/// One open-loop window at `rate` requests/sec against a fresh
/// preloaded service.
///
/// The arrival schedule is fixed before the window starts: request `j`
/// is due at `j / rate`. Generator thread `t` owns requests
/// `j ≡ t (mod gens)`, waits out each request's due time, and
/// `try_submit`s it; a `Busy` rejection is counted and the request
/// shed. Every accepted request's completer records, at ticket
/// resolution, the elapsed time since the request's *intended* send
/// time — so generator lag and queue wait both land in the recorded
/// latency (no coordinated omission).
fn open_loop(cfg: &Config, rate: f64, secs: f64) -> RatePoint {
    let service = IndexService::start(load(cfg.n), ServiceConfig::default());
    let span = cfg.n as u64;
    let total = (rate * secs) as u64;
    let ns_per_op = 1e9 / rate;

    let hist = Arc::new(Histogram::new());
    let completed = Arc::new(AtomicU64::new(0));
    let resolved = Arc::new(AtomicU64::new(0));
    let busy_total = AtomicU64::new(0);

    let base = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.gens {
            let client = service.client();
            let hist = Arc::clone(&hist);
            let completed = Arc::clone(&completed);
            let resolved = Arc::clone(&resolved);
            let busy_total = &busy_total;
            scope.spawn(move || {
                let mut busy = 0u64;
                let mut j = t as u64;
                while j < total {
                    let intended = Duration::from_nanos((j as f64 * ns_per_op) as u64);
                    wait_until(base, intended);
                    let hist = Arc::clone(&hist);
                    let completed = Arc::clone(&completed);
                    let resolved = Arc::clone(&resolved);
                    // Latency is measured from the *intended* send
                    // time at ticket resolution; a shed or canceled
                    // request still counts as resolved so the drain
                    // wait below terminates.
                    let done = Completer::<Option<u64>>::from_fn(move |result| {
                        if result.is_ok() {
                            hist.record_duration(base.elapsed().saturating_sub(intended));
                            // ordering: Relaxed — monotonic progress
                            // counters read only after the generators
                            // and drain wait join.
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        // ordering: Relaxed — see above.
                        resolved.fetch_add(1, Ordering::Relaxed);
                    });
                    let cmd = if j.is_multiple_of(WRITE_EVERY) {
                        Command::Insert {
                            key: write_key(j, span),
                            value: j,
                            done,
                        }
                    } else {
                        Command::Get {
                            key: read_key(j, span),
                            done,
                        }
                    };
                    match client.try_submit(cmd) {
                        Ok(()) => {}
                        // Dropping the handed-back command resolves its
                        // completer Canceled (counted, not timed).
                        Err(TryPushError::Busy(_cmd)) => busy += 1,
                        Err(TryPushError::Closed(_cmd)) => break,
                    }
                    j += cfg.gens as u64;
                }
                // ordering: Relaxed — summed after the scope joins.
                busy_total.fetch_add(busy, Ordering::Relaxed);
            });
        }
    });

    // Drain: every submitted request resolves (Done or Canceled);
    // bound the wait so a wedged service fails loudly instead of
    // hanging the bench.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    // ordering: Relaxed — the generator scope has joined; these loads
    // only poll monotonic counters for quiescence.
    while resolved.load(Ordering::Relaxed) < total {
        assert!(
            Instant::now() < drain_deadline,
            "service failed to drain: {} of {total} resolved",
            resolved.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let window = base.elapsed().as_secs_f64();

    let metrics = service.metrics();
    let snap = hist.snapshot();
    // ordering: Relaxed — all writers joined above.
    let completed = completed.load(Ordering::Relaxed);
    let point = RatePoint {
        offered: rate,
        achieved: completed as f64 / window,
        submitted: total,
        completed,
        busy: busy_total.load(Ordering::Relaxed),
        p50: snap.percentile(50.0),
        p90: snap.percentile(90.0),
        p99: snap.percentile(99.0),
        p999: snap.percentile(99.9),
        max: snap.max(),
        mean: snap.mean(),
        queue_wait_p99: metrics
            .histogram("service.get.queue_wait")
            .map_or(0, |h| h.percentile(99.0)),
        execute_p99: metrics
            .histogram("service.get.execute")
            .map_or(0, |h| h.percentile(99.0)),
    };
    let _ = service.shutdown();
    point
}

/// The overload knee: the first swept rate where the service visibly
/// stops keeping up — it sheds more than 1 % of the schedule as `Busy`
/// or achieves less than 95 % of offered.
fn knee_of(points: &[RatePoint]) -> Option<usize> {
    points
        .iter()
        .position(|p| p.shed_fraction() > 0.01 || p.achieved < 0.95 * p.offered)
}

fn sweep_doc(cfg: &Config, calibrated: f64, points: &[RatePoint]) -> Json {
    let knee = knee_of(points);
    let mut doc = Json::obj()
        .with("schema", Json::Num(1.0))
        .with("bench", Json::Str("slo".into()))
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
        .with("shards", Json::Num(SHARDS as f64))
        .with("generators", Json::Num(cfg.gens as f64))
        .with("secs_per_rate", Json::Num(cfg.secs))
        .with("write_every", Json::Num(WRITE_EVERY as f64))
        .with("calibrated_closed_loop_per_sec", Json::Num(calibrated))
        .with(
            "note",
            Json::Str(
                "open-loop sweep; latency measured from each request's intended send \
                 time on a fixed arrival schedule (coordinated-omission-safe); Busy \
                 rejections are shed, not retried; knee = first offered rate where \
                 more than 1% of the schedule is shed or achieved < 95% of offered"
                    .into(),
            ),
        )
        .with(
            "curves",
            Json::Arr(points.iter().map(RatePoint::to_json).collect()),
        );
    match knee {
        Some(i) => doc.set(
            "knee",
            Json::obj()
                .with("offered_per_sec", Json::Num(points[i].offered))
                .with("achieved_per_sec", Json::Num(points[i].achieved))
                .with("busy", Json::Num(points[i].busy as f64))
                .with("p99_ns", Json::Num(points[i].p99 as f64)),
        ),
        None => doc.set("knee", Json::Null),
    };
    doc
}

fn print_points(points: &[RatePoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.offered),
                format!("{:.0}", p.achieved),
                format!("{}", p.busy),
                format!("{:.1}", p.p50 as f64 / 1e3),
                format!("{:.1}", p.p99 as f64 / 1e3),
                format!("{:.1}", p.p999 as f64 / 1e3),
                format!("{:.1}", p.queue_wait_p99 as f64 / 1e3),
                format!("{:.1}", p.execute_p99 as f64 / 1e3),
            ]
        })
        .collect();
    print_table(
        "open-loop rate sweep",
        &[
            "offered/s",
            "achieved/s",
            "busy",
            "p50 µs",
            "p99 µs",
            "p999 µs",
            "qwait p99 µs",
            "exec p99 µs",
        ],
        &rows,
    );
}

/// Structural validation of a committed `BENCH_latency.json` — the
/// half of the smoke gate that catches a malformed or truncated
/// recording without re-measuring anything.
fn validate_recording(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path} is malformed JSON: {e}"))?;
    for required in ["schema", "bench", "n", "calibrated_closed_loop_per_sec"] {
        if doc.get(required).is_none() {
            return Err(format!("{path} is missing required field {required:?}"));
        }
    }
    let curves = doc
        .get("curves")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path} has no \"curves\" array"))?;
    if curves.is_empty() {
        return Err(format!("{path} has an empty rate sweep"));
    }
    for (i, row) in curves.iter().enumerate() {
        for field in [
            "offered_per_sec",
            "achieved_per_sec",
            "busy",
            "p50_ns",
            "p99_ns",
            "p999_ns",
        ] {
            if row.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("{path}: curve row {i} is missing {field:?}"));
            }
        }
    }
    let knee = doc
        .get("knee")
        .ok_or_else(|| format!("{path} has no \"knee\" field"))?;
    let knee_rate = knee
        .get("offered_per_sec")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: recorded sweep found no overload knee"))?;
    // The knee definition implies at most marginal (≤ 1 %) shedding
    // strictly below it.
    for row in curves {
        let offered = row.get("offered_per_sec").and_then(Json::as_f64);
        let busy = row.get("busy").and_then(Json::as_f64);
        let submitted = row.get("submitted").and_then(Json::as_f64);
        if let (Some(o), Some(b), Some(s)) = (offered, busy, submitted) {
            if o < knee_rate && s > 0.0 && b / s > 0.01 {
                return Err(format!(
                    "{path}: rate {o:.0}/s below the knee ({knee_rate:.0}/s) shed \
                     {:.1}% of its schedule",
                    100.0 * b / s
                ));
            }
        }
    }
    Ok(())
}

/// The CI gate: validate the committed recording, then hold a short
/// sub-saturation open-loop window to the SLO on *this* machine.
fn smoke_gate(cfg: &Config, recording_path: &str) -> i32 {
    if let Err(e) = validate_recording(recording_path) {
        eprintln!("smoke: {e}");
        return 1;
    }
    println!("smoke: {recording_path} recording is well-formed");

    let calibrated = closed_loop_calibration(cfg);
    let rate = calibrated * 0.25;
    println!(
        "smoke: closed-loop calibration {calibrated:.0} ops/s; \
         holding {rate:.0} ops/s (25%) for {:.1}s",
        cfg.secs
    );
    let p = open_loop(cfg, rate, cfg.secs);
    print_points(std::slice::from_ref(&p));

    let mut failures = 0;
    if p.shed_fraction() > 0.005 {
        eprintln!(
            "smoke FAIL: {} Busy rejections ({:.2}% of schedule) at 25% of \
             saturation (bound: 0.5%)",
            p.busy,
            100.0 * p.shed_fraction()
        );
        failures += 1;
    }
    if p.achieved < 0.85 * p.offered {
        eprintln!(
            "smoke FAIL: achieved {:.0}/s is below 85% of offered {:.0}/s",
            p.achieved, p.offered
        );
        failures += 1;
    }
    const P99_BOUND_NS: u64 = 50_000_000;
    if p.p99 > P99_BOUND_NS {
        eprintln!(
            "smoke FAIL: sub-saturation p99 {:.2} ms exceeds the {} ms bound",
            p.p99 as f64 / 1e6,
            P99_BOUND_NS / 1_000_000
        );
        failures += 1;
    }
    if failures == 0 {
        println!(
            "smoke: sub-saturation SLO held (busy {}, achieved {:.0}%, p99 {:.1} µs)",
            p.busy,
            100.0 * p.achieved / p.offered,
            p.p99 as f64 / 1e3
        );
    }
    i32::from(failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_latency.json".to_string();
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

    // One generator per available core up to 4 — more would starve
    // the lane workers on small machines and measure the starvation.
    let gens = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4);
    let cfg = if smoke {
        Config {
            n: env_usize("FITING_N", 200_000),
            gens,
            secs: 1.0,
            calib_threads: 2,
            calib_ops: 30_000,
        }
    } else {
        Config {
            n: env_usize("FITING_N", 1_000_000),
            gens,
            secs: env_usize("FITING_SLO_SECS", 2) as f64,
            calib_threads: 4,
            calib_ops: 100_000,
        }
    };

    println!(
        "# slo — open-loop tail-latency sweep, {} rows, {} shards, {} generators{}",
        cfg.n,
        SHARDS,
        cfg.gens,
        if smoke { " (smoke)" } else { "" }
    );

    if smoke {
        std::process::exit(smoke_gate(&cfg, &out_path));
    }

    eprintln!("  calibrating closed-loop saturation ...");
    let calibrated = closed_loop_calibration(&cfg);
    println!("closed-loop saturation estimate: {calibrated:.0} ops/s");

    // Sweep from deep sub-saturation past the calibrated estimate:
    // offered cannot exceed what the closed loop achieves, so the top
    // fractions are guaranteed past the knee.
    let fractions = [0.10, 0.25, 0.50, 0.70, 0.85, 1.00, 1.20, 1.50];
    let mut points = Vec::with_capacity(fractions.len());
    for f in fractions {
        let rate = calibrated * f;
        eprintln!(
            "  holding {rate:.0} ops/s ({:.0}% of saturation) ...",
            f * 100.0
        );
        points.push(open_loop(&cfg, rate, cfg.secs));
    }

    let doc = sweep_doc(&cfg, calibrated, &points);
    std::fs::write(&out_path, doc.pretty()).expect("writable output path");
    println!("\nwrote {out_path}");

    print_points(&points);
    match knee_of(&points) {
        Some(i) => println!(
            "\noverload knee: {:.0} ops/s offered -> {:.0} achieved, {} shed, p99 {:.1} µs",
            points[i].offered,
            points[i].achieved,
            points[i].busy,
            points[i].p99 as f64 / 1e3
        ),
        None => println!("\nno overload knee within the swept range (sweep wider)"),
    }
}
