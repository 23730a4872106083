//! `e2e` — the end-to-end benchmark of the FITing-Tree stack.
//!
//! One seeded op-stream generator is driven through every layer
//! boundary in turn — `FitingTree` → `ShardedIndex` → `IndexService` →
//! `DurableIndex` — measuring only from outside, by timing calls into
//! public functions, and verifying every answer against the
//! generator's shadow state. See `README.md` for the workloads, the
//! metrics and how to read the traced run.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! e2e --all [--seed <n>] [--seconds <s>] [--trace <0|1>]          all five workloads, a child process each
//! e2e --calibrate [R]                                             R full runs, spread against the bounds
//! e2e --smoke                                                     every workload at n = 200 k, under 5 s
//! ```
//!
//! The last line of standard output of a single run is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero on any wrong answer.

#![forbid(unsafe_code)]

mod counting_io;
mod declared;
mod gen;
mod spans;
mod stats;
mod sut;
mod trace;
mod workloads;

use declared::END_TO_END;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Metric, Report, RunOpts, Workload, FIXTURE_KEYS, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const RUN_SECONDS: f64 = 22.0;
const DEFAULT_CALIBRATE_RUNS: usize = 6;

#[derive(Debug)]
enum Mode {
    One(&'static Workload),
    All,
    Calibrate(usize),
    Smoke,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut mode = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = workloads::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?;
                mode = Some(Mode::One(w));
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--all" => mode = Some(Mode::All),
            "--smoke" => mode = Some(Mode::Smoke),
            "--calibrate" => {
                let runs = match it.peek().and_then(|next| next.parse().ok()) {
                    Some(runs) => {
                        it.next();
                        runs
                    }
                    None => DEFAULT_CALIBRATE_RUNS,
                };
                if runs < 2 {
                    return Err("--calibrate needs at least 2 runs".into());
                }
                mode = Some(Mode::Calibrate(runs));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.mode = mode.ok_or("one of --workload <name>, --all, --calibrate [R], --smoke")?;
    Ok(parsed)
}

/// This executable's directory, inside cargo's target directory: where
/// the store and the trace go, so nothing lands outside the build.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .expect("executable has a directory")
        .to_path_buf()
}

fn store_root() -> PathBuf {
    let parent = out_dir().join("e2e-store");
    sut::clear_stale_stores(&parent);
    parent.join(std::process::id().to_string())
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {:<40} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
}

/// The result line the driver reads.
fn result_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.declared {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

/// One workload in this process; prints its tables and result line.
/// Whether a result was printed and every answer was right.
fn run_one(w: &Workload, opts: &RunOpts, trace: bool) -> bool {
    let report = if trace {
        trace::measure(w, opts, &store_root(), &out_dir().join("e2e-trace.json"))
    } else {
        workloads::measure(w, opts, &store_root())
    };
    println!(
        "# {} — seed {}, n {}, {} s, trace {}, nproc {}{}",
        w.name,
        opts.seed,
        opts.n,
        opts.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        report
            .stream_hash
            .map_or(String::new(), |h| format!(", op-stream hash {h:016x}")),
    );
    println!("# {}", w.why);
    if !w.gated {
        println!("# not in BENCHMARK.json: its timings did not repeat on the reference box");
    }
    let kind = if trace { "per-layer" } else { "end-to-end" };
    print_table(&format!("{kind} metrics"), &report.declared);
    print_table("this workload only (not gated)", &report.extras);
    match result_line(&report) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2e: {e}");
            return false;
        }
    }
    if report.failed > 0 {
        eprintln!(
            "e2e: {} of {} checks failed",
            report.failed, report.attempted
        );
    }
    report.failed == 0
}

/// `name → value` of one child's result line, or why there is none.
fn parse_result_line(line: &str) -> Result<BTreeMap<String, f64>, String> {
    use fiting_telemetry::json::Json;
    let doc = Json::parse(line)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run was not correct: {line}"));
    }
    let Some(Json::Obj(entries)) = doc.get("metrics") else {
        return Err("no metrics object".into());
    };
    entries
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect()
}

/// Runs every workload, each in its own child process (clean peak RSS,
/// no allocator carry-over), echoing the children's output.
fn run_all(args: &Args) -> Result<Vec<BTreeMap<String, f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (tables, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{tables}\n");
        if !child.status.success() {
            return Err(format!("{} exited with {}", w.name, child.status));
        }
        results.push(parse_result_line(line).map_err(|e| format!("{}: {e}", w.name))?);
    }
    Ok(results)
}

/// `--calibrate R`: R full runs; per workload × end-to-end metric the
/// median, min, max and quartile distance. Fails, as the driver would,
/// if on a gated workload the medians of the odd- and even-numbered
/// runs differ by more than the bound, or the quartile distance is more
/// than the bound (`setup_s` is held to the first only).
fn calibrate(args: &Args, runs: usize) -> Result<bool, String> {
    let mut all: Vec<Vec<BTreeMap<String, f64>>> = Vec::new();
    for run in 1..=runs {
        println!("## calibration run {run} of {runs}");
        all.push(run_all(args)?);
    }
    println!(
        "## noise floor over {runs} runs (seed {}, {} s)",
        args.seed, args.seconds
    );
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "min", "max", "iqr/med", "odd/even", "bound"
    );
    let mut steady = true;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = all.iter().map(|run| run[wi][m.name]).collect();
            let half = |parity: usize| {
                let half: Vec<f64> = values.iter().copied().skip(parity).step_by(2).collect();
                stats::median(&half)
            };
            let drift = m.better.worse_by(half(0), half(1)).abs();
            let spread = stats::spread(&values);
            let ok = drift <= m.bound && (spread <= m.bound || m.name == "setup_s");
            steady &= ok || !w.gated;
            println!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>6} {}",
                w.name,
                format!("{} [{}]", m.name, m.unit),
                stats::median(&values),
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread,
                drift,
                m.bound,
                match (ok, w.gated) {
                    (true, _) => "",
                    (false, true) => "UNSTEADY",
                    (false, false) => "unsteady (not gated)",
                },
            );
        }
    }
    Ok(steady)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        n: FIXTURE_KEYS,
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = match args.mode {
        Mode::One(w) => Ok(run_one(w, &opts, args.trace)),
        Mode::Smoke => {
            let smoke = RunOpts {
                n: workloads::SMOKE_KEYS,
                seconds: workloads::SMOKE_SECONDS,
                ..opts
            };
            Ok(WORKLOADS.iter().all(|w| run_one(w, &smoke, args.trace)))
        }
        Mode::All => run_all(&args).map(|_| true),
        Mode::Calibrate(runs) => calibrate(&args, runs),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
