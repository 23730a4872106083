//! Entry points: run a closure under the deterministic scheduler and
//! explore its interleavings.

use crate::chooser::Chooser;
use crate::runtime;
use std::sync::Arc;

/// A property violation found while exploring: the failure message plus
/// the decision sequence that reproduces it (feed to [`replay`]).
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong: the panic message of a failed assertion, a
    /// deadlock report, or a replay divergence.
    pub message: String,
    /// Dot-separated decision indices; replaying them reproduces this
    /// exact interleaving.
    pub schedule: String,
}

/// The outcome of an exploration run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Interleavings actually executed.
    pub iterations: usize,
    /// Whether DFS enumerated the *entire* schedule space (always
    /// `false` for random walks, which have no notion of exhaustion).
    pub complete: bool,
    /// The first failure found, if any; exploration stops at the first.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics with the failure message and its replayable schedule if
    /// the exploration of the model called `name` found one.
    pub fn assert_ok(&self, name: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "{name} failed after {} interleaving(s): {}\nreplay schedule: \"{}\"",
                self.iterations, f.message, f.schedule
            );
        }
    }
}

/// Interleavings a model clears in the quick [`battery`], and the
/// budget within which [`must_catch`] must see a mutant fail.
pub const DEFAULT_ITERATIONS: usize = 10_000;

/// Seed of the random walks that follow DFS in both helpers.
const WALK_SEED: u64 = 0x5EED_F17E;

fn from_raw(f: runtime::RawFailure) -> Failure {
    Failure {
        message: f.message,
        schedule: f.schedule,
    }
}

/// Explores `body` with bounded exhaustive DFS, up to `max_iterations`
/// schedules, stopping at the first failure.
///
/// The closure runs once per schedule and must set up its own state
/// each time (construct the shared structures inside the closure).
pub fn explore<F: Fn() + Send + Sync + 'static>(body: F, max_iterations: usize) -> Report {
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut chooser = Chooser::dfs();
    let mut iterations = 0;
    loop {
        let (next, failure) = runtime::run_iteration(Arc::clone(&body), chooser);
        chooser = next;
        iterations += 1;
        if let Some(f) = failure {
            return Report {
                iterations,
                complete: false,
                failure: Some(from_raw(f)),
            };
        }
        if !chooser.advance() {
            return Report {
                iterations,
                complete: true,
                failure: None,
            };
        }
        if iterations >= max_iterations {
            return Report {
                iterations,
                complete: false,
                failure: None,
            };
        }
    }
}

/// Explores `body` with `iterations` seeded random walks — deep-schedule
/// coverage where DFS cannot finish. Deterministic per `seed`; a failure
/// still reports an exact replayable schedule.
pub fn explore_random<F: Fn() + Send + Sync + 'static>(
    body: F,
    seed: u64,
    iterations: usize,
) -> Report {
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut chooser = Chooser::random(seed);
    for i in 0..iterations {
        let (next, failure) = runtime::run_iteration(Arc::clone(&body), chooser);
        chooser = next;
        if let Some(f) = failure {
            return Report {
                iterations: i + 1,
                complete: false,
                failure: Some(from_raw(f)),
            };
        }
    }
    Report {
        iterations,
        complete: false,
        failure: None,
    }
}

/// Re-runs `body` under the exact decision sequence of a recorded
/// `schedule` string — the reproduction path for any reported failure.
pub fn replay<F: Fn() + Send + Sync + 'static>(body: F, schedule: &str) -> Report {
    let choices: Vec<usize> = if schedule.is_empty() {
        Vec::new()
    } else {
        schedule
            .split('.')
            .map(|c| {
                c.parse()
                    .expect("schedule strings are dot-separated indices")
            })
            .collect()
    };
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let (_, failure) = runtime::run_iteration(body, Chooser::replay(choices));
    Report {
        iterations: 1,
        complete: false,
        failure: failure.map(from_raw),
    }
}

/// The clean side of a model: DFS up to the budget, then as many
/// seeded random walks — a tree too deep to exhaust gets only its tail
/// varied by DFS, and the walks are what reach early interleavings —
/// panicking (with the replayable schedule) on the first violation.
/// The budget is [`DEFAULT_ITERATIONS`] unless `FITING_MODEL_ITERS`
/// raises it (the nightly deep sweep).
pub fn battery<F: Fn() + Send + Sync + Clone + 'static>(name: &str, body: F) {
    let budget = std::env::var("FITING_MODEL_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ITERATIONS);
    let dfs = explore(body.clone(), budget);
    dfs.assert_ok(&format!("{name} (DFS)"));
    explore_random(body, WALK_SEED, budget).assert_ok(&format!("{name} (seeded walks)"));
    let exhausted = if dfs.complete { " (all there are)" } else { "" };
    println!(
        "{name}: clean over {} DFS schedules{exhausted} and {budget} seeded walks",
        dfs.iterations
    );
}

/// The red side: `body` must fail within [`DEFAULT_ITERATIONS`] — DFS
/// first, then seeded walks for failures deeper than the DFS prefix
/// reaches — with a message containing `expected`, and its recorded
/// schedule must replay to the same failure. Returns that failure, so
/// a test can pin the schedule string against other processes' runs.
pub fn must_catch<F: Fn() + Send + Sync + Clone + 'static>(body: F, expected: &str) -> Failure {
    let failure = explore(body.clone(), DEFAULT_ITERATIONS)
        .failure
        .or_else(|| explore_random(body.clone(), WALK_SEED, DEFAULT_ITERATIONS).failure)
        .unwrap_or_else(|| panic!("no explored schedule fails with \"{expected}\""));
    assert!(
        failure.message.contains(expected),
        "unexpected failure kind: {}",
        failure.message
    );
    let replayed = replay(body, &failure.schedule)
        .failure
        .expect("the recorded schedule must reproduce the failure");
    assert_eq!(replayed.message, failure.message, "replay diverged");
    failure
}
