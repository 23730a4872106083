//! In-memory spans for the traced run, written out when it ends.
//!
//! Spans are recorded from the benchmark's own files, around calls
//! into each layer; nothing inside the program under test is touched.
//! With tracing off (every end-to-end measurement) `record`/`open`
//! return after one relaxed load.

use fiting_telemetry::json::Json;
use std::path::Path;
// ordering: Relaxed — the two flags are read on their own; the spans
// themselves are published through the sink's mutex.
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock}; // fiting-check: allow(std-sync-quarantine) the benchmark's own lock, never taken with tracing off
use std::time::Instant;

/// One span: `parent` is the index of the span that caused it, and
/// spans of one op share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Parent given to spans recorded by other threads (the storage I/O
/// wrapper) while the harness has a span open around them; -1 = none.
static AMBIENT: AtomicI64 = AtomicI64::new(-1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn nanos(at: Instant) -> u64 {
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

fn sink() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // Every update is a single push or field store, so the data stays
    // valid even if a holder panicked.
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub fn enable() {
    nanos(Instant::now());
    ENABLED.store(true, Relaxed);
}

/// Records a finished span; returns its index.
pub fn push(
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    op_id: u64,
) -> Option<usize> {
    if !ENABLED.load(Relaxed) {
        return None;
    }
    let mut sink = sink();
    sink.push(Span {
        name,
        start_ns: nanos(start),
        end_ns: nanos(end),
        parent,
        op_id,
    });
    Some(sink.len() - 1)
}

/// Records a finished span under the ambient parent (see [`scope`]).
pub fn record(name: &'static str, start: Instant, end: Instant) {
    push(
        name,
        start,
        end,
        usize::try_from(AMBIENT.load(Relaxed)).ok(),
        0,
    );
}

/// Opens a span that ends at [`close`]; until then it reads as empty.
pub fn open(
    name: &'static str,
    start: Instant,
    parent: Option<usize>,
    op_id: u64,
) -> Option<usize> {
    push(name, start, start, parent, op_id)
}

/// Ends an open span (one whose sink was taken meanwhile is gone).
pub fn close(id: Option<usize>, end: Instant) {
    let mut sink = sink();
    if let Some(span) = id.and_then(|id| sink.get_mut(id)) {
        span.end_ns = nanos(end);
    }
}

/// Runs `f` inside a span that is the ambient parent of whatever other
/// threads record meanwhile (a checkpoint and its writes and fsyncs).
pub fn scope<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = open(name, Instant::now(), None, 0);
    AMBIENT.store(id.map_or(-1, |id| id as i64), Relaxed);
    let out = f();
    AMBIENT.store(-1, Relaxed);
    close(id, Instant::now());
    out
}

pub fn take() -> Vec<Span> {
    std::mem::take(&mut *sink())
}

/// Writes `spans` as a JSON array of `{name, start_ns, end_ns, parent, op_id}`.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", Json::Str(s.name.into()))
                .with("start_ns", Json::Num(s.start_ns as f64))
                .with("end_ns", Json::Num(s.end_ns as f64))
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                )
                .with("op_id", Json::Num(s.op_id as f64))
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, Json::Arr(rows).pretty())
}
