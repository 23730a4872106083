//! Service-side latency instrumentation: where a command's wall-clock
//! time goes, per command kind.
//!
//! Three clocks per command, all recorded into `fiting-telemetry`
//! histograms (single relaxed atomics — recording never blocks a
//! submitter or worker; see the `reader-wait-free` invariant in
//! ARCHITECTURE.md):
//!
//! * **queue wait** — submission accepted → drained by the lane
//!   worker. The submitter's hot path only stamps an [`Instant`] into
//!   the queue payload ([`Timed`]); the measurement happens drain-side.
//! * **execute** — one sample per *run*, the worker's coalescing
//!   granularity: a maximal run of like commands executes as one
//!   grouped index call, so per-command execute time is not separable.
//!   The sample is attributed to the run's first command's kind (a
//!   mixed `Insert`/`Remove` run lands under whichever came first).
//! * **end-to-end** — submission accepted → ticket resolved, recorded
//!   by a completer wrapper the worker installs at drain time from the
//!   [`Timed`] stamp. Canceled outcomes are **not** recorded: a
//!   canceled command's wall time measures teardown (shutdown, lane
//!   poisoning), not service latency — cancellations surface through
//!   the `service.panics` counter and the ticket error instead.
//!
//! Submission counters ride along: accepted submissions and
//! backpressure rejections
//! ([`TryPushError::Busy`](crate::TryPushError::Busy)) per kind — the
//! latter is the signal the open-loop SLO harness uses to find the
//! overload knee.
//!
//! Everything exports through [`ServiceTelemetry::metrics`] plus the
//! [`stats_metrics`] translation of [`ServiceStats`], unified by
//! [`IndexService::metrics`](crate::IndexService::metrics). The full
//! metric catalog — name, type, unit, what a bad value looks like —
//! lives in `docs/OBSERVABILITY.md`.

use crate::command::Command;
use crate::stats::ServiceStats;
use crate::ticket::{Completer, Outcome};
use fiting_telemetry::{Counter, Histogram, Metric, Unit};
use std::sync::Arc;
use std::time::Instant;

/// A command's shape as a dense index — the key for per-kind
/// instruments. Obtained via [`Command::command_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CommandKind {
    /// Point lookup.
    Get,
    /// Range scan.
    Range,
    /// Point upsert.
    Insert,
    /// Point delete.
    Remove,
    /// Batched upsert.
    InsertMany,
}

impl CommandKind {
    /// Every kind, in stable export order.
    pub(crate) const ALL: [CommandKind; 5] = [
        CommandKind::Get,
        CommandKind::Range,
        CommandKind::Insert,
        CommandKind::Remove,
        CommandKind::InsertMany,
    ];

    /// Stable lowercase name (the `{kind}` segment of exported metric
    /// names).
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CommandKind::Get => "get",
            CommandKind::Range => "range",
            CommandKind::Insert => "insert",
            CommandKind::Remove => "remove",
            CommandKind::InsertMany => "insert_many",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A queue payload stamped with the instant it was accepted into the
/// lane queue — what turns the queue into a latency instrument.
pub(crate) struct Timed<T> {
    pub(crate) item: T,
    pub(crate) accepted: Instant,
}

impl<T> Timed<T> {
    pub(crate) fn new(item: T) -> Timed<T> {
        Timed {
            item,
            accepted: Instant::now(),
        }
    }
}

/// Per-kind latency histograms and submission counters for one running
/// service. Shared by every client and worker; every recording path is
/// a single relaxed atomic operation.
pub(crate) struct ServiceTelemetry {
    end_to_end: [Histogram; 5],
    queue_wait: [Histogram; 5],
    execute: [Histogram; 5],
    accepted: [Counter; 5],
    busy: [Counter; 5],
}

impl ServiceTelemetry {
    pub(crate) fn new() -> ServiceTelemetry {
        ServiceTelemetry {
            end_to_end: std::array::from_fn(|_| Histogram::new()),
            queue_wait: std::array::from_fn(|_| Histogram::new()),
            execute: std::array::from_fn(|_| Histogram::new()),
            accepted: std::array::from_fn(|_| Counter::new()),
            busy: std::array::from_fn(|_| Counter::new()),
        }
    }

    /// Submission-accepted → ticket-resolved latency for `kind`.
    pub(crate) fn end_to_end(&self, kind: CommandKind) -> &Histogram {
        &self.end_to_end[kind.index()]
    }

    /// Submission-accepted → drained-by-worker latency for `kind`.
    pub(crate) fn queue_wait(&self, kind: CommandKind) -> &Histogram {
        &self.queue_wait[kind.index()]
    }

    /// Grouped-index-call duration, one sample per coalesced run.
    pub(crate) fn execute(&self, kind: CommandKind) -> &Histogram {
        &self.execute[kind.index()]
    }

    /// Counts a submission accepted into a lane queue.
    pub(crate) fn note_accepted(&self, kind: CommandKind) {
        self.accepted[kind.index()].inc();
    }

    /// Counts a `try_submit` rejected with `Busy` (backpressure shed).
    pub(crate) fn note_busy(&self, kind: CommandKind) {
        self.busy[kind.index()].inc();
    }

    /// Every per-kind instrument as typed metrics, in stable order.
    /// The schema is fixed: all kinds export all five metrics even
    /// when empty, so dashboards never see names come and go.
    pub(crate) fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::with_capacity(CommandKind::ALL.len() * 5);
        for kind in CommandKind::ALL {
            let k = kind.as_str();
            out.push(Metric::histogram(
                &format!("service.{k}.end_to_end"),
                "accepted submission -> ticket resolved (canceled excluded)",
                self.end_to_end(kind).snapshot(),
            ));
            out.push(Metric::histogram(
                &format!("service.{k}.queue_wait"),
                "accepted submission -> drained by the lane worker",
                self.queue_wait(kind).snapshot(),
            ));
            out.push(Metric::histogram(
                &format!("service.{k}.execute"),
                "grouped index call, one sample per coalesced run",
                self.execute(kind).snapshot(),
            ));
            out.push(Metric::counter(
                &format!("service.{k}.submitted"),
                Unit::Count,
                "submissions accepted into a lane queue",
                self.accepted[kind.index()].get(),
            ));
            out.push(Metric::counter(
                &format!("service.{k}.rejected_busy"),
                Unit::Count,
                "try_submit rejections by a full lane queue (backpressure)",
                self.busy[kind.index()].get(),
            ));
        }
        out
    }
}

/// Records `timed`'s queue wait (against the drain-wide `now` stamp)
/// and arms its completer to record end-to-end latency at resolution —
/// the worker calls this once per drained command. The completer
/// wrapper skips canceled outcomes (teardown, not latency) and
/// forwards the resolution through [`Completer::resolve`] unchanged.
pub(crate) fn observe_dequeue<K, V>(
    telemetry: &Arc<ServiceTelemetry>,
    timed: Timed<Command<K, V>>,
    now: Instant,
) -> Command<K, V>
where
    K: Send + 'static,
    V: Send + 'static,
{
    let Timed { item, accepted } = timed;
    let kind = item.command_kind();
    telemetry
        .queue_wait(kind)
        .record_duration(now.saturating_duration_since(accepted));
    match item {
        Command::Get { key, done } => Command::Get {
            key,
            done: armed(telemetry, kind, accepted, done),
        },
        Command::Range { lo, hi, done } => Command::Range {
            lo,
            hi,
            done: armed(telemetry, kind, accepted, done),
        },
        Command::Insert { key, value, done } => Command::Insert {
            key,
            value,
            done: armed(telemetry, kind, accepted, done),
        },
        Command::Remove { key, done } => Command::Remove {
            key,
            done: armed(telemetry, kind, accepted, done),
        },
        Command::InsertMany { batch, done } => Command::InsertMany {
            batch,
            done: armed(telemetry, kind, accepted, done),
        },
    }
}

/// Wraps `done` so resolving it also records end-to-end latency from
/// `accepted` — except for canceled outcomes, which pass through
/// unrecorded.
fn armed<T: Send + 'static>(
    telemetry: &Arc<ServiceTelemetry>,
    kind: CommandKind,
    accepted: Instant,
    done: Completer<T>,
) -> Completer<T> {
    let telemetry = Arc::clone(telemetry);
    Completer::from_fn(move |outcome| {
        if !matches!(outcome, Outcome::Canceled) {
            telemetry
                .end_to_end(kind)
                .record_duration(accepted.elapsed());
        }
        done.resolve(outcome);
    })
}

/// Translates a [`ServiceStats`] snapshot into typed metrics — the
/// one place the pipeline/shard/routing/durability counters get their
/// exported names. A new instrument is a stats field, one row here and
/// one catalog row in `docs/OBSERVABILITY.md`.
pub(crate) fn stats_metrics(stats: &ServiceStats) -> Vec<Metric> {
    let lane_sum =
        |f: fn(&crate::LaneServiceStats) -> u64| -> u64 { stats.lanes.iter().map(f).sum() };
    let entries: usize = stats.shards.iter().map(|s| s.entries).sum();
    let size_bytes: usize = stats.shards.iter().map(|s| s.size_bytes).sum();
    let wal_bytes: usize = stats.shards.iter().map(|s| s.wal_bytes).sum();
    let io_retries: u64 = stats.shards.iter().map(|s| s.io_retries).sum();
    let mut out = vec![
        Metric::gauge(
            "service.lanes",
            Unit::Count,
            "queue/worker pairs (fixed at service start)",
            stats.lanes.len() as f64,
        ),
        Metric::gauge(
            "service.queue.depth",
            Unit::Count,
            "commands waiting across all lane queues",
            stats.total_queued() as f64,
        ),
        Metric::counter(
            "service.processed",
            Unit::Count,
            "commands executed across all lanes",
            lane_sum(|l| l.processed),
        ),
        Metric::counter(
            "service.batches",
            Unit::Count,
            "non-empty queue drains across all lanes",
            lane_sum(|l| l.batches),
        ),
        Metric::gauge(
            "service.mean_batch_len",
            Unit::Ratio,
            "commands per non-empty drain (achieved batching)",
            stats.mean_batch_len(),
        ),
        Metric::counter(
            "service.write_runs",
            Unit::Count,
            "write-lock acquisitions for coalesced write runs",
            lane_sum(|l| l.write_runs),
        ),
        Metric::counter(
            "service.read_runs",
            Unit::Count,
            "shard read sections entered for point reads (one per get)",
            lane_sum(|l| l.read_runs),
        ),
        Metric::counter(
            "service.coalesced_writes",
            Unit::Count,
            "writes applied through a coalesced batch path",
            lane_sum(|l| l.coalesced_writes),
        ),
        Metric::counter(
            "service.panics",
            Unit::Count,
            "worker panics caught (each one poisoned its lane)",
            lane_sum(|l| l.panics),
        ),
        Metric::counter(
            "service.restarts",
            Unit::Count,
            "lane resurrections by their own workers",
            lane_sum(|l| l.restarts),
        ),
        Metric::counter(
            "service.degraded_writes",
            Unit::Count,
            "writes refused by degraded read-only shards",
            lane_sum(|l| l.degraded_writes),
        ),
        Metric::counter(
            "service.sync_failures",
            Unit::Count,
            "group commits that failed on at least one shard",
            lane_sum(|l| l.sync_failures),
        ),
        Metric::counter(
            "service.checkpoint_failures",
            Unit::Count,
            "checkpoint rotations that failed (shard degraded)",
            stats.checkpoint_failures,
        ),
        Metric::gauge(
            "service.degraded",
            Unit::Ratio,
            "1 when any shard is degraded (writes may be refused)",
            if stats.is_degraded() { 1.0 } else { 0.0 },
        ),
        Metric::gauge(
            "index.shards",
            Unit::Count,
            "live shard count (moves under rebalancing)",
            stats.shards.len() as f64,
        ),
        Metric::gauge(
            "index.entries",
            Unit::Count,
            "entries across all shards",
            entries as f64,
        ),
        Metric::gauge(
            "index.size_bytes",
            Unit::Bytes,
            "in-memory structure bytes across all shards",
            size_bytes as f64,
        ),
        Metric::gauge(
            "index.wal_bytes",
            Unit::Bytes,
            "un-checkpointed WAL bytes across all shards",
            wal_bytes as f64,
        ),
        Metric::counter(
            "index.io_retries",
            Unit::Count,
            "transient storage faults absorbed by retry",
            io_retries,
        ),
        Metric::gauge(
            "index.imbalance",
            Unit::Ratio,
            "fullest shard's entries over the mean (1.0 = balanced)",
            stats.imbalance(),
        ),
        Metric::counter(
            "routing.publishes",
            Unit::Count,
            "routing tables published (one per rebalance step)",
            stats.routing.publishes,
        ),
        Metric::counter(
            "routing.refreshes",
            Unit::Count,
            "reader cache misses that fell back to the publisher mutex",
            stats.routing.refreshes,
        ),
        Metric::counter(
            "routing.contended_reads",
            Unit::Count,
            "shard reads that hit a writer and took the fallback lock",
            stats.routing.contended_reads,
        ),
    ];
    if let Some(reb) = &stats.rebalance {
        out.push(Metric::counter(
            "rebalance.steps",
            Unit::Count,
            "rebalance policy evaluations",
            reb.steps,
        ));
        out.push(Metric::counter(
            "rebalance.splits",
            Unit::Count,
            "shard splits performed",
            reb.splits,
        ));
        out.push(Metric::counter(
            "rebalance.merges",
            Unit::Count,
            "shard merges performed",
            reb.merges,
        ));
        out.push(Metric::counter(
            "rebalance.moved_keys",
            Unit::Count,
            "entries moved between shards by splits and merges",
            reb.moved_keys,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_is_dense_and_names_are_stable() {
        for (i, kind) in CommandKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let names: Vec<&str> = CommandKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(
            names,
            vec!["get", "range", "insert", "remove", "insert_many"]
        );
    }

    #[test]
    fn telemetry_exports_full_schema_even_when_idle() {
        let tel = ServiceTelemetry::new();
        let metrics = tel.metrics();
        assert_eq!(metrics.len(), CommandKind::ALL.len() * 5);
        // Stable schema: every kind exports every instrument.
        for kind in CommandKind::ALL {
            let k = kind.as_str();
            for suffix in [
                "end_to_end",
                "queue_wait",
                "execute",
                "submitted",
                "rejected_busy",
            ] {
                assert!(
                    metrics
                        .iter()
                        .any(|m| m.name == format!("service.{k}.{suffix}")),
                    "missing service.{k}.{suffix}"
                );
            }
        }
    }

    #[test]
    fn armed_completer_records_except_on_cancel() {
        let tel = Arc::new(ServiceTelemetry::new());
        let (cmd, t) = Command::<u64, u64>::get(1);
        let cmd = observe_dequeue(&tel, Timed::new(cmd), Instant::now());
        let Command::Get { done, .. } = cmd else {
            panic!("shape preserved");
        };
        done.complete(Some(9));
        assert_eq!(t.wait(), Ok(Some(9)));
        assert_eq!(tel.end_to_end(CommandKind::Get).snapshot().count(), 1);
        assert_eq!(tel.queue_wait(CommandKind::Get).snapshot().count(), 1);

        // A canceled command records queue wait but not end-to-end.
        let (cmd, t) = Command::<u64, u64>::get(2);
        let cmd = observe_dequeue(&tel, Timed::new(cmd), Instant::now());
        drop(cmd);
        assert!(t.wait().is_err());
        assert_eq!(tel.end_to_end(CommandKind::Get).snapshot().count(), 1);
        assert_eq!(tel.queue_wait(CommandKind::Get).snapshot().count(), 2);
    }
}
