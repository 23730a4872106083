//! Facade crate for the FITing-Tree reproduction workspace.
//!
//! Re-exports every workspace crate under one root so the examples and
//! cross-crate integration tests have a single dependency:
//!
//! * [`index_api`] — the crate-neutral `SortedIndex` / `BuildableIndex`
//!   / `DynSortedIndex` trait family every structure implements, plus
//!   the sharded concurrent front-end `ShardedIndex`.
//! * [`service`] — the command-pipeline service layer over
//!   `ShardedIndex`: typed commands, bounded per-shard queues,
//!   batching/coalescing workers, ticket completions, backpressure.
//! * [`storage`] — the durability layer: snapshot pages, per-shard
//!   write-ahead logs with group commit, and crash-consistent
//!   recovery (`DurableIndex` wraps any snapshot-capable structure
//!   and drops into `ShardedIndex`/the service unchanged).
//! * [`sync`] — the wait-free read-path primitives: versioned
//!   snapshot publication (`Snapshots`) and the per-shard seqlock
//!   (`SeqRwLock`), the audited foundation of `ShardedIndex`'s
//!   zero-lock steady-state reads.
//! * [`telemetry`] — the observability layer: wait-free counters and
//!   log-bucketed latency histograms (≤ 1 % relative error, mergeable
//!   snapshots) plus the typed `MetricsSnapshot` schema that
//!   `IndexService::metrics` — the one export path — reports through.
//!   The metric catalog and runbook live in `docs/OBSERVABILITY.md`.
//! * [`tree`] — the FITing-Tree itself (clustered + non-clustered index,
//!   insert path, cost model). This is the paper's contribution.
//! * [`plr`] — bounded-error piecewise-linear segmentation
//!   (ShrinkingCone and the optimal DP).
//! * [`btree`] — a standalone in-memory B+ tree, kept purely as a
//!   benchmark baseline (the FITing-Tree no longer uses it: its flat
//!   directory is spliced in place on mutation).
//! * [`baselines`] — full (dense) index, fixed-size-page index, and
//!   binary search, benchmarked against the FITing-Tree throughout the
//!   paper's evaluation.
//! * [`datasets`] — seeded synthetic generators standing in for the
//!   paper's Weblogs / IoT / Maps / Taxi traces, plus the non-linearity
//!   metric of Figure 8.
//!
//! See `ARCHITECTURE.md` for the full system inventory and the
//! README's "Performance" section for paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fiting_baselines as baselines;
pub use fiting_btree as btree;
pub use fiting_datasets as datasets;
pub use fiting_index_api as index_api;
pub use fiting_index_service as service;
pub use fiting_plr as plr;
pub use fiting_storage as storage;
pub use fiting_sync as sync;
pub use fiting_telemetry as telemetry;
pub use fiting_tree as tree;

pub use fiting_index_api::{
    BuildableIndex, Degraded, DynSortedIndex, Key, OrderedF64, ShardHealth, ShardStats,
    ShardedIndex, SortedIndex,
};
pub use fiting_index_service::{
    Canceled, Client, Command, CommandError, Completer, DurabilityConfig, IndexService, LaneHealth,
    ServiceConfig, ServiceStats, SupervisorConfig, Ticket,
};
pub use fiting_storage::{
    open_sharded, DurableConfig, DurableIndex, FaultIo, FaultPlan, FsyncPolicy, InjectKind, RealIo,
    RetryPolicy, StorageError, StorageIo, StoreReport,
};
