//! Observability layer for the FITing-Tree service stack.
//!
//! Three pieces, all std-only and lock-free on the recording path:
//!
//! * [`Counter`] — monotonic event counts behind a relaxed atomic,
//!   aligned to 128 bytes so unrelated instruments stay off each
//!   other's cache lines.
//! * [`Histogram`] — a log-bucketed HDR-style latency histogram:
//!   fixed 3968-bucket layout (1 ns exact below 128 ns, 128 linear
//!   sub-buckets per power-of-two octave up to ~137 s), O(1) wait-free
//!   `record`, exact `count`/`max`, ≤ 1 % relative-error
//!   [`percentile`](HistogramSnapshot::percentile) readout, and
//!   lossless cross-thread [`merge`](HistogramSnapshot::merge).
//! * [`MetricsSnapshot`] — the exported schema: a producer reads its
//!   own instruments and stats structs at scrape time and names each
//!   reading as a typed [`Metric`]; the snapshot serializes through
//!   the workspace's serde-free [`json`] codec. The one producer,
//!   `IndexService::metrics()`, enumerates what it exports itself.
//!
//! The recording invariant — **a metric record never blocks a reader
//! or worker hot path** — is enforced statically: the root
//! `clippy.toml` disallows the `std::sync` locks and `RwLock::read`
//! across the workspace, and this crate holds no lock at all.
//!
//! `docs/OBSERVABILITY.md` at the repo root catalogs every metric the
//! service exports through this crate and how to read it.

#![warn(missing_docs)]

mod counter;
mod histogram;
pub mod json;
mod snapshot;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use snapshot::{Metric, MetricValue, MetricsSnapshot, Unit};
