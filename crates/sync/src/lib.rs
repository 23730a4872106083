//! **fiting-sync** — the wait-free read-path primitives of the
//! FITing-Tree reproduction workspace.
//!
//! Two primitives built for one protocol (the sharded front-end in
//! `fiting-index-api`), two hints for the page lookup under it, and the
//! seam all of it is built on ([`primitives`], described last):
//!
//! * [`Snapshots`] — a versioned snapshot publisher. A writer
//!   publishes a new immutable snapshot with one pointer swap under a
//!   leaf mutex; steady-state readers resolve the current snapshot
//!   from a **thread-local cache** keyed on one atomic version word —
//!   zero lock acquisitions, zero `Arc` refcount traffic, zero shared
//!   mutable state touched. 100% safe Rust: the caches hold `Arc`s, so
//!   a superseded snapshot lives exactly as long as some thread still
//!   caches it and is dropped by its last holder, outside the publish
//!   mutex.
//! * [`SeqRwLock`] — a reader-announcing seqlock: an even/odd sequence
//!   word gates entry and per-thread presence slots let a writer wait
//!   for in-flight readers to drain instead of tearing them. Readers
//!   that lose the race to a writer fall back to the writer mutex, so
//!   every read completes in bounded steps and never observes a torn
//!   value. Shared reads of an in-place-mutated value cannot be
//!   expressed in safe Rust: this is the first of the workspace's
//!   **three audited `unsafe` sites**.
//! * [`prefetch_read`] — a safe wrapper over the x86-64 `prefetcht0`
//!   hint (a no-op elsewhere), the second site: the intrinsic takes a
//!   raw pointer, the wrapper a reference. `fiting-tree` reaches it
//!   through `fiting-index-api`'s re-export to request a lookup's value
//!   window together with its key window.
//! * [`advise_huge_pages`] — `madvise(MADV_HUGEPAGE)` over the 2 MiB-
//!   aligned interior of a `Vec`'s spare capacity on Linux (a no-op
//!   elsewhere), the third site: the call takes a raw address, the
//!   wrapper a slice the caller owns. `fiting-tree` calls it, through
//!   the same re-export, before it writes a bulk-loaded column, so a
//!   uniform lookup finds the column's translations in the TLB.
//!
//! # Audit rules for `unsafe` in this crate
//!
//! Every other crate in the workspace carries
//! `#![forbid(unsafe_code)]`, enforced by the `fiting-check`
//! `forbid-unsafe` rule. This crate holds all three sites and is held to a
//! stricter local bar (also machine-checked by `fiting-check`):
//!
//! 1. `#![deny(unsafe_op_in_unsafe_fn)]` — no implicit unsafe scopes.
//! 2. Every `unsafe` site carries a `// safety:` comment stating the
//!    invariant that makes it sound (`unsafe-safety-comment` rule).
//! 3. Every atomic-ordering site carries a per-site `// ordering:`
//!    justification on or immediately above the line
//!    (`sync-ordering-per-site` rule — stricter than the workspace's
//!    per-function `ordering-justification`).
//!
//! # What the model checker runs
//!
//! [`primitives`] is the one seam `Snapshots`, `SeqRwLock` and the
//! concurrency types downstream (`ShardedIndex`, `BoundedQueue`,
//! `Ticket`) name their locks and atomics through: `std` in a normal
//! build, the workspace's deterministic model checker under
//! `RUSTFLAGS="--cfg fiting_model"`. `tests/models.rs` (empty without
//! the cfg) therefore races this crate's *own* `SeqRwLock` and
//! `Snapshots` — announce / check handshake, yielding drain, `Release`
//! exits and all — across 10 000 DFS schedules and 10 000 seeded walks
//! on every PR; what a broken handshake looks like to the checker is
//! pinned on fixtures in `crates/compat/shuttle/tests`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod hint;
pub mod primitives;
mod seqlock;
mod snapshot;

pub use hint::{advise_huge_pages, prefetch_read};
pub use seqlock::{SeqRwLock, SeqWriteGuard};
pub use snapshot::{SnapshotStats, Snapshots};
