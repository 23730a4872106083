//! Offline mini model checker in the spirit of the `shuttle` crate.
//!
//! This build environment has no network access to crates.io, so the
//! workspace owns a small deterministic-scheduling model checker with
//! the shape of `shuttle`: code whose `thread::spawn` /
//! `sync::{Mutex, Condvar}` / `atomic` come from here runs under a
//! scheduler this crate controls, and every assertion in a closure
//! handed to [`model::battery`] (or the finer-grained
//! [`model::explore`] / [`model::explore_random`]) is checked across
//! *many interleavings* instead of the one the OS happens to produce.
//! The workspace's concurrency types get these primitives through
//! `fiting_sync::primitives` when built with `--cfg fiting_model`, so
//! what the models run is the shipped code:
//!
//! ```
//! use shuttle::sync::Mutex;
//! use shuttle::{model, thread};
//! use std::sync::Arc;
//!
//! model::battery("two increments", || {
//!     let n = Arc::new(Mutex::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = thread::spawn(move || *n2.lock() += 1);
//!     *n.lock() += 1;
//!     t.join().unwrap();
//!     assert_eq!(*n.lock(), 2);
//! });
//! ```
//!
//! Three exploration strategies share one runtime (see
//! [`runtime`](self) docs in the source): bounded exhaustive DFS over
//! the schedule tree, seeded random walks for spaces too deep to
//! enumerate, and exact replay of a failure's recorded `schedule`
//! string. Failures — property panics, deadlocks, replay divergence —
//! carry that schedule, so every red result reproduces on demand with
//! [`model::replay`].
//!
//! Known divergences from the real `shuttle`, beyond scale:
//!
//! * Spurious condvar wakeups are not generated (timeouts *are*
//!   explored as scheduling choices).
//! * The weak-memory model is one store buffer per task: a `Relaxed`
//!   store stays private until the task's next `Release`-or-stronger
//!   store **or read-modify-write** (a `Relaxed` / `Acquire` RMW
//!   publishes nothing but itself), and loads never reorder. Enough to
//!   catch missed-`Release` publication bugs, far short of full C11.
//! * [`thread::yield_now`] is **fair**: the yielding task sits out that
//!   one decision while another task can run, so a yielding spin-wait
//!   terminates under DFS. A spin with no yield still exhausts the
//!   decision budget and is reported.
//! * The primitive set is what this workspace's types use — no
//!   `RwLock`, no `swap` / `compare_exchange`.

#![warn(missing_docs)]

mod chooser;
mod runtime;

pub mod atomic;
pub mod model;
pub mod sync;
pub mod thread;
