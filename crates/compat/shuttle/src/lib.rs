//! Offline mini model checker in the spirit of the `shuttle` crate.
//!
//! This build environment has no network access to crates.io, so the
//! workspace vendors a small deterministic-scheduling model checker
//! with the shape of `shuttle`: swap `thread::spawn` /
//! `sync::{Mutex, RwLock, Condvar}` / `sync::atomic` imports for the
//! stand-ins here, wrap the concurrent scenario in
//! [`model::check`] (or the finer-grained [`model::explore`] /
//! [`model::explore_random`]), and every assertion in the closure is
//! checked across *many interleavings* instead of the one the OS
//! happens to produce:
//!
//! ```
//! use shuttle::sync::Mutex;
//! use shuttle::{model, thread};
//! use std::sync::Arc;
//!
//! model::check(|| {
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
//! Known divergences from the real `shuttle`, beyond scale: spurious
//! condvar wakeups are not generated (timeouts *are* explored as
//! scheduling choices), and the weak-memory model is a single
//! store-buffer per task — enough to catch missed-`Release` publication
//! bugs, far short of full C11.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chooser;
mod runtime;

pub mod atomic;
pub mod model;
pub mod sync;
pub mod thread;
