//! Instrumented atomic stand-ins (`AtomicU64` / `AtomicUsize` /
//! `AtomicBool`) with `std::sync::atomic` signatures — the operations
//! this workspace's concurrency types use, not the whole `std` set.
//!
//! Under the model, every access is a scheduler decision point, and
//! `Ordering::Relaxed` stores park in the storing task's store buffer —
//! other tasks may observe the pre-store value until the buffer commits
//! (at a `Release`-or-stronger store or read-modify-write by the same
//! task, or at task exit). That is the mechanism that lets
//! [`crate::model::explore`] catch publish-without-release bugs.
//!
//! Register instrumented atomics per execution (build them inside the
//! model closure): one in a `static` would outlive the execution that
//! registered it.

pub use std::sync::atomic::Ordering;

use crate::runtime;
use std::sync::OnceLock;

/// Whether `order` publishes the calling task's earlier stores.
fn releases(order: Ordering) -> bool {
    // ordering: inspects the *caller's* ordering, performs no access.
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Declares one instrumented atomic type over the shared `u64`-backed
/// runtime cell; the integer types also get `fetch_add` / `fetch_sub`.
macro_rules! instrumented_atomic {
    ($name:ident, $ty:ty, $to:expr, $from:expr) => {
        /// Instrumented atomic: every access is a scheduler decision
        /// point, and `Relaxed` stores buffer per task (see module
        /// docs).
        #[derive(Debug)]
        pub struct $name {
            initial: u64,
            id: OnceLock<usize>,
        }

        impl $name {
            /// Creates a new atomic holding `value`.
            #[must_use]
            pub fn new(value: $ty) -> Self {
                $name {
                    initial: $to(value),
                    id: OnceLock::new(),
                }
            }

            fn id(&self) -> usize {
                runtime::lazy_id(&self.id, || runtime::atomic_register(self.initial))
            }

            /// Loads the value. Under the model the load may observe a
            /// stale value while another task's `Relaxed` stores are
            /// still buffered — which of the visible values it observes
            /// is a scheduling choice.
            #[must_use]
            pub fn load(&self, _order: Ordering) -> $ty {
                $from(runtime::atomic_load(self.id()))
            }

            /// Stores `value`. `Relaxed` buffers in the storing task;
            /// `Release` and stronger publish the task's whole buffer.
            pub fn store(&self, value: $ty, order: Ordering) {
                runtime::atomic_store(self.id(), $to(value), releases(order));
            }
        }
    };
    ($name:ident, $ty:ty) => {
        instrumented_atomic!($name, $ty, |v: $ty| v as u64, |v: u64| v as $ty);

        impl $name {
            /// Adds `value`, returning the previous value. An RMW acts
            /// on the latest value of its location; `Release` and
            /// stronger also publish the task's whole buffer.
            pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                let add = |v: u64| v.wrapping_add(value as u64);
                runtime::atomic_rmw(self.id(), releases(order), add) as $ty
            }

            /// Subtracts `value`, returning the previous value.
            pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                let sub = |v: u64| v.wrapping_sub(value as u64);
                runtime::atomic_rmw(self.id(), releases(order), sub) as $ty
            }
        }
    };
}

instrumented_atomic!(AtomicU64, u64);
instrumented_atomic!(AtomicUsize, usize);
instrumented_atomic!(AtomicBool, bool, |v: bool| u64::from(v), |v: u64| v != 0);
