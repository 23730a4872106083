//! Instrumented atomic stand-ins (`AtomicU64` / `AtomicUsize` /
//! `AtomicBool`) with `std::sync::atomic` signatures.
//!
//! Under the model, every access is a scheduler decision point, and
//! `Ordering::Relaxed` stores park in the storing task's store buffer —
//! other tasks may observe the pre-store value until the buffer commits
//! (at a `Release`-or-stronger store, an RMW, or task exit). That is
//! the mechanism that lets [`crate::model::check`] catch
//! publish-without-release bugs.

pub use std::sync::atomic::Ordering;

use crate::runtime;
use std::sync::OnceLock;

/// Declares one instrumented atomic type over the shared `u64`-backed
/// runtime cell.
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
                // ordering: inspects the *caller's* ordering — Relaxed
                // buffers in the store buffer, stronger commits.
                runtime::atomic_store(self.id(), $to(value), matches!(order, Ordering::Relaxed));
            }

            /// Swaps in `value`, returning the previous value.
            pub fn swap(&self, value: $ty, _order: Ordering) -> $ty {
                $from(runtime::atomic_rmw(self.id(), |_| $to(value)))
            }

            /// Stores `new` iff the current value equals `current`;
            /// returns the previous value as `Ok` (stored) / `Err`.
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$ty, $ty> {
                runtime::atomic_compare_exchange(self.id(), $to(current), $to(new))
                    .map($from)
                    .map_err($from)
            }
        }
    };
}

instrumented_atomic!(AtomicU64, u64, |v: u64| v, |v: u64| v);
instrumented_atomic!(AtomicUsize, usize, |v: usize| v as u64, |v: u64| v as usize);
instrumented_atomic!(AtomicBool, bool, |v: bool| u64::from(v), |v: u64| v != 0);

impl AtomicU64 {
    /// Adds `value`, returning the previous value. RMWs always act on
    /// the latest value (all buffers for this location commit first).
    pub fn fetch_add(&self, value: u64, _order: Ordering) -> u64 {
        runtime::atomic_rmw(self.id(), |v| v.wrapping_add(value))
    }

    /// Subtracts `value`, returning the previous value.
    pub fn fetch_sub(&self, value: u64, _order: Ordering) -> u64 {
        runtime::atomic_rmw(self.id(), |v| v.wrapping_sub(value))
    }

    /// Stores the maximum of the current value and `value`, returning
    /// the previous value.
    pub fn fetch_max(&self, value: u64, _order: Ordering) -> u64 {
        runtime::atomic_rmw(self.id(), |v| v.max(value))
    }
}

impl AtomicUsize {
    /// Adds `value`, returning the previous value.
    pub fn fetch_add(&self, value: usize, _order: Ordering) -> usize {
        runtime::atomic_rmw(self.id(), |v| v.wrapping_add(value as u64)) as usize
    }

    /// Subtracts `value`, returning the previous value.
    pub fn fetch_sub(&self, value: usize, _order: Ordering) -> usize {
        runtime::atomic_rmw(self.id(), |v| v.wrapping_sub(value as u64)) as usize
    }
}
