//! Lock-free counters behind cache-padded atomics.
//!
//! Hot-path instruments: recording is a single relaxed atomic
//! operation, and each instrument owns its own cache line so two
//! counters incremented by different threads never false-share.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic event counter. Incrementing is one relaxed `fetch_add`
/// on an atomic — wait-free, never blocks a hot path. The counter is
/// aligned (and so padded) to 128 bytes, two 64-byte cache lines, so
/// the adjacent-line prefetcher cannot couple neighbouring instruments
/// either.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Counter {
        Counter {
            cell: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — the counter is an independent statistic;
        // readers only need eventual per-counter monotonicity, never a
        // happens-before edge with other memory.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — see `add`.
        self.cell.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn padding_gives_each_instrument_its_own_lines() {
        assert_eq!(std::mem::align_of::<Counter>(), 128);
        assert!(std::mem::size_of::<[Counter; 2]>() >= 256);
    }
}
