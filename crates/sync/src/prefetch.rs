//! A read-prefetch hint: ask for a cache line before the load that
//! needs it, so two misses whose addresses are both known overlap
//! instead of queueing behind each other.

/// Hints that the cache line holding `*value` will be read soon. It
/// reads nothing, never faults, and never changes what a later load
/// observes, so a safe reference is the whole contract. x86-64 issues
/// `prefetcht0`; every other architecture compiles this to nothing.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // safety: `prefetcht0` is a hint, not an access — it cannot
        // fault or write and is architecturally a no-op on an address
        // that is not backed, so the dangling (but aligned) pointer of
        // a zero-sized `T` is as fine as a live one; SSE, the feature
        // the intrinsic is gated on, is part of the x86-64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(value).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_hint_on_every_kind_of_reference() {
        let run: Vec<u64> = (0..1_000).collect();
        prefetch_read(&run[0]);
        prefetch_read(&run[run.len() - 1]);
        assert_eq!(run, (0..1_000).collect::<Vec<u64>>());

        // Zero-sized: the reference is dangling but aligned.
        prefetch_read(&());

        // A one-byte heap allocation: the line extends past the object.
        let boxed = Box::new(7u8);
        prefetch_read(&*boxed);
        assert_eq!(*boxed, 7);
    }
}
