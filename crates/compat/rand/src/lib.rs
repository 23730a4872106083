//! Offline stand-in for the `rand` crate.
//!
//! This build environment has no network access to crates.io, so the
//! workspace vendors the **API subset it actually uses**: `StdRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::gen_range` over half-open
//! integer and float ranges. Swap this path dependency for the real
//! `rand = "0.8"` in `[workspace.dependencies]` when a registry is
//! reachable; no call site needs to change.
//!
//! The generator behind `StdRng` here is xoshiro256++ seeded through
//! SplitMix64 — not the real crate's ChaCha12, so *sequences differ*
//! from upstream `rand` for the same seed. Everything in this workspace
//! is seed-deterministic and self-consistent, which is the property the
//! datasets and benches actually rely on.

#![warn(missing_docs)]

use std::ops::Range;

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit output (upper half of [`next_u64`](Self::next_u64)).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a deterministic function of
    /// `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Samples from the type's standard distribution (full range for
    /// integers, `[0, 1)` for floats), mirroring `Rng::gen`.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }
}

/// Types with a standard distribution for [`Rng::gen`].
pub trait SampleStandard {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range that knows how to sample one uniform value from itself.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // Lemire multiply-shift over the span; bias is < 2^-64
                // per draw, irrelevant at our workload sizes.
                let span = (self.end as i128 - self.start as i128) as u128;
                let hit = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hit) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = self.start + unit * (self.end - self.start);
        // Rounding can land exactly on the excluded end; fold back.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        let v = self.start + unit * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use super::std_rng::StdRng;
}

mod std_rng {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++.
    ///
    /// Statistically strong for simulation workloads, tiny, and
    /// `Copy`-cheap. **Not** cryptographically secure and **not**
    /// stream-compatible with upstream `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..10).map(|_| r.gen_range(0u64..1_000_000)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..10).map(|_| r.gen_range(0u64..1_000_000)).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(43);
            (0..10).map(|_| r.gen_range(0u64..1_000_000)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
            let i = r.gen_range(-50i64..50);
            assert!((-50..50).contains(&i));
        }
    }

    #[test]
    fn output_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(1);
        let mut buckets = [0usize; 10];
        for _ in 0..100_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(1);
        let _ = r.gen_range(5u64..5);
    }
}
