//! Indexable key types.
//!
//! Moved here from the `fiting-tree` core crate so that every index
//! structure in the workspace — and the [`SortedIndex`](crate::SortedIndex)
//! trait itself — can share one definition without depending on the
//! FITing-Tree implementation. `fiting_tree::Key` remains available as a
//! re-export.

use std::fmt::Debug;

/// A key a sorted index can hold: totally ordered, cheap to copy, and
/// projectable to `f64` for interpolation.
///
/// The projection must be **monotone**: `a <= b` implies
/// `a.to_f64() <= b.to_f64()`. It need not be injective — distinct keys
/// may project to the same `f64` (e.g. u64 keys above 2⁵³, or any u128
/// span wider than 53 bits); the learned index only uses the projection
/// to *predict* a position and always verifies with exact `Ord`
/// comparisons, so lossy projection costs accuracy (a wider effective
/// error), never correctness.
pub trait Key: Copy + Ord + Debug + 'static {
    /// Width in bytes of the fixed little-endian encoding written by
    /// [`to_le_bytes`](Self::to_le_bytes). At most
    /// [`KeyBytes::MAX_LEN`]; every value of the type encodes to
    /// exactly this many bytes, which is what lets the durability
    /// layer lay keys out as fixed-width on-disk records.
    const ENCODED_LEN: usize;

    /// Monotone projection into interpolation space.
    fn to_f64(self) -> f64;

    /// Fixed-width little-endian encoding of the key.
    ///
    /// The encoding must round-trip exactly through
    /// [`from_le_bytes`](Self::from_le_bytes) and always occupy
    /// [`ENCODED_LEN`](Self::ENCODED_LEN) bytes. It is the shared wire
    /// format of the WAL and snapshot writers in `fiting-storage`.
    fn to_le_bytes(self) -> KeyBytes;

    /// Decodes a key previously written by
    /// [`to_le_bytes`](Self::to_le_bytes).
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len() != Self::ENCODED_LEN`. Callers (the
    /// WAL/snapshot readers) validate record lengths and checksums
    /// before slicing, so a length mismatch is a logic error, not a
    /// recoverable condition.
    fn from_le_bytes(bytes: &[u8]) -> Self;
}

/// A small stack buffer holding one encoded key — the return type of
/// [`Key::to_le_bytes`], sized for the widest supported key (a
/// composite of a 16-byte `u128`/`i128` plus an 8-byte discriminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyBytes {
    buf: [u8; Self::MAX_LEN],
    len: u8,
}

impl KeyBytes {
    /// Capacity of the buffer; no key type encodes wider than this.
    pub const MAX_LEN: usize = 24;

    /// Copies `bytes` into a fresh buffer.
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len() > Self::MAX_LEN`.
    #[must_use]
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= Self::MAX_LEN, "key encoding too wide");
        let mut buf = [0u8; Self::MAX_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        KeyBytes {
            buf,
            len: bytes.len() as u8,
        }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl AsRef<[u8]> for KeyBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for KeyBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

macro_rules! impl_key_int {
    ($($t:ty),*) => {$(
        impl Key for $t {
            const ENCODED_LEN: usize = std::mem::size_of::<$t>();

            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn to_le_bytes(self) -> KeyBytes {
                KeyBytes::new(&<$t>::to_le_bytes(self))
            }

            #[inline]
            fn from_le_bytes(bytes: &[u8]) -> Self {
                let mut raw = [0u8; std::mem::size_of::<$t>()];
                raw.copy_from_slice(bytes);
                <$t>::from_le_bytes(raw)
            }
        }
    )*};
}

impl_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// 128-bit keys (timestamp nanoseconds, UUID prefixes) project through
// the same `as` cast. Unlike the 64-bit case this is *heavily* lossy —
// only the top 53 bits survive — but `as f64` rounds to nearest, which
// preserves `<=` ordering, and u128::MAX (~3.4e38) is far below
// f64::MAX, so the projection saturates gracefully instead of
// overflowing to infinity.
impl_key_int!(u128, i128);

/// A totally ordered, NaN-free `f64` wrapper so floating-point attributes
/// (coordinates, sensor readings) can be indexed.
///
/// Construction rejects NaN; ordering is then the usual numeric order
/// (`total_cmp`, which for non-NaN values matches `<`/`==` except that
/// `-0.0 < 0.0`). Equality agrees with that order: `-0.0` and `0.0` are
/// two distinct keys (which share one `to_f64` abscissa).
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wraps a finite-or-infinite (non-NaN) value. `±∞` are ordinary
    /// keys — the smallest and largest there are; having no finite
    /// distance to any neighbour, each gets a model segment of its own.
    ///
    /// Returns `None` for NaN.
    #[must_use]
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            Some(OrderedF64(v))
        }
    }

    /// The wrapped value.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

// Not derived: `f64`'s `==` says `-0.0 == 0.0`, which `cmp` (and so
// every search that ends in a key comparison) does not.
impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Key for OrderedF64 {
    const ENCODED_LEN: usize = 8;

    #[inline]
    fn to_f64(self) -> f64 {
        self.0
    }

    // Encoded as the *total-order* bit image: flip all bits of
    // negative values, flip only the sign bit of non-negative ones.
    // The resulting u64 compares (as an unsigned integer) exactly like
    // `total_cmp` on the floats, so fixed-width on-disk keys stay
    // order-preserving, and the mapping is a bijection — the round
    // trip is bit-exact, including -0.0 vs 0.0 and infinities.
    #[inline]
    fn to_le_bytes(self) -> KeyBytes {
        let b = self.0.to_bits();
        let ordered = if b >> 63 == 1 { !b } else { b ^ (1 << 63) };
        KeyBytes::new(&ordered.to_le_bytes())
    }

    #[inline]
    fn from_le_bytes(bytes: &[u8]) -> Self {
        let ordered = u64::from_le_bytes(bytes.try_into().expect("8-byte f64 encoding"));
        let b = if ordered >> 63 == 1 {
            ordered ^ (1 << 63)
        } else {
            !ordered
        };
        OrderedF64(f64::from_bits(b))
    }
}

impl TryFrom<f64> for OrderedF64 {
    type Error = &'static str;

    fn try_from(v: f64) -> Result<Self, Self::Error> {
        OrderedF64::new(v).ok_or("NaN is not an indexable key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_projection_is_monotone() {
        let keys = [0u64, 1, 1 << 20, u64::MAX / 2, u64::MAX];
        for w in keys.windows(2) {
            assert!(w[0].to_f64() <= w[1].to_f64());
        }
        assert_eq!((-5i64).to_f64(), -5.0);
    }

    #[test]
    fn huge_u64_projection_is_lossy_but_monotone() {
        // Above 2^53 the projection collapses neighbours — allowed.
        let a = (1u64 << 60) + 1;
        let b = (1u64 << 60) + 2;
        assert!(a.to_f64() <= b.to_f64());
    }

    #[test]
    fn u128_projection_is_monotone_and_finite() {
        // Timestamp-nanosecond scale (~2^90) and UUID-prefix scale
        // (~2^122) both stay finite and ordered.
        let keys = [
            0u128,
            1,
            1 << 53,
            (1 << 53) + 1,
            1 << 90,
            (1 << 90) + 1_000_000,
            1 << 122,
            u128::MAX / 2,
            u128::MAX - 1,
            u128::MAX,
        ];
        for w in keys.windows(2) {
            assert!(
                w[0].to_f64() <= w[1].to_f64(),
                "{:?} > {:?}",
                w[0].to_f64(),
                w[1].to_f64()
            );
        }
        assert!(u128::MAX.to_f64().is_finite());
    }

    #[test]
    fn i128_projection_is_monotone_across_zero() {
        let keys = [
            i128::MIN,
            i128::MIN / 2,
            -(1i128 << 90),
            -1,
            0,
            1,
            1 << 90,
            i128::MAX / 2,
            i128::MAX,
        ];
        for w in keys.windows(2) {
            assert!(w[0].to_f64() <= w[1].to_f64());
        }
        assert!(i128::MIN.to_f64().is_finite());
        assert!(i128::MAX.to_f64().is_finite());
    }

    #[test]
    fn ordered_f64_rejects_nan() {
        assert!(OrderedF64::new(f64::NAN).is_none());
        assert!(OrderedF64::try_from(f64::NAN).is_err());
        assert!(OrderedF64::new(f64::INFINITY).is_some());
    }

    #[test]
    fn ordered_f64_equality_agrees_with_its_order() {
        let (neg, pos) = (OrderedF64(-0.0), OrderedF64(0.0));
        assert!(neg < pos);
        assert_ne!(neg, pos);
        assert_eq!(neg, OrderedF64(-0.0));
    }

    fn roundtrip<K: Key>(keys: &[K]) {
        for &k in keys {
            let enc = k.to_le_bytes();
            assert_eq!(enc.len(), K::ENCODED_LEN, "{k:?} encoded width");
            assert_eq!(K::from_le_bytes(enc.as_slice()), k, "{k:?} round trip");
        }
    }

    #[test]
    fn integer_codecs_round_trip() {
        roundtrip(&[0u32, 1, u32::MAX / 2, u32::MAX]);
        roundtrip(&[0u64, 1, 1 << 53, u64::MAX - 1, u64::MAX]);
        roundtrip(&[0u128, 1 << 90, u128::MAX]);
        roundtrip(&[i32::MIN, -1, 0, 1, i32::MAX]);
        roundtrip(&[i64::MIN, -(1 << 53), 0, i64::MAX]);
        roundtrip(&[i128::MIN, -1, 0, i128::MAX]);
        roundtrip(&[0u8, 255]);
        roundtrip(&[i16::MIN, 0, i16::MAX]);
        roundtrip(&[0usize, usize::MAX]);
        roundtrip(&[isize::MIN, isize::MAX]);
        assert_eq!(<u32 as Key>::ENCODED_LEN, 4);
        assert_eq!(<u128 as Key>::ENCODED_LEN, 16);
        // Little-endian on the wire, regardless of host convention.
        assert_eq!(0x0102_0304u32.to_le_bytes().as_slice(), &[4, 3, 2, 1]);
    }

    #[test]
    fn ordered_f64_codec_round_trips_bit_exactly() {
        let keys = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for &v in &keys {
            let k = OrderedF64(v);
            let back = OrderedF64::from_le_bytes(k.to_le_bytes().as_slice());
            assert_eq!(back.get().to_bits(), v.to_bits(), "{v} round trip");
        }
    }

    #[test]
    fn ordered_f64_encoding_preserves_total_order() {
        // The u64 image (LE-decoded) must be strictly increasing in
        // total_cmp order — the property that makes fixed-width disk
        // keys comparable without decoding.
        let keys = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.5,
            -0.0,
            0.0,
            1.5,
            1.0e300,
            f64::INFINITY,
        ];
        let images: Vec<u64> = keys
            .iter()
            .map(|&v| {
                let enc = OrderedF64(v).to_le_bytes();
                u64::from_le_bytes(enc.as_slice().try_into().unwrap())
            })
            .collect();
        for w in images.windows(2) {
            assert!(w[0] < w[1], "ordered image not increasing: {w:?}");
        }
    }

    #[test]
    fn ordered_f64_sorts_numerically() {
        let mut v = [
            OrderedF64::new(3.5).unwrap(),
            OrderedF64::new(-1.0).unwrap(),
            OrderedF64::new(2.0).unwrap(),
        ];
        v.sort();
        assert_eq!(v[0].get(), -1.0);
        assert_eq!(v[2].get(), 3.5);
    }
}
