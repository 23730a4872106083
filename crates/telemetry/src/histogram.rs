//! Log-bucketed HDR-style latency histogram.
//!
//! The layout is fixed at compile time (same for every histogram, so
//! any two snapshots merge): values below 2⁷ ns get one exact bucket
//! each, and every power-of-two octave above that is divided into
//! 2⁷ = 128 linear sub-buckets. 30 octaves cover 128 ns .. 2³⁷ ns
//! (~137 s ⊇ the 1 ns – 100 s target range) for a total of
//! [`BUCKETS`] = 3968 buckets — 31 KiB of `AtomicU64` per histogram.
//!
//! Guarantees:
//!
//! * **O(1) record** — one `leading_zeros` + shift to find the bucket,
//!   then three relaxed `fetch_add`/`fetch_max` — no locks, no
//!   allocation, wait-free. Recording can never block a reader or
//!   worker hot path.
//! * **≤ 1 % relative error** — a bucket in octave *m* spans
//!   2^(m−7) ns and starts at ≥ 128·2^(m−7) ns, so reporting the
//!   bucket midpoint is at most 1/256 ≈ 0.4 % from any value the
//!   bucket holds (≤ 1/128 after the exact-max clamp).
//! * **Exact `count` and `max`** — the total is the sum of bucket
//!   counts and the maximum is tracked exactly in a dedicated atomic,
//!   not reconstructed from a bucket boundary.
//! * **Mergeable** — [`HistogramSnapshot::merge`] adds bucket vectors
//!   elementwise, so per-thread histograms combine losslessly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: 2⁷ linear sub-buckets per octave.
const SUB_BITS: u32 = 7;
/// Sub-buckets per octave (and the count of exact low buckets).
const SUBS: usize = 1 << SUB_BITS;
/// Highest octave index (values of 2³⁶ ..= 2³⁷−1 ns land here).
const TOP_OCTAVE: u32 = 36;
/// Total bucket count: 128 exact + 30 octaves × 128 sub-buckets.
pub(crate) const BUCKETS: usize = SUBS + (TOP_OCTAVE - SUB_BITS + 1) as usize * SUBS;
/// Largest value (ns) the bucket layout resolves; larger records
/// saturate into the final bucket (their exact value still reaches
/// [`HistogramSnapshot::max`]).
pub(crate) const MAX_TRACKABLE_NANOS: u64 = (1 << (TOP_OCTAVE + 1)) - 1;

/// Bucket index for a value, O(1).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        return value as usize;
    }
    let v = value.min(MAX_TRACKABLE_NANOS);
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) as usize - SUBS;
    SUBS + (octave - SUB_BITS) as usize * SUBS + sub
}

/// Midpoint of a bucket's value range — what percentile readout
/// reports for values that landed in it.
#[inline]
fn bucket_mid(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let octave = SUB_BITS + ((index - SUBS) / SUBS) as u32;
    let sub = ((index - SUBS) % SUBS) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    (SUBS as u64 + sub) * width + width / 2
}

/// A concurrent latency histogram in nanoseconds.
///
/// Any number of threads may [`record`](Self::record) concurrently;
/// readout goes through an immutable [`snapshot`](Self::snapshot).
///
/// ```
/// use fiting_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for ns in [900, 1_000, 1_100, 2_000_000] {
///     h.record(ns);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 4);
/// assert_eq!(snap.max(), 2_000_000); // max is exact
/// // p50 is within the layout's 1% relative-error bound.
/// let p50 = snap.percentile(50.0) as f64;
/// assert!((p50 - 1_000.0).abs() / 1_000.0 <= 0.01);
/// ```
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Sum of recorded values (wrapping; mean is advisory).
    sum: AtomicU64,
    /// Exact maximum recorded value.
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds). O(1), wait-free: one bucket
    /// `fetch_add` plus the sum/max updates, all relaxed.
    ///
    /// ```
    /// let h = fiting_telemetry::Histogram::new();
    /// h.record(42);
    /// assert_eq!(h.snapshot().count(), 1);
    /// ```
    #[inline]
    pub fn record(&self, nanos: u64) {
        // ordering: Relaxed throughout — each counter is independent
        // and only read through `snapshot`, which tolerates (and
        // documents) cross-bucket skew; no other memory is published
        // by a record.
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a [`Duration`], saturating at `u64::MAX` nanoseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// An immutable copy of the current counts.
    ///
    /// Taken with relaxed loads while writers keep recording, so two
    /// buckets may be from slightly different instants; every count
    /// that landed before the snapshot began is included, and totals
    /// are monotone between successive snapshots.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed loads — see `record`; snapshot consistency
        // is per-bucket monotonicity, not a cross-bucket atomic cut.
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("max", &snap.max())
            .finish_non_exhaustive()
    }
}

/// An immutable point-in-time copy of a [`Histogram`]: percentile
/// readout and lossless merging live here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    #[must_use]
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Total number of recorded values (exact).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value in nanoseconds (exact, even past
    /// `MAX_TRACKABLE_NANOS`); 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value in nanoseconds (advisory: the sum wraps at
    /// `u64::MAX`); 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0–100) in nanoseconds, within the
    /// layout's ≤ 1 % relative-error bound; `p >= 100` returns the
    /// exact [`max`](Self::max), and an empty snapshot returns 0.
    ///
    /// ```
    /// let h = fiting_telemetry::Histogram::new();
    /// for ns in 1..=1000 {
    ///     h.record(ns * 1_000); // 1µs .. 1ms
    /// }
    /// let snap = h.snapshot();
    /// let p99 = snap.percentile(99.0) as f64;
    /// assert!((p99 - 990_000.0).abs() / 990_000.0 <= 0.01);
    /// assert_eq!(snap.percentile(100.0), 1_000_000);
    /// ```
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 100.0 {
            return self.max;
        }
        // Rank of the requested quantile, 1-based, clamped into range.
        let rank = ((p.max(0.0) / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The exact max caps the report: no observed value
                // exceeds it, and clamping keeps percentile(p) ≤
                // percentile(100) monotone.
                return bucket_mid(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds another snapshot's counts into this one (elementwise —
    /// lossless because every histogram shares one fixed layout).
    /// Associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_exhaustive_and_monotone() {
        // Every index round-trips through its own midpoint, and bucket
        // boundaries are strictly increasing.
        let mut prev = None;
        for i in 0..BUCKETS {
            let mid = bucket_mid(i);
            assert_eq!(bucket_index(mid), i, "midpoint of bucket {i} maps back");
            if let Some(p) = prev {
                assert!(mid > p, "bucket mids must ascend at {i}");
            }
            prev = Some(mid);
        }
        // The full u64 range maps somewhere.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(MAX_TRACKABLE_NANOS), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_bound_holds_for_every_value_class() {
        // Sweep values across all octaves: the reported midpoint of
        // the bucket a value lands in is within 1% of the value.
        let mut v = 1u64;
        while v < MAX_TRACKABLE_NANOS / 2 {
            for value in [v, v + v / 3, v * 2 - 1] {
                let mid = bucket_mid(bucket_index(value));
                let err = (mid as f64 - value as f64).abs() / value as f64;
                assert!(err <= 0.01, "value {value}: mid {mid}, err {err}");
            }
            v *= 2;
        }
    }

    #[test]
    fn count_and_max_are_exact() {
        let h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 37 + 1);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.max(), 9_999 * 37 + 1);
    }

    #[test]
    fn overflow_saturates_but_max_stays_exact() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(200_000_000_000); // 200s > 137s trackable
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.percentile(100.0), u64::MAX);
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 0..5_000u64 {
            let v = i.wrapping_mul(0x9e37_79b9) % 1_000_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per = 20_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per {
                        h.record((t * per + i) % 77_777 + 1);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), threads * per);
    }
}
