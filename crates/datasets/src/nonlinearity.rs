//! The paper's non-linearity ratio (Section 7.1.1, Figure 8).
//!
//! For an error threshold `e`, let `S_e` be the number of ShrinkingCone
//! segments covering the dataset. The worst case for a dataset of `|D|`
//! elements is one segment per `e + 1` locations (Theorem 3.1), i.e.
//! `|D| / (e + 1)` segments. The non-linearity ratio normalizes the
//! measured count by that worst case:
//!
//! ```text
//! ratio(e) = S_e · (e + 1) / |D|
//! ```
//!
//! A ratio near 1 means the data is maximally non-linear at scale `e`
//! (periodicity ≈ `e`); a ratio near 0 means the data looks linear at
//! that scale. Figure 8 plots this across `e = 10¹ … 10⁹`: IoT has one
//! dominant bump (day/night cycle), Weblogs several smaller bumps, Maps
//! stays low.

use fiting_plr::{Point, ShrinkingCone};

/// Number of ShrinkingCone segments for sorted `keys` at error `e`.
#[must_use]
pub fn segment_count(keys: &[u64], error: u64) -> usize {
    let mut sc = ShrinkingCone::new(error);
    let mut count = 0usize;
    for (i, &k) in keys.iter().enumerate() {
        if sc.push(Point::new(k as f64, i as u64)).is_some() {
            count += 1;
        }
    }
    if sc.finish().is_some() {
        count += 1;
    }
    count
}

/// The non-linearity ratio at a single error scale.
#[must_use]
pub fn non_linearity_ratio(keys: &[u64], error: u64) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let s = segment_count(keys, error) as f64;
    (s * (error as f64 + 1.0) / keys.len() as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{iot, maps, step};

    #[test]
    fn linear_data_has_near_zero_ratio() {
        let keys: Vec<u64> = (0..100_000u64).collect();
        assert!(non_linearity_ratio(&keys, 100) < 0.01);
    }

    #[test]
    fn step_data_peaks_at_its_period() {
        // Step size 100: at error scales below 100 the data is maximally
        // non-linear; at much larger scales it looks linear.
        let keys = step(100_000, 100);
        let below = non_linearity_ratio(&keys, 50);
        let above = non_linearity_ratio(&keys, 2_000);
        assert!(below > 0.3, "below-period ratio {below}");
        assert!(above < 0.05, "above-period ratio {above}");
        assert!(below > 5.0 * above);
    }

    #[test]
    fn iot_is_less_linear_than_maps_at_its_period() {
        // The defining Figure 8 relationship. For 200k IoT events over a
        // year the daily duty cycle is ~550 positions long, so the bump
        // sits in the 100–1000 scale band; Maps stays flat there. (At
        // scales within a factor of ~10 of |D| the normalization
        // saturates for every dataset, so the comparison band matters.)
        let n = 200_000;
        let iot_keys = iot(n, 21);
        let maps_keys = maps(n, 21);
        let peak = |keys: &[u64]| {
            [100, 300, 1000]
                .map(|e| non_linearity_ratio(keys, e))
                .into_iter()
                .fold(0.0, f64::max)
        };
        let (iot_peak, maps_peak) = (peak(&iot_keys), peak(&maps_keys));
        assert!(
            iot_peak > 1.5 * maps_peak,
            "IoT peak {iot_peak:.3} not clearly above Maps peak {maps_peak:.3}"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(non_linearity_ratio(&[], 10), 0.0);
        assert_eq!(segment_count(&[], 10), 0);
    }
}
