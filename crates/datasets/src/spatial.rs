//! Spatial attribute datasets: coordinate mixtures with duplicates.
//!
//! Coordinates are emitted as fixed-point `u64` keys (degrees scaled by
//! 10⁷, offset to stay non-negative), matching how a database would
//! index them. Duplicates are expected — the paper indexes Maps
//! longitudes with a *non-clustered* FITing-Tree for exactly this
//! reason.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIXED_POINT: f64 = 10_000_000.0; // 1e7 per degree

/// Samples a standard normal via Box–Muller (keeps us inside the
/// approved `rand` dependency instead of pulling `rand_distr`).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

/// Degrees → sorted fixed-point keys.
fn to_keys(mut degrees: Vec<f64>, offset: f64) -> Vec<u64> {
    let mut keys: Vec<u64> = degrees
        .drain(..)
        .map(|d| ((d + offset) * FIXED_POINT).max(0.0) as u64)
        .collect();
    keys.sort_unstable();
    keys
}

/// A clustered spatial mixture: `centers` hotspots with normal spread
/// `sigma` degrees, plus a `background` fraction of uniform mass over
/// `[lo, hi]`.
fn mixture(
    n: usize,
    seed: u64,
    centers: usize,
    sigma: f64,
    background: f64,
    lo: f64,
    hi: f64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Hotspot locations and popularity weights (Zipf-ish: weight ∝ 1/rank).
    let hotspots: Vec<f64> = (0..centers).map(|_| rng.gen_range(lo..hi)).collect();
    let total_weight: f64 = (1..=centers).map(|r| 1.0 / r as f64).sum();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen::<f64>() < background {
            out.push(rng.gen_range(lo..hi));
        } else {
            // Pick a hotspot by 1/rank weight.
            let mut pick = rng.gen::<f64>() * total_weight;
            let mut idx = 0;
            for r in 1..=centers {
                pick -= 1.0 / r as f64;
                if pick <= 0.0 {
                    idx = r - 1;
                    break;
                }
            }
            let v = hotspots[idx] + normal(&mut rng) * sigma;
            out.push(v.clamp(lo, hi));
        }
    }
    out
}

/// Longitudes of world map features (paper's Maps dataset, ≈2B OSM
/// points in the original).
///
/// Many hotspots with a generous uniform background keeps the CDF
/// near-linear at small scales — the paper's Figure 8 shows Maps as the
/// most linear of the three headline datasets.
#[must_use]
pub fn maps(n: usize, seed: u64) -> Vec<u64> {
    let degrees = mixture(n, seed, 512, 1.5, 0.35, -180.0, 180.0);
    to_keys(degrees, 180.0)
}

/// Taxi dropoff latitudes: tightly clustered around a city's latitude
/// band (Table 1's `Taxi drop lat`).
#[must_use]
pub(crate) fn taxi_drop_lat(n: usize, seed: u64) -> Vec<u64> {
    let degrees = mixture(n, seed.wrapping_add(0x1a7), 24, 0.015, 0.05, 40.55, 41.0);
    to_keys(degrees, 0.0)
}

/// Taxi dropoff longitudes: a different hotspot structure over the
/// city's longitude band (Table 1's `Taxi drop lon`).
#[must_use]
pub(crate) fn taxi_drop_lon(n: usize, seed: u64) -> Vec<u64> {
    let degrees = mixture(n, seed.wrapping_add(0x10a), 16, 0.02, 0.05, -74.1, -73.7);
    to_keys(degrees, 180.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_covers_the_globe() {
        let keys = maps(50_000, 1);
        let lo = *keys.first().unwrap() as f64 / FIXED_POINT - 180.0;
        let hi = *keys.last().unwrap() as f64 / FIXED_POINT - 180.0;
        assert!(lo < -150.0, "min longitude {lo}");
        assert!(hi > 150.0, "max longitude {hi}");
    }

    #[test]
    fn taxi_coordinates_stay_in_band() {
        let lat = taxi_drop_lat(20_000, 2);
        let to_deg = |k: u64| k as f64 / FIXED_POINT;
        assert!(to_deg(lat[0]) >= 40.5);
        assert!(to_deg(lat[lat.len() - 1]) <= 41.01);
        let lon = taxi_drop_lon(20_000, 2);
        let to_lon = |k: u64| k as f64 / FIXED_POINT - 180.0;
        assert!(to_lon(lon[0]) >= -74.2);
        assert!(to_lon(lon[lon.len() - 1]) <= -73.69);
    }

    #[test]
    fn spatial_data_is_clustered() {
        // Hotspot mass concentrates keys: the densest 10% of the key
        // range must hold far more than 10% of the keys.
        let keys = taxi_drop_lat(50_000, 3);
        let n = keys.len();
        let lo = keys[0];
        let width = (keys[n - 1] - lo).max(1);
        let mut hist = [0usize; 100];
        for &k in &keys {
            let b = (((k - lo) as u128 * 100) / (width as u128 + 1)) as usize;
            hist[b.min(99)] += 1;
        }
        hist.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = hist[..10].iter().sum();
        // At least double the uniform share (0.1): clustered at every
        // RNG stream, not just a lucky hotspot draw (observed range
        // across seeds is ~0.24–0.39).
        assert!(
            top10 as f64 / n as f64 > 0.2,
            "top-decile share {:.2} — not clustered",
            top10 as f64 / n as f64
        );
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
