//! Seeded synthetic datasets for the FITing-Tree reproduction.
//!
//! The paper's evaluation (Section 7) runs on four real-world sources
//! that are not redistributable: a 14-year departmental web log
//! (*Weblogs*, ≈715M rows), a university-building IoT sensor log (*IoT*,
//! ≈5M rows, the authors' own), OpenStreetMap longitudes (*Maps*, ≈2B
//! rows), and three attributes of the NYC Taxi trip records (Table 1).
//!
//! What drives FITing-Tree performance is not the raw data but the
//! *shape* of the key → position function — its periodicity and local
//! linearity (Section 7.1.1, Figure 8). Each generator here is an
//! inhomogeneous arrival process (or spatial mixture) tuned to reproduce
//! the paper's description of that shape:
//!
//! * [`weblogs`] — multi-period human traffic: daily cycle × weekday ×
//!   academic-year seasonality ⇒ several non-linearity bumps at
//!   different scales.
//! * [`iot`] — building sensors driven by class schedules: a hard
//!   day/night duty cycle ⇒ one pronounced non-linearity bump (the
//!   paper's strongest, around 10⁴).
//! * [`maps`] — longitudes of world features: clustered around
//!   population centers but near-linear at small scales.
//! * [`taxi_pickup_time`] and [`Dataset`]'s two taxi drop-off
//!   coordinates — the Table 1 attributes: rush-hour periodic timestamps and spatially
//!   clustered coordinates.
//! * [`step`] — the synthetic worst case of Figure 9: a staircase whose
//!   step size separates the "one segment per step" and "one segment
//!   total" regimes.
//!
//! All generators are deterministic in `(n, seed)` and return **sorted**
//! `u64` keys, ready for bulk loading. [`nonlinearity`] implements the
//! Figure 8 metric.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrivals;
pub mod nonlinearity;
mod spatial;

pub use arrivals::{iot, taxi_pickup_time, weblogs};
pub use spatial::maps;
use spatial::{taxi_drop_lat, taxi_drop_lon};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Figure 9 worst case: a staircase with `step_size` duplicate keys
/// per step.
///
/// With error threshold `≤ step_size / 2` every step needs at least one
/// segment; with error `≥ step_size` a single segment of slope 1 covers
/// the whole dataset — the cliff in Figure 9b, which ShrinkingCone
/// reaches before the step size (one segment at `step_size − 1`).
#[must_use]
pub fn step(n: usize, step_size: u64) -> Vec<u64> {
    assert!(step_size >= 1, "step size must be positive");
    (0..n as u64).map(|i| (i / step_size) * step_size).collect()
}

/// Uniform random keys over the full `u64` range (deduplicated, sorted).
/// Uniform data is the friendliest case: near-linear everywhere.
#[must_use]
pub fn uniform(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 1).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Post-processes sorted keys into strictly increasing ones by nudging
/// duplicates forward — used when a generator's keys become a clustered
/// index's primary key (the paper's Weblogs/IoT timestamps).
pub fn make_strictly_increasing(keys: &mut [u64]) {
    let mut last: Option<u64> = None;
    for k in keys.iter_mut() {
        if let Some(prev) = last {
            if *k <= prev {
                *k = prev + 1;
            }
        }
        last = Some(*k);
    }
}

/// A named dataset the benchmark harness can instantiate by
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Web-server request timestamps (clustered index).
    Weblogs,
    /// Building-sensor event timestamps (clustered index).
    Iot,
    /// Feature longitudes (non-clustered index; duplicates allowed).
    Maps,
    /// Taxi pickup timestamps (Table 1).
    TaxiPickupTime,
    /// Taxi dropoff latitudes (Table 1).
    TaxiDropLat,
    /// Taxi dropoff longitudes (Table 1).
    TaxiDropLon,
    /// Figure 9 staircase with the given step size.
    Step(u64),
    /// Uniform random keys.
    Uniform,
}

impl Dataset {
    /// Generates `n` sorted keys with the given seed.
    #[must_use]
    pub fn generate(self, n: usize, seed: u64) -> Vec<u64> {
        match self {
            Dataset::Weblogs => weblogs(n, seed),
            Dataset::Iot => iot(n, seed),
            Dataset::Maps => maps(n, seed),
            Dataset::TaxiPickupTime => taxi_pickup_time(n, seed),
            Dataset::TaxiDropLat => taxi_drop_lat(n, seed),
            Dataset::TaxiDropLon => taxi_drop_lon(n, seed),
            Dataset::Step(s) => step(n, s),
            Dataset::Uniform => uniform(n, seed),
        }
    }

    /// Short display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Weblogs => "Weblogs",
            Dataset::Iot => "IoT",
            Dataset::Maps => "Maps",
            Dataset::TaxiPickupTime => "Taxi pick time",
            Dataset::TaxiDropLat => "Taxi drop lat",
            Dataset::TaxiDropLon => "Taxi drop lon",
            Dataset::Step(_) => "Step",
            Dataset::Uniform => "Uniform",
        }
    }

    /// Whether duplicate keys may occur (true for the spatial datasets,
    /// which the paper indexes with a non-clustered FITing-Tree).
    #[must_use]
    pub fn has_duplicates(self) -> bool {
        matches!(
            self,
            Dataset::Maps | Dataset::TaxiDropLat | Dataset::TaxiDropLon | Dataset::Step(_)
        )
    }

    /// The three headline datasets of Figures 6–8.
    #[must_use]
    pub fn headline() -> [Dataset; 3] {
        [Dataset::Weblogs, Dataset::Iot, Dataset::Maps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_sorted_and_sized() {
        for ds in [
            Dataset::Weblogs,
            Dataset::Iot,
            Dataset::Maps,
            Dataset::TaxiPickupTime,
            Dataset::TaxiDropLat,
            Dataset::TaxiDropLon,
            Dataset::Step(100),
            Dataset::Uniform,
        ] {
            let keys = ds.generate(10_000, 42);
            assert!(!keys.is_empty(), "{}", ds.name());
            assert!(
                keys.len() >= 9_000,
                "{} produced only {} keys",
                ds.name(),
                keys.len()
            );
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "{} keys not sorted",
                ds.name()
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for ds in Dataset::headline() {
            assert_eq!(ds.generate(5_000, 7), ds.generate(5_000, 7));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(weblogs(5_000, 1), weblogs(5_000, 2));
    }

    #[test]
    fn clustered_generators_strictly_increase() {
        for ds in [Dataset::Weblogs, Dataset::Iot, Dataset::TaxiPickupTime] {
            let keys = ds.generate(20_000, 3);
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "{} has duplicate timestamps",
                ds.name()
            );
        }
    }

    #[test]
    fn step_shape() {
        let keys = step(1000, 100);
        assert_eq!(keys[0], 0);
        assert_eq!(keys[99], 0);
        assert_eq!(keys[100], 100);
        assert_eq!(keys[999], 900);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn step_rejects_zero() {
        let _ = step(10, 0);
    }

    #[test]
    fn make_strictly_increasing_fixes_duplicates() {
        let mut keys = vec![1, 1, 1, 5, 5, 9];
        make_strictly_increasing(&mut keys);
        assert_eq!(keys, vec![1, 2, 3, 5, 6, 9]);
    }

    #[test]
    fn uniform_basics() {
        let u = uniform(1000, 9);
        assert!(u.len() > 990); // dedup removes at most a few
    }
}
