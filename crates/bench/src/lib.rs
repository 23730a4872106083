//! Shared benchmark harness for the FITing-Tree reproduction.
//!
//! Three binaries live in `src/bin/`: `paper` (the paper's Table 1,
//! Figures 6–13 and a buffer-split ablation, each with the shape claims
//! it is held to), `durability` (restart recovery vs a cold build) and
//! `slo` (the open-loop tail-latency sweep). This library provides the
//! pieces they share: workload generation, wall-clock measurement, table
//! formatting, and the environment knobs `durability` and `slo` read.

#![warn(missing_docs)]

pub mod driver;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Reads a `usize` knob from the environment (`_` separators allowed).
///
/// # Panics
///
/// Panics naming the variable and its value when the value is set but
/// is not a number.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    env_knob(name, default)
}

/// Generator seed (`FITING_SEED`, default 42).
///
/// # Panics
///
/// Panics when `FITING_SEED` is set but is not a `u64`.
#[must_use]
pub fn default_seed() -> u64 {
    env_knob("FITING_SEED", 42)
}

fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(value) => value
            .replace('_', "")
            .parse()
            .unwrap_or_else(|_| panic!("{name}={value:?} is not a number")),
        Err(_) => default,
    }
}

/// Samples `count` existing keys uniformly at random (the paper's
/// point-lookup workload).
#[must_use]
pub fn sample_probes(keys: &[u64], count: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    (0..count)
        .map(|_| keys[rng.gen_range(0..keys.len())])
        .collect()
}

/// Times `f` over `probes`, returning mean nanoseconds per call.
pub fn time_per_op<T>(probes: &[u64], mut f: impl FnMut(u64) -> T) -> f64 {
    assert!(!probes.is_empty());
    let start = Instant::now();
    for &p in probes {
        black_box(f(black_box(p)));
    }
    start.elapsed().as_nanos() as f64 / probes.len() as f64
}

/// Times `f` over `items`, returning throughput in million ops/second.
pub fn throughput_mops<T>(items: &[u64], f: impl FnMut(u64) -> T) -> f64 {
    1e3 / time_per_op(items, f)
}

/// Measures the machine's random-access latency (the cost model's `c`):
/// a dependent pointer chase over a buffer far larger than L3.
#[must_use]
pub fn measure_cache_miss_ns() -> f64 {
    const SLOTS: usize = 1 << 23; // 32 MB of u32 slots
    const HOPS: usize = 2_000_000;
    let mut rng = StdRng::seed_from_u64(7);
    // Random cyclic permutation (Sattolo) for a dependent chase.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let mut pos = 0u32;
    let start = Instant::now();
    for _ in 0..HOPS {
        pos = next[pos as usize];
    }
    black_box(pos);
    start.elapsed().as_nanos() as f64 / HOPS as f64
}

/// Formats a byte count the way the paper's axes do.
#[must_use]
pub fn fmt_bytes(bytes: usize) -> String {
    const K: f64 = 1024.0;
    let b = bytes as f64;
    if b >= K * K * K {
        format!("{:.2} GB", b / K / K / K)
    } else if b >= K * K {
        format!("{:.2} MB", b / K / K)
    } else if b >= K {
        format!("{:.2} KB", b / K)
    } else {
        format!("{bytes} B")
    }
}

/// Prints a markdown table.
pub fn print_table<C: std::fmt::Display>(title: &str, header: &[&str], rows: &[Vec<C>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Pairs up sorted keys with their ordinal as the value — the standard
/// "indexed attribute → row" table used across the benches.
#[must_use]
pub fn enumerate_pairs(keys: &[u64]) -> Vec<(u64, u64)> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect()
}

/// Deduplicates sorted keys in place and re-enumerates (clustered
/// indexes need unique keys).
#[must_use]
pub fn dedup_pairs(mut keys: Vec<u64>) -> Vec<(u64, u64)> {
    keys.dedup();
    enumerate_pairs(&keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_with_underscores() {
        std::env::set_var("FITING_TEST_KNOB", "1_000_000");
        assert_eq!(env_usize("FITING_TEST_KNOB", 5), 1_000_000);
        assert_eq!(env_usize("FITING_TEST_KNOB_MISSING", 5), 5);
    }

    #[test]
    #[should_panic(expected = "FITING_TEST_GARBAGE=\"abc\" is not a number")]
    fn malformed_knob_panics_with_name_and_value() {
        std::env::set_var("FITING_TEST_GARBAGE", "abc");
        let _ = env_usize("FITING_TEST_GARBAGE", 5);
    }

    #[test]
    fn probes_come_from_the_key_set() {
        let keys: Vec<u64> = (0..1000).map(|k| k * 3).collect();
        let probes = sample_probes(&keys, 100, 1);
        assert_eq!(probes.len(), 100);
        assert!(probes.iter().all(|p| p % 3 == 0));
    }

    #[test]
    fn timing_helpers_return_positive() {
        let probes: Vec<u64> = (0..1000).collect();
        let ns = time_per_op(&probes, |p| p * 2);
        assert!(ns >= 0.0);
        let mops = throughput_mops(&probes, |p| p * 2);
        assert!(mops > 0.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert!(fmt_bytes(3 * 1024 * 1024).contains("MB"));
        assert!(fmt_bytes(2 * 1024 * 1024 * 1024).contains("GB"));
    }

    #[test]
    fn dedup_pairs_reenumerates() {
        let pairs = dedup_pairs(vec![1, 1, 2, 5, 5, 5, 9]);
        assert_eq!(pairs, vec![(1, 0), (2, 1), (5, 2), (9, 3)]);
    }
}
