//! Differential battery for the rebuilt read hot path: the flat SoA
//! segment directory + branchless bounded window search, pitted against
//! a `BTreeMap` oracle across every `SearchStrategy`, on key shapes
//! chosen to stress the new machinery:
//!
//! * skewed `i³` keys — interpolation guesses are bad, brackets must
//!   still converge;
//! * lossy `to_f64` flat spans — keys above 2⁵³ whose projections
//!   collapse to the same `f64`, disabling interpolation seeding and
//!   producing zero-slope spans inside segments;
//! * post-remove pages — tombstoned slots must stay invisible to point
//!   and range lookups while every survivor remains findable within
//!   its (non-widened) window;
//! * mixed churn — inserts, removes, re-inserts (tombstone
//!   resurrection), and range scans interleaved, with
//!   `check_invariants` asserting after every phase that the flat
//!   directory exactly mirrors the mutation-side B+ tree and routes
//!   every live key to its segment.
//!
//! Plus a guard that the instrumented lookup (`get_traced`) answers
//! exactly as `get` does.

use fiting::tree::{FitingTree, FitingTreeBuilder, SearchStrategy};
use std::collections::BTreeMap;

const STRATEGIES: [SearchStrategy; 4] = [
    SearchStrategy::Binary,
    SearchStrategy::Linear,
    SearchStrategy::Exponential,
    SearchStrategy::Interpolation,
];

/// Deterministic xorshift64* stream.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.max(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Key shapes the battery sweeps.
fn key_shapes() -> Vec<(&'static str, Vec<u64>)> {
    let skewed: Vec<u64> = (0..4_000u64).map(|i| i * i * i).collect();
    // Keys beyond f64's 53-bit mantissa: runs of 200 consecutive keys
    // project to (nearly) one f64 value, so slopes collapse and the
    // in-segment interpolation must fall back to bounded bisection.
    let lossy: Vec<u64> = (0..3_000u64)
        .map(|i| (1u64 << 60) + (i / 200) * (1 << 12) + (i % 200))
        .collect();
    let dense: Vec<u64> = (0..5_000).collect();
    let mut r = rng(0xDEAD_BEEF);
    let mut uniform: Vec<u64> = (0..5_000).map(|_| r() >> 1).collect();
    uniform.sort_unstable();
    uniform.dedup();
    vec![
        ("skewed-cubic", skewed),
        ("lossy-f64-span", lossy),
        ("dense", dense),
        ("uniform", uniform),
    ]
}

fn build(keys: &[u64], error: u64, strategy: SearchStrategy) -> FitingTree<u64, u64> {
    FitingTreeBuilder::new(error)
        .search_strategy(strategy)
        .bulk_load(keys.iter().map(|&k| (k, k.wrapping_mul(3))))
        .expect("strictly increasing keys")
}

#[test]
fn bulk_load_agrees_with_oracle_on_all_shapes_and_strategies() {
    for (shape, keys) in key_shapes() {
        let oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        for strategy in STRATEGIES {
            for error in [8u64, 64, 512] {
                let t = build(&keys, error, strategy);
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("{shape}/{strategy:?}/e={error}: {e}"));
                for &k in &keys {
                    assert_eq!(
                        t.get(&k),
                        oracle.get(&k),
                        "{shape}/{strategy:?}/e={error} key {k}"
                    );
                    // Near-misses must not produce false hits.
                    for miss in [k.wrapping_sub(1), k + 1] {
                        if !oracle.contains_key(&miss) {
                            assert_eq!(t.get(&miss), None, "{shape}/{strategy:?} miss {miss}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn churn_agrees_with_oracle_across_strategies() {
    for (shape, keys) in key_shapes() {
        for strategy in STRATEGIES {
            let mut t = build(&keys, 32, strategy);
            let mut oracle: BTreeMap<u64, u64> =
                keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
            let mut r = rng(0x5EED ^ keys.len() as u64);
            let key_domain: Vec<u64> = keys.iter().copied().chain((0..500).map(|_| r())).collect();
            for step in 0..4_000 {
                let k = key_domain[(r() as usize) % key_domain.len()];
                match r() % 4 {
                    0 | 1 => {
                        assert_eq!(
                            t.insert(k, step),
                            oracle.insert(k, step),
                            "{shape}/{strategy:?} insert {k}"
                        );
                    }
                    2 => {
                        assert_eq!(
                            t.remove(&k),
                            oracle.remove(&k),
                            "{shape}/{strategy:?} remove {k}"
                        );
                    }
                    _ => {
                        assert_eq!(t.get(&k), oracle.get(&k), "{shape}/{strategy:?} get {k}");
                    }
                }
                assert_eq!(t.len(), oracle.len());
            }
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{shape}/{strategy:?} post-churn: {e}"));
            let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u64, u64)> = oracle.into_iter().collect();
            assert_eq!(got, want, "{shape}/{strategy:?} full-scan divergence");
        }
    }
}

#[test]
fn post_remove_windows_find_every_survivor() {
    for (shape, keys) in key_shapes() {
        for strategy in STRATEGIES {
            let mut t = build(&keys, 16, strategy);
            // Remove two of every three keys: heavy tombstoning, several
            // re-segmentations (removed > seg_error / 2).
            let mut survivors = Vec::new();
            for (i, &k) in keys.iter().enumerate() {
                if i % 3 == 0 {
                    survivors.push(k);
                } else {
                    assert_eq!(t.remove(&k), Some(k.wrapping_mul(3)), "{shape} remove {k}");
                }
            }
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{shape}/{strategy:?} post-remove: {e}"));
            for &k in &survivors {
                assert_eq!(
                    t.get(&k),
                    Some(&k.wrapping_mul(3)),
                    "{shape}/{strategy:?} survivor {k}"
                );
            }
            assert_eq!(t.len(), survivors.len());
            assert_eq!(t.iter().count(), survivors.len());
            // Removed keys must stay invisible to range scans too.
            let seen: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
            assert_eq!(seen, survivors, "{shape}/{strategy:?} scan sees tombstones");
        }
    }
}

#[test]
fn range_scans_agree_with_oracle_after_churn() {
    for (shape, keys) in key_shapes() {
        let mut t = build(&keys, 64, SearchStrategy::Binary);
        let mut oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        let mut r = rng(42);
        for step in 0..1_500u64 {
            let k = keys[(r() as usize) % keys.len()];
            if r().is_multiple_of(2) {
                assert_eq!(t.insert(k + 1, step), oracle.insert(k + 1, step));
            } else {
                assert_eq!(t.remove(&k), oracle.remove(&k));
            }
        }
        for _ in 0..200 {
            let a = keys[(r() as usize) % keys.len()];
            let b = keys[(r() as usize) % keys.len()];
            let (lo, hi) = (a.min(b), a.max(b));
            let got: Vec<(u64, u64)> = t.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "{shape} range {lo}..={hi}");
        }
    }
}

#[test]
fn tombstone_resurrection_roundtrip() {
    let keys: Vec<u64> = (0..2_000u64).map(|k| k * 7).collect();
    let mut t = build(&keys, 32, SearchStrategy::Binary);
    let mut oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
    // Remove, then re-insert the same keys with new values: the page
    // slots must resurrect in place (no buffer growth, no len drift).
    for &k in keys.iter().step_by(2) {
        assert_eq!(t.remove(&k), oracle.remove(&k));
    }
    for &k in keys.iter().step_by(2) {
        assert_eq!(t.insert(k, k + 1), oracle.insert(k, k + 1));
    }
    assert_eq!(t.len(), oracle.len());
    for &k in &keys {
        assert_eq!(t.get(&k), oracle.get(&k), "key {k}");
    }
    t.check_invariants().unwrap();
}

#[test]
fn hot_path_never_descends_the_btree() {
    // There is no B+ tree left to descend: the flat directory is the
    // only routing structure, and `check_invariants` (every live key
    // routes to its owning segment) is the enforcement. What this test
    // still pins is that the instrumented lookup takes the same route
    // as `get` — on hits and misses, before and after structural churn.
    let keys: Vec<u64> = (0..20_000u64).map(|i| i * i / 7 + i).collect();
    let mut dedup = keys;
    dedup.dedup();
    let mut t = build(&dedup, 64, SearchStrategy::Binary);
    let probe_set: Vec<u64> = dedup.iter().step_by(17).copied().collect();
    for &k in &probe_set {
        assert_eq!(t.get_traced(&k).0, Some(&k.wrapping_mul(3)), "hit {k}");
        assert_eq!(t.get_traced(&(k + 1)).0, t.get(&(k + 1)), "miss {}", k + 1);
    }
    // Force buffer overflows and re-segmentations, then re-check.
    for i in 0..5_000u64 {
        t.insert(i * 13 + 5, i);
    }
    for &k in &probe_set {
        assert_eq!(t.get_traced(&k).0, t.get(&k), "post-churn {k}");
    }
    t.check_invariants().unwrap();
}
