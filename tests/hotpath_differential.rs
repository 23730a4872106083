//! Differential battery for the read hot path: the flat SoA segment
//! directory + branchless bounded window search, pitted against a
//! `BTreeMap` oracle on key shapes chosen to stress the machinery:
//!
//! * skewed `i³` keys — the fitted slopes swing by orders of magnitude
//!   between neighbouring segments;
//! * lossy `to_f64` flat spans — keys above 2⁵³ whose projections
//!   collapse to the same `f64`, disabling interpolation seeding and
//!   producing zero-slope spans inside segments;
//! * post-remove pages — tombstoned slots must stay invisible to point
//!   and range lookups while every survivor remains findable within
//!   its (non-widened) window;
//! * mixed churn — inserts, removes, re-inserts (tombstone
//!   resurrection), and range scans interleaved, with
//!   `check_invariants` asserting after every phase that the flat
//!   directory routes every live key to its segment and every live
//!   page slot sits inside its own search window;
//! * the numeric edges of the projection (the `edge_*` tests) — signed
//!   keys straddling zero, a run ending at `u64::MAX`, dense runs above
//!   2⁵³ and above 2¹⁰⁰ that *arrive through `insert`*, so the in-place
//!   tail append is decided where neighbouring keys share one abscissa;
//!   `OrderedF64` infinities (a key with no finite distance to any
//!   neighbour) and `-0.0` / `+0.0` (two keys, one abscissa);
//! * the edges of the window arithmetic — the lookup requests the value
//!   lines of its window `[lo, hi]` before it scans the keys, so the
//!   same sweeps run with zero-sized values, at an error wide enough
//!   for the binary-search arm (which requests none), and over a
//!   one-slot page, predictions clamped to slot 0 or clipped to the
//!   last slot, and a page whose every slot is dead under a live
//!   buffer;
//! * an overflow storm — re-segmentation caps the pages it makes, merges
//!   page and buffer by runs and re-fits before it re-carves, so the
//!   sweep ends on a page grown by appends far past the cap and then
//!   back-filled, undercut below its anchor and fed duplicates.
//!
//! Every scan the `edge_*` lifecycle sweep compares with the oracle is
//! consumed each way the run cursor is (`scan_agrees`): `next`,
//! `for_each`, `count`, `size_hint` and the collect hook.
//!
//! Plus a guard that the instrumented lookup (`get_traced`) answers
//! exactly as `get` does.

use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::{Key, OrderedF64, SortedIndex};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Bound::{self, Excluded, Included, Unbounded};

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
    // project to (nearly) one f64 value, so slopes collapse and every
    // key of a run predicts the same slot.
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

fn build(keys: &[u64], error: u64) -> FitingTree<u64, u64> {
    FitingTreeBuilder::new(error)
        .bulk_load(keys.iter().map(|&k| (k, k.wrapping_mul(3))))
        .expect("strictly increasing keys")
}

#[test]
fn bulk_load_agrees_with_oracle_on_all_shapes() {
    for (shape, keys) in key_shapes() {
        let oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        for error in [8u64, 64, 512] {
            let t = build(&keys, error);
            t.check_invariants()
                .unwrap_or_else(|e| panic!("{shape}/e={error}: {e}"));
            for &k in &keys {
                assert_eq!(t.get(&k), oracle.get(&k), "{shape}/e={error} key {k}");
                // Near-misses must not produce false hits.
                for miss in [k.wrapping_sub(1), k + 1] {
                    if !oracle.contains_key(&miss) {
                        assert_eq!(t.get(&miss), None, "{shape}/e={error} miss {miss}");
                    }
                }
            }
        }
    }
}

#[test]
fn churn_agrees_with_oracle() {
    for (shape, keys) in key_shapes() {
        let mut t = build(&keys, 32);
        let mut oracle: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        let mut r = rng(0x5EED ^ keys.len() as u64);
        let key_domain: Vec<u64> = keys.iter().copied().chain((0..500).map(|_| r())).collect();
        for step in 0..4_000 {
            let k = key_domain[(r() as usize) % key_domain.len()];
            match r() % 4 {
                0 | 1 => {
                    assert_eq!(
                        t.insert(k, step),
                        oracle.insert(k, step),
                        "{shape} insert {k}"
                    );
                }
                2 => {
                    assert_eq!(t.remove(&k), oracle.remove(&k), "{shape} remove {k}");
                }
                _ => {
                    assert_eq!(t.get(&k), oracle.get(&k), "{shape} get {k}");
                }
            }
            assert_eq!(t.len(), oracle.len());
        }
        t.check_invariants()
            .unwrap_or_else(|e| panic!("{shape} post-churn: {e}"));
        let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(got, want, "{shape} full-scan divergence");
    }
}

#[test]
fn post_remove_windows_find_every_survivor() {
    for (shape, keys) in key_shapes() {
        let mut t = build(&keys, 16);
        // Remove two of every three keys: heavy tombstoning, several
        // re-segmentations (removed > max(seg_error / 2, page slots / 4)).
        let mut survivors = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                survivors.push(k);
            } else {
                assert_eq!(t.remove(&k), Some(k.wrapping_mul(3)), "{shape} remove {k}");
            }
        }
        t.check_invariants()
            .unwrap_or_else(|e| panic!("{shape} post-remove: {e}"));
        for &k in &survivors {
            assert_eq!(t.get(&k), Some(&k.wrapping_mul(3)), "{shape} survivor {k}");
        }
        assert_eq!(t.len(), survivors.len());
        assert_eq!(t.iter().count(), survivors.len());
        // Removed keys must stay invisible to range scans too.
        let seen: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(seen, survivors, "{shape} scan sees tombstones");
    }
}

#[test]
fn range_scans_agree_with_oracle_after_churn() {
    for (shape, keys) in key_shapes() {
        let mut t = build(&keys, 64);
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
    let mut t = build(&keys, 32);
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
    // The flat directory is the only routing structure, and
    // `check_invariants` (every live key routes to its owning segment)
    // is the enforcement. What this test pins is that the instrumented
    // lookup takes the same route as `get` — on hits and misses, before
    // and after structural churn.
    let keys: Vec<u64> = (0..20_000u64).map(|i| i * i / 7 + i).collect();
    let mut dedup = keys;
    dedup.dedup();
    let mut t = build(&dedup, 64);
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

/// One edge-of-the-projection key shape: `bulk` is bulk-loaded, then
/// `arrivals` come through `insert` in the order given.
struct EdgeShape<K> {
    name: &'static str,
    bulk: Vec<K>,
    arrivals: Vec<K>,
    /// The keys one below and one above `k`, where the type has them.
    near: fn(K) -> [Option<K>; 2],
}

/// An [`EdgeShape`] over any integer key type.
macro_rules! edge_shape {
    ($name:expr, $bulk:expr, $arrivals:expr) => {
        EdgeShape {
            name: $name,
            bulk: $bulk,
            arrivals: $arrivals,
            near: |k| [k.checked_sub(1), k.checked_add(1)],
        }
    };
}

/// Every other key of `keys` is bulk-loaded; the rest arrive shuffled
/// (back-fill between loaded neighbours), then `tail` in order.
fn interleaved<K: Copy>(keys: &[K], tail: &[K], seed: u64) -> (Vec<K>, Vec<K>) {
    let bulk = keys.iter().copied().step_by(2).collect();
    let mut arrivals: Vec<K> = keys.iter().copied().skip(1).step_by(2).collect();
    let mut r = rng(seed);
    for i in (1..arrivals.len()).rev() {
        arrivals.swap(i, (r() as usize) % (i + 1));
    }
    arrivals.extend_from_slice(tail);
    (bulk, arrivals)
}

/// Gets, misses, removes, re-inserts, bounded and full scans against
/// the oracle, with `check_invariants`, after every phase, at a small, a
/// mid-sized and a wide error budget — at 512 the pages whose keys
/// share one abscissa measure an envelope past the count-scan's limit,
/// so the binary-search arm answers to the same oracle — and once more
/// with zero-sized values, whose "cache lines per window" has no
/// divisor.
fn lifecycle<K: Key>(shape: &EdgeShape<K>) {
    for error in [8u64, 64, 512] {
        lifecycle_at(shape, error, |v| v);
    }
    lifecycle_at(shape, 64, |_| ());
}

/// The scan of `bounds` against `want`, consumed every way the run
/// cursor is: `next` in a loop (`size_hint` never promising more than is
/// left), `for_each`, `count`, the collect hook appending to what `out`
/// already held — and `for_each` and `count` once more on a scan `next`
/// has already stepped into, as the benchmark's core boundary does.
fn scan_agrees<K: Key, V: Clone + PartialEq + Debug>(
    t: &FitingTree<K, V>,
    bounds: (Bound<K>, Bound<K>),
    want: &[(K, V)],
    ctx: &str,
) {
    let own = |(k, v): (&K, &V)| (*k, v.clone());
    let mut got = Vec::new();
    let mut scan = t.range(bounds);
    loop {
        let left = want.len() - got.len().min(want.len());
        let lower = scan.size_hint().0;
        assert!(lower <= left, "{ctx}: size_hint {lower} > {left} left");
        match scan.next() {
            Some(entry) => got.push(own(entry)),
            None => break,
        }
    }
    assert_eq!(got, want, "{ctx}: by next");
    for stepped in [0, 1, 3] {
        let stepped = stepped.min(want.len());
        let mut scan = t.range(bounds);
        let mut got: Vec<(K, V)> = scan.by_ref().take(stepped).map(own).collect();
        scan.for_each(|entry| got.push(own(entry)));
        assert_eq!(got, want, "{ctx}: by for_each after {stepped}");
        let mut scan = t.range(bounds);
        scan.by_ref().take(stepped).for_each(drop);
        assert_eq!(stepped + scan.count(), want.len(), "{ctx}: by count");
    }
    let mut out = want[..want.len().min(1)].to_vec();
    t.range_into(bounds, &mut out);
    assert_eq!(
        out[want.len().min(1)..],
        *want,
        "{ctx}: by the collect hook"
    );
    assert_eq!(t.range(bounds).count(), want.len(), "{ctx}: range count");
}

fn lifecycle_at<K: Key, V: Clone + PartialEq + Debug>(
    shape: &EdgeShape<K>,
    error: u64,
    value: fn(u64) -> V,
) {
    let name = shape.name;
    let mut oracle: BTreeMap<K, V> = shape.bulk.iter().copied().zip((0..).map(value)).collect();
    let mut keys: Vec<K> = shape.bulk.iter().chain(&shape.arrivals).copied().collect();
    keys.sort_unstable();
    // Invariants, length, full scan, and a get of every key the run
    // ever holds (so removed keys are checked as misses — on the page,
    // a hit on a tombstoned slot).
    let agree = |t: &FitingTree<K, V>, oracle: &BTreeMap<K, V>, phase: &str| {
        t.check_invariants()
            .unwrap_or_else(|e| panic!("{name}/e={error} after {phase}: {e}"));
        assert_eq!(t.len(), oracle.len(), "{name}/e={error} {phase}: len");
        let want: Vec<(K, V)> = oracle.iter().map(|(k, v)| (*k, v.clone())).collect();
        let ctx = format!("{name}/e={error} {phase}: full scan");
        scan_agrees(t, (Unbounded, Unbounded), &want, &ctx);
        for k in &keys {
            assert_eq!(t.get(k), oracle.get(k), "{name}/e={error} {phase}: {k:?}");
        }
    };

    let mut t: FitingTree<K, V> = FitingTreeBuilder::new(error)
        .bulk_load(oracle.iter().map(|(k, v)| (*k, v.clone())))
        .expect("strictly increasing keys");
    agree(&t, &oracle, "bulk load");

    for (&k, v) in shape.arrivals.iter().zip((1_000_000..).map(value)) {
        assert_eq!(
            t.insert(k, v.clone()),
            oracle.insert(k, v),
            "{name} insert {k:?}"
        );
    }
    agree(&t, &oracle, "arrivals");
    for &k in &keys {
        assert_eq!(t.get_traced(&k).0, oracle.get(&k), "{name} traced {k:?}");
        for miss in (shape.near)(k).into_iter().flatten() {
            assert_eq!(t.get(&miss), oracle.get(&miss), "{name} near {miss:?}");
        }
    }
    // Bounded scans seek through the window too (`lower_bound`): the
    // whole key span first, then random sub-spans.
    let mut r = rng(0xB0B ^ error);
    let mut span = (0, keys.len() - 1);
    for _ in 0..64 {
        let (lo, hi) = (keys[span.0.min(span.1)], keys[span.0.max(span.1)]);
        let mut want: Vec<(K, V)> = oracle
            .range(lo..=hi)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let ctx = format!("{name}/e={error} range {lo:?}..={hi:?}");
        scan_agrees(&t, (Included(lo), Included(hi)), &want, &ctx);
        want.retain(|&(k, _)| k != lo && k != hi);
        scan_agrees(&t, (Excluded(lo), Excluded(hi)), &want, &ctx);
        span = ((r() as usize) % keys.len(), (r() as usize) % keys.len());
    }

    // Two of every three keys go: tombstones, drained buffers, re-carves.
    let doomed: Vec<K> = keys
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, &k)| k)
        .collect();
    for &k in &doomed {
        assert_eq!(t.remove(&k), oracle.remove(&k), "{name} remove {k:?}");
    }
    agree(&t, &oracle, "removes");

    // They come back (resurrected slots, appends, or buffered).
    for (&k, v) in doomed.iter().zip((2_000_000..).map(value)) {
        assert_eq!(
            t.insert(k, v.clone()),
            oracle.insert(k, v),
            "{name} re-insert {k:?}"
        );
    }
    agree(&t, &oracle, "re-inserts");
}

/// A tree grown from empty: the first insert opens a one-slot page with
/// slope 0, so every prediction is slot 0 and the smaller keys that
/// follow are buffered under it; removing that one key leaves a page
/// with no live slot over a live buffer, looking it up hits a
/// tombstone, and re-inserting it resurrects the slot.
#[test]
fn edge_one_slot_page_under_a_buffer() {
    lifecycle(&edge_shape!(
        "grown-from-empty",
        Vec::new(),
        vec![1_000u64, 5, 7, 3, 900]
    ));
}

/// An overflow storm: a tail appended in place until its one page is
/// many times the cap re-segmentation puts on the pages it makes at any
/// of the sweep's budgets, then back-fills shuffled over it (the first
/// overflow carves it into equal pages, later ones re-fit those), keys
/// below the first anchor (each overflow there moves the anchor), and
/// every back-fill once more as a duplicate.
#[test]
fn edge_overflow_storm_on_a_giant_appended_page() {
    let tail: Vec<u64> = (1_000..40_000).map(|i| i * 10).collect();
    let mut back_fills: Vec<u64> = (0..5_000).map(|i| i * 80 + 10_001 + i % 7).collect();
    let mut r = rng(0x570);
    for i in (1..back_fills.len()).rev() {
        back_fills.swap(i, (r() as usize) % (i + 1));
    }
    let below = (0..700).rev().map(|i| i * 3 + 500);
    let arrivals = [
        &tail[..],
        &back_fills,
        &below.collect::<Vec<_>>(),
        &back_fills,
    ]
    .concat();
    lifecycle(&edge_shape!(
        "overflow-storm",
        (200..1_000).map(|i| i * 10).collect(),
        arrivals
    ));
}

/// One short page probed far outside it: a key far above the last slot
/// predicts a slot the page does not have (the window is clipped to the
/// last slot) and one far below the first predicts slot 0 — as
/// arrivals the model cannot place (buffered), then as misses once
/// removed.
#[test]
fn edge_predictions_past_either_end_of_the_page() {
    let base = 1u64 << 40;
    lifecycle(&edge_shape!(
        "short-page-probed-far-outside",
        (0..40).map(|i| base + i * 1_000).collect(),
        vec![0u64, u64::MAX, 1, u64::MAX - 1]
    ));
}

/// Signed keys straddling zero, with both type extremes arriving
/// late: the first segment is anchored far below zero and predicts for
/// keys on both sides of it.
#[test]
fn edge_i64_straddling_zero() {
    let keys: Vec<i64> = (-3_000..3_000i64).map(|i| i * 7 + i % 5).collect();
    let (bulk, arrivals) = interleaved(&keys, &[i64::MIN, i64::MAX], 0x51);
    lifecycle(&edge_shape!("i64-straddling-zero", bulk, arrivals));
}

/// A run ending exactly at `u64::MAX` (f64 spacing there is 2048, and
/// `MAX` itself projects to 2^64): the top thousand arrive in order.
#[test]
fn edge_u64_max_adjacent() {
    let keys: Vec<u64> = (0..4_000u64).rev().map(|i| u64::MAX - 3 * i).collect();
    let (bulk, arrivals) = interleaved(&keys[..3_000], &keys[3_000..], 0x52);
    lifecycle(&edge_shape!("u64-max-adjacent", bulk, arrivals));
}

/// A dense run above 2^53 that arrives through `insert`, ascending:
/// every key lands on the last page's tail, where 256 neighbours share
/// one abscissa, so the append's admission check decides slot by slot
/// whether the model still covers them.
#[test]
fn edge_dense_run_above_2_53_arrives_through_insert() {
    let base = 1u64 << 60;
    lifecycle(&edge_shape!(
        "u64-dense-above-2^53-inserted",
        (base..base + 512).collect(),
        (base + 512..base + 6_000).collect()
    ));
}

/// The same above 2^100 in `u128`: the whole run shares one abscissa.
#[test]
fn edge_u128_dense_high() {
    let base = 1u128 << 100;
    let keys: Vec<u128> = (0..3_000u128).map(|i| base + i).collect();
    let tail: Vec<u128> = (3_000..4_000u128).map(|i| base + i).collect();
    let (bulk, arrivals) = interleaved(&keys, &tail, 0x53);
    lifecycle(&edge_shape!("u128-dense-high", bulk, arrivals));
}

/// An [`EdgeShape`] over `OrderedF64`: the near misses are the adjacent
/// representable floats.
fn f64_shape(name: &'static str, bulk: &[f64], arrivals: &[f64]) -> EdgeShape<OrderedF64> {
    let keys = |vs: &[f64]| vs.iter().map(|&v| OrderedF64::new(v).unwrap()).collect();
    EdgeShape {
        name,
        bulk: keys(bulk),
        arrivals: keys(arrivals),
        near: |k| {
            [
                OrderedF64::new(k.get().next_down()),
                OrderedF64::new(k.get().next_up()),
            ]
        },
    }
}

/// `-∞` first and `+∞` last, a dense run beside each: loaded in bulk,
/// then arriving late through `insert` with ordinary inserts after them
/// (so buffers holding an infinity overflow and re-carve). No finite
/// slope reaches an infinite key; a cone that takes `dy / ∞ = 0` for one
/// collapses to `[0, 0]` and swallows every key after it.
#[test]
fn edge_ordered_f64_infinities() {
    let run: Vec<f64> = (0..3_000).map(|i| f64::from(i) * 1.5).collect();
    let (evens, odds) = interleaved(&run, &[], 0x54);

    let mut bulk = vec![f64::NEG_INFINITY];
    bulk.extend(&evens);
    bulk.push(f64::INFINITY);
    lifecycle(&f64_shape("f64-infinities-bulk-loaded", &bulk, &odds));

    let mut arrivals = vec![f64::NEG_INFINITY, f64::INFINITY];
    arrivals.extend(&odds);
    lifecycle(&f64_shape("f64-infinities-inserted", &evens, &arrivals));
}

/// `-0.0` and `+0.0` are distinct, adjacent keys that project to one
/// abscissa, in the middle of a dense run straddling zero — one loaded
/// and one inserted, each way round.
#[test]
fn edge_ordered_f64_signed_zeros() {
    let run: Vec<f64> = (-1_500..1_500)
        .filter(|&i| i != 0)
        .map(|i| f64::from(i) * 0.25)
        .collect();
    let (bulk, arrivals) = interleaved(&run, &[], 0x55);
    let zero_at = bulk.partition_point(|&v| v < 0.0);
    for (loaded, inserted) in [(-0.0, 0.0), (0.0, -0.0)] {
        let (mut bulk, mut arrivals) = (bulk.clone(), arrivals.clone());
        bulk.insert(zero_at, loaded);
        arrivals.push(inserted);
        lifecycle(&f64_shape("f64-signed-zeros", &bulk, &arrivals));
    }
}
