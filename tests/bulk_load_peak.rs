//! Bulk load's memory peak. `build_sorted` takes the caller's `Vec` and
//! gives its pages back as it copies them into the tree's column, so a
//! build holds one copy of the data plus one 2 MiB step: the resident
//! high-water mark rises over what was resident before the build by a
//! small fraction of the input, not by the whole input again.
//!
//! A sharded bulk load cuts every shard out of one such copy, so its
//! peak is bounded the same way.
//!
//! `VmHWM` is one mark for the whole process, so each build runs in a
//! process of its own: a test re-runs this test binary on itself, and
//! the child it starts (marked by an environment variable) measures.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::{BuildableIndex, ShardedIndex};
use std::process::Command;

/// Set in the child process, which builds and measures.
const CHILD: &str = "FITING_BULK_LOAD_PEAK_CHILD";

/// Pairs loaded: 64 MiB of `(u64, u64)`.
const N: u64 = 4 << 20;

/// How far `VmHWM` may rise over the `VmRSS` before the build, as a
/// share of the input's bytes. Holding the input and the column side by
/// side reads about 1.0.
const MAX_RISE: f64 = 0.15;

/// A `/proc/self/status` field in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// The `N` pairs every build loads: keys on a curve, so each column is
/// cut into many pages.
fn pairs() -> Vec<(u64, u64)> {
    (0..N).map(|k| (k * k / 1024 + 3 * k, k)).collect()
}

/// Checks the peak `VmHWM` after a build of `bytes` of input against
/// the `VmRSS` of `before` KiB the process held before it.
fn check_rise(before: u64, bytes: usize) {
    let peak = status_kib("VmHWM");
    let rise = peak.saturating_sub(before) as f64 * 1024.0 / bytes as f64;
    eprintln!("VmRSS {before} KiB before the build, VmHWM {peak} KiB: {rise:.3} x the input");
    assert!(
        rise <= MAX_RISE,
        "the build's peak rose {rise:.3} x the input's bytes over what was resident before it"
    );
}

/// Re-runs the test `name` alone in a child process with [`CHILD`] set
/// to `arg`, and fails with the child's output when it fails.
fn in_child(name: &str, arg: &str) {
    let out = Command::new(std::env::current_exe().expect("the test binary has a path"))
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(CHILD, arg)
        .output()
        .expect("the test binary re-runs");
    let log = String::from_utf8_lossy(&out.stderr);
    eprint!("{arg}: {log}");
    assert!(
        out.status.success(),
        "{}{log}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(log.contains("x the input"), "the child ran no build: {log}");
}

#[test]
fn build_sorted_peaks_at_one_copy_of_the_data() {
    if std::env::var_os(CHILD).is_none() {
        return in_child("build_sorted_peaks_at_one_copy_of_the_data", "tree");
    }
    let pairs = pairs();
    let bytes = std::mem::size_of_val(pairs.as_slice());
    let before = status_kib("VmRSS");
    let tree = FitingTree::build_sorted(&FitingTreeBuilder::new(64), pairs).expect("sorted input");
    check_rise(before, bytes);
    assert_eq!(tree.len(), N as usize);
    assert!(tree.segment_count() > 1);
}

/// The shards are cut from one copy of the input too, however many
/// there are: no span is resident beside its shard's copy of it.
#[test]
fn a_sharded_build_peaks_at_one_copy_of_the_data() {
    let Some(shards) = std::env::var_os(CHILD) else {
        for shards in ["1", "2", "4"] {
            in_child("a_sharded_build_peaks_at_one_copy_of_the_data", shards);
        }
        return;
    };
    let shards: usize = shards
        .to_str()
        .and_then(|s| s.parse().ok())
        .expect("a shard count");
    let pairs = pairs();
    let bytes = std::mem::size_of_val(pairs.as_slice());
    let before = status_kib("VmRSS");
    let index: ShardedIndex<u64, u64, FitingTree<u64, u64>> =
        ShardedIndex::bulk_load(&FitingTreeBuilder::new(64), shards, pairs).expect("sorted input");
    check_rise(before, bytes);
    assert_eq!(index.len(), N as usize);
    assert_eq!(index.shard_count(), shards);
}
