//! Crash-injection battery for the durability layer.
//!
//! Builds a durable shard, applies a deterministic op stream (each op
//! is exactly one WAL record), then simulates crashes by mutilating a
//! copy of the shard's files and recovering:
//!
//! * **truncate at every record boundary** — recovery must replay
//!   exactly the records before the cut, with no truncation flag;
//! * **truncate mid-record** — the torn record and everything after it
//!   is discarded, the prefix before it survives;
//! * **flip one byte** at positions swept across the whole file — the
//!   per-record CRC (or the header check) must catch it and recovery
//!   must land on the prefix before the damaged record;
//! * **tear a checkpoint** between and inside the chunks its snapshot
//!   streams as — the torn next generation, left as the temp file or
//!   published, must be refused in favour of the previous one.
//!
//! After every injected crash the recovered index is compared entry-
//! for-entry against a `BTreeMap` oracle holding the state after the
//! surviving op prefix — the *prefix-consistency* invariant: recovery
//! always yields the state after some prefix of the logged mutations,
//! never a partial op.
//!
//! Scale knob: `FITING_STRESS_OPS` = logged ops (default 200, giving
//! well over 1 000 injected crash points).

use fiting::storage::{DurableConfig, DurableIndex, FsyncPolicy};
use fiting::tree::snapshot::encode_tree_into;
use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::SortedIndex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

type Durable = DurableIndex<u64, u64, FitingTree<u64, u64>>;

const BASE_N: u64 = 1_000;
const WAL_HEADER: usize = 16;

fn stress_ops() -> usize {
    std::env::var("FITING_STRESS_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Deterministic 64-bit LCG (same constants as Knuth's MMIX).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// One logged mutation — applied identically to the durable index and
/// the oracle, and encoded as exactly one WAL record.
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Many(Vec<(u64, u64)>),
}

impl Op {
    fn apply_index(&self, idx: &mut Durable) {
        match self {
            Op::Insert(k, v) => {
                idx.insert(*k, *v);
            }
            Op::Remove(k) => {
                idx.remove(k);
            }
            Op::Many(pairs) => {
                idx.insert_many(pairs.clone());
            }
        }
    }

    fn apply_oracle(&self, map: &mut BTreeMap<u64, u64>) {
        match self {
            Op::Insert(k, v) => {
                map.insert(*k, *v);
            }
            Op::Remove(k) => {
                map.remove(k);
            }
            Op::Many(pairs) => {
                for &(k, v) in pairs {
                    map.insert(k, v);
                }
            }
        }
    }
}

fn gen_ops(n: usize, rng: &mut Lcg) -> Vec<Op> {
    (0..n)
        .map(|i| match rng.next() % 8 {
            0 => Op::Remove(rng.next() % (BASE_N * 4)),
            1 => Op::Many(
                (0..(1 + rng.next() % 5))
                    .map(|_| (rng.next() % (BASE_N * 8), rng.next()))
                    .collect(),
            ),
            _ => Op::Insert(rng.next() % (BASE_N * 8), i as u64),
        })
        .collect()
}

/// Byte offsets of record boundaries in `wal`, parsed from the record
/// headers: `boundaries[j]` is where record `j` starts; the final
/// element is the file length.
fn record_boundaries(wal: &[u8]) -> Vec<usize> {
    let mut bounds = vec![WAL_HEADER];
    let mut pos = WAL_HEADER;
    while pos < wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        bounds.push(pos);
    }
    assert_eq!(pos, wal.len(), "trailing garbage in the synced WAL");
    bounds
}

/// Plants `snapshot` + `wal` as generation-0 files of a scratch shard
/// directory, recovers, and asserts the result equals the oracle after
/// `expect_ops` logged ops.
#[allow(clippy::too_many_arguments)] // flat args keep the battery's call sites readable
fn recover_and_check(
    scratch: &Path,
    cfg: &DurableConfig<FitingTreeBuilder>,
    snapshot: &[u8],
    wal: &[u8],
    oracle: &BTreeMap<u64, u64>,
    expect_ops: usize,
    expect_truncated: bool,
    what: &str,
) {
    std::fs::write(scratch.join("snapshot.000000"), snapshot).unwrap();
    std::fs::write(scratch.join("wal.000000"), wal).unwrap();
    let (back, info) = Durable::open_shard(cfg, scratch)
        .unwrap_or_else(|e| panic!("recovery failed ({what}): {e}"));
    assert_eq!(info.replayed, expect_ops, "replayed op count ({what})");
    assert_eq!(
        info.wal_truncated, expect_truncated,
        "truncation flag ({what})"
    );
    assert_eq!(back.len(), oracle.len(), "recovered len ({what})");
    let got: Vec<(u64, u64)> = back.range(..).collect();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "recovered contents ({what})");
}

#[test]
fn crash_battery_is_prefix_consistent_against_oracle() {
    let root = std::env::temp_dir().join(format!("fiting-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Off, FitingTreeBuilder::new(64)).unwrap();
    let mut rng = Lcg(0xF17E_7123);

    // Seed shard + op stream; sync so every record is in the file.
    let base: Vec<(u64, u64)> = (0..BASE_N).map(|k| (k * 3, k)).collect();
    let mut idx: Durable = fiting::BuildableIndex::build_sorted(&cfg, base.clone()).unwrap();
    let ops = gen_ops(stress_ops(), &mut rng);
    for op in &ops {
        op.apply_index(&mut idx);
    }
    idx.try_sync().expect("the log reaches the disk");
    let shard_dir = idx.shard_dir().to_path_buf();
    drop(idx);

    let snapshot = std::fs::read(shard_dir.join("snapshot.000000")).unwrap();
    let wal = std::fs::read(shard_dir.join("wal.000000")).unwrap();
    let bounds = record_boundaries(&wal);
    assert_eq!(bounds.len(), ops.len() + 1, "one WAL record per op");

    // Oracle states after each op prefix.
    let mut oracles: Vec<BTreeMap<u64, u64>> = Vec::with_capacity(ops.len() + 1);
    oracles.push(base.iter().copied().collect());
    for op in &ops {
        let mut next = oracles.last().unwrap().clone();
        op.apply_oracle(&mut next);
        oracles.push(next);
    }

    let scratch = root.join("scratch").join("shard-000000");
    std::fs::create_dir_all(&scratch).unwrap();
    let mut points = 0usize;

    // 1. Truncate at every record boundary: clean prefix, no flag.
    for (j, &cut) in bounds.iter().enumerate() {
        recover_and_check(
            &scratch,
            &cfg,
            &snapshot,
            &wal[..cut],
            &oracles[j],
            j,
            false,
            &format!("boundary cut after record {j}"),
        );
        points += 1;
    }

    // 2. Truncate mid-record: the torn record is discarded.
    for j in 0..ops.len() {
        let (start, end) = (bounds[j], bounds[j + 1]);
        for cut in [start + 1, start + 4, (start + end) / 2, end - 1] {
            if cut <= start || cut >= end {
                continue;
            }
            recover_and_check(
                &scratch,
                &cfg,
                &snapshot,
                &wal[..cut],
                &oracles[j],
                j,
                true,
                &format!("torn record {j} at byte {cut}"),
            );
            points += 1;
        }
    }

    // 3. Flip one byte, sweeping the whole file (header included).
    // A header flip voids the log (snapshot-only recovery); a record
    // flip must be caught by that record's CRC/shape check.
    let mut pos = 0usize;
    while pos < wal.len() {
        let mut damaged = wal.clone();
        damaged[pos] ^= 1 << (rng.next() % 8);
        let expect = if pos < WAL_HEADER {
            0
        } else {
            bounds.partition_point(|&b| b <= pos) - 1
        };
        recover_and_check(
            &scratch,
            &cfg,
            &snapshot,
            &damaged,
            &oracles[expect],
            expect,
            true,
            &format!("byte flip at {pos}"),
        );
        points += 1;
        pos += 1 + (rng.next() % 4) as usize;
    }

    // 4. A checkpoint torn between and inside its streamed chunks.
    let torn = torn_checkpoints(&cfg, &scratch, &mut rng);
    points += torn;

    assert!(
        points >= 1_000,
        "battery covered only {points} crash points (< 1000)"
    );
    println!("crash points: {points}, {torn} of them torn checkpoints");
    std::fs::remove_dir_all(&root).unwrap();
}

/// A shard large enough that its snapshot streams as several chunks
/// logs a few ops; its next generation's snapshot is then planted as
/// every prefix the encoder could have left on disk: cut at each chunk
/// boundary and inside each chunk, left behind as `snapshot.tmp` (the
/// crash hit the stream) or published torn as `snapshot.000001`.
/// Recovery must refuse it and land on generation 0 plus its whole
/// log. Returns the number of crash points.
fn torn_checkpoints(
    cfg: &DurableConfig<FitingTreeBuilder>,
    scratch: &Path,
    rng: &mut Lcg,
) -> usize {
    // Heavy-tailed gaps make pages of a few hundred keys.
    let mut key = 0;
    let base: Vec<(u64, u64)> = (0..30_000u64)
        .map(|k| {
            key += 1u64 << (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59);
            (key, k)
        })
        .collect();
    let mut idx: Durable = fiting::BuildableIndex::build_sorted(cfg, base.clone()).unwrap();
    let ops = gen_ops(20, rng);
    let mut oracle: BTreeMap<u64, u64> = base.into_iter().collect();
    for op in &ops {
        op.apply_index(&mut idx);
        op.apply_oracle(&mut oracle);
    }
    idx.try_sync().expect("the log reaches the disk");
    let dir = idx.shard_dir().to_path_buf();
    let snapshot = std::fs::read(dir.join("snapshot.000000")).unwrap();
    let wal = std::fs::read(dir.join("wal.000000")).unwrap();
    let (mut image, mut ends) = (Vec::new(), Vec::new());
    let Ok(_) = encode_tree_into(idx.inner(), |chunk| {
        image.extend_from_slice(chunk);
        ends.push(image.len());
        Ok::<(), std::convert::Infallible>(())
    });
    drop(idx);
    assert!(ends.len() >= 4, "{} chunks", ends.len());

    let mut points = 0;
    let mut start = 0;
    for &end in &ends {
        for cut in [start + 1, (start + end) / 2, end] {
            for (name, published) in [("snapshot.tmp", false), ("snapshot.000001", true)] {
                if published && cut == image.len() {
                    continue; // whole and published: a finished checkpoint
                }
                std::fs::write(scratch.join(name), &image[..cut]).unwrap();
                recover_and_check(
                    scratch,
                    cfg,
                    &snapshot,
                    &wal,
                    &oracle,
                    ops.len(),
                    false,
                    &format!("{name} torn at byte {cut} of {}", image.len()),
                );
                std::fs::remove_file(scratch.join(name)).unwrap();
                points += 1;
            }
        }
        start = end;
    }
    points
}

/// The same invariant end to end through the service layer: a durable
/// sharded service is killed (files copied mid-life, simulating a
/// crash after the last group commit), and the store reopens to
/// exactly the synced state.
#[test]
fn durable_service_reopens_to_last_group_commit() {
    use fiting::{open_sharded, DurabilityConfig, IndexService, ServiceConfig, ShardedIndex};

    let root = std::env::temp_dir().join(format!("fiting-crash-svc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Off, FitingTreeBuilder::new(64)).unwrap();

    let index: ShardedIndex<u64, u64, Durable> =
        ShardedIndex::bulk_load(&cfg, 4, (0..4_000u64).map(|k| (k * 2, k)).collect()).unwrap();
    let svc =
        IndexService::start_durable(index, ServiceConfig::default(), DurabilityConfig::default());
    let client = svc.client();
    let mut tickets = Vec::new();
    for k in 0..500u64 {
        tickets.push(client.insert(k * 16 + 1, k));
    }
    let removed = client.remove(0);
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(removed.wait(), Ok(Some(0)));
    let expect_len = svc.index().len();
    drop(client);
    let _ = svc.shutdown(); // final sync_all: everything is in the logs

    let (back, report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&cfg).unwrap();
    assert_eq!(report.shards.len(), 4);
    assert!(report.skipped.is_empty());
    assert!(report.shards.iter().any(|r| r.replayed > 0));
    assert_eq!(back.len(), expect_len);
    assert_eq!(back.get(&1), Some(0));
    assert_eq!(back.get(&0), None);
    assert_eq!(back.get(&2), Some(1));
    std::fs::remove_dir_all(&root).unwrap();
}

/// Recovery works even when the WAL file is missing entirely (crash
/// between snapshot rename and log creation).
#[test]
fn missing_wal_recovers_snapshot_only() {
    let root = std::env::temp_dir().join(format!("fiting-crash-nowal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DurableConfig::new(&root, FsyncPolicy::Off, FitingTreeBuilder::new(64)).unwrap();
    let mut idx: Durable =
        fiting::BuildableIndex::build_sorted(&cfg, (0..100u64).map(|k| (k, k))).unwrap();
    idx.insert(777, 7);
    idx.try_sync().expect("the log reaches the disk");
    let dir: PathBuf = idx.shard_dir().to_path_buf();
    drop(idx);

    std::fs::remove_file(dir.join("wal.000000")).unwrap();
    let (back, info) = Durable::open_shard(&cfg, &dir).unwrap();
    assert_eq!(info.replayed, 0);
    assert!(!info.wal_truncated); // nothing discarded: there was no log
    assert_eq!(back.len(), 100);
    assert_eq!(back.get(&777), None); // the unlogged insert is gone with its log
    std::fs::remove_dir_all(&root).unwrap();
}
