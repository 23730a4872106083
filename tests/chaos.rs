//! Chaos battery: seeded fault schedules + worker panics vs a
//! `BTreeMap` oracle of the acknowledged state.
//!
//! Four batteries, ≥ 600 distinct schedules at the default scale:
//!
//! * **A — shard storms** (`FITING_CHAOS_SEEDS`, default 400): one
//!   durable shard per seed behind a [`FaultIo`] following
//!   `FaultPlan::seeded(seed)`, driven through a mixed
//!   insert/remove/batch/sync/checkpoint/reload workload. Every op the
//!   store *acknowledged* (returned `Ok`) goes into the oracle; every
//!   refusal (`Err(Degraded)`) must leave the store untouched. Reads
//!   are probed mid-storm — degraded shards stay readable — and after
//!   the storm the harness disarms, reloads from disk, and requires
//!   the recovered state to equal the oracle **exactly**: no
//!   acknowledged write lost, no refused write resurrected.
//! * **B — rotation-step ENOSPC**: one targeted schedule per
//!   checkpoint-rotation step (tmp create/write/fsync, next-log
//!   create, rename, directory sync, old-generation delete), proving
//!   a failure at *any* step leaves the previous generation intact
//!   and readable, degrades the shard, and that the very next clean
//!   checkpoint heals it.
//! * **C — service storms** (¼ of the seed knob, min 110): a
//!   two-lane supervised durable service per seed, with seeded I/O
//!   faults *and* deterministic worker panics (a booby-trapped key per
//!   lane). Tickets resolving `Ok` form the oracle; `Canceled` point
//!   writes must NOT be applied (they were never executed);
//!   `Degraded`/`Canceled` cross-shard batches are the only uncertain
//!   keys. After the storm the harness disarms, waits for the
//!   supervisor + checkpoint coordinator to heal every lane and
//!   shard, round-trips a fresh probe write per lane, shuts down, and
//!   reopens the store from disk — the recovered state must match the
//!   oracle on every certain key.
//!
//! * **D — rebalance storms** (¼ of the seed knob, min 100): a
//!   three-shard durable `ShardedIndex` per seed under
//!   `FaultPlan::seeded`, mixing refusal-aware writes with
//!   `split_shard` / `merge_with_next` and the sync / checkpoint / heal
//!   passes a service's coordinators would run. A move either happens
//!   (shard count changes by exactly one) or is refused with count,
//!   boundaries and contents untouched — never a panic, never a copy —
//!   and a full scan equals the oracle after *every* step. After the
//!   storm the harness disarms, heals, syncs, drops the index and
//!   reopens the store: the recovered state must equal the oracle
//!   exactly, whatever directories refused or undone moves left behind.
//!
//! On any violation the failing schedule (seed + full injection log)
//! is written to `target/chaos/` so the exact run can be replayed.
//!
//! Scale knob: `FITING_CHAOS_SEEDS` (nightly CI raises it).

use fiting::index_api::RebalanceError;
use fiting::storage::{
    DurableConfig, DurableIndex, FaultIo, FaultPlan, FsyncPolicy, InjectKind, IoOp, RetryPolicy,
};
use fiting::tree::{FitingTree, FitingTreeBuilder};
use fiting::{
    open_sharded, BuildableIndex, Degraded, DurabilityConfig, IndexService, LaneHealth,
    ServiceConfig, ShardHealth, ShardedIndex, SortedIndex, SupervisorConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Durable = DurableIndex<u64, u64, FitingTree<u64, u64>>;

fn seed_count() -> u64 {
    std::env::var("FITING_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fiting-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
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

/// Writes the failing schedule somewhere a human can replay it from,
/// then returns the message to panic with.
fn dump_schedule(battery: &str, seed: u64, io: &FaultIo, err: &str) -> String {
    let dir = Path::new("target").join("chaos");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("failure-{battery}-{seed}.txt"));
    let mut report = format!(
        "battery: {battery}\nseed: {seed}\nerror: {err}\ninjections ({}):\n",
        io.injection_count()
    );
    for line in io.injections() {
        report.push_str(&line);
        report.push('\n');
    }
    let _ = std::fs::write(&path, &report);
    format!(
        "battery {battery} seed {seed}: {err} (schedule dumped to {})",
        path.display()
    )
}

// ---------------------------------------------------------------- A --

/// One seeded storm against a single durable shard. `Err` carries a
/// human-readable violation; the caller dumps the schedule.
fn shard_storm(root: &Path, seed: u64, io: &FaultIo) -> Result<bool, String> {
    io.disarm(); // build under clean I/O; the storm starts after
    let fsync = match seed % 3 {
        0 => FsyncPolicy::Always,
        1 => FsyncPolicy::EveryN(3),
        _ => FsyncPolicy::Off,
    };
    let cfg = DurableConfig::with_io(
        root,
        fsync,
        FitingTreeBuilder::new(64),
        Arc::new(io.clone()),
        RetryPolicy::immediate(2),
    )
    .map_err(|e| format!("clean-io config failed: {e}"))?;
    let base: Vec<(u64, u64)> = (0..64u64).map(|k| (k * 5, k)).collect();
    let mut oracle: BTreeMap<u64, u64> = base.iter().copied().collect();
    let mut idx: Durable = BuildableIndex::build_sorted(&cfg, base)
        .map_err(|e| format!("clean-io build failed: {e:?}"))?;

    io.arm();
    let mut rng = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut was_degraded = false;
    for step in 0..140u32 {
        match rng.next() % 100 {
            0..=39 => {
                let (k, v) = (rng.next() % 512, rng.next());
                match idx.try_insert(k, v) {
                    Ok(_) => {
                        oracle.insert(k, v);
                    }
                    Err(Degraded) => {
                        if idx.health() != ShardHealth::Degraded {
                            return Err(format!("step {step}: refusal while healthy"));
                        }
                        was_degraded = true;
                    }
                }
            }
            40..=54 => {
                let k = rng.next() % 512;
                match idx.try_remove(&k) {
                    Ok(prev) => {
                        if prev != oracle.remove(&k) {
                            return Err(format!("step {step}: remove({k}) returned wrong prev"));
                        }
                    }
                    Err(Degraded) => was_degraded = true,
                }
            }
            55..=69 => {
                let batch: Vec<(u64, u64)> = (0..1 + rng.next() % 6)
                    .map(|_| (rng.next() % 512, rng.next()))
                    .collect();
                match idx.try_insert_many(batch.clone()) {
                    Ok(_) => {
                        // Duplicate keys in one batch: last write wins
                        // (submission order), matching `insert_many`.
                        for (k, v) in batch {
                            oracle.insert(k, v);
                        }
                    }
                    Err(Degraded) => was_degraded = true,
                }
            }
            70..=79 => {
                let _ = idx.try_sync();
            }
            80..=87 => {
                let _ = idx.try_checkpoint();
            }
            88..=89 => {
                // Mid-storm resurrection: reload under live fire. The
                // carried-buffer handoff must keep every acked write.
                let _ = idx.reload();
            }
            _ => {
                // Read probe — degraded shards must still serve reads.
                let k = rng.next() % 512;
                if idx.get(&k).copied() != oracle.get(&k).copied() {
                    return Err(format!("step {step}: mid-storm read diverged at key {k}"));
                }
            }
        }
    }

    // Full mid-storm scan (degraded or not): memory == acked oracle.
    let got: Vec<(u64, u64)> = idx.range(..).collect();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    if got != want {
        return Err("mid-storm scan diverged from oracle".to_string());
    }

    // Quiesce and recover from disk: the acknowledged state must be
    // exactly what comes back.
    io.disarm();
    if !idx.reload() {
        return Err("clean-io reload refused".to_string());
    }
    if idx.health() != ShardHealth::Healthy {
        return Err("shard still degraded after clean reload".to_string());
    }
    let got: Vec<(u64, u64)> = idx.range(..).collect();
    if got != want {
        return Err("recovered state diverged from acknowledged oracle".to_string());
    }
    Ok(was_degraded)
}

#[test]
fn battery_a_shard_storms_are_oracle_exact() {
    let root = scratch_root("shard");
    let seeds = seed_count();
    let mut degraded_seeds = 0u64;
    let mut injected = 0u64;
    for seed in 0..seeds {
        let dir = root.join(format!("seed-{seed}"));
        let io = FaultIo::new(FaultPlan::seeded(seed));
        match shard_storm(&dir, seed, &io) {
            Ok(was_degraded) => degraded_seeds += u64::from(was_degraded),
            Err(e) => panic!("{}", dump_schedule("shard", seed, &io, &e)),
        }
        injected += io.injection_count();
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The storm must be real: faults actually fired, and a healthy
    // fraction of seeds tripped degraded mode at least once.
    assert!(
        injected > seeds,
        "only {injected} injections across {seeds} seeds"
    );
    assert!(
        degraded_seeds > seeds / 20,
        "only {degraded_seeds}/{seeds} seeds ever degraded — storm too quiet"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------- B --

/// ENOSPC at one specific checkpoint-rotation step: the previous
/// generation must survive, the shard degrades (unless the step is the
/// best-effort old-generation GC), and the next clean checkpoint
/// heals.
fn rotation_step_storm(root: &Path, step: usize, op: IoOp, pattern: &str, best_effort: bool) {
    let io = FaultIo::quiet();
    let cfg = DurableConfig::with_io(
        root,
        FsyncPolicy::Always,
        FitingTreeBuilder::new(64),
        Arc::new(io.clone()),
        RetryPolicy::none(),
    )
    .unwrap();
    let mut idx: Durable =
        BuildableIndex::build_sorted(&cfg, (0..128u64).map(|k| (k * 3, k))).unwrap();
    assert_eq!(idx.try_insert(7, 70), Ok(None));
    assert_eq!(idx.try_sync(), Ok(true));

    io.fail_nth(op, pattern, 1, InjectKind::Enospc, false);
    let shard = idx.shard_dir().to_path_buf();
    if best_effort {
        // GC of the old generation is advisory: the rotation itself
        // must still succeed and stay healthy.
        assert_eq!(
            idx.try_checkpoint(),
            Ok(true),
            "step {step}: {op:?} {pattern}"
        );
        assert_eq!(idx.health(), ShardHealth::Healthy);
        assert_eq!(idx.generation(), 1);
    } else {
        assert_eq!(
            idx.try_checkpoint(),
            Err(Degraded),
            "step {step}: {op:?} {pattern}"
        );
        assert_eq!(idx.health(), ShardHealth::Degraded);
        // Previous generation intact and still the live one.
        assert_eq!(idx.generation(), 0);
        assert!(
            shard.join("snapshot.000000").exists(),
            "step {step} lost the old snapshot"
        );
        assert!(
            shard.join("wal.000000").exists(),
            "step {step} lost the old log"
        );
        assert!(
            !shard.join("snapshot.000001").exists(),
            "step {step} published a broken snapshot"
        );
        // Degraded ⇒ reads still served, writes refused typed.
        assert_eq!(idx.get(&7), Some(&70));
        assert_eq!(idx.try_insert(10, 100), Err(Degraded));
        // The injected fault is spent: the re-armed checkpoint heals.
        assert_eq!(
            idx.try_checkpoint(),
            Ok(true),
            "step {step}: retry after spent fault"
        );
        assert_eq!(idx.health(), ShardHealth::Healthy);
        assert_eq!(idx.generation(), 1);
    }
    // Writes flow again and the whole state survives a clean reload.
    assert_eq!(idx.try_insert(11, 110), Ok(None));
    assert!(idx.reload());
    assert_eq!(idx.get(&7), Some(&70));
    assert_eq!(idx.get(&11), Some(&110));
    assert_eq!(
        idx.get(&10),
        None,
        "a refused write came back from the dead"
    );
    assert_eq!(idx.len(), 130);
}

#[test]
fn battery_b_enospc_at_every_rotation_step() {
    let root = scratch_root("rotation");
    // Every I/O the rotation performs, in order; the last two are the
    // best-effort old-generation GC.
    let steps: Vec<(IoOp, &str, bool)> = vec![
        (IoOp::Create, "wal.000001", false),
        (IoOp::Fsync, "wal.000001", false),
        (IoOp::Create, "snapshot.tmp", false),
        (IoOp::Write, "snapshot.tmp", false),
        (IoOp::Fsync, "snapshot.tmp", false),
        (IoOp::Rename, "snapshot.tmp", false),
        (IoOp::SyncDir, "shard-", false),
        (IoOp::RemoveFile, "snapshot.000000", true),
        (IoOp::RemoveFile, "wal.000000", true),
    ];
    for (step, (op, pattern, best_effort)) in steps.into_iter().enumerate() {
        let dir = root.join(format!("step-{step}"));
        rotation_step_storm(&dir, step, op, pattern, best_effort);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------- C --

/// Keys booby-trapped to panic the worker thread that touches them —
/// one per lane of the two-lane service (the base data splits at
/// ~1000, so 998 routes to lane 0 and 1998 to lane 1; both are ≡ 2
/// (mod 4), so neither collides with the even base keys (multiples of
/// 4) nor the odd workload keys).
const BOOMS: [u64; 2] = [998, 1998];

/// A durable shard with a tripwire: inserting a boom key panics
/// *before* anything is logged or applied — modelling a worker hitting
/// a poison pill mid-batch. Everything else forwards to the wrapped
/// [`Durable`], including the whole degraded/reload vocabulary.
struct PanicOn(Durable);

impl SortedIndex<u64, u64> for PanicOn {
    type RangeIter<'a> = <Durable as SortedIndex<u64, u64>>::RangeIter<'a>;

    fn name(&self) -> &'static str {
        "PanicOn"
    }

    fn get(&self, key: &u64) -> Option<&u64> {
        self.0.get(key)
    }

    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert!(!BOOMS.contains(&key), "boom: poisoned key {key}");
        self.0.insert(key, value)
    }

    fn remove(&mut self, key: &u64) -> Option<u64> {
        self.0.remove(key)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }

    fn range<R: RangeBounds<u64>>(&self, range: R) -> Self::RangeIter<'_> {
        self.0.range(range)
    }

    fn insert_many(&mut self, batch: Vec<(u64, u64)>) -> usize {
        assert!(
            !batch.iter().any(|(k, _)| BOOMS.contains(k)),
            "boom: poisoned key in batch"
        );
        self.0.insert_many(batch)
    }

    fn wal_bytes(&self) -> usize {
        self.0.wal_bytes()
    }

    fn try_insert(&mut self, key: u64, value: u64) -> Result<Option<u64>, Degraded> {
        assert!(!BOOMS.contains(&key), "boom: poisoned key {key}");
        self.0.try_insert(key, value)
    }

    fn try_remove(&mut self, key: &u64) -> Result<Option<u64>, Degraded> {
        self.0.try_remove(key)
    }

    fn try_insert_many(&mut self, batch: Vec<(u64, u64)>) -> Result<usize, Degraded> {
        assert!(
            !batch.iter().any(|(k, _)| BOOMS.contains(k)),
            "boom: poisoned key in batch"
        );
        self.0.try_insert_many(batch)
    }

    fn try_sync(&mut self) -> Result<bool, Degraded> {
        self.0.try_sync()
    }

    fn try_checkpoint(&mut self) -> Result<bool, Degraded> {
        self.0.try_checkpoint()
    }

    fn health(&self) -> ShardHealth {
        self.0.health()
    }

    fn io_retries(&self) -> u64 {
        self.0.io_retries()
    }

    fn reload(&mut self) -> bool {
        self.0.reload()
    }
}

impl BuildableIndex<u64, u64> for PanicOn {
    type Config = <Durable as BuildableIndex<u64, u64>>::Config;
    type BuildError = <Durable as BuildableIndex<u64, u64>>::BuildError;

    fn build_sorted(
        config: &Self::Config,
        sorted: impl IntoIterator<Item = (u64, u64)>,
    ) -> Result<Self, Self::BuildError> {
        Durable::build_sorted(config, sorted).map(PanicOn)
    }
}

/// Everything one service storm learned, for the final verdict.
struct StormLedger {
    /// Keys whose last outcome was an acknowledged write (`Ok`) — the
    /// oracle: each must hold exactly this value after recovery.
    acked: BTreeMap<u64, u64>,
    /// Keys last touched by a refused or canceled cross-shard batch —
    /// partially applied by design, excluded from the verdict.
    uncertain: BTreeSet<u64>,
    /// Fresh keys whose only op was a canceled/refused *point* write —
    /// never executed, so they must NOT exist after recovery.
    never_applied: BTreeSet<u64>,
}

/// One seeded storm against a two-lane supervised durable service with
/// worker panics. `Err` carries a violation; the caller dumps the
/// schedule.
fn service_storm(root: &Path, seed: u64, io: &FaultIo) -> Result<(u64, u64), String> {
    io.disarm();
    let cfg = DurableConfig::with_io(
        root,
        FsyncPolicy::EveryN(2),
        FitingTreeBuilder::new(64),
        Arc::new(io.clone()),
        RetryPolicy::immediate(2),
    )
    .map_err(|e| format!("clean-io config failed: {e}"))?;
    // Even base keys (multiples of 4) spanning 0..2000: two shards
    // split at ~1000.
    let base: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 4, k)).collect();
    let index: ShardedIndex<u64, u64, PanicOn> = ShardedIndex::bulk_load(&cfg, 2, base.clone())
        .map_err(|e| format!("clean-io bulk load failed: {e:?}"))?;
    let svc = IndexService::start_supervised(
        index,
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 16,
            batch_window: Duration::from_micros(200),
        },
        DurabilityConfig {
            sync_each_batch: true,
            checkpoint_interval: Duration::from_millis(3),
            checkpoint_wal_bytes: 4 << 10,
        },
        SupervisorConfig {
            interval: Duration::from_millis(1),
            max_lane_restarts: 1_000,
        },
    );
    let client = svc.client();

    let mut ledger = StormLedger {
        acked: base.into_iter().collect(),
        uncertain: BTreeSet::new(),
        never_applied: BTreeSet::new(),
    };
    let mut rng = Lcg(seed ^ 0xC0FF_EE00_DEAD_BEEF);
    let mut fresh = 0u64; // odd workload keys: 1, 3, 5, … (span lanes)
    let mut next_key = || {
        fresh += 2;
        fresh - 1
    };

    io.arm();
    enum Pending {
        Insert(u64, u64, fiting::Ticket<Option<u64>>),
        Remove(u64, fiting::Ticket<Option<u64>>),
        Batch(Vec<(u64, u64)>, fiting::Ticket<usize>),
        Boom(fiting::Ticket<Option<u64>>),
    }
    for _wave in 0..8u32 {
        let mut wave: Vec<Pending> = Vec::new();
        for _ in 0..24u32 {
            match rng.next() % 100 {
                // One poison pill per ~24 ops, alternating lanes.
                0..=3 => {
                    let boom = BOOMS[(rng.next() % 2) as usize];
                    wave.push(Pending::Boom(client.insert(boom, 0)));
                }
                4..=53 => {
                    let (k, v) = (next_key(), rng.next());
                    wave.push(Pending::Insert(k, v, client.insert(k, v)));
                }
                54..=69 => {
                    // Remove a key the ledger is certain about.
                    let candidates: Vec<u64> = ledger.acked.keys().copied().collect();
                    let k = candidates[(rng.next() as usize) % candidates.len()];
                    wave.push(Pending::Remove(k, client.remove(k)));
                }
                _ => {
                    let batch: Vec<(u64, u64)> = (0..4).map(|_| (next_key(), rng.next())).collect();
                    wave.push(Pending::Batch(batch.clone(), client.insert_many(batch)));
                }
            }
        }
        // Wait the wave out; classify every outcome. (Waves keep at
        // most one in-flight op per key, so per-key order is exact.)
        for pending in wave {
            match pending {
                Pending::Insert(k, v, t) => match t.wait() {
                    Ok(_) => {
                        ledger.acked.insert(k, v);
                    }
                    Err(_) => {
                        // Canceled or refused point write on a fresh
                        // key: never executed, must stay absent.
                        ledger.never_applied.insert(k);
                    }
                },
                // A refused/canceled remove was not applied: the
                // ledger keeps the key.
                Pending::Remove(k, t) => {
                    if let Ok(prev) = t.wait() {
                        let want = ledger.acked.remove(&k);
                        if prev != want {
                            return Err(format!(
                                "remove({k}) acked {prev:?}, oracle held {want:?}"
                            ));
                        }
                    }
                }
                Pending::Batch(batch, t) => match t.wait() {
                    Ok(_) => {
                        for (k, v) in batch {
                            ledger.acked.insert(k, v);
                        }
                    }
                    Err(_) => {
                        // Cross-shard batch: may have landed on some
                        // lanes before a refusal/panic on another.
                        for (k, _) in batch {
                            ledger.acked.remove(&k);
                            ledger.uncertain.insert(k);
                        }
                    }
                },
                Pending::Boom(t) => {
                    if t.wait().is_ok() {
                        return Err("boom key insert was acknowledged".to_string());
                    }
                }
            }
        }
    }

    // Quiesce: no more faults; the supervisor resurrects poisoned
    // lanes and the checkpoint coordinator heals degraded shards. No
    // write is submitted while waiting: health is read from the shards
    // that own it, so a healed service reads healed by itself.
    io.disarm();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = svc.stats();
        let lanes_ok = stats.lanes.iter().all(|l| l.health == LaneHealth::Healthy);
        if lanes_ok && !stats.is_degraded() {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "service did not heal: lanes {:?}, degraded {}",
                stats.lanes.iter().map(|l| l.health).collect::<Vec<_>>(),
                stats.is_degraded()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // A resurrected, healed service must round-trip fresh writes on
    // both lanes (997 → lane 0, 2 997 → lane 1; odd keys the workload
    // counter cannot plausibly reach). The stats snapshot can race the
    // final poison — a worker resolves its batch's tickets while still
    // unwinding, before the lane flips Poisoned — so the probe retries
    // like a real client would; a refused/canceled point write was
    // never applied, making the retry safe.
    for probe in [997u64, 2_997] {
        let v = probe * 10;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match client.insert(probe, v).wait() {
                Ok(_) => {
                    ledger.acked.insert(probe, v);
                    break;
                }
                Err(e) if Instant::now() > deadline => {
                    let stats = svc.stats();
                    return Err(format!(
                        "healed service kept refusing probe {probe}: {e} (lanes {:?}, \
                         restarts {:?}, panics {:?}, degraded {})",
                        stats.lanes.iter().map(|l| l.health).collect::<Vec<_>>(),
                        stats.lanes.iter().map(|l| l.restarts).collect::<Vec<_>>(),
                        stats.lanes.iter().map(|l| l.panics).collect::<Vec<_>>(),
                        stats.is_degraded()
                    ));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        match client.get(probe).wait() {
            Ok(Some(got)) if got == v => {}
            other => return Err(format!("probe {probe} read back {other:?}")),
        }
    }

    let stats = svc.stats();
    let restarts: u64 = stats.lanes.iter().map(|l| l.restarts).sum();
    let panics: u64 = stats.lanes.iter().map(|l| l.panics).sum();
    let checkpoint_failures = stats.checkpoint_failures;
    if panics != restarts {
        return Err(format!("{panics} panics but {restarts} resurrections"));
    }

    // Shutdown drains, final-syncs under clean I/O, and the store must
    // reopen from disk to exactly the certain ledger.
    drop(client);
    let _ = svc.shutdown();
    let (back, report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&cfg)
        .map_err(|e| format!("clean-io reopen failed: {e}"))?;
    if !report.skipped.is_empty() {
        return Err(format!("reopen skipped {} shards", report.skipped.len()));
    }
    for (&k, &v) in &ledger.acked {
        if ledger.uncertain.contains(&k) {
            continue;
        }
        if back.get(&k) != Some(v) {
            return Err(format!("acked write {k}={v} lost (got {:?})", back.get(&k)));
        }
    }
    for &k in &ledger.never_applied {
        if !ledger.uncertain.contains(&k) && back.get(&k).is_some() {
            return Err(format!("canceled write {k} rose from the dead"));
        }
    }
    for k in BOOMS {
        if back.get(&k).is_some() {
            return Err(format!("boom key {k} was applied"));
        }
    }
    Ok((restarts, checkpoint_failures))
}

/// Deterministic companion to the seeded storms: force the checkpoint
/// coordinator into exactly one rotation failure and prove it reaches
/// [`fiting::ServiceStats::checkpoint_failures`], then heals. The
/// seeded schedules usually produce coordinator faults too, but
/// whether one lands inside a checkpoint window is schedule luck — the
/// propagation guarantee is pinned here with a targeted injection.
fn forced_checkpoint_failure(root: &Path, io: &FaultIo) -> Result<(), String> {
    let cfg = DurableConfig::with_io(
        root,
        FsyncPolicy::Always,
        FitingTreeBuilder::new(64),
        Arc::new(io.clone()),
        RetryPolicy::none(),
    )
    .map_err(|e| format!("config failed: {e}"))?;
    let base: Vec<(u64, u64)> = (0..200u64).map(|k| (k * 2, k)).collect();
    let index: ShardedIndex<u64, u64, Durable> =
        ShardedIndex::bulk_load(&cfg, 2, base).map_err(|e| format!("bulk load failed: {e:?}"))?;
    let svc = IndexService::start_supervised(
        index,
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 16,
            batch_window: Duration::from_micros(200),
        },
        DurabilityConfig {
            sync_each_batch: true,
            // Threshold 0: every coordinator pass checkpoints every
            // shard, so the targeted fault below fires on the very
            // first pass — no schedule luck involved.
            checkpoint_interval: Duration::from_millis(1),
            checkpoint_wal_bytes: 0,
        },
        SupervisorConfig {
            interval: Duration::from_millis(1),
            max_lane_restarts: 10,
        },
    );
    let client = svc.client();
    io.fail_nth(IoOp::Create, "snapshot.tmp", 1, InjectKind::Enospc, false);

    // The one-shot fault degrades one shard and bumps the counter; the
    // coordinator's next pass retries the degraded shard and heals it.
    let deadline = Instant::now() + Duration::from_secs(20);
    while svc.stats().checkpoint_failures == 0 {
        if Instant::now() > deadline {
            let _ = svc.shutdown();
            return Err("forced rotation fault never reached ServiceStats".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    while svc.stats().is_degraded() {
        if Instant::now() > deadline {
            let _ = svc.shutdown();
            return Err("shard stayed degraded after the one-shot fault".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Healed service still round-trips writes.
    client
        .insert(9_001, 1)
        .wait()
        .map_err(|e| format!("post-heal write refused: {e}"))?;
    match client.get(9_001).wait() {
        Ok(Some(1)) => {}
        other => return Err(format!("post-heal read back {other:?}")),
    }
    drop(client);
    let _ = svc.shutdown();
    Ok(())
}

#[test]
fn battery_c_service_storms_keep_every_acknowledged_write() {
    let root = scratch_root("service");
    let seeds = (seed_count() / 4).max(110);
    let mut total_restarts = 0u64;
    for seed in 0..seeds {
        let dir = root.join(format!("seed-{seed}"));
        let io = FaultIo::new(FaultPlan::seeded(seed ^ 0x5EED_CAFE));
        match service_storm(&dir, seed, &io) {
            Ok((restarts, _ckpt_failures)) => total_restarts += restarts,
            Err(e) => panic!("{}", dump_schedule("service", seed, &io, &e)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The storm must be real: poison pills actually fired and lanes
    // actually came back.
    assert!(
        total_restarts >= seeds,
        "only {total_restarts} lane resurrections across {seeds} storms"
    );
    // Checkpoint-failure propagation is pinned deterministically — the
    // seeded storms only hit the coordinator when the schedule happens
    // to intersect a checkpoint window.
    let dir = root.join("forced-checkpoint");
    let io = FaultIo::quiet();
    if let Err(e) = forced_checkpoint_failure(&dir, &io) {
        panic!("{}", dump_schedule("service-forced", 0, &io, &e));
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------- D --

fn scan_equals(index: &ShardedIndex<u64, u64, Durable>, oracle: &BTreeMap<u64, u64>) -> bool {
    let scan = index.range_collect(..);
    scan.into_iter().eq(oracle.iter().map(|(&k, &v)| (k, v)))
}

/// One seeded storm of writes, splits, merges and maintenance passes
/// against a three-shard durable index. `Ok` carries `(refused moves,
/// completed moves)`; `Err` a violation for the caller to dump.
fn rebalance_storm(root: &Path, seed: u64, io: &FaultIo) -> Result<(u64, u64), String> {
    io.disarm(); // build under clean I/O; the storm starts after
    let fsync = match seed % 3 {
        0 => FsyncPolicy::Always,
        1 => FsyncPolicy::EveryN(3),
        _ => FsyncPolicy::Off,
    };
    let cfg = DurableConfig::with_io(
        root,
        fsync,
        FitingTreeBuilder::new(64),
        Arc::new(io.clone()),
        RetryPolicy::immediate(2),
    )
    .map_err(|e| format!("clean-io config failed: {e}"))?;
    let base: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 4, k)).collect();
    let mut oracle: BTreeMap<u64, u64> = base.iter().copied().collect();
    let index: ShardedIndex<u64, u64, Durable> = ShardedIndex::bulk_load(&cfg, 3, base)
        .map_err(|e| format!("clean-io bulk load failed: {e:?}"))?;

    io.arm();
    let mut rng = Lcg(seed ^ 0xD15C_0B07_5EED_0D0D);
    let (mut refused, mut completed) = (0u64, 0u64);
    for step in 0..120u32 {
        let roll = rng.next() % 100;
        match roll {
            0..=24 => {
                let (k, v) = (rng.next() % 1_600, rng.next());
                index.with_write_groups(vec![(k, v)], |shard, k, v| {
                    if shard.try_insert(k, v).is_ok() {
                        oracle.insert(k, v);
                    }
                });
            }
            25..=34 => {
                let k = rng.next() % 1_600;
                let mut wrong_prev = false;
                index.with_write_groups(vec![(k, ())], |shard, k, ()| {
                    if let Ok(prev) = shard.try_remove(&k) {
                        wrong_prev = prev != oracle.remove(&k);
                    }
                });
                if wrong_prev {
                    return Err(format!("step {step}: remove({k}) returned wrong prev"));
                }
            }
            35..=49 => {
                // Distinct keys, so the per-key verdict below is exact.
                let batch: BTreeMap<u64, u64> = (0..1 + rng.next() % 8)
                    .map(|_| (rng.next() % 1_600, rng.next()))
                    .collect();
                let (_, refused_keys) = index.insert_many_reporting(batch.clone());
                // Nothing runs concurrently, so a key was refused iff
                // the shard that owns it is degraded right now.
                let health: Vec<ShardHealth> =
                    index.shard_stats().iter().map(|s| s.health).collect();
                let mut expect_refused = 0;
                for (k, v) in batch {
                    if health[index.shard_of(&k)] == ShardHealth::Healthy {
                        oracle.insert(k, v);
                    } else {
                        expect_refused += 1;
                    }
                }
                if refused_keys != expect_refused {
                    return Err(format!(
                        "step {step}: batch reported {refused_keys} refused keys, \
                         degraded shards own {expect_refused}"
                    ));
                }
            }
            50..=71 => {
                let (count, bounds) = (index.shard_count(), index.boundaries());
                let (what, outcome, want_count) = if roll <= 61 {
                    let at = *oracle
                        .keys()
                        .nth(rng.next() as usize % oracle.len())
                        .expect("the storm never drains the oracle");
                    let outcome = index.split_shard(index.shard_of(&at), at);
                    (format!("split at {at}"), outcome, count + 1)
                } else {
                    let left = rng.next() as usize % count;
                    (
                        format!("merge {left}+{}", left + 1),
                        index.merge_with_next(left),
                        count - 1,
                    )
                };
                match outcome {
                    Ok(_) => {
                        completed += 1;
                        if index.shard_count() != want_count {
                            return Err(format!(
                                "step {step}: {what} succeeded, shard count {count} -> {}",
                                index.shard_count()
                            ));
                        }
                    }
                    Err(e) => {
                        refused += u64::from(e == RebalanceError::Refused);
                        if (index.shard_count(), index.boundaries()) != (count, bounds) {
                            return Err(format!("step {step}: {what} failed ({e}) yet moved"));
                        }
                    }
                }
            }
            72..=79 => {
                let _ = index.try_sync_all();
            }
            80..=85 => {
                let _ = index.try_checkpoint_shards(0);
            }
            86..=91 => {
                let _ = index.heal_shards();
            }
            _ => {
                // Read probe — degraded shards must still serve reads.
                let k = rng.next() % 1_600;
                if index.get(&k) != oracle.get(&k).copied() {
                    return Err(format!("step {step}: mid-storm read diverged at key {k}"));
                }
            }
        }
        // Memory is the acknowledged state after every step: a refused
        // write or move left nothing behind, a completed one lost nothing.
        if !scan_equals(&index, &oracle) {
            return Err(format!(
                "step {step} (roll {roll}): scan diverged from oracle"
            ));
        }
    }

    // Quiesce: heal every shard, flush, and recover from disk.
    io.disarm();
    index.heal_shards();
    if index
        .shard_stats()
        .iter()
        .any(|s| s.health != ShardHealth::Healthy)
    {
        return Err("a shard stayed degraded after a clean heal pass".to_string());
    }
    index.sync_all();
    drop(index);
    let (back, _report) = open_sharded::<u64, u64, FitingTree<u64, u64>>(&cfg)
        .map_err(|e| format!("clean-io reopen failed: {e}"))?;
    if !scan_equals(&back, &oracle) {
        return Err("recovered state diverged from acknowledged oracle".to_string());
    }
    Ok((refused, completed))
}

#[test]
fn battery_d_rebalance_storms_move_whole_runs_or_nothing() {
    let root = scratch_root("rebalance");
    let seeds = (seed_count() / 4).max(100);
    let (mut refusing_seeds, mut moving_seeds) = (0u64, 0u64);
    for seed in 0..seeds {
        let dir = root.join(format!("seed-{seed}"));
        let io = FaultIo::new(FaultPlan::seeded(seed ^ 0x0D15_C0DE));
        // A panic is the first thing this battery forbids; catch it so
        // its schedule is dumped like any other violation.
        let storm = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rebalance_storm(&dir, seed, &io)
        }))
        .unwrap_or_else(|_| Err("panicked (message above)".to_string()));
        match storm {
            Ok((refused, completed)) => {
                refusing_seeds += u64::from(refused > 0);
                moving_seeds += u64::from(completed > 0);
            }
            Err(e) => panic!("{}", dump_schedule("rebalance", seed, &io, &e)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The storm must be real on both sides of the all-or-nothing rule.
    assert!(
        refusing_seeds > seeds / 20,
        "only {refusing_seeds}/{seeds} seeds ever had a move refused — storm too quiet"
    );
    assert!(
        moving_seeds > seeds / 2,
        "only {moving_seeds}/{seeds} seeds ever completed a move — storm too harsh"
    );
    let _ = std::fs::remove_dir_all(&root);
}
