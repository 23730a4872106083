//! The [`DurableIndex`] wrapper: any snapshot-capable index structure
//! plus a per-shard snapshot + WAL directory on disk.
//!
//! # Shard directory layout
//!
//! Each shard owns one directory under the store root:
//!
//! ```text
//! <root>/shard-000000/
//!   snapshot.000003   latest checkpoint (core snapshot format)
//!   wal.000003        mutations since that checkpoint
//! ```
//!
//! Snapshot and log share a **generation** number; a checkpoint writes
//! generation `g+1` as fresh `wal.(g+1)` → temp snapshot → atomic
//! rename → directory fsync (the commit point), then deletes
//! generation `g` — so at every instant at least one complete
//! (snapshot, log) pair is on disk, and a failure at *any* rotation
//! step rolls back to generation `g` intact (the ENOSPC-per-step
//! battery in `tests/chaos.rs` proves each step).
//!
//! # Recovery invariant
//!
//! `open` = decode the newest intact snapshot, replay its log's
//! longest intact record prefix, truncate the torn tail. The recovered
//! state is therefore always *prefix-consistent*: exactly the state
//! after some prefix of the logged mutations, never a torn record,
//! never a partial operation — the property the crash-injection suite
//! verifies against a `BTreeMap` oracle at every record boundary and
//! at random corruption offsets. [`open_sharded`] additionally
//! reconciles *overlapping* shard spans (the crash window between the
//! two checkpoints of a split or merge duplicates — never loses — the
//! moved run) by dropping the duplicated tail from the lower shard.
//!
//! # Failure policy
//!
//! All I/O goes through the store's [`StorageIo`] and surfaces as
//! classified [`StorageError`]s; transient faults are absorbed by the
//! store's [`RetryPolicy`]. A *permanent* WAL-commit or checkpoint
//! failure flips the shard into **degraded read-only mode**: reads
//! (which never touch the disk) keep serving, further writes fail fast
//! with a typed [`Degraded`] error through the `try_*` mutation
//! vocabulary, and the fault that tripped the shard is retained in
//! [`degraded_reason`](DurableIndex::degraded_reason). The mode is
//! re-armed, not terminal — a later successful
//! [`try_checkpoint`](SortedIndex::try_checkpoint) (disk freed,
//! transient storm over) rotates to a clean generation and heals the
//! shard. The panic-free `try_*` methods are the service path; the
//! plain [`SortedIndex`] mutators (which have no error channel) panic
//! only if invoked on an already-degraded shard.

use crate::error::{IoOp, RetryPolicy, StorageError};
use crate::io::{RealIo, StorageIo};
use crate::wal::{replay, FsyncPolicy, Wal, WalOp};
use fiting_index_api::{BuildableIndex, Degraded, Key, ShardHealth, ShardedIndex, SortedIndex};
use fiting_tree::snapshot::{decode_tree, encode_tree_into, SnapshotError};
use fiting_tree::FitingTree;
use std::ops::{Bound, RangeBounds};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An index structure that can serialize itself into (and restore
/// itself from) the core snapshot page format — the bound
/// [`DurableIndex`] places on its inner structure.
pub trait PageSnapshot: Sized {
    /// Streams the full structure's snapshot image into `sink`, in
    /// order and a bounded chunk at a time, and returns its length.
    ///
    /// # Errors
    ///
    /// The first error `sink` returns; nothing is written after it.
    fn stream_snapshot<E>(&self, sink: impl FnMut(&[u8]) -> Result<(), E>) -> Result<usize, E>;

    /// Restores a structure from a snapshot image.
    ///
    /// # Errors
    ///
    /// Any truncation, checksum mismatch, or inconsistency in `bytes`.
    fn restore_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError>;
}

impl<K: Key, V: Key> PageSnapshot for FitingTree<K, V> {
    fn stream_snapshot<E>(&self, sink: impl FnMut(&[u8]) -> Result<(), E>) -> Result<usize, E> {
        encode_tree_into(self, sink)
    }

    fn restore_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        decode_tree(bytes)
    }
}

/// Shared state of one on-disk store: the root directory, the fsync
/// policy, the I/O implementation, the retry policy, and the
/// shard-directory allocator.
#[derive(Debug)]
struct Store {
    root: PathBuf,
    fsync: FsyncPolicy,
    io: Arc<dyn StorageIo>,
    retry: Arc<RetryPolicy>,
    next_shard: AtomicU64,
}

impl Store {
    /// Runs one I/O call with retry-on-transient and classification.
    fn run<T>(
        &self,
        retries: &AtomicU64,
        op: IoOp,
        path: &Path,
        mut f: impl FnMut(&dyn StorageIo) -> std::io::Result<T>,
    ) -> Result<T, StorageError> {
        self.retry.run(retries, || {
            f(self.io.as_ref()).map_err(|e| StorageError::new(op, path, e))
        })
    }

    fn mint_shard_dir(&self, retries: &AtomicU64) -> Result<PathBuf, StorageError> {
        // ordering: Relaxed — the counter only mints unique ids; the
        // filesystem create_dir_all publishes the directory.
        let id = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("shard-{id:06}"));
        self.run(retries, IoOp::CreateDir, &dir, |io| io.create_dir_all(&dir))?;
        Ok(dir)
    }
}

/// Build configuration for [`DurableIndex`] shards: where they live,
/// how eagerly they fsync, which [`StorageIo`] they speak through, and
/// how to build the structure they wrap.
///
/// `Clone`s share the same store (same root, same shard-id allocator),
/// which is what lets [`ShardedIndex`] rebalancing build fresh durable
/// shards without colliding directories.
#[derive(Debug, Clone)]
pub struct DurableConfig<C> {
    /// Configuration of the wrapped structure.
    pub inner: C,
    store: Arc<Store>,
}

impl<C> DurableConfig<C> {
    /// Creates (or adopts) the store root at `root` on the real
    /// filesystem with the default [`RetryPolicy`].
    ///
    /// Existing `shard-*` directories are counted so freshly minted
    /// shards never reuse a directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating or scanning `root`.
    pub fn new(root: impl Into<PathBuf>, fsync: FsyncPolicy, inner: C) -> std::io::Result<Self> {
        DurableConfig::with_io(root, fsync, inner, Arc::new(RealIo), RetryPolicy::default())
            .map_err(StorageError::into_io)
    }

    /// Creates (or adopts) the store root at `root`, speaking through
    /// `io` (e.g. a [`FaultIo`](crate::FaultIo) harness) and absorbing
    /// transient faults per `retry`.
    ///
    /// # Errors
    ///
    /// Classified failures creating or scanning `root`.
    pub fn with_io(
        root: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        inner: C,
        io: Arc<dyn StorageIo>,
        retry: RetryPolicy,
    ) -> Result<Self, StorageError> {
        let root = root.into();
        let retry = Arc::new(retry);
        let scan_retries = AtomicU64::new(0);
        retry.run(&scan_retries, || {
            io.create_dir_all(&root)
                .map_err(|e| StorageError::new(IoOp::CreateDir, &root, e))
        })?;
        let names = retry.run(&scan_retries, || {
            io.read_dir_names(&root)
                .map_err(|e| StorageError::new(IoOp::ReadDir, &root, e))
        })?;
        let mut next = 0;
        for name in names {
            if let Some(id) = parse_shard_id(&name) {
                next = next.max(id + 1);
            }
        }
        Ok(DurableConfig {
            inner,
            store: Arc::new(Store {
                root,
                fsync,
                io,
                retry,
                next_shard: AtomicU64::new(next),
            }),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.store.root
    }
}

impl StorageError {
    /// Unwraps back to the underlying [`std::io::Error`] (for callers
    /// on the plain-`io` API surface).
    #[must_use]
    pub(crate) fn into_io(self) -> std::io::Error {
        std::io::Error::new(self.kind(), self.to_string())
    }
}

/// Applies one logged op to `inner` the way the write path applied it,
/// first appending it to `relog` when the record is carried into a
/// fresh log ([`DurableIndex::reopen_in_place`]).
fn apply<K: Key, V: Key>(
    inner: &mut impl SortedIndex<K, V>,
    op: WalOp<K, V>,
    relog: Option<&mut Wal<K, V>>,
) {
    if let Some(wal) = relog {
        wal.append(&op);
    }
    match op {
        WalOp::Insert(k, v) => {
            inner.insert(k, v);
        }
        WalOp::Remove(k) => {
            inner.remove(&k);
        }
    }
}

fn parse_shard_id(name: &str) -> Option<u64> {
    name.strip_prefix("shard-")?.parse().ok()
}

fn gen_file(dir: &Path, prefix: &str, generation: u64) -> PathBuf {
    dir.join(format!("{prefix}.{generation:06}"))
}

/// Streams `image`'s snapshot to `path` durably: create, write each
/// chunk through (tolerating short writes), fdatasync. Used for the
/// temp snapshot. Returns the bytes written.
fn write_file_durable(
    store: &Store,
    retries: &AtomicU64,
    path: &Path,
    image: &impl PageSnapshot,
) -> Result<usize, StorageError> {
    let mut f = store.run(retries, IoOp::Create, path, |io| io.create(path))?;
    let len = image.stream_snapshot(|chunk| {
        let mut done = 0;
        while done < chunk.len() {
            done += store.retry.run(retries, || {
                f.write(&chunk[done..])
                    .map_err(|e| StorageError::new(IoOp::Write, path, e))
            })?;
        }
        Ok(())
    })?;
    store.retry.run(retries, || {
        f.sync_data()
            .map_err(|e| StorageError::new(IoOp::Fsync, path, e))
    })?;
    Ok(len)
}

/// Publishes `image` as generation `generation`'s snapshot: temp file,
/// data fsync, atomic rename — the caller owes the directory fsync. On
/// failure the temp file is cleaned up best-effort and nothing of the
/// new generation is visible. Returns the snapshot's length.
fn write_snapshot(
    store: &Store,
    retries: &AtomicU64,
    dir: &Path,
    generation: u64,
    image: &impl PageSnapshot,
) -> Result<usize, StorageError> {
    let tmp = dir.join("snapshot.tmp");
    let publish = (|| {
        let len = write_file_durable(store, retries, &tmp, image)?;
        let target = gen_file(dir, "snapshot", generation);
        store.run(retries, IoOp::Rename, &tmp, |io| io.rename(&tmp, &target))?;
        Ok(len)
    })();
    if publish.is_err() {
        let _ = store.io.remove_file(&tmp);
    }
    publish
}

/// What recovery found in one shard directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The shard directory that was opened.
    pub dir: PathBuf,
    /// Generation of the snapshot that decoded.
    pub generation: u64,
    /// Size of that snapshot on disk.
    pub snapshot_bytes: usize,
    /// Mutations replayed from the WAL on top of the snapshot (an old
    /// batched-insert record counts one per pair).
    pub replayed: usize,
    /// Whether a torn/corrupt WAL tail (or a damaged WAL header) was
    /// discarded.
    pub wal_truncated: bool,
    /// Keys dropped by [`open_sharded`]'s overlap reconciliation — a
    /// crash between the two checkpoints of a split/merge duplicates
    /// the moved run across two shards; the copy in the lower shard is
    /// discarded at reopen.
    pub overlap_dropped: usize,
}

/// Why a shard (or store) failed to open.
#[derive(Debug)]
pub enum OpenError {
    /// Classified I/O failure scanning or reading the store.
    Io(StorageError),
    /// The shard directory holds no snapshot that decodes.
    NoValidSnapshot(PathBuf),
    /// The store root holds no shard directories at all.
    NoShards(PathBuf),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "store I/O failure: {e}"),
            OpenError::NoValidSnapshot(dir) => {
                write!(f, "no intact snapshot in {}", dir.display())
            }
            OpenError::NoShards(root) => {
                write!(f, "no shard directories under {}", root.display())
            }
        }
    }
}

impl std::error::Error for OpenError {}

impl From<StorageError> for OpenError {
    fn from(e: StorageError) -> Self {
        OpenError::Io(e)
    }
}

/// Build failure of a durable shard: either the wrapped structure
/// refused its input, or its storage could not be created.
#[derive(Debug)]
pub enum StorageBuildError<E> {
    /// The wrapped structure's own build error.
    Build(E),
    /// Creating the shard directory, snapshot, or log failed.
    Io(StorageError),
}

/// A [`SortedIndex`] wrapper adding a per-shard snapshot + write-ahead
/// log. See the module docs for the layout, the recovery invariant,
/// and the degraded-mode failure policy.
///
/// Mutations are logged (buffered) *before* they are applied; the
/// buffer reaches the OS — and, policy permitting, stable storage — at
/// each [`try_sync`](SortedIndex::try_sync) group-commit point.
/// [`split_off_tail`](SortedIndex::split_off_tail) and
/// [`absorb_tail`](SortedIndex::absorb_tail) checkpoint the involved
/// shards, so rebalancing rotates per-shard logs instead of leaving a
/// log that disagrees with its shard's key span; a move that cannot be
/// persisted is undone in memory and refused (`None` / `false`), with
/// the shard whose disk failed left degraded.
#[derive(Debug)]
pub struct DurableIndex<K: Key, V: Key, I = FitingTree<K, V>> {
    inner: I,
    store: Arc<Store>,
    dir: PathBuf,
    generation: u64,
    wal: Wal<K, V>,
    disk_bytes: usize,
    /// `Some(reason)` once a permanent WAL/checkpoint fault flipped
    /// the shard read-only; cleared by a successful checkpoint.
    degraded: Option<String>,
    /// Transient faults absorbed by retry on this shard's behalf.
    retries: Arc<AtomicU64>,
}

impl<K: Key, V: Key, I: SortedIndex<K, V> + PageSnapshot> DurableIndex<K, V, I> {
    /// Wraps `inner`, minting a fresh shard directory with an empty log
    /// and an initial snapshot (generation 0). On failure `inner` is
    /// handed back so the caller can undo an in-memory move.
    ///
    /// The snapshot's rename is the last step that can fail the call,
    /// so a failed `create` leaves a directory with no decodable
    /// snapshot, which reopen skips — never a live-looking copy of a
    /// run whose move the caller then undoes, which reopen's "upper
    /// shard owns the overlap" rule would prefer over every later
    /// write. Past the rename the shard exists: a failed directory
    /// fsync leaves it born degraded (read-only until its first
    /// checkpoint re-syncs the directory) rather than undone.
    fn create(inner: I, store: Arc<Store>) -> Result<Self, (StorageError, I)> {
        let retries = Arc::new(AtomicU64::new(0));
        let prep = (|| {
            let dir = store.mint_shard_dir(&retries)?;
            let wal = Wal::create(
                store.io.as_ref(),
                &gen_file(&dir, "wal", 0),
                store.fsync,
                Arc::clone(&store.retry),
                Arc::clone(&retries),
            )?;
            let len = write_snapshot(&store, &retries, &dir, 0, &inner)?;
            let unsynced = store
                .run(&retries, IoOp::SyncDir, &dir, |io| io.sync_dir(&dir))
                .err();
            Ok((dir, len, wal, unsynced))
        })();
        let (dir, disk_bytes, wal, unsynced) = match prep {
            Ok(parts) => parts,
            Err(e) => return Err((e, inner)),
        };
        Ok(DurableIndex {
            inner,
            store,
            dir,
            generation: 0,
            wal,
            disk_bytes,
            degraded: unsynced.map(|e| e.to_string()),
            retries,
        })
    }

    /// Opens one shard directory: newest intact snapshot + WAL replay
    /// + tail truncation (the module-level recovery invariant).
    ///
    /// # Errors
    ///
    /// [`OpenError::NoValidSnapshot`] when nothing in `dir` decodes;
    /// [`OpenError::Io`] for filesystem failures.
    pub fn open_shard<C>(
        config: &DurableConfig<C>,
        dir: &Path,
    ) -> Result<(Self, ShardRecovery), OpenError> {
        Self::open_shard_in(&config.store, dir)
    }

    fn open_shard_in(store: &Arc<Store>, dir: &Path) -> Result<(Self, ShardRecovery), OpenError> {
        let retries = Arc::new(AtomicU64::new(0));
        // Newest first: a fresher intact snapshot always wins.
        let names = store.run(&retries, IoOp::ReadDir, dir, |io| io.read_dir_names(dir))?;
        let mut generations: Vec<u64> = names
            .iter()
            .filter_map(|name| name.strip_prefix("snapshot.")?.parse().ok())
            .collect();
        generations.sort_unstable_by(|a, b| b.cmp(a));

        for generation in generations {
            let snap_path = gen_file(dir, "snapshot", generation);
            // An *undecodable* (bitrotted) or vanished snapshot falls
            // back to the next-older generation; a real read failure
            // propagates — skipping past a readable-but-erroring
            // newest generation would silently resurrect stale state,
            // losing every write acknowledged since (the log that
            // held them was GC'd when this generation was published).
            let data = match store.run(&retries, IoOp::Read, &snap_path, |io| io.read(&snap_path)) {
                Ok(data) => data,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(OpenError::Io(e)),
            };
            let Ok(mut inner) = I::restore_snapshot(&data) else {
                continue;
            };

            // Replay this generation's log on top. A missing log means
            // the crash hit between log creation and snapshot rename —
            // recreate it empty; a log with a damaged header is
            // discarded the same way (snapshot-only recovery). Real
            // read failures propagate: discarding a *readable* log
            // would silently drop acknowledged writes.
            let wal_path = gen_file(dir, "wal", generation);
            let (wal, replayed, truncated) = match replay::<K, V>(store.io.as_ref(), &wal_path) {
                Ok(rep) => {
                    let n = rep.ops.len();
                    for op in rep.ops {
                        apply(&mut inner, op, None);
                    }
                    (
                        Wal::open_append(
                            store.io.as_ref(),
                            &wal_path,
                            store.fsync,
                            rep.valid_len,
                            Arc::clone(&store.retry),
                            Arc::clone(&retries),
                        )?,
                        n,
                        rep.truncated,
                    )
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::NotFound | std::io::ErrorKind::InvalidData
                    ) =>
                {
                    let discarded = e.kind() == std::io::ErrorKind::InvalidData;
                    (
                        Wal::create(
                            store.io.as_ref(),
                            &wal_path,
                            store.fsync,
                            Arc::clone(&store.retry),
                            Arc::clone(&retries),
                        )?,
                        0,
                        discarded,
                    )
                }
                Err(e) => return Err(OpenError::Io(e)),
            };

            let recovery = ShardRecovery {
                dir: dir.to_path_buf(),
                generation,
                snapshot_bytes: data.len(),
                replayed,
                wal_truncated: truncated,
                overlap_dropped: 0,
            };
            return Ok((
                DurableIndex {
                    inner,
                    store: Arc::clone(store),
                    dir: dir.to_path_buf(),
                    generation,
                    wal,
                    disk_bytes: data.len(),
                    degraded: None,
                    retries,
                },
                recovery,
            ));
        }
        Err(OpenError::NoValidSnapshot(dir.to_path_buf()))
    }

    /// Rotates to generation `g+1`: fresh log → temp snapshot → atomic
    /// rename → directory fsync (the commit point) → old generation
    /// deleted. Any failure rolls the new generation back and leaves
    /// generation `g` fully intact and still active.
    ///
    /// The fresh `wal.(g+1)` is created *before* the rename publishes
    /// `snapshot.(g+1)`: a crash between the two leaves an orphan
    /// (empty) log next to the still-authoritative generation `g`,
    /// which recovery ignores. The reverse order could publish a
    /// snapshot without its log — recovery would prefer it and every
    /// op acknowledged into `wal.g` after this point would be lost.
    fn checkpoint_now(&mut self) -> Result<(), StorageError> {
        let next = self.generation + 1;
        let snap_next = gen_file(&self.dir, "snapshot", next);
        let wal_next = gen_file(&self.dir, "wal", next);
        let store = Arc::clone(&self.store);
        let retries = Arc::clone(&self.retries);
        let unlog = |_: &StorageError| {
            let _ = store.io.remove_file(&wal_next);
        };

        let wal = Wal::create(
            store.io.as_ref(),
            &wal_next,
            store.fsync,
            Arc::clone(&store.retry),
            Arc::clone(&retries),
        )
        .inspect_err(unlog)?;
        let len =
            write_snapshot(&store, &retries, &self.dir, next, &self.inner).inspect_err(unlog)?;
        if let Err(e) = store.run(&retries, IoOp::SyncDir, &self.dir, |io| {
            io.sync_dir(&self.dir)
        }) {
            // Un-publish. Should even the rollback fail, the caller
            // flips this shard degraded: no further appends reach
            // `wal.g`, so generations `g` and `g+1` hold identical
            // states and recovery stays exact either way.
            let _ = store.io.remove_file(&snap_next);
            let _ = store.io.remove_file(&wal_next);
            return Err(e);
        }
        // The old generation is garbage the moment the new pair is
        // durable; deletion failure only wastes space (recovery always
        // prefers the newest intact pair).
        let _ = store
            .io
            .remove_file(&gen_file(&self.dir, "snapshot", self.generation));
        let _ = store
            .io
            .remove_file(&gen_file(&self.dir, "wal", self.generation));
        self.generation = next;
        self.wal = wal;
        self.disk_bytes = len;
        Ok(())
    }

    /// The wrapped structure.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Smallest key currently held (`None` when empty) — what
    /// [`open_sharded`] derives the routing boundaries from.
    #[must_use]
    pub fn min_key(&self) -> Option<K> {
        let all: (Bound<K>, Bound<K>) = (Bound::Unbounded, Bound::Unbounded);
        self.inner.range(all).next().map(|(k, _)| k)
    }

    /// This shard's on-disk directory.
    #[must_use]
    pub fn shard_dir(&self) -> &Path {
        &self.dir
    }

    /// Current snapshot/log generation (increments per checkpoint).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether a permanent fault has flipped this shard read-only.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The fault that degraded this shard, if any.
    #[must_use]
    pub(crate) fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn degrade(&mut self, e: &StorageError) {
        if self.degraded.is_none() {
            self.degraded = Some(e.to_string());
        }
    }

    /// Rebuilds this shard in place from its own directory: flush
    /// whatever the log still buffers (best-effort), reopen snapshot +
    /// WAL exactly like a process restart would, then **re-apply and
    /// re-log any records the flush could not land** — the
    /// acknowledged-but-unsynced writes a panicking worker left
    /// behind. The in-memory structure is discarded, which is the
    /// point: after a panic mid-batch it may be arbitrarily
    /// inconsistent, while disk + carried suffix reconstruct exactly
    /// the acknowledged state, so a lane healing in place loses nothing
    /// even while the disk is refusing writes.
    ///
    /// (Re-applying a record the failed flush *did* partially land is
    /// harmless: every WAL op is a last-write-wins state setter, so
    /// replaying a contiguous record suffix twice is idempotent.)
    ///
    /// # Errors
    ///
    /// Everything [`open_shard`](Self::open_shard) can report; the
    /// existing in-memory state — buffered records included — is left
    /// untouched on failure.
    pub(crate) fn reopen_in_place(&mut self) -> Result<ShardRecovery, OpenError> {
        let _ = self.wal.commit();
        let (mut fresh, recovery) = Self::open_shard_in(&self.store, &self.dir.clone())?;
        for op in crate::wal::decode_records::<K, V>(&self.wal.take_buffer()) {
            apply(&mut fresh.inner, op, Some(&mut fresh.wal));
        }
        // Push the carried suffix toward the disk right away; if this
        // fails too it simply stays buffered in the fresh handle.
        let _ = fresh.wal.commit();
        *self = fresh;
        Ok(recovery)
    }

    /// Drops every key `>= at` from this shard (memory + logged
    /// removes), returning how many were dropped — [`open_sharded`]'s
    /// overlap reconciliation.
    fn reconcile_drop_tail(&mut self, at: &K) -> usize {
        let doomed: Vec<K> = self
            .inner
            .range((Bound::Included(*at), Bound::Unbounded))
            .map(|(k, _)| k)
            .collect();
        for k in &doomed {
            self.wal.append(&WalOp::Remove(*k));
            self.inner.remove(k);
        }
        // Best-effort persistence: replaying without this commit just
        // re-runs the same deterministic reconciliation next open.
        let _ = self.wal.commit();
        doomed.len()
    }
}

/// A shard directory [`open_sharded`] could not recover, with the
/// reason — reported per shard instead of failing the whole reopen
/// (the crash window between a split/merge's two checkpoints can leave
/// a freshly minted directory with no intact snapshot yet).
#[derive(Debug)]
pub struct SkippedShard {
    /// The directory that did not recover.
    pub dir: PathBuf,
    /// Why it did not recover.
    pub error: OpenError,
}

/// Everything [`open_sharded`] has to report: one [`ShardRecovery`]
/// per recovered shard (in directory order) and one [`SkippedShard`]
/// per directory that held no recoverable state.
#[derive(Debug, Default)]
pub struct StoreReport {
    /// Per-shard recovery details, in shard-directory order.
    pub shards: Vec<ShardRecovery>,
    /// Shard directories skipped as unrecoverable (empty/partial).
    pub skipped: Vec<SkippedShard>,
}

/// What [`open_sharded`] recovers: the rebuilt sharded index plus the
/// per-shard [`StoreReport`].
pub type RecoveredStore<K, V, I> = (ShardedIndex<K, V, DurableIndex<K, V, I>>, StoreReport);

/// Opens every shard of a store root as one [`ShardedIndex`] — the
/// service-level recovery path.
///
/// Shards are ordered by their smallest key and the routing boundaries
/// re-derived from those minimums. A directory that holds no
/// recoverable state (e.g. one minted by a split that crashed before
/// its first snapshot landed) is *skipped and reported* in the
/// [`StoreReport`], not fatal. Overlapping spans — the crash window
/// between the two checkpoints of a split or merge, which duplicates
/// the moved run — are reconciled by dropping the duplicated tail from
/// the lower shard, so the recovered index is always disjoint and no
/// key is ever lost. Shards that recover empty are dropped — a merge
/// drained them before the crash — unless *every* shard is empty, in
/// which case one empty shard is kept so the index stays usable.
///
/// # Errors
///
/// [`OpenError::NoShards`] when the root holds no shard directories;
/// the first per-shard error when *no* directory recovers at all.
pub fn open_sharded<K, V, I>(
    config: &DurableConfig<I::Config>,
) -> Result<RecoveredStore<K, V, I>, OpenError>
where
    K: Key,
    V: Key,
    I: BuildableIndex<K, V> + PageSnapshot + 'static,
{
    let root = config.root();
    let scan_retries = AtomicU64::new(0);
    let names = config.store.run(&scan_retries, IoOp::ReadDir, root, |io| {
        io.read_dir_names(root)
    })?;
    let mut shard_dirs: Vec<(u64, PathBuf)> = names
        .iter()
        .filter_map(|name| Some((parse_shard_id(name)?, root.join(name))))
        .collect();
    if shard_dirs.is_empty() {
        return Err(OpenError::NoShards(root.to_path_buf()));
    }
    shard_dirs.sort_unstable_by_key(|&(id, _)| id);

    let mut report = StoreReport::default();
    let mut opened: Vec<(Option<K>, DurableIndex<K, V, I>)> = Vec::with_capacity(shard_dirs.len());
    for (_, dir) in shard_dirs {
        match DurableIndex::open_shard(config, &dir) {
            Ok((shard, recovery)) => {
                report.shards.push(recovery);
                let min = shard.min_key();
                opened.push((min, shard));
            }
            Err(error) => report.skipped.push(SkippedShard { dir, error }),
        }
    }
    if opened.is_empty() {
        // Nothing recovered at all: that *is* fatal. Surface the first
        // per-shard failure (there is at least one — shard_dirs was
        // non-empty).
        return Err(report
            .skipped
            .into_iter()
            .next()
            .map_or(OpenError::NoShards(root.to_path_buf()), |s| s.error));
    }

    // Drop drained shards (merge leftovers), keeping one if all are
    // empty; order survivors by key span.
    let any_nonempty = opened.iter().any(|(min, _)| min.is_some());
    let mut survivors: Vec<(Option<K>, DurableIndex<K, V, I>)> = if any_nonempty {
        opened
            .into_iter()
            .filter(|(min, _)| min.is_some())
            .collect()
    } else {
        opened.truncate(1);
        opened
    };
    survivors.sort_by_key(|(min, _)| *min);

    // Reconcile overlapping spans pairwise: every key >= the next
    // shard's minimum is a duplicate left behind by an interrupted
    // split/merge — the next shard owns it now.
    for i in 0..survivors.len().saturating_sub(1) {
        let Some(right_min) = survivors[i + 1].0 else {
            continue;
        };
        let dropped = survivors[i].1.reconcile_drop_tail(&right_min);
        if dropped > 0 {
            let dir = survivors[i].1.shard_dir().to_path_buf();
            if let Some(r) = report.shards.iter_mut().find(|r| r.dir == dir) {
                r.overlap_dropped = dropped;
            }
        }
    }
    // Reconciliation can fully drain a lower shard (identical spans);
    // refilter, keeping at least one shard.
    let still_nonempty = survivors.iter().any(|(_, s)| !s.is_empty());
    if still_nonempty {
        survivors.retain(|(_, s)| !s.is_empty());
    } else {
        survivors.truncate(1);
    }

    let bounds: Vec<K> = survivors
        .iter()
        .skip(1)
        .filter_map(|(_, s)| s.min_key())
        .collect();
    let shards: Vec<DurableIndex<K, V, I>> =
        survivors.into_iter().map(|(_, shard)| shard).collect();
    Ok((ShardedIndex::from_shards(bounds, shards), report))
}

impl<K: Key, V: Key, I: SortedIndex<K, V> + PageSnapshot> SortedIndex<K, V>
    for DurableIndex<K, V, I>
{
    type RangeIter<'a>
        = I::RangeIter<'a>
    where
        Self: 'a,
        K: 'a,
        V: 'a;

    fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.try_insert(key, value) {
            Ok(prev) => prev,
            Err(Degraded) => panic!(
                "write refused: shard degraded ({}); use try_insert and check health()",
                self.degraded_reason().unwrap_or("unknown")
            ),
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        match self.try_remove(key) {
            Ok(prev) => prev,
            Err(Degraded) => panic!(
                "write refused: shard degraded ({}); use try_remove and check health()",
                self.degraded_reason().unwrap_or("unknown")
            ),
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn range<R: RangeBounds<K>>(&self, range: R) -> Self::RangeIter<'_> {
        self.inner.range(range)
    }

    fn range_into<R: RangeBounds<K>>(&self, range: R, out: &mut Vec<(K, V)>) {
        self.inner.range_into(range, out);
    }

    fn try_insert(&mut self, key: K, value: V) -> Result<Option<V>, Degraded> {
        if self.degraded.is_some() {
            return Err(Degraded);
        }
        self.wal.append(&WalOp::Insert(key, value));
        Ok(self.inner.insert(key, value))
    }

    fn try_remove(&mut self, key: &K) -> Result<Option<V>, Degraded> {
        if self.degraded.is_some() {
            return Err(Degraded);
        }
        self.wal.append(&WalOp::Remove(*key));
        Ok(self.inner.remove(key))
    }

    fn split_off_tail(&mut self, at: &K) -> Option<Self> {
        if self.degraded.is_some() {
            return None;
        }
        let right_inner = self.inner.split_off_tail(at)?;
        // The new shard's storage is created *before* this shard's
        // checkpoint drops the moved run from disk: a failure (or
        // crash) between the two duplicates the run across both
        // directories — open_sharded reconciles duplicates; the
        // reverse order could lose it.
        let right = match DurableIndex::create(right_inner, Arc::clone(&self.store)) {
            Ok(right) => right,
            Err((e, mut right_inner)) => {
                // Undo the in-memory move. This shard's disk never
                // changed, and the directory `create` abandoned holds
                // no decodable snapshot, so reopen skips it.
                if !self.inner.absorb_tail(&mut right_inner) {
                    let all: (Bound<K>, Bound<K>) = (Bound::Unbounded, Bound::Unbounded);
                    for (k, v) in right_inner.range(all) {
                        self.inner.insert(k, v);
                    }
                }
                self.degrade(&e);
                return None;
            }
        };
        if let Err(e) = self.checkpoint_now() {
            // The moved run now exists in both directories; reads and
            // the in-memory split stay correct, reopen reconciles the
            // overlap, and this shard refuses writes until a later
            // checkpoint heals it (which also resolves the overlap).
            self.degrade(&e);
        }
        Some(right)
    }

    fn absorb_tail(&mut self, other: &mut Self) -> bool {
        if self.degraded.is_some() || other.degraded.is_some() {
            return false;
        }
        let other_min = other.min_key();
        if !self.inner.absorb_tail(&mut other.inner) {
            return false;
        }
        // Persist the absorber before draining the donor: a crash
        // between the two duplicates the absorbed run — reconciled at
        // reopen — rather than losing it.
        let keeper_saved = self.checkpoint_now();
        match &keeper_saved {
            Ok(()) => match other.checkpoint_now() {
                Ok(()) => return true,
                Err(e) => other.degrade(&e),
            },
            Err(e) => self.degrade(e),
        }
        // One directory could not take the move: hand the run back so
        // memory matches what the disks hold, and refuse. A retired
        // donor whose drain never landed would leave a stale run that
        // reopen's "upper shard owns the overlap" rule prefers over
        // every later write to this shard; kept in the table it heals
        // through its own checkpoint and the rule stays true.
        let undone = match &other_min {
            Some(min) => match self.inner.split_off_tail(min) {
                Some(tail) => {
                    other.inner = tail;
                    true
                }
                None => false,
            },
            None => true, // absorbed nothing
        };
        if undone && keeper_saved.is_ok() {
            // This shard's new generation holds the run it just gave
            // back; rewrite it, or stay read-only until that works.
            if let Err(e) = self.checkpoint_now() {
                self.degrade(&e);
            }
        }
        // If the undo failed the absorbed keys live on in memory here
        // and on disk in the donor's directory — nothing lost; reopen
        // reconciles.
        !undone
    }

    fn disk_bytes(&self) -> usize {
        self.disk_bytes
    }

    fn wal_bytes(&self) -> usize {
        self.wal.bytes() as usize
    }

    fn try_sync(&mut self) -> Result<bool, Degraded> {
        // Attempted even when degraded: flushing the buffered suffix
        // narrows the loss window of already-acknowledged records.
        // `true` = the flush happened (the trait's contract); whether
        // the policy also fsynced is the Wal's business.
        match self.wal.commit() {
            Ok(_) => Ok(true),
            Err(e) => {
                self.degrade(&e);
                Err(Degraded)
            }
        }
    }

    fn try_checkpoint(&mut self) -> Result<bool, Degraded> {
        match self.checkpoint_now() {
            Ok(()) => {
                // A clean rotation proves the disk is writable again
                // and captures the full in-memory state: heal.
                self.degraded = None;
                Ok(true)
            }
            Err(e) => {
                self.degrade(&e);
                Err(Degraded)
            }
        }
    }

    fn health(&self) -> ShardHealth {
        if self.degraded.is_some() {
            ShardHealth::Degraded
        } else {
            ShardHealth::Healthy
        }
    }

    fn io_retries(&self) -> u64 {
        // ordering: Relaxed — monotonic stats counter for snapshots.
        self.retries.load(Ordering::Relaxed)
    }

    fn reload(&mut self) -> bool {
        self.reopen_in_place().is_ok()
    }
}

impl<K: Key, V: Key, I: BuildableIndex<K, V> + PageSnapshot> BuildableIndex<K, V>
    for DurableIndex<K, V, I>
{
    type Config = DurableConfig<I::Config>;
    type BuildError = StorageBuildError<I::BuildError>;

    fn build_from(
        config: &Self::Config,
        sorted: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, Self::BuildError> {
        let inner = I::build_from(&config.inner, sorted).map_err(StorageBuildError::Build)?;
        DurableIndex::create(inner, Arc::clone(&config.store))
            .map_err(|(e, _)| StorageBuildError::Io(e))
    }

    /// Hands the `Vec` on to the inner structure's own `build_spans`,
    /// so a durable build peaks where the inner one does, then makes
    /// each structure it built durable.
    fn build_spans(
        config: &Self::Config,
        sorted: Vec<(K, V)>,
        ends: &[usize],
    ) -> Result<Vec<Self>, Self::BuildError> {
        I::build_spans(&config.inner, sorted, ends)
            .map_err(StorageBuildError::Build)?
            .into_iter()
            .map(|inner| {
                DurableIndex::create(inner, Arc::clone(&config.store))
                    .map_err(|(e, _)| StorageBuildError::Io(e))
            })
            .collect()
    }
}
