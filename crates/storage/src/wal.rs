//! The write-ahead log: per-record checksummed mutation journal.
//!
//! One log file per shard, one generation per checkpoint. Records are
//! buffered in user space and flushed at **group-commit points** —
//! [`Wal::commit`], which the service layer invokes once per drained
//! write batch — so the fsync cost amortizes over every mutation in
//! the batch instead of being paid per operation.
//!
//! All file traffic goes through the injectable [`StorageIo`] boundary
//! and surfaces as classified [`StorageError`]s; transient faults are
//! absorbed by the owning store's [`RetryPolicy`] before a caller ever
//! sees them. [`append`](Wal::append) itself is infallible — it only
//! extends the user-space buffer — so every I/O failure is funneled to
//! the commit point, where the group-commit contract makes it safe to
//! reason about: a failed commit leaves the unflushed suffix buffered
//! (never re-written bytes already handed to the OS, so records cannot
//! duplicate) and a later commit resumes exactly where the fault hit.
//!
//! # File layout
//!
//! ```text
//! header (16 bytes)
//!   0..8    magic "FITWAL01"
//!   8..10   key width in bytes   (u16)
//!   10..12  value width in bytes (u16)
//!   12..16  zero
//! record (repeated)
//!   0..4    payload length (u32)
//!   4..8    CRC32 of the payload
//!   8..     payload
//! payload
//!   op 1: insert      [1][key][value]
//!   op 2: remove      [2][key]
//!   op 3: batch       [3][count u32][key value]×count   (read only)
//! ```
//!
//! All integers little-endian; keys and values use the fixed-width
//! [`Key::to_le_bytes`] codecs, so every record's length is determined
//! by its first five bytes. Op 3, the batched insert earlier versions
//! logged, is no longer written; replay still reads it as `count`
//! inserts, so a log they left behind recovers whole. Replay
//! ([`replay`]) accepts the longest prefix of intact records and
//! reports the byte offset where it stopped; the opener truncates the
//! file there, which is what makes a torn tail write
//! indistinguishable from a clean shutdown one record earlier — the
//! recovery invariant the crash-injection suite checks.

use crate::error::{IoOp, RetryPolicy, StorageError};
use crate::io::{IoFile, StorageIo};
use fiting_index_api::Key;
use fiting_tree::snapshot::crc32;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// First eight bytes of every log file.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"FITWAL01";

const WAL_HEADER_LEN: usize = 16;
const RECORD_HEADER_LEN: usize = 8;

/// When the log fsyncs at a group-commit point ([`Wal::commit`]).
///
/// Every policy *flushes* buffered records to the OS at commit; the
/// policy only decides when the OS is forced to put them on stable
/// storage. The durability windows are therefore: `Always` — nothing
/// committed is lost on a crash; `EveryN(n)` — at most the last `n`
/// records' worth of commits are lost on an OS crash (process crashes
/// lose nothing flushed); `Off` — anything since the last checkpoint
/// may be lost on an OS crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync at every commit (the default; the safest and slowest).
    #[default]
    Always,
    /// fsync once at least this many records have accumulated since
    /// the previous fsync.
    EveryN(u64),
    /// Never fsync the log; rely on the OS to write back. Checkpoints
    /// still fsync their snapshots.
    Off,
}

/// One logged mutation: what the write path appends, and what replay
/// hands back in append order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp<K, V> {
    /// Upsert of one pair.
    Insert(K, V),
    /// Removal of one key.
    Remove(K),
}

/// Outcome of scanning a log file ([`replay`]).
#[derive(Debug)]
pub(crate) struct Replay<K, V> {
    /// The intact records, in append order.
    pub ops: Vec<WalOp<K, V>>,
    /// Byte offset of the first byte *not* covered by an intact
    /// record — where the opener truncates.
    pub valid_len: u64,
    /// Whether anything (a torn or corrupt tail) was discarded.
    pub truncated: bool,
}

/// Append handle over one log generation.
pub struct Wal<K, V> {
    file: Box<dyn IoFile>,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Encoded records not yet handed to the OS. `flushed` marks the
    /// prefix already written through (a failed commit may stop
    /// mid-buffer; those bytes are never re-sent).
    buf: Vec<u8>,
    flushed: usize,
    /// Record bytes appended this generation (excludes the header) —
    /// the `wal_bytes` statistic and the checkpoint trigger.
    bytes: u64,
    /// Records flushed-but-not-fsynced, for `EveryN`.
    unsynced: u64,
    retry: Arc<RetryPolicy>,
    retries: Arc<AtomicU64>,
    _kv: PhantomData<(K, V)>,
}

impl<K, V> std::fmt::Debug for Wal<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("bytes", &self.bytes)
            .field("buffered", &(self.buf.len() - self.flushed))
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Key> Wal<K, V> {
    /// Creates (truncating) a fresh log at `path` and durably writes
    /// its header.
    ///
    /// # Errors
    ///
    /// Any classified I/O failure creating, writing, or syncing the
    /// file (transients already retried per `retry`).
    pub fn create(
        io: &dyn StorageIo,
        path: &Path,
        policy: FsyncPolicy,
        retry: Arc<RetryPolicy>,
        retries: Arc<AtomicU64>,
    ) -> Result<Self, StorageError> {
        let file = retry.run(&retries, || {
            io.create(path)
                .map_err(|e| StorageError::new(IoOp::Create, path, e))
        })?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            policy,
            buf: header_bytes::<K, V>().to_vec(),
            flushed: 0,
            bytes: 0,
            unsynced: 0,
            retry,
            retries,
            _kv: PhantomData,
        };
        wal.flush_buffer()?;
        wal.fsync()?;
        Ok(wal)
    }

    /// Reopens an existing log for appending after replay,
    /// truncating the torn/corrupt tail at `valid_len` first.
    ///
    /// # Errors
    ///
    /// Any classified I/O failure opening or syncing the truncated
    /// file (transients already retried per `retry`).
    pub fn open_append(
        io: &dyn StorageIo,
        path: &Path,
        policy: FsyncPolicy,
        valid_len: u64,
        retry: Arc<RetryPolicy>,
        retries: Arc<AtomicU64>,
    ) -> Result<Self, StorageError> {
        let file = retry.run(&retries, || {
            io.open_append(path, valid_len)
                .map_err(|e| StorageError::new(IoOp::OpenAppend, path, e))
        })?;
        let mut wal = Wal {
            file,
            path: path.to_path_buf(),
            policy,
            buf: Vec::new(),
            flushed: 0,
            bytes: valid_len - WAL_HEADER_LEN as u64,
            unsynced: 0,
            retry,
            retries,
            _kv: PhantomData,
        };
        // Make the tail truncation itself durable before new records
        // land after the valid prefix.
        wal.fsync()?;
        Ok(wal)
    }

    /// Appends one record to the user-space buffer. Infallible: not
    /// durable — not even handed to the OS — until the next
    /// [`commit`](Self::commit), which is where any I/O fault
    /// surfaces.
    pub fn append(&mut self, op: &WalOp<K, V>) {
        let payload = encode_payload(op);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.bytes += (RECORD_HEADER_LEN + payload.len()) as u64;
        self.unsynced += 1;
    }

    /// Group-commit point: flushes every buffered record to the OS
    /// and, policy permitting, fsyncs. Returns whether an fsync
    /// happened.
    ///
    /// On failure the unflushed suffix stays buffered and a later
    /// commit resumes from the exact byte the fault hit — bytes
    /// already written are never re-sent, so a healed log contains
    /// each record once.
    ///
    /// # Errors
    ///
    /// Any classified I/O failure writing or syncing (transients
    /// already retried).
    pub fn commit(&mut self) -> Result<bool, StorageError> {
        self.flush_buffer()?;
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
            FsyncPolicy::Off => false,
        };
        if sync {
            self.fsync()?;
            self.unsynced = 0;
        }
        Ok(sync)
    }

    /// Whether records have been appended but not yet handed to the
    /// OS (a failed commit leaves such a suffix behind).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn has_buffered(&self) -> bool {
        self.flushed < self.buf.len()
    }

    /// Surrenders the whole buffered record stream (every record since
    /// the last fully-successful flush) and resets the buffer — the
    /// reopen handoff: `DurableIndex::reopen_in_place` re-applies these
    /// records to the freshly recovered state so an acknowledged write
    /// never dies with the handle.
    ///
    /// The returned bytes are a bare concatenation of intact records
    /// (no file header; [`append`](Wal::append) only ever pushes whole
    /// records and [`create`](Wal::create) flushes the header before
    /// returning), decodable with [`decode_records`]. Records already
    /// partially flushed may exist on disk too — re-applying a
    /// contiguous record suffix twice is harmless because every op is a
    /// last-write-wins state setter. After this call the handle must
    /// not be used for further appends: the file may end mid-record.
    pub(crate) fn take_buffer(&mut self) -> Vec<u8> {
        self.flushed = 0;
        std::mem::take(&mut self.buf)
    }

    /// Record bytes appended this generation (excludes the header).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Path of the backing file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the unflushed buffer suffix through, retrying
    /// transients; resets the buffer once everything reached the OS.
    fn flush_buffer(&mut self) -> Result<(), StorageError> {
        while self.flushed < self.buf.len() {
            let file = &mut self.file;
            let path = &self.path;
            let from = self.flushed;
            let buf = &self.buf;
            let n = self.retry.run(&self.retries, || {
                file.write(&buf[from..])
                    .map_err(|e| StorageError::new(IoOp::Write, path, e))
            })?;
            self.flushed += n;
        }
        self.buf.clear();
        self.flushed = 0;
        Ok(())
    }

    fn fsync(&mut self) -> Result<(), StorageError> {
        let file = &mut self.file;
        let path = &self.path;
        self.retry.run(&self.retries, || {
            file.sync_data()
                .map_err(|e| StorageError::new(IoOp::Fsync, path, e))
        })
    }
}

fn header_bytes<K: Key, V: Key>() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[0..8].copy_from_slice(&WAL_MAGIC);
    h[8..10].copy_from_slice(&(K::ENCODED_LEN as u16).to_le_bytes());
    h[10..12].copy_from_slice(&(V::ENCODED_LEN as u16).to_le_bytes());
    h
}

fn encode_payload<K: Key, V: Key>(op: &WalOp<K, V>) -> Vec<u8> {
    match op {
        WalOp::Insert(k, v) => {
            let mut p = Vec::with_capacity(1 + K::ENCODED_LEN + V::ENCODED_LEN);
            p.push(1);
            p.extend_from_slice(&k.to_le_bytes());
            p.extend_from_slice(&v.to_le_bytes());
            p
        }
        WalOp::Remove(k) => {
            let mut p = Vec::with_capacity(1 + K::ENCODED_LEN);
            p.push(2);
            p.extend_from_slice(&k.to_le_bytes());
            p
        }
    }
}

/// Decodes one key or value, refusing bits whose projection is NaN:
/// no writer produces them (`OrderedF64::new` refuses NaN), so a record
/// carrying them is rejected however its checksum reads.
fn field<T: Key>(bytes: &[u8]) -> Option<T> {
    let item = T::from_le_bytes(bytes);
    (!item.to_f64().is_nan()).then_some(item)
}

/// Decodes one record's payload onto `ops`; `None` (pushing nothing)
/// when it is not a known op shape. Op 3, the batched insert earlier
/// versions logged, is still read as the run of inserts it stood for:
/// nothing writes it any more, but a log that holds one replays whole.
fn decode_payload<K: Key, V: Key>(payload: &[u8], ops: &mut Vec<WalOp<K, V>>) -> Option<()> {
    let pair = K::ENCODED_LEN + V::ENCODED_LEN;
    let insert = |c: &[u8]| {
        let (key, value) = c.split_at(K::ENCODED_LEN);
        Some(WalOp::Insert(field(key)?, field(value)?))
    };
    match payload.first()? {
        1 if payload.len() == 1 + pair => ops.push(insert(&payload[1..])?),
        2 if payload.len() == 1 + K::ENCODED_LEN => ops.push(WalOp::Remove(field(&payload[1..])?)),
        3 if payload.len() >= 5 => {
            let count = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
            let body = &payload[5..];
            if body.len() != count.checked_mul(pair)? {
                return None;
            }
            let batch: Vec<_> = body.chunks_exact(pair).map(insert).collect::<Option<_>>()?;
            ops.extend(batch);
        }
        _ => return None,
    }
    Some(())
}

/// Decodes a bare record stream — length/CRC-framed records with no
/// 16-byte file header, the shape `Wal::take_buffer` surrenders —
/// accepting the longest intact prefix and dropping a torn or corrupt
/// tail silently.
#[must_use]
pub(crate) fn decode_records<K: Key, V: Key>(bytes: &[u8]) -> Vec<WalOp<K, V>> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Some(advance) = decode_record_at::<K, V>(bytes, pos, &mut ops) {
        pos += advance;
    }
    ops
}

/// Decodes the framed record starting at byte `pos` onto `ops`,
/// returning the record's total length. `None` (pushing nothing) for a
/// short, corrupt, or unparseable record (including `pos` at/past the
/// end).
fn decode_record_at<K: Key, V: Key>(
    bytes: &[u8],
    pos: usize,
    ops: &mut Vec<WalOp<K, V>>,
) -> Option<usize> {
    let header = bytes.get(pos..pos + RECORD_HEADER_LEN)?;
    let len = u32::from_le_bytes(header[0..4].try_into().ok()?) as usize;
    let stored_crc = u32::from_le_bytes(header[4..8].try_into().ok()?);
    let payload = bytes.get(pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len)?;
    if crc32(payload) != stored_crc {
        return None;
    }
    decode_payload::<K, V>(payload, ops).map(|()| RECORD_HEADER_LEN + len)
}

/// Scans the log at `path`, returning the longest prefix of intact
/// records and the byte offset where scanning stopped.
///
/// A record is rejected — stopping the scan there, marking the replay
/// `truncated` — when its header is short, its payload is short, its
/// checksum mismatches, or its payload does not decode to a known op
/// shape (a key or value projecting to NaN included).
///
/// # Errors
///
/// Classified I/O errors reading the file, or a
/// missing/foreign/width-mismatched 16-byte file header
/// (`InvalidData`). Header damage is an error rather than a truncation
/// because every record after it would be suspect — recovery then
/// falls back to the snapshot alone.
pub(crate) fn replay<K: Key, V: Key>(
    io: &dyn StorageIo,
    path: &Path,
) -> Result<Replay<K, V>, StorageError> {
    let bytes = io
        .read(path)
        .map_err(|e| StorageError::new(IoOp::Read, path, e))?;
    let invalid = |msg: String| {
        StorageError::new(
            IoOp::Read,
            path,
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
        )
    };
    if bytes.len() < WAL_HEADER_LEN || bytes[0..8] != WAL_MAGIC || bytes[12..16] != [0u8; 4] {
        return Err(invalid("missing or foreign WAL header".to_string()));
    }
    let kw = bytes[8..10]
        .try_into()
        .map(u16::from_le_bytes)
        .unwrap_or_default() as usize;
    let vw = bytes[10..12]
        .try_into()
        .map(u16::from_le_bytes)
        .unwrap_or_default() as usize;
    if kw != K::ENCODED_LEN || vw != V::ENCODED_LEN {
        return Err(invalid(format!(
            "WAL key/value widths {kw}/{vw} do not match {}/{}",
            K::ENCODED_LEN,
            V::ENCODED_LEN
        )));
    }

    let mut ops = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    loop {
        if pos == bytes.len() {
            // Clean end: every byte accounted for.
            return Ok(Replay {
                ops,
                valid_len: pos as u64,
                truncated: false,
            });
        }
        match decode_record_at::<K, V>(&bytes, pos, &mut ops) {
            Some(advance) => pos += advance,
            None => {
                // Torn or corrupt tail: accept the prefix, report the
                // cut so the opener truncates it away.
                return Ok(Replay {
                    ops,
                    valid_len: pos as u64,
                    truncated: true,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultIo, InjectKind};
    use crate::io::RealIo;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fiting-wal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.000000")
    }

    fn retry() -> (Arc<RetryPolicy>, Arc<AtomicU64>) {
        (
            Arc::new(RetryPolicy::immediate(3)),
            Arc::new(AtomicU64::new(0)),
        )
    }

    #[test]
    fn append_commit_replay_round_trips() {
        let path = tmp("roundtrip");
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> =
            Wal::create(&RealIo, &path, FsyncPolicy::Always, policy, retries).unwrap();
        wal.append(&WalOp::Insert(1, 10));
        wal.append(&WalOp::Remove(2));
        wal.append(&WalOp::Insert(3, 30));
        assert!(wal.commit().unwrap());
        assert!(wal.bytes() > 0);
        assert!(!wal.has_buffered());
        drop(wal);

        let replayed = replay::<u64, u64>(&RealIo, &path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(
            replayed.ops,
            vec![WalOp::Insert(1, 10), WalOp::Remove(2), WalOp::Insert(3, 30),]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_record_boundary() {
        let path = tmp("torn");
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> =
            Wal::create(&RealIo, &path, FsyncPolicy::Off, policy, retries).unwrap();
        for i in 0..10u64 {
            wal.append(&WalOp::Insert(i, i));
        }
        wal.commit().unwrap();
        drop(wal);

        let full = std::fs::read(&path).unwrap();
        // Tear mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let replayed = replay::<u64, u64>(&RealIo, &path).unwrap();
        assert!(replayed.truncated);
        assert_eq!(replayed.ops.len(), 9);

        // Reopen for append at the reported boundary, add a record,
        // and the log is whole again.
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> = Wal::open_append(
            &RealIo,
            &path,
            FsyncPolicy::Always,
            replayed.valid_len,
            policy,
            retries,
        )
        .unwrap();
        wal.append(&WalOp::Insert(99, 99));
        wal.commit().unwrap();
        drop(wal);
        let replayed = replay::<u64, u64>(&RealIo, &path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.ops.len(), 10);
        assert_eq!(*replayed.ops.last().unwrap(), WalOp::Insert(99, 99));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_n_policy_syncs_on_schedule() {
        let path = tmp("everyn");
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> =
            Wal::create(&RealIo, &path, FsyncPolicy::EveryN(3), policy, retries).unwrap();
        wal.append(&WalOp::Insert(1, 1));
        assert!(!wal.commit().unwrap());
        wal.append(&WalOp::Insert(2, 2));
        assert!(!wal.commit().unwrap());
        wal.append(&WalOp::Insert(3, 3));
        assert!(wal.commit().unwrap());
        // Counter reset after the fsync.
        wal.append(&WalOp::Insert(4, 4));
        assert!(!wal.commit().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn take_buffer_surrenders_decodable_unflushed_records() {
        let path = tmp("takebuf");
        let io = FaultIo::quiet();
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> =
            Wal::create(&io, &path, FsyncPolicy::Always, policy, retries).unwrap();
        wal.append(&WalOp::Insert(1, 10));
        wal.append(&WalOp::Remove(2));
        // Tear the flush mid-buffer (the short write's follow-up
        // ENOSPC fails the resume): the records are marooned...
        io.fail_nth(IoOp::Write, "wal.000000", 1, InjectKind::ShortWrite, false);
        assert!(wal.commit().is_err());
        assert!(wal.has_buffered());
        // ...but the handoff recovers every one of them, decodable.
        let pending = wal.take_buffer();
        assert!(!wal.has_buffered());
        assert_eq!(
            decode_records::<u64, u64>(&pending),
            vec![WalOp::Insert(1, 10), WalOp::Remove(2)]
        );
        // A torn tail in the stream is dropped silently, prefix kept.
        let mut torn = pending.clone();
        torn.truncate(pending.len() - 3);
        assert_eq!(
            decode_records::<u64, u64>(&torn),
            vec![WalOp::Insert(1, 10)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_projecting_to_nan_stops_replay() {
        type F = fiting_index_api::OrderedF64;
        let f = |v: f64| F::new(v).unwrap();
        let record = |payload: &[u8]| {
            let len = (payload.len() as u32).to_le_bytes();
            [&len[..], &crc32(payload).to_le_bytes(), payload].concat()
        };
        let good = record(&encode_payload::<F, F>(&WalOp::Insert(f(1.0), f(2.0))));
        // The ordered image of a NaN: no writer produces it.
        let (nan, one) = (u64::MAX.to_le_bytes(), f(1.0).to_le_bytes());
        let path = tmp("nan");
        for bad in [
            [&[1][..], &nan, &one].concat(),
            [&[1][..], &one, &nan].concat(),
            [&[2][..], &nan].concat(),
            [&[3][..], &2u32.to_le_bytes(), &one, &one, &one, &nan].concat(),
        ] {
            let stream = [&good[..], &record(&bad), &good].concat();
            let kept = vec![WalOp::Insert(f(1.0), f(2.0))];
            assert_eq!(decode_records::<F, F>(&stream), kept);
            std::fs::write(&path, [&header_bytes::<F, F>()[..], &stream].concat()).unwrap();
            let replayed = replay::<F, F>(&RealIo, &path).unwrap();
            assert!(replayed.truncated);
            assert_eq!(replayed.ops, kept);
            assert_eq!(replayed.valid_len, (WAL_HEADER_LEN + good.len()) as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_header_is_an_error_not_a_truncation() {
        let path = tmp("foreign");
        std::fs::write(&path, b"not a wal at all").unwrap();
        assert!(replay::<u64, u64>(&RealIo, &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transient_commit_faults_are_absorbed_by_retry() {
        let path = tmp("transient");
        let io = FaultIo::quiet();
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> = Wal::create(
            &io,
            &path,
            FsyncPolicy::Always,
            policy,
            Arc::clone(&retries),
        )
        .unwrap();
        io.fail_nth(IoOp::Write, "wal.000000", 1, InjectKind::Transient, false);
        io.fail_nth(IoOp::Fsync, "wal.000000", 1, InjectKind::Transient, false);
        wal.append(&WalOp::Insert(5, 50));
        assert!(wal.commit().unwrap());
        assert!(retries.load(std::sync::atomic::Ordering::Relaxed) >= 2);
        let replayed = replay::<u64, u64>(&RealIo, &path).unwrap();
        assert_eq!(replayed.ops, vec![WalOp::Insert(5, 50)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_commit_keeps_suffix_and_resumes_without_duplicates() {
        let path = tmp("resume");
        let io = FaultIo::quiet();
        let (policy, retries) = retry();
        let mut wal: Wal<u64, u64> =
            Wal::create(&io, &path, FsyncPolicy::Always, policy, retries).unwrap();
        wal.append(&WalOp::Insert(1, 1));
        wal.append(&WalOp::Insert(2, 2));
        // Tear the first flush mid-buffer, then die once more.
        io.fail_nth(IoOp::Write, "wal.000000", 1, InjectKind::ShortWrite, false);
        assert!(wal.commit().is_err());
        assert!(wal.has_buffered());
        // The next commit resumes from the torn byte: the healed log
        // holds each record exactly once.
        assert!(wal.commit().unwrap());
        assert!(!wal.has_buffered());
        let replayed = replay::<u64, u64>(&RealIo, &path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.ops, vec![WalOp::Insert(1, 1), WalOp::Insert(2, 2)]);
        std::fs::remove_file(&path).unwrap();
    }
}
