//! The storage fault taxonomy and retry policy.
//!
//! Every I/O failure crossing the crate boundary is a [`StorageError`]:
//! the raw [`std::io::Error`] plus *where* it happened ([`IoOp`] + path)
//! and *what it means* ([`FaultClass`]). The classification drives
//! policy mechanically:
//!
//! * [`FaultClass::Transient`] — the same call may succeed if simply
//!   repeated (`EINTR`, timeouts, spurious `WouldBlock`). A
//!   [`RetryPolicy`] absorbs these with capped exponential backoff
//!   before anyone upstream ever sees them.
//! * [`FaultClass::Permanent`] — repeating the call buys nothing
//!   (`ENOSPC`, `EIO`, permission, missing file). These surface
//!   immediately and flip the owning shard into degraded read-only
//!   mode (see [`DurableIndex`](crate::DurableIndex)).

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which storage-layer operation failed — the vocabulary of the
/// [`StorageIo`](crate::StorageIo) trait, used both for error reports
/// and for targeting injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Creating (truncating) a file.
    Create,
    /// Opening an existing file for appending.
    OpenAppend,
    /// Reading a whole file into memory.
    Read,
    /// Writing bytes through an open handle.
    Write,
    /// `fdatasync` on an open handle.
    Fsync,
    /// Atomically renaming a file.
    Rename,
    /// Deleting a file.
    RemoveFile,
    /// Creating a directory chain.
    CreateDir,
    /// Listing a directory.
    ReadDir,
    /// `fsync` on a directory (making renames/creates durable).
    SyncDir,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoOp::Create => "create",
            IoOp::OpenAppend => "open-append",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
            IoOp::RemoveFile => "remove-file",
            IoOp::CreateDir => "create-dir",
            IoOp::ReadDir => "read-dir",
            IoOp::SyncDir => "sync-dir",
        };
        f.write_str(s)
    }
}

/// Whether repeating the failed call can help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultClass {
    /// Repeat may succeed — absorbed by [`RetryPolicy`].
    Transient,
    /// Repeat cannot help — surfaces immediately, degrades the shard.
    Permanent,
}

/// A classified storage failure: operation, path, class, and the
/// underlying [`std::io::Error`].
#[derive(Debug)]
pub struct StorageError {
    op: IoOp,
    path: PathBuf,
    class: FaultClass,
    source: std::io::Error,
}

impl StorageError {
    /// Wraps `source`, classifying it by [`std::io::ErrorKind`]:
    /// `Interrupted`, `TimedOut`, and `WouldBlock` are transient,
    /// everything else (ENOSPC, EIO, permissions, corruption, missing
    /// files) is permanent.
    #[must_use]
    pub fn new(op: IoOp, path: &Path, source: std::io::Error) -> Self {
        use std::io::ErrorKind as K;
        let class = match source.kind() {
            K::Interrupted | K::TimedOut | K::WouldBlock => FaultClass::Transient,
            _ => FaultClass::Permanent,
        };
        StorageError {
            op,
            path: path.to_path_buf(),
            class,
            source,
        }
    }

    /// The operation that failed.
    #[must_use]
    pub fn op(&self) -> IoOp {
        self.op
    }

    /// The path the operation targeted (the *source* path for renames).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a retry may succeed.
    #[must_use]
    pub(crate) fn is_transient(&self) -> bool {
        self.class == FaultClass::Transient
    }

    /// The underlying [`std::io::ErrorKind`].
    #[must_use]
    pub fn kind(&self) -> std::io::ErrorKind {
        self.source.kind()
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} on {}: {}",
            match self.class {
                FaultClass::Transient => "transient",
                FaultClass::Permanent => "permanent",
            },
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Capped exponential backoff for transient faults.
///
/// Each I/O call site gets a per-op budget of `attempts` tries; the
/// delay doubles from `base_delay` up to `max_delay`, with a
/// deterministic ±25% jitter (a seeded LCG, so two policies built the
/// same way back off the same way — schedules stay replayable).
/// Permanent faults are never retried.
#[derive(Debug)]
pub struct RetryPolicy {
    attempts: u32,
    base_delay: Duration,
    max_delay: Duration,
    jitter: AtomicU64,
}

impl Clone for RetryPolicy {
    fn clone(&self) -> Self {
        RetryPolicy {
            attempts: self.attempts,
            base_delay: self.base_delay,
            max_delay: self.max_delay,
            // ordering: Relaxed — the jitter word is advisory noise;
            // any torn/stale read still yields a valid jitter stream.
            jitter: AtomicU64::new(self.jitter.load(Ordering::Relaxed)),
        }
    }
}

impl Default for RetryPolicy {
    /// Production default: 4 attempts, 1 ms → 16 ms backoff.
    fn default() -> Self {
        RetryPolicy::new(4, Duration::from_millis(1), Duration::from_millis(16))
    }
}

impl RetryPolicy {
    /// A policy with `attempts` total tries (including the first) and
    /// the given backoff window.
    #[must_use]
    pub fn new(attempts: u32, base_delay: Duration, max_delay: Duration) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            base_delay,
            max_delay,
            jitter: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// No retries at all — every fault surfaces on the first failure.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy::new(1, Duration::ZERO, Duration::ZERO)
    }

    /// Retries without sleeping — for deterministic tests where wall
    /// clock time must not depend on the injected schedule.
    #[must_use]
    pub fn immediate(attempts: u32) -> Self {
        RetryPolicy::new(attempts, Duration::ZERO, Duration::ZERO)
    }

    /// Runs `f`, retrying transient failures up to the attempt budget
    /// with capped exponential backoff. Each absorbed retry increments
    /// `retries` (the caller's observability counter). The last error
    /// is returned when the budget runs out; permanent failures return
    /// immediately.
    pub fn run<T>(
        &self,
        retries: &AtomicU64,
        mut f: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut delay = self.base_delay;
        for attempt in 1..=self.attempts {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.attempts => {
                    // ordering: Relaxed — monotonic stats counter read
                    // only by racy snapshots.
                    retries.fetch_add(1, Ordering::Relaxed);
                    if !delay.is_zero() {
                        std::thread::sleep(self.jittered(delay));
                    }
                    delay = (delay * 2).min(self.max_delay);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt");
    }

    /// `delay` ± 25%, driven by a seeded LCG so backoff is
    /// reproducible.
    fn jittered(&self, delay: Duration) -> Duration {
        // ordering: Relaxed — see `jitter` field note; the RMW need not
        // be atomic with respect to other state.
        let x = self
            .jitter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| {
                Some(
                    x.wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407),
                )
            })
            .unwrap_or(0);
        let nanos = delay.as_nanos() as u64;
        let quarter = nanos / 4;
        if quarter == 0 {
            return delay;
        }
        let offset = (x >> 11) % (2 * quarter);
        Duration::from_nanos(nanos - quarter + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn err(kind: io::ErrorKind) -> StorageError {
        StorageError::new(
            IoOp::Write,
            Path::new("/x/wal.1"),
            io::Error::new(kind, "boom"),
        )
    }

    #[test]
    fn classification_by_kind() {
        assert!(err(io::ErrorKind::Interrupted).is_transient());
        assert!(err(io::ErrorKind::TimedOut).is_transient());
        assert!(err(io::ErrorKind::WouldBlock).is_transient());
        assert!(!err(io::ErrorKind::StorageFull).is_transient());
        assert!(!err(io::ErrorKind::NotFound).is_transient());
        assert!(!err(io::ErrorKind::Other).is_transient());
        let e = err(io::ErrorKind::StorageFull);
        assert_eq!(e.op(), IoOp::Write);
        assert_eq!(e.class, FaultClass::Permanent);
        assert!(e.to_string().contains("permanent write"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn retry_absorbs_transients_within_budget() {
        let policy = RetryPolicy::immediate(3);
        let retries = AtomicU64::new(0);
        let mut left = 2;
        let out = policy.run(&retries, || {
            if left > 0 {
                left -= 1;
                Err(err(io::ErrorKind::Interrupted))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn retry_budget_exhaustion_returns_last_error() {
        let policy = RetryPolicy::immediate(3);
        let retries = AtomicU64::new(0);
        let out: Result<(), _> = policy.run(&retries, || Err(err(io::ErrorKind::Interrupted)));
        assert!(out.unwrap_err().is_transient());
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn permanent_fault_never_retried() {
        let policy = RetryPolicy::immediate(5);
        let retries = AtomicU64::new(0);
        let out: Result<(), _> = policy.run(&retries, || Err(err(io::ErrorKind::StorageFull)));
        assert!(!out.unwrap_err().is_transient());
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn jitter_stays_within_quarter_band() {
        let policy = RetryPolicy::new(2, Duration::from_millis(8), Duration::from_millis(8));
        for _ in 0..64 {
            let d = policy.jittered(Duration::from_millis(8));
            assert!((Duration::from_millis(6)..=Duration::from_millis(10)).contains(&d));
        }
    }
}
