//! `CountingIo`: a [`StorageIo`] wrapper that counts and times what the
//! storage layer does to the disk, from outside the storage crate.
//!
//! It forwards every call to the wrapped implementation unchanged, so
//! the program under test behaves exactly as over [`RealIo`]; the
//! counters are relaxed atomics (statistics, they publish nothing).

use crate::spans;
use fiting_storage::{IoFile, StorageIo};
use std::path::Path;
// ordering: Relaxed — the counters are statistics; they publish nothing.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// What has gone through a [`CountingIo`] so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub creates: u64,
    pub write_calls: u64,
    pub bytes_written: u64,
    pub fsyncs: u64,
    pub dir_syncs: u64,
    pub renames: u64,
    pub write_ns: u64,
    pub fsync_ns: u64,
}

#[derive(Debug, Default)]
struct Counters {
    creates: AtomicU64,
    write_calls: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    dir_syncs: AtomicU64,
    renames: AtomicU64,
    write_ns: AtomicU64,
    fsync_ns: AtomicU64,
}

/// Writes of at least this size get a span in a traced run (snapshot
/// pages); WAL group commits are far more numerous and much smaller.
const SPAN_WRITE_BYTES: usize = 1 << 20;

/// Counting, timing passthrough over any [`StorageIo`].
#[derive(Debug)]
pub struct CountingIo<Io> {
    inner: Io,
    counters: Arc<Counters>,
}

impl<Io: StorageIo> CountingIo<Io> {
    pub fn new(inner: Io) -> Self {
        CountingIo {
            inner,
            counters: Arc::default(),
        }
    }

    pub fn counts(&self) -> IoCounts {
        let c = &self.counters;
        IoCounts {
            creates: c.creates.load(Relaxed),
            write_calls: c.write_calls.load(Relaxed),
            bytes_written: c.bytes_written.load(Relaxed),
            fsyncs: c.fsyncs.load(Relaxed),
            dir_syncs: c.dir_syncs.load(Relaxed),
            renames: c.renames.load(Relaxed),
            write_ns: c.write_ns.load(Relaxed),
            fsync_ns: c.fsync_ns.load(Relaxed),
        }
    }

    fn wrap(&self, file: Box<dyn IoFile>) -> Box<dyn IoFile> {
        Box::new(CountingFile {
            inner: file,
            counters: Arc::clone(&self.counters),
        })
    }
}

struct CountingFile {
    inner: Box<dyn IoFile>,
    counters: Arc<Counters>,
}

impl IoFile for CountingFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let written = self.inner.write(buf)?;
        let end = Instant::now();
        self.counters.write_calls.fetch_add(1, Relaxed);
        self.counters
            .bytes_written
            .fetch_add(written as u64, Relaxed);
        self.counters
            .write_ns
            .fetch_add((end - start).as_nanos() as u64, Relaxed);
        if written >= SPAN_WRITE_BYTES {
            spans::record("storage.io.write", start, end);
        }
        Ok(written)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        self.inner.sync_data()?;
        let end = Instant::now();
        self.counters.fsyncs.fetch_add(1, Relaxed);
        self.counters
            .fsync_ns
            .fetch_add((end - start).as_nanos() as u64, Relaxed);
        spans::record("storage.io.fsync", start, end);
        Ok(())
    }
}

impl<Io: StorageIo> StorageIo for CountingIo<Io> {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        let file = self.inner.create(path)?;
        self.counters.creates.fetch_add(1, Relaxed);
        Ok(self.wrap(file))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> std::io::Result<Box<dyn IoFile>> {
        Ok(self.wrap(self.inner.open_append(path, valid_len)?))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)?;
        self.counters.renames.fetch_add(1, Relaxed);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir_names(&self, path: &Path) -> std::io::Result<Vec<String>> {
        self.inner.read_dir_names(path)
    }

    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        let start = Instant::now();
        self.inner.sync_dir(path)?;
        let end = Instant::now();
        self.counters.dir_syncs.fetch_add(1, Relaxed);
        self.counters
            .fsync_ns
            .fetch_add((end - start).as_nanos() as u64, Relaxed);
        spans::record("storage.io.fsync", start, end);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// In-memory [`StorageIo`] that accepts at most `short` bytes per
    /// write call, so the test also covers the short-write accounting.
    #[derive(Debug, Default)]
    struct ScriptedIo {
        short: usize,
        log: Arc<Mutex<Vec<String>>>,
    }

    struct ScriptedFile(usize, Arc<Mutex<Vec<String>>>);

    impl IoFile for ScriptedFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0);
            self.1.lock().unwrap().push(format!("write {n}"));
            Ok(n)
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.1.lock().unwrap().push("fsync".into());
            Ok(())
        }
    }

    impl StorageIo for ScriptedIo {
        fn create(&self, _: &Path) -> std::io::Result<Box<dyn IoFile>> {
            Ok(Box::new(ScriptedFile(self.short, Arc::clone(&self.log))))
        }
        fn open_append(&self, path: &Path, _: u64) -> std::io::Result<Box<dyn IoFile>> {
            self.create(path)
        }
        fn read(&self, _: &Path) -> std::io::Result<Vec<u8>> {
            Ok(Vec::new())
        }
        fn rename(&self, _: &Path, _: &Path) -> std::io::Result<()> {
            self.log.lock().unwrap().push("rename".into());
            Ok(())
        }
        fn remove_file(&self, _: &Path) -> std::io::Result<()> {
            Err(std::io::ErrorKind::NotFound.into())
        }
        fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
            Ok(())
        }
        fn read_dir_names(&self, _: &Path) -> std::io::Result<Vec<String>> {
            Ok(Vec::new())
        }
        fn sync_dir(&self, _: &Path) -> std::io::Result<()> {
            self.log.lock().unwrap().push("sync_dir".into());
            Ok(())
        }
    }

    #[test]
    fn counts_a_scripted_write_sequence_and_forwards_it_unchanged() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let io = CountingIo::new(ScriptedIo {
            short: 10,
            log: Arc::clone(&log),
        });
        let p = Path::new("x");

        let mut snapshot = io.create(p).unwrap();
        assert_eq!(snapshot.write(&[0; 25]).unwrap(), 10);
        assert_eq!(snapshot.write(&[0; 15]).unwrap(), 10);
        assert_eq!(snapshot.write(&[0; 5]).unwrap(), 5);
        snapshot.sync_data().unwrap();
        io.rename(p, Path::new("y")).unwrap();
        io.sync_dir(Path::new(".")).unwrap();
        let mut wal = io.open_append(p, 0).unwrap();
        assert_eq!(wal.write(&[0; 3]).unwrap(), 3);
        // A failing call is forwarded and not counted.
        assert!(io.remove_file(p).is_err());

        let counts = io.counts();
        assert_eq!(
            IoCounts {
                write_ns: 0,
                fsync_ns: 0,
                ..counts
            },
            IoCounts {
                creates: 1,
                write_calls: 4,
                bytes_written: 28,
                fsyncs: 1,
                dir_syncs: 1,
                renames: 1,
                write_ns: 0,
                fsync_ns: 0,
            }
        );
        assert_eq!(
            *log.lock().unwrap(),
            ["write 10", "write 10", "write 5", "fsync", "rename", "sync_dir", "write 3"]
        );
    }
}
