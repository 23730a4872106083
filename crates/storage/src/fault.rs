//! Deterministic fault injection behind the [`StorageIo`] trait.
//!
//! [`FaultIo`] wraps [`RealIo`] and, before every operation, consults a
//! seeded schedule: the same `(seed, plan, workload)` triple always
//! injects the same faults at the same call sites, so any chaos-battery
//! failure is replayable from one line of text (see
//! [`FaultIo::injections`]).
//!
//! Two injection sources compose:
//!
//! * **Seeded schedule** ([`FaultPlan`]) — an LCG rolls per operation
//!   for EIO, ENOSPC, transient (`EINTR`-class) errors, latency
//!   spikes, and short writes; a fault may additionally kill its path
//!   *forever* (every later op on it fails the same way — the
//!   fail-once vs fail-forever axis).
//! * **Targeted faults** ([`FaultIo::fail_nth`]) — "fail the 2nd fsync
//!   on any path containing `snapshot.tmp` with ENOSPC", for
//!   step-by-step surgical tests like the checkpoint-rotation battery.
//!
//! A short write really writes a prefix of the buffer through to the
//! real file (tearing the record on disk) and then fails the *next*
//! write on that path — exactly the ENOSPC-mid-append shape. A "torn
//! fsync" is an fsync that reports failure after data already reached
//! the file, which is what wrapping the real handle gives naturally.

use crate::error::IoOp;
use crate::io::{IoFile, RealIo, StorageIo};
use fiting_sync::primitives::Mutex;
use std::io::{Error, ErrorKind};
use std::path::Path;
use std::sync::Arc;

/// What an injected fault presents as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// Permanent I/O error (`EIO`).
    Eio,
    /// Disk full (`ENOSPC`).
    Enospc,
    /// Transient error (`EINTR`-class) — a retry policy absorbs it.
    Transient,
    /// Write a prefix of the buffer, then fail the next write on the
    /// path — a torn record on disk. Only meaningful for writes; on
    /// other ops it degrades to [`InjectKind::Eio`].
    ShortWrite,
    /// No error: the operation succeeds after a small injected delay.
    Latency,
}

impl InjectKind {
    fn error(self) -> Error {
        match self {
            InjectKind::Eio | InjectKind::ShortWrite | InjectKind::Latency => {
                Error::other("injected EIO")
            }
            InjectKind::Enospc => Error::new(ErrorKind::StorageFull, "injected ENOSPC"),
            InjectKind::Transient => Error::new(ErrorKind::Interrupted, "injected EINTR"),
        }
    }
}

/// The seeded portion of a fault schedule. All rates are per-mille per
/// operation; `budget` caps the number of seeded injections so every
/// schedule eventually quiesces (targeted faults and already-dead paths
/// are not budgeted — a killed path stays dead).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed for the injection LCG.
    pub seed: u64,
    /// Chance any single operation faults.
    pub fault_per_mille: u32,
    /// Given a permanent fault, chance the path dies forever.
    pub forever_per_mille: u32,
    /// Maximum seeded injections before the schedule quiesces.
    pub budget: u32,
}

impl FaultPlan {
    /// A quiet plan: no seeded faults (targeted faults still fire).
    #[must_use]
    pub fn quiet() -> Self {
        FaultPlan {
            seed: 0,
            fault_per_mille: 0,
            forever_per_mille: 0,
            budget: 0,
        }
    }

    /// Derives a full plan from one seed: fault rate 2–12%, forever
    /// rate 0–30%, budget 1–8 injections. Covers the whole
    /// fail-once/fail-forever × sparse/dense schedule space as the
    /// seed sweeps.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut x = seed ^ 0x5de7_1f0a_9c3b_8e41;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        FaultPlan {
            seed,
            fault_per_mille: 20 + (next() % 101) as u32,
            forever_per_mille: (next() % 301) as u32,
            budget: 1 + (next() % 8) as u32,
        }
    }
}

#[derive(Debug)]
struct Target {
    op: IoOp,
    path_contains: String,
    nth: u64,
    kind: InjectKind,
    forever: bool,
    seen: u64,
    spent: bool,
}

#[derive(Debug)]
struct State {
    rng: u64,
    plan: FaultPlan,
    armed: bool,
    injected: u32,
    ops: u64,
    /// Paths killed forever, with the error kind they die with.
    dead: Vec<(String, InjectKind)>,
    /// One-shot follow-ups (the failing half of a short write).
    pending: Vec<(String, InjectKind)>,
    targets: Vec<Target>,
    log: Vec<String>,
}

impl State {
    fn roll(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.rng >> 33
    }
}

/// What `decide` tells the wrapper to do for one operation.
enum Decision {
    Proceed,
    Sleep,
    Fail(InjectKind),
    /// Write only this many bytes through, then arm a follow-up
    /// failure on the path.
    Short(usize),
}

/// A [`StorageIo`] that injects a deterministic, seeded fault schedule
/// in front of the real filesystem.
pub struct FaultIo {
    inner: RealIo,
    state: Arc<Mutex<State>>,
}

impl std::fmt::Debug for FaultIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FaultIo")
            .field("plan", &state.plan)
            .field("armed", &state.armed)
            .field("ops", &state.ops)
            .field("injected", &state.injected)
            .finish_non_exhaustive()
    }
}

impl FaultIo {
    /// A harness following `plan`'s seeded schedule.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultIo {
            inner: RealIo,
            state: Arc::new(Mutex::new(State {
                rng: plan.seed ^ 0x9e37_79b9_7f4a_7c15,
                plan,
                armed: true,
                injected: 0,
                ops: 0,
                dead: Vec::new(),
                pending: Vec::new(),
                targets: Vec::new(),
                log: Vec::new(),
            })),
        }
    }

    /// A harness with no seeded faults — arm targeted ones with
    /// [`fail_nth`](Self::fail_nth).
    #[must_use]
    pub fn quiet() -> Self {
        FaultIo::new(FaultPlan::quiet())
    }

    /// Arms a targeted fault: the `nth` (1-based) operation of kind
    /// `op` whose path contains `path_contains` fails as `kind`;
    /// `forever` additionally kills the path for every later
    /// operation.
    pub fn fail_nth(
        &self,
        op: IoOp,
        path_contains: &str,
        nth: u64,
        kind: InjectKind,
        forever: bool,
    ) {
        self.state.lock().targets.push(Target {
            op,
            path_contains: path_contains.to_string(),
            nth: nth.max(1),
            kind,
            forever,
            seen: 0,
            spent: false,
        });
    }

    /// (Re-)enables injection — the chaos battery's "storm starts now"
    /// switch, flipped after building a store under clean I/O. Targets
    /// already spent and paths revived by [`disarm`](Self::disarm)
    /// stay that way; the seeded schedule resumes where it left off.
    pub fn arm(&self) {
        self.state.lock().armed = true;
    }

    /// Stops all injection (seeded and targeted) and revives dead
    /// paths — the quiesce switch a test flips before its final
    /// verification phase.
    pub fn disarm(&self) {
        let mut s = self.state.lock();
        s.armed = false;
        s.dead.clear();
        s.pending.clear();
        for t in &mut s.targets {
            t.spent = true;
        }
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injection_count(&self) -> u64 {
        self.state.lock().log.len() as u64
    }

    /// The replay log: one line per injected fault
    /// (`#<op-index> <op> <path> -> <kind>`). With the plan's seed,
    /// this pins the schedule exactly.
    #[must_use]
    pub fn injections(&self) -> Vec<String> {
        self.state.lock().log.clone()
    }

    /// Decides the fate of one operation. `write_len` is `Some` for
    /// writes (enables short-write injection).
    fn decide(&self, op: IoOp, path: &Path, write_len: Option<usize>) -> Decision {
        let path_str = path.to_string_lossy();
        let mut s = self.state.lock();
        s.ops += 1;
        let at = s.ops;
        if !s.armed {
            return Decision::Proceed;
        }

        // Dead path: every operation fails the way the path died.
        if let Some((_, kind)) = s.dead.iter().find(|(p, _)| *p == path_str) {
            let kind = *kind;
            let line = format!("#{at} {op} {path_str} -> dead-path {kind:?}");
            s.log.push(line);
            return Decision::Fail(kind);
        }

        // One-shot follow-up (second half of a short write).
        if let Some(i) = s.pending.iter().position(|(p, _)| *p == path_str) {
            let (_, kind) = s.pending.swap_remove(i);
            let line = format!("#{at} {op} {path_str} -> short-write follow-up {kind:?}");
            s.log.push(line);
            return Decision::Fail(kind);
        }

        // Targeted faults.
        for i in 0..s.targets.len() {
            let t = &mut s.targets[i];
            if t.spent || t.op != op || !path_str.contains(&t.path_contains) {
                continue;
            }
            t.seen += 1;
            if t.seen != t.nth {
                continue;
            }
            t.spent = true;
            let kind = t.kind;
            let forever = t.forever;
            if forever {
                s.dead.push((path_str.clone().into_owned(), kind));
            }
            let line = format!("#{at} {op} {path_str} -> targeted {kind:?} forever={forever}");
            s.log.push(line);
            return match (kind, write_len) {
                (InjectKind::Latency, _) => Decision::Sleep,
                (InjectKind::ShortWrite, Some(len)) if len > 1 => {
                    let cut = 1 + (s.roll() as usize) % (len - 1);
                    s.pending.push((path_str.into_owned(), InjectKind::Enospc));
                    Decision::Short(cut)
                }
                _ => Decision::Fail(kind),
            };
        }

        // Seeded schedule.
        if s.injected >= s.plan.budget || s.plan.fault_per_mille == 0 {
            return Decision::Proceed;
        }
        if s.roll() % 1000 >= u64::from(s.plan.fault_per_mille) {
            return Decision::Proceed;
        }
        s.injected += 1;
        let kind = match s.roll() % 10 {
            0 | 1 => InjectKind::Transient,
            2 | 3 => InjectKind::Enospc,
            4 => InjectKind::Latency,
            5 if write_len.is_some_and(|l| l > 1) => InjectKind::ShortWrite,
            _ => InjectKind::Eio,
        };
        let forever = matches!(kind, InjectKind::Eio | InjectKind::Enospc)
            && s.roll() % 1000 < u64::from(s.plan.forever_per_mille);
        if forever {
            s.dead.push((path_str.clone().into_owned(), kind));
        }
        let line = format!("#{at} {op} {path_str} -> seeded {kind:?} forever={forever}");
        s.log.push(line);
        match (kind, write_len) {
            (InjectKind::Latency, _) => Decision::Sleep,
            (InjectKind::ShortWrite, Some(len)) => {
                let cut = 1 + (s.roll() as usize) % (len - 1);
                s.pending.push((path_str.into_owned(), InjectKind::Enospc));
                Decision::Short(cut)
            }
            _ => Decision::Fail(kind),
        }
    }

    fn gate(&self, op: IoOp, path: &Path) -> std::io::Result<()> {
        match self.decide(op, path, None) {
            Decision::Proceed => Ok(()),
            Decision::Sleep => {
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(())
            }
            Decision::Fail(kind) => Err(kind.error()),
            Decision::Short(_) => Err(InjectKind::Eio.error()),
        }
    }
}

/// A write handle whose operations keep consulting the shared
/// schedule.
struct FaultFile {
    inner: Box<dyn IoFile>,
    io: FaultIo,
    path: std::path::PathBuf,
}

impl IoFile for FaultFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.io.decide(IoOp::Write, &self.path, Some(buf.len())) {
            Decision::Proceed => self.inner.write(buf),
            Decision::Sleep => {
                std::thread::sleep(std::time::Duration::from_micros(200));
                self.inner.write(buf)
            }
            Decision::Fail(kind) => Err(kind.error()),
            Decision::Short(cut) => {
                let cut = cut.min(buf.len());
                // Tear for real: the prefix reaches the file before the
                // follow-up failure fires on the next write.
                let mut done = 0;
                while done < cut {
                    done += self.inner.write(&buf[done..cut])?;
                }
                Ok(cut)
            }
        }
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.io.gate(IoOp::Fsync, &self.path)?;
        self.inner.sync_data()
    }
}

impl Clone for FaultIo {
    fn clone(&self) -> Self {
        FaultIo {
            inner: RealIo,
            state: Arc::clone(&self.state),
        }
    }
}

impl StorageIo for FaultIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        self.gate(IoOp::Create, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            io: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> std::io::Result<Box<dyn IoFile>> {
        self.gate(IoOp::OpenAppend, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_append(path, valid_len)?,
            io: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.gate(IoOp::Read, path)?;
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.gate(IoOp::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.gate(IoOp::RemoveFile, path)?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.gate(IoOp::CreateDir, path)?;
        self.inner.create_dir_all(path)
    }

    fn read_dir_names(&self, path: &Path) -> std::io::Result<Vec<String>> {
        self.gate(IoOp::ReadDir, path)?;
        self.inner.read_dir_names(path)
    }

    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.gate(IoOp::SyncDir, path)?;
        self.inner.sync_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fiting-fault-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn targeted_fault_fires_on_nth_match_only() {
        let dir = scratch("targeted");
        let io = FaultIo::quiet();
        io.fail_nth(IoOp::Fsync, "a.bin", 2, InjectKind::Enospc, false);
        let mut f = io.create(&dir.join("a.bin")).unwrap();
        f.write(b"x").unwrap();
        f.sync_data().unwrap(); // 1st fsync passes
        let err = f.sync_data().unwrap_err(); // 2nd injected
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        f.sync_data().unwrap(); // spent: 3rd passes
        assert_eq!(io.injection_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_forever_kills_the_path_until_disarm() {
        let dir = scratch("forever");
        let io = FaultIo::quiet();
        io.fail_nth(IoOp::Write, "w.bin", 1, InjectKind::Eio, true);
        let mut f = io.create(&dir.join("w.bin")).unwrap();
        assert!(f.write(b"x").is_err());
        assert!(f.write(b"x").is_err()); // dead path
        assert!(f.sync_data().is_err()); // every op on the path dies
        io.disarm();
        assert_eq!(f.write(b"x").unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_tears_for_real_then_fails() {
        let dir = scratch("short");
        let io = FaultIo::quiet();
        io.fail_nth(IoOp::Write, "t.bin", 1, InjectKind::ShortWrite, false);
        let p = dir.join("t.bin");
        let mut f = io.create(&p).unwrap();
        let n = f.write(b"0123456789").unwrap();
        assert!((1..10).contains(&n), "short write must be a strict prefix");
        let err = f.write(&b"0123456789"[n..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        drop(f);
        assert_eq!(RealIo.read(&p).unwrap(), &b"0123456789"[..n]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_replayable() {
        let dir = scratch("seeded");
        let plan = FaultPlan {
            seed: 42,
            fault_per_mille: 500,
            forever_per_mille: 200,
            budget: 16,
        };
        let run = |tag: &str| {
            let io = FaultIo::new(plan);
            let p = dir.join(format!("s-{tag}.bin"));
            for _ in 0..50 {
                if let Ok(mut f) = io.create(&p) {
                    let _ = f.write(b"abcdef");
                    let _ = f.sync_data();
                }
                let _ = io.read(&p);
            }
            io.injections()
                .iter()
                // Strip the path (differs per tag); keep op order + kinds.
                .map(|l| {
                    let head = l.split_whitespace().nth(1).unwrap().to_string();
                    let tail = l.split("-> ").nth(1).unwrap().to_string();
                    format!("{head} {tail}")
                })
                .collect::<Vec<_>>()
        };
        let a = run("a");
        let b = run("b");
        assert!(!a.is_empty(), "this seed must inject something");
        assert_eq!(a, b, "same seed + workload => same schedule");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_quiesces_the_seeded_schedule() {
        let dir = scratch("budget");
        let plan = FaultPlan {
            seed: 7,
            fault_per_mille: 1000,
            forever_per_mille: 0,
            budget: 3,
        };
        let io = FaultIo::new(plan);
        let p = dir.join("b.bin");
        let mut failures = 0;
        for _ in 0..40 {
            if io.create(&p).is_err() {
                failures += 1;
            }
        }
        // Exactly `budget` injections, then the schedule quiesces.
        // (Latency injections succeed, so failures <= injections.)
        assert_eq!(io.injection_count(), 3);
        assert!(failures <= 3, "failures={failures}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
