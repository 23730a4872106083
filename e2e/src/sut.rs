//! The four systems under test — one per layer boundary — behind one
//! chunk-execution interface, driven through public functions only.
//!
//! | boundary | type | how ops are issued |
//! |---|---|---|
//! | `Core` | `FitingTree` | direct calls, one thread |
//! | `Sharded` | `ShardedIndex` over `FitingTree` shards | direct calls, one thread |
//! | `Service` | `IndexService` + one `Client` | [`WINDOW`] commands in flight |
//! | `Durable` | the same over `DurableIndex` shards on [`CountingIo`] | same |

use crate::counting_io::{CountingIo, IoCounts};
use crate::gen::{Kind, Op};
use crate::spans;
use fiting_index_api::{BuildableIndex, ShardedIndex, SortedIndex};
use fiting_index_service::{
    Client, CommandError, DurabilityConfig, IndexService, ServiceConfig, Ticket,
};
use fiting_storage::{
    open_sharded, DurableConfig, DurableIndex, FsyncPolicy, RealIo, RetryPolicy, StoreReport,
};
use fiting_tree::{FitingTree, FitingTreeBuilder};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Tree = FitingTree<u64, u64>;
pub type DurableTree = DurableIndex<u64, u64, Tree>;
pub type Sharded<I = Tree> = ShardedIndex<u64, u64, I>;

/// The paper's error bound for every tree the benchmark builds.
pub const ERROR: u64 = 64;
/// Commands one client keeps in flight against a service.
pub const WINDOW: usize = 128;
/// Every this-many-th op of a chunk is timed on its own.
pub const SAMPLE_EVERY: usize = 16;
/// In a traced chunk, every this-many-th op gets spans.
pub const SPAN_EVERY: usize = 1024;
/// The WAL flush policy of the durable boundary: an fsync every 1024
/// records. `Always` would measure nothing but the disk.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(1024);

pub fn builder() -> FitingTreeBuilder {
    FitingTreeBuilder::new(ERROR)
}

/// Which boundary, with its shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    Core,
    Sharded(usize),
    Service(usize),
    Durable(usize),
}

impl Boundary {
    pub fn layer(self) -> &'static str {
        match self {
            Boundary::Core => "core",
            Boundary::Sharded(_) => "sharded",
            Boundary::Service(_) => "service",
            Boundary::Durable(_) => "durable",
        }
    }
}

/// What executing ops produced: how many, how many wrong, the summed
/// chunk time, and the individually timed samples per op kind.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub busy: Duration,
    pub by_kind: [u64; 4],
    pub samples: [Vec<u32>; 4],
    /// Time inside the client's submit call, over the ops timed on
    /// their own (service boundaries only).
    pub submit: Duration,
    pub submits: u64,
}

impl Tally {
    fn sample(&mut self, kind: Kind, elapsed: Duration) {
        self.samples[kind as usize].push(elapsed.as_nanos().min(u128::from(u32::MAX)) as u32);
    }

    /// Closes a chunk that started at `chunk_start`.
    fn close_chunk(&mut self, ops: &[Op], chunk_start: Instant) {
        self.busy += chunk_start.elapsed();
        self.ops += ops.len() as u64;
        for op in ops {
            self.by_kind[op.kind() as usize] += 1;
        }
    }

    pub fn ns_per_op(&self) -> f64 {
        self.busy.as_nanos() as f64 / self.ops as f64
    }
}

/// A boundary that answers before the call returns.
trait Direct {
    const CALL_SPAN: &'static str;
    fn get(&mut self, key: u64) -> Option<u64>;
    fn insert(&mut self, key: u64, value: u64) -> Option<u64>;
    fn remove(&mut self, key: u64) -> Option<u64>;
    /// Rows in `lo..hi` and the first row's key (0 if none).
    fn range(&mut self, lo: u64, hi: u64) -> (u32, u64);

    /// Executes `op` and says whether the answer was right.
    #[inline]
    fn check(&mut self, op: &Op) -> bool {
        match *op {
            Op::Get { key, expect } => self.get(key) == expect,
            Op::Insert { key, value, expect } => self.insert(key, value) == expect,
            Op::Remove { key, expect } => self.remove(key) == expect,
            Op::Range {
                lo,
                hi,
                rows,
                first,
            } => self.range(lo, hi) == (rows, first),
        }
    }

    /// `check` with spans under `root`.
    fn check_traced(&mut self, op: &Op, root: Option<usize>, op_id: u64) -> bool {
        check_in_call_span(self, op, root, op_id)
    }
}

/// `check` inside one `<layer>.call` span.
fn check_in_call_span<S: Direct + ?Sized>(
    sys: &mut S,
    op: &Op,
    root: Option<usize>,
    op_id: u64,
) -> bool {
    let start = Instant::now();
    let ok = sys.check(op);
    spans::push(S::CALL_SPAN, start, Instant::now(), root, op_id);
    ok
}

impl Direct for Tree {
    const CALL_SPAN: &'static str = "core.call";

    #[inline]
    fn get(&mut self, key: u64) -> Option<u64> {
        FitingTree::get(self, &key).copied()
    }
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        FitingTree::insert(self, key, value)
    }
    #[inline]
    fn remove(&mut self, key: u64) -> Option<u64> {
        FitingTree::remove(self, &key)
    }
    #[inline]
    fn range(&mut self, lo: u64, hi: u64) -> (u32, u64) {
        let mut scan = FitingTree::range(self, lo..hi);
        match scan.next() {
            Some((&first, _)) => (scan.count() as u32 + 1, first),
            None => (0, 0),
        }
    }

    /// Gets go through `get_traced`, whose phase timings become the
    /// `core.locate` and `core.segment` child spans.
    fn check_traced(&mut self, op: &Op, root: Option<usize>, op_id: u64) -> bool {
        let Op::Get { key, expect } = *op else {
            return check_in_call_span(self, op, root, op_id);
        };
        let start = Instant::now();
        let (found, phases) = self.get_traced(&key);
        let located = start + Duration::from_nanos(phases.tree_nanos);
        let searched = located + Duration::from_nanos(phases.segment_nanos);
        spans::push("core.locate", start, located, root, op_id);
        spans::push("core.segment", located, searched, root, op_id);
        found.copied() == expect
    }
}

impl Direct for Sharded {
    const CALL_SPAN: &'static str = "sharded.call";

    #[inline]
    fn get(&mut self, key: u64) -> Option<u64> {
        ShardedIndex::get(self, &key)
    }
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        ShardedIndex::insert(self, key, value)
    }
    #[inline]
    fn remove(&mut self, key: u64) -> Option<u64> {
        ShardedIndex::remove(self, &key)
    }
    #[inline]
    fn range(&mut self, lo: u64, hi: u64) -> (u32, u64) {
        let rows = self.range_collect(lo..hi);
        (rows.len() as u32, rows.first().map_or(0, |r| r.0))
    }
}

fn run_direct<S: Direct>(sys: &mut S, ops: &[Op], tally: &mut Tally, traced: bool) {
    let chunk_start = Instant::now();
    let mut failed = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let ok = if traced && i % SPAN_EVERY == 0 {
            let op_id = tally.ops + i as u64;
            let start = Instant::now();
            let root = spans::open("op", start, None, op_id);
            let ok = sys.check_traced(op, root, op_id);
            spans::close(root, Instant::now());
            ok
        } else if i % SAMPLE_EVERY == 0 {
            let start = Instant::now();
            let ok = sys.check(op);
            tally.sample(op.kind(), start.elapsed());
            ok
        } else {
            sys.check(op)
        };
        failed += u64::from(!ok);
    }
    tally.failed += failed;
    tally.close_chunk(ops, chunk_start);
}

enum Reply {
    Point(Ticket<Option<u64>>, Option<u64>),
    Range(Ticket<Vec<(u64, u64)>>, (u32, u64)),
}

struct InFlight {
    reply: Reply,
    kind: Kind,
    /// Set for the ops timed on their own: submit time, and the root
    /// span when tracing.
    sampled: Option<(Instant, Option<usize>, u64)>,
}

/// One client thread keeping [`WINDOW`] commands in flight: submit, and
/// when the window is full wait for the oldest.
struct Windowed<I: SortedIndex<u64, u64> + 'static> {
    client: Client<u64, u64, I>,
    window: VecDeque<InFlight>,
}

impl<I: SortedIndex<u64, u64> + Send + Sync + 'static> Windowed<I> {
    fn new(client: Client<u64, u64, I>) -> Self {
        Windowed {
            client,
            window: VecDeque::with_capacity(WINDOW),
        }
    }

    fn submit(&self, op: &Op) -> Reply {
        match *op {
            Op::Get { key, expect } => Reply::Point(self.client.get(key), expect),
            Op::Insert { key, value, expect } => {
                Reply::Point(self.client.insert(key, value), expect)
            }
            Op::Remove { key, expect } => Reply::Point(self.client.remove(key), expect),
            Op::Range {
                lo,
                hi,
                rows,
                first,
            } => Reply::Range(self.client.range(lo..hi), (rows, first)),
        }
    }

    /// Waits for the oldest command; a wrong answer and an `Err`
    /// outcome both count as failed.
    fn retire(&mut self, tally: &mut Tally) {
        let Some(oldest) = self.window.pop_front() else {
            return;
        };
        let wait_start = oldest.sampled.map(|_| Instant::now());
        let ok = match oldest.reply {
            Reply::Point(ticket, expect) => ticket.wait() == Ok::<_, CommandError>(expect),
            Reply::Range(ticket, expect) => ticket
                .wait()
                .is_ok_and(|rows| (rows.len() as u32, rows.first().map_or(0, |r| r.0)) == expect),
        };
        if let Some((submitted, root, op_id)) = oldest.sampled {
            let done = Instant::now();
            match root {
                Some(_) => {
                    spans::push(
                        "ticket.wait",
                        wait_start.expect("sampled"),
                        done,
                        root,
                        op_id,
                    );
                    spans::close(root, done);
                }
                None => tally.sample(oldest.kind, done - submitted),
            }
        }
        tally.failed += u64::from(!ok);
    }

    fn run(&mut self, ops: &[Op], tally: &mut Tally, traced: bool) {
        let chunk_start = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            if self.window.len() == WINDOW {
                self.retire(tally);
            }
            let spanned = traced && i % SPAN_EVERY == 0;
            let sampled = (spanned || i % SAMPLE_EVERY == 0).then(Instant::now);
            let reply = self.submit(op);
            let sampled = sampled.map(|submitted| {
                let accepted = Instant::now();
                tally.submit += accepted - submitted;
                tally.submits += 1;
                let op_id = tally.ops + i as u64;
                let root = spanned
                    .then(|| {
                        let root = spans::open("op", submitted, None, op_id);
                        spans::push("client.submit", submitted, accepted, root, op_id);
                        root
                    })
                    .flatten();
                (submitted, root, op_id)
            });
            self.window.push_back(InFlight {
                reply,
                kind: op.kind(),
                sampled,
            });
        }
        // Every op is answered inside the chunk that issued it.
        while !self.window.is_empty() {
            self.retire(tally);
        }
        tally.close_chunk(ops, chunk_start);
    }
}

/// A store directory for the durable boundary, with its counting I/O.
/// Dropping it removes the directory, on every exit path that unwinds.
#[derive(Debug)]
pub struct Store {
    pub root: PathBuf,
    pub io: Arc<CountingIo<RealIo>>,
    pub config: DurableConfig<FitingTreeBuilder>,
}

impl Store {
    /// # Panics
    /// If the store root cannot be created.
    pub fn create(root: PathBuf) -> Store {
        let _ = std::fs::remove_dir_all(&root);
        let io = Arc::new(CountingIo::new(RealIo));
        let config = DurableConfig::with_io(
            &root,
            FSYNC,
            builder(),
            Arc::clone(&io) as Arc<dyn fiting_storage::StorageIo>,
            RetryPolicy::default(),
        )
        .expect("create the store root");
        Store { root, io, config }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes store directories left by killed runs: every `<pid>` entry
/// under `parent` whose process no longer exists.
pub fn clear_stale_stores(parent: &Path) {
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name.to_string_lossy();
        let pid = pid.split('-').next().unwrap_or_default();
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A built system under test.
pub enum Sut {
    Core(Tree),
    Sharded(Sharded),
    Service(Running<Tree>),
    Durable(Running<DurableTree>, Store),
}

/// A started service and its one windowed client.
pub struct Running<I: SortedIndex<u64, u64> + Send + Sync + 'static> {
    service: IndexService<u64, u64, I>,
    client: Windowed<I>,
}

impl<I: SortedIndex<u64, u64> + Send + Sync + 'static> Running<I> {
    fn new(service: IndexService<u64, u64, I>) -> Self {
        let client = Windowed::new(service.client());
        Running { service, client }
    }

    pub fn service(&self) -> &IndexService<u64, u64, I> {
        &self.service
    }
}

/// What reopening a shut-down durable store found.
pub struct Recovered {
    pub index: Sharded<DurableTree>,
    pub report: StoreReport,
    pub seconds: f64,
    /// The store's I/O up to the end of shutdown. Tickets resolve before
    /// their batch is committed, so only after shutdown's final sync are
    /// the bytes written an exact function of the ops.
    pub io_at_shutdown: IoCounts,
}

impl Sut {
    /// Owned sorted pairs → ready to serve. `store_root` is used by the
    /// durable boundary only.
    ///
    /// # Panics
    /// If a build fails; the benchmark's inputs never make one fail.
    pub fn build(boundary: Boundary, pairs: Vec<(u64, u64)>, store_root: &Path) -> Sut {
        match boundary {
            Boundary::Core => Sut::Core(Tree::build_sorted(&builder(), pairs).expect("bulk load")),
            Boundary::Sharded(shards) => {
                Sut::Sharded(Sharded::bulk_load(&builder(), shards, pairs).expect("bulk load"))
            }
            Boundary::Service(shards) => {
                let index = Sharded::bulk_load(&builder(), shards, pairs).expect("bulk load");
                Sut::Service(Running::new(IndexService::start(
                    index,
                    ServiceConfig::default(),
                )))
            }
            Boundary::Durable(shards) => {
                let store = Store::create(store_root.to_path_buf());
                let index = Sharded::<DurableTree>::bulk_load(&store.config, shards, pairs)
                    .expect("durable bulk load");
                // Checkpoints are the benchmark's to trigger, by op
                // count, so their number and the WAL tail are exact.
                let durability = DurabilityConfig {
                    sync_each_batch: true,
                    checkpoint_interval: Duration::from_secs(3600),
                    checkpoint_wal_bytes: usize::MAX,
                };
                Sut::Durable(
                    Running::new(IndexService::start_durable(
                        index,
                        ServiceConfig::default(),
                        durability,
                    )),
                    store,
                )
            }
        }
    }

    /// Executes one chunk, verifying every answer.
    pub fn run(&mut self, ops: &[Op], tally: &mut Tally, traced: bool) {
        match self {
            Sut::Core(tree) => run_direct(tree, ops, tally, traced),
            Sut::Sharded(index) => run_direct(index, ops, tally, traced),
            Sut::Service(running) => running.client.run(ops, tally, traced),
            Sut::Durable(running, _) => running.client.run(ops, tally, traced),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Sut::Core(tree) => tree.len(),
            Sut::Sharded(index) => index.len(),
            Sut::Service(running) => running.service.index().len(),
            Sut::Durable(running, _) => running.service.index().len(),
        }
    }

    /// Bytes of index structure (the paper's space axis), data excluded.
    pub fn index_bytes(&self) -> usize {
        match self {
            Sut::Core(tree) => tree.index_size_bytes(),
            Sut::Sharded(index) => index.size_bytes(),
            Sut::Service(running) => running.service.index().size_bytes(),
            Sut::Durable(running, _) => running.service.index().size_bytes(),
        }
    }

    /// What the storage layer has done to the disk (nothing, at a
    /// volatile boundary).
    pub fn io_counts(&self) -> IoCounts {
        match self {
            Sut::Durable(_, store) => store.io.counts(),
            _ => IoCounts::default(),
        }
    }

    /// Snapshots every durable shard and rotates its log; seconds taken.
    /// Nothing to do (and `None`) at a volatile boundary.
    pub fn checkpoint(&self) -> Option<f64> {
        let Sut::Durable(running, _) = self else {
            return None;
        };
        let start = Instant::now();
        spans::scope("storage.checkpoint", || {
            running.service.index().checkpoint_shards(0)
        });
        Some(start.elapsed().as_secs_f64())
    }

    /// Shuts a durable service down, drops the index, and times
    /// `open_sharded` over what is on disk.
    ///
    /// # Panics
    /// If the store does not reopen.
    pub fn shutdown_and_recover(self) -> Option<(Recovered, Store)> {
        let Sut::Durable(running, store) = self else {
            return None;
        };
        let Running { service, client } = running;
        drop(client);
        drop(service.shutdown());
        let io_at_shutdown = store.io.counts();
        let start = Instant::now();
        let (index, report) = open_sharded::<u64, u64, Tree>(&store.config).expect("reopen store");
        let seconds = start.elapsed().as_secs_f64();
        Some((
            Recovered {
                index,
                report,
                seconds,
                io_at_shutdown,
            },
            store,
        ))
    }
}
