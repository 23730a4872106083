//! The deterministic executor: serialized model tasks under a
//! token-passing scheduler.
//!
//! # How an execution works
//!
//! Every model task runs on its own OS thread, but **exactly one task
//! holds the token at a time** — all the others are parked on the
//! execution's condvar. Each instrumented operation (lock, atomic
//! access, notify, spawn, …) is a *yield point*: the task re-enters the
//! scheduler, which consults the [`Chooser`] to pick the next task from
//! the runnable set and hands the token over. A run of a model is
//! therefore fully determined by the chooser's decision sequence, which
//! is also recorded as the replayable `schedule` string.
//!
//! Blocking operations (contended lock, `Condvar::wait`, `join`) park
//! the task *outside* the runnable set until the corresponding wake
//! event; timed waits stay schedulable — the scheduler electing a timed
//! waiter **is** the timeout firing, so timeouts are explored like any
//! other interleaving. If no task is runnable and not all have
//! finished, the execution reports a deadlock with its schedule.
//!
//! # Weak-memory modeling
//!
//! Atomics are sequentially consistent *except* that a
//! `Ordering::Relaxed` store parks in the storing task's private store
//! buffer: the storing task reads its own buffered value, while other
//! tasks' loads face a scheduling choice — observe the committed value,
//! or commit some buffering task's pending stores *to that location*
//! first. Per-location commit is the point: two relaxed stores to
//! different locations may become visible in either order, so a reader
//! can observe a relaxed flag store *before* the data store that
//! preceded it — the publish-without-release class of bug. `Release`
//! (and stronger) stores and read-modify-writes, and task exit, commit
//! the task's whole buffer in program order; a `Relaxed` or `Acquire`
//! read-modify-write is itself globally visible but publishes nothing
//! the task stored before it. This is far from a full C11 model, but it
//! is exactly enough for that bug class.
//!
//! # Teardown
//!
//! The first failure (property panic, deadlock, replay divergence)
//! aborts the execution: every parked task is woken into a
//! [`ModelAbort`] panic that unwinds it off its thread; drop-path
//! bookkeeping (guard releases) stays non-panicking so unwinding never
//! double-panics. The runner then joins every OS thread and reports the
//! failure with its schedule.

use crate::chooser::Chooser;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, OnceLock, PoisonError};

pub(crate) type TaskId = usize;

/// Hard per-iteration decision cap — a guard against accidentally
/// unbounded models (a spin loop with no progress), not a tuning knob.
const MAX_DECISIONS: usize = 1_000_000;

/// Timed-wait timeout firings allowed per execution. Without a bound, a
/// `wait_for` retry loop lets the scheduler fire the timeout forever
/// without ever running the would-be notifier — an infinite schedule.
/// Once the budget is spent, timed waiters park like untimed ones and
/// only notification wakes them, which forces the schedule toward the
/// other tasks.
const MAX_TIMEOUTS: usize = 8;

/// Sentinel panic payload used to unwind tasks during teardown. Never
/// reported as a model failure.
struct ModelAbort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Eligible for the token.
    Runnable,
    /// Parked until an explicit wake event (lock release, notify,
    /// target task finishing).
    Blocked,
    /// Parked in a timed `Condvar` wait: still schedulable, and being
    /// scheduled without a notification is the timeout firing.
    TimedWait,
    /// Ran to completion (or unwound during teardown).
    Finished,
}

struct MutexSt {
    held_by: Option<TaskId>,
    waiters: Vec<TaskId>,
}

struct CvWaiter {
    task: TaskId,
    notified: bool,
}

/// A failure discovered during an execution: what went wrong, plus the
/// decision sequence that reaches it.
#[derive(Debug, Clone)]
pub(crate) struct RawFailure {
    pub(crate) message: String,
    pub(crate) schedule: String,
}

struct ExecState {
    tasks: Vec<Status>,
    joiners: Vec<Vec<TaskId>>,
    active: Option<TaskId>,
    mutexes: Vec<MutexSt>,
    condvars: Vec<Vec<CvWaiter>>,
    /// Committed (globally visible) value per registered atomic.
    atomics: Vec<u64>,
    /// Per-task store buffer: pending `Relaxed` stores in program
    /// order, not yet visible to other tasks.
    buffers: Vec<Vec<(usize, u64)>>,
    chooser: Option<Chooser>,
    trace: Vec<usize>,
    failure: Option<RawFailure>,
    abort: bool,
    finished: usize,
    decisions: usize,
    /// Timeout firings so far this execution (see [`MAX_TIMEOUTS`]).
    timeouts: usize,
}

pub(crate) struct Execution {
    state: OsMutex<ExecState>,
    cv: OsCondvar,
    handles: OsMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, TaskId)>> = const { RefCell::new(None) };
}

pub(crate) fn current() -> (Arc<Execution>, TaskId) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("shuttle primitives may only be used inside model::check")
    })
}

type Guard<'a> = std::sync::MutexGuard<'a, ExecState>;

impl Execution {
    fn new(chooser: Chooser) -> Self {
        Execution {
            state: OsMutex::new(ExecState {
                tasks: Vec::new(),
                joiners: Vec::new(),
                active: None,
                mutexes: Vec::new(),
                condvars: Vec::new(),
                atomics: Vec::new(),
                buffers: Vec::new(),
                chooser: Some(chooser),
                trace: Vec::new(),
                failure: None,
                abort: false,
                finished: 0,
                decisions: 0,
                timeouts: 0,
            }),
            cv: OsCondvar::new(),
            handles: OsMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn schedule_string(trace: &[usize]) -> String {
    trace
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(".")
}

/// Records the first failure and begins teardown: every parked task is
/// woken into a [`ModelAbort`] unwind.
fn fail(exec: &Execution, st: &mut ExecState, message: String) {
    if st.failure.is_none() {
        st.failure = Some(RawFailure {
            message,
            schedule: schedule_string(&st.trace),
        });
    }
    st.abort = true;
    exec.cv.notify_all();
}

/// One recorded decision among `options` alternatives. Forced decisions
/// (one option) are free: not consulted, not recorded, so they neither
/// deepen DFS nor bloat schedules.
fn choose(exec: &Execution, st: &mut ExecState, options: usize) -> usize {
    if options <= 1 {
        return 0;
    }
    st.decisions += 1;
    if st.decisions > MAX_DECISIONS {
        fail(
            exec,
            st,
            format!("decision budget exceeded ({MAX_DECISIONS}); model does not terminate?"),
        );
        return 0;
    }
    match st
        .chooser
        .as_mut()
        .expect("chooser present during execution")
        .choose(options)
    {
        Some(c) => {
            st.trace.push(c);
            c
        }
        None => {
            fail(exec, st, "replay schedule diverged from program".into());
            0
        }
    }
}

/// Hands the token to a chooser-selected runnable task — or detects
/// completion / deadlock when there is none. `yielding` is the caller
/// of a [`fair_yield`]: it stands aside for this one decision when
/// any other task can run.
fn reschedule(exec: &Execution, st: &mut ExecState, yielding: Option<TaskId>) {
    if st.abort {
        exec.cv.notify_all();
        return;
    }
    let timeouts_left = st.timeouts < MAX_TIMEOUTS;
    let mut candidates: Vec<TaskId> = st
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            matches!(s, Status::Runnable) || (timeouts_left && matches!(s, Status::TimedWait))
        })
        .map(|(i, _)| i)
        .collect();
    if candidates.len() > 1 {
        candidates.retain(|&t| Some(t) != yielding);
    }
    if candidates.is_empty() {
        if st.finished == st.tasks.len() {
            st.active = None;
            exec.cv.notify_all(); // wakes the iteration runner
        } else if st.tasks.contains(&Status::TimedWait) {
            fail(
                exec,
                st,
                format!(
                    "timed waiters exhausted the timeout budget ({MAX_TIMEOUTS}) \
                     with no possible notifier; unbounded wait_for retry loop?"
                ),
            );
        } else {
            let parked: Vec<TaskId> = st
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == Status::Blocked)
                .map(|(i, _)| i)
                .collect();
            fail(
                exec,
                st,
                format!("deadlock: tasks {parked:?} are parked with no runnable task"),
            );
        }
        return;
    }
    let idx = choose(exec, st, candidates.len());
    let chosen = candidates[idx];
    // Electing a task that is parked in a timed wait *is* its timeout
    // firing; charge it against the per-execution budget.
    if st.tasks[chosen] == Status::TimedWait {
        st.timeouts += 1;
    }
    st.active = Some(chosen);
    exec.cv.notify_all();
}

/// Parks until the scheduler hands this task the token; unwinds with
/// [`ModelAbort`] if teardown starts first.
fn wait_for_token<'a>(exec: &'a Execution, mut st: Guard<'a>, me: TaskId) -> Guard<'a> {
    loop {
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        if st.active == Some(me) {
            st.tasks[me] = Status::Runnable;
            return st;
        }
        st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

/// A preemption opportunity: lets the scheduler move the token before
/// the caller's next visible operation. Every instrumented operation
/// starts with one.
pub(crate) fn schedule_point() {
    switch(false);
}

/// `yield_now`: a schedule point the caller cannot win while another
/// task can run. A spin-wait that yields therefore always lets the task
/// it waits for take a step, so it terminates under every strategy —
/// a plain schedule point would let DFS re-elect the spinner until the
/// decision budget runs out.
pub(crate) fn fair_yield() {
    switch(true);
}

fn switch(stand_aside: bool) {
    let (exec, me) = current();
    let mut st = exec.lock();
    if st.abort {
        drop(st);
        std::panic::panic_any(ModelAbort);
    }
    reschedule(&exec, &mut st, stand_aside.then_some(me));
    let _st = wait_for_token(&exec, st, me);
}

/// Parks the current task (its status must already be non-runnable) and
/// returns once it is rescheduled.
fn park_here<'a>(exec: &'a Execution, st: Guard<'a>, me: TaskId) -> Guard<'a> {
    let mut st = st;
    reschedule(exec, &mut st, None);
    wait_for_token(exec, st, me)
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

pub(crate) fn mutex_register() -> usize {
    let (exec, _) = current();
    let mut st = exec.lock();
    st.mutexes.push(MutexSt {
        held_by: None,
        waiters: Vec::new(),
    });
    st.mutexes.len() - 1
}

pub(crate) fn mutex_lock(id: usize) {
    schedule_point();
    let (exec, me) = current();
    let mut st = exec.lock();
    loop {
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        if st.mutexes[id].held_by.is_none() {
            st.mutexes[id].held_by = Some(me);
            return;
        }
        st.mutexes[id].waiters.push(me);
        st.tasks[me] = Status::Blocked;
        st = park_here(&exec, st, me);
    }
}

fn mutex_unlock_locked(st: &mut ExecState, id: usize) {
    st.mutexes[id].held_by = None;
    let waiters: Vec<TaskId> = st.mutexes[id].waiters.drain(..).collect();
    for w in waiters {
        if st.tasks[w] == Status::Blocked {
            st.tasks[w] = Status::Runnable;
        }
    }
}

/// Release bookkeeping. Never schedules and never panics: it runs on
/// guard drop paths, including unwinds during teardown.
pub(crate) fn mutex_unlock(id: usize) {
    let (exec, _) = current();
    let mut st = exec.lock();
    mutex_unlock_locked(&mut st, id);
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

pub(crate) fn condvar_register() -> usize {
    let (exec, _) = current();
    let mut st = exec.lock();
    st.condvars.push(Vec::new());
    st.condvars.len() - 1
}

/// Atomically releases `mutex` and parks on `cv`; returns whether the
/// wait ended by timeout. The caller must have dropped its inner guard
/// already and must reacquire via [`mutex_lock`]'s caller-side wrapper
/// after this returns (this function reacquires the *bookkeeping* lock
/// itself).
///
/// Untimed waits wake only on notification. Timed waits stay
/// schedulable: the scheduler electing the waiter without a
/// notification **is** the timeout firing, so both outcomes of every
/// race are explored. Spurious wakeups are not modeled.
pub(crate) fn condvar_wait(cv: usize, mutex: usize, timed: bool) -> bool {
    let (exec, me) = current();
    let timed_out;
    {
        let mut st = exec.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        mutex_unlock_locked(&mut st, mutex);
        st.condvars[cv].push(CvWaiter {
            task: me,
            notified: false,
        });
        st.tasks[me] = if timed {
            Status::TimedWait
        } else {
            Status::Blocked
        };
        let mut st = park_here(&exec, st, me);
        let pos = st.condvars[cv]
            .iter()
            .position(|w| w.task == me)
            .expect("waiter entry present until its task removes it");
        let w = st.condvars[cv].remove(pos);
        timed_out = !w.notified;
    }
    mutex_lock(mutex);
    timed_out
}

/// Notification wakes waiters in FIFO order (`all = false` wakes the
/// first un-notified waiter; `true` wakes every one).
pub(crate) fn condvar_notify(cv: usize, all: bool) {
    schedule_point();
    let (exec, _) = current();
    let mut st = exec.lock();
    let mut woken: Vec<TaskId> = Vec::new();
    for w in st.condvars[cv].iter_mut() {
        if !w.notified {
            w.notified = true;
            woken.push(w.task);
            if !all {
                break;
            }
        }
    }
    for t in woken {
        if matches!(st.tasks[t], Status::Blocked | Status::TimedWait) {
            st.tasks[t] = Status::Runnable;
        }
    }
}

// ---------------------------------------------------------------------
// Atomics (store-buffer model for Relaxed; see module docs)
// ---------------------------------------------------------------------

pub(crate) fn atomic_register(initial: u64) -> usize {
    let (exec, _) = current();
    let mut st = exec.lock();
    st.atomics.push(initial);
    st.atomics.len() - 1
}

fn flush_buffer(st: &mut ExecState, task: TaskId) {
    let pending = std::mem::take(&mut st.buffers[task]);
    for (id, v) in pending {
        st.atomics[id] = v;
    }
}

/// Commits `task`'s pending stores to `id` only (in program order, so
/// the latest wins), leaving stores to other locations buffered — the
/// mechanism by which relaxed stores become visible out of order.
fn flush_location(st: &mut ExecState, task: TaskId, id: usize) {
    let mut latest = None;
    st.buffers[task].retain(|&(a, v)| {
        if a == id {
            latest = Some(v);
            false
        } else {
            true
        }
    });
    if let Some(v) = latest {
        st.atomics[id] = v;
    }
}

pub(crate) fn atomic_load(id: usize) -> u64 {
    schedule_point();
    let (exec, me) = current();
    let mut st = exec.lock();
    // A task always observes its own program order: the latest store it
    // buffered wins over the committed value, with no choice involved.
    if let Some(&(_, v)) = st.buffers[me].iter().rev().find(|&&(a, _)| a == id) {
        return v;
    }
    let staging: Vec<TaskId> = (0..st.buffers.len())
        .filter(|&t| t != me && st.buffers[t].iter().any(|&(a, _)| a == id))
        .collect();
    if staging.is_empty() {
        return st.atomics[id];
    }
    // Scheduling choice: keep reading the committed (stale) value, or
    // have one buffering task's stores *to this location* become
    // visible first. Committing per location (not the whole buffer) is
    // what lets relaxed stores to different locations be observed out
    // of program order — the reordering a missing `Release` permits.
    let c = choose(&exec, &mut st, staging.len() + 1);
    if c > 0 {
        flush_location(&mut st, staging[c - 1], id);
    }
    st.atomics[id]
}

/// `release` is whether the store's ordering is `Release` or stronger.
pub(crate) fn atomic_store(id: usize, value: u64, release: bool) {
    schedule_point();
    let (exec, me) = current();
    let mut st = exec.lock();
    if release {
        // Everything this task stored before becomes visible no later
        // than this store.
        flush_buffer(&mut st, me);
        st.atomics[id] = value;
    } else {
        st.buffers[me].push((id, value));
    }
}

/// Read-modify-write: acts on the latest value, so every pending store
/// to this location commits first; the RMW itself is globally visible.
/// With `release` (the RMW's ordering is `Release` or stronger) it also
/// publishes everything the calling task stored before it, exactly as a
/// store of that ordering does; a `Relaxed` / `Acquire` RMW does not.
pub(crate) fn atomic_rmw(id: usize, release: bool, f: impl FnOnce(u64) -> u64) -> u64 {
    schedule_point();
    let (exec, me) = current();
    let mut st = exec.lock();
    if release {
        flush_buffer(&mut st, me);
    }
    for task in 0..st.buffers.len() {
        flush_location(&mut st, task, id);
    }
    let old = st.atomics[id];
    st.atomics[id] = f(old);
    old
}

// ---------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn task_main(exec: &Arc<Execution>, me: TaskId, body: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(exec), me)));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let st = exec.lock();
        let st = wait_for_token(exec, st, me);
        drop(st);
        body();
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut st = exec.lock();
    match result {
        Ok(()) => flush_buffer(&mut st, me),
        Err(payload) => {
            if !payload.is::<ModelAbort>() {
                let msg = panic_message(payload.as_ref());
                fail(exec, &mut st, format!("task {me} panicked: {msg}"));
            }
        }
    }
    st.tasks[me] = Status::Finished;
    st.finished += 1;
    let joiners: Vec<TaskId> = std::mem::take(&mut st.joiners[me]);
    for j in joiners {
        if st.tasks[j] == Status::Blocked {
            st.tasks[j] = Status::Runnable;
        }
    }
    reschedule(exec, &mut st, None);
}

/// Spawns a model task; the new task is immediately schedulable, and
/// spawning itself is a yield point (the child may run before the
/// parent's next operation).
pub(crate) fn spawn_task(body: impl FnOnce() + Send + 'static) -> TaskId {
    let (exec, _me) = current();
    let id = {
        let mut st = exec.lock();
        st.tasks.push(Status::Runnable);
        st.joiners.push(Vec::new());
        st.buffers.push(Vec::new());
        st.tasks.len() - 1
    };
    let exec2 = Arc::clone(&exec);
    let handle = std::thread::Builder::new()
        .name(format!("shuttle-task-{id}"))
        .spawn(move || task_main(&exec2, id, body))
        .expect("spawn model task thread");
    exec.handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
    schedule_point();
    id
}

/// Parks until `target` finishes.
pub(crate) fn join_task(target: TaskId) {
    let (exec, me) = current();
    let mut st = exec.lock();
    loop {
        if st.abort {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        if st.tasks[target] == Status::Finished {
            return;
        }
        st.joiners[target].push(me);
        st.tasks[me] = Status::Blocked;
        st = park_here(&exec, st, me);
    }
}

// ---------------------------------------------------------------------
// Iteration runner
// ---------------------------------------------------------------------

/// Runs the model closure once under `chooser`, to completion or first
/// failure; returns the chooser (with its DFS bookkeeping advanced-able)
/// and the failure, if any.
pub(crate) fn run_iteration(
    body: Arc<dyn Fn() + Send + Sync>,
    chooser: Chooser,
) -> (Chooser, Option<RawFailure>) {
    let exec = Arc::new(Execution::new(chooser));
    {
        let mut st = exec.lock();
        st.tasks.push(Status::Runnable);
        st.joiners.push(Vec::new());
        st.buffers.push(Vec::new());
        st.active = Some(0);
    }
    let exec2 = Arc::clone(&exec);
    let root = std::thread::Builder::new()
        .name("shuttle-task-0".into())
        .spawn(move || task_main(&exec2, 0, move || body()))
        .expect("spawn model root thread");
    {
        let mut st = exec.lock();
        while st.finished < st.tasks.len() {
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
    let _ = root.join();
    loop {
        let handle = exec
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match handle {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let mut st = exec.lock();
    let chooser = st.chooser.take().expect("chooser returned after execution");
    let failure = st.failure.take();
    (chooser, failure)
}

/// Registers a lazily-initialized object id: the pattern every
/// instrumented primitive uses so construction can happen outside any
/// execution (and `new` can stay allocation-free) while first *use*
/// registers with the live execution.
pub(crate) fn lazy_id(slot: &OnceLock<usize>, register: impl FnOnce() -> usize) -> usize {
    *slot.get_or_init(register)
}
