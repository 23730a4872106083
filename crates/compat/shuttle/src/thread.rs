//! Instrumented `thread::spawn` / `JoinHandle` stand-ins.
//!
//! Under the model, spawned closures become scheduler-controlled tasks
//! on their own (serialized) OS threads; `join` parks the joiner until
//! the task finishes.

use crate::runtime;
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};

/// Handle to a spawned model task; [`join`](JoinHandle::join) parks the
/// joiner until the task finishes and yields its result.
pub struct JoinHandle<T> {
    id: runtime::TaskId,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Parks until the task finishes, then returns its result.
    ///
    /// Divergence from `std`: a panicking task aborts the whole model
    /// execution (the panic is the reported failure), so `join` never
    /// actually observes `Err` — the variant exists for signature
    /// parity.
    pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
        runtime::join_task(self.id);
        Ok(self
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("joined task stored its result"))
    }
}

/// Spawns a scheduler-controlled model task. The spawn itself is a
/// yield point: the child may run before the parent's next operation.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let slot = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let id = runtime::spawn_task(move || {
        let value = f();
        *slot2.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    });
    JoinHandle { id, slot }
}

/// A **fair** yield: the caller is not a candidate for this one
/// scheduling decision while any other task can run, so a spin-wait
/// that yields lets the task it waits for make progress and terminates
/// under every exploration strategy. (A spin with no yield in it still
/// trips the per-execution decision budget — that failure stays
/// visible.)
pub fn yield_now() {
    runtime::fair_yield();
}

/// Index of the calling model task: `0` for the model closure, then
/// spawn order — a function of the schedule alone, so anything derived
/// from it replays identically in every process.
#[must_use]
pub fn task_id() -> usize {
    runtime::current().1
}
