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

/// An explicit yield point: offers the scheduler a chance to move the
/// token, exactly like any instrumented operation.
pub fn yield_now() {
    runtime::schedule_point();
}
