//! Checked thread spawn/join.
//!
//! Inside a [`crate::model`] closure, `spawn` creates a *logical* thread:
//! it runs on its own OS thread but only when the exploration scheduler
//! hands it the baton, and `join` is an instrumented operation that is
//! schedulable once the target finished. Spawning or joining outside a
//! model panics by name.

use std::sync::{Arc, Mutex};

use crate::rt::{current, Op};

/// One-shot result cell a spawned closure fills for its joiner.
struct Slot<T>(Mutex<Option<T>>);

impl<T> Slot<T> {
    fn put(&self, value: T) {
        match self.0.lock() {
            Ok(mut g) => *g = Some(value),
            Err(p) => *p.into_inner() = Some(value),
        }
    }

    fn take(&self) -> Option<T> {
        match self.0.lock() {
            Ok(mut g) => g.take(),
            Err(p) => p.into_inner().take(),
        }
    }
}

/// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    tid: usize,
    value: Arc<Slot<T>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread: a scheduling decision point, enabled once the
    /// target has finished.
    pub fn join(self) -> std::thread::Result<T> {
        let (rt, me) = current("JoinHandle::join");
        let _ = rt.yield_point(me, Op::Join(self.tid));
        if let Some(h) = rt.take_os_handle(self.tid) {
            let _ = h.join();
        }
        match self.value.take() {
            Some(v) => Ok(v),
            // A panicking model thread fails the whole execution, so a
            // completed join always has a value.
            None => unreachable!("joined model thread finished without a result"),
        }
    }
}

/// Spawn a logical thread of the enclosing model: a decision point.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (rt, _me) = current("thread::spawn");
    let value = Arc::new(Slot(Mutex::new(None)));
    let v2 = Arc::clone(&value);
    let tid = rt.spawn_thread(Box::new(move || v2.put(f())));
    JoinHandle { tid, value }
}
