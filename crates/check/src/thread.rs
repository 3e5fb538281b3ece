//! Checked thread spawn/join and a scoped-threads equivalent.
//!
//! Inside a [`crate::model`] closure, `spawn` creates a *logical* thread:
//! it runs on its own OS thread but only when the exploration scheduler
//! hands it the baton, and `join` is an instrumented operation that is
//! schedulable once the target finished. Outside a model the same API
//! degrades to plain `std::thread`, so production code compiled with
//! `--cfg sdt_check` behaves normally except under model tests.
//!
//! [`scope`] mirrors `std::thread::scope`: borrowed spawns, every thread
//! joined before the call returns — on the panic path too, which is what
//! makes the internal lifetime erasure sound (see `Scope::spawn`).

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use crate::rt::{maybe_current, Op};

/// One-shot result cell a spawned closure fills for its joiner.
struct Slot<T>(Mutex<Option<T>>);

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot(Mutex::new(None))
    }

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

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    Model { tid: usize, value: Arc<Slot<T>> },
}

/// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    /// Wait for the thread. Inside a model this is a scheduling decision
    /// point, enabled once the target has finished.
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Inner::Std(h) => h.join(),
            Inner::Model { tid, value } => {
                let Some((rt, me)) = maybe_current() else {
                    panic!(
                        "joining a model thread from outside its model — handles must \
                         not escape the model closure"
                    );
                };
                let _ = rt.yield_point(me, Op::Join(tid));
                if let Some(h) = rt.take_os_handle(tid) {
                    let _ = h.join();
                }
                match value.take() {
                    Some(v) => Ok(v),
                    // A panicking model thread fails the whole execution,
                    // so a completed join always has a value.
                    None => unreachable!("joined model thread finished without a result"),
                }
            }
        }
    }
}

/// Spawn a thread. A model decision point when called inside a model;
/// plain `std::thread::spawn` otherwise.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match maybe_current() {
        Some((rt, _me)) => {
            let value = Arc::new(Slot::new());
            let v2 = Arc::clone(&value);
            let tid = rt.spawn_thread(Box::new(move || v2.put(f())));
            JoinHandle(Inner::Model { tid, value })
        }
        None => JoinHandle(Inner::Std(std::thread::spawn(f))),
    }
}

// ----------------------------------------------------------------- scope

/// Where one scoped thread stands; shared between the `Scope` registry
/// (which must reap stragglers) and its `ScopedJoinHandle` (which may
/// claim the join first).
enum SlotState {
    /// Logical model thread, not yet joined.
    ModelPending(usize),
    /// Raw fallback OS thread, not yet joined.
    OsPending(std::thread::JoinHandle<()>),
    Joined,
}

struct SlotCell {
    state: Mutex<SlotState>,
}

impl SlotCell {
    fn claim(&self) -> SlotState {
        let mut g = match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        std::mem::replace(&mut *g, SlotState::Joined)
    }
}

/// A scope for spawning borrowing threads; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    slots: Mutex<Vec<Arc<SlotCell>>>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// Handle to a scoped thread; mirrors `std::thread::ScopedJoinHandle`.
pub struct ScopedJoinHandle<'scope, T> {
    cell: Arc<SlotCell>,
    value: Arc<Slot<T>>,
    _scope: PhantomData<&'scope ()>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the thread; a model decision point inside a model.
    pub fn join(self) -> std::thread::Result<T> {
        match self.cell.claim() {
            SlotState::ModelPending(tid) => {
                let Some((rt, me)) = maybe_current() else {
                    panic!("joining a model thread from outside its model");
                };
                let _ = rt.yield_point(me, Op::Join(tid));
                if let Some(h) = rt.take_os_handle(tid) {
                    let _ = h.join();
                }
                match self.value.take() {
                    Some(v) => Ok(v),
                    None => unreachable!("joined model thread finished without a result"),
                }
            }
            SlotState::OsPending(h) => match h.join() {
                Ok(()) => match self.value.take() {
                    Some(v) => Ok(v),
                    None => unreachable!("fallback scoped thread finished without a result"),
                },
                Err(p) => Err(p),
            },
            SlotState::Joined => unreachable!("ScopedJoinHandle joined twice"),
        }
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a thread that may borrow from the enclosing scope.
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let value: Arc<Slot<T>> = Arc::new(Slot::new());
        let v2 = Arc::clone(&value);
        let body: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || v2.put(f()));
        // SAFETY: `scope()` joins every spawned thread before returning on
        // both the normal and the panic path (and on a model abort it
        // force-joins inside `scope()`'s own frame), so the closure — and
        // every `'scope`/`'env` borrow inside it — is dead before the
        // borrowed data can be. This is the same argument that makes
        // `std::thread::scope` sound; the erasure only widens the bound
        // the OS thread API demands.
        let body: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(body)
        };
        let state = match maybe_current() {
            Some((rt, _me)) => SlotState::ModelPending(rt.spawn_thread(body)),
            None => SlotState::OsPending(std::thread::spawn(body)),
        };
        let cell = Arc::new(SlotCell { state: Mutex::new(state) });
        match self.slots.lock() {
            Ok(mut g) => g.push(Arc::clone(&cell)),
            Err(p) => p.into_inner().push(Arc::clone(&cell)),
        }
        ScopedJoinHandle { cell, value, _scope: PhantomData }
    }

    fn cells(&self) -> Vec<Arc<SlotCell>> {
        match self.slots.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Join every thread the scope body left unjoined, through the normal
    /// instrumented path. Returns the first fallback-thread panic payload.
    fn join_unjoined(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut first_panic = None;
        for cell in self.cells() {
            match cell.claim() {
                SlotState::ModelPending(tid) => {
                    if let Some((rt, me)) = maybe_current() {
                        let _ = rt.yield_point(me, Op::Join(tid));
                        if let Some(h) = rt.take_os_handle(tid) {
                            let _ = h.join();
                        }
                    }
                }
                SlotState::OsPending(h) => {
                    if let Err(p) = h.join() {
                        first_panic.get_or_insert(p);
                    }
                }
                SlotState::Joined => {}
            }
        }
        first_panic
    }

    /// Last-resort reap on the unwind path: raw OS joins, no yield points.
    /// Model threads have already been woken by the recorded failure and
    /// exit via their abort unwinds.
    fn force_join(&self) {
        for cell in self.cells() {
            match cell.claim() {
                SlotState::ModelPending(tid) => {
                    if let Some((rt, _me)) = maybe_current() {
                        if let Some(h) = rt.take_os_handle(tid) {
                            let _ = h.join();
                        }
                    }
                }
                SlotState::OsPending(h) => {
                    let _ = h.join();
                }
                SlotState::Joined => {}
            }
        }
    }
}

/// Scoped threads: like `std::thread::scope`, every spawned thread is
/// joined before this returns, so closures may borrow the environment.
/// Inside a model the spawns and joins are exploration decision points.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let sc = Scope { slots: Mutex::new(Vec::new()), scope: PhantomData, env: PhantomData };
    match catch_unwind(AssertUnwindSafe(|| f(&sc))) {
        Ok(out) => {
            // Joining can itself unwind (the execution may fail while we
            // wait); never leave the frame with live borrowing threads.
            match catch_unwind(AssertUnwindSafe(|| sc.join_unjoined())) {
                Ok(None) => out,
                Ok(Some(worker_panic)) => {
                    sc.force_join();
                    resume_unwind(worker_panic)
                }
                Err(p) => {
                    sc.force_join();
                    resume_unwind(p)
                }
            }
        }
        Err(p) => {
            if let Some((rt, _me)) = maybe_current() {
                // Wake every parked model thread so force_join can reap
                // them while the scope's borrowed data is still alive.
                rt.fail_scope_panic(&*p);
            }
            sc.force_join();
            resume_unwind(p)
        }
    }
}
