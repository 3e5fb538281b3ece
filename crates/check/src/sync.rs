//! Checked synchronization primitives: mpsc channel, integer atomics.
//!
//! Each primitive wraps its `std` counterpart and inserts a scheduler
//! yield point before every operation. Construction decides
//! whether an object participates in checking: an object created **inside**
//! a [`crate::model`] closure registers with the runtime and its operations
//! become exploration decision points; one created outside behaves exactly
//! like `std` (so a whole test binary can be compiled with `--cfg
//! sdt_check` and only the model tests pay the instrumentation).
//!
//! Because model objects are registered in creation order and model code
//! must be deterministic, the same schedule prefix always assigns the same
//! ids — which is what makes decision traces replayable. Consequence:
//! **create shared state inside the model closure**, not outside it; an
//! outside object silently opts out of checking.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::rt::{maybe_current, Op, Outcome};

// --------------------------------------------------------------- channel

/// Multi-producer single-consumer FIFO, mirroring `std::sync::mpsc`.
pub mod mpsc {
    use super::{maybe_current, Arc, Op, Outcome, VecDeque};

    struct ChanInner<T> {
        queue: VecDeque<T>,
        /// Live `Sender` clones. The model path tracks enabledness in the
        /// runtime's own counters; this field is what gives the
        /// *unregistered* path (production code in a `--cfg sdt_check`
        /// build, outside any model run) real disconnect semantics.
        senders: usize,
        /// Whether the `Receiver` is still alive (unregistered sends fail
        /// once it is gone, like `std::sync::mpsc`).
        rx_alive: bool,
    }

    struct ChanData<T> {
        inner: std::sync::Mutex<ChanInner<T>>,
        /// Wakes an unregistered blocking `recv` on push or disconnect.
        cv: std::sync::Condvar,
    }

    impl<T> ChanData<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, ChanInner<T>> {
            match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }

        fn push(&self, value: T) {
            self.lock().queue.push_back(value);
            self.cv.notify_one();
        }

        fn pop(&self) -> Option<T> {
            self.lock().queue.pop_front()
        }
    }

    /// Sending half. Cloning adds a producer; dropping the last sender
    /// disconnects the channel.
    pub struct Sender<T> {
        id: Option<usize>,
        data: Arc<ChanData<T>>,
    }

    /// Receiving half (single consumer, not cloneable).
    pub struct Receiver<T> {
        id: Option<usize>,
        data: Arc<ChanData<T>>,
    }

    /// The receiver disconnected before this value could be delivered.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// All senders disconnected and the queue is drained.
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub struct RecvError;

    /// Outcome of a non-blocking receive attempt.
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum TryRecvError {
        /// Nothing queued, but senders are still alive.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a closed channel")
        }
    }

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and closed channel")
        }
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and closed channel")
                }
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}

    /// Create a connected sender/receiver pair.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let id = maybe_current().map(|(rt, _)| rt.register_channel());
        let data = Arc::new(ChanData {
            inner: std::sync::Mutex::new(ChanInner {
                queue: VecDeque::new(),
                senders: 1,
                rx_alive: true,
            }),
            cv: std::sync::Condvar::new(),
        });
        (Sender { id, data: Arc::clone(&data) }, Receiver { id, data })
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if let (Some(id), Some((rt, me))) = (self.id, maybe_current()) {
                return match rt.yield_point(me, Op::Send(id)) {
                    Outcome::Item => {
                        self.data.push(value);
                        Ok(())
                    }
                    _ => Err(SendError(value)),
                };
            }
            // Unregistered (production code in a `--cfg sdt_check` build,
            // outside any model run): full std semantics — fail once the
            // receiver is gone, wake a blocked `recv` otherwise.
            let mut inner = self.data.lock();
            if !inner.rx_alive {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.data.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.data.lock().senders += 1;
            if let (Some(id), Some((rt, _))) = (self.id, maybe_current()) {
                // Not a yield point: adding a sender while at least one is
                // alive cannot change any thread's enabledness.
                rt.sender_cloned(id);
            }
            Sender { id: self.id, data: Arc::clone(&self.data) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            {
                let mut inner = self.data.lock();
                inner.senders -= 1;
                if inner.senders == 0 {
                    // Unregistered blocking `recv`s must wake to observe
                    // the disconnect.
                    self.data.cv.notify_all();
                }
            }
            if let (Some(id), Some((rt, me))) = (self.id, maybe_current()) {
                if std::thread::panicking() {
                    rt.effect_during_unwind(Op::CloseTx(id));
                } else {
                    // The last sender dropping enables a parked `recv` to
                    // resolve as disconnected — a real decision point.
                    let _ = rt.yield_point(me, Op::CloseTx(id));
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive: schedulable once a value is queued or all
        /// senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            if let (Some(id), Some((rt, me))) = (self.id, maybe_current()) {
                return match rt.yield_point(me, Op::Recv(id)) {
                    Outcome::Item => match self.data.pop() {
                        Some(v) => Ok(v),
                        None => unreachable!("model queue length said non-empty"),
                    },
                    _ => Err(RecvError),
                };
            }
            if maybe_current().is_some() {
                // A model thread on a channel created outside the model:
                // never block for real while holding the baton — that
                // would wedge the whole exploration.
                return self.data.pop().ok_or(RecvError);
            }
            // Unregistered, outside any model: real blocking semantics,
            // woken by `send` and by the last `Sender` dropping.
            let mut inner = self.data.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = match self.data.cv.wait(inner) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if let (Some(id), Some((rt, me))) = (self.id, maybe_current()) {
                return match rt.yield_point(me, Op::TryRecv(id)) {
                    Outcome::Item => match self.data.pop() {
                        Some(v) => Ok(v),
                        None => unreachable!("model queue length said non-empty"),
                    },
                    Outcome::Empty => Err(TryRecvError::Empty),
                    _ => Err(TryRecvError::Disconnected),
                };
            }
            let mut inner = self.data.lock();
            match inner.queue.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.data.lock().rx_alive = false;
            if let (Some(id), Some((rt, me))) = (self.id, maybe_current()) {
                if std::thread::panicking() {
                    rt.effect_during_unwind(Op::CloseRx(id));
                } else {
                    let _ = rt.yield_point(me, Op::CloseRx(id));
                }
            }
        }
    }
}

// --------------------------------------------------------------- atomics

/// Checked atomics. Inside a model every load/store/RMW is a decision
/// point; the values themselves live in real `std` atomics so the data
/// path is identical to production. The `Ordering` argument is accepted
/// for API fidelity but the model serializes everything (sequentially
/// consistent by construction) — see the crate docs for why that is the
/// right coverage for schedule invariants.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::maybe_current;
    use crate::rt::Op;

    macro_rules! checked_int_atomic {
        ($name:ident, $std:ident, $prim:ty) => {
            pub struct $name {
                id: Option<usize>,
                v: std::sync::atomic::$std,
            }

            impl $name {
                pub fn new(value: $prim) -> $name {
                    let id = maybe_current().map(|(rt, _)| rt.register_atomic());
                    $name { id, v: std::sync::atomic::$std::new(value) }
                }

                fn hit(&self, write: bool) {
                    if let (Some(id), Some((rt, me))) = (self.id, maybe_current()) {
                        let op = if write { Op::AtomicWrite(id) } else { Op::AtomicLoad(id) };
                        let _ = rt.yield_point(me, op);
                    }
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    self.hit(false);
                    self.v.load(order)
                }

                pub fn store(&self, value: $prim, order: Ordering) {
                    self.hit(true);
                    self.v.store(value, order);
                }

                pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                    self.hit(true);
                    self.v.fetch_add(value, order)
                }
            }

            impl Default for $name {
                fn default() -> $name {
                    $name::new(0)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "{}({})", stringify!($name), self.v.load(Ordering::Relaxed))
                }
            }
        };
    }

    checked_int_atomic!(AtomicU64, AtomicU64, u64);
    checked_int_atomic!(AtomicUsize, AtomicUsize, usize);
}
