//! Checked synchronization primitives: the mpsc channel.
//!
//! Each operation is a scheduler yield point, and a channel exists only
//! inside a [`crate::model`] closure: creating or using one outside a model
//! panics by name. Model objects register with the runtime in creation
//! order, and model code must be deterministic, so the same schedule
//! prefix always assigns the same ids — which is what makes decision
//! traces replayable.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::rt::{current, maybe_current, Op, Outcome};

// --------------------------------------------------------------- channel

/// Multi-producer single-consumer FIFO, mirroring `std::sync::mpsc`.
pub mod mpsc {
    use super::{current, maybe_current, Arc, Mutex, Op, Outcome, VecDeque};

    /// The queued values. Which operations are enabled (queue length, live
    /// senders, receiver alive) is the runtime's `ChanSt`; the queue only
    /// carries the data, so it is touched by the one thread holding the
    /// baton.
    type Queue<T> = Arc<Mutex<VecDeque<T>>>;

    fn push<T>(q: &Queue<T>, value: T) {
        match q.lock() {
            Ok(mut g) => g.push_back(value),
            Err(p) => p.into_inner().push_back(value),
        }
    }

    fn pop<T>(q: &Queue<T>) -> T {
        let v = match q.lock() {
            Ok(mut g) => g.pop_front(),
            Err(p) => p.into_inner().pop_front(),
        };
        match v {
            Some(v) => v,
            None => unreachable!("model queue length said non-empty"),
        }
    }

    /// Sending half. Cloning adds a producer; dropping the last sender
    /// disconnects the channel.
    pub struct Sender<T> {
        id: usize,
        data: Queue<T>,
    }

    /// Receiving half (single consumer, not cloneable).
    pub struct Receiver<T> {
        id: usize,
        data: Queue<T>,
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

    /// Create a connected sender/receiver pair inside a model.
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let id = current("mpsc::channel").0.register_channel();
        let data = Queue::default();
        (Sender { id, data: Arc::clone(&data) }, Receiver { id, data })
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let (rt, me) = current("Sender::send");
            match rt.yield_point(me, Op::Send(self.id)) {
                Outcome::Item => {
                    push(&self.data, value);
                    Ok(())
                }
                _ => Err(SendError(value)),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            // Not a yield point: adding a sender while at least one is
            // alive cannot change any thread's enabledness.
            current("Sender::clone").0.sender_cloned(self.id);
            Sender { id: self.id, data: Arc::clone(&self.data) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let Some((rt, me)) = maybe_current() else { return };
            if std::thread::panicking() {
                rt.effect_during_unwind(Op::CloseTx(self.id));
            } else {
                // The last sender dropping enables a parked `recv` to
                // resolve as disconnected — a real decision point.
                let _ = rt.yield_point(me, Op::CloseTx(self.id));
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive: schedulable once a value is queued or all
        /// senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let (rt, me) = current("Receiver::recv");
            match rt.yield_point(me, Op::Recv(self.id)) {
                Outcome::Item => Ok(pop(&self.data)),
                _ => Err(RecvError),
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let (rt, me) = current("Receiver::try_recv");
            match rt.yield_point(me, Op::TryRecv(self.id)) {
                Outcome::Item => Ok(pop(&self.data)),
                Outcome::Empty => Err(TryRecvError::Empty),
                _ => Err(TryRecvError::Disconnected),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let Some((rt, me)) = maybe_current() else { return };
            if std::thread::panicking() {
                rt.effect_during_unwind(Op::CloseRx(self.id));
            } else {
                let _ = rt.yield_point(me, Op::CloseRx(self.id));
            }
        }
    }
}
