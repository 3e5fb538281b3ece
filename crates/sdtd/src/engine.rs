//! The engine loop, extracted from the daemon so it is scheduler-agnostic:
//! pure control flow over two small traits, with no I/O, no clock, and no
//! direct thread use. The daemon drives it with a real mpsc receiver and
//! the slice controller; the model tests (`tests/model.rs`) drive it with
//! a scripted [`WorkSource`] and a recording host, running it once per
//! answer sequence an mpsc queue can give — every way producers' sends
//! can meet the drain/batch/persist/reply sequence.
//!
//! The loop owns the ordering guarantees the daemon advertises:
//!
//! * **FCFS per connection** — items are popped strictly in queue order
//!   and batch coalescing only groups a *prefix* of consecutive batchable
//!   items, so replies map back to requests in arrival order;
//! * **persist-before-reply** — [`EngineHost::persist_if_dirty`] runs
//!   before any of a group's replies are delivered, so a client that saw
//!   an `ok` knows the state that produced it is durable;
//! * **terminal replies on shutdown** — once the shutdown item is
//!   answered, everything still queued (and anything already in the
//!   channel) is handed to [`EngineHost::reject_undelivered`] instead of
//!   being dropped, so no client hangs waiting on a reply that will never
//!   come.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};

/// Non-blocking pull from a work source.
pub enum Poll<I> {
    /// An item was queued.
    Item(I),
    /// Nothing queued right now, but producers may still send.
    Empty,
    /// Nothing queued and every producer is gone.
    Closed,
}

/// Where work items come from. The engine blocks on [`next_blocking`] when
/// idle and drains opportunistically with [`poll`].
///
/// [`next_blocking`]: WorkSource::next_blocking
/// [`poll`]: WorkSource::poll
pub trait WorkSource<I> {
    /// Block until an item arrives; `None` when every producer is gone.
    fn next_blocking(&self) -> Option<I>;
    /// Non-blocking pull.
    fn poll(&self) -> Poll<I>;
}

impl<I> WorkSource<I> for Receiver<I> {
    fn next_blocking(&self) -> Option<I> {
        self.recv().ok()
    }

    fn poll(&self) -> Poll<I> {
        match self.try_recv() {
            Ok(item) => Poll::Item(item),
            Err(TryRecvError::Empty) => Poll::Empty,
            Err(TryRecvError::Disconnected) => Poll::Closed,
        }
    }
}

/// What the engine does to items: classification, application, durability,
/// and reply delivery. Implemented by the daemon's `Engine` (real slices,
/// real snapshot file, real sockets) and by the model tests' recording
/// host (invariant assertions).
pub trait EngineHost {
    /// One queued work item.
    type Item;
    /// One computed reply, produced by `apply_*` and consumed by
    /// [`deliver`](EngineHost::deliver).
    type Reply;

    /// May this item ride in a coalesced lifecycle run?
    fn batchable(&self, item: &Self::Item) -> bool;
    /// Does this item stop the engine after its reply?
    fn is_shutdown(&self, item: &Self::Item) -> bool;
    /// Apply one coalesced run of batchable items; one reply per item, in
    /// item order.
    fn apply_run(&mut self, run: &[Self::Item]) -> Vec<Self::Reply>;
    /// Apply one non-batchable item.
    fn apply_one(&mut self, item: &Self::Item) -> Self::Reply;
    /// Make any state the group mutated durable. Always called before the
    /// group's replies are delivered — this call site *is* the
    /// snapshot-before-reply contract.
    fn persist_if_dirty(&mut self);
    /// Hand a reply back to the item's originator.
    fn deliver(&mut self, item: &Self::Item, reply: Self::Reply);
    /// The engine is shutting down and will never apply this queued item:
    /// give its originator a terminal error reply.
    fn reject_undelivered(&mut self, item: Self::Item);
    /// One blocking-drain cycle started (metrics hook).
    fn note_drain_cycle(&mut self);
}

/// Persist-then-respond for one applied group.
fn finish<H: EngineHost>(host: &mut H, items: &[H::Item], replies: Vec<H::Reply>) {
    host.persist_if_dirty();
    for (item, reply) in items.iter().zip(replies) {
        host.deliver(item, reply);
    }
}

/// Serve until a shutdown item is answered or every producer disconnects.
///
/// Each cycle blocks for one item, drains up to `drain_cap` more without
/// blocking, then walks the backlog in order: runs of consecutive
/// batchable items (at most `batch_max` long) become one
/// [`EngineHost::apply_run`]; everything else is applied alone. After a
/// shutdown item's reply, the remaining backlog and channel contents get
/// terminal rejections rather than silence.
pub fn engine_loop<H, S>(host: &mut H, source: &S, batch_max: usize, drain_cap: usize)
where
    H: EngineHost,
    S: WorkSource<H::Item>,
{
    let mut pending: VecDeque<H::Item> = VecDeque::new();
    'serve: loop {
        if pending.is_empty() {
            match source.next_blocking() {
                Some(item) => pending.push_back(item),
                None => break, // every producer hung up
            }
        }
        while pending.len() < drain_cap {
            match source.poll() {
                Poll::Item(item) => pending.push_back(item),
                Poll::Empty | Poll::Closed => break,
            }
        }
        host.note_drain_cycle();
        while let Some(item) = pending.pop_front() {
            if host.batchable(&item) {
                let mut group = vec![item];
                while group.len() < batch_max
                    && pending.front().is_some_and(|n| host.batchable(n))
                {
                    let Some(next) = pending.pop_front() else { break };
                    group.push(next);
                }
                let replies = host.apply_run(&group);
                finish(host, &group, replies);
            } else {
                let shutdown = host.is_shutdown(&item);
                let reply = host.apply_one(&item);
                finish(host, std::slice::from_ref(&item), vec![reply]);
                if shutdown {
                    // Nothing past this point will be applied; every
                    // queued request still deserves a terminal reply.
                    for rest in pending.drain(..) {
                        host.reject_undelivered(rest);
                    }
                    while let Poll::Item(rest) = source.poll() {
                        host.reject_undelivered(rest);
                    }
                    break 'serve;
                }
            }
        }
    }
}
