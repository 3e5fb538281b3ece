//! Invariants of the engine loop (`sdt_sdtd::engine::engine_loop`) under
//! **every** answer sequence its queue can give. The loop runs on one
//! thread and sees the producers only through [`WorkSource`], so a
//! scripted source makes each answer a choice point and a depth-first
//! search over the choice trace runs the loop once per sequence a std
//! `mpsc` queue could produce: `next_blocking` hands out the next item of
//! any producer that may send now (each in its own order; one may start
//! only after another's last item, a `join` barrier), or `None` once all
//! are sent; `poll` may also answer `Empty`, and once all are sent
//! `Closed`, which then stays.
//!
//! The daemon's `Engine` implements `EngineHost` against real slices and
//! sockets; here a recording host asserts the contract at each step:
//!
//! - **snapshot-before-reply**: a mutation's `ok` is delivered only after
//!   a persist covered it (the crash-safety linchpin the kill-9 test can
//!   only sample);
//! - **batched == sequential multiset**: coalescing runs never lose,
//!   duplicate, or reorder work;
//! - **FCFS per connection**: replies come back in request order;
//! - **terminal replies on shutdown**: each item handed out gets exactly
//!   one outcome, applied or rejected, and the engine stops only after a
//!   non-item answer — after its shutdown reply it asks the queue again,
//!   so nothing sent meanwhile waits for a reply that never comes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use sdt_sdtd::engine::{engine_loop, EngineHost, Poll, WorkSource};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Batchable state mutation (the daemon's admit/migrate/destroy).
    Mutate,
    /// Read-only request, applied alone.
    Read,
    /// Stops the engine after its reply.
    Shutdown,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Item {
    conn: u8,
    seq: u32,
    kind: Kind,
}

/// What happened to one request, in per-connection delivery order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Replied(u32),
    Rejected(u32),
}

impl Outcome {
    fn seq(self) -> u32 {
        match self {
            Outcome::Replied(s) | Outcome::Rejected(s) => s,
        }
    }
}

/// Recording host: applies mutations to an in-memory log, models the
/// snapshot as a durable prefix length, and asserts the contract on every
/// delivery.
#[derive(Default)]
struct RecordingHost {
    /// Mutations applied, in application order.
    applied: Vec<(u8, u32)>,
    /// How many of `applied` the last persist made durable.
    durable: usize,
    dirty: bool,
    /// Persists that wrote something.
    persists: usize,
    /// Terminal outcomes per connection, in delivery order.
    outcomes: BTreeMap<u8, Vec<Outcome>>,
    /// Sizes of the coalesced runs that reached apply_run.
    run_sizes: Vec<usize>,
    rejected: usize,
    drain_cycles: usize,
    /// Every answer the source gave, in order: the item handed out, or
    /// `None` for `None`/`Empty`/`Closed`. Shared with the source.
    answers: Rc<RefCell<Vec<Option<Item>>>>,
    /// How many answers the source had given when the shutdown's reply
    /// went out.
    shutdown_replied_at: Option<usize>,
}

impl EngineHost for RecordingHost {
    type Item = Item;
    type Reply = ();

    fn batchable(&self, item: &Item) -> bool {
        item.kind == Kind::Mutate
    }

    fn is_shutdown(&self, item: &Item) -> bool {
        item.kind == Kind::Shutdown
    }

    fn apply_run(&mut self, run: &[Item]) -> Vec<()> {
        assert!(!run.is_empty());
        assert!(run.iter().all(|i| i.kind == Kind::Mutate), "only mutations coalesce");
        self.run_sizes.push(run.len());
        for item in run {
            self.applied.push((item.conn, item.seq));
        }
        self.dirty = true;
        vec![(); run.len()]
    }

    fn apply_one(&mut self, item: &Item) {
        assert_ne!(item.kind, Kind::Mutate, "mutations go through apply_run");
    }

    fn persist_if_dirty(&mut self) {
        if self.dirty {
            self.durable = self.applied.len();
            self.dirty = false;
            self.persists += 1;
        }
    }

    fn deliver(&mut self, item: &Item, (): ()) {
        if item.kind == Kind::Mutate {
            // Snapshot-before-reply: the mutation acked here must already
            // be inside the durable prefix.
            let pos = self.applied.iter().position(|&e| e == (item.conn, item.seq));
            assert!(
                pos.is_some_and(|p| p < self.durable),
                "reply for {item:?} delivered before the snapshot covered it"
            );
        }
        if item.kind == Kind::Shutdown {
            self.shutdown_replied_at = Some(self.answers.borrow().len());
        }
        self.outcomes.entry(item.conn).or_default().push(Outcome::Replied(item.seq));
    }

    fn reject_undelivered(&mut self, item: Item) {
        assert!(
            !self.applied.contains(&(item.conn, item.seq)),
            "an applied mutation must never be rejected"
        );
        self.outcomes.entry(item.conn).or_default().push(Outcome::Rejected(item.seq));
        self.rejected += 1;
    }

    fn note_drain_cycle(&mut self) {
        self.drain_cycles += 1;
    }
}

impl RecordingHost {
    /// Per-connection outcomes arrive in strictly increasing seq order.
    fn assert_fcfs(&self) {
        for (conn, outs) in &self.outcomes {
            let seqs: Vec<u32> = outs.iter().map(|o| o.seq()).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(seqs, sorted, "connection {conn} replies out of FCFS order");
        }
    }

    fn terminal_count(&self) -> usize {
        self.outcomes.values().map(Vec::len).sum()
    }

    /// The whole-run post-conditions every schedule must meet.
    fn assert_run_complete(&self) {
        let answers = self.answers.borrow();
        let mut handed: Vec<(u8, u32)> = answers.iter().flatten().map(|i| (i.conn, i.seq)).collect();
        let mut answered: Vec<(u8, u32)> = self
            .outcomes
            .iter()
            .flat_map(|(&conn, outs)| outs.iter().map(move |o| (conn, o.seq())))
            .collect();
        handed.sort_unstable();
        answered.sort_unstable();
        assert_eq!(answered, handed, "every handed-out item gets exactly one terminal outcome");
        assert!(
            matches!(answers.last(), Some(None)),
            "the engine stopped right after taking an item: {answers:?}"
        );
        assert!(
            self.shutdown_replied_at.is_none_or(|at| answers.len() > at),
            "after its shutdown reply the engine never asked the queue again"
        );
    }
}

/// One schedule's choice points: replayed from `prefix`, then the first
/// option at every point past it.
struct Choices {
    prefix: Vec<usize>,
    /// (option taken, options offered) at each point, in order.
    taken: RefCell<Vec<(usize, usize)>>,
}

impl Choices {
    fn choose(&self, options: usize) -> usize {
        let mut taken = self.taken.borrow_mut();
        let pick = self.prefix.get(taken.len()).copied().unwrap_or(0);
        assert!(pick < options, "a replayed schedule offered fewer options");
        taken.push((pick, options));
        pick
    }
}

/// Run `schedule` once per distinct choice trace, depth first, and return
/// how many ran. A failing schedule prints its choices before the panic
/// goes on.
fn explore(mut schedule: impl FnMut(&Choices)) -> usize {
    let mut prefix = Vec::new();
    let mut count = 0;
    loop {
        let choices = Choices { prefix, taken: RefCell::new(Vec::new()) };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| schedule(&choices))) {
            let picks: Vec<usize> = choices.taken.borrow().iter().map(|&(p, _)| p).collect();
            eprintln!("schedule {count} failed after choices {picks:?}");
            resume_unwind(panic);
        }
        count += 1;
        // Backtrack to the last point with an option not yet taken.
        let mut trace = choices.taken.into_inner();
        while trace.last().is_some_and(|&(pick, options)| pick + 1 == options) {
            trace.pop();
        }
        let Some(last) = trace.last_mut() else { return count };
        last.0 += 1;
        prefix = trace.into_iter().map(|(pick, _)| pick).collect();
    }
}

/// One producer thread's sends, in its order.
struct Producer {
    items: Vec<Item>,
    /// Sends only after this producer's last item (a `join` barrier).
    after: Option<usize>,
}

fn producer(items: &[(u8, u32, Kind)]) -> Producer {
    let items = items.iter().map(|&(conn, seq, kind)| Item { conn, seq, kind }).collect();
    Producer { items, after: None }
}

/// A queue that answers each call with any answer a std `mpsc` receiver
/// could give, the choice being made by the search.
struct ScriptedSource<'a> {
    producers: &'a [Producer],
    choices: &'a Choices,
    /// Items handed out so far, per producer.
    sent: RefCell<Vec<usize>>,
    closed: Cell<bool>,
    answers: Rc<RefCell<Vec<Option<Item>>>>,
}

impl ScriptedSource<'_> {
    /// Producers with an item left that may send it now.
    fn ready(&self) -> Vec<usize> {
        let sent = self.sent.borrow();
        let done = |p: usize| sent[p] == self.producers[p].items.len();
        (0..self.producers.len())
            .filter(|&p| !done(p) && self.producers[p].after.is_none_or(done))
            .collect()
    }

    fn take(&self, p: usize) -> Item {
        let mut sent = self.sent.borrow_mut();
        sent[p] += 1;
        self.producers[p].items[sent[p] - 1]
    }
}

impl WorkSource<Item> for ScriptedSource<'_> {
    fn next_blocking(&self) -> Option<Item> {
        let ready = self.ready();
        let item = (!ready.is_empty()).then(|| self.take(ready[self.choices.choose(ready.len())]));
        self.answers.borrow_mut().push(item);
        item
    }

    fn poll(&self) -> Poll<Item> {
        let ready = self.ready();
        let answer = match ready.len() {
            0 if self.closed.get() || self.choices.choose(2) == 1 => Poll::Closed,
            0 => Poll::Empty,
            n => match self.choices.choose(1 + n) {
                0 => Poll::Empty,
                k => Poll::Item(self.take(ready[k - 1])),
            },
        };
        self.closed.set(matches!(answer, Poll::Closed));
        self.answers.borrow_mut().push(if let Poll::Item(i) = answer { Some(i) } else { None });
        answer
    }
}

/// Run the engine once under `choices` and check FCFS and the whole-run
/// post-conditions; the host is returned for the scenario's own asserts.
fn run_engine(
    producers: &[Producer],
    choices: &Choices,
    batch_max: usize,
    drain_cap: usize,
) -> RecordingHost {
    let mut host = RecordingHost::default();
    let source = ScriptedSource {
        producers,
        choices,
        sent: RefCell::new(vec![0; producers.len()]),
        closed: Cell::new(false),
        answers: Rc::clone(&host.answers),
    };
    engine_loop(&mut host, &source, batch_max, drain_cap);
    host.assert_fcfs();
    host.assert_run_complete();
    host
}

const M: Kind = Kind::Mutate;
const R: Kind = Kind::Read;
const S: Kind = Kind::Shutdown;

/// Two connections racing mutations (plus one read) against the engine:
/// on every schedule the applied multiset equals exactly what was sent,
/// per-connection FCFS holds, and every mutation ack happens only after
/// its snapshot — regardless of how the drain slices the backlog into
/// batches.
#[test]
fn engine_batching_preserves_multiset_fcfs_and_durability() {
    let producers = [producer(&[(1, 1, M), (1, 2, M)]), producer(&[(2, 1, M), (2, 2, R)])];
    let schedules = explore(|choices| {
        let host = run_engine(&producers, choices, 2, 4);

        // Batched == sequential multiset: nothing lost, duplicated,
        // or invented, however the runs were coalesced.
        let mut applied = host.applied.clone();
        applied.sort_unstable();
        assert_eq!(applied, vec![(1, 1), (1, 2), (2, 1)]);
        assert!(host.run_sizes.iter().all(|&s| (1..=2).contains(&s)));
        assert_eq!(host.terminal_count(), 4, "every request is answered");
        assert_eq!(host.rejected, 0);
        // All acks delivered => the final persist covered everything.
        assert_eq!(host.durable, 3);
    });
    // The 6 interleavings of the two producers, times 15: the 8 ways to
    // cut four items into drain cycles, where a last cycle the cap did
    // not end (7 of the 8) ends on a poll answering `Empty` or `Closed`.
    assert_eq!(schedules, 90);
}

/// Shutdown ordered *after* all mutations (producer join barrier): every
/// request — applied or not — gets exactly one terminal outcome, and the
/// engine stops.
#[test]
fn shutdown_after_backlog_answers_everything() {
    let mut shutdown = producer(&[(9, 1, S)]);
    shutdown.after = Some(0);
    let producers = [producer(&[(1, 1, M), (1, 2, M)]), shutdown];
    let schedules = explore(|choices| {
        let host = run_engine(&producers, choices, 2, 4);
        assert_eq!(host.terminal_count(), 3, "every request is answered, shutdown included");
        assert_eq!(host.rejected, 0, "nothing is queued behind the last item");
    });
    // One order (the barrier fixes it); 4 ways to cut it into drain
    // cycles, times `Empty`/`Closed` on the polls after the last send:
    // 3 ways for the drain poll and the post-shutdown poll together.
    assert_eq!(schedules, 12);
}

/// Shutdown racing a two-request mutation producer: rejected items are never
/// applied, per-connection order still holds, and across the exploration
/// at least one schedule actually exercises the reject path (a queued
/// mutation stranded behind the shutdown).
#[test]
fn shutdown_racing_mutations_never_drops_a_queued_request() {
    let producers = [producer(&[(1, 1, M), (1, 2, M)]), producer(&[(9, 1, S)])];
    let mut reject_schedules = 0;
    let schedules = explore(|choices| {
        // On schedules where shutdown wins the race the engine stops
        // before a producer's item is handed out; that send fails, exactly
        // like a reader thread's send after the real engine stops.
        let host = run_engine(&producers, choices, 2, 4);

        // The shutdown itself is always answered; each mutation the
        // engine pulled is either applied+acked or rejected — never
        // silently dropped while sitting in the queue.
        assert!(host.outcomes.get(&9).is_some_and(|o| o == &[Outcome::Replied(1)]));
        assert_eq!(host.applied.len() + host.rejected + 1, host.terminal_count());
        if host.rejected > 0 {
            reject_schedules += 1;
        }
    });
    // The shutdown may come out before, between or after the two
    // mutations; after it, the engine polls once more and everything it
    // still gets is rejected.
    assert_eq!(schedules, 34);
    assert_eq!(reject_schedules, 19, "a mutation stranded behind the shutdown is rejected");
}

/// A backlog larger than `drain_cap`: each cycle takes at most two
/// items, so no run reaches `batch_max = 3` and six mutations need at
/// least three cycles — still with every invariant on every schedule.
#[test]
fn drain_cap_below_the_backlog_splits_it_across_cycles() {
    let producers = [
        producer(&[(1, 1, M), (1, 2, M), (1, 3, M), (1, 4, M)]),
        producer(&[(2, 1, M), (2, 2, M)]),
    ];
    let mut largest_run = 0;
    let schedules = explore(|choices| {
        let host = run_engine(&producers, choices, 3, 2);
        let mut applied = host.applied.clone();
        applied.sort_unstable();
        assert_eq!(applied, [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)]);
        assert!(host.run_sizes.iter().all(|&s| s <= 2), "a run outgrew the drain cap");
        assert!(host.drain_cycles >= 3, "six items fit in {} cycles", host.drain_cycles);
        assert_eq!(host.durable, 6);
        largest_run = largest_run.max(host.run_sizes.iter().copied().max().unwrap());
    });
    assert_eq!(largest_run, 2);
    // The 15 interleavings of the two producers, times 21: the 13 ways to
    // cut six items into cycles of one or two, where a last cycle of one
    // (8 of the 13) ends on a poll answering `Empty` or `Closed`.
    assert_eq!(schedules, 315);
}

/// `batch_max = 1`, the daemon's sequential baseline: every mutation is a
/// run of one and gets its own persist, however the backlog queues up.
#[test]
fn batch_max_one_is_the_sequential_baseline() {
    let producers = [producer(&[(1, 1, M), (1, 2, M)]), producer(&[(2, 1, M), (2, 2, R)])];
    let schedules = explore(|choices| {
        let host = run_engine(&producers, choices, 1, 4);
        assert_eq!(host.run_sizes, [1, 1, 1]);
        assert_eq!(host.persists, 3, "one persist per mutation");
        assert_eq!(host.terminal_count(), 4);
    });
    assert_eq!(schedules, 90, "the same answer sequences as the batching scenario");
}
