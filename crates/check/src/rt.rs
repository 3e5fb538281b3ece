//! The deterministic exploration runtime.
//!
//! # How serialization works
//!
//! Every *logical* thread of the model (the closure passed to
//! [`model`]/[`Config::check`] is logical thread 0; each
//! [`crate::thread::spawn`] adds one) runs on its own OS thread, but all of
//! them are gated on one **baton**: a thread may execute user code only
//! while `active == Some(its id)`, and the baton is handed over exclusively
//! at *yield points* — the instrumented operations of [`crate::sync`] and
//! [`crate::thread`]. At any instant at most one logical thread is
//! runnable, so the OS scheduler has zero influence on the interleaving;
//! the only source of schedule nondeterminism is the checker's own
//! decision at each yield point, which is exactly what the [`Explorer`]
//! enumerates or replays.
//!
//! A yield point works in two halves. *Park*: the running thread records
//! the operation it is **about to** perform (`pending`), asks the explorer
//! to pick the next thread among the currently *enabled* ones, hands the
//! baton over, and blocks. *Resume*: when the baton comes back, the thread
//! applies the operation's effect on the model state (pop the channel,
//! …) under the runtime lock and returns to user code. Because every
//! parked thread has declared its pending operation, the scheduler always
//! knows each candidate's next action — which is what enabledness checks
//! (a `recv` on an empty, connected channel is not schedulable) and the
//! sleep-set independence pruning need.
//!
//! # What the model covers — and what it does not
//!
//! The checker explores **schedule** nondeterminism: every way the declared
//! operations of the threads can interleave, within the configured bounds.
//! Memory is sequentially consistent inside the model — a `Relaxed` load
//! cannot observe a reordered value here. That is the right tool for the
//! invariants this workspace cares about (lost updates, ordering of
//! snapshot vs. reply, stale cache serves, deadlocks): they are all
//! schedule properties, and single-location RMW counters have a total
//! modification order under any memory model, so totals proven
//! schedule-invariant here hold under `Relaxed` on real hardware too.
//! Compiler/hardware *reordering across locations* is out of scope.
//!
//! # Failure = replayable schedule
//!
//! Any invariant violation (an assertion in model code, a detected
//! deadlock, a leaked thread) aborts the execution and surfaces as a
//! [`Failure`] carrying the **decision trace**: the sequence of thread ids
//! chosen at each yield point. [`Config::replay`] re-runs that exact
//! interleaving — same decisions, same effects, same panic — which is the
//! debugging loop the stochastic chaos tests cannot offer.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

// ------------------------------------------------------------------ ops

/// One instrumented operation, declared *before* it is performed. The
/// `usize` payloads are per-kind object ids assigned at construction time
/// inside the current execution (deterministic given the schedule).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// A freshly spawned thread's first scheduling.
    Start,
    /// Atomic load (commutes with other loads of the same cell).
    AtomicLoad(usize),
    /// Atomic store / RMW.
    AtomicWrite(usize),
    /// Channel send (never blocks; fails if the receiver is gone).
    Send(usize),
    /// Blocking receive; schedulable when non-empty or fully disconnected.
    Recv(usize),
    /// Non-blocking receive; always schedulable.
    TryRecv(usize),
    /// A `Sender` clone dropping (disconnect bookkeeping).
    CloseTx(usize),
    /// The `Receiver` dropping.
    CloseRx(usize),
    /// Join on a logical thread; schedulable once it has finished.
    Join(usize),
}

impl Op {
    fn describe(self) -> String {
        match self {
            Op::Start => "start".into(),
            Op::AtomicLoad(a) => format!("atomic-load(a{a})"),
            Op::AtomicWrite(a) => format!("atomic-write(a{a})"),
            Op::Send(c) => format!("send(c{c})"),
            Op::Recv(c) => format!("recv(c{c})"),
            Op::TryRecv(c) => format!("try-recv(c{c})"),
            Op::CloseTx(c) => format!("close-tx(c{c})"),
            Op::CloseRx(c) => format!("close-rx(c{c})"),
            Op::Join(t) => format!("join(t{t})"),
        }
    }
}

/// Conservative dependence relation for sleep-set pruning: two operations
/// are independent iff they commute from every state. Anything touching
/// the same object is dependent except load/load; joins and starts commute
/// with everything.
fn dependent(a: Op, b: Op) -> bool {
    use Op::{AtomicLoad, AtomicWrite, CloseRx, CloseTx, Recv, Send, TryRecv};
    let atomic = |o: Op| match o {
        AtomicLoad(x) => Some((x, false)),
        AtomicWrite(x) => Some((x, true)),
        _ => None,
    };
    let channel = |o: Op| match o {
        Send(x) | Recv(x) | TryRecv(x) | CloseTx(x) | CloseRx(x) => Some(x),
        _ => None,
    };
    if let (Some((x, wx)), Some((y, wy))) = (atomic(a), atomic(b)) {
        return x == y && (wx || wy);
    }
    if let (Some(x), Some(y)) = (channel(a), channel(b)) {
        return x == y;
    }
    false
}

/// What an operation's effect resolved to, returned to the primitive that
/// declared it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Outcome {
    /// Effect applied; nothing further to report.
    Unit,
    /// A value is available (send succeeded / recv may pop).
    Item,
    /// `try_recv` found the queue empty (senders still alive).
    Empty,
    /// The other endpoint is gone.
    Closed,
}

// ---------------------------------------------------------------- failure

/// Marker payload for the internal abort unwind: when one thread fails an
/// execution, every other parked thread is woken and unwound with this so
/// its OS thread can exit. Raised via `resume_unwind`, so it never hits the
/// panic hook (no spurious backtraces for schedules that merely aborted).
struct Abort;

fn abort_execution() -> ! {
    resume_unwind(Box::new(Abort))
}

/// A violated invariant, with everything needed to reproduce it.
#[derive(Debug)]
pub struct Failure {
    /// Human-readable description (panic message, deadlock report, …).
    pub message: String,
    /// The decision trace of the failing schedule: the thread id chosen at
    /// each yield point, comma-separated. Feed to [`Config::replay`].
    pub trace: String,
    /// Schedules executed up to and including the failing one.
    pub schedules: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sdt-check: {} after {} schedule(s); failing schedule [{}] — rerun with \
             Config::replay(\"{}\")",
            self.message, self.schedules, self.trace, self.trace
        )
    }
}

/// Summary of a completed (violation-free) exploration.
#[derive(Clone, Copy, Debug)]
pub struct Exploration {
    /// Schedules actually executed.
    pub schedules: usize,
}

// --------------------------------------------------------------- explorer

#[derive(Clone, Debug)]
enum Mode {
    /// Exhaustive bounded DFS with sleep-set pruning.
    Dfs,
    /// Follow one recorded decision trace.
    Replay(Vec<usize>),
}

/// One DFS frontier node: the scheduling decision taken at one depth, with
/// enough context to enumerate its untried siblings.
struct Node {
    /// Enabled thread ids at this point (ascending).
    enabled: Vec<usize>,
    /// Pending op of each enabled thread, parallel to `enabled`.
    ops: Vec<Op>,
    /// Sleep set: threads whose subtrees are already covered by an
    /// explored sibling (or inherited from the parent). Choosing them
    /// again can only reproduce an equivalent interleaving.
    sleep: BTreeSet<usize>,
    /// The choice the current/next execution takes at this depth.
    chosen: usize,
}

struct Explorer {
    mode: Mode,
    stack: Vec<Node>,
}

impl Explorer {
    fn new(mode: Mode) -> Explorer {
        Explorer { mode, stack: Vec::new() }
    }

    /// Pick the thread to run at decision `depth` among `enabled` (whose
    /// pending ops are `ops`). `Err` means the model itself is broken
    /// (nondeterministic user code, or a replay trace that diverged).
    fn decide(&mut self, depth: usize, enabled: &[usize], ops: &[Op]) -> Result<usize, String> {
        match &self.mode {
            Mode::Dfs => {
                if depth < self.stack.len() {
                    // Replaying the prefix that leads to the frontier.
                    let n = &self.stack[depth];
                    if n.enabled != enabled || n.ops != ops {
                        return Err(format!(
                            "model is nondeterministic: at depth {depth} the enabled set \
                             changed across identical schedule prefixes \
                             (recorded {:?}, now {:?}) — model code must not branch on \
                             wall-clock time, OS randomness, or anything outside the \
                             instrumented primitives",
                            n.enabled, enabled
                        ));
                    }
                    return Ok(n.chosen);
                }
                // A fresh node: inherit the parent's sleep set, waking
                // every thread whose pending op conflicts with the
                // transition the parent just executed.
                let sleep: BTreeSet<usize> = match self.stack.last() {
                    Some(p) => {
                        let executed = p
                            .enabled
                            .iter()
                            .position(|&t| t == p.chosen)
                            .map(|i| p.ops[i]);
                        match executed {
                            Some(pop) => p
                                .sleep
                                .iter()
                                .copied()
                                .filter(|t| enabled.contains(t))
                                .filter(|&t| {
                                    // The sleeping thread is still parked on
                                    // the same op it had at the parent.
                                    let i = match p.enabled.iter().position(|&e| e == t) {
                                        Some(i) => i,
                                        None => return false,
                                    };
                                    !dependent(p.ops[i], pop)
                                })
                                .collect(),
                            None => BTreeSet::new(),
                        }
                    }
                    None => BTreeSet::new(),
                };
                // Prefer a non-sleeping choice; if every enabled thread is
                // asleep this subtree is redundant but still safe to run
                // once (the backtrack step will not expand siblings).
                let chosen =
                    enabled.iter().copied().find(|t| !sleep.contains(t)).unwrap_or(enabled[0]);
                self.stack.push(Node {
                    enabled: enabled.to_vec(),
                    ops: ops.to_vec(),
                    sleep,
                    chosen,
                });
                Ok(chosen)
            }
            Mode::Replay(decisions) => match decisions.get(depth) {
                Some(&t) if enabled.contains(&t) => Ok(t),
                Some(&t) => Err(format!(
                    "replay diverged at depth {depth}: trace says thread {t} but enabled \
                     set is {enabled:?} — the model code changed since the trace was \
                     recorded"
                )),
                None => Err(format!(
                    "replay trace ended at depth {depth} but the model wants another \
                     decision (enabled {enabled:?})"
                )),
            },
        }
    }

    /// Prepare the next execution. `false` when the search space (or the
    /// single replay) is done.
    fn advance(&mut self) -> bool {
        match &self.mode {
            Mode::Dfs => {
                loop {
                    let Some(n) = self.stack.last_mut() else { return false };
                    n.sleep.insert(n.chosen);
                    if let Some(&t) =
                        n.enabled.iter().find(|t| !n.sleep.contains(t))
                    {
                        n.chosen = t;
                        return true;
                    }
                    self.stack.pop();
                }
            }
            Mode::Replay(_) => false,
        }
    }
}

// ------------------------------------------------------------------ core

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Holds the baton (or is being handed it).
    Running,
    /// Parked at a yield point with a declared pending op.
    Ready,
    /// Logical thread finished.
    Done,
}

struct Th {
    status: Status,
    pending: Option<Op>,
}

#[derive(Default)]
struct ChanSt {
    len: usize,
    senders: usize,
    receiver_alive: bool,
}

/// Mutable runtime state, reset between executions.
struct Core {
    threads: Vec<Th>,
    active: Option<usize>,
    channels: Vec<ChanSt>,
    next_atomic: usize,
    /// Decisions taken this execution; its length is the current depth.
    trace: Vec<usize>,
    /// First failure of this execution; everything aborts once set.
    failed: Option<String>,
    /// OS handles of threads spawned this execution (index = tid - 1).
    os_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    explorer: Explorer,
}

impl Core {
    fn op_enabled(&self, op: Op) -> bool {
        match op {
            Op::Recv(c) => self.channels[c].len > 0 || self.channels[c].senders == 0,
            Op::Join(t) => self.threads[t].status == Status::Done,
            _ => true,
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failed.is_none() {
            self.failed = Some(msg);
        }
    }
}

/// Decision depth at which one schedule is declared a livelock.
const MAX_STEPS: usize = 20_000;

pub(crate) struct Rt {
    core: Mutex<Core>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Rt>, usize)>> = const { RefCell::new(None) };
}

/// The runtime of the enclosing [`model`]/[`Config::check`] call, if any.
/// `None` means the caller is ordinary code: the checked primitives then
/// fall back to plain `std` behavior.
pub(crate) fn maybe_current() -> Option<(Arc<Rt>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(rt: Option<(Arc<Rt>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = rt);
}

/// Restores the previous TLS binding on drop so a panicking model does not
/// leak a stale runtime into the next test on this thread.
struct TlsGuard(Option<(Arc<Rt>, usize)>);

impl Drop for TlsGuard {
    fn drop(&mut self) {
        set_current(self.0.take());
    }
}

impl Rt {
    fn new(mode: Mode) -> Rt {
        Rt {
            core: Mutex::new(Core {
                threads: Vec::new(),
                active: None,
                channels: Vec::new(),
                next_atomic: 0,
                trace: Vec::new(),
                failed: None,
                os_handles: Vec::new(),
                explorer: Explorer::new(mode),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        match self.core.lock() {
            Ok(g) => g,
            // A model thread that panicked poisons the lock; the state is
            // still consistent (we only read it to abort/report).
            Err(p) => p.into_inner(),
        }
    }

    fn begin_execution(&self) {
        let mut c = self.lock();
        c.threads = vec![Th { status: Status::Running, pending: None }];
        c.active = Some(0);
        c.channels.clear();
        c.next_atomic = 0;
        c.trace.clear();
        c.failed = None;
        c.os_handles.clear();
    }

    // ------------------------------------------------------ registration

    pub(crate) fn register_channel(&self) -> usize {
        let mut c = self.lock();
        c.channels.push(ChanSt { len: 0, senders: 1, receiver_alive: true });
        c.channels.len() - 1
    }

    pub(crate) fn register_atomic(&self) -> usize {
        let mut c = self.lock();
        c.next_atomic += 1;
        c.next_atomic - 1
    }

    /// Another `Sender` clone exists. No yield point: while at least one
    /// sender is alive the count change cannot alter any enabledness.
    pub(crate) fn sender_cloned(&self, ch: usize) {
        let mut c = self.lock();
        c.channels[ch].senders += 1;
    }

    /// Register a new logical thread (parked until first scheduled) and
    /// the OS thread that will carry it. Returns its id.
    pub(crate) fn spawn_thread(
        self: &Arc<Rt>,
        body: Box<dyn FnOnce() + Send>,
    ) -> usize {
        let tid = {
            let mut c = self.lock();
            c.threads.push(Th { status: Status::Ready, pending: Some(Op::Start) });
            c.threads.len() - 1
        };
        let rt = Arc::clone(self);
        let builder = std::thread::Builder::new().name(format!("sdt-check-t{tid}"));
        let spawned = builder.spawn(move || {
            let _tls = TlsGuard(None);
            set_current(Some((Arc::clone(&rt), tid)));
            let out = catch_unwind(AssertUnwindSafe(|| {
                rt.wait_start(tid);
                body();
            }));
            match out {
                Ok(()) => rt.finish_worker(tid),
                Err(p) if p.downcast_ref::<Abort>().is_some() => rt.done_quiet(tid),
                Err(p) => rt.fail_panic(tid, &p),
            }
        });
        let mut c = self.lock();
        match spawned {
            Ok(h) => c.os_handles.push(Some(h)),
            Err(e) => {
                c.os_handles.push(None);
                c.fail(format!("OS thread spawn failed: {e}"));
                self.cv.notify_all();
            }
        }
        debug_assert_eq!(c.os_handles.len(), tid);
        tid
    }

    // -------------------------------------------------------- scheduling

    /// The scheduling decision: among the enabled parked threads, ask the
    /// explorer which runs next and hand it the baton. Detects deadlock
    /// (live threads, none enabled) and termination (all done).
    fn pick_next(&self, c: &mut Core) {
        let enabled: Vec<usize> = (0..c.threads.len())
            .filter(|&t| {
                c.threads[t].status == Status::Ready
                    && c.threads[t].pending.is_some_and(|op| c.op_enabled(op))
            })
            .collect();
        if enabled.is_empty() {
            if c.threads.iter().all(|t| t.status == Status::Done) {
                c.active = None;
                return;
            }
            let mut blocked = Vec::new();
            for (t, th) in c.threads.iter().enumerate() {
                if th.status == Status::Done {
                    continue;
                }
                let what = th.pending.map_or_else(|| "running".into(), Op::describe);
                blocked.push(format!("thread {t} waiting on {what}"));
            }
            c.fail(format!("deadlock: no runnable thread — {}", blocked.join("; ")));
            self.cv.notify_all();
            return;
        }
        if c.trace.len() >= MAX_STEPS {
            c.fail(format!(
                "schedule exceeded {MAX_STEPS} decisions — livelock, or a model too \
                 deep to check"
            ));
            self.cv.notify_all();
            return;
        }
        let ops: Vec<Op> = enabled
            .iter()
            .map(|&t| match c.threads[t].pending {
                Some(op) => op,
                None => unreachable!("enabled thread always has a pending op"),
            })
            .collect();
        let depth = c.trace.len();
        match c.explorer.decide(depth, &enabled, &ops) {
            Ok(choice) => {
                c.trace.push(choice);
                c.active = Some(choice);
                self.cv.notify_all();
            }
            Err(msg) => {
                c.fail(msg);
                self.cv.notify_all();
            }
        }
    }

    /// Declare `op`, hand the baton to the explorer's choice, block until
    /// it comes back, then apply the effect. The one entry point every
    /// instrumented primitive funnels through.
    pub(crate) fn yield_point(&self, me: usize, op: Op) -> Outcome {
        let mut c = self.lock();
        if c.failed.is_some() {
            drop(c);
            abort_execution();
        }
        debug_assert_eq!(c.active, Some(me), "yield from a thread without the baton");
        c.threads[me].status = Status::Ready;
        c.threads[me].pending = Some(op);
        self.pick_next(&mut c);
        while c.active != Some(me) {
            if c.failed.is_some() {
                drop(c);
                abort_execution();
            }
            c = match self.cv.wait(c) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if c.failed.is_some() {
            drop(c);
            abort_execution();
        }
        c.threads[me].status = Status::Running;
        c.threads[me].pending = None;
        let out = Self::apply_effect(&mut c, op);
        if c.failed.is_some() {
            drop(c);
            abort_execution();
        }
        out
    }

    /// Bookkeeping-only variant for `Drop` impls running during a panic
    /// unwind: keep the model state consistent but never yield or abort —
    /// a second panic inside a `Drop` would abort the process.
    pub(crate) fn effect_during_unwind(&self, op: Op) {
        let mut c = self.lock();
        let _ = Self::apply_effect(&mut c, op);
    }

    fn apply_effect(c: &mut Core, op: Op) -> Outcome {
        match op {
            Op::Start | Op::AtomicLoad(_) | Op::AtomicWrite(_) | Op::Join(_) => Outcome::Unit,
            Op::Send(ch) => {
                if c.channels[ch].receiver_alive {
                    c.channels[ch].len += 1;
                    Outcome::Item
                } else {
                    Outcome::Closed
                }
            }
            Op::Recv(ch) => {
                if c.channels[ch].len > 0 {
                    c.channels[ch].len -= 1;
                    Outcome::Item
                } else {
                    debug_assert_eq!(c.channels[ch].senders, 0);
                    Outcome::Closed
                }
            }
            Op::TryRecv(ch) => {
                if c.channels[ch].len > 0 {
                    c.channels[ch].len -= 1;
                    Outcome::Item
                } else if c.channels[ch].senders == 0 {
                    Outcome::Closed
                } else {
                    Outcome::Empty
                }
            }
            Op::CloseTx(ch) => {
                c.channels[ch].senders = c.channels[ch].senders.saturating_sub(1);
                Outcome::Unit
            }
            Op::CloseRx(ch) => {
                c.channels[ch].receiver_alive = false;
                Outcome::Unit
            }
        }
    }

    /// First scheduling of a spawned thread: block until the explorer
    /// picks its `Start` op.
    fn wait_start(&self, me: usize) {
        let mut c = self.lock();
        while c.active != Some(me) {
            if c.failed.is_some() {
                drop(c);
                abort_execution();
            }
            c = match self.cv.wait(c) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if c.failed.is_some() {
            drop(c);
            abort_execution();
        }
        c.threads[me].status = Status::Running;
        c.threads[me].pending = None;
    }

    /// A worker's body returned normally: mark done and hand the baton on.
    fn finish_worker(&self, me: usize) {
        let mut c = self.lock();
        c.threads[me].status = Status::Done;
        c.threads[me].pending = None;
        if c.failed.is_none() {
            self.pick_next(&mut c);
        } else {
            self.cv.notify_all();
        }
    }

    /// A worker unwound with `Abort` (another thread already failed the
    /// execution): just record that its OS thread is gone.
    fn done_quiet(&self, me: usize) {
        let mut c = self.lock();
        c.threads[me].status = Status::Done;
        c.threads[me].pending = None;
        self.cv.notify_all();
    }

    /// A worker's body panicked: this execution found a violation.
    fn fail_panic(&self, me: usize, payload: &(dyn Any + Send)) {
        let mut c = self.lock();
        c.threads[me].status = Status::Done;
        c.threads[me].pending = None;
        c.fail(format!("thread {me} panicked: {}", payload_msg(payload)));
        self.cv.notify_all();
    }

    /// Record a failure observed on the main thread (scope-body panic,
    /// leaked threads) without unwinding.
    pub(crate) fn fail_main(&self, msg: String) {
        let mut c = self.lock();
        c.fail(msg);
        self.cv.notify_all();
    }

    /// A scope body unwound with `payload`: if it is a genuine user panic
    /// (not the internal abort marker), record it as the execution's
    /// failure so every parked thread wakes and the scope can reap them
    /// before its stack frame — and the `'scope` data — disappears.
    pub(crate) fn fail_scope_panic(&self, payload: &(dyn Any + Send)) {
        if payload.downcast_ref::<Abort>().is_some() {
            return;
        }
        self.fail_main(format!("scope body panicked: {}", payload_msg(payload)));
    }

    /// Take the OS handle of logical thread `tid` (for its joiner).
    pub(crate) fn take_os_handle(&self, tid: usize) -> Option<std::thread::JoinHandle<()>> {
        let mut c = self.lock();
        c.os_handles.get_mut(tid.wrapping_sub(1)).and_then(Option::take)
    }

    /// Main closure returned: every spawned thread must already be joined.
    fn finish_main(&self) {
        let mut c = self.lock();
        c.threads[0].status = Status::Done;
        c.threads[0].pending = None;
        if c.failed.is_none() {
            let leaked: Vec<usize> = (1..c.threads.len())
                .filter(|&t| c.threads[t].status != Status::Done)
                .collect();
            if !leaked.is_empty() {
                c.fail(format!(
                    "model closure returned with live threads {leaked:?} — every \
                     spawned thread must be joined (use thread::scope, or join \
                     the handles)"
                ));
            }
        }
        self.cv.notify_all();
    }

    /// Join every OS thread still registered (end of an execution — after
    /// a failure this is what lets the abort unwinds complete).
    fn reap_os_threads(&self) {
        let handles: Vec<std::thread::JoinHandle<()>> = {
            let mut c = self.lock();
            c.os_handles.iter_mut().filter_map(Option::take).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn payload_msg(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

// ---------------------------------------------------------------- config

/// How to explore: exhaustively, or replaying one trace — plus the bound
/// that keeps exploration finite.
#[derive(Clone, Debug)]
pub struct Config {
    /// `Err` holds why a replay trace did not parse; `explore` refuses it
    /// before running anything.
    mode: Result<Mode, String>,
    max_schedules: usize,
}

impl Config {
    /// Exhaustive bounded DFS with sleep-set pruning (the default of
    /// [`model`]). Explores *every* interleaving of the instrumented
    /// operations, up to `max_schedules`.
    pub fn dfs() -> Config {
        Config { mode: Ok(Mode::Dfs), max_schedules: 200_000 }
    }

    /// Re-run exactly one schedule from a recorded decision trace: the
    /// comma-separated thread ids inside the `Config::replay("…")` call a
    /// [`Failure`] prints. A token that is not a thread id makes
    /// [`Config::explore`] fail naming it, without running the model.
    pub fn replay(trace: &str) -> Config {
        let trace = trace.trim();
        let mode = if trace.is_empty() {
            Ok(Vec::new())
        } else {
            trace
                .split(',')
                .map(|token| {
                    token.trim().parse().map_err(|_| {
                        format!(
                            "malformed replay trace: `{token}` is not a thread id \
                             (expected comma-separated integers, e.g. \"0,1,1,0\")"
                        )
                    })
                })
                .collect()
        };
        Config { mode: mode.map(Mode::Replay), max_schedules: 1 }
    }

    /// Cap the number of schedules an exhaustive search may run before
    /// giving up with an error (the search is otherwise complete).
    #[must_use]
    pub fn max_schedules(mut self, n: usize) -> Config {
        self.max_schedules = n;
        self
    }

    /// Explore `f` under this configuration. Returns the exploration
    /// summary, or the first violating schedule.
    pub fn explore<F: Fn()>(&self, f: F) -> Result<Exploration, Failure> {
        let mode = self.mode.clone().map_err(|message| Failure {
            message,
            trace: String::new(),
            schedules: 0,
        })?;
        let rt = Arc::new(Rt::new(mode));
        let mut schedules = 0usize;
        loop {
            schedules += 1;
            if schedules > self.max_schedules {
                return Err(Failure {
                    message: format!(
                        "exploration exceeded max_schedules ({}) without finishing — \
                         shrink the model or raise the bound",
                        self.max_schedules
                    ),
                    trace: String::new(),
                    schedules: schedules - 1,
                });
            }
            rt.begin_execution();
            let prev = CURRENT.with(|c| c.borrow().clone());
            let _tls = TlsGuard(prev);
            set_current(Some((Arc::clone(&rt), 0)));
            let out = catch_unwind(AssertUnwindSafe(&f));
            match out {
                Ok(()) => rt.finish_main(),
                Err(p) => {
                    if p.downcast_ref::<Abort>().is_none() {
                        rt.fail_main(format!("model closure panicked: {}", payload_msg(&*p)));
                    }
                    // Another thread's failure is already recorded; either
                    // way wake everything so the reap below can finish.
                    rt.fail_main(String::new()); // no-op if already failed
                }
            }
            rt.reap_os_threads();
            let mut c = rt.lock();
            if let Some(message) = c.failed.clone().filter(|m| !m.is_empty()) {
                let trace: Vec<String> = c.trace.iter().map(ToString::to_string).collect();
                return Err(Failure { message, trace: trace.join(","), schedules });
            }
            if !c.explorer.advance() {
                return Ok(Exploration { schedules });
            }
        }
    }

    /// [`Config::explore`], panicking with the replay line on violation.
    pub fn check<F: Fn()>(&self, f: F) {
        if let Err(e) = self.explore(f) {
            panic!("{e}");
        }
    }
}

/// Exhaustively model-check `f`: run it under every schedule the bounded
/// DFS reaches, panicking with a replayable trace on the first violation.
pub fn model<F: Fn()>(f: F) {
    Config::dfs().check(f);
}
