//! Deterministic concurrency model checking for the SDT control plane.
//!
//! The stochastic tests elsewhere in this workspace (the chaos kill-9
//! suite, the thread-count-invariant property tests) run real threads and
//! *sample* interleavings: they catch a racy bug only if the OS scheduler
//! happens to produce the bad schedule. This crate takes the same stance
//! the static verifier takes toward flow tables — enumerate the state
//! space instead of probing it — and applies it to our own schedulers.
//!
//! # Usage
//!
//! Write the concurrent protocol against the primitives in [`sync`] and
//! [`thread`], create all shared state **inside** the closure, and hand it
//! to [`model`]:
//!
//! ```
//! use sdt_check::sync::mpsc;
//!
//! sdt_check::model(|| {
//!     let (tx, rx) = mpsc::channel::<u32>();
//!     let worker = {
//!         let tx = tx.clone();
//!         sdt_check::thread::spawn(move || tx.send(1).ok())
//!     };
//!     tx.send(2).ok();
//!     drop(tx);
//!     let mut got = vec![rx.recv().ok(), rx.recv().ok()];
//!     got.sort();
//!     assert_eq!(got, [Some(1), Some(2)]);
//!     assert!(rx.recv().is_err(), "every sender is gone");
//!     worker.join().ok();
//! });
//! ```
//!
//! [`model`] re-runs the closure under every schedule a bounded DFS with
//! sleep-set pruning reaches. The assertions therefore hold on *every*
//! interleaving of the instrumented operations, not just the ones this
//! machine's scheduler produced today. [`Config::replay`] re-executes one
//! recorded decision trace — the message a [`Failure`] prints contains the
//! exact `Config::replay("…")` call that reproduces it.
//!
//! Besides assertion failures, the runtime reports deadlocks (no runnable
//! thread while some are live), nondeterministic models (the enabled set
//! diverged under an identical decision prefix — usually a branch on
//! wall-clock time), and leaked threads.
//!
//! # Model rules
//!
//! - Create every channel and spawn every thread inside the model closure;
//!   the primitives panic by name when used outside one.
//! - Join every spawned thread before the closure returns.
//! - Model code must be deterministic given the schedule: no wall-clock
//!   reads, no OS randomness, no uninstrumented blocking.
//!
//! See `DESIGN.md` §3.11 for the workspace's thread inventory, the
//! invariants checked by the model-test suite, and the replay workflow.

mod rt;
pub mod sync;
pub mod thread;

pub use rt::{model, Config, Exploration, Failure};
