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
//! [`thread`] (production code reaches them through [`facade`] under
//! `--cfg sdt_check`), create all shared state **inside** the closure, and
//! hand it to [`model`]:
//!
//! ```
//! use std::sync::Arc;
//! use sdt_check::sync::atomic::{AtomicU64, Ordering};
//!
//! sdt_check::model(|| {
//!     let counter = Arc::new(AtomicU64::new(0));
//!     let worker = {
//!         let counter = Arc::clone(&counter);
//!         sdt_check::thread::spawn(move || {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         })
//!     };
//!     counter.fetch_add(1, Ordering::Relaxed);
//!     worker.join().ok();
//!     assert_eq!(counter.load(Ordering::Relaxed), 2);
//! });
//! ```
//!
//! [`model`] re-runs the closure under every schedule a bounded DFS with
//! sleep-set pruning reaches. The assertion therefore holds on *every*
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
//! - Create every shared object (channels, atomics) inside the model
//!   closure; objects created outside silently opt out of checking.
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

/// The concurrency primitives production code imports: plain `std` in a
/// normal build (a re-export, so the generated code is std's), this
/// crate's checked primitives under `RUSTFLAGS="--cfg sdt_check"`. Only
/// what the model tests route production code through is here: the
/// atomics of `sdt-openflow`'s table counters and `sdt-par`'s claim loop,
/// and `sdt-par`'s scoped threads. Outside a model closure the checked
/// primitives behave like `std`, so a `--cfg sdt_check` build of the whole
/// workspace still passes the ordinary test suites.
pub mod facade {
    /// Atomic integers, with an explicit `Ordering` at every call site:
    /// each use documents its contract (see `crates/openflow/src/table.rs`
    /// for the counter convention).
    pub mod atomic {
        #[cfg(not(sdt_check))]
        pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

        #[cfg(sdt_check)]
        pub use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    }

    /// Scoped threads.
    pub mod thread {
        #[cfg(not(sdt_check))]
        pub use std::thread::scope;

        #[cfg(sdt_check)]
        pub use crate::thread::scope;
    }
}

#[cfg(test)]
mod tests {
    use super::facade::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn facade_round_trips() {
        let a = AtomicU64::new(0);
        a.fetch_add(3, Ordering::Relaxed);
        assert_eq!(a.load(Ordering::Relaxed), 3);

        let n = AtomicUsize::new(1);
        super::facade::thread::scope(|s| {
            let h = s.spawn(|| n.fetch_add(1, Ordering::Relaxed));
            assert_eq!(h.join().ok(), Some(1));
        });
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }
}
