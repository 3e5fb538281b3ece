//! Shared experiment drivers behind the per-table/per-figure binaries and
//! the Criterion benches.
//!
//! Every function here regenerates one artifact of the paper's evaluation
//! at a configurable scale; the `src/bin/*` entry points run them at
//! reporting scale and print paper-style rows, the `benches/*` targets run
//! them at reduced scale under Criterion.

pub mod experiments;
pub mod par;

pub use experiments::*;
pub use par::{bench_threads, par_map};
