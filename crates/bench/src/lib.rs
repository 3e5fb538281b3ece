//! Shared experiment drivers behind the per-table/per-figure binaries.
//!
//! Every function here regenerates one artifact of the paper's evaluation
//! at a configurable scale; the `src/bin/*` entry points run them at
//! reporting scale and print paper-style rows. Nothing here times the
//! repository's own code — that is `benchmark/`'s job.

pub mod experiments;
pub mod par;

pub use experiments::*;
pub use par::{bench_threads, par_map};
