//! The paper's evaluation (§VI): one driver per experiment
//! ([`experiments`]), one render function per artifact ([`render`]), and a
//! binary that renders them all in order into `results/<name>.txt`
//! (`cargo run --release -p sdt-bench`). The tests under `tests/` assert
//! the paper's shapes on the same drivers. Nothing here times the
//! repository's own code — that is `benchmark/`'s job.

pub mod experiments;
pub mod par;
pub mod render;

pub use experiments::*;
pub use par::{bench_threads, par_map};
