//! Order-preserving thread fan-out for independent simulation runs.
//!
//! Every experiment driver in this crate is a map over an independent grid
//! of (topology, workload, config) cells; each cell owns its `Simulator`
//! and seeded RNG, so cells never share mutable state and the result of a
//! cell does not depend on which thread ran it or when. `par_map` exploits
//! that: it fans the cells over a `std::thread::scope` pool and returns
//! results in input order, bit-identical to the sequential map (asserted
//! in `tests/determinism.rs`).
//!
//! The machinery lives in the `sdt-par` crate, which the decomposed
//! estimator (`sdt-estimate`) shares; this module adds the sweep-specific
//! `SDT_BENCH_THREADS` default.

use sdt_par::{par_map_threads, threads_from_env};

/// Worker count for experiment sweeps: `SDT_BENCH_THREADS` when set to a
/// positive integer, else the machine's available parallelism.
pub fn bench_threads() -> usize {
    threads_from_env("SDT_BENCH_THREADS")
}

/// Map `f` over `items` on [`bench_threads`] workers, preserving input
/// order in the returned vector: the same bytes as the sequential map at
/// any worker count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(bench_threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 7] {
            assert_eq!(par_map_threads(threads, &items, |&x| x * x + 1), seq);
        }
    }

    #[test]
    fn threads_env_override_parses() {
        // Do not mutate the process environment (other tests run
        // concurrently); just pin the default's sanity.
        assert!(bench_threads() >= 1);
    }
}
