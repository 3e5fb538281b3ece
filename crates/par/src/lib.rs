//! Deterministic, order-preserving thread fan-out.
//!
//! Both the experiment sweep driver (`sdt-bench`) and the decomposed
//! estimator (`sdt-estimate`) are maps over independent work items: each
//! item owns its state, so the result of an item does not depend on which thread ran it
//! or when. [`par_map_threads`] exploits that: it fans items over a
//! `std::thread::scope` pool and returns results in input order,
//! bit-identical to the sequential map. A pool of one thread, or a single
//! unit of work, is the plain sequential map.

pub mod stats;

use sdt_check::facade::atomic::{AtomicUsize, Ordering};
use sdt_check::facade::thread;

/// Parse a thread-count override, as read from an environment variable:
/// a positive integer means that many workers, anything else means "no
/// override". Factored out of [`threads_from_env`] so the parsing rules are
/// testable without mutating the process environment.
pub fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.parse::<usize>().ok()).filter(|&n| n >= 1)
}

/// Worker count from an environment variable (e.g. `SDT_BENCH_THREADS`,
/// `SDT_ESTIMATE_THREADS`): the variable when set to a positive integer, else
/// the machine's available parallelism.
pub fn threads_from_env(var: &str) -> usize {
    parse_threads(std::env::var(var).ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The one pool body behind the three maps. Work is claimed in *units*: unit
/// `u` is the run of up to `run` consecutive items starting at item
/// `first(u)`, and units are claimed in ascending `u` off a shared counter —
/// so a unit is never split or duplicated whatever the per-item cost skew.
/// The variants differ only in `run` and `first`; the units must tile
/// `items` exactly. `threads` workers claim every unit, and the runs are
/// merged back in item order, bit-identical to
/// `items.iter().map(f).collect()`.
fn pool<T, R, F>(
    threads: usize,
    items: &[T],
    run: usize,
    first: impl Fn(usize) -> usize + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let units = n.div_ceil(run);
    let threads = threads.min(units);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= units {
                break local;
            }
            let start = first(u);
            local.push((start, items[start..(start + run).min(n)].iter().map(&f).collect()));
        }
    };
    let mut runs: Vec<(usize, Vec<R>)> = thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
        workers
            .into_iter()
            .flat_map(|w| match w.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    runs.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, run) in runs {
        out.extend(run);
    }
    out
}

/// Map `f` over `items` on up to `threads` workers (1 = plain sequential
/// map), preserving input order in the returned vector.
///
/// Workers pull the next unclaimed index from a shared counter, so items
/// are never split or duplicated regardless of per-item cost skew, and the
/// output is bit-identical to `items.iter().map(f).collect()`.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    pool(threads, items, 1, |u| u, f)
}

/// Like [`par_map_threads`], but workers claim items in **descending
/// weight order** instead of input order. Results still come back in input
/// order, bit-identical to the sequential map — only the schedule changes.
///
/// Use this when per-item cost is predictable and skewed: with self-paced
/// input-order pulling, a heavy item claimed last can leave one worker
/// running alone while the rest idle (makespan ≈ heaviest tail). Claiming
/// heaviest-first is the classic LPT greedy, within 4/3 of the optimal
/// makespan. `weight` is any monotone proxy for per-item cost — for the
/// estimator's representative simulations, an `n log n` model of their
/// flow count.
pub fn par_map_weighted_threads<T, R, F, W>(
    threads: usize,
    items: &[T],
    weight: W,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    W: Fn(&T) -> u64,
{
    if threads.min(items.len()) <= 1 {
        return items.iter().map(&f).collect();
    }
    // Schedule: item indexes, heaviest first. Ties break on input order so
    // the schedule itself is deterministic (not that results depend on it).
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight(&items[i])), i));
    pool(threads, items, 1, |u| order[u], f)
}

/// Like [`par_map_threads`], but workers claim **runs of `chunk` consecutive
/// indexes** per counter fetch instead of one. Results still come back in
/// input order, bit-identical to the sequential map.
///
/// Use this for huge item counts with tiny per-item cost (the estimator
/// aggregates millions of per-flow delay sums): with per-item claiming, the
/// shared-counter `fetch_add` and the `(index, result)` tagging dominate the
/// work itself. Claiming a chunk amortizes both over `chunk` items, and each
/// worker returns one `(start, Vec<R>)` run per claim, so the merge cost
/// scales with the number of chunks, not items. `chunk = 1` degenerates to
/// exactly [`par_map_threads`]'s claiming discipline; `chunk >= items.len()`
/// degenerates to the sequential map.
pub fn par_map_chunked_threads<T, R, F>(threads: usize, chunk: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk = chunk.max(1);
    pool(threads, items, chunk, |u| u * chunk, f)
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
    fn preserves_order_under_skewed_cost() {
        // Early items sleep longest, so completion order inverts input
        // order — the output must still come back in input order.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map_threads(8, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = vec![];
        assert!(par_map_threads(4, &none, |&x| x).is_empty());
        assert!(par_map_weighted_threads(4, &none, |_| 1, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn weighted_matches_sequential_map() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                par_map_weighted_threads(threads, &items, |&x| x % 7, |&x| x * 3 + 1),
                seq
            );
        }
    }

    #[test]
    fn weighted_preserves_order_with_real_pool() {
        // Weights invert the sleep times, so the claimed execution order
        // differs from input order AND from completion order; the output
        // must still come back in input order.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map_weighted_threads(
            8,
            &items,
            |&x| x,
            |&x| {
                std::thread::sleep(std::time::Duration::from_millis(1 + x % 5));
                x
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn chunked_matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 7] {
            for chunk in [0, 1, 3, 64, 5000] {
                assert_eq!(
                    par_map_chunked_threads(threads, chunk, &items, |&x| x * x + 1),
                    seq,
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn chunked_preserves_order_with_real_pool() {
        // Early chunks sleep longest so completion order inverts claim
        // order.
        let items: Vec<u64> = (0..24).collect();
        let out = par_map_chunked_threads(8, 3, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(24 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn chunked_empty_and_singleton() {
        let none: Vec<u32> = vec![];
        assert!(par_map_chunked_threads(4, 8, &none, |&x| x).is_empty());
        assert_eq!(par_map_chunked_threads(4, 8, &[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn parse_rules() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some("0")), None, "zero is not a worker count");
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
        assert!(threads_from_env("SDT_PAR_TEST_UNSET_VARIABLE") >= 1);
    }
}
