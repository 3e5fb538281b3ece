//! Model-checked invariants of the real `par_map` fan-out, compiled only
//! under `--cfg sdt_check` (the CI `check` job): the production claim
//! loop — `fetch_add` steals over a shared counter — runs under every
//! schedule the bounded DFS reaches, not just the ones the OS produces.
//!
//! Invariants proven on every explored schedule:
//! - output is in input order and byte-identical to the sequential map
//!   (so no claim is lost, duplicated, or misfiled under steal races);
//! - the weighted variant's LPT claiming changes only the schedule, never
//!   the result.

#![cfg(sdt_check)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sdt_par::{par_map_threads, par_map_weighted_threads};

/// Three workers racing over four items: every interleaving of the claim
/// counter must produce the exact sequential result. Duplicated claims
/// would lengthen the output, lost claims would shorten it, misordered
/// merges would permute it — all caught by exact equality.
#[test]
fn par_map_is_order_preserving_on_every_schedule() {
    let exploration = sdt_check::Config::dfs()
        .explore(|| {
            let items: Vec<u64> = vec![3, 1, 4, 1];
            let out = par_map_threads(3, &items, |&x| x * 10 + 1);
            assert_eq!(out, vec![31, 11, 41, 11]);
        })
        .expect("no schedule may violate order preservation");
    assert!(
        exploration.schedules > 10,
        "steal races must fan out into many schedules, got {}",
        exploration.schedules
    );
}

/// Weighted claiming (heaviest first) under every schedule: the indirect
/// `order[slot]` lookup must still route every result to its input slot.
#[test]
fn weighted_par_map_is_order_preserving_on_every_schedule() {
    sdt_check::model(|| {
        let items: Vec<u64> = vec![2, 9, 4];
        let out = par_map_weighted_threads(2, &items, |&w| w, |&x| x + 100);
        assert_eq!(out, vec![102, 109, 104]);
    });
}

/// Two workers, three items: small enough to visit the full unpruned
/// interleaving set, proving no lost work when both workers race the
/// counter to the last item.
#[test]
fn steal_race_on_last_item_never_loses_work() {
    sdt_check::model(|| {
        let items: Vec<u64> = vec![7, 8, 9];
        let out = par_map_threads(2, &items, |&x| x * 2);
        assert_eq!(out, vec![14, 16, 18]);
    });
}

/// Four workers racing over five items, exhaustively: the widest pool a
/// full DFS covers in seconds (one item more multiplies the schedules by
/// four). Every worker but the last can find the counter exhausted, so
/// this also covers the empty-claim path of a crowded pool.
#[test]
fn four_workers_preserve_order_on_every_schedule() {
    let exploration = sdt_check::Config::dfs()
        .explore(|| {
            let items: Vec<u64> = (0..5).collect();
            let out = par_map_threads(4, &items, |&x| x * 3 + 1);
            assert_eq!(out, vec![1, 4, 7, 10, 13]);
        })
        .expect("no schedule may violate order preservation");
    assert!(
        exploration.schedules > 10_000,
        "four workers must fan out into many schedules, got {}",
        exploration.schedules
    );
}
