//! Resident memory at constant population: a manager that keeps admitting,
//! migrating and destroying the same number of tenants must not grow.
//! Nothing the proofs leave behind may outlive the previous `Verifier`.
//!
//! Alone in its test binary on purpose: `VmRSS` is per process, and a
//! neighbouring test's allocations would move it.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_core::cluster::ClusterBuilder;
use sdt_core::methods::SwitchModel;
use sdt_routing::{default_strategy, RouteTable};
use sdt_tenancy::{OpOutcome, SliceId, SliceManager, SliceOp};
use sdt_topology::chain::{chain, ring};
use sdt_topology::Topology;

const TENANTS: usize = 32;
const MIB: i64 = 1 << 20;

/// `VmRSS` of this process in bytes; `None` where `/proc` does not say.
fn rss_bytes() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: i64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn routes(topo: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(topo, default_strategy(topo).as_ref())
}

/// One cycle: every tenant admits a chain-3, migrates it to a ring-3 and
/// leaves, each stage one `apply_batch` — the daemon's batched shape.
fn cycle(mgr: &mut SliceManager) {
    let (from, to) = (chain(3), ring(3));
    let admits = (0..TENANTS)
        .map(|t| SliceOp::Create { name: format!("t{t}"), topo: from.clone(), routes: routes(&from) })
        .collect();
    let ids: Vec<SliceId> = mgr
        .apply_batch(admits)
        .into_iter()
        .map(|r| match r.unwrap() {
            OpOutcome::Created(id) => id,
            other => panic!("admit produced {other:?}"),
        })
        .collect();
    let migrates = ids
        .iter()
        .map(|&id| SliceOp::Reconfigure { id, topo: to.clone(), routes: routes(&to) })
        .collect();
    for r in mgr.apply_batch(migrates) {
        r.unwrap();
    }
    for r in mgr.apply_batch(ids.iter().map(|&id| SliceOp::Destroy { id }).collect()) {
        r.unwrap();
    }
    assert_eq!(mgr.slices().count(), 0);
}

#[test]
fn constant_population_churn_does_not_grow_resident_memory() {
    if rss_bytes().is_none() {
        eprintln!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    }
    // Three switches for three-switch slices: one host port per tenant per
    // switch, one cable per tenant per switch pair plus the migration's.
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 3)
        .hosts_per_switch(36)
        .inter_links_per_pair(46)
        .build();
    let mut mgr = SliceManager::new(cluster);
    let mut early = 0;
    for n in 1..=500 {
        cycle(&mut mgr);
        if n == 50 {
            early = rss_bytes().unwrap();
        }
    }
    let late = rss_bytes().unwrap();
    assert!(
        late - early <= 16 * MIB,
        "VmRSS grew {} MiB between cycle 50 and cycle 500 ({} -> {} MiB)",
        (late - early) / MIB,
        early / MIB,
        late / MIB
    );
}
