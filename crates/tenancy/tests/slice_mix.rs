//! Property tests over random slice mixes: whatever sequence of
//! admissions and teardowns the manager sees, the multi-tenant invariants
//! hold.
//!
//! (a) no two admitted slices ever share a (switch, ingress-port) match
//!     space;
//! (b) the per-switch sum of slice entries equals the live table occupancy
//!     and never exceeds the switch's capacity;
//! (c) destroying a slice returns exactly its reserved ports, cables and
//!     entries — and the live tables shrink by exactly that much;
//! (d) a rejected admission leaves the fabric byte-identical.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_core::cluster::ClusterBuilder;
use sdt_core::methods::SwitchModel;
use sdt_tenancy::{SliceAudit, SliceManager};
use sdt_topology::chain::{chain, ring};
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::mesh;
use sdt_topology::Topology;
use std::collections::HashSet;
use sdt_routing::{default_strategy, RouteTable};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

/// One requested slice: a small topology drawn from the generator zoo.
fn arb_slice_topo() -> impl Strategy<Value = Topology> {
    (0u8..5, 2u32..6).prop_map(|(kind, size)| match kind {
        0 => chain(size),
        1 => ring(size.max(3)),
        2 => mesh(&[2, 2]),
        3 => mesh(&[size.min(3), 2]),
        // Deliberately big for the little cluster below: often rejected,
        // which exercises the honest-rejection path.
        _ => fat_tree(4),
    })
}

/// A 2-switch cluster small enough that random mixes hit every scarce
/// resource: 8 host ports and 8 inter-switch cables per side, and a flow
/// table tight enough for headroom rejections.
fn small_cluster() -> sdt_core::cluster::PhysicalCluster {
    let mut model = SwitchModel::openflow_128x100g();
    model.table_capacity = 160;
    ClusterBuilder::new(model, 2).hosts_per_switch(8).inter_links_per_pair(8).build()
}

/// Per-switch occupancy contributed by each admitted slice must add up to
/// the live table occupancy and respect capacity; table-0 ingress ports
/// must be pairwise disjoint.
fn check_invariants(mgr: &SliceManager) {
    let mut per_switch = vec![0usize; mgr.cluster().num_switches() as usize];
    let mut seen_ports: HashSet<(u32, sdt_openflow::PortNo)> = HashSet::new();
    for s in mgr.slices() {
        for (sw, n) in s.projection.synthesis.entries_per_switch.iter().enumerate() {
            per_switch[sw] += n;
        }
        for (sw, t0) in s.projection.synthesis.table0.iter().enumerate() {
            for e in t0 {
                let p = e.m.in_port.expect("table-0 entries match an ingress port");
                assert!(
                    seen_ports.insert((sw as u32, p)),
                    "two slices share (switch {sw}, {p:?})"
                );
            }
        }
    }
    for (sw, live) in mgr.switches().iter().enumerate() {
        assert_eq!(
            per_switch[sw],
            live.total_entries(),
            "switch {sw}: slice bookkeeping disagrees with live tables"
        );
        assert!(per_switch[sw] <= live.config().table_capacity);
    }
}

/// Snapshot of everything a rejection must not disturb.
fn fabric_fingerprint(mgr: &SliceManager) -> (usize, Vec<Vec<sdt_openflow::FlowEntry>>) {
    let tables = mgr
        .switches()
        .iter()
        .flat_map(|sw| [sw.table(0).entries().to_vec(), sw.table(1).entries().to_vec()])
        .collect();
    (mgr.num_slices(), tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn slice_mix_invariants(
        topos in proptest::collection::vec(arb_slice_topo(), 1..7),
        destroy_mask in any::<u32>(),
    ) {
        let mut mgr = SliceManager::new(small_cluster());
        let mut admitted = Vec::new();
        for (i, t) in topos.iter().enumerate() {
            let before = fabric_fingerprint(&mgr);
            match mgr.create(&format!("s{i}"), t, default_routes(t)) {
                Ok(id) => admitted.push(id),
                Err(_) => {
                    // (d) honest rejection: nothing changed.
                    prop_assert_eq!(before, fabric_fingerprint(&mgr));
                }
            }
            check_invariants(&mgr);
        }

        // (c) destroy a random subset; each teardown returns exactly the
        // slice's reservation and shrinks the live tables by exactly it.
        for (i, id) in admitted.iter().enumerate() {
            if destroy_mask & (1 << (i % 32)) == 0 {
                continue;
            }
            let s = mgr.slice(*id).unwrap();
            let expect = (
                s.projection.host_port.len(),
                s.projection.link_real.len(),
                s.entries(),
            );
            let live_before: usize =
                mgr.switches().iter().map(|sw| sw.total_entries()).sum();
            let got = mgr.destroy(*id).unwrap();
            prop_assert_eq!(
                (got.host_ports, got.cables, got.flow_entries),
                expect,
                "reclaim must equal the reservation"
            );
            let live_after: usize =
                mgr.switches().iter().map(|sw| sw.total_entries()).sum();
            prop_assert_eq!(live_before - live_after, got.flow_entries);
            check_invariants(&mgr);
        }

        // Whatever survived still passes the full behavioral audit.
        let audit = SliceAudit::run(&mut mgr);
        prop_assert!(audit.clean(), "audit not clean: {:?}", audit);
    }
}
