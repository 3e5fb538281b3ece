//! Pre-install epoch checking: the manager must refuse to apply a pending
//! epoch whose *post-state* would violate a static property — even when
//! the epoch is perfectly well-scoped under the ownership rules — and a
//! refusal must leave the live tables byte-identical.
//!
//! This is the VeriFlow-style gap [`Epoch::verify`] cannot close: ownership
//! checking looks at *match* fields only, so an epoch can stay entirely
//! inside its own (port, metadata) namespace and still blackhole its own
//! routes or output another tenant's traffic. Only the static data-plane
//! verifier sees that.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sdt_core::cluster::ClusterBuilder;
use sdt_core::methods::SwitchModel;
use sdt_openflow::{Action, FlowEntry, FlowMatch, FlowMod, OpenFlowSwitch};
use sdt_routing::{default_strategy, RouteTable};
use sdt_tenancy::{
    AdmissionError, Epoch, OwnedSpace, SliceId, SliceManager, SliceOp,
};
use sdt_topology::chain::{chain, ring};
use sdt_topology::{HostId, Topology};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

fn manager() -> SliceManager {
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(8)
        .inter_links_per_pair(8)
        .build();
    SliceManager::new(cluster)
}

/// Byte-level snapshot of every live table.
fn fingerprint(mgr: &SliceManager) -> Vec<Vec<FlowEntry>> {
    mgr.switches()
        .iter()
        .flat_map(|sw| [sw.table(0).entries().to_vec(), sw.table(1).entries().to_vec()])
        .collect()
}

/// An epoch that deletes one of the slice's own route entries passes the
/// ownership check but blackholes a pair — the static precheck must reject
/// it and must not touch the live tables while doing so.
#[test]
fn precheck_rejects_blackholing_epoch_and_leaves_tables_untouched() {
    let mut mgr = manager();
    let a = mgr.create("a", &ring(4), default_routes(&ring(4))).unwrap();
    let slice = mgr.slice(a).unwrap().clone();
    let (sw, victim) = slice
        .installed
        .table1
        .iter()
        .enumerate()
        .find_map(|(sw, t)| t.first().map(|e| (sw as u32, *e)))
        .expect("an admitted slice has route entries");

    let epoch =
        Epoch { slice: a, mods: vec![(sw, 1, FlowMod::Delete(victim.m, victim.priority))].into() };
    // Ownership-wise the epoch is impeccable: it only touches the slice's
    // own metadata space.
    epoch
        .verify(&slice.owned_space(), &OwnedSpace::default())
        .expect("the epoch is inside its own namespace");

    let before = fingerprint(&mgr);
    let err = mgr.precheck_epoch(&epoch).unwrap_err();
    assert!(
        matches!(err, AdmissionError::StaticViolation(ref s) if s.contains("blackhole")),
        "static precheck names the defect class: {err}"
    );
    assert_eq!(fingerprint(&mgr), before, "a refused precheck must not mutate live tables");
    // The live fabric still verifies clean — only the *pending* state was bad.
    assert!(mgr.verify_report().holds());
}

/// A MODIFY-shaped epoch (delete + re-add of the same entry) is harmless
/// and must pass the precheck.
#[test]
fn precheck_accepts_healthy_modify_epoch() {
    let mut mgr = manager();
    let a = mgr.create("a", &ring(4), default_routes(&ring(4))).unwrap();
    let slice = mgr.slice(a).unwrap().clone();
    let (sw, e) = slice
        .installed
        .table1
        .iter()
        .enumerate()
        .find_map(|(sw, t)| t.first().map(|e| (sw as u32, *e)))
        .unwrap();
    let epoch = Epoch {
        slice: a,
        mods: vec![(sw, 1, FlowMod::Delete(e.m, e.priority)), (sw, 1, FlowMod::Add(e))].into(),
    };
    mgr.precheck_epoch(&epoch).expect("an in-place replacement changes nothing");
}

/// An epoch entirely inside slice A's metadata space that outputs onto
/// slice B's host port: invisible to ownership checking, rejected by the
/// static precheck as a leak.
#[test]
fn precheck_rejects_cross_slice_leak_epoch() {
    let mut mgr = manager();
    let a = mgr.create("a", &ring(4), default_routes(&ring(4))).unwrap();
    let b = mgr.create("b", &ring(4), default_routes(&ring(4))).unwrap();
    let sa = mgr.slice(a).unwrap().clone();
    let sb = mgr.slice(b).unwrap().clone();

    // Find (a-host ingress, b-host port) on the same physical switch, and
    // the metadata value a-host's classify rule writes there.
    let classify_md = |switches: &[OpenFlowSwitch], p: sdt_core::PhysPort| -> Option<u32> {
        switches[p.switch as usize].table(0).entries().iter().find_map(|e| {
            match (e.m.in_port, e.action) {
                (Some(port), Action::WriteMetadataGoto(md)) if port == p.port => Some(md),
                _ => None,
            }
        })
    };
    let (md, to_port, dst_addr) = (0..sa.topology.num_hosts())
        .flat_map(|ha| (0..sb.topology.num_hosts()).map(move |hb| (HostId(ha), HostId(hb))))
        .find_map(|(ha, hb)| {
            let pa = sa.projection.primary_host_port(&sa.topology, ha);
            let pb = sb.projection.primary_host_port(&sb.topology, hb);
            if pa.switch != pb.switch {
                return None;
            }
            classify_md(mgr.switches(), pa).map(|md| (md, pb, sb.host_addr(hb)))
        })
        .expect("some a-host and b-host share a physical switch");

    let leak = FlowEntry {
        m: FlowMatch::to_dst(dst_addr).and_metadata(md),
        priority: 99,
        action: Action::Output(to_port.port),
    };
    let evil = Epoch { slice: a, mods: vec![(to_port.switch, 1, FlowMod::Add(leak))].into() };
    // The match is inside slice A's own metadata space: ownership checking
    // is blind to where the *action* points.
    evil.verify(&sa.owned_space(), &sb.owned_space()).expect("ownership cannot see the leak");

    let before = fingerprint(&mgr);
    let err = mgr.precheck_epoch(&evil).unwrap_err();
    assert!(
        matches!(err, AdmissionError::StaticViolation(ref s) if s.contains("leak")),
        "leak named: {err}"
    );
    assert_eq!(fingerprint(&mgr), before);
}

/// Damage applied behind the manager's back blocks the next admission
/// (the gate re-proves the whole post-state).
#[test]
fn corrupted_fabric_blocks_admission() {
    let mut mgr = manager();
    mgr.create("a", &ring(4), default_routes(&ring(4))).unwrap();
    // Gut one of slice A's route entries directly on the live switch.
    let (sw, victim) = mgr
        .switches()
        .iter()
        .enumerate()
        .find_map(|(sw, s)| s.table(1).entries().first().map(|e| (sw, *e)))
        .unwrap();
    mgr.switches_mut()[sw].apply(1, FlowMod::Delete(victim.m, victim.priority)).unwrap();

    // The next admission re-proves the full post-state and finds slice A
    // blackholed — rejected, even though slice B itself is fine.
    let err = mgr.create("b", &chain(2), default_routes(&chain(2))).unwrap_err();
    assert!(matches!(err, AdmissionError::StaticViolation(_)), "{err}");
    assert_eq!(mgr.num_slices(), 1, "rejected admission leaves no trace");
    // The full report tells the truth about the wounded fabric.
    assert!(!mgr.verify_report().holds());
}

/// Everything a plan could disturb if planning were not pure: table
/// entries, lookup/miss and port counters, the slice map, the namespace
/// counters, and the cached proof (a dropped proof would come back from a
/// full pass with different work counters).
fn observable(mgr: &mut SliceManager) -> String {
    let counters: Vec<String> = mgr
        .switches()
        .iter()
        .map(|sw| {
            format!("{:?} {:?} {:?}", sw.all_port_stats(), sw.table(0).stats(), sw.table(1).stats())
        })
        .collect();
    let tables: Vec<String> = mgr
        .switches()
        .iter()
        .map(|sw| format!("{:?} {:?}", sw.table(0).entries(), sw.table(1).entries()))
        .collect();
    let ex = mgr.export();
    format!(
        "{tables:?} {counters:?} {:?} {} {} {} {:?}",
        ex.slices,
        ex.next_id,
        ex.next_metadata,
        ex.next_addr,
        mgr.verify_report()
    )
}

/// `plan` is the pure half of every lifecycle operation: planning a
/// create, a reconfiguration (one that fits its reservation, one that
/// outgrows it) and a teardown — accepted or refused — and dropping the
/// plan leaves the manager exactly as it was.
#[test]
fn planning_is_pure_for_create_reconfigure_and_destroy() {
    let mut mgr = manager();
    let a = mgr.create("a", &ring(4), default_routes(&ring(4))).unwrap();
    mgr.create("b", &chain(3), default_routes(&chain(3))).unwrap();
    let before = observable(&mut mgr);

    let create =
        |t: Topology| SliceOp::Create { name: "c".into(), routes: default_routes(&t), topo: t };
    let reconfigure =
        |t: Topology| SliceOp::Reconfigure { id: a, routes: default_routes(&t), topo: t };
    let mods = |op: SliceOp| mgr.plan(op).map(|p| p.epoch().mods.len());
    assert!(mods(create(ring(3))).unwrap() > 0);
    assert!(mods(reconfigure(chain(4))).unwrap() > 0);
    assert!(mods(reconfigure(ring(6))).unwrap() > 0);
    assert!(mods(SliceOp::Destroy { id: a }).unwrap() > 0);
    // Refusals are just as traceless.
    assert!(matches!(mods(create(chain(40))), Err(AdmissionError::Resources(_))));
    assert!(matches!(
        mods(SliceOp::Destroy { id: SliceId(9) }),
        Err(AdmissionError::UnknownSlice(_))
    ));

    assert_eq!(observable(&mut mgr), before, "planning moved manager state");
    // The same operation still lands afterwards, as if never planned.
    assert_eq!(mgr.create("c", &ring(3), default_routes(&ring(3))).unwrap(), SliceId(2));
}
