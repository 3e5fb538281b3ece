//! Seeded-defect detection: each defect class the verifier exists for —
//! loop, blackhole, cross-domain leak, multi-rule-shadowed entry — is
//! injected into otherwise-healthy tables and must be caught statically,
//! with the offending rule(s) named. The incremental checker must reject
//! each as a pending batch while the baseline snapshot stays untouched.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sdt_core::synthesis::addr_of;
use sdt_core::{ClusterBuilder, PhysPort, SdtProjector, SwitchModel};
use sdt_openflow::{Action, FlowEntry, FlowMatch, FlowMod, HostAddr, PortNo};
use sdt_topology::fattree::fat_tree;
use sdt_topology::{HostId, Topology};
use sdt_verify::{DropReason, Intent, IntentHost, TableView, Verifier};
use sdt_routing::{default_strategy, RouteTable};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

fn two_switch_cluster() -> sdt_core::PhysicalCluster {
    ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(16)
        .build()
}

/// A healthy single-tenant deployment verifies clean, with the closure
/// agreeing with the topology's size.
#[test]
fn healthy_projection_verifies() {
    let cluster = two_switch_cluster();
    let topo = fat_tree(4);
    let proj =
        SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
    let intent = Intent::of_projection(&proj, &topo, topo.name());
    let v = Verifier::check(&cluster, TableView::of_synthesis(&proj.synthesis), intent);
    let r = v.report();
    assert!(v.holds(), "healthy deploy must verify: {}", r.summary());
    let h = topo.num_hosts() as usize;
    assert_eq!(r.delivered_pairs, h * (h - 1));
    assert_eq!(r.isolated_pairs, 0);
    assert!(r.loops.is_empty() && r.blackholes.is_empty() && r.leaks.is_empty());
}

/// Defect class 1: an injected forwarding loop across a cable is found as a
/// cycle, and the report names the bounce rules that form it.
#[test]
fn injected_loop_detected_with_rule_chain() {
    let cluster = two_switch_cluster();
    let topo = fat_tree(4);
    let proj =
        SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
    let intent = Intent::of_projection(&proj, &topo, topo.name());
    let base = Verifier::check(&cluster, TableView::of_synthesis(&proj.synthesis), intent.clone());
    assert!(base.holds());

    // Pick an inter-switch cable and install high-priority bounce rules at
    // both endpoints: anything entering the cable port is reflected back.
    let link = cluster.inter_links_between(0, 1).next().expect("inter link");
    let bounce = |p: PhysPort, md: u32| {
        [
            (
                p.switch,
                0u8,
                FlowMod::Add(FlowEntry {
                    m: FlowMatch::on_port(p.port),
                    priority: 99,
                    action: Action::WriteMetadataGoto(md),
                }),
            ),
            (
                p.switch,
                1u8,
                FlowMod::Add(FlowEntry {
                    m: FlowMatch::default().and_metadata(md),
                    priority: 99,
                    action: Action::Output(p.port),
                }),
            ),
        ]
    };
    let mut batch = Vec::new();
    batch.extend(bounce(link.a, 7001));
    batch.extend(bounce(link.b, 7002));

    let v = Verifier::check_delta(&base, &batch, intent);
    let r = v.report();
    assert!(!v.holds(), "bounce rules must fail verification");
    assert!(!r.loops.is_empty(), "loop must be reported");
    let l = &r.loops[0];
    assert_eq!(l.ports.len(), 2, "two-port cycle: {l}");
    let cycle_switches: Vec<u32> = l.ports.iter().map(|p| p.switch).collect();
    assert!(cycle_switches.contains(&link.a.switch) && cycle_switches.contains(&link.b.switch));
    // The rule chain names the injected prio-99 rules.
    assert!(l.rules.iter().all(|r| r.entry.priority == 99), "chain: {l}");
    assert_eq!(l.rules.len(), 4, "classify + route rule at each of 2 hops");
    // The baseline snapshot was not mutated by the delta check.
    assert!(base.holds());
}

/// Defect class 2: deleting one route entry blackholes exactly the pairs
/// that depended on it, naming the miss location.
#[test]
fn deleted_route_is_a_blackhole() {
    let cluster = two_switch_cluster();
    let topo = fat_tree(4);
    let proj =
        SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
    let intent = Intent::of_projection(&proj, &topo, topo.name());
    let base = Verifier::check(&cluster, TableView::of_synthesis(&proj.synthesis), intent.clone());
    assert!(base.holds());

    // Remove the table-1 entries routing to host 0 on its own switch: every
    // pair (*, host 0) whose path ends there now dies in a table miss.
    let victim = addr_of(HostId(0));
    let home = proj.primary_host_port(&topo, HostId(0)).switch;
    let batch: Vec<(u32, u8, FlowMod)> = proj.synthesis.table1[home as usize]
        .iter()
        .filter(|e| e.m.dst == Some(victim))
        .map(|e| (home, 1u8, FlowMod::Delete(e.m, e.priority)))
        .collect();
    assert!(!batch.is_empty());

    let v = Verifier::check_delta(&base, &batch, intent);
    let r = v.report();
    assert!(!v.holds());
    assert!(!r.blackholes.is_empty());
    assert!(r.loops.is_empty() && r.leaks.is_empty());
    for b in &r.blackholes {
        assert_eq!(b.dst, HostId(0), "only host-0 pairs blackholed: {b}");
        assert!(
            matches!(b.reason, DropReason::Miss { switch, table: 1 } if switch == home),
            "miss named at the gutted table: {b}"
        );
    }
    // Incrementality: only paths through the touched switch were re-walked.
    assert!(r.pairs_walked < r.pairs_checked, "{} < {}", r.pairs_walked, r.pairs_checked);
}

/// Hand-built two-domain fabric for leak tests: one switch, two sub-switch
/// domains of two hosts each.
fn two_domain_fixture() -> (sdt_core::PhysicalCluster, TableView, Intent) {
    let cluster = ClusterBuilder::new(SwitchModel::openflow_64x100g(), 1)
        .hosts_per_switch(4)
        .build();
    let hp: Vec<PhysPort> = cluster.host_ports_of(0).copied().collect();
    assert_eq!(hp.len(), 4);
    let addr = |i: u32| HostAddr(100 + i);
    let mut view = TableView::empty(1);
    for (i, p) in hp.iter().enumerate() {
        let md = if i < 2 { 1 } else { 2 };
        view.apply(
            0,
            0,
            &FlowMod::Add(FlowEntry {
                m: FlowMatch::on_port(p.port),
                priority: 10,
                action: Action::WriteMetadataGoto(md),
            }),
        );
        view.apply(
            0,
            1,
            &FlowMod::Add(FlowEntry {
                m: FlowMatch::to_dst(addr(i as u32)).and_metadata(md),
                priority: 10,
                action: Action::Output(p.port),
            }),
        );
    }
    let mut intent = Intent::new();
    intent.domains = vec!["tenant-a".into(), "tenant-b".into()];
    intent.hosts = (0u16..4)
        .map(|i| IntentHost {
            domain: usize::from(i >= 2),
            host: HostId(u32::from(i % 2)),
            addr: addr(u32::from(i)),
            ingress: hp[usize::from(i)],
            ports: vec![hp[usize::from(i)]],
            group: 0,
        })
        .collect();
    (cluster, view, intent)
}

/// Defect class 3: a rule that outputs one domain's traffic onto another
/// domain's host port is reported as a leak naming that exact rule.
#[test]
fn cross_domain_leak_names_offending_rule() {
    let (cluster, view, intent) = two_domain_fixture();
    let base = Verifier::check(&cluster, view, intent.clone());
    let r = base.report();
    assert!(base.holds(), "{}", r.summary());
    assert_eq!(r.delivered_pairs, 4, "two intra-domain ordered pairs per domain");
    assert_eq!(r.isolated_pairs, 8, "all cross-domain pairs proven isolated");

    // Tenant A's sub-switch (metadata 1) learns a route to tenant B's host
    // port: the classic slice-isolation bug.
    let b_host = &intent.hosts[2];
    let evil = FlowEntry {
        m: FlowMatch::to_dst(b_host.addr).and_metadata(1),
        priority: 99,
        action: Action::Output(b_host.ingress.port),
    };
    let v = Verifier::check_delta(&base, &[(0, 1, FlowMod::Add(evil))], intent);
    let r = v.report();
    assert!(!v.holds());
    assert_eq!(r.leaks.len(), 2, "both tenant-A hosts can now reach B: {:?}", r.leaks);
    for leak in &r.leaks {
        assert_eq!(leak.from_domain, "tenant-a");
        assert_eq!(leak.to_domain, "tenant-b");
        assert_eq!(leak.via.entry, evil, "offending rule named: {leak}");
        assert_eq!(leak.via.switch, 0);
        assert_eq!(leak.via.table, 1);
    }
    // Baseline still clean — the pending batch never touched it.
    assert!(base.holds());
}

/// Defect class 4: an entry jointly covered by several rules (none covering
/// it alone) is reported as shadowed with every covering rule named — the
/// case the pairwise `shadowed_entries` provably misses.
#[test]
fn multi_rule_shadow_detected_with_covering_rules() {
    let (cluster, mut view, intent) = two_domain_fixture();
    // Table 0 already classifies ports 0..4; add per-port classify rules
    // for *every remaining* port, then a catch-all below them. No single
    // rule covers the catch-all, but the union of per-port rules does.
    let ports = cluster.model().ports as u16;
    let existing: Vec<PortNo> = view
        .entries(0, 0)
        .iter()
        .filter_map(|e| e.m.in_port)
        .collect();
    for p in (0..ports).map(PortNo).filter(|p| !existing.contains(p)) {
        view.apply(
            0,
            0,
            &FlowMod::Add(FlowEntry {
                m: FlowMatch::on_port(p),
                priority: 10,
                action: Action::Drop,
            }),
        );
    }
    let dead = FlowEntry { m: FlowMatch::any(), priority: 5, action: Action::Drop };
    view.apply(0, 0, &FlowMod::Add(dead));

    let v = Verifier::check(&cluster, view, intent);
    let r = v.report();
    assert!(v.holds(), "dead rules are warnings, not violations: {}", r.summary());
    let s = r
        .shadowed
        .iter()
        .find(|s| s.shadowed.entry == dead)
        .expect("union-shadowed catch-all reported");
    assert_eq!(s.switch, 0);
    assert_eq!(s.table, 0);
    assert_eq!(
        s.shadowed.covered_by.len(),
        ports as usize,
        "all per-port rules named as the covering union"
    );
    // And the pairwise check alone would have missed it.
    let pairwise = sdt_openflow::shadowed_entries(
        &(0..ports)
            .map(|p| FlowEntry {
                m: FlowMatch::on_port(PortNo(p)),
                priority: 10,
                action: Action::Drop,
            })
            .chain([dead])
            .collect::<Vec<_>>(),
    );
    assert!(pairwise.is_empty(), "pairwise misses union shadowing");
}

/// Equal-priority overlapping (non-identical) matches are flagged as
/// nondeterminism warnings; identical or disjoint ones are not.
#[test]
fn equal_priority_overlap_warns() {
    let (cluster, mut view, intent) = two_domain_fixture();
    let a = FlowEntry {
        m: FlowMatch::to_dst(HostAddr(100)).and_metadata(1),
        priority: 10,
        action: Action::Drop,
    };
    // Overlaps the existing (dst=100, md=1) route entry at the same
    // priority without equalling it (adds an l4 constraint).
    let b = FlowEntry {
        m: FlowMatch { l4_dst: Some(4791), ..a.m },
        priority: 10,
        action: Action::Output(PortNo(0)),
    };
    view.apply(0, 1, &FlowMod::Add(b));
    let v = Verifier::check(&cluster, view, intent);
    let warn = &v.report().nondeterminism;
    assert!(
        warn.iter().any(|n| (n.first.m == a.m && n.second.m == b.m)
            || (n.first.m == b.m && n.second.m == a.m)),
        "overlap flagged: {warn:?}"
    );
}

/// The incremental check agrees with a from-scratch check on the same
/// post-delta tables (same verdict, same pair accounting).
#[test]
fn delta_check_agrees_with_full_recheck() {
    let cluster = two_switch_cluster();
    let topo = fat_tree(4);
    let proj =
        SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
    let intent = Intent::of_projection(&proj, &topo, topo.name());
    let base = Verifier::check(&cluster, TableView::of_synthesis(&proj.synthesis), intent.clone());

    let victim = addr_of(HostId(3));
    let home = proj.primary_host_port(&topo, HostId(3)).switch;
    let batch: Vec<(u32, u8, FlowMod)> = proj.synthesis.table1[home as usize]
        .iter()
        .filter(|e| e.m.dst == Some(victim))
        .map(|e| (home, 1u8, FlowMod::Delete(e.m, e.priority)))
        .collect();

    let fast = Verifier::check_delta(&base, &batch, intent.clone());
    let mut view = TableView::of_synthesis(&proj.synthesis);
    for (sw, t, m) in &batch {
        view.apply(*sw, *t, m);
    }
    let slow = Verifier::check(&cluster, view, intent);
    let (f, s) = (fast.report(), slow.report());
    assert_eq!(f.holds(), s.holds());
    assert_eq!(f.delivered_pairs, s.delivered_pairs);
    assert_eq!(f.isolated_pairs, s.isolated_pairs);
    assert_eq!(f.blackholes.len(), s.blackholes.len());
    assert_eq!(f.leaks.len(), s.leaks.len());
    assert_eq!(f.loops.len(), s.loops.len());
}
