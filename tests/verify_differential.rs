//! Differential test: the *static* verification verdict must agree with
//! the *dynamic* probe-matrix audit on every preset topology and on a
//! seeded random slice mix — clean, and with a blackhole and a cross-slice
//! leak seeded behind the manager's back, where both sides must name the
//! same offending pairs (production renders the proof alone, so the probe
//! oracle is what keeps it honest) — and the static pass must provably
//! inject zero packets (every table lookup counter and port counter stays
//! put until the probe audit runs).
//!
//! On disagreement the assertion names each divergent probe as
//! `(switch, in_port, dst)`, which is exactly what an operator would need
//! to replay the packet by hand.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sdt::controller::{paper_testbed, paper_topologies, SdtController};
use sdt::core::synthesis::addr_of;
use sdt::core::walk::{walk_packet, IsolationReport, WalkOutcome};
use sdt::core::{ClusterBuilder, PhysPort, PhysicalCluster, SdtProjection, SwitchModel};
use sdt::openflow::{Action, FlowEntry, FlowMod, HostAddr, OpenFlowSwitch};
use sdt::tenancy::{SliceAudit, SliceId, SliceManager};
use sdt::topology::chain::{chain, ring};
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::{mesh, torus};
use sdt::topology::{HostId, Topology};
use sdt::verify::{Intent, TableView, Verifier, VerifyReport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use sdt::routing::{default_strategy, RouteTable};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

/// Every port and table counter across the fleet, summed. The static
/// verifier reads `entries()` only, so this must stay zero through a
/// full verification pass.
fn total_counters(switches: &[OpenFlowSwitch]) -> u64 {
    switches
        .iter()
        .map(|sw| {
            let t = sw.table(0).stats().lookups + sw.table(1).stats().lookups;
            let p: u64 = sw
                .all_port_stats()
                .iter()
                .map(|ps| ps.rx_packets + ps.tx_packets)
                .sum();
            t + p
        })
        .sum()
}

/// Static verdict vs probe matrix on one single-tenant deployment: same
/// delivered/isolated closure, same clean/violating verdict. Runs the
/// static pass first and asserts it injected nothing.
fn assert_static_matches_probes(
    cluster: &PhysicalCluster,
    proj: &SdtProjection,
    topo: &Topology,
    switches: &mut [OpenFlowSwitch],
) -> VerifyReport {
    assert_eq!(total_counters(switches), 0, "pre-existing traffic would taint the test");
    let v = Verifier::check(
        cluster,
        TableView::of_switches(switches),
        Intent::of_projection(proj, topo, topo.name()),
    );
    let r = v.report().clone();
    assert_eq!(
        total_counters(switches),
        0,
        "static verification must inject zero packets ({})",
        topo.name()
    );

    // Now the dynamic side: walk every ordered host pair on the same live
    // switches (this one *does* bump counters — it forwards real probes).
    let audit = IsolationReport::audit_on(cluster, switches, proj, topo);
    assert!(
        total_counters(switches) > 0,
        "the probe audit forwards real packets; counters prove which side injected"
    );

    let agree = r.holds() == audit.clean()
        && r.delivered_pairs == audit.delivered
        && r.isolated_pairs == audit.isolated;
    if !agree {
        panic!(
            "static/probe divergence on {}:\n  static: holds={} delivered={} isolated={}\n  \
             probe : clean={} delivered={} isolated={}\n  divergent probes: {}",
            topo.name(),
            r.holds(),
            r.delivered_pairs,
            r.isolated_pairs,
            audit.clean(),
            audit.delivered,
            audit.isolated,
            divergent_probes(cluster, proj, topo, switches, &r),
        );
    }
    r
}

/// Re-walk every pair on both sides and name each disagreement as
/// `(switch, in_port, dst)` — only reached when the differential fails.
fn divergent_probes(
    cluster: &PhysicalCluster,
    proj: &SdtProjection,
    topo: &Topology,
    switches: &mut [OpenFlowSwitch],
    r: &VerifyReport,
) -> String {
    use std::collections::HashSet;
    let static_bad: HashSet<(HostId, HostId)> = r
        .blackholes
        .iter()
        .map(|b| (b.src, b.dst))
        .chain(r.leaks.iter().map(|l| (l.src, l.to_host)))
        .collect();
    let comp = topo.component_of();
    let mut out = Vec::new();
    for a in 0..topo.num_hosts() {
        for b in 0..topo.num_hosts() {
            if a == b {
                continue;
            }
            let (src, dst) = (HostId(a), HostId(b));
            let same = comp[topo.host_switch(src).idx()] == comp[topo.host_switch(dst).idx()];
            let probe_ok = match walk_packet(cluster, switches, proj, topo, src, dst) {
                WalkOutcome::Delivered { to, .. } => same && to == dst,
                WalkOutcome::Dropped { .. } => !same,
                WalkOutcome::Looped => false,
            };
            let static_ok = !static_bad.contains(&(src, dst));
            if probe_ok != static_ok {
                let ingress = proj.primary_host_port(topo, src);
                out.push(format!(
                    "(switch {}, in_port {}, dst {:?}/host {})",
                    ingress.switch,
                    ingress.port.0,
                    addr_of(dst),
                    dst.0
                ));
            }
        }
    }
    if out.is_empty() {
        "(count mismatch only — no per-pair disagreement)".into()
    } else {
        out.join(", ")
    }
}

/// The paper's own 3-switch H3C testbed, every campaign topology.
#[test]
fn static_matches_probes_on_paper_presets() {
    let mut ctl = paper_testbed();
    for topo in paper_topologies() {
        let mut d = ctl.deploy(&topo).unwrap();
        let r = assert_static_matches_probes(
            ctl.cluster(),
            &d.projection,
            &d.topology,
            &mut d.switches,
        );
        assert!(r.holds(), "{}: {}", topo.name(), r.summary());
        let h = topo.num_hosts() as usize;
        assert_eq!(r.delivered_pairs, h * (h - 1));
    }
}

/// The two-switch 128-port cluster used across the test suite, with a
/// disconnected topology in the mix so the isolated-pair accounting is
/// exercised too (two separate chains = one topology, two components).
#[test]
fn static_matches_probes_on_two_switch_cluster() {
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(16)
        .build();
    let mut ctl = SdtController::new(cluster);
    for topo in [fat_tree(4), torus(&[4, 4]), ring(8), mesh(&[3, 3])] {
        let mut d = ctl.deploy(&topo).unwrap();
        let r = assert_static_matches_probes(
            ctl.cluster(),
            &d.projection,
            &d.topology,
            &mut d.switches,
        );
        assert!(r.holds(), "{}: {}", topo.name(), r.summary());
    }
}

/// A seeded random mix of slice admissions and one teardown on the
/// two-switch cluster: the fabric every multi-tenant differential runs on.
fn seeded_mix() -> SliceManager {
    let mut rng = StdRng::seed_from_u64(0x5d7_0001);
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(8)
        .inter_links_per_pair(8)
        .build();
    let mut mgr = SliceManager::new(cluster);

    let mut admitted = Vec::new();
    for i in 0..6 {
        let topo = match rng.random_range(0u32..4) {
            0 => chain(rng.random_range(2u32..5)),
            1 => ring(rng.random_range(3u32..6)),
            2 => mesh(&[2, 2]),
            _ => mesh(&[3, 2]),
        };
        // Some admissions may be rejected on capacity — that's part of the
        // mix; only admitted slices take part in the differential.
        if let Ok(id) = mgr.create(&format!("mix-{i}"), &topo, default_routes(&topo)) {
            admitted.push(id);
        }
    }
    assert!(admitted.len() >= 3, "seed must leave at least two slices after the teardown");
    // Tear one down at random so the differential runs over a fabric that
    // has seen the full lifecycle, not just fresh installs.
    let victim = admitted.remove(rng.random_range(0..admitted.len()));
    mgr.destroy(victim).unwrap();
    assert_eq!(total_counters(mgr.switches()), 0, "admission path must stay packet-free");
    mgr
}

/// One misbehaving probe, named the same way by both sides: the slice it
/// was injected in, its source host, and the address it carried.
type Offender = (SliceId, HostId, HostAddr);

/// Static closure vs the probe-based [`SliceAudit`] oracle on the same live
/// tables: same verdict, same delivered and isolated totals, and every
/// offending (slice, src, dst address) named by one is named by the other.
/// Returns the proof and the common offender set.
fn assert_proof_matches_oracle(mgr: &mut SliceManager) -> (VerifyReport, BTreeSet<Offender>) {
    let before = total_counters(mgr.switches());
    let r = mgr.verify_report();
    assert_eq!(
        total_counters(mgr.switches()),
        before,
        "static verification of the shared fabric must inject zero packets"
    );
    let audit = SliceAudit::run(mgr);
    assert!(total_counters(mgr.switches()) > before, "the slice audit forwards real probes");

    assert_eq!(r.holds(), audit.clean(), "verdicts diverge: {}\n{audit:?}", r.summary());
    let probe_delivered: usize = audit.per_slice.iter().map(|s| s.delivered).sum();
    let probe_isolated: usize =
        audit.per_slice.iter().map(|s| s.isolated).sum::<usize>() + audit.cross_isolated;
    assert_eq!(r.delivered_pairs, probe_delivered, "delivered closures diverge");
    assert_eq!(r.isolated_pairs, probe_isolated, "isolated closures diverge");

    let slice = |id: SliceId| mgr.slice(id).unwrap();
    let by_domain = |d: &str| {
        mgr.slices().find(|s| format!("{}:{}", s.id, s.name) == d).unwrap_or_else(|| panic!("{d}"))
    };
    let proof: BTreeSet<Offender> = r
        .blackholes
        .iter()
        .map(|b| {
            let s = by_domain(&b.domain);
            (s.id, b.src, s.host_addr(b.dst))
        })
        .chain(r.leaks.iter().map(|l| (by_domain(&l.from_domain).id, l.src, l.dst_addr)))
        .collect();
    let oracle: BTreeSet<Offender> = audit
        .per_slice
        .iter()
        .flat_map(|e| e.violations.iter().map(|&(src, dst, _)| (e.id, src, slice(e.id).host_addr(dst))))
        .chain(
            audit
                .cross_leaks
                .iter()
                .map(|l| (l.from_slice, l.src, slice(l.to_slice).host_addr(l.dst))),
        )
        .collect();
    assert_eq!(proof, oracle, "offending pairs diverge: {}\n{audit:?}", r.summary());
    (r, proof)
}

/// Multi-tenant differential, the passing direction: the seeded mix is
/// clean on both sides.
#[test]
fn static_matches_slice_audit_on_seeded_random_mix() {
    let mut mgr = seeded_mix();
    let (r, offenders) = assert_proof_matches_oracle(&mut mgr);
    assert!(r.holds(), "{}", r.summary());
    assert!(offenders.is_empty());
}

/// A table-1 `Output` entry of the first slice in the mix, with the switch
/// it lives on and a co-tenant's host port on that same switch (the place a
/// leak is rewired to).
fn victim_entry(mgr: &SliceManager) -> (SliceId, usize, FlowEntry, PhysPort) {
    let slices: Vec<_> = mgr.slices().collect();
    let v = slices[0];
    for (sw, t1) in v.projection.synthesis.table1.iter().enumerate() {
        let foreign = slices[1..]
            .iter()
            .flat_map(|w| w.projection.host_port.values())
            .find(|pp| pp.switch as usize == sw);
        let entry = t1.iter().find(|e| matches!(e.action, Action::Output(_)));
        if let (Some(&e), Some(&pp)) = (entry, foreign) {
            return (v.id, sw, e, pp);
        }
    }
    panic!("seeded mix has no switch shared by the first slice and a co-tenant");
}

/// The failing direction, blackhole: delete one slice's table-1 entry
/// behind the manager's back. Production trusts the proof alone, so the
/// proof must condemn exactly the pairs the probes see die.
#[test]
fn static_and_oracle_name_the_same_blackholed_pairs() {
    let mut mgr = seeded_mix();
    let (victim, sw, e, _) = victim_entry(&mgr);
    mgr.switches_mut()[sw].apply(1, FlowMod::Delete(e.m, e.priority)).unwrap();

    let (r, offenders) = assert_proof_matches_oracle(&mut mgr);
    assert!(!r.holds(), "a deleted route entry must fail the proof");
    assert!(!r.blackholes.is_empty() && r.leaks.is_empty(), "{}", r.summary());
    assert!(!offenders.is_empty() && offenders.iter().all(|&(s, _, _)| s == victim));
}

/// The failing direction, leak: rewrite one output of a slice onto a
/// co-tenant's host port. Both sides must name the leaking pairs.
#[test]
fn static_and_oracle_name_the_same_leaking_pairs() {
    let mut mgr = seeded_mix();
    let (victim, sw, e, foreign) = victim_entry(&mgr);
    let bank = mgr.switches_mut();
    bank[sw].apply(1, FlowMod::Delete(e.m, e.priority)).unwrap();
    bank[sw].apply(1, FlowMod::Add(FlowEntry { action: Action::Output(foreign.port), ..e })).unwrap();

    let (r, offenders) = assert_proof_matches_oracle(&mut mgr);
    assert!(!r.holds(), "an output rewired to a foreign host port must fail the proof");
    let owner = |pp| mgr.slices().find(|s| s.projection.host_port.values().any(|&p| p == pp));
    assert!(!r.leaks.is_empty(), "{}", r.summary());
    for l in &r.leaks {
        assert_eq!(l.port, foreign);
        let to = owner(l.port).unwrap();
        assert_eq!(l.to_domain, format!("{}:{}", to.id, to.name));
        assert_ne!(to.id, victim, "the leak lands in a co-tenant");
    }
    assert!(!offenders.is_empty() && offenders.iter().all(|&(s, _, _)| s == victim));
}
