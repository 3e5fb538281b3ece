//! End-to-end acceptance for multi-tenant topology slicing: three slices
//! admitted on one cluster; reconfiguring slice B mid-run leaves slices A
//! and C unchanged on the fabric and, each slice simulated on its own
//! engine over its own routes, in telemetry, and loses none of B's flows;
//! those routes are the paths the live tables forward; a fourth
//! over-budget slice is rejected with a structured reason naming the
//! resource and the switch, with no partial install.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt::controller::{output, FailureDetector, SliceController, SliceOpError};
use sdt::core::cluster::{ClusterBuilder, PhysPort};
use sdt::core::methods::SwitchModel;
use sdt::core::walk::{walk_addrs, WalkEnd};
use sdt::openflow::FlowEntry;
use sdt::sim::{DcqcnConfig, EventKind, SimConfig, Simulator};
use sdt::tenancy::{AdmissionError, Slice, SliceAudit, SliceId};
use sdt::topology::chain::chain;
use sdt::topology::dragonfly::dragonfly;
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::mesh;
use sdt::topology::{HostId, SwitchId, Topology};
use std::collections::HashMap;

fn shared_cluster() -> sdt::core::cluster::PhysicalCluster {
    ClusterBuilder::new(SwitchModel::openflow_128x100g(), 3)
        .hosts_per_switch(12)
        .inter_links_per_pair(12)
        .build()
}

fn three_slices(ctl: &mut SliceController) -> (SliceId, SliceId, SliceId) {
    let a = ctl.create("a/fat-tree", &fat_tree(4), "default").unwrap();
    let b = ctl.create("b/dragonfly", &dragonfly(2, 2, 1, 1), "default").unwrap();
    let c = ctl.create("c/mesh", &mesh(&[2, 2]), "default").unwrap();
    (a, b, c)
}

/// Every live entry NOT owned by `skip`, per switch per table, in table
/// order. Priority-ordered tables make this a canonical byte-level view
/// of what co-tenants see on the fabric.
fn entries_excluding(ctl: &SliceController, skip: SliceId) -> Vec<Vec<FlowEntry>> {
    let mgr = ctl.manager();
    let own = mgr.slice(skip).expect("slice exists").owned_space();
    let mut out = Vec::new();
    for sw in mgr.switches() {
        for table in [0u8, 1u8] {
            out.push(
                sw.table(table)
                    .entries()
                    .iter()
                    .filter(|e| match table {
                        0 => !e.m.in_port.is_some_and(|p| own.contains_port(sw.id(), p)),
                        _ => !e.m.metadata.is_some_and(|md| own.contains_metadata(md)),
                    })
                    .copied()
                    .collect(),
            );
        }
    }
    out
}

#[test]
fn three_slices_admitted_with_clean_isolation_audit() {
    let mut ctl = SliceController::new(shared_cluster());
    let (a, b, c) = three_slices(&mut ctl);
    assert_eq!([a, b, c], [SliceId(0), SliceId(1), SliceId(2)]);

    let status = ctl.status();
    assert_eq!(status.slices.len(), 3);
    assert!(status.host_ports_used > 0 && status.host_ports_used <= status.host_ports_total);
    assert!(status.cables_used > 0 && status.cables_used <= status.cables_total);

    let audit = SliceAudit::run(ctl.manager_mut());
    assert!(audit.clean(), "cross-slice audit must be clean: {audit:?}");
    assert!(audit.cross_leaks.is_empty());
    assert!(audit.port_overlaps.is_empty());
    assert!(audit.metadata_overlaps.is_empty());
    assert_eq!(audit.orphan_entries, 0);
    // Every foreign (src-slice, dst-slice) host pair was probed and dropped.
    let hosts = [16usize, 4, 4];
    let expected: usize = (0..3)
        .flat_map(|i| (0..3).filter(move |&j| j != i).map(move |j| hosts[i] * hosts[j]))
        .sum();
    assert_eq!(audit.cross_isolated, expected);
}

/// Every counter the Network Monitor and the failure detector read: per
/// port rx/tx bytes and packets, per table lookups and misses.
fn counters(ctl: &SliceController) -> Vec<String> {
    ctl.manager()
        .switches()
        .iter()
        .map(|sw| {
            let (t0, t1) = (sw.table(0).stats(), sw.table(1).stats());
            format!(
                "{:?} t0 {}/{} t1 {}/{}",
                sw.all_port_stats(),
                t0.lookups,
                t0.misses,
                t1.lookups,
                t1.misses
            )
        })
        .collect()
}

/// What `sdtctl slices` renders after its admissions.
fn render_slices(ctl: &mut SliceController) -> String {
    let status = ctl.status();
    let verify = ctl.manager_mut().verify_report();
    assert!(verify.holds(), "{}", verify.summary());
    assert_eq!(status.orphan_entries, 0);
    output::slices_json(&[], &status, &verify) + &output::slices_human(&[], &status, &verify)
}

/// The operator reports are pure reads: a `slices` listing and a
/// `reconfigure` report leave every port and table counter bit-identical.
/// (They used to replay 1500 B per probe hop into the live port counters.)
#[test]
fn slices_and_reconfigure_reports_move_no_counter() {
    let mut ctl = SliceController::new(shared_cluster());
    let (_a, b, _c) = three_slices(&mut ctl);
    // Background traffic on every slice, so "unchanged" is not "still zero".
    let idle = counters(&ctl);
    SliceAudit::run(ctl.manager_mut());
    let before = counters(&ctl);
    assert_ne!(idle, before, "the probe oracle forwards real packets");

    let listing = render_slices(&mut ctl);
    assert!(listing.contains("\"orphan_entries\":0},\"verify\":{\"scope\":\"slices\""));
    assert_eq!(before, counters(&ctl), "a slices listing moved a counter");

    // `sdtctl reconfigure`: migrate, then render `audit_clean` from the proof.
    let report = ctl.reconfigure(b, &chain(4), "default").unwrap();
    let holds = ctl.manager_mut().verify_report().holds();
    let text = output::reconfigure_json("b/dragonfly", "chain-4", false, &report, None, holds);
    assert!(text.ends_with("\"audit_clean\":true}"), "{text}");
    assert_eq!(before, counters(&ctl), "a reconfigure report moved a counter");
}

/// The failure detector judges a channel dead when its tx counter freezes.
/// A `slices` listing between two polls must not thaw a suspected channel:
/// probe traffic on the live counters would reset the staleness count and
/// hide a dead link for another `DETECT_STALE_POLLS` polls.
#[test]
fn slices_listing_keeps_suspected_channels_suspected() {
    let mut ctl = SliceController::new(shared_cluster());
    let (a, _b, _c) = three_slices(&mut ctl);
    let mut det = FailureDetector::default();
    let poll = |det: &mut FailureDetector, ctl: &SliceController| {
        let s = ctl.manager().slice(a).unwrap();
        det.poll(&s.topology, &s.projection, ctl.manager().switches());
    };
    // One seeding poll, then three frozen ones: the idle fabric is suspect.
    for _ in 0..4 {
        poll(&mut det, &ctl);
    }
    let suspected = det.suspected();
    assert_eq!(suspected.len(), fat_tree(4).fabric_links().count());

    render_slices(&mut ctl);
    poll(&mut det, &ctl);
    assert_eq!(det.suspected(), suspected, "a listing un-froze a suspected channel");
}

#[test]
fn reconfiguring_b_leaves_a_and_c_fabric_state_byte_identical() {
    let mut ctl = SliceController::new(shared_cluster());
    let (a, b, c) = three_slices(&mut ctl);

    let a_installed = ctl.manager().slice(a).unwrap().projection.synthesis.clone();
    let c_installed = ctl.manager().slice(c).unwrap().projection.synthesis.clone();
    let live_before = entries_excluding(&ctl, b);

    let report = ctl.reconfigure(b, &chain(4), "default").unwrap();
    assert!(report.flow_mods() > 0, "a topology change must emit flow-mods");

    assert_eq!(a_installed, ctl.manager().slice(a).unwrap().projection.synthesis);
    assert_eq!(c_installed, ctl.manager().slice(c).unwrap().projection.synthesis);
    assert_eq!(
        live_before,
        entries_excluding(&ctl, b),
        "B's epoch must not add, delete, or reorder any co-tenant entry"
    );
    assert!(SliceAudit::run(ctl.manager_mut()).clean());
}

/// One engine's telemetry: its FCT summary, every flow's record and the
/// bytes each fabric channel carried.
fn telemetry(sim: &Simulator) -> String {
    let fabric: Vec<_> = sim.utilization_report().iter().map(|u| (u.from, u.to, u.bytes)).collect();
    format!("{:?} {:?} {fabric:?}", sim.fct_summary(), sim.flow_records())
}

/// The headline acceptance check, with DCQCN off and on. Each slice's
/// workload, an incast, runs on its own engine over the routes its tables
/// realize. In one universe B reconfigures to a chain mid-run: its old
/// engine drains the flows in flight, and a second engine, built on the
/// reconfigured slice, carries the flows that start after the cutover. In
/// the control universe B never reconfigures. A's and C's telemetry is the
/// same in both, and the cutover loses nothing.
#[test]
fn mid_run_reconfigure_of_b_keeps_a_and_c_telemetry_byte_identical() {
    for dcqcn in [None, Some(DcqcnConfig::default())] {
        let cfg = SimConfig { dcqcn, ..SimConfig::default() };
        // The engines in slice order, then B's second engine if it reconfigured.
        let drive = |reconfigure_b: bool| -> Vec<Simulator> {
            let mut ctl = SliceController::new(shared_cluster());
            let (_a, b, _c) = three_slices(&mut ctl);
            let engine = |s: &Slice| Simulator::new(&s.topology, s.routes.clone(), cfg.clone());
            let mut sims: Vec<Simulator> = ctl.manager().slices().map(engine).collect();
            for (sim, dst) in sims.iter_mut().zip([15, 3, 3]) {
                for src in 0..3 {
                    sim.start_raw_flow(HostId(src), HostId(dst), 400_000);
                }
            }
            for sim in &mut sims {
                sim.set_time_limit(50_000);
                sim.run();
            }
            let cutover_ns = sims[1].now_ns();
            if reconfigure_b {
                ctl.reconfigure(b, &chain(4), "default").unwrap();
                sims.push(engine(ctl.manager().slice(b).unwrap()));
            }
            // Every slice keeps injecting after the (potential) cutover;
            // B's new flow goes to whichever engine carries its new flows.
            sims[0].start_raw_flow(HostId(5), HostId(9), 200_000);
            sims[2].start_raw_flow(HostId(1), HostId(2), 150_000);
            let b_new = if reconfigure_b { 3 } else { 1 };
            sims[b_new].schedule_raw_flow(HostId(1), HostId(2), 250_000, cutover_ns);
            for sim in &mut sims {
                sim.set_time_limit(0);
                sim.run();
            }
            sims
        };

        let control = drive(false);
        let cutover = drive(true);
        let on = if dcqcn.is_some() { "on" } else { "off" };
        for slice in [0usize, 2] {
            assert_eq!(
                telemetry(&control[slice]),
                telemetry(&cutover[slice]),
                "DCQCN {on}: slice {slice} telemetry diverged"
            );
        }
        // Sanity: B itself DID diverge (its later flow crossed a different
        // topology), so the A/C equality above is not vacuous.
        assert_ne!(
            telemetry(&control[1]),
            telemetry(&cutover[1]) + &telemetry(&cutover[3]),
            "DCQCN {on}: B's telemetry should reflect the cutover"
        );
        // The cutover loses nothing: every flow of every slice finishes,
        // B's on its old or its new engine, and no engine drops a cell.
        for (i, sim) in cutover.iter().enumerate() {
            let unfinished = sim.flow_records().iter().filter(|r| r.fct_ns.is_none()).count();
            assert_eq!(unfinished, 0, "DCQCN {on}: engine {i} left flows unfinished");
            assert_eq!(sim.stats().drops, 0, "DCQCN {on}: engine {i} dropped cells");
        }
        assert_eq!(cutover[1].num_flows() + cutover[3].num_flows(), 4);
        // With DCQCN on, every incast is marked: the senders see CNPs.
        let cnps = |sim: &Simulator| sim.stats().events_by_kind[EventKind::Cnp as usize];
        assert_eq!(cutover[..3].iter().all(|s| cnps(s) > 0), dcqcn.is_some(), "DCQCN {on}");
    }
}

/// The engine runs the routes the tables realize: for every admitted slice
/// and every host pair on distinct attachment switches, the packet walk
/// through the live shared switches, mapped hop by hop from (physical
/// switch, in-port) to the logical switch owning that port, is the slice's
/// route — before and after a co-tenant reconfigures.
#[test]
fn slice_routes_are_the_paths_the_live_tables_forward() {
    let mut ctl = SliceController::new(shared_cluster());
    let (_a, b, _c) = three_slices(&mut ctl);
    let check = |ctl: &SliceController| -> usize {
        let mgr = ctl.manager();
        let mut pairs = 0;
        let mut switches = mgr.switches().to_vec();
        for s in mgr.slices() {
            let logical: HashMap<PhysPort, SwitchId> =
                s.projection.port_of.iter().map(|(&(sw, _), &pp)| (pp, sw)).collect();
            let hosts = || (0..s.topology.num_hosts()).map(HostId);
            for (src, dst) in hosts().flat_map(|a| hosts().map(move |b| (a, b))) {
                let (sa, sb) = (s.topology.host_switch(src), s.topology.host_switch(dst));
                if sa == sb {
                    continue;
                }
                let pair = format!("{} h{}->h{}", s.name, src.0, dst.0);
                let start = s.projection.primary_host_port(&s.topology, src);
                let (from, to) = (s.host_addr(src), s.host_addr(dst));
                let (end, path) = walk_addrs(mgr.cluster(), &mut switches, start, from, to);
                assert!(matches!(end, WalkEnd::Egress(_)), "{pair}: {end:?}");
                let walked: Vec<SwitchId> = path
                    .iter()
                    .map(|&(sw, port, _)| logical[&PhysPort { switch: sw, port }])
                    .collect();
                assert_eq!(walked, s.routes.route(sa, sb).hops, "{pair}");
                pairs += 1;
            }
        }
        pairs
    };
    // Fat-tree k=4: 16 hosts, two per edge switch; dragonfly, mesh and
    // chain: 4 hosts on 4 switches.
    assert_eq!(check(&ctl), 16 * 14 + 12 + 12);
    ctl.reconfigure(b, &chain(4), "default").unwrap();
    assert_eq!(check(&ctl), 16 * 14 + 12 + 12);
}

#[test]
fn over_budget_fourth_slice_is_rejected_structurally_with_no_partial_install() {
    let mut ctl = SliceController::new(shared_cluster());
    let (_a, b, _c) = three_slices(&mut ctl);

    let snapshot = |ctl: &SliceController| {
        let st = ctl.status();
        (
            st.slices.len(),
            st.host_ports_used,
            st.cables_used,
            st.switches.iter().map(|s| s.used).collect::<Vec<_>>(),
        )
    };
    let before = snapshot(&ctl);
    let live_before = entries_excluding(&ctl, b); // arbitrary skip: stable view

    // fat_tree(8) wants 128 hosts; at most 6 host ports remain per switch.
    let err = ctl.create("d/fat-tree-k8", &fat_tree(8), "default").unwrap_err();
    let SliceOpError::Admission(AdmissionError::Resources(proj)) = err else {
        panic!("expected a structured resource rejection, got: {err}");
    };
    let msg = proj.to_string();
    assert!(
        msg.contains("switch"),
        "rejection must name the physical switch: {msg}"
    );
    assert!(
        msg.contains("port") || msg.contains("link") || msg.contains("entries"),
        "rejection must name the scarce resource: {msg}"
    );

    assert_eq!(before, snapshot(&ctl), "rejection must not change occupancy");
    assert_eq!(
        live_before,
        entries_excluding(&ctl, b),
        "rejection must not install a single flow entry"
    );
    assert!(SliceAudit::run(ctl.manager_mut()).clean());
}

#[test]
fn destroy_then_readmit_reuses_the_freed_budget() {
    let mut ctl = SliceController::new(shared_cluster());
    let (_a, b, _c) = three_slices(&mut ctl);

    // 24 of 36 host ports are held; a 16-host chain cannot fit per-switch
    // port budgets while B is resident.
    assert!(ctl.create("d/chain", &chain(16), "default").is_err());
    let reclaimed = ctl.destroy(b).unwrap();
    assert!(reclaimed.host_ports > 0 && reclaimed.flow_entries > 0);
    // B's exact footprint was just released, so an identical topology must
    // be admissible again.
    let d = ctl
        .create("d/dragonfly", &dragonfly(2, 2, 1, 1), "default")
        .expect("freed budget must be admissible again");
    let row = ctl.status().slices.iter().find(|s| s.id == d).unwrap().clone();
    assert_eq!(row.host_ports, reclaimed.host_ports);
    assert!(SliceAudit::run(ctl.manager_mut()).clean());
}

#[test]
fn slice_topologies_round_trip_through_status() {
    let mut ctl = SliceController::new(shared_cluster());
    let topos: Vec<Topology> = vec![fat_tree(4), dragonfly(2, 2, 1, 1), mesh(&[2, 2])];
    for t in &topos {
        ctl.create(t.name(), t, "default").unwrap();
    }
    let status = ctl.status();
    for (s, t) in status.slices.iter().zip(&topos) {
        assert_eq!(s.topology, t.name());
        assert_eq!(s.switches, t.num_switches());
        assert_eq!(s.hosts, t.num_hosts());
        assert_eq!(s.host_ports, t.num_hosts() as usize);
    }
}
