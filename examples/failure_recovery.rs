//! Failure recovery end to end: fault injection → detection → incremental
//! repair over a lossy control channel → graceful degradation.
//!
//! Phase 1 cuts a cable of a deployed 4x4 torus and lets the controller
//! repair it *incrementally*: the same logical topology is re-projected
//! with the dead cable swapped for a spare and every healthy cable pinned
//! in place, so the flow-mod diff scales with the damage, not the
//! topology. The control channel drops 25% of flow-mods on the way; the
//! retry/backoff loop reconciles anyway.
//!
//! Phase 2 crashes a whole sub-switch — no spare cable can fix that — so
//! recovery degrades: the surviving topology is re-routed, cut-off host
//! pairs are reported (not silently blackholed), and the flow tables still
//! realize exactly what survived.
//!
//! Run with: `cargo run --release --example failure_recovery`

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt::controller::{FailureReport, SdtController, DETECTION_NS};
use sdt::core::cluster::ClusterBuilder;
use sdt::core::methods::SwitchModel;
use sdt::core::walk::IsolationReport;
use sdt::openflow::{ControlChannel, ControlConfig};
use sdt::sim::{FaultSchedule, SimConfig, Simulator};
use sdt::topology::meshtorus::torus;
use sdt::topology::{HostId, SwitchId};

fn main() {
    // A 4x4 torus needs 8 inter-switch cables on this 2-switch cluster;
    // wire 10 so spares exist for cable-level recovery.
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(10)
        .build();
    let mut ctl = SdtController::new(cluster);
    let topo = torus(&[4, 4]);
    let d = ctl.deploy(&topo).unwrap();
    let full_install: usize = d.projection.synthesis.entries_per_switch.iter().sum();
    println!("deployed {} ({} flow entries) in {:.1} ms", topo.name(), full_install,
        d.deploy_time_ns as f64 / 1e6);

    // The scenario: cut s0<->s1 permanently at 2 ms, flap s2<->s6, and a
    // control channel that silently drops a quarter of all flow-mods.
    let control = ControlConfig { drop_prob: 0.25, reorder_prob: 0.05, delay_ns: 100_000, seed: 7 };
    let mut schedule = FaultSchedule::new().with_control(control);
    schedule.link_down(SwitchId(0), SwitchId(1), 2_000_000);
    schedule.link_flap(SwitchId(2), SwitchId(6), 3_000_000, 800_000);

    // Replay the data-plane faults under live traffic.
    let mut sim = Simulator::new(&topo, d.routes.clone(),
        SimConfig { max_sim_ns: 20_000_000, ..SimConfig::testbed_10g() });
    sim.apply_fault_schedule(&schedule);
    let doomed = sim.start_raw_flow(HostId(0), HostId(1), 4_000_000);
    let safe = sim.start_raw_flow(HostId(8), HostId(12), 4_000_000);
    sim.run();
    println!("\nunder faults: flow over the cut link delivered {} of 4000000 bytes,",
        sim.flow_stats(doomed).bytes_delivered);
    println!("              unaffected flow delivered {} (finished: {})",
        sim.flow_stats(safe).bytes_delivered, sim.flow_stats(safe).finish.is_some());
    assert!(!sim.link_is_up(SwitchId(0), SwitchId(1)), "the cut is permanent");
    assert!(sim.link_is_up(SwitchId(2), SwitchId(6)), "the flap healed itself");

    // Phase 1: cable-level fault. The flap healed; only the permanent cut
    // survives the schedule, and a spare cable absorbs it.
    let report = FailureReport {
        dead_links: schedule.final_link_cuts(),
        dead_switches: schedule.unrecovered_crashes(),
    };
    assert_eq!(report.dead_links, vec![(SwitchId(0), SwitchId(1))]);
    let mut ch = ControlChannel::new(schedule.control);
    let out = ctl.recover(d, &report, &mut ch).unwrap();
    println!("\nphase 1 — incremental repair over a 25%-lossy control channel:");
    println!("  {} flow-mods sent in {} rounds ({} retries, {:.1} ms backoff) vs {} full install",
        out.retry.sends, out.retry.attempts, out.retry.retries,
        out.retry.backoff_ns as f64 / 1e6, full_install);
    println!("  modeled recovery time {:.1} ms (detection {:.1} ms + reconciliation)",
        out.recovery_time_ns as f64 / 1e6, DETECTION_NS as f64 / 1e6);
    assert!(out.retry.converged, "reconciliation must converge");
    assert!(!out.degraded, "a spare cable means nothing was lost");
    assert!(out.unreachable_pairs.is_empty());
    assert!((out.retry.sends as usize) < full_install / 2,
        "the diff scales with the damage, not the topology");
    let mut switches = out.deployment.switches;
    let audit = IsolationReport::audit_on(ctl.cluster(), &mut switches,
        &out.deployment.projection, &out.deployment.topology);
    assert!(audit.clean() && audit.delivered == 16 * 15,
        "the live tables realize the full torus again");
    println!("  audit: all {} host pairs delivered, zero violations", audit.delivered);
    let d = sdt::controller::Deployment { switches, ..out.deployment };

    // Phase 2: sub-switch crash. No cable can fix a dead switch; recovery
    // degrades around it and names what was lost.
    let report = FailureReport { dead_links: vec![], dead_switches: vec![SwitchId(1)] };
    let mut ch = ControlChannel::reliable();
    let out = ctl.recover(d, &report, &mut ch).unwrap();
    println!("\nphase 2 — switch 1 crashed, no spare can help:");
    println!("  degraded={}, {} host pairs reported unreachable, {} flow-mods to reroute",
        out.degraded, out.unreachable_pairs.len(), out.retry.sends);
    assert!(out.degraded);
    assert!(out.retry.converged);
    // Host 1 sits on the dead switch: 15 ordered pairs each way.
    assert_eq!(out.unreachable_pairs.len(), 30);
    assert!(out.unreachable_pairs.iter().all(|&(a, b)| a == HostId(1) || b == HostId(1)));
    let mut switches = out.deployment.switches;
    let audit = IsolationReport::audit_on(ctl.cluster(), &mut switches,
        &out.deployment.projection, &out.deployment.topology);
    assert!(audit.clean(), "{:?}", audit.violations);
    assert_eq!(audit.delivered, 15 * 14);
    assert_eq!(audit.isolated, 30);
    println!("  audit: {} surviving pairs delivered, {} severed pairs isolated, zero leaks",
        audit.delivered, audit.isolated);
    println!("\nfailures became flow-table diffs; nothing was re-cabled by hand.");
}
