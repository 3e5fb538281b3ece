//! Chaos harness: random fault schedules replayed against the full stack.
//!
//! Each scenario is generated from nothing but a seed: the schedule
//! ([`FaultSchedule::random`]), the traffic, the control-channel
//! misbehavior and the recovery all derive from it deterministically, so
//! the whole run — including every retry the controller makes over a
//! lossy control channel — serializes to a telemetry string that is
//! byte-identical across replays. A failing seed is therefore a complete
//! bug report; replay it with
//!
//! ```text
//! SDT_CHAOS_SEED=<seed> cargo test --test chaos chaos_randomized
//! ```
//!
//! After every recovery the harness asserts the projection invariant:
//! the *live* flow tables (stale entries, dropped flow-mods and all, once
//! reconciliation converges) realize exactly the surviving logical
//! topology — every still-connected host pair delivered, every severed
//! pair isolated, nothing leaked — and the rerouted tables never
//! introduce a channel-dependency cycle.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt::controller::{FailureReport, RecoveryOutcome, SdtController, DETECTION_NS};
use sdt::core::cluster::ClusterBuilder;
use sdt::core::methods::SwitchModel;
use sdt::core::walk::IsolationReport;
use sdt::openflow::{ControlChannel, ControlConfig};
use sdt::routing::cdg::analyze;
use sdt::sim::{FaultSchedule, Granularity, SimConfig, Simulator};
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::torus;
use sdt::topology::{HostId, SwitchId, Topology};
use std::fmt::Write as _;

/// The cluster every scenario runs on: 2 physical switches with enough
/// spare inter-switch cables that single-link faults are usually fully
/// recoverable (and multi-fault scenarios exercise the degradation path).
fn chaos_cluster() -> sdt::core::cluster::PhysicalCluster {
    ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(24)
        .build()
}

/// The topology pool chaos seeds draw from.
fn chaos_topology(ix: usize) -> Topology {
    match ix % 3 {
        0 => fat_tree(4),
        1 => torus(&[4, 4]),
        _ => torus(&[2, 2, 2]),
    }
}

/// Replay one full chaos scenario and return its telemetry string.
///
/// Panics if any post-recovery invariant is violated, so every test that
/// calls this is an invariant check; the returned string exists for the
/// determinism assertions (same seed ⇒ byte-identical telemetry).
fn run_chaos(seed: u64, topo: &Topology) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "seed={seed} topo={}", topo.name());

    // Deploy the intact topology.
    let mut ctl = SdtController::new(chaos_cluster());
    let d = ctl.deploy(topo).expect("intact topology must deploy");

    // Draw the scenario.
    let schedule = FaultSchedule::random(seed, topo);
    let _ = writeln!(
        t,
        "control: drop={:?} reorder={:?} delay={}",
        schedule.control.drop_prob, schedule.control.reorder_prob, schedule.control.delay_ns
    );
    for f in schedule.events() {
        let _ = writeln!(t, "fault: at={} {:?}", f.at_ns, f.event);
    }

    // Replay the data-plane faults in the simulator with background
    // traffic (the same traffic the failure detector would be watching).
    let mut sim = Simulator::new(
        topo,
        d.routes.clone(),
        SimConfig { max_sim_ns: 20_000_000, ..SimConfig::testbed_10g() },
    );
    sim.apply_fault_schedule(&schedule);
    let n = topo.num_hosts();
    let flows: Vec<_> = (0..n.min(8))
        .map(|i| sim.start_raw_flow(HostId(i), HostId((i + n / 2) % n), 100_000))
        .collect();
    let outcome = sim.run();
    let s = sim.stats();
    let _ = writeln!(
        t,
        "sim: outcome={outcome:?} events={} delivered_cells={} drops={} sim_ns={}",
        s.events, s.cells_delivered, s.drops, s.sim_ns
    );
    for f in flows {
        let fs = sim.flow_stats(f);
        let _ = writeln!(
            t,
            "flow {}->{}: delivered={} finish={:?}",
            fs.src_host, fs.dst_host, fs.bytes_delivered, fs.finish
        );
    }

    // What the schedule left broken is what the controller must fix.
    let report = FailureReport {
        dead_links: schedule.final_link_cuts(),
        dead_switches: schedule.unrecovered_crashes(),
    };
    let _ = writeln!(
        t,
        "report: dead_links={:?} dead_switches={:?}",
        report.dead_links, report.dead_switches
    );

    let mut ch = ControlChannel::new(schedule.control);
    match ctl.recover(d, &report, &mut ch) {
        Ok(out) => {
            let _ = writeln!(
                t,
                "recovery: degraded={} unreachable={} rounds={} retries={} mods={} \
                 backoff_ns={} elapsed_ns={} converged={}",
                out.degraded,
                out.unreachable_pairs.len(),
                out.retry.attempts,
                out.retry.retries,
                out.retry.sends,
                out.retry.backoff_ns,
                out.retry.install_ns,
                out.retry.converged
            );
            let _ = writeln!(
                t,
                "channel: sent={} dropped={} delivered={}",
                ch.sent(),
                ch.dropped(),
                ch.delivered()
            );
            check_invariants(&ctl, out, &mut t);
        }
        // A refusal is only legitimate when the faults genuinely exhaust
        // the spare cables — and the controller must say so, not wedge.
        Err(e) => {
            assert!(
                matches!(e, sdt::controller::DeployError::Projection(_)),
                "only resource exhaustion may refuse recovery, got: {e}"
            );
            let _ = writeln!(t, "recovery: refused ({e})");
        }
    }
    t
}

/// The projection invariant, checked on the LIVE switches.
fn check_invariants(ctl: &SdtController, out: RecoveryOutcome, t: &mut String) {
    // Rerouting must never introduce a deadlock: the recovered route
    // table's channel dependency graph stays acyclic.
    assert!(
        analyze(&out.deployment.routes).is_free(),
        "recovery introduced a channel-dependency cycle"
    );
    // The repaired synthesis passed the pre-install static gate (the
    // controller refuses to send a single flow-mod otherwise).
    if !out.retry.converged {
        // The control channel defeated the retry budget. The invariant
        // here is honesty: the controller must *know* the tables are
        // stale, which `converged == false` is. (The audit would fail.)
        let _ = writeln!(t, "audit: skipped (reconciliation gave up)");
        return;
    }
    let mut switches = out.deployment.switches;
    // Static verification of the LIVE post-recovery tables — before the
    // probe audit touches them, so the pass is provably packet-free.
    let static_report = {
        let v = sdt::verify::Verifier::check(
            ctl.cluster(),
            sdt::verify::TableView::of_switches(&switches),
            sdt::verify::Intent::of_projection(
                &out.deployment.projection,
                &out.deployment.topology,
                out.deployment.topology.name(),
            ),
        );
        v.report().clone()
    };
    assert!(
        static_report.holds(),
        "static verifier rejects the recovered tables: {}",
        static_report.summary()
    );
    let _ = writeln!(t, "static-verify: {}", static_report.summary());
    let audit = IsolationReport::audit_on(
        ctl.cluster(),
        &mut switches,
        &out.deployment.projection,
        &out.deployment.topology,
    );
    // Differential: the symbolic closure and the probe matrix agree.
    assert_eq!(static_report.delivered_pairs, audit.delivered, "static vs probe delivered");
    assert_eq!(static_report.isolated_pairs, audit.isolated, "static vs probe isolated");
    assert!(audit.clean(), "isolation violated after recovery: {:?}", audit.violations);
    // Every host pair is accounted for: connected pairs delivered,
    // severed pairs isolated — exactly the surviving logical topology.
    let h = out.deployment.topology.num_hosts() as usize;
    assert_eq!(
        audit.delivered + audit.isolated,
        h * (h - 1),
        "audit must account for every ordered host pair"
    );
    assert_eq!(
        audit.isolated,
        out.unreachable_pairs.len(),
        "isolated pairs must be exactly the reported unreachable pairs"
    );
    let _ = writeln!(t, "audit: delivered={} isolated={}", audit.delivered, audit.isolated);
}

/// Acceptance: three pinned seeds, each replayed twice — the runs must
/// agree byte-for-byte, and each run's invariants must hold (asserted
/// inside `run_chaos`).
#[test]
fn chaos_pinned_seeds_are_deterministic() {
    for (seed, topo_ix) in [(11u64, 0usize), (23, 1), (47, 2)] {
        let topo = chaos_topology(topo_ix);
        let a = run_chaos(seed, &topo);
        let b = run_chaos(seed, &topo);
        assert_eq!(a, b, "seed {seed} must replay byte-identically");
        // The pinned scenarios are chosen to actually recover, so the
        // determinism check covers the whole retry/audit path.
        assert!(a.contains("converged=true"), "seed {seed} telemetry:\n{a}");
        assert!(a.contains("audit: delivered="), "seed {seed} telemetry:\n{a}");
    }
}

/// A fresh seed every run (or `SDT_CHAOS_SEED` to replay). The seed is
/// printed first so a failure log always carries the replay command.
#[test]
fn chaos_randomized_seed_survives() {
    let seed = match std::env::var("SDT_CHAOS_SEED") {
        Ok(s) => s.parse::<u64>().expect("SDT_CHAOS_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos() as u64,
    };
    println!("chaos seed = {seed}");
    println!("replay with: SDT_CHAOS_SEED={seed} cargo test --test chaos chaos_randomized");
    for ix in 0..3 {
        let topo = chaos_topology(ix);
        let a = run_chaos(seed.wrapping_add(ix as u64), &topo);
        let b = run_chaos(seed.wrapping_add(ix as u64), &topo);
        assert_eq!(a, b, "seed {seed}+{ix} must replay byte-identically");
    }
}

/// Acceptance: a scenario with flow-mod loss demonstrably drives the
/// retry/backoff path, visible in the controller's retry counters.
#[test]
fn chaos_flow_mod_loss_triggers_retry_and_backoff() {
    let topo = fat_tree(4);
    let mut ctl = SdtController::new(chaos_cluster());
    let d = ctl.deploy(&topo).unwrap();
    let first = d.topology.fabric_links().next().unwrap();
    let dead = (first.a.as_switch().unwrap(), first.b.as_switch().unwrap());
    // The channel seed `FaultSchedule::random(7, ..)` derives.
    let seed = 7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let control = ControlConfig { drop_prob: 0.35, reorder_prob: 0.1, delay_ns: 200_000, seed };
    let mut schedule = FaultSchedule::new().with_control(control);
    schedule.link_down(dead.0, dead.1, 1_000_000);
    let report = FailureReport {
        dead_links: schedule.final_link_cuts(),
        dead_switches: schedule.unrecovered_crashes(),
    };
    assert_eq!(report.dead_links, vec![(dead.0.min(dead.1), dead.0.max(dead.1))]);

    let mut ch = ControlChannel::new(schedule.control);
    let out = ctl.recover(d, &report, &mut ch).unwrap();
    assert!(out.retry.converged, "{:?}", out.retry);
    assert!(out.retry.retries > 0, "35% flow-mod loss must trigger retries: {:?}", out.retry);
    assert!(out.retry.backoff_ns > 0, "retries must pay exponential backoff");
    assert!(ch.dropped() > 0, "the channel must actually have dropped mods");
    assert_eq!(out.retry.sends, ch.sent(), "retry counters mirror the channel");
    // Detection + retries + backoff all land in the recovery-time model.
    assert!(out.recovery_time_ns >= DETECTION_NS + out.retry.backoff_ns);

    let mut switches = out.deployment.switches;
    let audit = IsolationReport::audit_on(
        ctl.cluster(),
        &mut switches,
        &out.deployment.projection,
        &out.deployment.topology,
    );
    assert!(audit.clean(), "{:?}", audit.violations);
}

/// Differential check: the packet-granular "testbed" engine and the
/// flit-granular "simulator" engine agree on which flows complete and
/// which are cut off by the surviving fault set.
#[test]
fn chaos_packet_and_flit_engines_agree_on_flow_outcomes() {
    let topo = torus(&[2, 2, 2]);
    let strategy = sdt::routing::default_strategy(&topo);
    let routes = sdt::routing::RouteTable::build(&topo, strategy.as_ref());

    // Two permanent cuts + one flap, fixed so the reachable set is stable.
    let mut schedule = FaultSchedule::new();
    schedule.link_down(SwitchId(0), SwitchId(1), 0);
    schedule.link_down(SwitchId(2), SwitchId(3), 0);
    schedule.link_flap(SwitchId(4), SwitchId(5), 1_000_000, 500_000);

    let completions = |granularity: Granularity| -> Vec<(u32, bool)> {
        let cfg = SimConfig {
            granularity,
            max_sim_ns: 400_000_000,
            ..SimConfig::testbed_10g()
        };
        let mut sim = Simulator::new(&topo, routes.clone(), cfg);
        sim.apply_fault_schedule(&schedule);
        let n = topo.num_hosts();
        let flows: Vec<_> = (0..n)
            .flat_map(|i| {
                // Every ordered pair at distance 1..n of host indices.
                [(i, (i + 1) % n), (i, (i + 3) % n)]
            })
            .filter(|(a, b)| a != b)
            .map(|(a, b)| sim.start_raw_flow(HostId(a), HostId(b), 30_000))
            .collect();
        sim.run();
        flows.iter().map(|&f| (f, sim.flow_stats(f).finish.is_some())).collect()
    };

    let packet = completions(Granularity::Packet);
    let flit = completions(Granularity::Flit);
    assert_eq!(
        packet, flit,
        "packet and flit engines must agree on which flows complete"
    );
    // The scenario must actually discriminate: some flows die on the cuts.
    assert!(packet.iter().any(|&(_, done)| done), "some flows must complete");
    assert!(packet.iter().any(|&(_, done)| !done), "some flows must be cut off");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary fault schedules on the topology pool: post-recovery flow
    /// tables never cross isolation domains and the channel dependency
    /// graph stays acyclic. (The sim phase is skipped here — recovery
    /// correctness is independent of the traffic — to keep cases fast.)
    #[test]
    fn arbitrary_fault_schedules_recover_cleanly(seed in any::<u64>(), topo_ix in 0usize..3) {
        let topo = chaos_topology(topo_ix);
        let mut ctl = SdtController::new(chaos_cluster());
        let d = ctl.deploy(&topo).unwrap();
        let schedule = FaultSchedule::random(seed, &topo);
        let report = FailureReport {
            dead_links: schedule.final_link_cuts(),
            dead_switches: schedule.unrecovered_crashes(),
        };
        let mut ch = ControlChannel::new(schedule.control);
        match ctl.recover(d, &report, &mut ch) {
            Ok(out) => {
                prop_assert!(analyze(&out.deployment.routes).is_free());
                if out.retry.converged {
                    let mut switches = out.deployment.switches;
                    let v = sdt::verify::Verifier::check(
                        ctl.cluster(),
                        sdt::verify::TableView::of_switches(&switches),
                        sdt::verify::Intent::of_projection(
                            &out.deployment.projection,
                            &out.deployment.topology,
                            out.deployment.topology.name(),
                        ),
                    );
                    prop_assert!(v.holds(), "{}", v.report().summary());
                    let audit = IsolationReport::audit_on(
                        ctl.cluster(),
                        &mut switches,
                        &out.deployment.projection,
                        &out.deployment.topology,
                    );
                    prop_assert!(audit.clean(), "{:?}", audit.violations);
                    let h = out.deployment.topology.num_hosts() as usize;
                    prop_assert_eq!(audit.delivered + audit.isolated, h * (h - 1));
                    prop_assert_eq!(audit.isolated, out.unreachable_pairs.len());
                }
            }
            Err(e) => prop_assert!(
                matches!(e, sdt::controller::DeployError::Projection(_)),
                "unexpected refusal: {}", e
            ),
        }
    }
}
