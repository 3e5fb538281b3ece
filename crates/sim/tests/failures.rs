//! Failure-injection tests: dead links lose traffic, the Network Monitor
//! sees them, and adaptive routing steers new flows around them.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_routing::dragonfly::{DragonflyMinimal, DragonflyUgal};
use sdt_routing::{generic::Bfs, RouteTable};
use sdt_sim::{FaultSchedule, SimConfig, SimOutcome, Simulator};
use sdt_topology::chain::{chain, ring};
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::{HostId, SwitchId};

#[test]
fn failed_link_stops_delivery_on_a_chain() {
    // A chain has no alternate path: after the cut, the flow cannot finish.
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let cfg = SimConfig {
        lossless: false, // avoid the deadlock watchdog; drops are expected
        max_sim_ns: 20_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&t, routes, cfg);
    let f = sim.start_raw_flow(HostId(0), HostId(3), 10_000_000);
    sim.apply_fault_schedule(FaultSchedule::new().link_down(SwitchId(1), SwitchId(2), 1_000_000));
    sim.run();
    let st = sim.flow_stats(f);
    assert!(st.finish.is_none(), "flow cannot complete across a severed chain");
    // Roughly 1 ms of 10G made it through before the cut.
    assert!(st.bytes_delivered > 0);
    assert!(st.bytes_delivered < 3_000_000, "{}", st.bytes_delivered);
}

#[test]
fn failure_before_start_blocks_everything() {
    let t = chain(3);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let cfg =
        SimConfig { lossless: false, max_sim_ns: 5_000_000, ..SimConfig::default() };
    let mut sim = Simulator::new(&t, routes, cfg);
    sim.apply_fault_schedule(FaultSchedule::new().link_down(SwitchId(0), SwitchId(1), 0));
    let f = sim.start_raw_flow(HostId(0), HostId(2), 100_000);
    sim.run();
    assert_eq!(sim.flow_stats(f).bytes_delivered, 0);
}

#[test]
fn ring_survives_failure_with_rerouted_new_flows() {
    // On a ring there IS an alternate path. Static shortest-path flows die
    // with the link; flows created after the next monitor tick are routed
    // the long way by the load-aware strategy.
    let t = ring(6);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let cfg = SimConfig {
        lossless: false,
        monitor_interval_ns: 500_000,
        max_sim_ns: 60_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&t, routes, cfg);
    // BFS ignores loads, so no rebuild would reroute: check the monitor's
    // view of the dead link directly.
    sim.apply_fault_schedule(FaultSchedule::new().link_down(SwitchId(0), SwitchId(1), 1_000_000));
    let f = sim.start_raw_flow(HostId(0), HostId(1), 50_000_000);
    sim.run();
    // Monitor flagged the dead channel as saturated.
    let loads = &sim.last_loads;
    assert!(loads.get(SwitchId(0), SwitchId(1)) > 1e5);
    assert!(loads.get(SwitchId(2), SwitchId(3)) < 1.5);
    let _ = f;
}

#[test]
fn dragonfly_ugal_routes_around_a_failed_global_link() {
    // Kill the direct global link between two groups mid-run: UGAL's next
    // rebuild sees the saturated channel and detours new flows via other
    // groups, so traffic keeps completing.
    let topo = dragonfly(4, 9, 2, 2);
    let minimal = DragonflyMinimal::new(4, 9, 2, 2, &topo);
    let routes = RouteTable::build(&topo, &minimal);
    // Find the global link between group 0 and group 1.
    let min_route = routes.route(SwitchId(0), SwitchId(4 + 1));
    let global_hop = min_route
        .hops
        .windows(2)
        .find(|w| (w[0].0 / 4) != (w[1].0 / 4))
        .map(|w| (w[0], w[1]))
        .expect("cross-group route has a global hop");

    let cfg = SimConfig {
        lossless: false,
        monitor_interval_ns: 200_000,
        max_sim_ns: 10_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&topo, routes, cfg);
    sim.set_adaptive(Box::new(DragonflyUgal::new(4, 9, 2, 2, &topo)));
    sim.apply_fault_schedule(FaultSchedule::new().link_down(global_hop.0, global_hop.1, 500_000));
    // Warm-up flow saturates the (soon dead) minimal path; run 10 ms so the
    // monitor has seen the failure.
    sim.start_raw_flow(HostId(0), HostId(10), 1_000_000);
    sim.run();
    // After the failure + monitor ticks, start fresh group-0 -> group-1
    // traffic: it must complete via a detour.
    sim.set_time_limit(300_000_000);
    let f = sim.start_raw_flow(HostId(1), HostId(11), 2_000_000);
    let out = sim.run();
    assert_eq!(out, SimOutcome::Completed);
    let st = sim.flow_stats(f);
    assert_eq!(st.bytes_delivered, 2_000_000, "detoured flow must finish");
}

// ---- fault-schedule driven tests (link flaps, crashes, degradation) ----


#[test]
fn tcp_flow_survives_a_link_flap_under_pfc() {
    // Lossless chain, go-back-N TCP: the flap loses a window of cells, the
    // retransmission path recovers them once the link is back, and no
    // upstream credit is leaked by the in-flap drops.
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let cfg = SimConfig {
        lossless: true,
        max_sim_ns: 200_000_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&t, routes, cfg);
    let mut sched = FaultSchedule::new();
    sched.link_flap(SwitchId(1), SwitchId(2), 1_000_000, 2_000_000);
    sim.apply_fault_schedule(&sched);
    let f = sim.start_tcp_flow(HostId(0), HostId(3), 3_000_000);
    let out = sim.run();
    assert_eq!(out, SimOutcome::Completed, "flap must not wedge the fabric");
    let st = sim.flow_stats(f);
    assert_eq!(st.bytes_delivered, 3_000_000);
    assert!(sim.stats().drops > 0, "the flap must actually lose frames");
    assert!(sim.credits_intact(), "dead-link drops must return PFC credits");
}

#[test]
fn flap_recovery_restores_the_link_state() {
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let cfg = SimConfig { lossless: true, max_sim_ns: 50_000_000, ..SimConfig::default() };
    let mut sim = Simulator::new(&t, routes, cfg);
    let mut sched = FaultSchedule::new();
    sched.link_flap(SwitchId(1), SwitchId(2), 1_000_000, 2_000_000);
    sim.apply_fault_schedule(&sched);
    let f = sim.start_tcp_flow(HostId(0), HostId(3), 150_000);
    sim.run();
    assert!(sim.link_is_up(SwitchId(1), SwitchId(2)));
    assert_eq!(sim.flow_stats(f).bytes_delivered, 150_000);
}

#[test]
fn switch_crash_then_restart_lets_tcp_finish() {
    // Crash the middle switch of a chain: every path dies; after restart,
    // RTO-driven retransmission completes the transfer.
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let cfg = SimConfig { lossless: true, max_sim_ns: 300_000_000, ..SimConfig::default() };
    let mut sim = Simulator::new(&t, routes, cfg);
    let mut sched = FaultSchedule::new();
    sched.switch_crash(SwitchId(2), 500_000);
    sched.switch_restart(SwitchId(2), 4_000_000);
    sim.apply_fault_schedule(&sched);
    let f = sim.start_tcp_flow(HostId(0), HostId(3), 1_500_000);
    let out = sim.run();
    assert_eq!(out, SimOutcome::Completed);
    assert_eq!(sim.flow_stats(f).bytes_delivered, 1_500_000);
    assert!(sim.credits_intact());
}

#[test]
fn port_degradation_throttles_then_xon_drains() {
    // Degrade the middle link to 10% rate mid-flow: upstream VC buffers
    // fill, credits exhaust (PFC XOFF), injection stalls. Restoring the
    // rate (XON) drains everything with zero loss — the lossless
    // guarantee must hold through the whole episode.
    let run = |degrade: bool| {
        let t = chain(4);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let cfg = SimConfig { lossless: true, max_sim_ns: 0, ..SimConfig::default() };
        let mut sim = Simulator::new(&t, routes, cfg);
        if degrade {
            let mut sched = FaultSchedule::new();
            sched.port_degrade(SwitchId(1), SwitchId(2), 0.1, 200_000);
            sched.port_degrade(SwitchId(1), SwitchId(2), 1.0, 3_000_000);
            sim.apply_fault_schedule(&sched);
        }
        let f = sim.start_raw_flow(HostId(0), HostId(3), 6_000_000);
        let out = sim.run();
        assert_eq!(out, SimOutcome::Completed);
        assert_eq!(sim.stats().drops, 0, "lossless mode must not drop under degradation");
        assert!(sim.credits_intact());
        (sim.flow_stats(f).finish.unwrap(), sim.peak_queue_bytes())
    };
    let (t_nominal, q_nominal) = run(false);
    let (t_degraded, q_degraded) = run(true);
    assert!(
        t_degraded > t_nominal + 1_000_000,
        "10% line rate for ~2.8 ms must delay completion ({t_nominal} -> {t_degraded})"
    );
    assert!(
        q_degraded > q_nominal,
        "backpressure must build deeper queues ({q_nominal} -> {q_degraded})"
    );
}

#[test]
fn random_fault_schedules_are_bit_reproducible() {
    // Same seed ⇒ identical schedule ⇒ identical event sequence ⇒
    // identical per-flow finish times and drop counts.
    let run = |seed: u64| {
        let t = ring(6);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let cfg = SimConfig {
            lossless: false,
            max_sim_ns: 20_000_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&t, routes, cfg);
        let sched = FaultSchedule::random(seed, &t);
        sim.apply_fault_schedule(&sched);
        for h in 0..6 {
            sim.start_raw_flow(HostId(h), HostId((h + 3) % 6), 500_000);
        }
        sim.run();
        let finishes: Vec<_> =
            (0..sim.num_flows()).map(|f| sim.flow_stats(f).finish).collect();
        (sim.stats().events, sim.stats().drops, finishes)
    };
    assert_eq!(run(11), run(11));
    assert_eq!(run(97), run(97));
    assert!(run(11) != run(97), "different seeds should perturb the run");
}
