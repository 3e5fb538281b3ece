//! Fabric-level integration tests: RoCE/DCQCN behavior, credit
//! conservation, and fairness invariants the unit tests don't cover.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_routing::{generic::Bfs, RouteTable};
use sdt_sim::{DcqcnConfig, SimConfig, SimOutcome, Simulator};
use sdt_topology::chain::{chain, star};
use sdt_topology::HostId;

fn star_sim(cfg: SimConfig) -> Simulator {
    // 4 leaves, hub: the classic incast fixture.
    let t = star(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    Simulator::new(&t, routes, cfg)
}

#[test]
fn dcqcn_reduces_incast_queue_depth() {
    // Three senders blast one receiver. With DCQCN the sources back off on
    // CNPs, so the bottleneck's standing queue stays far shallower than
    // with blind line-rate injection absorbed by PFC backpressure.
    let run = |dcqcn: Option<DcqcnConfig>| -> (u64, bool) {
        let mut sim = star_sim(SimConfig {
            dcqcn,
            vc_buffer_bytes: 512 * 1024, // deep buffers so PFC alone allows big queues
            ..SimConfig::testbed_10g()
        });
        for src in 1..4u32 {
            sim.start_raw_flow(HostId(src), HostId(0), 3_000_000);
        }
        let out = sim.run();
        (sim.peak_queue_bytes(), out == SimOutcome::Completed)
    };
    let (pfc_only_peak, done1) = run(None);
    let (dcqcn_peak, done2) = run(Some(DcqcnConfig::default()));
    assert!(done1 && done2);
    assert!(
        dcqcn_peak * 2 < pfc_only_peak,
        "dcqcn peak {dcqcn_peak} vs pfc-only {pfc_only_peak}"
    );
}

#[test]
fn dcqcn_throttles_then_recovers_rate() {
    let mut sim = star_sim(SimConfig {
        dcqcn: Some(DcqcnConfig::default()),
        ..SimConfig::testbed_10g()
    });
    let line = sim.config().bytes_per_ns();
    let flows: Vec<_> =
        (1..4u32).map(|s| sim.start_raw_flow(HostId(s), HostId(0), 4_000_000)).collect();
    sim.run();
    for f in flows {
        let st = sim.flow_stats(f);
        assert_eq!(st.bytes_delivered, 4_000_000);
        // The final rate exists and is sane (rate control engaged at least
        // structurally; exact value depends on when the flow finished).
        let rate = sim.flow_rate_bpns(f).expect("message flows carry dcqcn state");
        assert!(rate > 0.0 && rate <= line + 1e-9, "rate {rate}");
    }
    // Congestion actually produced CNP-driven cuts: with 3 senders into one
    // 10G port, at least one flow must finish below line rate.
    let slowest = (0..sim.num_flows())
        .map(|f| sim.flow_stats(f).goodput_gbps(sim.now_ns()))
        .fold(f64::INFINITY, f64::min);
    assert!(slowest < 9.0, "slowest {slowest} Gbps");
}

#[test]
fn credits_conserved_after_drain() {
    for lossless in [true] {
        let t = chain(6);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let mut sim = Simulator::new(&t, routes, SimConfig { lossless, ..SimConfig::default() });
        for (a, b) in [(0u32, 5u32), (3, 1), (2, 4), (5, 0)] {
            sim.start_raw_flow(HostId(a), HostId(b), 750_000);
        }
        assert_eq!(sim.run(), SimOutcome::Completed);
        assert!(sim.credits_intact(), "credits leaked or minted");
    }
}

#[test]
fn a_route_longer_than_255_channels_delivers_and_drains() {
    // Host 0 to host 299 crosses 301 channels. A cell's hop index used to
    // be 8 bits: it wrapped past 255, the cell counted as a fresh injection
    // on 256 channels (a spurious `Deadlock`) and re-walked the route head
    // on 300.
    let t = chain(300);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let mut sim = Simulator::new(&t, routes, SimConfig::default());
    let f = sim.start_raw_flow(HostId(0), HostId(299), 15_000);
    assert_eq!(sim.run(), SimOutcome::Completed);
    assert_eq!(sim.flow_stats(f).bytes_delivered, 15_000);
    assert!(sim.credits_intact());
}

#[test]
fn bottleneck_fairness_across_message_flows() {
    // Two equal flows over the same bottleneck finish near-simultaneously.
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let mut sim = Simulator::new(&t, routes, SimConfig::default());
    let a = sim.start_raw_flow(HostId(0), HostId(3), 1_500_000);
    let b = sim.start_raw_flow(HostId(1), HostId(3), 1_500_000);
    sim.run();
    let (fa, fb) = (sim.flow_stats(a).finish.unwrap(), sim.flow_stats(b).finish.unwrap());
    let skew = fa.abs_diff(fb) as f64 / fa.max(fb) as f64;
    assert!(skew < 0.10, "finish skew {skew}");
}

#[test]
fn ecn_marks_only_under_congestion() {
    // A single uncontended flow with DCQCN enabled must never be throttled:
    // its queue never crosses Kmin, so no CNP fires and the rate stays at
    // line rate.
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let mut sim = Simulator::new(
        &t,
        routes,
        SimConfig { dcqcn: Some(DcqcnConfig::default()), ..SimConfig::default() },
    );
    let line = sim.config().bytes_per_ns();
    let f = sim.start_raw_flow(HostId(0), HostId(3), 3_000_000);
    sim.run();
    let rate = sim.flow_rate_bpns(f).unwrap();
    assert!((rate - line).abs() < 1e-9, "uncontended flow throttled to {rate}");
    let st = sim.flow_stats(f);
    let gbps = st.goodput_gbps(sim.now_ns());
    assert!(gbps > 8.5, "goodput {gbps}");
}

#[test]
fn deep_buffers_do_not_break_losslessness() {
    let mut sim = star_sim(SimConfig {
        vc_buffer_bytes: 1 << 20,
        ..SimConfig::testbed_10g()
    });
    for src in 1..4u32 {
        sim.start_raw_flow(HostId(src), HostId(0), 2_000_000);
    }
    sim.run();
    assert_eq!(sim.stats().drops, 0);
    assert_eq!(
        sim.stats().cells_delivered,
        3 * 2_000_000u64.div_ceil(1500)
    );
}

#[test]
fn sniffer_sees_the_full_cell_lifecycle() {
    use sdt_sim::CaptureEvent;
    let t = chain(4);
    let routes = RouteTable::build(&t, &Bfs::new(&t));
    let mut sim = Simulator::new(&t, routes, SimConfig::default());
    sim.attach_sniffer(HostId(3));
    let f = sim.start_raw_flow(HostId(0), HostId(3), 3000); // 2 cells
    sim.start_raw_flow(HostId(1), HostId(2), 3000); // unrelated
    sim.run();
    let cap = sim.capture();
    // Only the sniffed host's flow appears.
    assert!(cap.iter().all(|r| r.flow == f));
    // Each of the 2 cells: injected, 4 switch forwards, delivered.
    let injected = cap.iter().filter(|r| r.event == CaptureEvent::Injected).count();
    let delivered = cap.iter().filter(|r| r.event == CaptureEvent::Delivered).count();
    let forwards = cap
        .iter()
        .filter(|r| matches!(r.event, CaptureEvent::Forwarded(_)))
        .count();
    assert_eq!(injected, 2);
    assert_eq!(delivered, 2);
    assert_eq!(forwards, 2 * 4);
    // Timestamps are monotone per cell.
    for seq in 0..2u32 {
        let times: Vec<u64> =
            cap.iter().filter(|r| r.seq == seq).map(|r| r.t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}

#[test]
fn sniffer_on_isolated_host_captures_nothing() {
    // Two disjoint chains in one fabric: traffic on one component never
    // reaches a sniffer on the other — the §VI-B isolation observation.
    use sdt_topology::Topology;
    let union = Topology::disjoint_union("2x", &[&chain(3), &chain(3)]);
    let strategy = sdt_routing::default_strategy(&union);
    let routes = RouteTable::build_for_hosts(&union, strategy.as_ref());
    let mut sim = Simulator::new(&union, routes, SimConfig::default());
    sim.attach_sniffer(HostId(4)); // second component
    sim.start_raw_flow(HostId(0), HostId(2), 30_000); // first component
    sim.run();
    assert!(sim.capture().is_empty());
}

#[test]
fn traffic_patterns_execute_end_to_end() {
    use sdt_sim::run_trace;
    use sdt_workloads::patterns;
    let t = sdt_topology::chain::ring(8);
    let strategy = sdt_routing::default_strategy(&t);
    let routes = RouteTable::build(&t, strategy.as_ref());
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    for trace in [
        patterns::uniform_random(8, 4, 8192, 11),
        patterns::incast(8, 3, 65536),
        patterns::hotspot(8, 1, 800, 8192, 12),
        patterns::ring_exchange(8, 16384, 2),
    ] {
        let res = run_trace(&t, routes.clone(), SimConfig::default(), &trace, &hosts);
        assert_eq!(res.outcome, SimOutcome::Completed, "{}", trace.name);
        assert!(res.act_ns.unwrap() > 0);
    }
}

#[test]
fn allreduce_latency_scales_logarithmically() {
    // Recursive-doubling allreduce of a tiny payload is latency-bound:
    // ACT ~ log2(n) rounds x per-hop latency. Doubling ranks from 8 to 16
    // adds one round, not a doubling.
    use sdt_sim::run_trace;
    use sdt_workloads::{collectives, Trace};
    let act_for = |n: u32| -> f64 {
        let t = sdt_topology::chain::star(n);
        let strategy = sdt_routing::default_strategy(&t);
        let routes = RouteTable::build(&t, strategy.as_ref());
        let mut trace = Trace::new("ar", n);
        collectives::allreduce(&mut trace, 8, 0);
        let hosts: Vec<HostId> = (0..n).map(HostId).collect();
        run_trace(&t, routes, SimConfig::default(), &trace, &hosts)
            .act_ns
            .unwrap() as f64
    };
    let a8 = act_for(8); // 3 rounds
    let a16 = act_for(16); // 4 rounds
    let ratio = a16 / a8;
    assert!(
        (1.05..1.8).contains(&ratio),
        "log scaling expected: 8 ranks {a8} ns, 16 ranks {a16} ns, ratio {ratio}"
    );
}

#[test]
fn tcp_slow_start_ramp_visible() {
    // A short TCP transfer spends its life in slow start, so its average
    // goodput is well below line rate; a long one amortizes the ramp. Use
    // metro-scale links (5 us) so the RTT dominates serialization.
    let goodput = |bytes: u64| -> f64 {
        let t = chain(3);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let cfg = SimConfig { link_latency_ns: 5_000, ..SimConfig::default() };
        let mut sim = Simulator::new(&t, routes, cfg);
        let f = sim.start_tcp_flow(HostId(0), HostId(2), bytes);
        sim.run();
        let st = sim.flow_stats(f);
        assert_eq!(st.bytes_delivered, bytes);
        st.goodput_gbps(sim.now_ns())
    };
    let short = goodput(15_000);
    let long = goodput(6_000_000);
    assert!(long > short * 1.5, "short {short} Gbps vs long {long} Gbps");
    assert!(long > 8.0, "long flow should reach near line rate, got {long}");
}

#[test]
fn nic_backlog_wakes_once_per_freed_slot() {
    // The `engine-dcqcn` benchmark input: 500 Poisson flows of 150 kB at
    // load 0.8 on a fat-tree k=4, DCQCN on. One NIC's backlog grows past
    // 2 000 entries; waking every entry for every freed slot cost 418 events
    // per delivered cell (seed 1, 20.9 M events), one wake per slot ~31.
    use sdt_routing::default_strategy;
    use sdt_sim::EventKind;
    use sdt_topology::fattree::fat_tree;
    use sdt_workloads::{poisson_flows, SizeDist};

    let topo = fat_tree(4);
    let routes = RouteTable::build_for_hosts(&topo, default_strategy(&topo).as_ref());
    let cfg = SimConfig {
        dcqcn: Some(DcqcnConfig::default()),
        ..SimConfig::default()
    };
    let line = cfg.bytes_per_ns();
    let mut sim = Simulator::new(&topo, routes, cfg);
    let dist = SizeDist::from_points("fixed-150k", &[(150_000.0, 0.0), (150_001.0, 1.0)]);
    for f in poisson_flows(&dist, topo.num_hosts(), line, 0.8, 500, 1) {
        sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
    }
    assert_eq!(sim.run(), SimOutcome::Completed);
    let st = sim.stats();
    assert_eq!(st.drops, 0);
    assert_eq!(st.cells_delivered, 500 * 100);
    let per_cell = st.events as f64 / st.cells_delivered as f64;
    assert!(per_cell < 60.0, "{per_cell} events per delivered cell");

    // The by-kind split accounts for every dispatched event.
    assert_eq!(st.events_by_kind.iter().sum::<u64>(), st.events);
    let of = |k: EventKind| st.events_by_kind[k as usize];
    assert!(of(EventKind::Wake) > 0 && of(EventKind::Wake) <= st.cells_delivered);
    assert!(of(EventKind::DcqcnTimer) > 0 && of(EventKind::Cnp) > 0);
    assert!(st.try_tx_noops < of(EventKind::TryTx));
    for k in [EventKind::Tcp, EventKind::Fault, EventKind::Mpi] {
        assert_eq!(of(k), 0, "{} events in a raw-flow run", k.name());
    }
}

/// A stop at the time limit leaves the run's `MonitorTick` queued, so a
/// resumed `run` continues that one chain instead of arming a second: the
/// uninterrupted run takes 10 ticks and ends at 10.0 ms, and so does the
/// same run stopped at 2.5 ms and resumed. A second chain would take 18
/// ticks, end at 10.5 ms and read every adaptive load over half a window.
#[test]
fn a_resumed_run_keeps_one_monitor_chain() {
    use sdt_routing::default_strategy;
    use sdt_sim::EventKind;
    use sdt_topology::fattree::fat_tree;
    let run = |limit: u64| {
        let topo = fat_tree(4);
        let routes = RouteTable::build_for_hosts(&topo, default_strategy(&topo).as_ref());
        let mut sim = Simulator::new(&topo, routes, SimConfig::default());
        for h in 0..8 {
            sim.start_raw_flow(HostId(h), HostId(h + 8), 6_000_000);
        }
        if limit > 0 {
            sim.set_time_limit(limit);
            assert_eq!(sim.run(), SimOutcome::TimeLimit);
            sim.set_time_limit(0);
        }
        assert_eq!(sim.run(), SimOutcome::Completed);
        let st = sim.stats();
        (st.events_by_kind[EventKind::Monitor as usize], st.sim_ns)
    };
    assert_eq!(run(0), (10, 10_000_000));
    assert_eq!(run(2_500_000), run(0));
}
