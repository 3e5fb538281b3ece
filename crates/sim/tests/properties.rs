//! Property-based tests of the fabric engine's conservation laws.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_routing::{default_strategy, generic::Bfs, RouteTable};
use sdt_sim::faults::FaultSchedule;
use sdt_sim::{DcqcnConfig, EventKind, Granularity, SimConfig, SimOutcome, Simulator};
use sdt_topology::chain::{chain, ring, star};
use sdt_topology::fattree::fat_tree;
use sdt_topology::{Endpoint, HostId, SwitchId, Topology};

fn run_flows(
    topo: &Topology,
    flows: &[(u32, u32, u64)],
    cfg: SimConfig,
) -> (Simulator, SimOutcome) {
    let routes = RouteTable::build(topo, &Bfs::new(topo));
    let mut sim = Simulator::new(topo, routes, cfg);
    for &(a, b, bytes) in flows {
        sim.start_raw_flow(HostId(a), HostId(b), bytes);
    }
    let out = sim.run();
    (sim, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossless fabric: every injected byte is delivered, nothing dropped,
    /// credits conserved — for arbitrary flow sets on several topologies.
    #[test]
    fn lossless_conserves_bytes(
        topo_pick in 0u8..3,
        raw_flows in proptest::collection::vec((0u32..6, 0u32..6, 1u64..200_000), 1..8),
        flit in any::<bool>(),
    ) {
        let topo = match topo_pick {
            0 => chain(6),
            1 => ring(6),
            _ => star(5),
        };
        let h = topo.num_hosts();
        let flows: Vec<(u32, u32, u64)> = raw_flows
            .into_iter()
            .map(|(a, b, bytes)| (a % h, b % h, bytes))
            .filter(|(a, b, _)| a != b)
            .collect();
        prop_assume!(!flows.is_empty());
        let cfg = SimConfig {
            granularity: if flit { Granularity::Flit } else { Granularity::Packet },
            ..SimConfig::default()
        };
        let (sim, out) = run_flows(&topo, &flows, cfg);
        prop_assert_eq!(out, SimOutcome::Completed);
        prop_assert_eq!(sim.stats().drops, 0);
        for f in 0..sim.num_flows() {
            let st = sim.flow_stats(f);
            let want = flows[f as usize].2;
            prop_assert_eq!(st.bytes_delivered, want, "flow {}", f);
            prop_assert!(st.finish.is_some());
        }
        prop_assert!(sim.credits_intact());
    }

    /// Goodput never exceeds line rate, per flow and at any bottleneck.
    #[test]
    fn goodput_bounded_by_line_rate(
        raw_flows in proptest::collection::vec((0u32..6, 0u32..6, 50_000u64..500_000), 1..6),
    ) {
        let topo = chain(6);
        let flows: Vec<(u32, u32, u64)> = raw_flows
            .into_iter()
            .map(|(a, b, bytes)| (a % 6, b % 6, bytes))
            .filter(|(a, b, _)| a != b)
            .collect();
        prop_assume!(!flows.is_empty());
        let (sim, out) = run_flows(&topo, &flows, SimConfig::default());
        prop_assert_eq!(out, SimOutcome::Completed);
        for f in 0..sim.num_flows() {
            let g = sim.flow_stats(f).goodput_gbps(sim.now_ns());
            prop_assert!(g <= 10.05, "flow {} goodput {}", f, g);
        }
    }

    /// Lossy fabric: delivered + dropped cells account for every cell that
    /// entered the network, and completed flows received all their bytes.
    #[test]
    fn lossy_accounts_for_every_cell(
        raw_flows in proptest::collection::vec((0u32..5, 0u32..5, 10_000u64..200_000), 2..6),
        cap_kb in 4u32..64,
    ) {
        let topo = star(5);
        let flows: Vec<(u32, u32, u64)> = raw_flows
            .into_iter()
            .map(|(a, b, bytes)| (a % 5, b % 5, bytes))
            .filter(|(a, b, _)| a != b)
            .collect();
        prop_assume!(!flows.is_empty());
        let cfg = SimConfig {
            lossless: false,
            queue_cap_bytes: cap_kb * 1024,
            ..SimConfig::default()
        };
        let (sim, out) = run_flows(&topo, &flows, cfg);
        prop_assert_eq!(out, SimOutcome::Completed);
        let injected_cells: u64 = flows
            .iter()
            .map(|&(_, _, bytes)| bytes.div_ceil(1500))
            .sum();
        prop_assert_eq!(
            sim.stats().cells_delivered + sim.stats().drops,
            injected_cells,
            "delivered {} + dropped {} != injected {}",
            sim.stats().cells_delivered,
            sim.stats().drops,
            injected_cells
        );
    }

    /// Whatever the fabric, cell size, loss mode, DCQCN and faults (a link
    /// flap, a degraded link, a switch crash and restart): over a drained
    /// run every transmit — a `TryTx` that sent a cell — has its `Arrive`,
    /// and a drained lossless run holds every credit it started with.
    #[test]
    fn drained_runs_arrive_every_transmit_and_keep_credits(
        (topo_pick, n) in (0u8..3, 3u32..8),
        raw_flows in proptest::collection::vec((0u32..16, 0u32..16, 1u64..300_000), 1..8),
        (lossless, flit, dcqcn) in (any::<bool>(), any::<bool>(), any::<bool>()),
        (flap_pick, degrade_pick, crash_pick) in (0usize..64, 0usize..64, 0u32..64),
        (flap_at, degrade_at, crash_at) in (0u64..150_000, 0u64..150_000, 0u64..150_000),
        (outage, factor_pct) in (1u64..100_000, 10u32..100),
    ) {
        let topo = match topo_pick {
            0 => chain(n),
            1 => ring(n),
            _ => fat_tree(4),
        };
        let h = topo.num_hosts();
        let flows: Vec<(u32, u32, u64)> = raw_flows
            .into_iter()
            .map(|(a, b, bytes)| (a % h, b % h, bytes))
            .filter(|(a, b, _)| a != b)
            .collect();
        prop_assume!(!flows.is_empty());
        let links: Vec<(SwitchId, SwitchId)> = topo
            .links()
            .iter()
            .filter_map(|l| match (l.a, l.b) {
                (Endpoint::Switch(a), Endpoint::Switch(b)) => Some((a, b)),
                _ => None,
            })
            .collect();
        let (fa, fb) = links[flap_pick % links.len()];
        let (da, db) = links[degrade_pick % links.len()];
        let crashed = SwitchId(crash_pick % topo.num_switches());
        let mut faults = FaultSchedule::new();
        faults
            .link_flap(fa, fb, flap_at, outage)
            .port_degrade(da, db, factor_pct as f64 / 100.0, degrade_at)
            .switch_crash(crashed, crash_at)
            .switch_restart(crashed, crash_at + outage);
        let cfg = SimConfig {
            lossless,
            granularity: if flit { Granularity::Flit } else { Granularity::Packet },
            dcqcn: dcqcn.then(DcqcnConfig::default),
            ..SimConfig::default()
        };
        let routes = RouteTable::build_for_hosts(&topo, default_strategy(&topo).as_ref());
        let mut sim = Simulator::new(&topo, routes, cfg);
        sim.apply_fault_schedule(&faults);
        for &(a, b, bytes) in &flows {
            sim.start_raw_flow(HostId(a), HostId(b), bytes);
        }
        prop_assert_eq!(sim.run(), SimOutcome::Completed);
        let st = sim.stats();
        let of = |k: EventKind| st.events_by_kind[k as usize];
        prop_assert_eq!(of(EventKind::TryTx) - st.try_tx_noops, of(EventKind::Arrive));
        prop_assert!(!lossless || sim.credits_intact(), "credits leaked or minted");
    }
}
