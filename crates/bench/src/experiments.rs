//! Experiment drivers, one per paper artifact: [`crate::render`] prints
//! them and `tests/accuracy.rs` asserts the paper's shapes on them.

use sdt::controller::{Deployment, SdtController};
use sdt::core::feasibility::{max_link_gbps, projectable_count};
use sdt::core::methods::{CostModel, Method, SwitchModel};
use sdt::routing::dragonfly::{DragonflyMinimal, DragonflyUgal};
use sdt::routing::{default_strategy, generic::Bfs, RouteTable};
use sdt::sim::mpi::run_trace_adaptive;
use sdt::sim::{run_trace, SimConfig, Simulator};
use sdt::topology::chain::chain;
use sdt::topology::dragonfly::dragonfly;
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::torus;
use sdt::topology::{HostId, Topology};
use sdt::workloads::apps;
use sdt::workloads::{select_nodes, MachineModel, Trace};

/// The calibrated SDT crossbar-sharing penalty per switch transit, ns
/// (reproduces the paper's ≤2% latency overhead band — see
/// `tests/accuracy.rs`).
pub const SDT_EXTRA_NS: u64 = 8;

/// Application completion time of a finished replay. The benchmark traces
/// are closed workloads on connected fabrics, so a `None` here means the
/// simulation horizon was mis-set — fail loudly rather than fabricate a 0.
fn act_ns(ns: Option<u64>, what: &str) -> u64 {
    match ns {
        Some(v) => v,
        None => panic!("{what} did not complete within the simulated horizon"),
    }
}

/// `topo` deployed on the smallest cluster of 128x100G switches, up to
/// six, that carries it.
pub fn smallest_deployment(topo: &Topology) -> Deployment {
    let model = SwitchModel::openflow_128x100g();
    for n in 1..=6u32 {
        if let Ok(mut ctl) = SdtController::for_campaign(std::slice::from_ref(topo), model, n) {
            if let Ok(d) = ctl.deploy(topo) {
                return d;
            }
        }
    }
    panic!("{} does not fit on 6x128 ports", topo.name());
}

// ---------------------------------------------------------------- Fig. 11

/// One point of the Fig. 11 latency-overhead sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig11Point {
    /// Pingpong message size, bytes.
    pub bytes: u64,
    /// Full-testbed round-trip time, ns.
    pub full_rtt_ns: f64,
    /// SDT round-trip time, ns.
    pub sdt_rtt_ns: f64,
    /// Relative overhead `(sdt - full) / full`.
    pub overhead: f64,
}

/// Fig. 11: pingpong across the Fig. 10 8-switch chain (node 1 → node 8),
/// full testbed vs SDT, over message sizes. Sizes run in parallel; each
/// point owns its simulator, so the sweep is bit-identical to sequential.
pub fn fig11_sweep(sizes: &[u64], reps: u32) -> Vec<Fig11Point> {
    let topo = chain(8);
    let routes = RouteTable::build(&topo, &Bfs::new(&topo));
    let hosts = [HostId(0), HostId(7)];
    let rtt = |extra: u64, bytes: u64| -> f64 {
        let trace = apps::imb_pingpong(bytes, reps);
        let cfg = SimConfig { extra_switch_ns: extra, ..SimConfig::testbed_10g() };
        let res = run_trace(&topo, routes.clone(), cfg, &trace, &hosts);
        act_ns(res.act_ns, "pingpong") as f64 / reps as f64
    };
    crate::par::par_map(sizes, |&b| {
        let full = rtt(0, b);
        let sdt = rtt(SDT_EXTRA_NS, b);
        Fig11Point { bytes: b, full_rtt_ns: full, sdt_rtt_ns: sdt, overhead: (sdt - full) / full }
    })
}

// ---------------------------------------------------------------- Fig. 12

/// One sender of the Fig. 12 incast.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Row {
    /// Sender node number (1-based, as in the paper's legend).
    pub node: u32,
    /// Switch hops to the sink.
    pub hops: u32,
    /// Goodput on the full testbed, Gbit/s.
    pub full_gbps: f64,
    /// Goodput on SDT, Gbit/s.
    pub sdt_gbps: f64,
}

/// Fig. 12: 7-to-1 iperf3/TCP incast on the 8-switch chain; all nodes send
/// to node 4 (host index 3). Returns per-sender goodputs for full + SDT.
pub fn fig12_incast(lossless: bool, sim_ms: u64) -> Vec<Fig12Row> {
    let run = |extra: u64| -> Vec<f64> {
        let topo = chain(8);
        let routes = RouteTable::build(&topo, &Bfs::new(&topo));
        let cfg = SimConfig {
            lossless,
            extra_switch_ns: extra,
            queue_cap_bytes: 64 * 1500,
            max_sim_ns: sim_ms * 1_000_000,
            ..SimConfig::testbed_10g()
        };
        let mut sim = Simulator::new(&topo, routes, cfg);
        let mut flows = Vec::new();
        for h in 0..8u32 {
            if h != 3 {
                flows.push(sim.start_tcp_flow(HostId(h), HostId(3), u64::MAX));
            }
        }
        sim.run();
        let now = sim.now_ns();
        flows.iter().map(|&f| sim.flow_stats(f).goodput_gbps(now)).collect()
    };
    // Full-testbed and SDT runs are independent simulations; fan them out.
    let both = crate::par::par_map(&[0u64, SDT_EXTRA_NS], |&extra| run(extra));
    let (full, sdt) = (&both[0], &both[1]);
    [0u32, 1, 2, 4, 5, 6, 7]
        .iter()
        .enumerate()
        .map(|(i, &h)| Fig12Row {
            node: h + 1,
            hops: h.abs_diff(3) + 1,
            full_gbps: full[i],
            sdt_gbps: sdt[i],
        })
        .collect()
}

// ---------------------------------------------------------------- Table IV

/// One cell of Table IV.
#[derive(Clone, Debug)]
pub struct Table4Cell {
    /// Application label.
    pub app: String,
    /// ACT measured on the SDT fabric model (packet cells + overhead), ns.
    pub sdt_act_ns: u64,
    /// ACT reported by the flit-level simulator, ns.
    pub sim_act_ns: u64,
    /// Wall-clock the flit simulator burned, ns.
    pub sim_wall_ns: u128,
    /// SDT evaluation time: ACT (real-time execution) + deployment, ns.
    pub sdt_eval_ns: u64,
    /// Events the flit simulation processed.
    pub sim_events: u64,
}

impl Table4Cell {
    /// "Ax" — evaluation-time speedup of SDT over the simulator. The
    /// topology deployment (~hundreds of ms, reported separately and in
    /// Fig. 13) amortizes over the whole application suite run on one
    /// deployment, as in the paper's evaluation, so the per-application
    /// comparison is simulator wall-clock vs real-time ACT.
    pub fn speedup(&self) -> f64 {
        self.sim_wall_ns as f64 / self.sdt_act_ns as f64
    }

    /// "(B%)" — ACT deviation of SDT vs the simulator, percent.
    pub fn act_dev_pct(&self) -> f64 {
        100.0 * (self.sdt_act_ns as f64 - self.sim_act_ns as f64) / self.sim_act_ns as f64
    }
}

/// Run one (topology, workload) cell: the workload through the SDT fabric
/// (packet cells + crossbar overhead) and through the flit-level
/// "simulator", measuring the latter's wall-clock.
pub fn table4_cell(
    topo: &Topology,
    trace: &Trace,
    hosts: &[HostId],
    deploy_ns: u64,
) -> Table4Cell {
    let strategy = default_strategy(topo);
    let routes = RouteTable::build(topo, strategy.as_ref());
    let sdt_cfg = SimConfig { extra_switch_ns: SDT_EXTRA_NS, ..SimConfig::testbed_10g() };
    let sdt = run_trace(topo, routes.clone(), sdt_cfg, trace, hosts);
    let sim = run_trace(topo, routes, SimConfig::simulator_flit(), trace, hosts);
    let sdt_act = act_ns(sdt.act_ns, "the workload on SDT");
    Table4Cell {
        app: trace.name.clone(),
        sdt_act_ns: sdt_act,
        sim_act_ns: act_ns(sim.act_ns, "the workload in the simulator"),
        sim_wall_ns: sim.wall_ns,
        sdt_eval_ns: sdt_act + deploy_ns,
        sim_events: sim.events,
    }
}

/// The Table IV topologies, each with the modeled deployment time (ns) of
/// its [`smallest_deployment`].
pub fn table4_topologies() -> Vec<(Topology, u64)> {
    [dragonfly(4, 9, 2, 2), fat_tree(4), torus(&[5, 5]), torus(&[4, 4, 4])]
        .into_iter()
        .map(|t| {
            let deploy_ns = smallest_deployment(&t).deploy_time_ns;
            (t, deploy_ns)
        })
        .collect()
}

/// The whole Table IV grid, one [`Table4Cell`] per (topology, workload),
/// topology-major. Cells are independent simulations, so they fan out
/// across the sweep pool ([`crate::par::par_map`]); results are ordered and
/// bit-identical regardless of thread count (`tests/determinism.rs`).
pub fn table4_grid(topologies: &[(Topology, u64)], max_ranks: u32) -> Vec<Vec<Table4Cell>> {
    let cells: Vec<(usize, Trace)> = topologies
        .iter()
        .enumerate()
        .flat_map(|(ti, (topo, _))| {
            let ranks = topo.num_hosts().min(max_ranks);
            table4_workloads(ranks).into_iter().map(move |(_, trace)| (ti, trace))
        })
        .collect();
    let flat = crate::par::par_map(&cells, |(ti, trace)| {
        let (topo, deploy_ns) = &topologies[*ti];
        let hosts = select_nodes(topo, trace.num_ranks(), 2023);
        table4_cell(topo, trace, &hosts, *deploy_ns)
    });
    let mut rows: Vec<Vec<Table4Cell>> = topologies.iter().map(|_| Vec::new()).collect();
    for ((ti, _), cell) in cells.iter().zip(flat) {
        rows[*ti].push(cell);
    }
    rows
}

/// The Table IV workload columns for `n` ranks, scaled so flit-level
/// simulation stays tractable.
pub fn table4_workloads(n: u32) -> Vec<(&'static str, Trace)> {
    let m = MachineModel::default();
    vec![
        ("HPCG 64^3", apps::hpcg(n, 32, 3, &m)),
        ("HPL", apps::hpl(n, 8192, 64, &m)),
        ("miniGhost", apps::minighost(n, 16, 10, 3, &m)),
        ("miniFE 264^3", apps::minife(n, 16, 4, &m)),
        ("miniFE 264x512^2", apps::minife(n, 22, 4, &m)),
        ("IMB Alltoall", apps::imb_alltoall(n, 32 * 1024, 2)),
        ("IMB Pingpong", apps::imb_pingpong(16 * 1024, 200)),
    ]
}

// ---------------------------------------------------------------- Fig. 13

/// One x-position of Fig. 13.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Point {
    /// Node count.
    pub nodes: u32,
    /// Full-testbed evaluation time = ACT, ns.
    pub act_ns: u64,
    /// Simulator evaluation time = measured wall-clock, ns.
    pub sim_wall_ns: u128,
    /// Events the flit simulation processed: the simulator's cost, free of
    /// the host's speed.
    pub sim_events: u64,
    /// SDT evaluation time = deployment + ACT, ns.
    pub sdt_eval_ns: u64,
}

/// Fig. 13: IMB Alltoall on Dragonfly(4,9,2) with growing node counts.
pub fn fig13_point(topo: &Topology, n: u32, msg_bytes: u64, deploy_ns: u64) -> Fig13Point {
    let hosts = select_nodes(topo, n.max(2), 2023);
    let hosts = &hosts[..n.max(1) as usize];
    let trace = if n >= 2 {
        apps::imb_alltoall(n, msg_bytes, 2)
    } else {
        // A single node has no one to talk to: a pure compute blip.
        let mut t = Trace::new("imb-alltoall-1r", 1);
        t.push(0, sdt::workloads::MpiOp::Compute { ns: 1_000_000 });
        t
    };
    let strategy = default_strategy(topo);
    let routes = RouteTable::build(topo, strategy.as_ref());
    let sdt_cfg = SimConfig { extra_switch_ns: SDT_EXTRA_NS, ..SimConfig::testbed_10g() };
    let sdt = run_trace(topo, routes.clone(), sdt_cfg, &trace, hosts);
    let act = act_ns(sdt.act_ns, "the scaling workload");
    let sim = run_trace(topo, routes, SimConfig::simulator_flit(), &trace, hosts);
    Fig13Point {
        nodes: n,
        act_ns: act,
        sim_wall_ns: sim.wall_ns,
        sim_events: sim.events,
        sdt_eval_ns: act + deploy_ns,
    }
}

// ---------------------------------------------------------------- Table II

/// One DC-topology row of Table II: our computed max link speed per
/// (method, switch model), plus the paper's published cell for comparison.
/// One grid cell: (method, column name, our Gbps, paper's Gbps).
/// `None` speed = not projectable; the paper value is `None` when the
/// paper does not list that cell at all.
pub type Table2Cell = (Method, &'static str, Option<u32>, Option<Option<u32>>);

/// One DC-topology row of Table II.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Row label (e.g. `"Fat-Tree k=4"`).
    pub label: String,
    /// Cells, method-major then column.
    pub cells: Vec<Table2Cell>,
}

/// The Table II DC-topology grid, computed with the §IV-A port rule.
///
/// Fat-Tree and Dragonfly rows use a single switch per column and then
/// match the paper cell-for-cell. The tori cannot fit one switch at any
/// channelization under that rule, so their rows are sized at the paper's
/// own cluster scale — 3 switches per column (the SDT testbed has 3
/// switches) — which reproduces the published SP/SP-OS/SDT torus cells
/// exactly (see EXPERIMENTS.md for the one TurboNet torus cell that
/// differs).
pub fn table2_dc_grid() -> Vec<Table2Row> {
    let m64 = SwitchModel::openflow_64x100g();
    let m128 = SwitchModel::openflow_128x100g();
    // Paper cells: (method, 64col, 128col); None = not listed, Some(None) = "x".
    type P = Option<Option<u32>>;
    type PaperRow = Vec<(Method, P, P)>;
    let paper = |sp128: u32, tn64: Option<u32>, tn128: Option<u32>, sdt64: Option<u32>, sdt128: u32|
     -> PaperRow {
        vec![
            (Method::Sp, None, Some(Some(sp128))),
            (Method::SpOs, None, Some(Some(sp128))),
            (Method::Turbonet, Some(tn64), Some(tn128)),
            (Method::Sdt, Some(sdt64), Some(Some(sdt128))),
        ]
    };
    let rows: Vec<(String, Topology, u32, PaperRow)> = vec![
        ("Fat-Tree k=4".into(), fat_tree(4), 1, paper(100, Some(50), Some(50), Some(100), 100)),
        ("Fat-Tree k=6".into(), fat_tree(6), 1, paper(50, None, Some(25), Some(25), 50)),
        ("Fat-Tree k=8".into(), fat_tree(8), 1, paper(25, None, None, None, 25)),
        ("Dragonfly 4-9-2".into(), dragonfly(4, 9, 2, 2), 1, paper(50, None, Some(25), Some(25), 50)),
        ("Torus 4x4x4".into(), torus(&[4, 4, 4]), 3, paper(100, Some(25), Some(50), Some(50), 100)),
        ("Torus 5x5x5".into(), torus(&[5, 5, 5]), 3, paper(50, None, Some(25), Some(25), 50)),
        ("Torus 6x6x6".into(), torus(&[6, 6, 6]), 3, paper(25, None, None, None, 25)),
    ];
    rows.into_iter()
        .map(|(label, topo, count, paper_cells)| {
            let mut cells = Vec::new();
            for (method, p64, p128) in paper_cells {
                let ours64 = max_link_gbps(method, &topo, &m64, count).max_gbps;
                let ours128 = max_link_gbps(method, &topo, &m128, count).max_gbps;
                cells.push((method, "64x100G", ours64, p64));
                cells.push((method, "128x100G", ours128, p128));
            }
            Table2Row { label, cells }
        })
        .collect()
}

/// Table II's hardware cost per method, one switch per column:
/// (method, 64x100G USD, 128x100G USD).
pub fn table2_costs() -> Vec<(Method, u64, u64)> {
    Method::ALL
        .iter()
        .map(|&m| {
            let c64 = CostModel::of(m, &SwitchModel::openflow_64x100g(), 1, 128).total_usd();
            let c128 = CostModel::of(m, &SwitchModel::openflow_128x100g(), 1, 256).total_usd();
            (m, c64, c128)
        })
        .collect()
}

/// The Table II WAN row: projectable count out of 261 per method, on a
/// cluster of four 64x100G and one of two 128x100G switches, each with its
/// label.
pub fn table2_wan_rows() -> Vec<(&'static str, Vec<(Method, usize)>)> {
    let corpus = sdt::topology::zoo::zoo_corpus();
    [
        ("4x 64x100G ", SwitchModel::openflow_64x100g(), 4u32),
        ("2x 128x100G", SwitchModel::openflow_128x100g(), 2),
    ]
    .into_iter()
    .map(|(label, model, switches)| {
        let counts = Method::ALL
            .iter()
            .map(|&m| (m, projectable_count(m, &corpus, &model, switches)))
            .collect();
        (label, counts)
    })
    .collect()
}

// ---------------------------------------------------------------- §VI-E

/// Active-routing comparison result.
#[derive(Clone, Copy, Debug)]
pub struct ActiveRoutingResult {
    /// ACT under static minimal routing, ns.
    pub minimal_act_ns: u64,
    /// ACT under monitor-driven UGAL, ns.
    pub adaptive_act_ns: u64,
}

impl ActiveRoutingResult {
    /// Percent ACT reduction from active routing.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (self.minimal_act_ns as f64 - self.adaptive_act_ns as f64)
            / self.minimal_act_ns as f64
    }
}

/// §VI-E: run a trace with minimal vs monitor-driven adaptive routing.
pub fn active_routing_compare(trace: &Trace, hosts: &[HostId]) -> ActiveRoutingResult {
    let topo = dragonfly(4, 9, 2, 2);
    let minimal = DragonflyMinimal::new(4, 9, 2, 2, &topo);
    let routes = RouteTable::build(&topo, &minimal);
    let cfg = SimConfig {
        extra_switch_ns: SDT_EXTRA_NS,
        monitor_interval_ns: 200_000,
        ..SimConfig::testbed_10g()
    };
    let base = run_trace(&topo, routes.clone(), cfg.clone(), trace, hosts);
    let ugal = DragonflyUgal::new(4, 9, 2, 2, &topo);
    let adaptive = run_trace_adaptive(&topo, routes, cfg, trace, hosts, Box::new(ugal));
    ActiveRoutingResult {
        minimal_act_ns: act_ns(base.act_ns, "minimal routing"),
        adaptive_act_ns: act_ns(adaptive.act_ns, "adaptive routing"),
    }
}

/// The two §VI-E cases on Dragonfly(4,9,2), 32 ranks, labelled: IMB
/// Alltoall on the seeded random placement, then a group-shift permutation
/// on packed nodes (8 per group), where minimal routing aims each group's
/// whole load at one global link.
pub fn active_routing_cases() -> [(&'static str, ActiveRoutingResult); 2] {
    let topo = dragonfly(4, 9, 2, 2);
    let random_hosts = select_nodes(&topo, 32, 2023);
    let packed_hosts: Vec<HostId> = (0..32).map(HostId).collect();
    [
        (
            "IMB Alltoall, random nodes",
            active_routing_compare(&apps::imb_alltoall(32, 64 * 1024, 2), &random_hosts),
        ),
        (
            "group-shift permutation, packed nodes",
            active_routing_compare(&apps::permutation_shift(32, 8, 512 * 1024, 4), &packed_hosts),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_points_monotone_rtt() {
        let pts = fig11_sweep(&[256, 65_536], 5);
        assert!(pts[1].full_rtt_ns > pts[0].full_rtt_ns);
        assert!(pts.iter().all(|p| p.overhead >= 0.0 && p.overhead < 0.02));
    }

    #[test]
    fn table2_grid_shape() {
        let rows = table2_dc_grid();
        assert_eq!(rows.len(), 7);
        // SDT at 128 ports must match the paper on every fat-tree row.
        for row in rows.iter().take(3) {
            for (m, col, ours, paper) in &row.cells {
                if *m == Method::Sdt && *col == "128x100G" {
                    assert_eq!(Some(*ours), *paper, "{}", row.label);
                }
            }
        }
    }

    #[test]
    fn fig13_single_node_has_tiny_act() {
        let topo = dragonfly(4, 9, 2, 2);
        let p = fig13_point(&topo, 1, 1024, 100);
        assert!(p.act_ns <= 2_000_000);
    }
}
