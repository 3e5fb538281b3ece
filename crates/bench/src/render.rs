//! One render function per paper artifact: each appends the text of
//! `results/<name>.txt` to `o`, from the drivers in [`crate::experiments`].
//! [`ARTIFACTS`] lists them in the order `cargo run --release -p sdt-bench`
//! writes them.

use crate::experiments::*;
use crate::par::{bench_threads, par_map};
use sdt::core::methods::{Method, ReconfigEstimate};
use sdt::core::sdt::SdtProjection;
use sdt::partition::{partition_topology, Graph, PartitionConfig};
use sdt::routing::cdg::{analyze, DeadlockAnalysis};
use sdt::routing::{default_strategy, generic::Bfs, RouteTable};
use sdt::sim::{run_trace, Granularity, SimConfig};
use sdt::topology::chain::chain;
use sdt::topology::dragonfly::dragonfly;
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::{mesh, torus};
use sdt::topology::{HostId, SwitchId, Topology};
use sdt::workloads::apps::{imb_alltoall, imb_pingpong};
use std::fmt::{self, Write};

/// A render function: appends one artifact's text.
pub type Render = fn(&mut String) -> fmt::Result;

/// Every artifact, by `results/` file stem, in regeneration order.
pub const ARTIFACTS: [(&str, Render); 9] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("active_routing", active_routing),
    ("ablations", ablations),
];

/// Format a speed cell (`None` = "x").
fn speed_cell(v: Option<u32>) -> String {
    match v {
        Some(g) => format!("<={g}G"),
        None => "x".into(),
    }
}

/// Format nanoseconds human-readably.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Table I: qualitative comparison of network evaluation tools.
pub fn table1(o: &mut String) -> fmt::Result {
    writeln!(o, "Table I — Comparison of Network Evaluation Tools for Various Topologies\n")?;
    o.push_str(&sdt::core::compare::render_table1());
    writeln!(o, "\n(paper Table I: identical grading — SDT couples testbed-grade scalability")?;
    writeln!(o, " and efficiency with simulator-grade reconfiguration ease at medium price)")
}

/// Table II: SDT vs SP / SP-OS / TurboNet — reconfiguration time, hardware
/// cost, max projectable link speed per DC topology, and the 261-WAN
/// projectability row.
pub fn table2(o: &mut String) -> fmt::Result {
    writeln!(o, "Table II — Comparison between SDT and other TP methods\n")?;

    // Reconfiguration time (fat-tree k=4 scale: 48 links, ~300 entries).
    writeln!(o, "Reconfiguration time (48 links / ~300 flow entries):")?;
    writeln!(o, "  paper: SP > 1 hour | SP-OS 100ms~1s | TurboNet 10s~ | SDT 100ms~1s")?;
    write!(o, "  ours : ")?;
    for m in Method::ALL {
        let est = ReconfigEstimate::of(m, 48, 300);
        let t = est.time_ns as f64;
        let label = if t >= 3.6e12 {
            format!("{:.1} h", t / 3.6e12)
        } else if t >= 1e9 {
            format!("{:.0} s", t / 1e9)
        } else {
            format!("{:.0} ms", t / 1e6)
        };
        write!(o, "{} {}{} | ", m.name(), label, if est.manual { " (manual)" } else { "" })?;
    }
    writeln!(o, "\n")?;

    writeln!(o, "Hardware requirement and cost (one switch per column):")?;
    for (m, c64, c128) in table2_costs() {
        writeln!(
            o,
            "  {:<9} {:<22} 64x100G >=${:<8} 128x100G >=${}",
            m.name(),
            m.hardware().describe(),
            c64,
            c128
        )?;
    }
    writeln!(o, "  paper: SP >$10k | SP-OS >$50k | TurboNet >$15k/$30k | SDT >$5k/$10k\n")?;

    writeln!(o, "Max projectable link speed (ours vs [paper], x = not projectable):")?;
    writeln!(
        o,
        "{:<18}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "", "SP/64", "SP/128", "SPOS/64", "SPOS/128", "TN/64", "TN/128", "SDT/64", "SDT/128"
    )?;
    for row in table2_dc_grid() {
        write!(o, "{:<18}", row.label)?;
        for (_, _, ours, paper) in &row.cells {
            let p = match paper {
                Some(v) => format!("[{}]", speed_cell(*v)),
                None => String::new(),
            };
            write!(o, "{:>14}", format!("{}{}", speed_cell(*ours), p))?;
        }
        writeln!(o)?;
    }

    writeln!(o, "\n261 Internet(-Zoo-like) WAN topologies projectable:")?;
    writeln!(o, "  paper: SP 260 | SP-OS 260 | TurboNet 248/249 | SDT 260")?;
    for (label, counts) in table2_wan_rows() {
        write!(o, "  ours ({label}): ")?;
        for (m, n) in counts {
            write!(o, "{} {n} | ", m.name())?;
        }
        writeln!(o)?;
    }
    writeln!(o, "\nNotes: SDT == SP == SP-OS in pure projectability (same port mathematics);")?;
    writeln!(o, "TurboNet loses half the bandwidth to loopback transit and the densest")?;
    writeln!(o, "topologies outright. Torus rows are conservative vs the paper (see")?;
    writeln!(o, "EXPERIMENTS.md: the paper's torus accounting is looser than its own")?;
    writeln!(o, "§IV-A port rule, which we implement exactly).")
}

/// Table III: routing strategies and deadlock-avoidance schemes per
/// topology, each verified by channel-dependency-graph analysis.
pub fn table3(o: &mut String) -> fmt::Result {
    writeln!(o, "Table III — Routing strategies and deadlock avoidance (verified)\n")?;
    writeln!(
        o,
        "{:<20}{:<26}{:<28}{:<12}verification",
        "topology", "routing strategy", "deadlock avoidance", "resources"
    )?;
    for (topo, scheme) in [
        (fat_tree(4), "no need (up/down)"),
        (dragonfly(4, 9, 2, 2), "changing VC [44],[3]"),
        (mesh(&[4, 4]), "by routing (X-Y)"),
        (mesh(&[3, 3, 3]), "by routing (X-Y-Z)"),
        (torus(&[5, 5]), "by routing + VC (dateline)"),
        (torus(&[4, 4, 4]), "by routing + VC (dateline)"),
    ] {
        let strategy = default_strategy(&topo);
        let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
        let verdict = match analyze(&table) {
            DeadlockAnalysis::Free { nodes, edges } => {
                format!("deadlock-free (CDG: {nodes} nodes, {edges} deps)")
            }
            DeadlockAnalysis::Cycle(c) => format!("CYCLE of length {}", c.len()),
        };
        writeln!(
            o,
            "{:<20}{:<26}{:<28}{:<12}{}",
            topo.name(),
            strategy.name(),
            scheme,
            format!("{} VCs", strategy.num_vcs()),
            verdict,
        )?;
    }
    writeln!(o, "\n(paper Table III lists the same strategy/scheme pairs; every row above is")?;
    writeln!(o, " machine-checked with the Dally–Seitz CDG criterion)")
}

/// Table IV: per (topology, application), the ACT agreement between SDT
/// and the flit-level simulator and the evaluation-time speedup "Ax (B%)".
///
/// Workloads are scaled-down instances (the paper runs minutes-long jobs on
/// real hardware; see EXPERIMENTS.md), so the speedup magnitudes are
/// smaller than the paper's 35x–2899x. The deviation band reproduces, and
/// so does the order `tests/accuracy.rs` asserts on simulated events per
/// µs of ACT.
pub fn table4(o: &mut String) -> fmt::Result {
    let topologies = table4_topologies();
    writeln!(o, "Table IV — Application ACTs on SDT compared to the simulator")?;
    writeln!(o, "cell = speedup x (ACT deviation %) | speedup = sim wall-clock / SDT ACT")?;
    writeln!(o, "(deployment, reported in the detail block, amortizes over the suite)\n")?;
    write!(o, "{:<18}", "topology")?;
    for (n, _) in table4_workloads(4) {
        write!(o, "{n:>18}")?;
    }
    writeln!(o)?;
    let grid = table4_grid(&topologies, 32);
    for ((topo, _), row) in topologies.iter().zip(&grid) {
        write!(o, "{:<18}", topo.name())?;
        for cell in row {
            write!(o, "{:>18}", format!("{:.1}x ({:+.1}%)", cell.speedup(), cell.act_dev_pct()))?;
        }
        writeln!(o)?;
    }
    writeln!(o, "\n(grid computed on {} sweep threads)", bench_threads())?;
    writeln!(o)?;
    // Detail block for one topology, with raw numbers.
    let (topo, _) = &topologies[0];
    writeln!(o, "detail ({}):", topo.name())?;
    writeln!(
        o,
        "{:<18}{:>14}{:>14}{:>14}{:>14}{:>12}",
        "app", "SDT ACT", "sim ACT", "sim wall", "SDT eval", "sim events"
    )?;
    for c in &grid[0] {
        writeln!(
            o,
            "{:<18}{:>14}{:>14}{:>14}{:>14}{:>12}",
            &c.app[..c.app.len().min(18)],
            fmt_ns(c.sdt_act_ns as f64),
            fmt_ns(c.sim_act_ns as f64),
            fmt_ns(c.sim_wall_ns as f64),
            fmt_ns(c.sdt_eval_ns as f64),
            c.sim_events
        )?;
    }
    writeln!(o, "\npaper: deviations within ±3.6%, speedups 33x (HPL) .. 2899x (Alltoall);")?;
    writeln!(o, "our simulator is a fast Rust engine rather than the authors' BookSim/SST")?;
    writeln!(o, "stack, so absolute speedups are smaller at these scaled-down sizes, but")?;
    writeln!(o, "the deviation band and the per-app ordering reproduce (see EXPERIMENTS.md).")
}

/// Fig. 11: additional 8-hop RTT overhead introduced by SDT vs the full
/// testbed, over pingpong message lengths (IMB -msglen sweep).
pub fn fig11(o: &mut String) -> fmt::Result {
    writeln!(o, "Fig. 11 — Additional overhead by SDT on 8-hop latency\n")?;
    let sizes = [
        64u64, 128, 256, 512, 1024, 2048, 4096, 8192, 16 << 10, 64 << 10, 256 << 10, 1 << 20,
        4 << 20,
    ];
    writeln!(o, "{:>10}{:>16}{:>16}{:>12}", "msglen", "full RTT", "SDT RTT", "overhead")?;
    let pts = fig11_sweep(&sizes, 50);
    for p in &pts {
        writeln!(
            o,
            "{:>10}{:>16}{:>16}{:>11.3}%",
            p.bytes,
            fmt_ns(p.full_rtt_ns),
            fmt_ns(p.sdt_rtt_ns),
            p.overhead * 100.0
        )?;
    }
    let max = pts.iter().map(|p| p.overhead).fold(0.0, f64::max);
    writeln!(o, "\nmax overhead {:.3}% — paper: 0.03%..1.6%, always <2%, shrinking with", max * 100.0)?;
    writeln!(o, "message length (serialization dominates the constant crossbar penalty).")
}

/// Fig. 12: per-sender bandwidth in a 7-to-1 TCP incast on the 8-switch
/// chain, PFC on and off, full testbed vs SDT.
pub fn fig12(o: &mut String) -> fmt::Result {
    writeln!(o, "Fig. 12 — Incast bandwidth test (all nodes -> node 4)\n")?;
    for (title, lossless) in [("PFC on (lossless)", true), ("PFC off (lossy)", false)] {
        writeln!(o, "== {title} ==")?;
        writeln!(
            o,
            "{:<8}{:>6}{:>16}{:>16}{:>10}",
            "sender", "hops", "full (Gbps)", "SDT (Gbps)", "dev"
        )?;
        let rows = fig12_incast(lossless, 50);
        for r in &rows {
            let dev = if r.full_gbps > 0.0 {
                100.0 * (r.sdt_gbps - r.full_gbps) / r.full_gbps
            } else {
                0.0
            };
            writeln!(
                o,
                "node {:<4}{:>5}{:>16.3}{:>16.3}{:>9.1}%",
                r.node, r.hops, r.full_gbps, r.sdt_gbps, dev
            )?;
        }
        let (f, s): (f64, f64) =
            rows.iter().fold((0.0, 0.0), |(a, b), r| (a + r.full_gbps, b + r.sdt_gbps));
        writeln!(o, "{:<14}{:>16.3}{:>16.3}\n", "total", f, s)?;
    }
    writeln!(o, "paper shape: with PFC, shares group by hop/congestion-point count and match")?;
    writeln!(o, "the full testbed almost exactly; without PFC the allocation skews by RTT with")?;
    writeln!(o, "the same trend in both fabrics and a lower (loss-wasted) total.")
}

/// Fig. 13: evaluation times of full testbed, simulator, and SDT for IMB
/// Alltoall on Dragonfly(4,9,2) over growing node counts. SDT's time
/// includes the topology deployment; the simulator's is its measured
/// wall-clock.
pub fn fig13(o: &mut String) -> fmt::Result {
    writeln!(o, "Fig. 13 — Evaluation times: full testbed vs simulator vs SDT")?;
    writeln!(o, "(IMB Alltoall, Dragonfly a=4 g=9 h=2, 64 KiB per pair)\n")?;
    let topo = dragonfly(4, 9, 2, 2);
    let deploy_ns = smallest_deployment(&topo).deploy_time_ns;
    writeln!(o, "SDT deployment time: {}\n", fmt_ns(deploy_ns as f64))?;
    writeln!(
        o,
        "{:>6}{:>18}{:>18}{:>18}",
        "nodes", "full testbed", "simulator (wall)", "SDT (deploy+ACT)"
    )?;
    for n in [1u32, 2, 4, 8, 16, 32] {
        let p = fig13_point(&topo, n, 64 * 1024, deploy_ns);
        writeln!(
            o,
            "{:>6}{:>18}{:>18}{:>18}",
            n,
            fmt_ns(p.act_ns as f64),
            fmt_ns(p.sim_wall_ns as f64),
            fmt_ns(p.sdt_eval_ns as f64)
        )?;
    }
    writeln!(o, "\npaper shape: at small node counts SDT's deployment time dominates (still")?;
    writeln!(o, "cheaper than simulating); as nodes grow, simulator time climbs steeply while")?;
    writeln!(o, "SDT stays at deployment + real-time ACT.")
}

/// §VI-E: IMB Alltoall and an adversarial group-shift pattern on
/// Dragonfly(4,9,2), static minimal vs Network-Monitor-driven UGAL.
pub fn active_routing(o: &mut String) -> fmt::Result {
    writeln!(o, "§VI-E — Active routing on Dragonfly(4,9,2), 32 nodes\n")?;
    writeln!(o, "{:<40}{:>14}{:>14}{:>12}", "workload", "minimal ACT", "active ACT", "reduction")?;
    for (label, r) in active_routing_cases() {
        writeln!(
            o,
            "{:<40}{:>14}{:>14}{:>11.1}%",
            label,
            fmt_ns(r.minimal_act_ns as f64),
            fmt_ns(r.adaptive_act_ns as f64),
            r.reduction_pct()
        )?;
    }
    writeln!(o, "\npaper: active routing reduced Alltoall ACT on their 32-of-72 placement.")?;
    writeln!(o, "ours: the gain concentrates where adaptivity has room to help — the")?;
    writeln!(o, "adversarial pattern (every group's load aimed at one global link) — while")?;
    writeln!(o, "uniform alltoall stays within a few percent of minimal routing, consistent")?;
    writeln!(o, "with the UGAL literature.")
}

/// Ablations of the design choices DESIGN.md calls out:
///
/// 1. partitioner refinement (FM passes) and balance tolerance — the §IV-C
///    objective's two terms;
/// 2. the two-table OpenFlow pipeline vs a naive single-table synthesis —
///    the §VII-C flow-table budget;
/// 3. cut-through vs store-and-forward — the fidelity knob behind Fig. 11;
/// 4. simulator cell granularity — the packet/flit trade driving Table IV.
pub fn ablations(o: &mut String) -> fmt::Result {
    ablate_partitioner(o)?;
    ablate_pipeline(o)?;
    ablate_cut_through(o)?;
    ablate_granularity(o)
}

fn ablate_partitioner(o: &mut String) -> fmt::Result {
    writeln!(o, "== Ablation 1: partitioner refinement & balance (§IV-C) ==")?;
    writeln!(
        o,
        "{:<22}{:>10}{:>10}{:>12}{:>12}",
        "topology", "fm_passes", "epsilon", "cut", "imbalance"
    )?;
    let grid: Vec<(Topology, usize, f64)> = [fat_tree(4), torus(&[4, 4]), dragonfly(4, 9, 2, 2)]
        .into_iter()
        .flat_map(|topo| {
            [(0usize, 0.10f64), (8, 0.10), (8, 0.50)].map(|(fm, eps)| (topo.clone(), fm, eps))
        })
        .collect();
    for line in par_map(&grid, |(topo, fm, eps)| {
        let (adj, vwgt) = topo.switch_graph();
        let g = Graph::from_adj(adj, vwgt);
        let cfg = PartitionConfig { fm_passes: *fm, epsilon: *eps, ..Default::default() };
        let p = partition_topology(topo, 2, &cfg);
        format!(
            "{:<22}{:>10}{:>10.2}{:>12}{:>11.1}%",
            topo.name(),
            fm,
            eps,
            p.cut_edges(&g),
            p.imbalance(&g) * 100.0
        )
    }) {
        writeln!(o, "{line}")?;
    }
    writeln!(o, "(expected: FM refinement lowers the cut; loosening epsilon trades balance")?;
    writeln!(o, " for cut — the two terms of the paper's alpha*cut + beta*balance objective)\n")
}

/// Entries a naive single-table synthesis would need: every sub-switch pays
/// one exact (in_port, dst) entry per ingress port and routed destination,
/// instead of the pipeline's additive `ports + dsts`.
fn naive_single_table_entries(topo: &Topology, p: &SdtProjection) -> usize {
    let mut dsts_per_subswitch = std::collections::HashMap::new();
    for t in &p.synthesis.table1 {
        for e in t {
            let md = match e.m.metadata {
                Some(md) => md,
                None => unreachable!("table-1 entries are sub-switch-scoped"),
            };
            *dsts_per_subswitch.entry(md).or_insert(0usize) += 1;
        }
    }
    (0..topo.num_switches())
        .map(|s| {
            let s = SwitchId(s);
            topo.radix(s) * dsts_per_subswitch.get(&s.0).copied().unwrap_or(0)
        })
        .sum()
}

fn ablate_pipeline(o: &mut String) -> fmt::Result {
    writeln!(o, "== Ablation 2: two-table pipeline vs naive single table (§VII-C) ==")?;
    writeln!(o, "{:<22}{:>16}{:>16}{:>10}", "topology", "two-table", "naive 1-table", "ratio")?;
    for topo in [fat_tree(4), torus(&[4, 4]), dragonfly(4, 9, 2, 2)] {
        let p = smallest_deployment(&topo).projection;
        let two_table: usize = p.synthesis.entries_per_switch.iter().sum();
        let naive = naive_single_table_entries(&topo, &p);
        writeln!(
            o,
            "{:<22}{:>16}{:>16}{:>10.1}",
            topo.name(),
            two_table,
            naive,
            naive as f64 / two_table as f64
        )?;
    }
    writeln!(o, "(the metadata stage keeps the budget additive instead of multiplicative,")?;
    writeln!(o, " which is how fat-tree k=4 stays in the low hundreds per switch)\n")
}

fn ablate_cut_through(o: &mut String) -> fmt::Result {
    writeln!(o, "== Ablation 3: cut-through vs store-and-forward ==")?;
    let topo = chain(8);
    let routes = RouteTable::build(&topo, &Bfs::new(&topo));
    let hosts = [HostId(0), HostId(7)];
    for line in par_map(&[true, false], |&ct| {
        let cfg = SimConfig { cut_through: ct, ..SimConfig::testbed_10g() };
        let res = run_trace(&topo, routes.clone(), cfg, &imb_pingpong(1500, 50), &hosts);
        let rtt = res.act_ns.map_or(f64::NAN, |a| a as f64) / 50.0;
        format!(
            "  {:<18} 8-hop 1500B pingpong RTT: {}",
            if ct { "cut-through" } else { "store-and-forward" },
            fmt_ns(rtt)
        )
    }) {
        writeln!(o, "{line}")?;
    }
    writeln!(o, "(the paper's fabric runs cut-through; store-and-forward pays one extra")?;
    writeln!(o, " serialization per hop and would inflate small-message RTTs)\n")
}

fn ablate_granularity(o: &mut String) -> fmt::Result {
    writeln!(o, "== Ablation 4: simulator cell granularity (Table IV's trade) ==")?;
    let topo = dragonfly(4, 9, 2, 2);
    let strategy = default_strategy(&topo);
    let routes = RouteTable::build(&topo, strategy.as_ref());
    let hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let trace = imb_alltoall(16, 32 * 1024, 1);
    writeln!(o, "{:>12}{:>14}{:>14}{:>14}", "cell bytes", "ACT", "wall", "events")?;
    for line in par_map(&[1500u32, 512, 256, 64], |&cell| {
        let cfg = SimConfig {
            granularity: Granularity::Custom(cell),
            ..SimConfig::testbed_10g()
        };
        let res = run_trace(&topo, routes.clone(), cfg, &trace, &hosts);
        format!(
            "{:>12}{:>14}{:>14}{:>14}",
            cell,
            fmt_ns(res.act_ns.map_or(f64::NAN, |a| a as f64)),
            fmt_ns(res.wall_ns as f64),
            res.events
        )
    }) {
        writeln!(o, "{line}")?;
    }
    writeln!(o, "(ACT converges across granularities — the Table IV deviation band — while")?;
    writeln!(o, " event count and wall-clock scale inversely with cell size)")
}
