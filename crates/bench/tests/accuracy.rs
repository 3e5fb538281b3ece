//! The paper's §VI shapes, asserted on the drivers that print `results/`,
//! at sizes a debug test run affords. Only relations measured at these
//! sizes are asserted; wall-clock shapes are asserted on simulated events.
//!
//! TP accuracy (§VI-B): SDT adds at most ~2% to multi-hop RTT, the overhead
//! *percentage shrinks* as messages grow, and bandwidth allocation under
//! PFC matches the full testbed.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt::core::methods::Method;
use sdt::topology::dragonfly::dragonfly;
use sdt_bench::*;
use std::sync::OnceLock;

/// The Fig. 12 incast with PFC on, 20 ms of steady state.
fn pfc_on() -> &'static [Fig12Row] {
    static ROWS: OnceLock<Vec<Fig12Row>> = OnceLock::new();
    ROWS.get_or_init(|| fig12_incast(true, 20))
}

#[test]
fn fig11_overhead_below_two_percent_and_shrinking() {
    let sizes = [64u64, 256, 1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024];
    let pts = fig11_sweep(&sizes, 50);
    for p in &pts {
        let (b, ovh) = (p.bytes, p.overhead);
        assert!(ovh >= 0.0, "{b}B: negative overhead {ovh}");
        assert!(ovh <= 0.02, "{b}B: overhead {ovh} above the paper's 2% bound");
    }
    // Monotone-ish decrease: the largest message's overhead is well below
    // the smallest's (Fig. 11's downward trend).
    let overheads: Vec<f64> = pts.iter().map(|p| p.overhead).collect();
    assert!(
        overheads.last().unwrap() < &(overheads[0] / 4.0),
        "overheads {overheads:?} should shrink with message size"
    );
}

#[test]
fn small_message_multihop_latency_under_10us() {
    // "the 10-hop latency of the lengths below 256 bytes is under 10us"
    let one_way = fig11_sweep(&[256], 50)[0].sdt_rtt_ns / 2.0;
    assert!(one_way < 10_000.0, "one-way {one_way} ns");
}

#[test]
fn incast_bandwidth_shares_match_between_full_and_sdt() {
    // Fig. 12 PFC-on: per-sender goodput must agree between the full
    // testbed and SDT within a few percent.
    let rows = pfc_on();
    for r in rows {
        let (a, b) = (r.full_gbps, r.sdt_gbps);
        let dev = (a - b).abs() / a.max(1e-9);
        assert!(dev < 0.05, "node {}: full {a} vs sdt {b} ({dev})", r.node);
    }
    // And the shares really are hop-dependent (adjacent senders win).
    let adjacent = rows[2].full_gbps.min(rows[3].full_gbps); // nodes 3 and 5
    let farthest = rows[6].full_gbps; // node 8
    assert!(adjacent > farthest * 1.5, "adjacent {adjacent} vs far {farthest}");
}

#[test]
fn lossless_total_reaches_line_rate() {
    let total: f64 = pfc_on().iter().map(|r| r.full_gbps).sum();
    assert!((9.0..=10.2).contains(&total), "bottleneck total {total} Gbps");
}

#[test]
fn losing_pfc_wastes_bandwidth_on_both_fabrics() {
    let totals = |rows: &[Fig12Row]| {
        rows.iter().fold((0.0, 0.0), |(f, s), r| (f + r.full_gbps, s + r.sdt_gbps))
    };
    let (on_full, on_sdt) = totals(pfc_on());
    let (off_full, off_sdt) = totals(&fig12_incast(false, 20));
    assert!(off_full < on_full, "full: PFC off {off_full} Gbps, on {on_full} Gbps");
    assert!(off_sdt < on_sdt, "SDT: PFC off {off_sdt} Gbps, on {on_sdt} Gbps");
}

/// Table II: SDT projects exactly what SP and SP-OS project (same port
/// mathematics), never less than TurboNet and somewhere more, on the DC
/// grid and the WAN corpus; and it is the cheapest reconfigurable method.
#[test]
fn table2_sdt_ties_sp_dominates_turbonet_and_costs_least() {
    let mut strictly_faster = 0;
    for row in table2_dc_grid() {
        for col in ["64x100G", "128x100G"] {
            let speed = |m: Method| match row.cells.iter().find(|c| c.0 == m && c.1 == col) {
                Some(c) => c.2,
                None => panic!("{}: no {m:?} cell at {col}", row.label),
            };
            let sdt = speed(Method::Sdt);
            assert_eq!(sdt, speed(Method::Sp), "{} {col}: SDT vs SP", row.label);
            assert_eq!(sdt, speed(Method::SpOs), "{} {col}: SDT vs SP-OS", row.label);
            // `None` (not projectable) orders below every speed.
            let turbonet = speed(Method::Turbonet);
            assert!(sdt >= turbonet, "{} {col}: SDT {sdt:?} < TurboNet {turbonet:?}", row.label);
            strictly_faster += usize::from(sdt > turbonet);
        }
    }
    assert!(strictly_faster > 0, "SDT never beats TurboNet on the DC grid");

    for (label, counts) in table2_wan_rows() {
        let count = |m: Method| counts.iter().find(|c| c.0 == m).unwrap().1;
        let sdt = count(Method::Sdt);
        assert_eq!(sdt, count(Method::Sp), "{label}");
        assert_eq!(sdt, count(Method::SpOs), "{label}");
        assert!(sdt >= count(Method::Turbonet), "{label}: {counts:?}");
    }

    let costs = table2_costs();
    let cost = |m: Method| *costs.iter().find(|c| c.0 == m).unwrap();
    let sdt = cost(Method::Sdt);
    for other in [Method::SpOs, Method::Turbonet] {
        let c = cost(other);
        assert!(sdt.1 <= c.1 && sdt.2 <= c.2, "SDT {sdt:?} vs {c:?}");
    }
}

/// Table IV on every topology at 8 ranks. ACT deviation stays under 4%
/// (3.7% at most here; the paper's band is ±3.6%). The speedup order is
/// checked on the simulator's events per µs of SDT ACT, the host-free half
/// of "sim wall-clock / SDT ACT": HPL < HPCG < miniFE 264³ < miniFE
/// 264×512² < miniGhost < Alltoall, and HPL < Pingpong < miniGhost.
/// Pingpong's place against HPCG and miniFE moves with the placement and
/// the rank count, so it is not asserted.
#[test]
fn table4_act_agrees_and_simulation_cost_orders_the_apps() {
    let topologies = table4_topologies();
    for ((topo, _), row) in topologies.iter().zip(table4_grid(&topologies, 8)) {
        for c in &row {
            let dev = c.act_dev_pct();
            assert!(dev.abs() < 4.0, "{} {}: ACT deviation {dev:+.2}%", topo.name(), c.app);
        }
        let rates: Vec<f64> =
            row.iter().map(|c| c.sim_events as f64 * 1e3 / c.sdt_act_ns as f64).collect();
        let &[hpcg, hpl, minighost, minife, minife_large, alltoall, pingpong] = rates.as_slice()
        else {
            panic!("{}: {} Table IV columns", topo.name(), rates.len());
        };
        let name = topo.name();
        assert!(
            hpl < hpcg
                && hpcg < minife
                && minife < minife_large
                && minife_large < minighost
                && minighost < alltoall,
            "{name}: events/us {rates:?}"
        );
        assert!(hpl < pingpong && pingpong < minighost, "{name}: events/us {rates:?}");
    }
}

/// Fig. 13: the simulator's work grows with the node count faster than the
/// workload's real time does, while SDT pays the same deployment on top of
/// ACT at every size.
#[test]
fn fig13_simulation_cost_outgrows_act_while_sdt_adds_one_deploy() {
    let topo = dragonfly(4, 9, 2, 2);
    let deploy_ns = smallest_deployment(&topo).deploy_time_ns;
    let points: Vec<Fig13Point> =
        [1u32, 2, 4, 8, 16].iter().map(|&n| fig13_point(&topo, n, 64 * 1024, deploy_ns)).collect();
    for p in &points {
        assert_eq!(p.sdt_eval_ns, p.act_ns + deploy_ns, "{} nodes", p.nodes);
    }
    for w in points.windows(2) {
        let per_us = |p: &Fig13Point| p.sim_events as f64 * 1e3 / p.act_ns as f64;
        assert!(w[1].sim_events > w[0].sim_events, "{:?} -> {:?}", w[0], w[1]);
        assert!(per_us(&w[1]) > per_us(&w[0]), "{:?} -> {:?}", w[0], w[1]);
    }
}

/// §VI-E: active routing gains more on the adversarial group shift than on
/// uniform Alltoall.
#[test]
fn active_routing_gains_most_on_the_adversarial_shift() {
    let [(_, alltoall), (_, shift)] = active_routing_cases();
    assert!(
        shift.reduction_pct() > alltoall.reduction_pct(),
        "shift {:.1}% vs alltoall {:.1}%",
        shift.reduction_pct(),
        alltoall.reduction_pct()
    );
}
