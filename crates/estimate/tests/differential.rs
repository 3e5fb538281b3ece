//! Differential tests: the decomposed estimator against the exact engine.
//!
//! The engine is the oracle. At fat-tree k=4/8 it is still cheap enough
//! to run the *same* workload through both paths and compare:
//!
//! * single flows on an idle fabric must match the engine **exactly** —
//!   the ideal-FCT arithmetic replicates the engine's pipeline;
//! * loaded Poisson mixes (websearch @ k=4, hadoop @ k=8) must land
//!   inside the pinned error envelope for mean and p99 FCT;
//! * the estimate itself must be byte-identical across thread counts,
//!   cluster on/off, and input permutation (symmetry of the PS model).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sdt_estimate::{
    aggregator::ideal_fct, estimate, EstimateConfig, SparseRoutes, MEAN_ERROR_ENVELOPE,
    P99_ERROR_ENVELOPE,
};
use sdt_routing::{default_strategy, RouteTable};
use sdt_sim::{SimConfig, SimOutcome, Simulator};
use sdt_topology::fattree::fat_tree;
use sdt_topology::{HostId, Topology};
use sdt_workloads::{poisson_flows, FlowSpec, SizeDist};

/// Run the exact engine over `flows` (scheduled at their start times) and
/// return per-flow FCTs in input order.
fn oracle_fcts(topo: &Topology, table: &RouteTable, flows: &[FlowSpec], cfg: &SimConfig) -> Vec<u64> {
    let mut sim = Simulator::new(topo, table.clone(), cfg.clone());
    for f in flows {
        sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
    }
    let outcome = sim.run();
    assert_eq!(outcome, SimOutcome::Completed, "oracle run must finish");
    sim.flow_records()
        .into_iter()
        .map(|r| r.fct_ns.expect("completed run leaves no unfinished flows"))
        .collect()
}

fn estimate_fcts(
    topo: &Topology,
    table: &RouteTable,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    est: &EstimateConfig,
) -> Vec<u64> {
    // from_table: estimator provably shares the oracle's paths.
    let routes = SparseRoutes::from_table(topo, table, flows);
    estimate(topo, &routes, flows, cfg, est).fcts
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

fn p99(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = (v.len() as f64 * 0.99).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

fn rel_err(est: f64, exact: f64) -> f64 {
    (est - exact).abs() / exact
}

#[test]
fn single_flows_match_the_engine_exactly() {
    let topo = fat_tree(4);
    let strategy = default_strategy(&topo);
    let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let cfg = SimConfig::default();
    let cases: &[(u32, u32, u64)] = &[
        (0, 0, 4_096),      // same host
        (0, 1, 1),          // same edge switch, sub-header runt
        (0, 1, 64),         // exactly one header
        (0, 2, 1_500),      // same pod, one full cell
        (0, 2, 1_501),      // one full cell + 1-byte tail
        (0, 15, 150_000),   // cross pod, 100 cells
        (3, 12, 1_000_000), // cross pod, long flow
        (5, 6, 9_999),      // same pod, ragged tail
    ];
    for &(s, d, bytes) in cases {
        let flows = [FlowSpec { src: HostId(s), dst: HostId(d), bytes, start_ns: 0 }];
        let exact = oracle_fcts(&topo, &table, &flows, &cfg);
        let est = estimate_fcts(&topo, &table, &flows, &cfg, &EstimateConfig::default());
        assert_eq!(est, exact, "flow {s}->{d} {bytes}B: estimate must be engine-exact");
    }
}

#[test]
fn scheduled_starts_do_not_change_single_flow_fct() {
    // ideal_fct is start-invariant; so is the engine on an idle fabric.
    let topo = fat_tree(4);
    let strategy = default_strategy(&topo);
    let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let cfg = SimConfig::default();
    let flows = [FlowSpec { src: HostId(0), dst: HostId(15), bytes: 37_000, start_ns: 4_500_000 }];
    let exact = oracle_fcts(&topo, &table, &flows, &cfg);
    assert_eq!(exact[0], ideal_fct(37_000, 6, &cfg));
    let est = estimate_fcts(&topo, &table, &flows, &cfg, &EstimateConfig::default());
    assert_eq!(est, exact);
}

/// Shared body for the loaded-mix envelope checks.
fn envelope_case(k: u32, dist: &SizeDist, num_flows: usize, load: f64, seed: u64) {
    let topo = fat_tree(k);
    let strategy = default_strategy(&topo);
    let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let cfg = SimConfig::default();
    let flows = poisson_flows(dist, topo.num_hosts(), cfg.bytes_per_ns(), load, num_flows, seed);
    let exact = oracle_fcts(&topo, &table, &flows, &cfg);
    let est = estimate_fcts(&topo, &table, &flows, &cfg, &EstimateConfig::default());
    assert_eq!(est.len(), exact.len());
    let em = rel_err(mean(&est), mean(&exact));
    let ep = rel_err(p99(&est) as f64, p99(&exact) as f64);
    assert!(
        em <= MEAN_ERROR_ENVELOPE,
        "k={k} {} mean error {em:.4} exceeds envelope {MEAN_ERROR_ENVELOPE}",
        dist.name()
    );
    assert!(
        ep <= P99_ERROR_ENVELOPE,
        "k={k} {} p99 error {ep:.4} exceeds envelope {P99_ERROR_ENVELOPE}",
        dist.name()
    );
}

#[test]
fn websearch_k4_within_envelope() {
    envelope_case(4, &SizeDist::websearch(), 400, 0.3, 42);
}

#[test]
fn hadoop_k8_within_envelope() {
    envelope_case(8, &SizeDist::hadoop(), 1_500, 0.3, 7);
}

#[test]
fn thread_count_and_clustering_are_unobservable() {
    let topo = fat_tree(4);
    let strategy = default_strategy(&topo);
    let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let cfg = SimConfig::default();
    let flows =
        poisson_flows(&SizeDist::websearch(), topo.num_hosts(), cfg.bytes_per_ns(), 0.35, 500, 3);
    let base = estimate_fcts(
        &topo,
        &table,
        &flows,
        &cfg,
        &EstimateConfig { threads: 1, cluster: true },
    );
    for threads in [2usize, 4] {
        for cluster in [true, false] {
            let got =
                estimate_fcts(&topo, &table, &flows, &cfg, &EstimateConfig { threads, cluster });
            assert_eq!(got, base, "threads={threads} cluster={cluster} diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The estimate is a function of the flow *set*, not the input order:
    /// canonical workloads sort entries, and the PS model gives equal
    /// entries equal delays, so permuting the input permutes the output.
    #[test]
    fn estimate_is_input_order_invariant(seed in 0u64..1_000, rot in 1usize..199) {
        let topo = fat_tree(4);
        let strategy = default_strategy(&topo);
        let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
        let cfg = SimConfig::default();
        let flows = poisson_flows(
            &SizeDist::hadoop(), topo.num_hosts(), cfg.bytes_per_ns(), 0.3, 200, seed,
        );
        let base = estimate_fcts(&topo, &table, &flows, &cfg, &EstimateConfig::default());
        let mut rotated = flows.clone();
        rotated.rotate_left(rot % flows.len());
        let got = estimate_fcts(&topo, &table, &rotated, &cfg, &EstimateConfig::default());
        let mut unrot = got.clone();
        unrot.rotate_right(rot % flows.len());
        prop_assert_eq!(unrot, base);
    }
}
