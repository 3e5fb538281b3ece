//! The parallel sweep driver must be invisible in the results: fanning
//! independent simulation runs across threads may change wall-clock, never
//! bits. Each cell owns its simulator and seeded RNG, so these tests pin
//! exact equality — down to per-flow FCTs — between the sequential and
//! parallel paths.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt::routing::{generic::Bfs, RouteTable};
use sdt::sim::{run_trace, MpiRunResult, SimConfig};
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::torus;
use sdt::workloads::{apps, select_nodes, MachineModel};
use sdt_bench::{fig11_sweep, table4_cell, table4_grid, SDT_EXTRA_NS};
use sdt_par::par_map_threads;

/// One Table IV-style cell at test scale: the fixed-seed HPCG workload on
/// fat-tree k=4 under the SDT fabric config.
fn table4_style_run(msg_scale: u32) -> MpiRunResult {
    let topo = fat_tree(4);
    let routes = RouteTable::build(&topo, &Bfs::new(&topo));
    let trace = apps::hpcg(8, msg_scale, 2, &MachineModel::default());
    let hosts = select_nodes(&topo, 8, 2023);
    let cfg = SimConfig { extra_switch_ns: SDT_EXTRA_NS, ..SimConfig::testbed_10g() };
    run_trace(&topo, routes, cfg, &trace, &hosts)
}

/// Satellite (c): a fixed-seed Table IV workload pushed through the
/// parallel sweep yields byte-identical per-flow FCTs vs the sequential
/// path — same flows, same (start, finish) nanoseconds, same order.
#[test]
fn parallel_sweep_fcts_byte_identical() {
    let scales: Vec<u32> = vec![8, 12, 16, 24];
    let seq = par_map_threads(1, &scales, |&s| table4_style_run(s));
    let par = par_map_threads(4, &scales, |&s| table4_style_run(s));
    for (a, b) in seq.iter().zip(&par) {
        assert!(!a.flow_times_ns.is_empty(), "workload produced no flows");
        assert_eq!(a.flow_times_ns, b.flow_times_ns, "per-flow FCTs diverged");
        assert_eq!(a.act_ns, b.act_ns);
        assert_eq!(a.events, b.events);
        assert_eq!(a.cells_delivered, b.cells_delivered);
    }
}

/// The Table IV grid driver itself (thread count from the environment)
/// must equal a hand-rolled sequential loop over the same cells.
#[test]
fn table4_grid_matches_sequential_loop() {
    let topologies = vec![(fat_tree(4), 1_000u64), (torus(&[4, 4]), 2_000u64)];
    let grid = table4_grid(&topologies, 4);
    assert_eq!(grid.len(), topologies.len());
    for ((topo, deploy_ns), row) in topologies.iter().zip(&grid) {
        let ranks = topo.num_hosts().min(4);
        let expected: Vec<_> = sdt_bench::table4_workloads(ranks)
            .into_iter()
            .map(|(_, trace)| {
                let hosts = select_nodes(topo, trace.num_ranks(), 2023);
                table4_cell(topo, &trace, &hosts, *deploy_ns)
            })
            .collect();
        assert_eq!(row.len(), expected.len());
        for (got, want) in row.iter().zip(&expected) {
            assert_eq!(got.app, want.app);
            assert_eq!(got.sdt_act_ns, want.sdt_act_ns, "{}", got.app);
            assert_eq!(got.sim_act_ns, want.sim_act_ns, "{}", got.app);
            assert_eq!(got.sim_events, want.sim_events, "{}", got.app);
            assert_eq!(got.sdt_eval_ns, want.sdt_eval_ns, "{}", got.app);
        }
    }
}

/// Fig. 11 sweep (parallel over sizes) is bit-stable run-to-run, including
/// the derived floating-point overheads.
#[test]
fn fig11_sweep_bit_stable() {
    let sizes = [256u64, 4096, 65_536];
    let a = fig11_sweep(&sizes, 3);
    let b = fig11_sweep(&sizes, 3);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.bytes, y.bytes);
        assert_eq!(x.full_rtt_ns.to_bits(), y.full_rtt_ns.to_bits());
        assert_eq!(x.sdt_rtt_ns.to_bits(), y.sdt_rtt_ns.to_bits());
        assert_eq!(x.overhead.to_bits(), y.overhead.to_bits());
    }
}
