//! Engine hot-path benchmark artifact: wall-clock for the Table IV
//! workloads on fat-tree k=4, run once sequentially and once across the
//! sweep thread pool, plus the dense-vs-HashMap route-lookup comparison.
//! Writes `results/BENCH_engine.json`.
//!
//! Run with: `cargo run --release -p sdt-bench --bin bench_engine`

use sdt::routing::{generic::Bfs, Route, RouteTable};
use sdt::sim::{run_trace, SimConfig};
use sdt::topology::fattree::fat_tree;
use sdt::topology::SwitchId;
use sdt::workloads::select_nodes;
use sdt_bench::{bench_threads, table4_workloads, SDT_EXTRA_NS};
use sdt_par::par_map_threads;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `writeln!` into a `String` cannot fail; swallow the `fmt::Result` so the
/// JSON assembly below stays linear.
macro_rules! jline {
    ($($arg:tt)*) => {
        let _ = writeln!($($arg)*);
    };
}

fn main() -> std::io::Result<()> {
    let topo = fat_tree(4);
    let routes = RouteTable::build(&topo, &Bfs::new(&topo));
    let ranks = topo.num_hosts().min(16);
    let workloads = table4_workloads(ranks);
    let threads = bench_threads();

    let sweep = |nthreads: usize| -> (f64, Vec<(String, u64, u128)>) {
        let t0 = Instant::now();
        let cells = par_map_threads(nthreads, &workloads, |(_, trace)| {
            let hosts = select_nodes(&topo, trace.num_ranks(), 2023);
            let cfg = SimConfig { extra_switch_ns: SDT_EXTRA_NS, ..SimConfig::testbed_10g() };
            let res = run_trace(&topo, routes.clone(), cfg, trace, &hosts);
            match res.act_ns {
                Some(act) => (trace.name.clone(), act, res.wall_ns),
                None => panic!("{} did not complete", trace.name),
            }
        });
        (t0.elapsed().as_secs_f64(), cells)
    };
    // Simulated results must be identical; wall-clock (the third field)
    // legitimately differs between passes.
    let acts = |cells: &[(String, u64, u128)]| -> Vec<(String, u64)> {
        cells.iter().map(|(n, a, _)| (n.clone(), *a)).collect()
    };
    let (seq_secs, par_secs, seq_cells, note) = if threads <= 1 {
        // One worker: `sweep(threads)` and `sweep(1)` are the same
        // expression, so timing them separately only measures noise (a
        // past artifact recorded a phantom 0.94x "slowdown" that way).
        // Warm up untimed, measure once, and record the single honest
        // number for both columns.
        let _ = sweep(1);
        let (secs, cells) = sweep(1);
        (secs, secs, cells, Some("pool degenerated to sequential (1 thread)"))
    } else {
        // Warm up untimed, then best-of-3 interleaved passes so neither
        // side pays the cold-cache handicap.
        let _ = sweep(threads);
        let mut seq_best = f64::INFINITY;
        let mut par_best = f64::INFINITY;
        let mut cells = None;
        for _ in 0..3 {
            let (p, par_cells) = sweep(threads);
            let (s, seq_cells) = sweep(1);
            assert_eq!(acts(&seq_cells), acts(&par_cells), "parallel sweep changed results");
            par_best = par_best.min(p);
            seq_best = seq_best.min(s);
            cells = Some(seq_cells);
        }
        match cells {
            Some(c) => (seq_best, par_best, c, None),
            None => unreachable!("loop ran three times"),
        }
    };

    // Route-lookup microcomparison: dense table vs the HashMap it replaced.
    let pairs: Vec<(SwitchId, SwitchId)> = routes.iter().map(|(&p, _)| p).collect();
    let baseline: HashMap<(SwitchId, SwitchId), Route> =
        routes.iter().map(|(&p, r)| (p, r.clone())).collect();
    let time_ns = |f: &dyn Fn() -> usize| -> f64 {
        let reps = 2_000u32;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += f();
            }
            let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
            std::hint::black_box(acc);
            best = best.min(ns);
        }
        best
    };
    let dense_ns = time_ns(&|| {
        pairs.iter().map(|&(s, d)| routes.try_route(s, d).map_or(0, |r| r.hops.len())).sum()
    });
    let hashmap_ns = time_ns(&|| {
        pairs.iter().map(|&(s, d)| baseline.get(&(s, d)).map_or(0, |r| r.hops.len())).sum()
    });

    let mut json = String::new();
    jline!(json, "{{");
    jline!(json, "  \"topology\": \"{}\",", topo.name());
    jline!(json, "  \"threads\": {threads},");
    jline!(json, "  \"sweep_sequential_s\": {seq_secs:.6},");
    jline!(json, "  \"sweep_parallel_s\": {par_secs:.6},");
    jline!(json, "  \"sweep_speedup\": {:.3},", seq_secs / par_secs);
    if let Some(n) = note {
        jline!(json, "  \"sweep_note\": \"{n}\",");
    }
    jline!(json, "  \"route_lookup_dense_ns\": {dense_ns:.1},");
    jline!(json, "  \"route_lookup_hashmap_ns\": {hashmap_ns:.1},");
    jline!(json, "  \"route_lookup_speedup\": {:.3},", hashmap_ns / dense_ns);
    jline!(json, "  \"workloads\": [");
    for (i, (name, act_ns, wall_ns)) in seq_cells.iter().enumerate() {
        let comma = if i + 1 < seq_cells.len() { "," } else { "" };
        jline!(
            json,
            "    {{\"app\": \"{name}\", \"act_ns\": {act_ns}, \"sim_wall_ns\": {wall_ns}}}{comma}"
        );
    }
    jline!(json, "  ]");
    jline!(json, "}}");

    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_engine.json", &json)?;
    print!("{json}");
    eprintln!(
        "sweep {seq_secs:.2}s -> {par_secs:.2}s on {threads} threads ({:.2}x); \
         route lookup {hashmap_ns:.0}ns -> {dense_ns:.0}ns ({:.2}x)",
        seq_secs / par_secs,
        hashmap_ns / dense_ns
    );
    Ok(())
}
