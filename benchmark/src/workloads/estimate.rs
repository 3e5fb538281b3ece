//! `estimate-k32`: the decomposed FCT estimator at a fabric size the engine
//! cannot reach, with its error at the pinned oracle point beside its speed.

use crate::harness::{Ctx, Outcome};
use crate::rng::sub_seed;
use crate::trace::Tracer;
use crate::workloads::check_pinned;
use sdt::estimate::{
    estimate, EstimateConfig, EstimateStats, SparseRoutes, MEAN_ERROR_ENVELOPE, P99_ERROR_ENVELOPE,
};
use sdt::routing::{default_strategy, RouteTable};
use sdt::sim::{SimConfig, SimOutcome, Simulator};
use sdt::topology::fattree::fat_tree;
use sdt::topology::Topology;
use sdt::workloads::{poisson_flows, SizeDist};
use std::time::Instant;

/// The oracle operating point: fat-tree k=8, hadoop sizes, 1 500 flows at
/// load 0.3, seed 7 — one of the points the estimator's error envelope was
/// calibrated on. It is *not* drawn from `--seed`: the envelope holds for
/// the calibrated regime only, and an error that moved with the seed could
/// not be pinned.
const ORACLE: (u32, usize, f64, u64) = (8, 1_500, 0.3, 7);

struct Unit {
    wall_s: f64,
    flows: usize,
    estimated: usize,
    stats: EstimateStats,
}

fn unit(topo: &Topology, flows: usize, seed: u64, tr: &mut Tracer) -> Unit {
    let cfg = SimConfig::default();
    let specs = tr.span("workloads.generate", || {
        poisson_flows(
            &SizeDist::websearch(),
            topo.num_hosts(),
            cfg.bytes_per_ns(),
            0.2,
            flows,
            seed,
        )
    });
    let strategy = default_strategy(topo);
    let t0 = Instant::now();
    let routes = tr.span("routing.sparse_build", || {
        SparseRoutes::build(topo, strategy.as_ref(), &specs)
    });
    let report = tr.span("estimate", || {
        estimate(topo, &routes, &specs, &cfg, &EstimateConfig::default())
    });
    Unit {
        wall_s: t0.elapsed().as_secs_f64(),
        flows: specs.len(),
        estimated: report.fcts.len(),
        stats: report.stats,
    }
}

fn rel_err(est: f64, exact: f64) -> f64 {
    (est - exact).abs() / exact
}

/// Engine and estimator on the same flows: `(mean error, p99 error)` of the
/// estimated FCTs relative to the simulated ones.
fn oracle_errors() -> Result<(f64, f64), String> {
    let (k, flows, load, seed) = ORACLE;
    let topo = fat_tree(k);
    let cfg = SimConfig::default();
    let strategy = default_strategy(&topo);
    let table = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let specs = poisson_flows(
        &SizeDist::hadoop(),
        topo.num_hosts(),
        cfg.bytes_per_ns(),
        load,
        flows,
        seed,
    );
    let mut sim = Simulator::new(&topo, table.clone(), cfg.clone());
    for f in &specs {
        sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
    }
    if sim.run() != SimOutcome::Completed {
        return Err("oracle engine run did not complete".into());
    }
    let mut exact: Vec<u64> = sim.flow_records().iter().filter_map(|r| r.fct_ns).collect();
    let routes = SparseRoutes::from_table(&topo, &table, &specs);
    let mut est = estimate(&topo, &routes, &specs, &cfg, &EstimateConfig::default()).fcts;
    if exact.len() != specs.len() || est.len() != specs.len() {
        return Err(format!(
            "oracle point: {} flows, {} simulated, {} estimated",
            specs.len(),
            exact.len(),
            est.len()
        ));
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let mean_err = rel_err(mean(&est), mean(&exact));
    exact.sort_unstable();
    est.sort_unstable();
    let p99 = |v: &[u64]| sdt_par::stats::percentile_sorted(v, 0.99).unwrap_or(0) as f64;
    Ok((mean_err, rel_err(p99(&est), p99(&exact))))
}

/// Timed units per set-up.
const UNITS_PER_BLOCK: usize = 4;

pub fn run(ctx: &Ctx) -> Outcome {
    let (k, flows) = if ctx.quick {
        (8, 20_000)
    } else {
        (32, 600_000)
    };
    let mut tr = Tracer::new(false);
    let (blocks, traced) = ctx.paired_blocks(
        1.0,
        UNITS_PER_BLOCK,
        &mut tr,
        || {
            let topo = fat_tree(k);
            let warm = unit(&topo, flows, sub_seed(ctx.seed, 0), &mut Tracer::new(false));
            (topo, warm)
        },
        |(topo, _), i, tr| unit(topo, flows, sub_seed(ctx.seed, i), tr),
    );
    let (_, warm) = blocks.last;
    let (plain, setups) = (blocks.units, blocks.setups);

    let all: Vec<&Unit> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let mut errors = Vec::new();
    let (mean_err, p99_err) = match oracle_errors() {
        Ok(e) => e,
        Err(e) => {
            errors.push(e);
            (f64::NAN, f64::NAN)
        }
    };
    if !(mean_err <= MEAN_ERROR_ENVELOPE && p99_err <= P99_ERROR_ENVELOPE) {
        errors.push(format!(
            "estimator error outside its envelope: mean {mean_err:.4} (<= {MEAN_ERROR_ENVELOPE}), \
             p99 {p99_err:.4} (<= {P99_ERROR_ENVELOPE})"
        ));
    }
    errors.extend(check_pinned(
        "estimate-k32",
        ctx,
        &[
            ("estimate.crossings", warm.stats.crossings as u64),
            ("estimate.channels", warm.stats.active_channels as u64),
            (
                "estimate.representatives",
                warm.stats.representatives as u64,
            ),
        ],
    ));

    let mut m = ctx.new_metrics();
    let walls = |us: &[Unit]| us.iter().map(|u| u.wall_s).collect::<Vec<_>>();
    if ctx.trace {
        ctx.common_per_layer(&mut m, &walls(&plain), &walls(&traced));
        m.set(
            "workloads.generate_ms",
            tr.mean_self("workloads.generate", 1e6),
        );
        m.set(
            "routing.sparse_build_ms",
            tr.mean_self("routing.sparse_build", 1e6),
        );
        // The estimator times its own stages; report the traced units' mean.
        let stage = |f: fn(&EstimateStats) -> u64| {
            traced.iter().map(|u| f(&u.stats) as f64).sum::<f64>() / traced.len() as f64 / 1e6
        };
        m.set("estimate.decompose_ms", stage(|s| s.decompose_ns));
        m.set("estimate.cluster_ms", stage(|s| s.cluster_ns));
        m.set("estimate.simulate_ms", stage(|s| s.simulate_ns));
        m.set("estimate.aggregate_ms", stage(|s| s.aggregate_ns));
        m.set("estimate.crossings", warm.stats.crossings as f64);
        m.set("estimate.channels", warm.stats.active_channels as f64);
        m.set(
            "estimate.representatives",
            warm.stats.representatives as f64,
        );
        m.set("estimate.collapse_ratio", warm.stats.collapse_ratio);
        m.set("estimate.mean_err", mean_err);
        m.set("estimate.p99_err", p99_err);
        m.set("par.threads", warm.stats.threads as f64);
    } else {
        let rates: Vec<f64> = plain.iter().map(|u| u.flows as f64 / u.wall_s).collect();
        ctx.common_end_to_end(&mut m, &setups, &rates);
    }
    Outcome {
        attempted: all.iter().map(|u| u.flows as u64).sum(),
        failed: all.iter().map(|u| (u.flows - u.estimated) as u64).sum(),
        errors,
        metrics: m,
        tracer: tr,
    }
}
