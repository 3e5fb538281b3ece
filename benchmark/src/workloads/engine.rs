//! `engine-*`: the fabric simulator's host-time cost per delivered cell.
//!
//! One unit is one complete simulation on a fresh input drawn from
//! `(seed, unit)`. Simulated time never shares a field with host time:
//! `sim.sim_ns`, `sim.fct_*` and `sim.mpi.act_ns` are simulated, everything
//! else is measured wall clock.

use crate::harness::{Ctx, Outcome};
use crate::rng::sub_seed;
use crate::trace::Tracer;
use crate::workloads::check_pinned;
use sdt::routing::{default_strategy, RouteTable};
use sdt::sim::{run_trace, DcqcnConfig, SimConfig, SimOutcome, Simulator};
use sdt::topology::dragonfly::dragonfly;
use sdt::topology::fattree::fat_tree;
use sdt::topology::Topology;
use sdt::workloads::apps::imb_alltoall;
use sdt::workloads::{poisson_flows, select_nodes, SizeDist, Trace};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Packet cells, PFC lossless, DCQCN off: many short flows.
    Flows,
    /// Flit cells, IMB Alltoall replay on a dragonfly.
    AlltoallFlit,
    /// Packet cells with DCQCN: rate-timer and ECN events dominate.
    Dcqcn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Flows => "engine-flows",
            Kind::AlltoallFlit => "engine-alltoall-flit",
            Kind::Dcqcn => "engine-dcqcn",
        }
    }
}

/// What one unit simulates.
enum Input {
    /// Seeded Poisson flows: `flows` of `dist` at `load` of line rate.
    Poisson {
        dist: SizeDist,
        flows: usize,
        load: f64,
    },
    /// An MPI trace replayed on `ranks` seeded hosts.
    Mpi { trace: Trace, ranks: u32 },
}

struct Env {
    topo: Topology,
    routes: RouteTable,
    cfg: SimConfig,
    input: Input,
}

/// One simulation's measurements and simulated results.
#[derive(Clone, Debug, Default)]
struct Unit {
    wall_s: f64,
    /// Host time inside `Simulator::run`.
    run_s: f64,
    flows: u64,
    unfinished: u64,
    completed: bool,
    events: u64,
    cells: u64,
    drops: u64,
    sim_ns: u64,
    fct_p50_ns: u64,
    fct_p99_ns: u64,
    peak_queue_bytes: u64,
    act_ns: u64,
}

fn build(kind: Kind, quick: bool) -> Env {
    let (topo, cfg, input) = match kind {
        Kind::Flows => (
            fat_tree(if quick { 4 } else { 8 }),
            SimConfig::default(),
            Input::Poisson {
                dist: SizeDist::hadoop(),
                flows: if quick { 300 } else { 2_000 },
                load: 0.3,
            },
        ),
        Kind::Dcqcn => (
            fat_tree(4),
            SimConfig {
                dcqcn: Some(DcqcnConfig::default()),
                ..SimConfig::default()
            },
            // Equal 100-cell flows: with a heavy-tailed size mix the event
            // count of one draw swings 8x with the seed and no metric of
            // this workload would repeat across seeds.
            Input::Poisson {
                dist: SizeDist::from_points("fixed-150k", &[(150_000.0, 0.0), (150_001.0, 1.0)]),
                flows: if quick { 100 } else { 500 },
                load: 0.8,
            },
        ),
        Kind::AlltoallFlit => {
            let (ranks, bytes, reps) = if quick {
                (8, 4_096, 1)
            } else {
                (32, 16_384, 2)
            };
            (
                dragonfly(4, 9, 2, 2),
                SimConfig::simulator_flit(),
                Input::Mpi {
                    trace: imb_alltoall(ranks, bytes, reps),
                    ranks,
                },
            )
        }
    };
    let strategy = default_strategy(&topo);
    let routes = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    Env {
        topo,
        routes,
        cfg,
        input,
    }
}

fn unit(env: &Env, seed: u64, tr: &mut Tracer) -> Unit {
    let routes = env.routes.clone();
    match &env.input {
        Input::Poisson { dist, flows, load } => {
            let specs = tr.span("workloads.generate", || {
                poisson_flows(
                    dist,
                    env.topo.num_hosts(),
                    env.cfg.bytes_per_ns(),
                    *load,
                    *flows,
                    seed,
                )
            });
            let t0 = Instant::now();
            let mut sim = tr.span("sim.new", || {
                Simulator::new(&env.topo, routes, env.cfg.clone())
            });
            tr.span("sim.schedule", || {
                for f in &specs {
                    sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
                }
            });
            let outcome = tr.span("sim.run", || sim.run());
            let (fct, peak, unfinished) = tr.span("sim.telemetry", || {
                let unfinished = sim
                    .flow_records()
                    .iter()
                    .filter(|r| r.fct_ns.is_none())
                    .count() as u64;
                (sim.fct_summary(), sim.peak_queue_bytes(), unfinished)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let st = sim.stats();
            Unit {
                wall_s,
                run_s: st.wall_ns as f64 / 1e9,
                flows: specs.len() as u64,
                unfinished,
                completed: outcome == SimOutcome::Completed,
                events: st.events,
                cells: st.cells_delivered,
                drops: st.drops,
                sim_ns: st.sim_ns,
                fct_p50_ns: fct.p50_ns,
                fct_p99_ns: fct.p99_ns,
                peak_queue_bytes: peak,
                act_ns: 0,
            }
        }
        Input::Mpi { trace, ranks } => {
            let hosts = tr.span("workloads.generate", || {
                select_nodes(&env.topo, *ranks, seed)
            });
            let t0 = Instant::now();
            // `run_trace` builds, replays and reads out in one call; its
            // own `wall_ns` separates the event loop from the rest.
            let r = tr.span("sim.run_trace", || {
                run_trace(&env.topo, routes, env.cfg.clone(), trace, &hosts)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let mut fcts: Vec<u64> = r
                .flow_times_ns
                .iter()
                .filter_map(|&(s, f)| f.map(|f| f - s))
                .collect();
            fcts.sort_unstable();
            let pct = |p| sdt_par::stats::percentile_sorted(&fcts, p).unwrap_or(0);
            Unit {
                wall_s,
                run_s: r.wall_ns as f64 / 1e9,
                flows: r.flow_times_ns.len() as u64,
                unfinished: (r.flow_times_ns.len() - fcts.len()) as u64,
                completed: r.outcome == SimOutcome::Completed && r.act_ns.is_some(),
                events: r.events,
                cells: r.cells_delivered,
                act_ns: r.act_ns.unwrap_or(0),
                fct_p50_ns: pct(0.5),
                fct_p99_ns: pct(0.99),
                ..Unit::default()
            }
        }
    }
}

/// Timed units per set-up.
const UNITS_PER_BLOCK: usize = 6;

pub fn run(kind: Kind, ctx: &Ctx) -> Outcome {
    let mut tr = Tracer::new(false);
    // Set-up: topology, routes, the trace, and the warm-up unit (unit 0).
    let (blocks, traced) = ctx.paired_blocks(
        1.0,
        UNITS_PER_BLOCK,
        &mut tr,
        || {
            let env = build(kind, ctx.quick);
            let warm = unit(&env, sub_seed(ctx.seed, 0), &mut Tracer::new(false));
            (env, warm)
        },
        |(env, _), i, tr| unit(env, sub_seed(ctx.seed, i), tr),
    );
    let (env, warm) = blocks.last;
    let (plain, setups) = (blocks.units, blocks.setups);

    let all: Vec<&Unit> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let mut errors = Vec::new();
    for (i, u) in all.iter().enumerate() {
        if !u.completed || u.drops != 0 || u.unfinished != 0 {
            errors.push(format!(
                "{} unit {i}: completed={} drops={} unfinished={}",
                kind.name(),
                u.completed,
                u.drops,
                u.unfinished
            ));
        }
    }
    // `run_trace` exposes neither the final simulated time nor queue depths.
    let mut pinned = vec![
        ("sim.cells_delivered", warm.cells),
        ("sim.fct_p50_ns", warm.fct_p50_ns),
        ("sim.fct_p99_ns", warm.fct_p99_ns),
        ("sim.mpi.act_ns", warm.act_ns),
    ];
    if kind != Kind::AlltoallFlit {
        pinned.push(("sim.sim_ns", warm.sim_ns));
        pinned.push(("sim.peak_queue_bytes", warm.peak_queue_bytes));
    }
    errors.extend(check_pinned(kind.name(), ctx, &pinned));

    let mut m = ctx.new_metrics();
    let walls = |us: &[Unit]| us.iter().map(|u| u.wall_s).collect::<Vec<_>>();
    if ctx.trace {
        ctx.common_per_layer(&mut m, &walls(&plain), &walls(&traced));
        m.set(
            "workloads.generate_ms",
            tr.mean_self("workloads.generate", 1e6),
        );
        m.set("sim.new_ms", tr.mean_self("sim.new", 1e6));
        m.set("sim.schedule_ms", tr.mean_self("sim.schedule", 1e6));
        m.set("sim.telemetry_ms", tr.mean_self("sim.telemetry", 1e6));
        if kind == Kind::AlltoallFlit {
            // Everything `run_trace` does outside the event loop.
            let outside: f64 = traced.iter().map(|u| u.wall_s - u.run_s).sum();
            m.set("sim.new_ms", outside / traced.len() as f64 * 1e3);
        }
        let run_s: f64 = traced.iter().map(|u| u.run_s).sum();
        let events: u64 = traced.iter().map(|u| u.events).sum();
        m.set("sim.run_s", run_s / traced.len() as f64);
        m.set("sim.events_per_s", events as f64 / run_s);
        m.set("sim.ns_per_event", run_s * 1e9 / events as f64);
        m.set("sim.events", warm.events as f64);
        m.set("sim.cells_delivered", warm.cells as f64);
        m.set(
            "sim.events_per_cell",
            warm.events as f64 / warm.cells as f64,
        );
        m.set("sim.sim_ns", warm.sim_ns as f64);
        m.set("sim.fct_p50_ns", warm.fct_p50_ns as f64);
        m.set("sim.fct_p99_ns", warm.fct_p99_ns as f64);
        m.set("sim.peak_queue_bytes", warm.peak_queue_bytes as f64);
        m.set("sim.drops", warm.drops as f64);
        m.set("sim.mpi.act_ns", warm.act_ns as f64);
        m.set("routing.build_ms", {
            let t0 = Instant::now();
            let strategy = default_strategy(&env.topo);
            std::hint::black_box(RouteTable::build_for_hosts(&env.topo, strategy.as_ref()));
            t0.elapsed().as_secs_f64() * 1e3
        });
    } else {
        let rates: Vec<f64> = plain.iter().map(|u| u.cells as f64 / u.wall_s).collect();
        ctx.common_end_to_end(&mut m, &setups, &rates);
    }
    Outcome {
        attempted: all.iter().map(|u| u.flows).sum(),
        failed: all.iter().map(|u| u.unfinished).sum::<u64>()
            + all.iter().filter(|u| !u.completed).count() as u64,
        errors,
        metrics: m,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_list(seed: u64, unit_index: usize) -> Vec<sdt::workloads::FlowSpec> {
        let env = build(Kind::Flows, true);
        let Input::Poisson { dist, flows, load } = &env.input else {
            unreachable!()
        };
        poisson_flows(
            dist,
            env.topo.num_hosts(),
            env.cfg.bytes_per_ns(),
            *load,
            *flows,
            sub_seed(seed, unit_index),
        )
    }

    #[test]
    fn same_seed_same_flow_list_and_different_seed_or_unit_differs() {
        assert_eq!(flow_list(2023, 1), flow_list(2023, 1));
        assert_ne!(flow_list(2023, 1), flow_list(7, 1));
        assert_ne!(flow_list(2023, 1), flow_list(2023, 2));
    }
}
