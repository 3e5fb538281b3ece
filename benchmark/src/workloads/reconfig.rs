//! `reconfig-k16`: the paper's headline path — a logical topology becomes
//! programmed, proven switches — by library calls, no daemon, at the largest
//! scale the verifier proves exactly (fat-tree k=16: 1 024 hosts, 1.05 M
//! host pairs, on 19 synthetic 512-port switches).
//!
//! One unit takes a cluster that runs the BFS-routed projection of the
//! topology to its default-routed one: routes → project/synthesize → cold
//! proof on a fresh cache (the production path) → epoch diff against the
//! running projection → dependency-ordered rounds → install on fresh
//! switches → warm re-proof of the live tables. The input has no random
//! part; `--seed` is recorded only.
//!
//! The rounds are compiled but the install is a fresh `instantiate`, as in
//! `bench_ctrl`: replaying the epoch's 129 k deletes on live tables takes
//! 3.7 s here (70 k mods/s) and would leave the rest of the unit a rounding
//! error. That rate is reported as `openflow.apply_mods_per_s`, measured on
//! the busiest switch's share of the epoch.

use crate::harness::{Ctx, Outcome};
use crate::trace::Tracer;
use crate::workloads::check_pinned;
use sdt::controller::SdtController;
use sdt::core::cluster::PhysicalCluster;
use sdt::core::methods::SwitchModel;
use sdt::core::sdt::{SdtProjection, SdtProjector};
use sdt::core::synthesis::synthesize_flow_tables_merged;
use sdt::core::walk::instantiate;
use sdt::openflow::{table_divergence, HostAddr, OpenFlowSwitch, PacketMeta, PortNo};
use sdt::routing::{default_strategy, generic::Bfs, RouteTable};
use sdt::tenancy::{compile_rounds, Epoch, SliceId};
use sdt::topology::fattree::fat_tree;
use sdt::topology::Topology;
use sdt::verify::{verify_threads, Intent, TableView, Verifier, VerifyStats, WalkCache};
use std::time::Instant;

struct Env {
    topo: Topology,
    cluster: PhysicalCluster,
    projector: SdtProjector,
    /// The projection the switches run before each reconfiguration.
    old: SdtProjection,
}

#[derive(Default)]
struct Unit {
    wall_s: f64,
    findings: usize,
    divergence: usize,
    mods: usize,
    rounds: usize,
    table_entries: usize,
    pairs_checked: usize,
    cold: VerifyStats,
    warm: VerifyStats,
}

fn build(quick: bool) -> Env {
    let (k, switches) = if quick { (8, 3) } else { (16, 19) };
    let topo = fat_tree(k);
    // Wider than any 128-port model: this workload measures controller
    // cost, not hardware feasibility (same model as `bench_ctrl`).
    let wide = SwitchModel {
        name: "synthetic 512x100G",
        ports: 512,
        gbps: 100,
        price_usd: 0,
        table_capacity: 262_144,
        p4: false,
    };
    let cluster = match SdtController::for_campaign(std::slice::from_ref(&topo), wide, switches) {
        Ok(ctl) => ctl.cluster().clone(),
        Err(e) => panic!("fat-tree k={k} does not wire onto {switches} switches: {e}"),
    };
    let projector = SdtProjector {
        merge_entries_on_overflow: true,
        ..Default::default()
    };
    let bfs = RouteTable::build_for_hosts(&topo, &Bfs::new(&topo));
    let old = match projector.project(&topo, &cluster, &bfs) {
        Ok(p) => p,
        Err(e) => panic!("fat-tree k={k} BFS projection failed: {e}"),
    };
    Env {
        topo,
        cluster,
        projector,
        old,
    }
}

fn findings(v: &Verifier) -> usize {
    let r = v.report();
    r.loops.len() + r.blackholes.len() + r.leaks.len() + r.looped_pairs
}

fn unit(env: &Env, tr: &mut Tracer) -> Unit {
    let t0 = Instant::now();
    let routes = tr.span("routing.build", || {
        let strategy = default_strategy(&env.topo);
        RouteTable::build_for_hosts(&env.topo, strategy.as_ref())
    });
    let target = tr.span("core.project", || {
        match env.projector.project(&env.topo, &env.cluster, &routes) {
            Ok(p) => p,
            Err(e) => panic!("projection failed after sizing: {e}"),
        }
    });
    let intent = Intent::of_projection(&target, &env.topo, env.topo.name());
    let mut cache = WalkCache::new();
    let cold = tr.span("verify.cached_cold", || {
        Verifier::check_cached(
            &env.cluster,
            TableView::of_synthesis(&target.synthesis),
            intent.clone(),
            verify_threads(),
            &mut cache,
        )
    });
    let epoch = tr.span("openflow.diff", || {
        Epoch::from_diff(SliceId(0), &env.old.synthesis, &target.synthesis)
    });
    let rounds = tr.span("tenancy.schedule.compile", || {
        compile_rounds(&epoch, &TableView::of_synthesis(&env.old.synthesis))
    });
    let mods: usize = rounds.iter().map(|r| r.mods.len()).sum();
    let switches = tr.span("core.instantiate", || instantiate(&env.cluster, &target));
    let warm = tr.span("verify.cached_warm", || {
        Verifier::check_cached(
            &env.cluster,
            TableView::of_switches(&switches),
            intent,
            verify_threads(),
            &mut cache,
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let divergence = switches
        .iter()
        .enumerate()
        .map(|(i, sw)| {
            table_divergence(sw, &target.synthesis.table0[i], &target.synthesis.table1[i])
        })
        .sum();
    Unit {
        wall_s,
        findings: findings(&cold) + findings(&warm),
        divergence,
        mods,
        rounds: rounds.len(),
        table_entries: switches.iter().map(OpenFlowSwitch::total_entries).sum(),
        pairs_checked: cold.report().pairs_checked,
        cold: cold.stats().clone(),
        warm: warm.stats().clone(),
    }
}

/// Mean ns of one call of `f` over `items`, best of 3 passes.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T) -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for it in items {
            acc += f(it);
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    best
}

/// Layer probes that are not steps of a unit: the stages `project` hides,
/// the uncached proof, and the two lookup fast paths.
fn probes(env: &Env, m: &mut crate::metrics::Metrics) {
    let strategy = default_strategy(&env.topo);
    let routes = RouteTable::build_for_hosts(&env.topo, strategy.as_ref());
    let target = match env.projector.project(&env.topo, &env.cluster, &routes) {
        Ok(p) => p,
        Err(e) => panic!("projection failed after sizing: {e}"),
    };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    std::hint::black_box(synthesize_flow_tables_merged(
        &env.topo,
        &routes,
        &target.assignment,
        &target.port_of,
        &target.host_port,
        env.cluster.num_switches(),
    ));
    m.set("core.synthesize_ms", ms(t0));

    // Replay one switch's share of the epoch — the switch the epoch
    // touches most — round by round on tables that run the old projection;
    // it must end exactly on the target.
    let epoch = Epoch::from_diff(SliceId(0), &env.old.synthesis, &target.synthesis);
    let rounds = compile_rounds(&epoch, &TableView::of_synthesis(&env.old.synthesis));
    let per_switch = epoch.mods_per_switch(env.cluster.num_switches() as usize);
    let busiest = (0..per_switch.len())
        .max_by_key(|&i| per_switch[i])
        .unwrap_or(0);
    let mut sw = instantiate(&env.cluster, &env.old).swap_remove(busiest);
    let share: Vec<_> = rounds
        .iter()
        .flat_map(|r| &r.mods)
        .filter(|(s, _, _)| *s as usize == busiest)
        .collect();
    let t0 = Instant::now();
    for (_, table, fm) in &share {
        if let Err(e) = sw.apply(*table, fm.clone()) {
            panic!("round install failed on switch {busiest}: {e}");
        }
    }
    m.set(
        "openflow.apply_mods_per_s",
        share.len() as f64 / t0.elapsed().as_secs_f64(),
    );
    let synth = &target.synthesis;
    let left = table_divergence(&sw, &synth.table0[busiest], &synth.table1[busiest]);
    assert_eq!(
        left, 0,
        "the compiled rounds do not reach the target tables"
    );
    let live = instantiate(&env.cluster, &target);

    let t0 = Instant::now();
    let v = Verifier::check_threads(
        &env.cluster,
        TableView::of_synthesis(&target.synthesis),
        Intent::of_projection(&target, &env.topo, env.topo.name()),
        verify_threads(),
    );
    m.set("verify.cold_ms", ms(t0));
    assert!(v.holds(), "uncached proof disagrees with the cached one");

    let pairs: Vec<_> = routes.iter().map(|(&p, _)| p).collect();
    m.set(
        "routing.lookup_ns",
        per_item_ns(&pairs, |&(s, d)| {
            routes.try_route(s, d).map_or(0, |r| r.hops.len())
        }),
    );
    // Table-1 hits: probe every exact routing entry of the fullest table by
    // the (metadata, destination) it matches.
    let t1 = match live.iter().map(|sw| sw.table(1)).max_by_key(|t| t.len()) {
        Some(t) => t,
        None => unreachable!("the cluster has switches"),
    };
    let probes: Vec<(PacketMeta, Option<u32>)> = t1
        .entries()
        .iter()
        .filter_map(|e| {
            let meta = PacketMeta {
                in_port: PortNo(1),
                src: HostAddr(0),
                dst: e.m.dst?,
                l4_src: 4791,
                l4_dst: 4791,
            };
            Some((meta, e.m.metadata))
        })
        .collect();
    m.set(
        "openflow.lookup_ns",
        per_item_ns(&probes, |(meta, md)| {
            t1.lookup_with(meta, *md).map_or(0, |_| 1)
        }),
    );
}

/// Timed units per set-up.
const UNITS_PER_BLOCK: usize = 4;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tr = Tracer::new(false);
    let (blocks, traced) = ctx.paired_blocks(
        1.0,
        UNITS_PER_BLOCK,
        &mut tr,
        || {
            let env = build(ctx.quick);
            let warm = unit(&env, &mut Tracer::new(false));
            (env, warm)
        },
        |(env, _), _, tr| unit(env, tr),
    );
    let (env, warm) = blocks.last;
    let (plain, setups) = (blocks.units, blocks.setups);

    let all: Vec<&Unit> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let mut errors = Vec::new();
    for (i, u) in all.iter().enumerate() {
        if u.findings != 0 || u.divergence != 0 {
            errors.push(format!(
                "reconfig-k16 unit {i}: {} verifier finding(s), table divergence {}",
                u.findings, u.divergence
            ));
        }
    }
    errors.extend(check_pinned(
        "reconfig-k16",
        ctx,
        &[
            ("verify.pairs_checked", warm.pairs_checked as u64),
            ("openflow.table_entries", warm.table_entries as u64),
            ("tenancy.epoch.mods", warm.mods as u64),
            ("tenancy.schedule.rounds", warm.rounds as u64),
        ],
    ));

    let mut m = ctx.new_metrics();
    let walls = |us: &[Unit]| us.iter().map(|u| u.wall_s).collect::<Vec<_>>();
    if ctx.trace {
        ctx.common_per_layer(&mut m, &walls(&plain), &walls(&traced));
        m.set("routing.build_ms", tr.mean_self("routing.build", 1e6));
        m.set("core.project_ms", tr.mean_self("core.project", 1e6));
        m.set(
            "verify.cached_cold_ms",
            tr.mean_self("verify.cached_cold", 1e6),
        );
        m.set(
            "verify.cached_warm_ms",
            tr.mean_self("verify.cached_warm", 1e6),
        );
        m.set("openflow.diff_ms", tr.mean_self("openflow.diff", 1e6));
        m.set(
            "tenancy.schedule.compile_ms",
            tr.mean_self("tenancy.schedule.compile", 1e6),
        );
        m.set("core.instantiate_ms", tr.mean_self("core.instantiate", 1e6));
        m.set("openflow.table_entries", warm.table_entries as f64);
        m.set("tenancy.epoch.mods", warm.mods as f64);
        m.set("tenancy.schedule.rounds", warm.rounds as f64);
        m.set("verify.pairs_checked", warm.pairs_checked as f64);
        m.set(
            "verify.pairs_walked_full",
            warm.cold.pairs_walked_full as f64,
        );
        m.set("verify.pairs_replayed", warm.cold.pairs_replayed as f64);
        m.set("verify.cache_hits", warm.warm.cache_hits as f64);
        m.set("verify.cache_misses", warm.cold.cache_misses as f64);
        m.set(
            "verify.walk_ratio",
            warm.cold.pairs_walked_full as f64 / warm.pairs_checked.max(1) as f64,
        );
        probes(&env, &mut m);
    } else {
        // Work = flow-mods installed (constant per unit), so the rate moves
        // with `unit wall` only.
        let rates: Vec<f64> = plain.iter().map(|u| u.mods as f64 / u.wall_s).collect();
        ctx.common_end_to_end(&mut m, &setups, &rates);
    }
    Outcome {
        attempted: all.len() as u64,
        failed: all
            .iter()
            .filter(|u| u.findings != 0 || u.divergence != 0)
            .count() as u64,
        errors,
        metrics: m,
        tracer: tr,
    }
}
