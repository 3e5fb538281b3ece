//! Control-plane benchmark artifact: flow-table lookup (indexed vs the
//! linear oracle), the full reconfiguration pipeline (routes → projection +
//! synthesis → static verify → epoch diff → install) at fat-tree k=4/8/16,
//! multi-tenant admission at 1/4/16-slice scale, and sequential-vs-parallel
//! static verification with a byte-identical findings check. Writes
//! `results/BENCH_ctrl.json`.
//!
//! Run with: `cargo run --release -p sdt-bench --bin bench_ctrl`
//! (`--quick` skips k=16 and shrinks the lookup rep counts; used by CI as a
//! smoke test). Exits non-zero if the indexed lookup is not at least as
//! fast as the linear scan at 512 entries.

use sdt::core::cluster::ClusterBuilder;
use sdt::core::methods::SwitchModel;
use sdt::core::sdt::{SdtProjection, SdtProjector};
use sdt::core::walk::instantiate;
use sdt::openflow::{
    diff_tables, Action, FlowEntry, FlowMatch, FlowMod, FlowTable, HostAddr, PacketMeta, PortNo,
};
use sdt::routing::{default_strategy, generic::Bfs, RouteTable};
use sdt::tenancy::SliceManager;
use sdt::topology::chain::{chain, ring};
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::mesh;
use sdt::topology::Topology;
use sdt::verify::{Intent, TableView, Verifier};
use sdt_bench::experiments::{carrier_cluster, fmt_ns};
use std::fmt::Write as _;
use std::time::Instant;

/// `writeln!` into a `String` cannot fail; swallow the `fmt::Result` so the
/// JSON assembly below stays linear.
macro_rules! jline {
    ($($arg:tt)*) => {
        let _ = writeln!($($arg)*);
    };
}

/// Deterministic xorshift64* probe-address generator — no RNG dependency,
/// same probe stream on every run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// An SDT-shaped table-1 workload: `n` (sub-switch metadata, destination)
/// routing entries over 4 sub-switches, plus a probe set with ~1/8 misses.
fn lookup_point(n: usize, reps: u32) -> (f64, f64) {
    let mut table = FlowTable::new(n + 1);
    for i in 0..n {
        let m = FlowMatch::to_dst(HostAddr(i as u32)).and_metadata((i % 4) as u32);
        let e = FlowEntry { m, priority: 1, action: Action::Output(PortNo((i % 48) as u16)) };
        if let Err(e) = table.apply(FlowMod::Add(e)) {
            panic!("building {n}-entry table: {e}");
        }
    }
    let mut rng = XorShift(0x5d70_c0de_2026_0806 ^ n as u64);
    let probes: Vec<(PacketMeta, Option<u32>)> = (0..1024)
        .map(|_| {
            let r = rng.next();
            // 1 in 8 probes misses (unknown destination in a known
            // sub-switch); the rest hit a random installed entry.
            let dst = if r % 8 == 0 { n as u32 + (r >> 8) as u32 % 64 } else { (r >> 8) as u32 % n as u32 };
            let md = Some(if r % 8 == 0 { 0 } else { dst % 4 });
            let meta = PacketMeta {
                in_port: PortNo(1),
                src: HostAddr(0),
                dst: HostAddr(dst),
                l4_src: 4791,
                l4_dst: 4791,
            };
            (meta, md)
        })
        .collect();
    // The two paths must agree on every probe before we time anything.
    for (meta, md) in &probes {
        assert_eq!(
            table.lookup_with(meta, *md),
            table.linear_lookup_with(meta, *md),
            "indexed and linear lookup disagree at {n} entries"
        );
    }
    let time_ns = |f: &dyn Fn(&PacketMeta, Option<u32>) -> usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut acc = 0usize;
            for _ in 0..reps {
                for (meta, md) in &probes {
                    acc += f(meta, *md);
                }
            }
            let ns = t0.elapsed().as_nanos() as f64 / (reps as u128 * probes.len() as u128) as f64;
            std::hint::black_box(acc);
            best = best.min(ns);
        }
        best
    };
    let indexed = time_ns(&|m, md| table.lookup_with(m, md).map_or(0, |_| 1));
    let linear = time_ns(&|m, md| table.linear_lookup_with(m, md).map_or(0, |_| 1));
    (indexed, linear)
}

/// One reconfiguration-pipeline measurement: every control-plane stage from
/// a logical topology to programmed switches, timed separately.
struct PipelinePoint {
    k: u32,
    hosts: u32,
    cluster_switches: u32,
    model: &'static str,
    routes_s: f64,
    project_s: f64,
    verify_s: f64,
    diff_s: f64,
    diff_mods: usize,
    install_s: f64,
    table_entries: usize,
}

fn pipeline_point(k: u32) -> Option<(PipelinePoint, PipelineState)> {
    let topo = fat_tree(k);
    let (cluster, model) = carrier_cluster(&topo)?;
    let projector = SdtProjector { merge_entries_on_overflow: true, ..Default::default() };

    let t = Instant::now();
    let strategy = default_strategy(&topo);
    let routes = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let routes_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let projection = match projector.project(&topo, &cluster, &routes) {
        Ok(p) => p,
        Err(e) => panic!("fat-tree k={k} projection failed after sizing: {e}"),
    };
    let project_s = t.elapsed().as_secs_f64();

    // The verify stage times the production proof path — collapsed walks
    // at the auto-sized worker count — exactly what admission and the epoch
    // scheduler pay.
    let t = Instant::now();
    let v = Verifier::check(
        &cluster,
        TableView::of_synthesis(&projection.synthesis),
        Intent::of_projection(&projection, &topo, topo.name()),
    );
    let verify_s = t.elapsed().as_secs_f64();
    assert!(v.holds(), "fat-tree k={k} failed static verification: {}", v.report().summary());

    // Epoch diff: reroute the same topology with plain BFS and compute the
    // flow-mod delta the reconfiguration would install.
    let alt_routes = RouteTable::build_for_hosts(&topo, &Bfs::new(&topo));
    let alt = match projector.project(&topo, &cluster, &alt_routes) {
        Ok(p) => p,
        Err(e) => panic!("fat-tree k={k} BFS projection failed: {e}"),
    };
    let t = Instant::now();
    let mut diff_mods = 0usize;
    for sw in 0..cluster.num_switches() as usize {
        diff_mods +=
            diff_tables(&projection.synthesis.table0[sw], &alt.synthesis.table0[sw]).len();
        diff_mods +=
            diff_tables(&projection.synthesis.table1[sw], &alt.synthesis.table1[sw]).len();
    }
    let diff_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let switches = instantiate(&cluster, &projection);
    let install_s = t.elapsed().as_secs_f64();
    let table_entries = switches.iter().map(|s| s.total_entries()).sum();

    let point = PipelinePoint {
        k,
        hosts: topo.num_hosts(),
        cluster_switches: cluster.num_switches(),
        model,
        routes_s,
        project_s,
        verify_s,
        diff_s,
        diff_mods,
        install_s,
        table_entries,
    };
    Some((point, PipelineState { topo, cluster, projection }))
}

/// What the parallel-verify comparison needs to re-run a pipeline's check.
struct PipelineState {
    topo: Topology,
    cluster: sdt::core::cluster::PhysicalCluster,
    projection: SdtProjection,
}

/// Best-of-3 wall time for a full static verification at a thread count,
/// returning the last verifier for the findings comparison.
fn timed_check(
    cluster: &sdt::core::cluster::PhysicalCluster,
    view: &TableView,
    intent: &Intent,
    threads: usize,
) -> (f64, Verifier) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let (v, i) = (view.clone(), intent.clone());
        let t0 = Instant::now();
        let verifier = Verifier::check_threads(cluster, v, i, threads);
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(verifier);
    }
    match last {
        Some(v) => (best, v),
        None => unreachable!("loop ran three times"),
    }
}

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- 1. lookup: indexed vs linear oracle -------------------------
    let lookup_reps = if quick { 40 } else { 400 };
    let sizes = [64usize, 512, 4096];
    let lookup: Vec<(usize, f64, f64)> = sizes
        .iter()
        .map(|&n| {
            let (indexed, linear) = lookup_point(n, lookup_reps);
            eprintln!(
                "lookup {n:>5} entries: indexed {} linear {} ({:.1}x)",
                fmt_ns(indexed),
                fmt_ns(linear),
                linear / indexed
            );
            (n, indexed, linear)
        })
        .collect();

    // ---- 2. reconfiguration pipeline at k = 4 / 8 / 16 ---------------
    let ks: &[u32] = if quick { &[4, 8] } else { &[4, 8, 16] };
    let mut pipeline = Vec::new();
    let mut k8_state = None;
    for &k in ks {
        match pipeline_point(k) {
            Some((p, state)) => {
                eprintln!(
                    "pipeline k={k} [{}]: routes {:.3}s project {:.3}s verify {:.3}s \
                     diff {:.3}s ({} mods) install {:.3}s",
                    p.model, p.routes_s, p.project_s, p.verify_s, p.diff_s, p.diff_mods, p.install_s
                );
                if k == 8 {
                    k8_state = Some(state);
                }
                pipeline.push(p);
            }
            None => eprintln!("pipeline k={k}: no feasible cluster, skipped"),
        }
    }

    // ---- 3. multi-tenant admission at 1 / 4 / 16 slices ---------------
    let mut slices = Vec::new();
    let mut mgr16 = None;
    for &n in &[1usize, 4, 16] {
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 4)
            .hosts_per_switch(24)
            .inter_links_per_pair(24)
            .build();
        let mut mgr = SliceManager::new(cluster);
        let t0 = Instant::now();
        for i in 0..n {
            let topo = match i % 3 {
                0 => chain(4),
                1 => ring(5),
                _ => mesh(&[2, 2]),
            };
            if let Err(e) = mgr.create(&format!("s{i}"), &topo) {
                panic!("slice {i}/{n} admission failed: {e}");
            }
        }
        let admit_s = t0.elapsed().as_secs_f64();
        // Time a cold full proof of the live tables — `verify_report()`
        // would serve the verifier the last admission already cached.
        let t0 = Instant::now();
        let v = Verifier::check(
            mgr.cluster(),
            TableView::of_switches(mgr.switches()),
            mgr.intent(),
        );
        let verify_s = t0.elapsed().as_secs_f64();
        let report = v.report();
        assert!(report.holds(), "{n}-slice deployment failed verification");
        eprintln!(
            "slices {n:>2}: admit {admit_s:.3}s verify {verify_s:.3}s \
             ({} classes, {} pairs walked)",
            report.header_classes, report.pairs_walked
        );
        let stats = (report.header_classes, report.pairs_walked);
        slices.push((n, admit_s, verify_s, stats.0, stats.1));
        if n == 16 {
            mgr16 = Some(mgr);
        }
    }

    // ---- 4. sequential vs parallel static verification ----------------
    // Honest wall-clock at 1 vs 4 workers plus a byte-identical findings
    // check. Every row records both the requested and the available worker
    // count. On a single-core host the timed comparison is skipped — a
    // "speedup" there would only measure fan-out overhead and always land
    // below 1.0 — but the findings-identity check still runs at 4 workers.
    let threads_requested = 4usize;
    let mut verify_parallel = Vec::new();
    let mut configs: Vec<(String, sdt::core::cluster::PhysicalCluster, TableView, Intent)> =
        Vec::new();
    if let Some(s) = k8_state {
        configs.push((
            "fat-tree k=8 synthesis".into(),
            s.cluster.clone(),
            TableView::of_synthesis(&s.projection.synthesis),
            Intent::of_projection(&s.projection, &s.topo, s.topo.name()),
        ));
    }
    if let Some(m) = mgr16 {
        configs.push((
            "16-slice live tables".into(),
            m.cluster().clone(),
            TableView::of_switches(m.switches()),
            m.intent(),
        ));
    }
    for (name, cluster, view, intent) in &configs {
        let (seq_s, seq_v) = timed_check(cluster, view, intent, 1);
        let par_v =
            Verifier::check_threads(cluster, view.clone(), intent.clone(), threads_requested);
        let identical = format!("{:?}", seq_v.report()) == format!("{:?}", par_v.report());
        assert!(identical, "{name}: thread count changed the findings");
        let par_s = if threads_available >= 2 {
            Some(timed_check(cluster, view, intent, threads_requested).0)
        } else {
            None
        };
        match par_s {
            Some(p) => eprintln!(
                "verify [{name}]: 1 thread {seq_s:.3}s, {threads_requested} threads {p:.3}s \
                 ({:.2}x, {threads_available} core(s) available)",
                seq_s / p
            ),
            None => eprintln!(
                "verify [{name}]: 1 thread {seq_s:.3}s; {threads_requested}-thread timing \
                 skipped ({threads_available} core available), findings identical"
            ),
        }
        verify_parallel.push((name.clone(), seq_s, par_s, identical));
    }

    // ---- JSON artifact -------------------------------------------------
    let mut json = String::new();
    jline!(json, "{{");
    jline!(json, "  \"quick\": {quick},");
    jline!(json, "  \"threads_available\": {threads_available},");
    jline!(json, "  \"lookup\": [");
    for (i, (n, indexed, linear)) in lookup.iter().enumerate() {
        let comma = if i + 1 < lookup.len() { "," } else { "" };
        jline!(
            json,
            "    {{\"entries\": {n}, \"indexed_ns\": {indexed:.1}, \
             \"linear_ns\": {linear:.1}, \"speedup\": {:.3}}}{comma}",
            linear / indexed
        );
    }
    jline!(json, "  ],");
    jline!(json, "  \"pipeline\": [");
    for (i, p) in pipeline.iter().enumerate() {
        let comma = if i + 1 < pipeline.len() { "," } else { "" };
        jline!(
            json,
            "    {{\"k\": {}, \"hosts\": {}, \"cluster_switches\": {}, \"model\": \"{}\", \
             \"routes_s\": {:.6}, \"project_synthesize_s\": {:.6}, \
             \"verify_s\": {:.6}, \"epoch_diff_s\": {:.6}, \"epoch_diff_mods\": {}, \
             \"install_s\": {:.6}, \"table_entries\": {}}}{comma}",
            p.k,
            p.hosts,
            p.cluster_switches,
            p.model,
            p.routes_s,
            p.project_s,
            p.verify_s,
            p.diff_s,
            p.diff_mods,
            p.install_s,
            p.table_entries
        );
    }
    jline!(json, "  ],");
    jline!(json, "  \"slices\": [");
    for (i, (n, admit_s, verify_s, classes, walked)) in slices.iter().enumerate() {
        let comma = if i + 1 < slices.len() { "," } else { "" };
        jline!(
            json,
            "    {{\"slices\": {n}, \"admit_s\": {admit_s:.6}, \"verify_s\": {verify_s:.6}, \
             \"header_classes\": {classes}, \"pairs_walked\": {walked}}}{comma}"
        );
    }
    jline!(json, "  ],");
    if threads_available < 2 {
        jline!(
            json,
            "  \"verify_parallel_note\": \"host offers 1 core; the timed multi-worker \
             comparison is skipped (it would only measure fan-out overhead) — \
             findings identity at {threads_requested} workers is still checked\","
        );
    }
    jline!(json, "  \"verify_parallel\": [");
    for (i, (name, seq_s, par_s, identical)) in verify_parallel.iter().enumerate() {
        let comma = if i + 1 < verify_parallel.len() { "," } else { "" };
        let timing = match par_s {
            Some(p) => format!("\"par_s\": {p:.6}, \"speedup\": {:.3}", seq_s / p),
            None => "\"par_s\": null, \"speedup\": null, \"skipped\": \
                     \"single-core host\""
                .into(),
        };
        jline!(
            json,
            "    {{\"config\": \"{name}\", \"seq_s\": {seq_s:.6}, {timing}, \
             \"threads_requested\": {threads_requested}, \
             \"threads_available\": {threads_available}, \
             \"identical_findings\": {identical}}}{comma}"
        );
    }
    jline!(json, "  ]");
    jline!(json, "}}");

    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_ctrl.json", &json)?;
    print!("{json}");

    // CI gate: the index must never lose to the linear scan at 512 entries.
    let gate = lookup.iter().find(|(n, _, _)| *n == 512).map(|(_, i, l)| l / i);
    match gate {
        Some(s) if s >= 1.0 => Ok(()),
        Some(s) => {
            eprintln!("FAIL: indexed lookup slower than linear at 512 entries ({s:.3}x)");
            std::process::exit(1);
        }
        None => {
            eprintln!("FAIL: 512-entry lookup point missing");
            std::process::exit(1);
        }
    }
}
