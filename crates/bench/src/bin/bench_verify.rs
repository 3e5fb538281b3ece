//! Static-verification benchmark artifact: cold full verify, warm
//! incremental re-verify (empty-delta `check_delta_threads` against the
//! previous proof), the symmetry-collapse ratio (full walks vs replayed
//! walks), and per-thread-count wall times, at fat-tree k=4/8/16.
//! Writes `results/BENCH_verify.json`.
//!
//! Run with: `cargo run --release -p sdt-bench --bin bench_verify`
//! (`--quick` skips k=16 and shrinks repetitions; used by CI as a smoke
//! test). Exits non-zero if the warm re-verify is not at least as fast as
//! the cold verify at the largest preset measured.
//!
//! Honesty rules (shared with `bench_ctrl`): every thread-count row records
//! both the requested and the available worker count, and on a single-core
//! host only the 1-worker timing is taken — multi-worker wall times there
//! would measure fan-out overhead, not parallel speedup. Findings identity
//! across worker counts is asserted regardless.

use sdt::routing::{default_strategy, RouteTable};
use sdt::topology::fattree::fat_tree;
use sdt::verify::{Intent, TableView, Verifier, VerifyStats};
use sdt_bench::experiments::carrier_cluster;
use std::fmt::Write as _;
use std::time::Instant;

/// `writeln!` into a `String` cannot fail; swallow the `fmt::Result` so the
/// JSON assembly below stays linear.
macro_rules! jline {
    ($($arg:tt)*) => {
        let _ = writeln!($($arg)*);
    };
}

/// One preset's measurements.
struct VerifyPoint {
    k: u32,
    hosts: u32,
    cluster_switches: u32,
    model: &'static str,
    header_classes: usize,
    pairs_checked: usize,
    /// Cold full fast-path verify, 1 worker (best of `reps`).
    cold_s: f64,
    /// Fast-path stats of the cold verify (symmetry collapse counters).
    cold_stats: VerifyStats,
    /// Warm incremental re-verify: empty-delta `check_delta_threads`
    /// against the previous proof (best of `reps`).
    warm_delta_s: f64,
    /// Fast-path findings byte-identical to the unoptimized reference walk
    /// (`None` when the reference was skipped for runtime at this preset).
    identical_to_reference: Option<bool>,
    /// `(threads_requested, wall_s)` rows actually timed.
    thread_walls: Vec<(usize, f64)>,
}

/// Best wall time of `reps` runs of `f`.
fn best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    match last {
        Some(out) => (best, out),
        None => unreachable!("reps >= 1"),
    }
}

fn verify_point(
    k: u32,
    reps: u32,
    check_reference: bool,
    threads_available: usize,
) -> Option<VerifyPoint> {
    let topo = fat_tree(k);
    let (cluster, model) = carrier_cluster(&topo)?;
    let projector =
        sdt::core::sdt::SdtProjector { merge_entries_on_overflow: true, ..Default::default() };
    let strategy = default_strategy(&topo);
    let routes = RouteTable::build_for_hosts(&topo, strategy.as_ref());
    let projection = match projector.project(&topo, &cluster, &routes) {
        Ok(p) => p,
        Err(e) => panic!("fat-tree k={k} projection failed after sizing: {e}"),
    };
    let view = || TableView::of_synthesis(&projection.synthesis);
    let intent = || Intent::of_projection(&projection, &topo, topo.name());

    // Cold fast-path verify.
    let (cold_s, cold_v) =
        best_of(reps, || Verifier::check_threads(&cluster, view(), intent(), 1));
    assert!(cold_v.holds(), "fat-tree k={k} failed verification: {}", cold_v.report().summary());

    // Findings byte-identical to the unoptimized reference walk. The
    // reference is O(pairs x path length) with no symmetry collapse, so at
    // k=16 (1M pairs) it is skipped here — `fast_differential.rs` proves
    // the same identity on every preset in the test suite.
    let identical_to_reference = check_reference.then(|| {
        let plain = Verifier::check_plain_threads(&cluster, view(), intent(), 1);
        format!("{:?}", plain.report()) == format!("{:?}", cold_v.report())
    });
    if let Some(ok) = identical_to_reference {
        assert!(ok, "fat-tree k={k}: fast findings differ from the reference walk");
    }

    // The warm incremental path: empty-delta check against the previous
    // proof.
    let (warm_delta_s, delta_v) =
        best_of(reps, || Verifier::check_delta_threads(&cold_v, &[], intent(), 1));
    assert!(delta_v.holds(), "fat-tree k={k}: warm delta re-verify failed");

    // Per-thread-count wall times. With one core available only the
    // 1-worker row is timed (see module docs); identity across counts is
    // asserted either way.
    let counts: &[usize] = if threads_available >= 2 { &[1, 2, 4, 8] } else { &[1] };
    let mut thread_walls = Vec::new();
    for &t in counts {
        let (wall, v) = best_of(reps, || Verifier::check_threads(&cluster, view(), intent(), t));
        assert_eq!(
            format!("{:?}", v.report()),
            format!("{:?}", cold_v.report()),
            "fat-tree k={k}: {t} workers changed the findings"
        );
        thread_walls.push((t, wall));
    }

    Some(VerifyPoint {
        k,
        hosts: topo.num_hosts(),
        cluster_switches: cluster.num_switches(),
        model,
        header_classes: cold_v.report().header_classes,
        pairs_checked: cold_v.report().pairs_checked,
        cold_s,
        cold_stats: cold_v.stats().clone(),
        warm_delta_s,
        identical_to_reference,
        thread_walls,
    })
}

fn jstats(s: &VerifyStats) -> String {
    format!(
        "{{\"symmetric\": {}, \"pairs_walked_full\": {}, \"pairs_replayed\": {}, \
         \"states_resolved\": {}}}",
        s.symmetric, s.pairs_walked_full, s.pairs_replayed, s.cache_misses
    )
}

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if quick { 1 } else { 3 };
    let ks: &[u32] = if quick { &[4, 8] } else { &[4, 8, 16] };

    let mut points = Vec::new();
    for &k in ks {
        // The reference walk is quadratic in hosts with no collapse; at
        // k=16 it would dominate the benchmark's runtime, and the identity
        // is already proven per-preset by the differential test suite.
        match verify_point(k, reps, k <= 8, threads_available) {
            Some(p) => {
                eprintln!(
                    "verify k={k} [{}]: cold {:.1} ms, warm delta {:.2} ms \
                     ({} classes, {} full walks, {} replayed)",
                    p.model,
                    p.cold_s * 1e3,
                    p.warm_delta_s * 1e3,
                    p.header_classes,
                    p.cold_stats.pairs_walked_full,
                    p.cold_stats.pairs_replayed
                );
                points.push(p);
            }
            None => eprintln!("verify k={k}: no feasible cluster, skipped"),
        }
    }

    let mut json = String::new();
    jline!(json, "{{");
    jline!(json, "  \"quick\": {quick},");
    jline!(json, "  \"threads_available\": {threads_available},");
    if threads_available < 2 {
        jline!(
            json,
            "  \"threads_note\": \"host offers 1 core; only the 1-worker wall time is \
             recorded (multi-worker timings there measure fan-out overhead, not speedup) — \
             findings identity across worker counts is still asserted\","
        );
    }
    jline!(json, "  \"verify\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let identical = match p.identical_to_reference {
            Some(ok) => format!("{ok}"),
            None => "null".into(),
        };
        let threads: Vec<String> = p
            .thread_walls
            .iter()
            .map(|(t, w)| {
                format!(
                    "{{\"threads_requested\": {t}, \
                     \"threads_available\": {threads_available}, \"wall_s\": {w:.6}}}"
                )
            })
            .collect();
        jline!(
            json,
            "    {{\"k\": {}, \"hosts\": {}, \"cluster_switches\": {}, \"model\": \"{}\", \
             \"header_classes\": {}, \"pairs_checked\": {},",
            p.k,
            p.hosts,
            p.cluster_switches,
            p.model,
            p.header_classes,
            p.pairs_checked
        );
        jline!(json, "     \"cold_s\": {:.6}, \"cold_stats\": {},", p.cold_s, jstats(&p.cold_stats));
        jline!(
            json,
            "     \"warm_delta_s\": {:.6}, \"identical_to_reference\": {identical},",
            p.warm_delta_s
        );
        jline!(json, "     \"threads\": [{}]}}{comma}", threads.join(", "));
    }
    jline!(json, "  ]");
    jline!(json, "}}");

    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_verify.json", &json)?;
    print!("{json}");

    // CI gate: at the largest preset measured, the warm re-verify must not
    // be slower than the cold verify.
    match points.last() {
        Some(p) if p.warm_delta_s <= p.cold_s => Ok(()),
        Some(p) => {
            eprintln!(
                "FAIL: warm re-verify ({:.1} ms) slower than cold verify ({:.1} ms) at k={}",
                p.warm_delta_s * 1e3,
                p.cold_s * 1e3,
                p.k
            );
            std::process::exit(1);
        }
        None => {
            eprintln!("FAIL: no preset produced a measurement");
            std::process::exit(1);
        }
    }
}
