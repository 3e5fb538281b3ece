//! Daemon churn benchmark: hundreds of concurrent simulated tenants
//! hammering one `sdtd` engine with admit → migrate → destroy cycles over
//! real Unix-domain sockets, batched admission (`batch-max 64`) against
//! the honest one-at-a-time baseline (`batch-max 1`, which pays a static
//! proof *and* a snapshot write per operation). Records per-request
//! latency (p50/p99/p999 via `sdt_par::stats`) and closed-loop
//! throughput for both modes. Writes `results/BENCH_sdtd.json`.
//!
//! Run with: `cargo run --release -p sdt-bench --bin bench_sdtd`
//! (`--quick` shrinks the tenant count and round count; used by CI as a
//! smoke test). Exits non-zero if any request failed to reach a terminal
//! reply — rejections are terminal, lost requests are not.

use sdt::controller::Json;
use sdt_bench::stats::latency_json;
use sdt_par::stats::LatencySummary;
use sdt_sdtd::{run, DaemonMetrics, DaemonOptions, DaemonState};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The daemon's shared cluster: big enough that ~40 three-host slices
/// coexist, small enough that every per-batch static proof stays cheap.
const CLUSTER: &str = "[topology]\nkind = \"chain\"\nn = 3\n\n[cluster]\nswitches = 4\n\
                       model = \"openflow-128x100g\"\nhosts_per_switch = 16\n\
                       inter_links_per_pair = 16\n";

/// What each tenant admits…
const ADMIT: &str = "[topology]\nkind = \"chain\"\nn = 3\n\n[cluster]\nswitches = 4\n\
                     model = \"openflow-128x100g\"\nhosts_per_switch = 16\n\
                     inter_links_per_pair = 16\n";

/// …and then migrates to (make-before-break, so it briefly holds both).
const MIGRATE: &str = "[topology]\nkind = \"ring\"\nn = 3\n\n\
                       [cluster]\nswitches = 4\nmodel = \"openflow-128x100g\"\n\
                       hosts_per_switch = 16\ninter_links_per_pair = 16\n\n\
                       [routing]\nstrategy = \"updown\"\n";

struct TenantResult {
    latencies_ns: Vec<u64>,
    sent: u64,
    answered: u64,
    admitted: u64,
    rejected: u64,
}

struct ModeResult {
    label: &'static str,
    batch_max: usize,
    sent: u64,
    answered: u64,
    admitted: u64,
    rejected: u64,
    wall_s: f64,
    throughput_rps: f64,
    latency: LatencySummary,
    daemon: DaemonMetrics,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (tenants, rounds) = if quick { (24, 1) } else { (192, 2) };
    let dir = std::env::temp_dir().join(format!("bench-sdtd-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("bench_sdtd: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }

    println!("bench_sdtd: {tenants} tenants x {rounds} round(s) per mode");
    let modes = [("batched", 64usize), ("one-at-a-time", 1usize)]
        .map(|(label, batch_max)| run_mode(label, batch_max, tenants, rounds, &dir));
    let _ = std::fs::remove_dir_all(&dir);

    let mut lost = false;
    for m in &modes {
        println!(
            "  {:>13}: {:>7.0} req/s  p50 {:>7} ns  p99 {:>8} ns  p999 {:>8} ns  \
             ({} admitted, {} rejected, {} batches, largest {})",
            m.label,
            m.throughput_rps,
            m.latency.p50_ns,
            m.latency.p99_ns,
            m.latency.p999_ns,
            m.admitted,
            m.rejected,
            m.daemon.batches,
            m.daemon.largest_batch
        );
        if m.sent != m.answered {
            eprintln!(
                "bench_sdtd: {} of {} requests never reached a terminal reply in {} mode",
                m.sent - m.answered,
                m.sent,
                m.label
            );
            lost = true;
        }
    }
    let speedup = modes[0].throughput_rps / modes[1].throughput_rps;
    println!("  batched/unbatched throughput: {speedup:.2}x");

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"quick\": {quick},");
    let _ = writeln!(j, "  \"tenants\": {tenants},");
    let _ = writeln!(j, "  \"rounds\": {rounds},");
    let _ = writeln!(j, "  \"batched_speedup\": {speedup:.3},");
    let _ = writeln!(j, "  \"modes\": [");
    for (i, m) in modes.iter().enumerate() {
        let comma = if i + 1 < modes.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"mode\": \"{}\", \"batch_max\": {}, \"requests\": {}, \
             \"responses\": {}, \"admitted\": {}, \"rejected\": {}, \
             \"wall_s\": {:.4}, \"throughput_rps\": {:.1}, \"latency\": {}, \
             \"daemon\": {{\"batches\": {}, \"batched_ops\": {}, \
             \"largest_batch\": {}, \"snapshot_writes\": {}}}}}{comma}",
            m.label,
            m.batch_max,
            m.sent,
            m.answered,
            m.admitted,
            m.rejected,
            m.wall_s,
            m.throughput_rps,
            latency_json(&m.latency),
            m.daemon.batches,
            m.daemon.batched_ops,
            m.daemon.largest_batch,
            m.daemon.snapshot_writes,
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_sdtd.json", &j))
    {
        eprintln!("bench_sdtd: cannot write results/BENCH_sdtd.json: {e}");
        std::process::exit(1);
    }
    println!("wrote results/BENCH_sdtd.json");
    if lost {
        std::process::exit(1);
    }
}

/// Start an in-process daemon with the given `batch_max`, run the full
/// tenant fleet against it, shut it down, and collect both sides' numbers.
fn run_mode(
    label: &'static str,
    batch_max: usize,
    tenants: usize,
    rounds: usize,
    dir: &Path,
) -> ModeResult {
    let socket = dir.join(format!("sdtd-{batch_max}.sock"));
    let snapshot = dir.join(format!("state-{batch_max}.json"));
    let _ = std::fs::remove_file(&snapshot);
    let state = match DaemonState::fresh(CLUSTER) {
        Ok(s) => s,
        Err(e) => panic!("daemon state: {e}"),
    };
    let opts = DaemonOptions {
        socket: socket.clone(),
        snapshot: Some(snapshot),
        batch_max,
    };
    let daemon = std::thread::spawn(move || run(state, opts));
    wait_for_socket(&socket);

    let t0 = Instant::now();
    let workers: Vec<_> = (0..tenants)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || tenant(&socket, rounds))
        })
        .collect();
    let mut latencies = Vec::new();
    let (mut sent, mut answered, mut admitted, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for w in workers {
        let Ok(r) = w.join() else { panic!("a tenant thread panicked") };
        latencies.extend(r.latencies_ns);
        sent += r.sent;
        answered += r.answered;
        admitted += r.admitted;
        rejected += r.rejected;
    }
    let wall_s = t0.elapsed().as_secs_f64();

    shutdown(&socket);
    let daemon = match daemon.join() {
        Ok(Ok(m)) => m,
        Ok(Err(e)) => panic!("daemon ({label}): {e}"),
        Err(_) => panic!("daemon thread panicked ({label})"),
    };
    ModeResult {
        label,
        batch_max,
        sent,
        answered,
        admitted,
        rejected,
        wall_s,
        throughput_rps: answered as f64 / wall_s,
        latency: LatencySummary::from_ns(latencies),
        daemon,
    }
}

/// One closed-loop tenant: admit a chain-3, migrate it to a ring-3,
/// destroy it, `rounds` times over one pipelined connection. Admission
/// rejections (the cluster *will* fill under 192 tenants) are terminal
/// outcomes, counted and carried on past.
fn tenant(socket: &Path, rounds: usize) -> TenantResult {
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => panic!("tenant connect: {e}"),
    };
    let Ok(read_half) = stream.try_clone() else { panic!("tenant stream clone failed") };
    let mut conn = Conn { stream, reader: BufReader::new(read_half), next_id: 1 };
    let mut r = TenantResult {
        latencies_ns: Vec::new(),
        sent: 0,
        answered: 0,
        admitted: 0,
        rejected: 0,
    };
    for _ in 0..rounds {
        let resp = conn.call(
            "admit",
            vec![("config".into(), Json::str(ADMIT))],
            &mut r,
        );
        let Some(id) = resp.as_ref().and_then(|j| j.get("slice").and_then(Json::as_u64))
        else {
            r.rejected += 1;
            continue;
        };
        r.admitted += 1;
        let migrate = vec![
            ("id".into(), Json::u64(id)),
            ("config".into(), Json::str(MIGRATE)),
        ];
        let _ = conn.call("migrate", migrate, &mut r);
        let _ = conn.call("destroy", vec![("id".into(), Json::u64(id))], &mut r);
    }
    r
}

struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
}

impl Conn {
    /// One timed round trip. Returns the reply only if it carried
    /// `ok: true`; either way the request reached a terminal state and
    /// its latency is recorded.
    fn call(
        &mut self,
        method: &str,
        params: Vec<(String, Json)>,
        r: &mut TenantResult,
    ) -> Option<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = Json::Obj(vec![
            ("id".into(), Json::u64(id)),
            ("method".into(), Json::str(method)),
            ("params".into(), Json::Obj(params)),
        ])
        .emit();
        line.push('\n');
        r.sent += 1;
        let t0 = Instant::now();
        if self.stream.write_all(line.as_bytes()).is_err() {
            return None;
        }
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(n) if n > 0 => {}
            _ => return None,
        }
        r.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        r.answered += 1;
        let doc = Json::parse(resp.trim_end_matches('\n')).ok()?;
        if doc.get("ok").and_then(Json::as_bool) == Some(true) {
            Some(doc)
        } else {
            None
        }
    }
}

fn wait_for_socket(path: &PathBuf) {
    for _ in 0..500 {
        if UnixStream::connect(path).is_ok() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("daemon socket {} never came up", path.display());
}

fn shutdown(socket: &Path) {
    let Ok(mut s) = UnixStream::connect(socket) else { return };
    let _ = s.write_all(b"{\"id\":0,\"method\":\"shutdown\",\"params\":{}}\n");
    let mut resp = String::new();
    let _ = BufReader::new(s).read_line(&mut resp);
}
