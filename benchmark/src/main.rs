//! The repository's one end-to-end benchmark. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how to read them.
//!
//! ```text
//! sdt-benchmark run --seed N [--workload NAME] [--seconds S] [--trace 0|1]
//!                   [--out FILE] [--quick]
//! sdt-benchmark compare A.json B.json
//! ```
//!
//! With `--workload`, the workload runs in this process and the last line
//! of standard output is the result object `BENCHMARK.json`'s driver reads.
//! Without it, every workload runs in a child process of its own (so
//! `peak_rss_mb` is per workload) and `--out` collects all of them.

mod compare;
mod harness;
mod metrics;
mod rng;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Outcome};
use sdt::controller::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: sdt-benchmark run --seed N [--workload NAME] [--seconds S] \
                     [--trace 0|1] [--out FILE] [--quick]\n       \
                     sdt-benchmark compare A.json B.json";

/// Timed-loop budget when `--seconds` is absent (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 32.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        quick: false,
    };
    let mut seeded = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            r.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => r.workload = Some(value.clone()),
            "--seed" => {
                r.seed = value.parse().map_err(|_| bad())?;
                seeded = true;
            }
            "--seconds" => {
                r.seconds = value.parse().map_err(|_| bad())?;
                if !(r.seconds > 0.0 && r.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                r.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => r.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !seeded {
        return Err("--seed is required: every input is generated from it".into());
    }
    Ok(r)
}

/// The detailed record of one workload run (the `--out` form).
fn run_record(name: &str, a: &RunArgs, host: Json, correct: bool, o: &Outcome) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::u64(1)),
        ("workload".into(), Json::str(name)),
        ("seed".into(), Json::u64(a.seed)),
        ("seconds".into(), Json::f64(a.seconds)),
        ("trace".into(), Json::u64(a.trace.into())),
        ("quick".into(), Json::Bool(a.quick)),
        ("host".into(), host),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(o.attempted)),
        ("failed".into(), Json::u64(o.failed)),
        (
            "errors".into(),
            Json::Arr(o.errors.iter().map(|e| Json::str(e.as_str())).collect()),
        ),
        ("metrics".into(), o.metrics.to_json(true)),
    ])
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The library thread pools, which default to one thread per core. The
/// benchmark narrows each to one thread unless the caller set it: on a few
/// cores of a shared host a parallel section waits for whichever core a
/// neighbour disturbs, and `reconfig-k16` spread 14 % across runs on two
/// threads against 6 % on one (README). The host block records the counts.
const THREAD_KNOBS: [&str; 2] = ["SDT_VERIFY_THREADS", "SDT_ESTIMATE_THREADS"];

/// Run one workload in this process; the last stdout line is the result.
fn run_one(name: &str, a: &RunArgs) -> Result<bool, String> {
    // No other thread runs yet, so the environment is ours to set.
    for knob in THREAD_KNOBS {
        if std::env::var_os(knob).is_none() {
            std::env::set_var(knob, "1");
        }
    }
    let dir = PathBuf::from(format!("benchmark/.run/{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        dir: dir.clone(),
        cores: harness::cores(),
    };
    let outcome = workloads::run(name, &ctx);
    let host = harness::host_block(&ctx);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir("benchmark/.run"); // only when no other run uses it
    let Some(o) = outcome else {
        return Err(format!(
            "no workload `{name}`; have {}",
            workloads::NAMES.join(", ")
        ));
    };

    let correct = o.errors.is_empty() && o.failed == 0;
    for e in &o.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!(
        "# {name} seed {} trace {} quick {}",
        a.seed,
        u8::from(a.trace),
        a.quick
    );
    println!("# host {}", host.emit());
    println!("# VmHWM at exit {:.1} MiB", harness::peak_rss_mb());
    for v in o.metrics.values() {
        println!("{:<32} {:>18.6} {}", v.def.name, v.value, v.def.unit);
    }
    if a.trace {
        // Where the traced units' wall went, by span name (self time).
        let rows = o.tracer.by_name();
        let total: u64 = rows.iter().map(|r| r.2).sum();
        for (span, n, ns) in rows {
            println!(
                "# share {span:<28} {:>6.2} %  ({n} spans)",
                ns as f64 / total.max(1) as f64 * 100.0
            );
        }
    }
    if let Some(out) = &a.out {
        write(out, &run_record(name, a, host, correct, &o).emit())?;
        if a.trace {
            let mut p = out.clone().into_os_string();
            p.push(".trace.json");
            write(Path::new(&p), &o.tracer.to_json().emit())?;
        }
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(o.attempted)),
        ("failed".into(), Json::u64(o.failed)),
        ("metrics".into(), o.metrics.to_json(false)),
    ]);
    println!("{}", result.emit());
    Ok(correct)
}

/// Run every workload, each in a child process, and collect their records.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = PathBuf::from(format!("benchmark/.run/set-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut records = Vec::new();
    let mut all_ok = true;
    for name in workloads::NAMES {
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            let part = dir.join(format!("{name}.{}.json", u8::from(trace)));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", name, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if a.quick {
                cmd.arg("--quick");
            }
            // `status` waits for the child; its output goes to our stdout.
            let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
            all_ok &= status.success();
            match std::fs::read_to_string(&part) {
                Ok(text) => records.push(text),
                Err(e) => eprintln!("{name}: no record ({e})"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir("benchmark/.run");
    if let Some(out) = &a.out {
        write(
            out,
            &format!("{{\"schema\":1,\"runs\":[{}]}}", records.join(",")),
        )?;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| match &a.workload {
            Some(name) => run_one(name, &a),
            None => run_all(&a),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare::compare_files(Path::new(a), Path::new(b))
        }
        _ => Err(USAGE.into()),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sdt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
