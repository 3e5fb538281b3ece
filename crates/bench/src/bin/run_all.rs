//! Run every table/figure regenerator and archive the output under
//! `results/` — one file per paper artifact.
//!
//! The regenerators are independent processes, so they fan out across the
//! sweep pool (`SDT_BENCH_THREADS` workers, default = core count); outputs
//! are archived and reported in the fixed artifact order regardless of
//! completion order.
//!
//! Run with: `cargo run --release -p sdt-bench --bin run_all`

use sdt_bench::{bench_threads, par_map};
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

const BINS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig11",
    "fig12",
    "fig13",
    "active_routing",
    "ablations",
];

enum Run {
    Ok { secs: f64, path: PathBuf },
    Failed { code: Option<i32>, stderr: Vec<u8> },
    Launch(std::io::Error),
}

fn main() -> std::io::Result<()> {
    // Sibling binaries live next to this one.
    let dir = match std::env::current_exe()?.parent() {
        Some(p) => p.to_path_buf(),
        None => unreachable!("an executable path always has a parent dir"),
    };
    let out_dir = PathBuf::from("results");
    std::fs::create_dir_all(&out_dir)?;
    let started = std::time::Instant::now();
    println!("running {} regenerators on {} threads...", BINS.len(), bench_threads());
    let runs = par_map(BINS, |name| {
        let t0 = std::time::Instant::now();
        // Children inherit SDT_BENCH_THREADS; when the caller pinned a
        // thread count it bounds each child's inner sweep too.
        match Command::new(dir.join(name)).output() {
            Ok(o) if o.status.success() => {
                let path = out_dir.join(format!("{name}.txt"));
                match std::fs::write(&path, &o.stdout) {
                    Ok(()) => Run::Ok { secs: t0.elapsed().as_secs_f64(), path },
                    Err(e) => Run::Launch(e),
                }
            }
            Ok(o) => Run::Failed { code: o.status.code(), stderr: o.stderr },
            Err(e) => Run::Launch(e),
        }
    });
    let mut failures = 0;
    for (name, run) in BINS.iter().zip(runs) {
        print!("{name:<16}... ");
        match run {
            Run::Ok { secs, path } => println!("ok ({secs:.1} s) -> {}", path.display()),
            Run::Failed { code, stderr } => {
                failures += 1;
                println!("FAILED (status {code:?})");
                std::io::stderr().write_all(&stderr)?;
            }
            Run::Launch(e) => {
                failures += 1;
                println!("FAILED to launch: {e} (build with `cargo build --release -p sdt-bench --bins` first)");
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "\nall artifacts regenerated under results/ in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
