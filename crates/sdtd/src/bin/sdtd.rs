//! `sdtd` — the persistent SDT control-plane daemon.
//!
//! ```text
//! sdtd --socket <path> [--config <cluster.toml>] [--snapshot <state.json>]
//!      [--batch-max <n>]
//! ```
//!
//! Startup resolves state in this order: an existing `--snapshot` file
//! wins (crash recovery — the file describes the cluster *and* every
//! admitted slice), else `--config` wires a fresh cluster from its
//! `[cluster]` section. At least one of the two must be given. After a
//! restore the full static proof runs once; a failing proof is reported
//! but the daemon keeps serving — the operator decides what to tear down,
//! and `sdtctl --daemon <socket> verify` shows the findings.
//!
//! The daemon then serves `sdtctl --daemon` clients (and anything else
//! speaking the newline-delimited JSON-RPC protocol) until a `shutdown`
//! request or a signal; every mutation is snapshotted before its reply is
//! sent, so `kill -9` at any point loses nothing acknowledged.

use sdt_sdtd::{run, DaemonOptions, DaemonState};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sdtd --socket <path> [--config <cluster.toml>] \
                     [--snapshot <state.json>] [--batch-max <n>]";

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sdtd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut snapshot: Option<PathBuf> = None;
    let mut batch_max = 64usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(PathBuf::from(need(&mut it, "--socket")?)),
            "--config" => config = Some(PathBuf::from(need(&mut it, "--config")?)),
            "--snapshot" => snapshot = Some(PathBuf::from(need(&mut it, "--snapshot")?)),
            "--batch-max" => {
                batch_max = need(&mut it, "--batch-max")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--batch-max needs a positive integer")?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let socket = socket.ok_or(format!("--socket is required\n{USAGE}"))?;

    let state = match &snapshot {
        Some(path) if path.exists() => {
            let mut s = DaemonState::from_snapshot_file(path)?;
            eprintln!(
                "sdtd: restored {} slice(s) from {}",
                s.slice_count(),
                path.display()
            );
            // Re-prove the restored tables once, up front. A failure is
            // loud but not fatal: the state is what it is, and serving it
            // (with `verify` exposing the findings) beats refusing to
            // start.
            if s.verify_holds() {
                eprintln!("sdtd: restored state re-verified clean");
            } else {
                eprintln!(
                    "sdtd: WARNING: restored state fails static verification; \
                     run `sdtctl --daemon` verify for findings"
                );
            }
            s
        }
        _ => {
            let path = config.ok_or(format!(
                "need --config (fresh start) or an existing --snapshot file\n{USAGE}"
            ))?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            DaemonState::fresh(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
    };

    eprintln!("sdtd: serving on {} (batch-max {batch_max})", socket.display());
    let metrics = run(state, DaemonOptions { socket, snapshot, batch_max })?;
    eprintln!(
        "sdtd: shut down after {} request(s), {} batch(es) covering {} op(s), \
         {} snapshot write(s)",
        metrics.requests, metrics.batches, metrics.batched_ops, metrics.snapshot_writes
    );
    Ok(())
}

fn need(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))
}
