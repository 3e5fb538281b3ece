//! Crash-recovery proof against the real `sdtd` binary: admit slices over
//! the wire, `kill -9` the daemon (mid-churn in the chaos case), restart
//! it from its snapshot file, and hold it to the durability contract:
//!
//! * a quiesced daemon's verify report is byte-identical across the kill;
//! * re-snapshotting the restored state reproduces the snapshot file byte
//!   for byte;
//! * every operation that was ACKED before the kill is visible after the
//!   restart (acked create ⇒ slice exists; acked destroy ⇒ gone) — the
//!   engine persists before it replies, so `kill -9` can only lose work
//!   nobody was told succeeded.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod util;

use sdt_controller::Json;
use sdt_sdtd::Snapshot;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use util::{cfg, cfg_routed, outcome, output, wait_for_socket, Client};

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, fresh_config: Option<&Path>) -> Daemon {
        let socket = dir.join("sdtd.sock");
        let snapshot = dir.join("state.json");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sdtd"));
        cmd.arg("--socket").arg(&socket).arg("--snapshot").arg(&snapshot);
        if let Some(cfg_path) = fresh_config {
            cmd.arg("--config").arg(cfg_path);
        }
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sdtd");
        wait_for_socket(&socket);
        Daemon { child, socket }
    }

    /// SIGKILL — no shutdown handshake, no flush, nothing.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9 sdtd");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn write_config(dir: &Path) -> PathBuf {
    let path = dir.join("cluster.toml");
    std::fs::write(&path, cfg("kind = \"chain\"\nn = 3")).unwrap();
    path
}

#[test]
fn kill9_and_restart_preserves_verify_report_and_snapshot_bytes() {
    let dir = util::scratch("restart-quiesced");
    let config = write_config(&dir);
    let mut daemon = Daemon::start(&dir, Some(&config));

    let mut c = Client::connect(&daemon.socket);
    for topo in ["kind = \"fat-tree\"\nk = 4", "kind = \"chain\"\nn = 4", "kind = \"ring\"\nn = 4"]
    {
        let reply =
            c.call("admit", vec![("config".into(), Json::str(cfg(topo).as_str()))]);
        let (ok, err) = outcome(&reply);
        assert!(ok, "admit {topo}: {err}");
    }
    let before = c.call("verify", vec![("json".into(), Json::Bool(true))]);
    assert!(outcome(&before).0, "pre-kill verify must hold");
    let snapshot_before = std::fs::read_to_string(dir.join("state.json")).unwrap();

    daemon.kill9();

    // Restart purely from the snapshot — no --config.
    let mut daemon = Daemon::start(&dir, None);
    let mut c = Client::connect(&daemon.socket);
    let after = c.call("verify", vec![("json".into(), Json::Bool(true))]);
    assert!(outcome(&after).0, "post-restart verify must hold");
    assert_eq!(
        output(&before),
        output(&after),
        "verify report must be byte-identical across kill -9"
    );

    // Forcing a re-snapshot of the restored state must reproduce the
    // pre-kill file byte for byte.
    assert!(outcome(&c.call("snapshot", vec![])).0);
    let snapshot_after = std::fs::read_to_string(dir.join("state.json")).unwrap();
    assert_eq!(snapshot_before, snapshot_after, "re-snapshot must be byte-identical");

    daemon.kill9();
}

/// The deadlock gate is one setting, the controller's: a daemon started
/// with it off admits a ring-5 routed by BFS (a cyclic channel dependency
/// graph), and after `kill -9` the daemon restored from its snapshot still
/// admits one, and its next snapshot still names the gate off.
#[test]
fn a_restored_daemon_snapshots_the_gate_its_controller_admits_under() {
    let dir = util::scratch("restart-gate");
    let config = dir.join("cluster.toml");
    let fresh = cfg_routed("kind = \"chain\"\nn = 3", "default");
    std::fs::write(&config, format!("{fresh}require_deadlock_free = false\n")).unwrap();
    let ring = cfg_routed("kind = \"ring\"\nn = 5", "bfs");
    let admit = |c: &mut Client| {
        outcome(&c.call("admit", vec![("config".into(), Json::str(ring.as_str()))]))
    };

    let mut daemon = Daemon::start(&dir, Some(&config));
    let (ok, err) = admit(&mut Client::connect(&daemon.socket));
    assert!(ok, "the gate is off: {err}");
    daemon.kill9();

    let mut daemon = Daemon::start(&dir, None);
    let mut c = Client::connect(&daemon.socket);
    let (ok, err) = admit(&mut c);
    assert!(ok, "the restored controller gates as its snapshot says: {err}");
    assert!(outcome(&c.call("snapshot", vec![])).0);
    let snap = Snapshot::decode(&std::fs::read_to_string(dir.join("state.json")).unwrap()).unwrap();
    assert!(!snap.require_deadlock_free, "the next snapshot names the controller's gate");
    assert_eq!(snap.state.slices.len(), 2);

    daemon.kill9();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What one churn client saw acknowledged before the lights went out.
#[derive(Default)]
struct Acked {
    created: Vec<u64>,
    destroyed: Vec<u64>,
}

/// Hammer the daemon with create/destroy churn until the connection dies
/// (= the kill landed), remembering every acked outcome.
fn churn(socket: &Path) -> Acked {
    let mut c = Client::connect(socket);
    let mut acked = Acked::default();
    let admit_cfg = cfg("kind = \"chain\"\nn = 3");
    loop {
        let Ok(id) =
            c.send("admit", vec![("config".into(), Json::str(admit_cfg.as_str()))])
        else {
            return acked;
        };
        let Some(reply) = c.read_reply() else { return acked };
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
        let slice = reply.get("slice").and_then(Json::as_u64);
        if let Some(sid) = slice {
            acked.created.push(sid);
            // Tear down every other slice so the fleet keeps churning
            // instead of saturating and rejecting everything.
            if sid % 2 == 0 {
                if c.send("destroy", vec![("id".into(), Json::u64(sid))]).is_err() {
                    return acked;
                }
                let Some(reply) = c.read_reply() else { return acked };
                if outcome(&reply).0 {
                    acked.destroyed.push(sid);
                }
            }
        }
    }
}

#[test]
fn kill9_mid_churn_loses_nothing_that_was_acked() {
    let dir = util::scratch("restart-churn");
    let config = write_config(&dir);
    let mut daemon = Daemon::start(&dir, Some(&config));

    let socket = daemon.socket.clone();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || churn(&socket))
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(400));
    daemon.kill9();

    let mut created: BTreeSet<u64> = BTreeSet::new();
    let mut destroyed: BTreeSet<u64> = BTreeSet::new();
    for h in clients {
        let acked = h.join().expect("churn client panicked");
        created.extend(acked.created);
        destroyed.extend(acked.destroyed);
    }
    assert!(!created.is_empty(), "chaos run admitted nothing — kill came too early");

    let mut daemon = Daemon::start(&dir, None);
    let mut c = Client::connect(&daemon.socket);

    // The restored fleet must contain every acked create that was not
    // acked-destroyed, and none of the acked destroys. Slices from
    // UNacked requests may legitimately exist (persisted, reply lost).
    let status = c.call("status", vec![]);
    assert!(outcome(&status).0);
    let live: BTreeSet<u64> = output(&status)
        .lines()
        .filter_map(|l| l.strip_prefix("slice-"))
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|n| n.parse().ok())
        .collect();
    for id in &created {
        if !destroyed.contains(id) {
            assert!(live.contains(id), "acked slice-{id} vanished across kill -9");
        }
    }
    for id in &destroyed {
        assert!(!live.contains(id), "acked-destroyed slice-{id} came back");
    }

    // And whatever survived must still prove out.
    let verify = c.call("verify", vec![("json".into(), Json::Bool(true))]);
    assert!(outcome(&verify).0, "restored chaos state must verify clean");

    daemon.kill9();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--batch-max 0` is refused where the flag is parsed: the daemon exits
/// non-zero before it claims to serve, and binds no socket.
#[test]
fn batch_max_zero_is_refused_before_serving() {
    let dir = util::scratch("restart-batch-max-zero");
    let config = write_config(&dir);
    let socket = dir.join("sdtd.sock");
    let out = Command::new(env!("CARGO_BIN_EXE_sdtd"))
        .arg("--socket")
        .arg(&socket)
        .arg("--config")
        .arg(&config)
        .args(["--batch-max", "0"])
        .output()
        .expect("run sdtd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "sdtd accepted --batch-max 0: {stderr}");
    assert!(stderr.contains("--batch-max needs a positive integer"), "{stderr}");
    assert!(!stderr.contains("serving on"), "{stderr}");
    assert!(!socket.exists(), "a socket file appeared");
}
