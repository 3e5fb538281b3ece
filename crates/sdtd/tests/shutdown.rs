//! Shutdown-path integration tests over a live socket: a `shutdown`
//! racing pipelined admits from several concurrent connections must leave
//! no client hanging — every reply that does come back is terminal and in
//! FCFS order, everything else ends in a clean EOF — the listener must
//! actually close, and the snapshot on disk must contain every admit that
//! was acknowledged (the wire-level face of the engine's
//! persist-before-reply contract, which `tests/model.rs` proves on every
//! schedule of the extracted loop).

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod util;

use sdt_controller::Json;
use sdt_sdtd::{run, DaemonMetrics, DaemonOptions, DaemonState, Snapshot};
use std::collections::BTreeSet;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use util::{cfg, outcome, wait_for_socket, Client};

fn start(
    tag: &str,
) -> (PathBuf, PathBuf, std::thread::JoinHandle<Result<DaemonMetrics, String>>) {
    let dir = util::scratch(tag);
    let socket = dir.join("sdtd.sock");
    let snapshot = dir.join("state.json");
    let state = DaemonState::fresh(&cfg("kind = \"chain\"\nn = 3")).unwrap();
    let opts = DaemonOptions {
        socket: socket.clone(),
        snapshot: Some(snapshot.clone()),
        batch_max: 4,
    };
    let handle = std::thread::spawn(move || run(state, opts));
    wait_for_socket(&socket);
    (socket, snapshot, handle)
}

/// What one pipelining client observed before its connection ended.
struct Observed {
    sent: u64,
    /// `(ok, error, slice)` per reply, in arrival order.
    replies: Vec<(bool, String, Option<u64>)>,
}

/// Pipeline a burst of admits on one connection, then read replies until
/// they are all in or the daemon hangs up mid-burst.
fn pipelined_admits(mut c: Client, burst: u64) -> Observed {
    let admit = cfg("kind = \"chain\"\nn = 3");
    let mut sent = 0;
    for _ in 0..burst {
        // A failed write means the daemon is already gone; everything
        // sent so far still gets a terminal reply or an EOF.
        if c.send("admit", vec![("config".into(), Json::str(admit.as_str()))]).is_err() {
            break;
        }
        sent += 1;
    }
    let mut replies = Vec::new();
    for want in 1..=sent {
        let Some(reply) = c.read_reply() else { break };
        assert_eq!(
            reply.get("id").and_then(Json::as_u64),
            Some(want),
            "replies must stay FCFS even while shutting down"
        );
        let (ok, err) = outcome(&reply);
        let slice = reply.get("slice").and_then(Json::as_u64);
        replies.push((ok, err, slice));
    }
    // Past the last reply there is nothing but EOF — the daemon never
    // leaves a connection half-served with the socket still open.
    assert!(c.read_reply().is_none(), "no frames may follow the final reply");
    Observed { sent, replies }
}

#[test]
fn shutdown_racing_pipelined_connections_leaves_no_client_hanging() {
    let (socket, snapshot, handle) = start("shutdown-race");

    // One synchronous admit up front so the durability assertion below is
    // never vacuous, whichever way the race goes.
    let mut warmup = Client::connect(&socket);
    let first = warmup.call("admit", vec![(
        "config".into(),
        Json::str(cfg("kind = \"ring\"\nn = 4").as_str()),
    )]);
    let (ok, err) = outcome(&first);
    assert!(ok, "warmup admit failed: {err}");
    let first_slice = first.get("slice").and_then(Json::as_u64).unwrap();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            // Connected here, not in the thread: the shutdown below may
            // close the listener before a spawned thread first runs.
            let c = Client::connect(&socket);
            std::thread::spawn(move || pipelined_admits(c, 6))
        })
        .collect();

    // Shutdown races the bursts. Its own reply is guaranteed: the request
    // reached the queue, and queued requests always get terminal replies.
    let mut killer = Client::connect(&socket);
    assert!(outcome(&killer.call("shutdown", vec![])).0, "shutdown must be acked");

    let mut acked: BTreeSet<u64> = BTreeSet::new();
    acked.insert(first_slice);
    let mut saw_shutdown_reject = false;
    for w in workers {
        let obs = w.join().expect("pipelining client panicked");
        assert!(obs.replies.len() as u64 <= obs.sent);
        for (ok, err, slice) in obs.replies {
            if ok {
                acked.insert(slice.expect("acked admit must name its slice"));
            } else {
                assert!(!err.is_empty(), "a failure reply must carry a named error");
                saw_shutdown_reject |= err == "daemon is shutting down";
            }
        }
    }
    // `saw_shutdown_reject` depends on how the race lands; it is recorded
    // only so the variable documents what the reject path looks like on
    // the wire — the schedule-exhaustive version lives in tests/model.rs.
    let _ = saw_shutdown_reject;

    let metrics = handle.join().unwrap().expect("daemon exited with an error");
    assert!(metrics.requests > acked.len() as u64);

    // The listener is really gone, not just idle.
    assert!(
        UnixStream::connect(&socket).is_err(),
        "listener must be closed after shutdown"
    );

    // Durability: every acknowledged admit is in the snapshot that
    // survived the shutdown. (Unacked admits may also be there — applied,
    // persisted, reply lost — that is the safe direction of the race.)
    let snap = Snapshot::decode(&std::fs::read_to_string(&snapshot).unwrap())
        .expect("snapshot must parse after shutdown");
    let durable: BTreeSet<u64> = snap.slices.iter().map(|s| u64::from(s.id)).collect();
    for id in &acked {
        assert!(
            durable.contains(id),
            "slice-{id} was acked but is missing from the shutdown snapshot"
        );
    }
}

/// A daemon with nothing in flight shuts down cleanly: shutdown is acked,
/// the listener closes, and a fresh daemon restores the snapshot it left.
#[test]
fn quiet_shutdown_closes_listener_and_leaves_a_restorable_snapshot() {
    let (socket, snapshot, handle) = start("shutdown-quiet");

    let mut c = Client::connect(&socket);
    let reply = c.call("admit", vec![(
        "config".into(),
        Json::str(cfg("kind = \"chain\"\nn = 2").as_str()),
    )]);
    assert!(outcome(&reply).0);
    assert!(outcome(&c.call("shutdown", vec![])).0);
    // After the shutdown reply this connection carries nothing but EOF.
    assert!(c.read_reply().is_none());

    handle.join().unwrap().expect("daemon exited with an error");
    assert!(UnixStream::connect(&socket).is_err());

    // The snapshot the daemon left behind boots a working replacement.
    let restored = DaemonState::from_snapshot_file(&snapshot)
        .expect("post-shutdown snapshot must restore");
    drop(restored);
}
