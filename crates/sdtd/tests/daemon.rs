//! Integration tests for the daemon engine over a live Unix socket:
//! batched admission must be outcome-equivalent to sequential admission
//! (same accept/reject multiset, same *named* rejection reasons), replies
//! on one connection must come back in request order (FCFS),
//! daemon-rendered reports must be byte-identical to local `sdtctl`
//! rendering of the same state and must not move a dataplane counter, and
//! a hostile request line (over-long, not UTF-8, nested past the parser's
//! cap, or carrying a number that does not fit its field) must cost at
//! most its own connection and never be served as some other request, and
//! a hostile *config* inside a well-formed request must cost one error
//! reply naming the key.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod util;

use sdt_controller::commands::{self, ConfigItem};
use sdt_controller::{Json, SliceController, TestbedConfig};
use sdt_sdtd::{run, serve, DaemonOptions, DaemonState};
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use util::{cfg, outcome, output as reply_output, wait_for_socket, Client};

/// Start an in-process daemon; returns its socket and the join handle the
/// caller uses to collect metrics after sending `shutdown`.
fn start(
    tag: &str,
    batch_max: usize,
) -> (PathBuf, std::thread::JoinHandle<Result<sdt_sdtd::DaemonMetrics, String>>) {
    let dir = util::scratch(tag);
    let socket = dir.join("sdtd.sock");
    let state = DaemonState::fresh(&cfg("kind = \"chain\"\nn = 3")).unwrap();
    let opts = DaemonOptions { socket: socket.clone(), snapshot: None, batch_max };
    let handle = std::thread::spawn(move || run(state, opts));
    wait_for_socket(&socket);
    (socket, handle)
}

fn stop(socket: &Path) {
    let mut c = Client::connect(socket);
    let (ok, _) = outcome(&c.call("shutdown", vec![]));
    assert!(ok);
}

/// The equivalence workload: requests whose verdicts do not depend on
/// admission order — the cluster has ample room for every valid config,
/// and the invalid ones are *intrinsically* invalid (deadlock-vetoed
/// routing, unknown strategy), rejected by gates that never look at
/// cluster state.
fn workload() -> Vec<String> {
    let mut w = Vec::new();
    for _ in 0..6 {
        w.push(cfg("kind = \"chain\"\nn = 3"));
        w.push(cfg("kind = \"ring\"\nn = 4"));
    }
    // BFS on an odd ring has a cyclic channel-dependency graph.
    w.push(util::cfg_routed("kind = \"ring\"\nn = 5", "bfs"));
    w.push(util::cfg_routed("kind = \"chain\"\nn = 3", "warp-drive"));
    w
}

/// Fire every request from its own thread over its own connection, so the
/// engine actually sees a concurrent backlog to coalesce.
fn run_concurrent(socket: &Path, reqs: &[String]) -> Vec<(bool, String)> {
    let workers: Vec<_> = reqs
        .iter()
        .cloned()
        .map(|text| {
            let socket = socket.to_path_buf();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket);
                outcome(&c.call("admit", vec![("config".into(), Json::str(text.as_str()))]))
            })
        })
        .collect();
    workers.into_iter().map(|w| w.join().unwrap()).collect()
}

#[test]
fn concurrent_batched_admission_matches_sequential_with_named_reasons() {
    let reqs = workload();

    // The reference verdicts: a plain sequential controller.
    let first = TestbedConfig::parse(&reqs[0]).unwrap();
    let mut ctl = SliceController::from_config(&first);
    let mut expected: Vec<(bool, String)> = Vec::new();
    for text in &reqs {
        let c = TestbedConfig::parse(text).unwrap();
        expected.push(match ctl.create(c.topology.name(), &c.topology, &c.strategy) {
            Ok(_) => (true, String::new()),
            Err(e) => (false, e.to_string()),
        });
    }

    for batch_max in [64, 1] {
        let (socket, handle) = start(&format!("equiv-{batch_max}"), batch_max);
        let mut got = run_concurrent(&socket, &reqs);
        stop(&socket);
        let metrics = handle.join().unwrap().unwrap();

        // Concurrent arrival order is arbitrary; the workload is built so
        // the outcome MULTISET is order-independent.
        let mut want = expected.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "batch_max={batch_max}");
        assert!(
            got.iter().any(|(_, e)| e.contains("channel dependency cycle")),
            "deadlock veto must keep its named reason through the wire"
        );
        assert!(
            got.iter().any(|(_, e)| e.contains("unknown routing strategy `warp-drive`")),
            "strategy errors must keep their named reason through the wire"
        );
        if batch_max == 1 {
            assert_eq!(metrics.batches, 0, "batch_max=1 must never coalesce");
        }
    }
}

#[test]
fn replies_on_one_connection_are_fcfs() {
    let (socket, handle) = start("fcfs", 8);
    let mut c = Client::connect(&socket);
    // Pipeline a burst mixing batchable ops, reports, and a parse error —
    // replies must still come back in exact request order.
    let mut sent = Vec::new();
    for i in 0..20u32 {
        let id = match i % 4 {
            0 => c.send("ping", vec![]),
            1 => c.send(
                "admit",
                vec![("config".into(), Json::str(cfg("kind = \"chain\"\nn = 2").as_str()))],
            ),
            2 => c.send("destroy", vec![("id".into(), Json::u64(9999))]),
            _ => c.send("no-such-method", vec![]),
        }
        .unwrap();
        sent.push(id);
    }
    for want in sent {
        let reply = c.read_reply().expect("daemon closed mid-burst");
        assert_eq!(
            reply.get("id").and_then(Json::as_u64),
            Some(want),
            "replies must be FCFS per connection"
        );
    }
    stop(&socket);
    handle.join().unwrap().unwrap();
}

/// Blank the number after every occurrence of each `key`: measured wall
/// clocks are the only bytes allowed to differ between two runs.
fn mask(text: &str, keys: &[&str]) -> String {
    let mut out = text.to_string();
    for key in keys {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let digits =
                out[start..].chars().take_while(|c| c.is_ascii_digit() || *c == '.').count();
            out.replace_range(start..start + digits, "X");
            from = start;
        }
    }
    out
}

#[test]
fn daemon_reports_are_byte_identical_to_local_rendering() {
    // Three tenants, the last touching only part of the fabric, plus one
    // the deadlock gate refuses: the cached proof both sides render carries
    // the work counters of the admission path that produced it, so the two
    // paths have to be the same path.
    let configs = [
        ("a.toml", cfg("kind = \"fat-tree\"\nk = 4")),
        ("b.toml", cfg("kind = \"ring\"\nn = 4")),
        ("c.toml", util::cfg_routed("kind = \"ring\"\nn = 5", "bfs")),
        ("d.toml", cfg("kind = \"chain\"\nn = 3")),
    ];

    // Local mode: what `sdtctl slices a.toml b.toml c.toml d.toml` runs —
    // the shared command on a fresh controller wired from the first config.
    let parsed: Vec<ConfigItem> = configs
        .iter()
        .map(|(path, text)| (path.to_string(), Ok(TestbedConfig::parse(text).unwrap())))
        .collect();
    let fresh = || SliceController::from_config(parsed[0].1.as_ref().unwrap());
    let [local_human, local_json] = [false, true].map(|json| {
        let done = commands::slices(&mut fresh(), &parsed, json);
        assert_eq!(done.error.as_deref(), Some("1 slice(s) rejected"));
        assert_eq!(done.installed.len(), 3);
        done.output
    });
    let local_verify = {
        let mut ctl = fresh();
        commands::slices(&mut ctl, &parsed, true);
        commands::verify(&mut ctl, &[], true, false).output
    };

    // Daemon mode: same configs through the wire, fresh daemon.
    for (json, want) in [(false, &local_human), (true, &local_json)] {
        let (socket, handle) = start(&format!("bytes-{json}"), 64);
        let mut c = Client::connect(&socket);
        let items = configs
            .iter()
            .map(|(path, text)| {
                Json::Obj(vec![
                    ("path".into(), Json::str(*path)),
                    ("text".into(), Json::str(text.as_str())),
                ])
            })
            .collect();
        let reply = c.call(
            "slices",
            vec![("json".into(), Json::Bool(json)), ("configs".into(), Json::Arr(items))],
        );
        let (ok, err) = outcome(&reply);
        assert!(!ok && err == "1 slice(s) rejected", "the vetoed ring fails the command: {err}");
        assert_eq!(&reply_output(&reply), want, "json={json}");

        if json {
            let verify = c.call("verify", vec![("json".into(), Json::Bool(true))]);
            assert_eq!(reply_output(&verify), local_verify);
        }
        stop(&socket);
        handle.join().unwrap().unwrap();
    }
}

/// `reconfigure`, plain and `--scheduled` over a channel dropping and
/// reordering a fifth of the flow-mods: a fresh daemon answers with the
/// bytes and the verdict local mode produces, measured proof times aside.
#[test]
fn daemon_reconfigure_is_byte_identical_to_local() {
    let (from_text, to_text) = (cfg("kind = \"ring\"\nn = 4"), cfg("kind = \"chain\"\nn = 4"));
    let from = TestbedConfig::parse(&from_text).unwrap();
    let to = TestbedConfig::parse(&to_text).unwrap();
    let wall_clocks = ["\"proof_wall_ms\":", "\"proof_wall_ms_total\":", "— proof "];
    let lossy = sdt_openflow::ControlConfig {
        drop_prob: 0.2,
        reorder_prob: 0.2,
        seed: 7,
        ..sdt_openflow::ControlConfig::reliable()
    };
    for (scheduled, json) in
        [(None, false), (None, true), (Some(lossy), false), (Some(lossy), true)]
    {
        let mut ctl = SliceController::from_config(&from);
        let local = commands::reconfigure(&mut ctl, "ring.toml", &from, &to, scheduled, json);
        assert_eq!(local.installed.len(), 2, "admitted from `from`, migrated to `to`");
        assert!(scheduled.is_none() || local.output.contains("retries"), "{}", local.output);

        let (socket, handle) = start(&format!("reconf-{}-{json}", scheduled.is_some()), 64);
        let channel = scheduled.unwrap_or_default();
        let reply = Client::connect(&socket).call(
            "reconfigure",
            vec![
                ("json".into(), Json::Bool(json)),
                ("scheduled".into(), Json::Bool(scheduled.is_some())),
                ("drop".into(), Json::f64(channel.drop_prob)),
                ("reorder".into(), Json::f64(channel.reorder_prob)),
                ("seed".into(), Json::u64(channel.seed)),
                ("from_path".into(), Json::str("ring.toml")),
                ("from_text".into(), Json::str(from_text.as_str())),
                ("to_path".into(), Json::str("chain.toml")),
                ("to_text".into(), Json::str(to_text.as_str())),
            ],
        );
        assert_eq!(
            mask(&reply_output(&reply), &wall_clocks),
            mask(&local.output, &wall_clocks),
            "scheduled={} json={json}",
            scheduled.is_some()
        );
        assert_eq!(outcome(&reply), (local.error.is_none(), local.error.unwrap_or_default()));
        stop(&socket);
        handle.join().unwrap().unwrap();
    }
}

/// Serve `state` on a fresh socket for as long as `drive` runs, then shut
/// the daemon down — so the caller can look at the state between sessions.
fn session(state: &mut DaemonState, tag: &str, drive: impl FnOnce(&mut Client)) {
    let socket = util::scratch(tag).join("sdtd.sock");
    let opts = DaemonOptions { socket: socket.clone(), snapshot: None, batch_max: 64 };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve(state, opts));
        wait_for_socket(&socket);
        drive(&mut Client::connect(&socket));
        stop(&socket);
        daemon.join().unwrap().unwrap();
    });
}

/// Every counter the Network Monitor and the failure detector read: per
/// port rx/tx bytes and packets, per table lookups and misses.
fn counters(state: &DaemonState) -> Vec<String> {
    state
        .controller()
        .manager()
        .switches()
        .iter()
        .map(|sw| {
            let (t0, t1) = (sw.table(0).stats(), sw.table(1).stats());
            format!(
                "{:?} t0 {}/{} t1 {}/{}",
                sw.all_port_stats(),
                t0.lookups,
                t0.misses,
                t1.lookups,
                t1.misses
            )
        })
        .collect()
}

/// `slices` and `reconfigure` over the wire are pure reads of the
/// dataplane: with three slices resident, a listing (which admits a fourth)
/// and a migration report leave every port and table counter of the
/// daemon's switches bit-identical.
#[test]
fn slices_and_reconfigure_over_the_wire_move_no_counter() {
    let mut state = DaemonState::fresh(&cfg("kind = \"chain\"\nn = 3")).unwrap();
    let ring4 = cfg("kind = \"ring\"\nn = 4");
    session(&mut state, "counters-admit", |c| {
        for text in [cfg("kind = \"fat-tree\"\nk = 4"), cfg("kind = \"chain\"\nn = 3"), ring4.clone()]
        {
            let admit = c.call("admit", vec![("config".into(), Json::str(text.as_str()))]);
            assert!(outcome(&admit).0, "admit failed: {}", outcome(&admit).1);
        }
    });
    assert_eq!(state.slice_count(), 3);
    let before = counters(&state);

    session(&mut state, "counters-report", |c| {
        for json in [false, true] {
            let item = Json::Obj(vec![
                ("path".into(), Json::str("m.toml")),
                ("text".into(), Json::str(cfg("kind = \"mesh\"\ndims = [2, 2]").as_str())),
            ]);
            let listing = c.call(
                "slices",
                vec![("json".into(), Json::Bool(json)), ("configs".into(), Json::Arr(vec![item]))],
            );
            assert!(outcome(&listing).0, "slices failed: {}", outcome(&listing).1);
            assert!(reply_output(&listing).contains("orphan"), "status block lists orphans");
        }
        let migrate = c.call(
            "reconfigure",
            vec![
                ("json".into(), Json::Bool(true)),
                ("from_path".into(), Json::str("ring.toml")),
                ("from_text".into(), Json::str(ring4.as_str())),
                ("to_path".into(), Json::str("chain.toml")),
                ("to_text".into(), Json::str(cfg("kind = \"chain\"\nn = 4").as_str())),
            ],
        );
        assert!(outcome(&migrate).0, "reconfigure failed: {}", outcome(&migrate).1);
        assert!(reply_output(&migrate).ends_with("\"audit_clean\":true}"));
    });
    assert_eq!(state.slice_count(), 5);
    assert_eq!(before, counters(&state), "a report over the wire moved a counter");
}

#[test]
fn over_long_request_line_is_refused_and_only_that_connection_closes() {
    let (socket, handle) = start("long-line", 64);
    let mut other = Client::connect(&socket);
    assert!(outcome(&other.call("ping", vec![])).0);

    // 2 MiB without a newline. The daemon stops reading at its cap, so the
    // tail of the write may fail once it hangs up; the reply is what counts.
    let mut hostile = UnixStream::connect(&socket).unwrap();
    let _ = hostile.write_all(&vec![b'x'; 2 << 20]);
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim_end_matches('\n')).unwrap();
    let (ok, err) = outcome(&reply);
    assert!(!ok, "an over-long line must be refused: {line}");
    assert!(err.contains("exceeds"), "the refusal names the cap: {err}");
    // Nothing but the end of the connection follows the refusal.
    line.clear();
    assert!(!matches!(reader.read_line(&mut line), Ok(n) if n > 0), "got {line}");

    let text = cfg("kind = \"chain\"\nn = 3");
    let admit = other.call("admit", vec![("config".into(), Json::str(text.as_str()))]);
    assert!(outcome(&admit).0, "the daemon must keep serving other connections");
    stop(&socket);
    handle.join().unwrap().unwrap();
}

/// A line that is not UTF-8 is a bad request like any other: answered under
/// id 0 in queue order, and the connection keeps serving. It used to make
/// the reader thread return, closing the connection with no reply at all.
#[test]
fn non_utf8_request_line_gets_an_error_reply_and_the_connection_keeps_serving() {
    let (socket, handle) = start("not-utf8", 64);
    let mut hostile = UnixStream::connect(&socket).unwrap();
    hostile.write_all(b"{\"id\":5,\"method\":\"ping\xff\xfe\"}\n").unwrap();
    hostile.write_all(b"{\"id\":6,\"method\":\"ping\"}\n").unwrap();
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0, "the bad line is owed a reply");
    let reply = Json::parse(line.trim_end_matches('\n')).unwrap();
    let (ok, err) = outcome(&reply);
    assert!(!ok && err.contains("UTF-8"), "the refusal names the defect: {line}");
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(0));
    line.clear();
    assert!(reader.read_line(&mut line).unwrap() > 0, "the connection must keep serving");
    let reply = Json::parse(line.trim_end_matches('\n')).unwrap();
    assert_eq!((outcome(&reply).0, reply.get("id").and_then(Json::as_u64)), (true, Some(6)));
    stop(&socket);
    handle.join().unwrap().unwrap();
}

/// A daemon started without a snapshot file writes nothing, so a
/// `snapshot` request is refused by name instead of answered `ok`.
#[test]
fn snapshot_request_without_a_snapshot_file_is_refused() {
    let (socket, handle) = start("no-snapshot", 64);
    let mut c = Client::connect(&socket);
    let (ok, err) = outcome(&c.call("snapshot", vec![]));
    assert!(!ok && err.contains("no snapshot file configured"), "got ok={ok} {err:?}");
    assert!(outcome(&c.call("ping", vec![])).0, "the connection keeps serving");
    stop(&socket);
    assert_eq!(handle.join().unwrap().unwrap().snapshot_writes, 0);
}

/// A slice id that does not fit `u32` is refused by name, in queue order.
/// `id as u32` used to wrap 2³² + 1 onto slice 1 and destroy (or migrate)
/// a live tenant. Of a duplicated key the first is read, so a second `id`
/// cannot smuggle the wrap back in either.
#[test]
fn out_of_range_slice_id_is_refused_not_wrapped_onto_a_live_slice() {
    let (socket, handle) = start("id-range", 64);
    let mut c = Client::connect(&socket);
    let chain = cfg("kind = \"chain\"\nn = 3");
    for want in 0..2u64 {
        let admit = c.call("admit", vec![("config".into(), Json::str(chain.as_str()))]);
        assert_eq!(admit.get("slice").and_then(Json::as_u64), Some(want));
    }
    let wrapped = Json::u64((1 << 32) + 1);
    let hostile = [
        c.call("destroy", vec![("id".into(), wrapped.clone())]),
        c.call("destroy", vec![("id".into(), wrapped.clone()), ("id".into(), Json::u64(1))]),
        c.call(
            "migrate",
            vec![("id".into(), wrapped), ("config".into(), Json::str(cfg("kind = \"ring\"\nn = 4")))],
        ),
    ];
    for reply in &hostile {
        let (ok, err) = outcome(reply);
        assert!(!ok && err.contains("id: out of u32 range"), "{}", reply.emit());
    }
    let status = c.call("status", vec![]);
    assert_eq!(status.get("slices").and_then(Json::as_u64), Some(2));
    assert!(reply_output(&status).contains("slice-1  chain-3  (chain-3)"), "slice 1 must survive");
    stop(&socket);
    handle.join().unwrap().unwrap();
}

/// A request nested past the JSON parser's cap — 100 000 `[` in a 100 KB
/// line, far under the line cap — once overflowed the reader thread's
/// stack and aborted the process. It now costs one error reply.
#[test]
fn nesting_bomb_gets_an_error_reply_and_the_daemon_keeps_serving() {
    let (socket, handle) = start("nesting-bomb", 64);
    let mut hostile = UnixStream::connect(&socket).unwrap();
    hostile.write_all("[".repeat(100_000).as_bytes()).unwrap();
    hostile.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(hostile).read_line(&mut line).unwrap();
    let (ok, err) = outcome(&Json::parse(line.trim_end_matches('\n')).unwrap());
    assert!(!ok && err.contains("nesting too deep"), "the bomb must be refused by name: {line}");

    let mut other = Client::connect(&socket);
    assert!(outcome(&other.call("ping", vec![])).0, "the daemon must keep answering");
    stop(&socket);
    handle.join().unwrap().unwrap();
}

/// Config texts no topology or cluster builder accepts, pipelined on one
/// connection: each is refused naming its key, in queue order, and the
/// same connection then pings and admits. `k = 3` used to trip
/// `fat_tree`'s assert on the engine thread — the daemon exited 101 with
/// the request unanswered — `k = -4`, read `as u32`, never returned, and
/// `k = 4294967300` was admitted as `k = 4`.
#[test]
fn hostile_configs_are_refused_by_key_and_the_connection_keeps_serving() {
    let (socket, handle) = start("hostile-config", 64);
    let mut c = Client::connect(&socket);
    let hostile = [
        ("kind = \"fat-tree\"\nk = 3", "`topology.k`: must be even"),
        ("kind = \"fat-tree\"\nk = -4", "`topology.k`: out of u32 range"),
        ("kind = \"fat-tree\"\nk = 4294967300", "`topology.k`: out of u32 range"),
        ("kind = \"torus\"\ndims = [0, 4]", "`topology.dims`"),
        ("kind = \"custom\"\nswitches = 2\nedges = [0, 7]", "`topology.edges`: switch s7"),
    ];
    let admit = |c: &mut Client, topology: &str| {
        c.send("admit", vec![("config".into(), Json::str(cfg(topology)))]).unwrap()
    };
    let sent: Vec<u64> = hostile.iter().map(|(topology, _)| admit(&mut c, topology)).collect();
    for (id, (topology, named)) in sent.into_iter().zip(hostile) {
        let reply = c.read_reply().expect("every hostile config is owed a reply");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id), "queue order");
        let (ok, err) = outcome(&reply);
        assert!(!ok && err.contains(named), "{topology}: {}", reply.emit());
    }
    assert!(outcome(&c.call("ping", vec![])).0, "the daemon must keep answering");
    admit(&mut c, "kind = \"chain\"\nn = 3");
    assert_eq!(c.read_reply().unwrap().get("slice").and_then(Json::as_u64), Some(0));
    stop(&socket);
    handle.join().unwrap().unwrap();
}

/// A request's `[cluster]` is its own claim, not the daemon's cluster: a
/// 100 000-switch chain under a declared 1 000-switch cluster fits the file
/// but not the daemon's 4 × 128 ports, and is refused by name at parse
/// time — admitted or migrated to, it is never built.
#[test]
fn oversize_topology_under_an_inflated_cluster_is_refused_before_it_is_built() {
    let (socket, handle) = start("inflated-cluster", 64);
    let mut c = Client::connect(&socket);
    let inflated = "[topology]\nkind = \"chain\"\nn = 100000\n\n[cluster]\nswitches = 1000\n\
                    model = \"openflow-128x100g\"\nhosts_per_switch = 16\n\
                    inter_links_per_pair = 0\n";
    assert!(TestbedConfig::parse(inflated).is_ok(), "the file alone is consistent");
    let named = "bad value for `topology`: 100000 switches and 100000 hosts exceed the \
                 cluster's 512 ports";
    let admitted = c.call("admit", vec![("config".into(), Json::str(inflated))]);
    assert_eq!(outcome(&admitted), (false, named.to_string()), "{}", admitted.emit());
    let chain3 = cfg("kind = \"chain\"\nn = 3");
    let small = c.call("admit", vec![("config".into(), Json::str(chain3.as_str()))]);
    assert_eq!(small.get("slice").and_then(Json::as_u64), Some(0), "{}", small.emit());
    let params = vec![("id".into(), Json::u64(0)), ("config".into(), Json::str(inflated))];
    let migrated = c.call("migrate", params);
    assert_eq!(outcome(&migrated), (false, named.to_string()), "{}", migrated.emit());
    let status = c.call("status", vec![]);
    assert_eq!(status.get("slices").and_then(Json::as_u64), Some(1), "{}", status.emit());
    stop(&socket);
    handle.join().unwrap().unwrap();
}
