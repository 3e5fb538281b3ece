//! The daemon engine: one admission queue, one owner of the cluster.
//!
//! Concurrency model — plain std, no async runtime:
//!
//! * an **acceptor** thread owns the `UnixListener` and spawns one reader
//!   thread per connection;
//! * each **reader** thread decodes newline-delimited requests
//!   ([`sdt_controller::wire`], the one place the wire format is written
//!   down) and forwards them — in arrival order — into one shared mpsc
//!   queue (even lines that do not decode enter the queue, as the `Err` of
//!   their decode, so a connection's replies always come back in request
//!   order);
//! * one **engine** thread owns the [`SliceController`], drains the
//!   queue, and is the only thing that ever touches slices, switches, or
//!   the snapshot file. No locks around the cluster — the queue *is* the
//!   serialization.
//!
//! Draining is where batching happens: after blocking on the first
//! request, the engine opportunistically grabs everything else already
//! queued, then slices the backlog into *runs* of consecutive lifecycle
//! operations (admit / migrate / destroy), each at most
//! [`DaemonOptions::batch_max`] long. A run becomes one
//! [`apply_batch`](sdt_tenancy::SliceManager::apply_batch) call, which
//! pays match-universe
//! construction and the static proof once per run instead of once per
//! request, while still returning a per-request named
//! [`AdmissionError`](sdt_tenancy::AdmissionError). `batch_max = 1` is
//! the honest one-at-a-time baseline: same code path, runs of length 1,
//! one snapshot write per mutation.
//!
//! Durability contract: after any group that mutated state, the snapshot
//! is rewritten ([`write_atomic`]: atomic, file and directory fsynced)
//! *before* the group's replies are flushed. If that write succeeds, a
//! client that has seen an `ok` knows the state that produced it survives
//! `kill -9` and power loss; if it fails, the error goes to stderr and the
//! replies still go out, durable only as far as the previous file.

use crate::engine::{engine_loop, EngineHost};
use crate::snapshot::{write_atomic, ClusterSpec, Snapshot};
use sdt_controller::commands::{self, Done};
use sdt_controller::slices::BatchItem;
use sdt_controller::wire::{Reply, Request};
use sdt_controller::{Json, SliceController, SliceOpError, TestbedConfig};
use sdt_tenancy::{OpOutcome, SliceId};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// How the daemon runs: where it listens, where it persists, how greedy
/// a batch may get.
#[derive(Clone, Debug)]
pub struct DaemonOptions {
    /// Unix-domain socket path to serve on (stale files are replaced).
    pub socket: PathBuf,
    /// Snapshot file; `None` runs without persistence: nothing survives a
    /// restart, and a `snapshot` request is refused.
    pub snapshot: Option<PathBuf>,
    /// Longest run of lifecycle ops coalesced into one
    /// [`SliceManager::apply_batch`](sdt_tenancy::SliceManager::apply_batch)
    /// call. `1` = sequential baseline.
    pub batch_max: usize,
}

/// Engine-side counters, served by the `metrics` method and returned by
/// [`run`] when the daemon shuts down.
#[derive(Clone, Copy, Default, Debug)]
pub struct DaemonMetrics {
    /// Requests answered (any method, including errors).
    pub requests: u64,
    /// `apply_batch` calls issued for runs of length ≥ 2.
    pub batches: u64,
    /// Lifecycle operations that rode in those runs.
    pub batched_ops: u64,
    /// Longest run coalesced.
    pub largest_batch: u64,
    /// Snapshot files written.
    pub snapshot_writes: u64,
    /// Queue drain cycles (each blocks once, then drains).
    pub drain_cycles: u64,
}

/// Everything the engine owns: the spec that rebuilds the cluster, the
/// live controller, and the per-slice config text needed to snapshot.
pub struct DaemonState {
    spec: ClusterSpec,
    ctl: SliceController,
    configs: BTreeMap<u32, String>,
}

impl DaemonState {
    /// A fresh daemon: wire the cluster from a config file's `[cluster]`
    /// section, no slices admitted.
    pub fn fresh(cfg_text: &str) -> Result<DaemonState, String> {
        let cfg = TestbedConfig::parse(cfg_text).map_err(|e| e.to_string())?;
        let spec = ClusterSpec::of_config(&cfg).map_err(|e| e.to_string())?;
        Ok(DaemonState {
            spec,
            ctl: SliceController::from_config(&cfg),
            configs: BTreeMap::new(),
        })
    }

    /// Recover a killed daemon from its snapshot file: decode, rebuild
    /// the cluster, re-admit the slices, re-derive the tables they install.
    pub fn from_snapshot_file(path: &Path) -> Result<DaemonState, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let snap = Snapshot::decode(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (mgr, configs) = snap.restore().map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(DaemonState {
            spec: snap.cluster.clone(),
            ctl: SliceController::from_manager(mgr, snap.require_deadlock_free),
            configs,
        })
    }

    /// The live controller: slices, switches and their counters, read-only.
    pub fn controller(&self) -> &SliceController {
        &self.ctl
    }

    /// Admitted slice count (startup reporting).
    pub fn slice_count(&self) -> usize {
        self.ctl.status().slices.len()
    }

    /// Re-prove the restored tables (startup reporting): `true` iff the
    /// full static pass holds.
    pub fn verify_holds(&mut self) -> bool {
        self.ctl.manager_mut().verify_report().holds()
    }

    /// Parse a request's config text. Its topology is built only if it
    /// fits this daemon's own cluster, whatever `[cluster]` the text
    /// declares.
    fn parse(&self, text: &str) -> Result<TestbedConfig, String> {
        let cluster = self.ctl.manager().cluster();
        let ports = u128::from(cluster.num_switches()) * u128::from(cluster.model().ports);
        TestbedConfig::parse_within(text, ports).map_err(|e| e.to_string())
    }
}

// ------------------------------------------------------------- protocol

/// Serialized write half of one connection, shared by every queued
/// request from it.
struct ConnWriter {
    stream: Mutex<UnixStream>,
}

impl ConnWriter {
    fn send_line(&self, line: &str) {
        // A panicking holder already failed its own thread loudly, and a
        // vanished client is its own problem; the engine keeps serving
        // either way.
        let mut guard = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = guard.write_all(line.as_bytes());
        let _ = guard.write_all(b"\n");
    }
}

/// One queued line: the id to answer under and the request it decoded to,
/// or why it is not one. A refused line keeps its queue slot so
/// per-connection reply order always matches request order.
struct WorkItem {
    writer: Arc<ConnWriter>,
    id: u64,
    req: Result<Request, String>,
}

// --------------------------------------------------------------- server

/// Live connections, tracked so shutdown can close them under their
/// parked reader threads. Without this a client that pipelined requests
/// and got every reply would hang forever waiting for EOF: its daemon-side
/// reader is parked in `read_line` and only notices the engine is gone on
/// the *next* request. Closing the socket is the wake-up.
#[derive(Default)]
struct ConnRegistry {
    conns: Mutex<ConnSet>,
}

#[derive(Default)]
struct ConnSet {
    /// Shutdown has happened; connections arriving late are closed on the
    /// spot instead of being tracked.
    closed: bool,
    next_token: u64,
    streams: Vec<(u64, UnixStream)>,
}

impl ConnRegistry {
    /// Track a connection for shutdown teardown. `None` if the daemon is
    /// already shutting down — the stream has then been closed already.
    fn track(&self, stream: &UnixStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut set = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        if set.closed {
            let _ = clone.shutdown(Shutdown::Both);
            return None;
        }
        set.next_token += 1;
        let token = set.next_token;
        set.streams.push((token, clone));
        Some(token)
    }

    /// Drop a finished connection so a long-lived daemon does not
    /// accumulate dead file descriptors.
    fn untrack(&self, token: u64) {
        let mut set = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = set.streams.iter().position(|(t, _)| *t == token) {
            set.streams.swap_remove(i);
        }
    }

    /// Close every live connection and refuse to track new ones. Called
    /// after the engine loop has returned, i.e. after every terminal
    /// reply (including shutdown rejections) has been written.
    fn close_all(&self) {
        let mut set = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        set.closed = true;
        for (_, stream) in set.streams.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// [`serve`], consuming the state: the daemon binary's entry point.
pub fn run(mut state: DaemonState, opts: DaemonOptions) -> Result<DaemonMetrics, String> {
    serve(&mut state, opts)
}

/// Serve until a `shutdown` request arrives. Binds the socket (replacing
/// a stale file), spawns the acceptor, and runs the engine loop on the
/// calling thread. Returns the final metrics; `state` is left as the last
/// request left it, for a caller that wants to inspect it afterwards.
pub fn serve(state: &mut DaemonState, opts: DaemonOptions) -> Result<DaemonMetrics, String> {
    if opts.batch_max == 0 {
        return Err("batch_max must be at least 1".into());
    }
    // A previous daemon that died uncleanly leaves its socket file behind;
    // binding over it needs the unlink first.
    let _ = std::fs::remove_file(&opts.socket);
    let listener = UnixListener::bind(&opts.socket)
        .map_err(|e| format!("bind {}: {e}", opts.socket.display()))?;
    let (tx, rx) = mpsc::channel::<WorkItem>();
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(ConnRegistry::default());

    let acceptor = {
        let stop = Arc::clone(&stop);
        let registry = Arc::clone(&registry);
        thread::spawn(move || accept_loop(listener, tx, stop, registry))
    };

    let mut engine = Engine {
        state,
        opts: opts.clone(),
        metrics: DaemonMetrics::default(),
        dirty: false,
    };
    engine_loop(&mut engine, &rx, opts.batch_max, DRAIN_CAP);
    let metrics = engine.metrics;
    drop(rx); // remaining readers see a closed channel and exit

    // Every terminal reply is on the wire (the engine loop wrote them all
    // before returning); now close the connections so parked readers and
    // pipelining clients waiting for EOF unblock, then wake the acceptor
    // out of `accept()` so it can observe the stop flag.
    stop.store(true, Ordering::SeqCst);
    registry.close_all();
    let _ = UnixStream::connect(&opts.socket);
    let _ = acceptor.join();
    let _ = std::fs::remove_file(&opts.socket);
    Ok(metrics)
}

fn accept_loop(
    listener: UnixListener,
    tx: Sender<WorkItem>,
    stop: Arc<AtomicBool>,
    registry: Arc<ConnRegistry>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let tx = tx.clone();
        let registry = Arc::clone(&registry);
        thread::spawn(move || conn_loop(stream, tx, registry));
    }
}

fn conn_loop(stream: UnixStream, tx: Sender<WorkItem>, registry: Arc<ConnRegistry>) {
    // `track` clones the stream for shutdown teardown; `None` means the
    // daemon is already closing and the socket was shut under us — the
    // read loop below then sees instant EOF, which is the point.
    let token = registry.track(&stream);
    serve_conn(stream, tx);
    if let Some(token) = token {
        registry.untrack(token);
    }
}

/// Longest request line accepted, in bytes. The largest legitimate request
/// is an `admit` carrying a config text, far below this.
const MAX_LINE_BYTES: usize = 1 << 20;

fn serve_conn(stream: UnixStream, tx: Sender<WorkItem>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter { stream: Mutex::new(stream) });
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from a full one.
        match (&mut reader).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        // What follows an over-long line's first bytes is not a request:
        // answer (in queue order, like any bad line) and close.
        let too_long = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
        let (id, req) = if too_long {
            (0, Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")))
        } else {
            let trimmed = line.strip_suffix(b"\n").unwrap_or(&line);
            if trimmed.is_empty() {
                continue;
            }
            Request::decode(trimmed)
        };
        if tx.send(WorkItem { writer: Arc::clone(&writer), id, req }).is_err() || too_long {
            return; // engine is gone (shutdown in progress), or the line was too long
        }
    }
}

// --------------------------------------------------------------- engine

/// Upper bound on how much backlog one drain cycle pulls off the queue.
/// Bounds reply latency under a flood without limiting batch formation
/// (it is far above any sensible `batch_max`).
const DRAIN_CAP: usize = 1024;

struct Engine<'a> {
    state: &'a mut DaemonState,
    opts: DaemonOptions,
    metrics: DaemonMetrics,
    /// State changed since the last snapshot write.
    dirty: bool,
}

/// The daemon side of the [`engine_loop`] contract: classification
/// delegates to the request parser, application to the slice controller,
/// durability to the snapshot writer, delivery to the per-connection
/// writers. The loop itself (drain, batch coalescing, persist-then-reply,
/// shutdown drain) lives in [`crate::engine`] where the model tests can
/// explore it under every schedule.
impl EngineHost for Engine<'_> {
    type Item = WorkItem;
    type Reply = Reply;

    /// Lifecycle operations coalesce into one `apply_batch` run.
    fn batchable(&self, item: &WorkItem) -> bool {
        matches!(
            item.req,
            Ok(Request::Admit { .. } | Request::Destroy { .. } | Request::Migrate { .. })
        )
    }

    fn is_shutdown(&self, item: &WorkItem) -> bool {
        matches!(item.req, Ok(Request::Shutdown))
    }

    fn apply_run(&mut self, run: &[WorkItem]) -> Vec<Reply> {
        self.lifecycle_group(run)
    }

    fn apply_one(&mut self, item: &WorkItem) -> Reply {
        self.one_request(item)
    }

    /// Snapshot first if anything mutated, so every `ok` a client sees is
    /// already durable.
    fn persist_if_dirty(&mut self) {
        if self.dirty {
            self.persist();
        }
    }

    fn deliver(&mut self, item: &WorkItem, reply: Reply) {
        item.writer.send_line(&reply.encode());
        self.metrics.requests += 1;
    }

    fn reject_undelivered(&mut self, item: WorkItem) {
        item.writer.send_line(&Reply::err(item.id, "daemon is shutting down").encode());
        self.metrics.requests += 1;
    }

    fn note_drain_cycle(&mut self) {
        self.metrics.drain_cycles += 1;
    }
}

impl Engine<'_> {
    fn persist(&mut self) {
        let Some(path) = self.opts.snapshot.clone() else {
            self.dirty = false;
            return;
        };
        match Snapshot::capture(
            &self.state.spec,
            self.state.ctl.require_deadlock_free(),
            self.state.ctl.manager(),
            &self.state.configs,
        ) {
            Ok(snap) => match write_atomic(&path, &snap.encode()) {
                Ok(()) => {
                    self.metrics.snapshot_writes += 1;
                    self.dirty = false;
                }
                Err(e) => eprintln!("sdtd: snapshot write failed: {e}"),
            },
            Err(e) => eprintln!("sdtd: snapshot capture failed: {e}"),
        }
    }

    /// Count a run of `ops` lifecycle operations handed to `apply_batch`
    /// together (a run of one is not a batch).
    fn note_batch(&mut self, ops: u64) {
        if ops >= 2 {
            self.metrics.batches += 1;
            self.metrics.batched_ops += ops;
            self.metrics.largest_batch = self.metrics.largest_batch.max(ops);
        }
    }

    /// One coalesced run of admit / migrate / destroy: parse each config,
    /// hand the run to [`SliceController::apply_batch`], and map its
    /// per-item results back onto the originating requests.
    fn lifecycle_group(&mut self, group: &[WorkItem]) -> Vec<Reply> {
        let parsed = |text: &str| self.state.parse(text);
        let items = group
            .iter()
            .map(|item| match &item.req {
                Ok(Request::Admit { name, config }) => parsed(config).map(|cfg| BatchItem::Admit {
                    name: if name.is_empty() { cfg.topology.name() } else { name }.to_string(),
                    topo: cfg.topology,
                    strategy: cfg.strategy,
                }),
                Ok(Request::Migrate { id, config }) => parsed(config).map(|cfg| {
                    BatchItem::Migrate { id: SliceId(*id), topo: cfg.topology, strategy: cfg.strategy }
                }),
                Ok(Request::Destroy { id }) => Ok(BatchItem::Destroy { id: SliceId(*id) }),
                _ => unreachable!("lifecycle_group only receives batchable requests"),
            })
            .collect();
        let (results, reached) = self.state.ctl.apply_batch(items);
        self.note_batch(reached as u64);
        group
            .iter()
            .zip(results)
            .map(|(item, result)| match result {
                Ok(outcome) => {
                    self.dirty = true;
                    self.record_outcome(item, &outcome);
                    Reply::ok(item.id).with(outcome_fields(&outcome))
                }
                // An admission refusal goes out in the manager's own words,
                // which clients match on: no `admission refused:` prefix.
                Err(SliceOpError::Admission(e)) => Reply::err(item.id, e.to_string()),
                Err(e) => Reply::err(item.id, e.to_string()),
            })
            .collect()
    }

    /// Keep the per-slice config map in step with a successful outcome —
    /// it is what the snapshot needs to rebuild topology and routes.
    fn record_outcome(&mut self, item: &WorkItem, outcome: &OpOutcome) {
        match (&item.req, outcome) {
            (Ok(Request::Admit { config, .. }), OpOutcome::Created(id)) => {
                self.state.configs.insert(id.0, config.clone());
            }
            (Ok(Request::Migrate { id, config }), OpOutcome::Reconfigured(_)) => {
                self.state.configs.insert(*id, config.clone());
            }
            (Ok(Request::Destroy { id }), OpOutcome::Destroyed(_)) => {
                self.state.configs.remove(id);
            }
            _ => {}
        }
    }

    fn one_request(&mut self, item: &WorkItem) -> Reply {
        let req = match &item.req {
            Ok(req) => req,
            Err(why) => return Reply::err(item.id, why.as_str()),
        };
        match req {
            Request::Ping | Request::Shutdown => Reply::ok(item.id),
            Request::Status => self.status_reply(item.id),
            Request::Metrics => self.metrics_reply(item.id),
            Request::Snapshot if self.opts.snapshot.is_none() => {
                Reply::err(item.id, "no snapshot file configured (start sdtd with --snapshot)")
            }
            Request::Snapshot => {
                self.dirty = true;
                self.persist();
                if self.dirty {
                    Reply::err(item.id, "snapshot write failed (see daemon log)")
                } else {
                    Reply::ok(item.id)
                }
            }
            Request::Verify { json, stats } => self.verify_reply(item.id, *json, *stats),
            Request::Slices { json, configs } => self.slices_reply(item.id, *json, configs),
            Request::Reconfigure { json, scheduled, from_path, from_text, to_text } => {
                self.reconfigure_reply(item.id, *json, *scheduled, from_path, from_text, to_text)
            }
            Request::Admit { .. } | Request::Destroy { .. } | Request::Migrate { .. } => {
                unreachable!("batchable requests go through lifecycle_group")
            }
        }
    }

    fn status_reply(&self, id: u64) -> Reply {
        let s = self.state.ctl.status();
        let mut out = String::new();
        for sl in &s.slices {
            out.push_str(&format!("{}  {}  ({})\n", sl.id, sl.name, sl.topology));
        }
        out.push_str(&format!(
            "{} slice(s); {}/{} host ports, {}/{} cables in use",
            s.slices.len(),
            s.host_ports_used,
            s.host_ports_total,
            s.cables_used,
            s.cables_total
        ));
        let r = Reply::ok(id).with([
            ("slices", Json::usize(s.slices.len())),
            ("host_ports_used", Json::usize(s.host_ports_used)),
            ("host_ports_total", Json::usize(s.host_ports_total)),
            ("cables_used", Json::usize(s.cables_used)),
            ("cables_total", Json::usize(s.cables_total)),
        ]);
        Reply { output: out, ..r }
    }

    fn metrics_reply(&self, id: u64) -> Reply {
        let m = &self.metrics;
        Reply::ok(id).with([
            ("requests", Json::u64(m.requests)),
            ("batches", Json::u64(m.batches)),
            ("batched_ops", Json::u64(m.batched_ops)),
            ("largest_batch", Json::u64(m.largest_batch)),
            ("snapshot_writes", Json::u64(m.snapshot_writes)),
            ("drain_cycles", Json::u64(m.drain_cycles)),
        ])
    }

    /// Fold a finished [`commands`] call into the daemon's bookkeeping and
    /// wrap it for the wire: every slice the command installed marks the
    /// state dirty and records the config text (`texts`, indexed like the
    /// command's configs) it now runs — what the snapshot rebuilds it from.
    fn command_reply(&mut self, id: u64, done: Done, texts: &[&str]) -> Reply {
        for &(i, sid) in &done.installed {
            self.dirty = true;
            self.state.configs.insert(sid.0, texts[i].to_string());
        }
        self.note_batch(done.batch_ops);
        Reply { output: done.output, error: done.error, ..Reply::ok(id) }
    }

    /// `sdtctl verify --daemon`: [`commands::verify`] over the daemon's
    /// live slices, nothing new admitted.
    fn verify_reply(&mut self, id: u64, json: bool, stats: bool) -> Reply {
        let done = commands::verify(&mut self.state.ctl, &[], json, stats);
        self.command_reply(id, done, &[])
    }

    /// `sdtctl slices --daemon`: [`commands::slices`] on the persistent
    /// cluster. A config text that does not parse keeps its row, rejected
    /// with the parse error.
    fn slices_reply(&mut self, id: u64, json: bool, items: &[(String, String)]) -> Reply {
        let configs: Vec<_> = items
            .iter()
            .map(|(path, text)| (path.clone(), self.state.parse(text)))
            .collect();
        let done = commands::slices(&mut self.state.ctl, &configs, json);
        let texts: Vec<&str> = items.iter().map(|(_, text)| text.as_str()).collect();
        self.command_reply(id, done, &texts)
    }

    /// `sdtctl reconfigure --daemon`: [`commands::reconfigure`] against
    /// persistent state — the slice named by the `from` config's topology
    /// is migrated, admitted first if absent.
    fn reconfigure_reply(
        &mut self,
        id: u64,
        json: bool,
        scheduled: Option<sdt_openflow::ControlConfig>,
        from_path: &str,
        from_text: &str,
        to_text: &str,
    ) -> Reply {
        let from = match self.state.parse(from_text) {
            Ok(c) => c,
            Err(e) => return Reply::err(id, format!("{from_path}: {e}")),
        };
        let to = match self.state.parse(to_text) {
            Ok(c) => c,
            Err(e) => return Reply::err(id, e),
        };
        let done =
            commands::reconfigure(&mut self.state.ctl, from_path, &from, &to, scheduled, json);
        let migrated = done.installed.iter().find(|&&(config, _)| config == 1).map(|&(_, sid)| sid);
        self.command_reply(id, done, &[from_text, to_text])
            .with(migrated.map(|sid| ("slice", Json::u64(sid.0.into()))))
    }
}

/// What a lifecycle reply carries beside `ok` (the `extras` column of the
/// wire table).
fn outcome_fields(outcome: &OpOutcome) -> Vec<(&'static str, Json)> {
    match outcome {
        OpOutcome::Created(id) => vec![("slice", Json::u64(id.0.into()))],
        OpOutcome::Reconfigured(report) => vec![("flow_mods", Json::usize(report.flow_mods()))],
        OpOutcome::Destroyed(r) => vec![
            ("host_ports", Json::usize(r.host_ports)),
            ("cables", Json::usize(r.cables)),
            ("flow_entries", Json::usize(r.flow_entries)),
        ],
    }
}
