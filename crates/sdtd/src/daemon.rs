//! The daemon engine: one admission queue, one owner of the cluster.
//!
//! Concurrency model — plain std, no async runtime:
//!
//! * an **acceptor** thread owns the `UnixListener` and spawns one reader
//!   thread per connection;
//! * each **reader** thread parses newline-delimited JSON-RPC requests
//!   and forwards them — in arrival order — into one shared mpsc queue
//!   (even unparsable lines enter the queue, as `Request::Bad`, so a
//!   connection's replies always come back in request order);
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
//! is rewritten (atomically) *before* the group's replies are flushed. A
//! client that has seen an `ok` therefore knows the state that produced
//! it survives `kill -9`.

use crate::engine::{engine_loop, EngineHost};
use crate::snapshot::{write_atomic, ClusterSpec, Snapshot};
use sdt_controller::commands::{self, Done};
use sdt_controller::{Json, SliceController, TestbedConfig};
use sdt_sync::atomic::{AtomicBool, Ordering};
use sdt_sync::sync::mpsc::Sender;
use sdt_sync::sync::{Arc, Mutex};
use sdt_sync::thread;
use sdt_tenancy::{OpOutcome, SliceId, SliceOp};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// How the daemon runs: where it listens, where it persists, how greedy
/// a batch may get.
#[derive(Clone, Debug)]
pub struct DaemonOptions {
    /// Unix-domain socket path to serve on (stale files are replaced).
    pub socket: PathBuf,
    /// Snapshot file; `None` disables persistence (bench-only).
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
    require_deadlock_free: bool,
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
            require_deadlock_free: cfg.require_deadlock_free,
            ctl: SliceController::from_config(&cfg),
            configs: BTreeMap::new(),
        })
    }

    /// Recover a killed daemon from its snapshot file: decode, rebuild
    /// the cluster, re-install the live tables, re-admit the slices.
    pub fn from_snapshot_file(path: &Path) -> Result<DaemonState, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let snap = Snapshot::decode(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (mgr, configs) = snap.restore().map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(DaemonState {
            spec: snap.cluster.clone(),
            require_deadlock_free: snap.require_deadlock_free,
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
}

// ------------------------------------------------------------- protocol

/// One parsed request. `Bad` keeps its queue slot so per-connection reply
/// order always matches request order.
enum Request {
    Ping,
    Bad(String),
    Admit { name: String, text: String },
    Destroy { id: u32 },
    Migrate { id: u32, text: String },
    Slices { json: bool, items: Vec<(String, String)> },
    Reconfigure(Box<ReconfigureReq>),
    Verify { json: bool, stats: bool },
    Status,
    Metrics,
    SnapshotNow,
    Shutdown,
}

struct ReconfigureReq {
    json: bool,
    /// `Some` = scheduled, over a control channel of this profile.
    scheduled: Option<sdt_openflow::ControlConfig>,
    from_path: String,
    from_text: String,
    to_text: String,
}

impl Request {
    /// Lifecycle operations the engine may coalesce into one
    /// `apply_batch` run.
    fn batchable(&self) -> bool {
        matches!(
            self,
            Request::Admit { .. } | Request::Destroy { .. } | Request::Migrate { .. }
        )
    }
}

/// Serialized write half of one connection, shared by every queued
/// request from it.
struct ConnWriter {
    stream: Mutex<UnixStream>,
}

impl ConnWriter {
    fn send_line(&self, line: &str) {
        // The facade lock is poison-recovering; a vanished client is its
        // own problem; the engine keeps serving either way.
        let mut guard = self.stream.lock();
        let _ = guard.write_all(line.as_bytes());
        let _ = guard.write_all(b"\n");
    }
}

struct WorkItem {
    writer: Arc<ConnWriter>,
    id: u64,
    req: Request,
}

/// One reply, with optional method-specific extras ahead of the rendered
/// report.
struct Reply {
    id: u64,
    ok: bool,
    extra: Vec<(String, Json)>,
    output: String,
    error: Option<String>,
}

impl Reply {
    fn ok(id: u64) -> Reply {
        Reply { id, ok: true, extra: Vec::new(), output: String::new(), error: None }
    }

    fn err(id: u64, e: impl Into<String>) -> Reply {
        Reply { id, ok: false, extra: Vec::new(), output: String::new(), error: Some(e.into()) }
    }

    fn emit(&self) -> String {
        let mut obj = vec![
            ("id".to_string(), Json::u64(self.id)),
            ("ok".to_string(), Json::Bool(self.ok)),
        ];
        obj.extend(self.extra.iter().cloned());
        obj.push(("output".to_string(), Json::str(self.output.as_str())));
        if let Some(e) = &self.error {
            obj.push(("error".to_string(), Json::str(e.as_str())));
        }
        Json::Obj(obj).emit()
    }
}

fn pstr<'a>(p: &'a Json, key: &str) -> Option<&'a str> {
    p.get(key).and_then(Json::as_str)
}

fn parse_request(line: &str) -> (u64, Request) {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => return (0, Request::Bad(format!("bad request JSON: {e}"))),
    };
    let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
    let Some(method) = doc.get("method").and_then(Json::as_str) else {
        return (id, Request::Bad("request has no method".into()));
    };
    let empty = Json::Obj(Vec::new());
    let p = doc.get("params").unwrap_or(&empty);
    let json = p.get("json").and_then(Json::as_bool).unwrap_or(false);
    let req = match method {
        "ping" => Request::Ping,
        "status" => Request::Status,
        "metrics" => Request::Metrics,
        "snapshot" => Request::SnapshotNow,
        "shutdown" => Request::Shutdown,
        "verify" => Request::Verify {
            json,
            stats: p.get("stats").and_then(Json::as_bool).unwrap_or(false),
        },
        "admit" => match pstr(p, "config") {
            Some(text) => Request::Admit {
                name: pstr(p, "name").unwrap_or("").to_string(),
                text: text.to_string(),
            },
            None => Request::Bad("admit: missing `config`".into()),
        },
        "destroy" => match p.get("id").and_then(Json::as_u64) {
            Some(id) => Request::Destroy { id: id as u32 },
            None => Request::Bad("destroy: missing `id`".into()),
        },
        "migrate" => match (p.get("id").and_then(Json::as_u64), pstr(p, "config")) {
            (Some(id), Some(text)) => {
                Request::Migrate { id: id as u32, text: text.to_string() }
            }
            _ => Request::Bad("migrate: needs `id` and `config`".into()),
        },
        "slices" => {
            let mut items = Vec::new();
            for c in p.get("configs").and_then(Json::as_arr).unwrap_or(&[]) {
                match (pstr(c, "path"), pstr(c, "text")) {
                    (Some(path), Some(text)) => {
                        items.push((path.to_string(), text.to_string()))
                    }
                    _ => return (id, Request::Bad("slices: bad config entry".into())),
                }
            }
            if items.is_empty() {
                Request::Bad("slices: need at least one config".into())
            } else {
                Request::Slices { json, items }
            }
        }
        "reconfigure" => {
            match (pstr(p, "from_path"), pstr(p, "from_text"), pstr(p, "to_text")) {
                (Some(from_path), Some(from_text), Some(to_text)) => {
                    Request::Reconfigure(Box::new(ReconfigureReq {
                        json,
                        scheduled: p
                            .get("scheduled")
                            .and_then(Json::as_bool)
                            .unwrap_or(false)
                            .then(|| sdt_openflow::ControlConfig {
                                drop_prob: p.get("drop").and_then(Json::as_f64).unwrap_or(0.0),
                                reorder_prob: p
                                    .get("reorder")
                                    .and_then(Json::as_f64)
                                    .unwrap_or(0.0),
                                seed: p.get("seed").and_then(Json::as_u64).unwrap_or(0),
                                ..sdt_openflow::ControlConfig::reliable()
                            }),
                        from_path: from_path.to_string(),
                        from_text: from_text.to_string(),
                        to_text: to_text.to_string(),
                    }))
                }
                _ => Request::Bad("reconfigure: needs from/to config texts".into()),
            }
        }
        other => Request::Bad(format!("unknown method `{other}`")),
    };
    (id, req)
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
        let mut set = self.conns.lock();
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
        let mut set = self.conns.lock();
        if let Some(i) = set.streams.iter().position(|(t, _)| *t == token) {
            set.streams.swap_remove(i);
        }
    }

    /// Close every live connection and refuse to track new ones. Called
    /// after the engine loop has returned, i.e. after every terminal
    /// reply (including shutdown rejections) has been written.
    fn close_all(&self) {
        let mut set = self.conns.lock();
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
    let (tx, rx) = sdt_sync::sync::mpsc::channel::<WorkItem>();
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
            (0, Request::Bad(format!("request line exceeds {MAX_LINE_BYTES} bytes")))
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                return;
            };
            let trimmed = text.trim_end_matches('\n');
            if trimmed.is_empty() {
                continue;
            }
            parse_request(trimmed)
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

    fn batchable(&self, item: &WorkItem) -> bool {
        item.req.batchable()
    }

    fn is_shutdown(&self, item: &WorkItem) -> bool {
        matches!(item.req, Request::Shutdown)
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
        item.writer.send_line(&reply.emit());
        self.metrics.requests += 1;
    }

    fn reject_undelivered(&mut self, item: WorkItem) {
        item.writer.send_line(&Reply::err(item.id, "daemon is shutting down").emit());
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
            self.state.require_deadlock_free,
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

    /// One coalesced run of admit / migrate / destroy. Strategy resolution
    /// and the deadlock gate run per request up front (their rejections
    /// are batch-independent); what survives becomes one `apply_batch`
    /// call whose per-op results map back onto the originating requests.
    fn lifecycle_group(&mut self, group: &[WorkItem]) -> Vec<Reply> {
        let mut replies: Vec<Option<Reply>> = Vec::with_capacity(group.len());
        let mut ops: Vec<SliceOp> = Vec::new();
        let mut op_source: Vec<usize> = Vec::new();
        for (i, item) in group.iter().enumerate() {
            let prepared = self.prepare_op(&item.req);
            match prepared {
                Ok(op) => {
                    ops.push(op);
                    op_source.push(i);
                    replies.push(None);
                }
                Err(e) => replies.push(Some(Reply::err(item.id, e))),
            }
        }
        self.note_batch(ops.len() as u64);
        let results = self.state.ctl.manager_mut().apply_batch(ops);
        for (slot, result) in op_source.into_iter().zip(results) {
            let item = &group[slot];
            replies[slot] = Some(match result {
                Ok(outcome) => {
                    self.dirty = true;
                    self.record_outcome(&item.req, &outcome);
                    let mut r = Reply::ok(item.id);
                    r.extra = outcome_fields(&outcome);
                    r
                }
                Err(e) => Reply::err(item.id, e.to_string()),
            });
        }
        replies
            .into_iter()
            .map(|r| match r {
                Some(r) => r,
                None => unreachable!("every slot is filled by prepare or apply"),
            })
            .collect()
    }

    /// The admission-independent half of a lifecycle request: parse the
    /// config, resolve its strategy, run the deadlock gate.
    fn prepare_op(&self, req: &Request) -> Result<SliceOp, String> {
        match req {
            Request::Admit { name, text } => {
                let cfg = TestbedConfig::parse(text).map_err(|e| e.to_string())?;
                let routes = self
                    .state
                    .ctl
                    .resolve_routes(&cfg.topology, &cfg.strategy)
                    .map_err(|e| e.to_string())?;
                let name =
                    if name.is_empty() { cfg.topology.name().to_string() } else { name.clone() };
                Ok(SliceOp::Create { name, topo: cfg.topology, routes })
            }
            Request::Migrate { id, text } => {
                let cfg = TestbedConfig::parse(text).map_err(|e| e.to_string())?;
                let routes = self
                    .state
                    .ctl
                    .resolve_routes(&cfg.topology, &cfg.strategy)
                    .map_err(|e| e.to_string())?;
                Ok(SliceOp::Reconfigure { id: SliceId(*id), topo: cfg.topology, routes })
            }
            Request::Destroy { id } => Ok(SliceOp::Destroy { id: SliceId(*id) }),
            _ => unreachable!("lifecycle_group only receives batchable requests"),
        }
    }

    /// Keep the per-slice config map in step with a successful outcome —
    /// it is what the snapshot needs to rebuild topology and routes.
    fn record_outcome(&mut self, req: &Request, outcome: &OpOutcome) {
        match (req, outcome) {
            (Request::Admit { text, .. }, OpOutcome::Created(id)) => {
                self.state.configs.insert(id.0, text.clone());
            }
            (Request::Migrate { id, text }, OpOutcome::Reconfigured(_)) => {
                self.state.configs.insert(*id, text.clone());
            }
            (Request::Destroy { id }, OpOutcome::Destroyed(_)) => {
                self.state.configs.remove(id);
            }
            _ => {}
        }
    }

    fn one_request(&mut self, item: &WorkItem) -> Reply {
        match &item.req {
            Request::Ping => Reply::ok(item.id),
            Request::Bad(msg) => Reply::err(item.id, msg.clone()),
            Request::Shutdown => Reply::ok(item.id),
            Request::Status => self.status_reply(item.id),
            Request::Metrics => self.metrics_reply(item.id),
            Request::SnapshotNow => {
                self.dirty = true;
                self.persist();
                if self.dirty {
                    Reply::err(item.id, "snapshot write failed (see daemon log)")
                } else {
                    Reply::ok(item.id)
                }
            }
            Request::Verify { json, stats } => self.verify_reply(item.id, *json, *stats),
            Request::Slices { json, items } => self.slices_reply(item.id, *json, items),
            Request::Reconfigure(r) => self.reconfigure_reply(item.id, r),
            Request::Admit { .. } | Request::Destroy { .. } | Request::Migrate { .. } => {
                unreachable!("batchable requests go through lifecycle_group")
            }
        }
    }

    fn status_reply(&self, id: u64) -> Reply {
        let s = self.state.ctl.status();
        let mut r = Reply::ok(id);
        r.extra = vec![
            ("slices".to_string(), Json::u64(s.slices.len() as u64)),
            ("host_ports_used".to_string(), Json::u64(s.host_ports_used as u64)),
            ("host_ports_total".to_string(), Json::u64(s.host_ports_total as u64)),
            ("cables_used".to_string(), Json::u64(s.cables_used as u64)),
            ("cables_total".to_string(), Json::u64(s.cables_total as u64)),
        ];
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
        r.output = out;
        r
    }

    fn metrics_reply(&self, id: u64) -> Reply {
        let m = &self.metrics;
        let mut r = Reply::ok(id);
        r.extra = vec![
            ("requests".to_string(), Json::u64(m.requests)),
            ("batches".to_string(), Json::u64(m.batches)),
            ("batched_ops".to_string(), Json::u64(m.batched_ops)),
            ("largest_batch".to_string(), Json::u64(m.largest_batch)),
            ("snapshot_writes".to_string(), Json::u64(m.snapshot_writes)),
            ("drain_cycles".to_string(), Json::u64(m.drain_cycles)),
        ];
        r
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
        let mut r = match done.error {
            Some(e) => Reply::err(id, e),
            None => Reply::ok(id),
        };
        r.output = done.output;
        r
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
            .map(|(path, text)| {
                (path.clone(), TestbedConfig::parse(text).map_err(|e| e.to_string()))
            })
            .collect();
        let done = commands::slices(&mut self.state.ctl, &configs, json);
        let texts: Vec<&str> = items.iter().map(|(_, text)| text.as_str()).collect();
        self.command_reply(id, done, &texts)
    }

    /// `sdtctl reconfigure --daemon`: [`commands::reconfigure`] against
    /// persistent state — the slice named by the `from` config's topology
    /// is migrated, admitted first if absent.
    fn reconfigure_reply(&mut self, id: u64, req: &ReconfigureReq) -> Reply {
        let from = match TestbedConfig::parse(&req.from_text) {
            Ok(c) => c,
            Err(e) => return Reply::err(id, format!("{}: {e}", req.from_path)),
        };
        let to = match TestbedConfig::parse(&req.to_text) {
            Ok(c) => c,
            Err(e) => return Reply::err(id, e.to_string()),
        };
        let done = commands::reconfigure(
            &mut self.state.ctl,
            &req.from_path,
            &from,
            &to,
            req.scheduled,
            req.json,
        );
        let migrated = done.installed.iter().find(|&&(config, _)| config == 1).map(|&(_, sid)| sid);
        let mut r = self.command_reply(id, done, &[&req.from_text, &req.to_text]);
        if let Some(sid) = migrated {
            r.extra = vec![("slice".to_string(), Json::u64(sid.0.into()))];
        }
        r
    }
}

fn outcome_fields(outcome: &OpOutcome) -> Vec<(String, Json)> {
    match outcome {
        OpOutcome::Created(id) => vec![("slice".to_string(), Json::u64(id.0.into()))],
        OpOutcome::Reconfigured(report) => {
            vec![("flow_mods".to_string(), Json::u64(report.flow_mods() as u64))]
        }
        OpOutcome::Destroyed(r) => vec![
            ("host_ports".to_string(), Json::u64(r.host_ports as u64)),
            ("cables".to_string(), Json::u64(r.cables as u64)),
            ("flow_entries".to_string(), Json::u64(r.flow_entries as u64)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_maps_methods_and_bad_lines() {
        let (id, req) = parse_request(r#"{"id":7,"method":"ping","params":{}}"#);
        assert_eq!(id, 7);
        assert!(matches!(req, Request::Ping));

        let (_, req) = parse_request(r#"{"id":1,"method":"admit","params":{}}"#);
        assert!(matches!(req, Request::Bad(_)));

        let (id, req) = parse_request("not json at all");
        assert_eq!(id, 0);
        assert!(matches!(req, Request::Bad(_)));

        let (_, req) = parse_request(
            r#"{"id":2,"method":"migrate","params":{"id":3,"config":"x"}}"#,
        );
        match req {
            Request::Migrate { id, text } => {
                assert_eq!(id, 3);
                assert_eq!(text, "x");
            }
            _ => panic!("expected migrate"),
        }
    }

    #[test]
    fn reply_emit_shape() {
        let mut r = Reply::ok(5);
        r.extra = vec![("slice".to_string(), Json::u64(2))];
        r.output = "done".to_string();
        assert_eq!(r.emit(), r#"{"id":5,"ok":true,"slice":2,"output":"done"}"#);
        let e = Reply::err(6, "nope");
        assert_eq!(e.emit(), r#"{"id":6,"ok":false,"output":"","error":"nope"}"#);
    }
}
