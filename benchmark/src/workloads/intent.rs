//! `intent-*`: operator intents through a real `sdtd` over a Unix socket.
//!
//! Closed loop: every generator waits for the replies to what it sent
//! before sending more. `intent-batched` pipelines 16 independent tenants
//! per connection, so the engine can coalesce a stage's requests into one
//! `apply_batch` (one proof, one snapshot); `intent-serial` keeps a single
//! request in flight next to 16 resident slices, so every write pays its
//! own non-empty-delta proof and whole-state snapshot, and reads interleave
//! with writes.
//!
//! The traced run measures the same wire traffic for a while, then replays
//! the same seeded schedule *in process* through the public calls the
//! daemon makes (`Json::parse` → `TestbedConfig::parse` → routes →
//! `SliceManager` → `Snapshot` → `write_atomic` → reply emit) with a span
//! around each; wire round trip minus that sum is the daemon's queue and
//! socket time.

use crate::harness::{Ctx, Outcome};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use sdt::controller::{output, Json, SliceController, TestbedConfig};
use sdt::openflow::diff_tables;
use sdt::tenancy::{OpOutcome, SliceId, SliceOp};
use sdt::verify::{verify_threads, TableView, Verifier, WalkCache};
use sdt_sdtd::snapshot::write_atomic;
use sdt_sdtd::{run as serve, ClusterSpec, DaemonMetrics, DaemonOptions, DaemonState, Snapshot};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Batched,
    Serial,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Batched => "intent-batched",
            Mode::Serial => "intent-serial",
        }
    }
}

/// Sizes of one mode; `quick` shrinks them for smoke runs.
struct Shape {
    /// `[cluster]` section shared by the daemon and every slice config,
    /// sized so that every request of the schedule is admitted.
    cluster: &'static str,
    /// Batched: tenants per connection. Serial: resident slices.
    population: usize,
    /// Serial: write cycles per unit (batched units are one cycle).
    cycles: usize,
    /// Timed units one daemon serves before the next block starts a fresh
    /// one: about 2 s of requests in either mode (480 serial, 3 072
    /// batched).
    units_per_block: usize,
}

fn shape(mode: Mode, quick: bool) -> Shape {
    match mode {
        Mode::Batched => Shape {
            // Three switches for three-switch slices: the partitioner puts
            // every tenant's logical switch i on the same physical switch,
            // so each switch pair must carry one cable per tenant (plus one
            // for the migration in flight) and each switch one host each.
            cluster: "[cluster]\nswitches = 3\nmodel = \"openflow-128x100g\"\n\
                      hosts_per_switch = 36\ninter_links_per_pair = 46\n",
            population: if quick { 4 } else { 16 },
            cycles: 1,
            units_per_block: 32,
        },
        Mode::Serial => Shape {
            cluster: "[cluster]\nswitches = 4\nmodel = \"openflow-128x100g\"\n\
                      hosts_per_switch = 24\ninter_links_per_pair = 24\n",
            population: if quick { 4 } else { 16 },
            cycles: 2,
            units_per_block: 40,
        },
    }
}

/// A slice config: `topology` lines, the shared cluster, optional routing.
fn config(topology: &str, cluster: &str, strategy: Option<&str>) -> String {
    let routing = strategy.map_or(String::new(), |s| {
        format!("\n[routing]\nstrategy = \"{s}\"\n")
    });
    format!("[topology]\n{topology}\n\n{cluster}{routing}")
}

/// The resident mix of `intent-serial`: chain-4 / ring-5 / mesh-2x2.
fn resident(i: usize, cluster: &str) -> String {
    let topology = match i % 3 {
        0 => "kind = \"chain\"\nn = 4",
        1 => "kind = \"ring\"\nn = 5",
        _ => "kind = \"mesh\"\ndims = [2, 2]",
    };
    config(topology, cluster, (i % 3 == 1).then_some("updown"))
}

// ------------------------------------------------------------ schedules

/// One request of the serial schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    Admit,
    Migrate,
    Destroy,
    Verify,
    Status,
}

impl Step {
    fn is_write(self) -> bool {
        matches!(self, Step::Admit | Step::Migrate | Step::Destroy)
    }
}

/// `cycles` write cycles (admit → migrate → destroy of the extra slice),
/// each with as many reads as writes at seeded positions: half the requests
/// read, half write, and reads land beside every kind of write.
pub fn serial_schedule(rng: &mut Rng, cycles: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(cycles * 6);
    for _ in 0..cycles {
        let mut writes = [Step::Admit, Step::Migrate, Step::Destroy].into_iter();
        let mut slots = [true, true, true, false, false, false]; // true = write
        rng.shuffle(&mut slots);
        for is_write in slots {
            steps.push(match (is_write, rng.below(2)) {
                (true, _) => match writes.next() {
                    Some(w) => w,
                    None => unreachable!("three write slots, three writes"),
                },
                (false, 0) => Step::Verify,
                (false, _) => Step::Status,
            });
        }
    }
    steps
}

/// The order in which one connection pipelines its tenants in one stage.
pub fn tenant_order(rng: &mut Rng, tenants: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tenants).collect();
    rng.shuffle(&mut order);
    order
}

// --------------------------------------------------------------- daemon

/// An in-process `sdtd` serving on a socket in the scratch directory.
struct Daemon {
    socket: PathBuf,
    snapshot: PathBuf,
    thread: Option<JoinHandle<Result<DaemonMetrics, String>>>,
}

impl Daemon {
    fn start(dir: &Path, cluster: &str) -> Daemon {
        let socket = dir.join("sdtd.sock");
        let snapshot = dir.join("state.json");
        let _ = std::fs::remove_file(&snapshot);
        let state = match DaemonState::fresh(&config("kind = \"chain\"\nn = 3", cluster, None)) {
            Ok(s) => s,
            Err(e) => panic!("daemon state: {e}"),
        };
        let opts = DaemonOptions {
            socket: socket.clone(),
            snapshot: Some(snapshot.clone()),
            batch_max: 64,
        };
        let thread = std::thread::spawn(move || serve(state, opts));
        for _ in 0..2_000 {
            if UnixStream::connect(&socket).is_ok() {
                return Daemon {
                    socket,
                    snapshot,
                    thread: Some(thread),
                };
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("daemon socket {} never came up", socket.display());
    }

    fn connect(&self) -> Conn {
        let stream = match UnixStream::connect(&self.socket) {
            Ok(s) => s,
            Err(e) => panic!("connect {}: {e}", self.socket.display()),
        };
        let reader = match stream.try_clone() {
            Ok(r) => BufReader::new(r),
            Err(e) => panic!("clone stream: {e}"),
        };
        Conn {
            stream,
            reader,
            next_id: 1,
        }
    }

    /// Ask the daemon to shut down and wait for its thread.
    fn stop(&mut self) -> Option<DaemonMetrics> {
        let thread = self.thread.take()?;
        let _ = self.connect().call("shutdown", Vec::new());
        match thread.join() {
            Ok(Ok(m)) => Some(m),
            Ok(Err(e)) => panic!("daemon: {e}"),
            Err(_) => panic!("daemon thread panicked"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.stop();
        }
    }
}

struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
}

fn request_line(id: u64, method: &str, params: Vec<(String, Json)>) -> String {
    let mut line = Json::Obj(vec![
        ("id".into(), Json::u64(id)),
        ("method".into(), Json::str(method)),
        ("params".into(), Json::Obj(params)),
    ])
    .emit();
    line.push('\n');
    line
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

impl Conn {
    fn send(&mut self, method: &str, params: Vec<(String, Json)>) -> Instant {
        let line = request_line(self.next_id, method, params);
        self.next_id += 1;
        let sent = Instant::now();
        if let Err(e) = self.stream.write_all(line.as_bytes()) {
            panic!("daemon connection lost on write: {e}");
        }
        sent
    }

    /// The next reply; `None` for a missing or unparsable one.
    fn recv(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Json::parse(line.trim_end_matches('\n')).ok(),
            _ => None,
        }
    }

    /// One round trip: `(reply, rtt in ns)`.
    fn call(&mut self, method: &str, params: Vec<(String, Json)>) -> (Option<Json>, u64) {
        let sent = self.send(method, params);
        let reply = self.recv();
        (reply, sent.elapsed().as_nanos() as u64)
    }
}

fn p_config(text: &str) -> (String, Json) {
    ("config".into(), Json::str(text))
}

fn p_id(id: u64) -> (String, Json) {
    ("id".into(), Json::u64(id))
}

fn p_flag(key: &str) -> (String, Json) {
    (key.into(), Json::Bool(true))
}

// ---------------------------------------------------------------- load

/// Round trips of one unit, by request class.
#[derive(Default)]
struct Log {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    sent: u64,
    /// Replies missing or not `ok` — with a cluster sized to admit every
    /// request, each is a failure.
    bad: u64,
    first_bad: Option<String>,
}

impl Log {
    fn note(&mut self, write: bool, reply: &Option<Json>, rtt_ns: u64) -> bool {
        self.sent += 1;
        if write {
            &mut self.write_ns
        } else {
            &mut self.read_ns
        }
        .push(rtt_ns);
        let ok = reply.as_ref().is_some_and(is_ok);
        if !ok {
            self.bad += 1;
            self.first_bad.get_or_insert_with(|| match reply {
                Some(r) => r.emit(),
                None => "no reply".into(),
            });
        }
        ok
    }

    fn absorb(&mut self, other: Log) {
        self.write_ns.extend(other.write_ns);
        self.read_ns.extend(other.read_ns);
        self.sent += other.sent;
        self.bad += other.bad;
        if self.first_bad.is_none() {
            self.first_bad = other.first_bad;
        }
    }
}

fn admit_text(cluster: &str) -> String {
    config("kind = \"chain\"\nn = 3", cluster, None)
}

fn migrate_text(cluster: &str) -> String {
    config("kind = \"ring\"\nn = 3", cluster, Some("updown"))
}

/// One stage of a batched cycle: pipeline one request per tenant, then read
/// the replies in order. Returns each tenant's reply.
fn pipelined(
    conn: &mut Conn,
    log: &mut Log,
    order: &[usize],
    mut request: impl FnMut(usize) -> Option<(&'static str, Vec<(String, Json)>)>,
) -> Vec<(usize, Option<Json>)> {
    let sent: Vec<(usize, Instant)> = order
        .iter()
        .filter_map(|&t| request(t).map(|(method, params)| (t, conn.send(method, params))))
        .collect();
    sent.into_iter()
        .map(|(t, at)| {
            let reply = conn.recv();
            let ok = log.note(true, &reply, at.elapsed().as_nanos() as u64);
            (t, reply.filter(|_| ok))
        })
        .collect()
}

/// One connection's share of a batched cycle: admit → migrate → destroy
/// for each of its tenants, each stage pipelined. With `keep`, stop after
/// the admits (the final state the snapshot check runs on).
fn batched_cycle(conn: &mut Conn, rng: &mut Rng, tenants: usize, cluster: &str, keep: bool) -> Log {
    let mut log = Log::default();
    let (admit, migrate) = (admit_text(cluster), migrate_text(cluster));
    let order = tenant_order(rng, tenants);
    let mut ids = vec![None; tenants];
    for (t, reply) in pipelined(conn, &mut log, &order, |_| {
        Some(("admit", vec![p_config(&admit)]))
    }) {
        ids[t] = reply.and_then(|r| r.get("slice").and_then(Json::as_u64));
    }
    if keep {
        return log;
    }
    let order = tenant_order(rng, tenants);
    pipelined(conn, &mut log, &order, |t| {
        ids[t].map(|id| ("migrate", vec![p_id(id), p_config(&migrate)]))
    });
    let order = tenant_order(rng, tenants);
    pipelined(conn, &mut log, &order, |t| {
        ids[t].map(|id| ("destroy", vec![p_id(id)]))
    });
    log
}

/// The request `step` sends, given the extra slice's id; `None` for a
/// migrate/destroy whose admit failed (counted there; they cannot run).
fn step_request(
    step: Step,
    extra: Option<u64>,
    admit: &str,
    migrate: &str,
) -> Option<(&'static str, Vec<(String, Json)>)> {
    Some(match (step, extra) {
        (Step::Admit, _) => ("admit", vec![p_config(admit)]),
        (Step::Migrate, Some(id)) => ("migrate", vec![p_id(id), p_config(migrate)]),
        (Step::Destroy, Some(id)) => ("destroy", vec![p_id(id)]),
        (Step::Verify, _) => ("verify", vec![p_flag("json")]),
        (Step::Status, _) => ("status", Vec::new()),
        (Step::Migrate | Step::Destroy, None) => return None,
    })
}

/// The extra slice's id after `step` created `created` (if anything).
fn next_extra(step: Step, extra: Option<u64>, created: Option<u64>) -> Option<u64> {
    match step {
        Step::Admit => created,
        Step::Destroy => None,
        _ => extra,
    }
}

/// Run `steps` with one request in flight.
fn serial_steps(conn: &mut Conn, steps: &[Step], cluster: &str) -> Log {
    let mut log = Log::default();
    let (admit, migrate) = (admit_text(cluster), migrate_text(cluster));
    let mut extra: Option<u64> = None;
    for &step in steps {
        let Some((method, params)) = step_request(step, extra, &admit, &migrate) else {
            continue;
        };
        let (reply, rtt) = conn.call(method, params);
        let ok = log.note(step.is_write(), &reply, rtt);
        let created = reply
            .filter(|_| ok)
            .and_then(|r| r.get("slice").and_then(Json::as_u64));
        extra = next_extra(step, extra, created);
    }
    log
}

/// The live side of a run: daemon, connections, and the schedule's state.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    rngs: Vec<Rng>,
}

impl Live {
    /// Start the daemon, connect, preload, and run the warm-up unit.
    fn set_up(mode: Mode, ctx: &Ctx, shape: &Shape) -> (Live, Log) {
        let daemon = Daemon::start(&ctx.dir, shape.cluster);
        let width = match mode {
            Mode::Batched => ctx.generators(2),
            Mode::Serial => 1,
        };
        let conns: Vec<Conn> = (0..width).map(|_| daemon.connect()).collect();
        let rngs = (0..width)
            .map(|c| Rng::new(ctx.seed ^ (c as u64 + 1) << 32))
            .collect();
        let mut live = Live {
            daemon,
            conns,
            rngs,
        };
        let mut log = Log::default();
        if mode == Mode::Serial {
            for i in 0..shape.population {
                let (reply, rtt) =
                    live.conns[0].call("admit", vec![p_config(&resident(i, shape.cluster))]);
                log.note(true, &reply, rtt);
            }
        }
        log.absorb(live.unit(mode, shape, false).1);
        (live, log)
    }

    /// One timed unit: `(wall s, its round trips)`.
    fn unit(&mut self, mode: Mode, shape: &Shape, keep: bool) -> (f64, Log) {
        let t0 = Instant::now();
        let mut log = Log::default();
        match mode {
            Mode::Serial => {
                let steps = serial_schedule(&mut self.rngs[0], shape.cycles);
                log = serial_steps(&mut self.conns[0], &steps, shape.cluster);
            }
            Mode::Batched => {
                // Two connections of 16 share 32 tenants; one core gets one
                // connection carrying all of them.
                let tenants = shape.population * 2 / self.conns.len();
                let logs: Vec<Log> = std::thread::scope(|s| {
                    let workers: Vec<_> = self
                        .conns
                        .iter_mut()
                        .zip(self.rngs.iter_mut())
                        .map(|(conn, rng)| {
                            s.spawn(move || batched_cycle(conn, rng, tenants, shape.cluster, keep))
                        })
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| match w.join() {
                            Ok(l) => l,
                            Err(_) => panic!("a generator thread panicked"),
                        })
                        .collect()
                });
                for l in logs {
                    log.absorb(l);
                }
            }
        }
        (t0.elapsed().as_secs_f64(), log)
    }
}

// --------------------------------------------------------------- replay

/// The daemon's request handling, re-enacted with the public calls it
/// makes and a span around each.
struct Replay {
    spec: ClusterSpec,
    ctl: SliceController,
    configs: BTreeMap<u32, String>,
    snapshot: PathBuf,
    snapshot_bytes: usize,
    next_id: u64,
}

impl Replay {
    fn new(dir: &Path, cluster: &str) -> Replay {
        let cfg = match TestbedConfig::parse(&config("kind = \"chain\"\nn = 3", cluster, None)) {
            Ok(c) => c,
            Err(e) => panic!("cluster config: {e}"),
        };
        let spec = match ClusterSpec::of_config(&cfg) {
            Ok(s) => s,
            Err(e) => panic!("cluster spec: {e}"),
        };
        Replay {
            spec,
            ctl: SliceController::from_config(&cfg),
            configs: BTreeMap::new(),
            snapshot: dir.join("replay-state.json"),
            snapshot_bytes: 0,
            next_id: 1,
        }
    }

    fn line(&mut self, method: &str, params: Vec<(String, Json)>) -> String {
        self.next_id += 1;
        request_line(self.next_id, method, params)
    }

    /// Parse one request line and prepare its lifecycle op, as the daemon's
    /// reader and `prepare_op` do.
    fn prepare(&self, line: &str, tr: &mut Tracer) -> (Json, Option<(SliceOp, Option<String>)>) {
        let doc = match tr.span("controller.jsonv.parse", || Json::parse(line.trim_end())) {
            Ok(d) => d,
            Err(e) => panic!("replayed request does not parse: {e}"),
        };
        let params = doc.get("params");
        let text = params
            .and_then(|p| p.get("config"))
            .and_then(Json::as_str)
            .map(str::to_string);
        let id = params
            .and_then(|p| p.get("id"))
            .and_then(Json::as_u64)
            .map(|i| SliceId(i as u32));
        let routed = text.as_ref().map(|t| {
            let cfg = match tr.span("controller.config.parse", || TestbedConfig::parse(t)) {
                Ok(c) => c,
                Err(e) => panic!("replayed config does not parse: {e}"),
            };
            let routes = tr.span("routing.build", || {
                self.ctl.resolve_routes(&cfg.topology, &cfg.strategy)
            });
            match routes {
                Ok(r) => (cfg.topology, r),
                Err(e) => panic!("replayed routes: {e}"),
            }
        });
        let op = match (doc.get("method").and_then(Json::as_str), routed, id) {
            (Some("admit"), Some((topo, routes)), _) => Some(SliceOp::Create {
                name: topo.name().to_string(),
                topo,
                routes,
            }),
            (Some("migrate"), Some((topo, routes)), Some(id)) => {
                Some(SliceOp::Reconfigure { id, topo, routes })
            }
            (Some("destroy"), _, Some(id)) => Some(SliceOp::Destroy { id }),
            _ => None,
        };
        (doc, op.map(|op| (op, text)))
    }

    /// Keep the per-slice config map in step, as `record_outcome` does.
    fn record(&mut self, op_id: Option<SliceId>, text: Option<String>, outcome: &OpOutcome) {
        match (outcome, text, op_id) {
            (OpOutcome::Created(id), Some(t), _) => drop(self.configs.insert(id.0, t)),
            (OpOutcome::Reconfigured(_), Some(t), Some(id)) => drop(self.configs.insert(id.0, t)),
            (OpOutcome::Destroyed(_), _, Some(id)) => drop(self.configs.remove(&id.0)),
            _ => {}
        }
    }

    /// Snapshot before replying, as the engine's `persist` does.
    fn persist(&mut self, tr: &mut Tracer) {
        let text = tr.span("sdtd.snapshot.encode", || {
            match Snapshot::capture(&self.spec, true, self.ctl.manager(), &self.configs) {
                Ok(s) => s.encode(),
                Err(e) => panic!("snapshot capture: {e}"),
            }
        });
        self.snapshot_bytes = self.snapshot_bytes.max(text.len());
        if let Err(e) = tr.span("sdtd.snapshot.write", || {
            write_atomic(&self.snapshot, &text)
        }) {
            panic!("snapshot write: {e}");
        }
    }

    fn reply(id: &Json, extra: Vec<(String, Json)>, output: String, tr: &mut Tracer) -> String {
        tr.span("controller.jsonv.emit", || {
            let mut obj = vec![
                ("id".to_string(), id.clone()),
                ("ok".to_string(), Json::Bool(true)),
            ];
            obj.extend(extra);
            obj.push(("output".to_string(), Json::str(output)));
            Json::Obj(obj).emit()
        })
    }

    /// The admitted slice an op touches (`None` for a create).
    fn target(op: &SliceOp) -> Option<SliceId> {
        match op {
            SliceOp::Create { .. } => None,
            SliceOp::Reconfigure { id, .. } | SliceOp::Destroy { id } => Some(*id),
        }
    }

    fn created(outcome: &OpOutcome) -> Option<u64> {
        match outcome {
            OpOutcome::Created(id) => Some(id.0.into()),
            _ => None,
        }
    }

    fn slice_field(outcome: &OpOutcome) -> Vec<(String, Json)> {
        Self::created(outcome)
            .map(|id| ("slice".to_string(), Json::u64(id)))
            .into_iter()
            .collect()
    }

    /// One request alone (a run of length 1). Returns the created slice id.
    fn one(&mut self, line: &str, tr: &mut Tracer) -> Option<u64> {
        let whole = tr.enter("sdtd.request");
        let (doc, op) = self.prepare(line, tr);
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let mut created = None;
        match (op, doc.get("method").and_then(Json::as_str)) {
            (Some((op, text)), _) => {
                let op_id = Self::target(&op);
                let name = match &op {
                    SliceOp::Create { .. } => "tenancy.admit",
                    SliceOp::Reconfigure { .. } => "tenancy.migrate",
                    SliceOp::Destroy { .. } => "tenancy.destroy",
                };
                let outcome = match tr.span(name, || self.ctl.manager_mut().apply_one(op)) {
                    Ok(o) => o,
                    Err(e) => panic!("replayed {name} rejected: {e}"),
                };
                self.record(op_id, text, &outcome);
                self.persist(tr);
                created = Self::created(&outcome);
                Self::reply(&id, Self::slice_field(&outcome), String::new(), tr);
            }
            (None, Some("verify")) => {
                let report = tr.span("verify.report", || self.ctl.manager_mut().verify_report());
                let text = tr.span("controller.output.render", || {
                    output::verify_json("slices", &report, None)
                });
                Self::reply(&id, Vec::new(), text, tr);
            }
            (None, Some("status")) => {
                let text = tr.span("controller.output.render", || {
                    let s = self.ctl.status();
                    format!(
                        "{} slice(s); {}/{} host ports",
                        s.slices.len(),
                        s.host_ports_used,
                        s.host_ports_total
                    )
                });
                Self::reply(&id, Vec::new(), text, tr);
            }
            (None, other) => panic!("replay has no handler for {other:?}"),
        }
        tr.exit(whole);
        created
    }

    /// One coalesced run: one `apply_batch`, one snapshot. Returns created ids.
    fn batch(&mut self, lines: &[String], tr: &mut Tracer) -> Vec<Option<u64>> {
        let whole = tr.enter("sdtd.batch");
        let mut docs = Vec::new();
        let mut ops = Vec::new();
        let mut meta = Vec::new();
        for line in lines {
            let (doc, op) = self.prepare(line, tr);
            let Some((op, text)) = op else {
                panic!("batched replay carries lifecycle ops only")
            };
            meta.push((Self::target(&op), text));
            ops.push(op);
            docs.push(doc);
        }
        let results = tr.span("tenancy.batch", || self.ctl.manager_mut().apply_batch(ops));
        let mut created = Vec::new();
        let mut outcomes = Vec::new();
        for (result, (op_id, text)) in results.into_iter().zip(meta) {
            let outcome = match result {
                Ok(o) => o,
                Err(e) => panic!("replayed batch op rejected: {e}"),
            };
            created.push(Self::created(&outcome));
            self.record(op_id, text, &outcome);
            outcomes.push(outcome);
        }
        self.persist(tr);
        for (doc, outcome) in docs.iter().zip(&outcomes) {
            let id = doc.get("id").cloned().unwrap_or(Json::Null);
            Self::reply(&id, Self::slice_field(outcome), String::new(), tr);
        }
        tr.exit(whole);
        created
    }

    /// The replayed equivalent of one live unit; returns its wall time.
    fn unit(&mut self, mode: Mode, shape: &Shape, rng: &mut Rng, tr: &mut Tracer) -> f64 {
        let (admit, migrate) = (admit_text(shape.cluster), migrate_text(shape.cluster));
        let t0 = Instant::now();
        match mode {
            Mode::Serial => {
                let mut extra = None;
                for step in serial_schedule(rng, shape.cycles) {
                    let Some((method, params)) = step_request(step, extra, &admit, &migrate) else {
                        unreachable!("replayed admits succeed")
                    };
                    let line = self.line(method, params);
                    extra = next_extra(step, extra, self.one(&line, tr));
                }
            }
            Mode::Batched => {
                // One stage of one connection = one coalesced run.
                let n = shape.population;
                let admits: Vec<String> = tenant_order(rng, n)
                    .iter()
                    .map(|_| self.line("admit", vec![p_config(&admit)]))
                    .collect();
                let ids: Vec<u64> = self.batch(&admits, tr).into_iter().flatten().collect();
                let migrates: Vec<String> = tenant_order(rng, n)
                    .iter()
                    .map(|&t| self.line("migrate", vec![p_id(ids[t]), p_config(&migrate)]))
                    .collect();
                self.batch(&migrates, tr);
                let destroys: Vec<String> = tenant_order(rng, n)
                    .iter()
                    .map(|&t| self.line("destroy", vec![p_id(ids[t])]))
                    .collect();
                self.batch(&destroys, tr);
            }
        }
        t0.elapsed().as_secs_f64()
    }

    /// `verify.delta_ms` / `verify.empty_delta_us`: re-prove one admitted
    /// slice next to the residents, incrementally, against a warm cache.
    fn delta_probe(&mut self, cluster: &str, m: &mut Metrics) {
        let threads = verify_threads();
        let mut cache = WalkCache::new();
        let (before, base) = {
            let mgr = self.ctl.manager();
            let view = TableView::of_switches(mgr.switches());
            let base = Verifier::check_cached(
                mgr.cluster(),
                view.clone(),
                mgr.intent(),
                threads,
                &mut cache,
            );
            (view, base)
        };
        let t0 = Instant::now();
        let same = Verifier::check_delta_cached(
            &base,
            &[],
            self.ctl.manager().intent(),
            threads,
            &mut cache,
        );
        m.set("verify.empty_delta_us", t0.elapsed().as_secs_f64() * 1e6);
        assert!(same.holds(), "empty-delta re-proof fails");

        let cfg = match TestbedConfig::parse(&admit_text(cluster)) {
            Ok(c) => c,
            Err(e) => panic!("admit config: {e}"),
        };
        let sid = match self.ctl.create("delta-probe", &cfg.topology, &cfg.strategy) {
            Ok(id) => id,
            Err(e) => panic!("delta probe admission: {e}"),
        };
        let mgr = self.ctl.manager();
        let after = TableView::of_switches(mgr.switches());
        let mut mods = Vec::new();
        for sw in 0..after.num_switches() as u32 {
            for table in [1u8, 0u8] {
                for fm in diff_tables(before.entries(sw, table), after.entries(sw, table)) {
                    mods.push((sw, table, fm));
                }
            }
        }
        let t0 = Instant::now();
        let proof = Verifier::check_delta_cached(&base, &mods, mgr.intent(), threads, &mut cache);
        m.set("verify.delta_ms", t0.elapsed().as_secs_f64() * 1e3);
        assert!(proof.holds(), "delta proof of one admitted slice fails");
        if let Err(e) = self.ctl.destroy(sid) {
            panic!("delta probe teardown: {e}");
        }
    }
}

// ------------------------------------------------------------------ run

/// Final checks on the live daemon: every slice set still verifies, and the
/// snapshot restores to a manager whose proof renders byte-identically.
/// Returns the restore time in ms.
fn final_checks(live: &mut Live, errors: &mut Vec<String>) -> f64 {
    let conn = &mut live.conns[0];
    // A forced full pass first, so the cached report the plain `verify`
    // renders is a full one, like the restored manager's.
    let (full, _) = conn.call("verify", vec![p_flag("json"), p_flag("stats")]);
    let (shown, _) = conn.call("verify", vec![p_flag("json")]);
    let (snap, _) = conn.call("snapshot", Vec::new());
    for (what, reply) in [
        ("final verify", &full),
        ("final verify", &shown),
        ("snapshot", &snap),
    ] {
        if !reply.as_ref().is_some_and(is_ok) {
            errors.push(format!(
                "{what} failed: {:?}",
                reply.as_ref().map(Json::emit)
            ));
        }
    }
    let shown = shown.and_then(|r| r.get("output").and_then(Json::as_str).map(str::to_string));
    let t0 = Instant::now();
    let restored = std::fs::read_to_string(&live.daemon.snapshot)
        .map_err(|e| e.to_string())
        .and_then(|text| Snapshot::decode(&text).map_err(|e| e.to_string()))
        .and_then(|snap| snap.restore().map_err(|e| e.to_string()));
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    match restored {
        Ok((mut mgr, _)) => {
            let report = mgr.verify_report();
            let rendered = output::verify_json("slices", &report, None);
            if !report.holds() || Some(&rendered) != shown.as_ref() {
                errors.push(format!(
                    "restored snapshot verifies differently:\n  daemon:   {shown:?}\n  restored: {rendered}"
                ));
            }
        }
        Err(e) => errors.push(format!("snapshot does not restore: {e}")),
    }
    restore_ms
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(mode: Mode, ctx: &Ctx) -> Outcome {
    let shape = shape(mode, ctx.quick);
    // Every block's set-up and warm-up requests count as attempted too.
    let mut total = Log::default();
    let share = if ctx.trace { 0.5 } else { 1.0 };
    let blocks = ctx.blocks(
        share,
        shape.units_per_block,
        || {
            let (live, warm_log) = Live::set_up(mode, ctx, &shape);
            total.absorb(warm_log);
            live
        },
        |live, _| live.unit(mode, &shape, false),
    );
    let (mut live, setups, units) = (blocks.last, blocks.setups, blocks.units);

    // `sdtd.wire.ping_p50_us`: the floor of any round trip.
    let mut pings: Vec<u64> = if ctx.trace {
        (0..200)
            .map(|_| live.conns[0].call("ping", Vec::new()).1)
            .collect()
    } else {
        Vec::new()
    };

    let rates: Vec<f64> = units
        .iter()
        .map(|(wall, log)| (log.sent - log.bad) as f64 / wall)
        .collect();
    let walls: Vec<f64> = units.iter().map(|(wall, _)| *wall).collect();
    let mut timed = Log::default();
    for (_, log) in units {
        timed.absorb(log);
    }

    let mut errors = Vec::new();
    let (metrics_reply, _) = live.conns[0].call("metrics", Vec::new());
    if mode == Mode::Batched {
        // Leave every tenant admitted: the state the final checks examine.
        total.absorb(live.unit(mode, &shape, true).1);
    }
    let restore_ms = final_checks(&mut live, &mut errors);
    let daemon = live.daemon.stop();

    let mut m = ctx.new_metrics();
    let mut tr = Tracer::new(false);
    let write_p50 = stats::p50_ns(&mut timed.write_ns);
    if ctx.trace {
        // The replayed manager restarts as often as the daemon did, on the
        // schedule the daemon's first connection saw.
        let (replayed, traced) = ctx.paired_blocks(
            0.5,
            shape.units_per_block,
            &mut tr,
            || {
                let mut replay = Replay::new(&ctx.dir, shape.cluster);
                let off = &mut Tracer::new(false);
                if mode == Mode::Serial {
                    for i in 0..shape.population {
                        let line =
                            replay.line("admit", vec![p_config(&resident(i, shape.cluster))]);
                        replay.one(&line, off);
                    }
                }
                let mut rng = Rng::new(ctx.seed ^ 1 << 32);
                replay.unit(mode, &shape, &mut rng, off); // warm-up
                (replay, rng)
            },
            |(replay, rng), _, tr| replay.unit(mode, &shape, rng, tr),
        );
        let ((mut replay, _), plain) = (replayed.last, replayed.units);
        ctx.common_per_layer(&mut m, &plain, &traced);
        m.set_fast("unit_wall_s", &walls);
        m.set("units", (walls.len() + plain.len() + traced.len()) as f64);

        for (metric, span) in [
            ("controller.jsonv.parse_us", "controller.jsonv.parse"),
            ("controller.jsonv.emit_us", "controller.jsonv.emit"),
            ("controller.config.parse_us", "controller.config.parse"),
            ("controller.output.render_us", "controller.output.render"),
            ("sdtd.snapshot.encode_us", "sdtd.snapshot.encode"),
            ("sdtd.snapshot.write_us", "sdtd.snapshot.write"),
            ("tenancy.admit_us", "tenancy.admit"),
            ("tenancy.migrate_us", "tenancy.migrate"),
            ("tenancy.destroy_us", "tenancy.destroy"),
        ] {
            m.set(metric, tr.mean_self(span, 1e3));
        }
        m.set("routing.build_ms", tr.mean_self("routing.build", 1e6));
        m.set(
            "tenancy.batch_us_per_op",
            tr.mean_self("tenancy.batch", 1e3) / shape.population as f64,
        );
        m.set("sdtd.snapshot.bytes", replay.snapshot_bytes as f64);
        m.set("sdtd.snapshot.restore_ms", restore_ms);
        // Median in-process handling of one write (serial) or of the batch a
        // write rides in (batched), parse to reply. The rest of the median
        // wire round trip is the daemon's queue, socket and thread
        // hand-offs — and, when pipelined, the batches queued ahead.
        let mut handled: Vec<u64> = match mode {
            Mode::Serial => ["tenancy.admit", "tenancy.migrate", "tenancy.destroy"]
                .iter()
                .flat_map(|kind| tr.enclosing_ns(kind))
                .collect(),
            Mode::Batched => tr.durations_ns("sdtd.batch"),
        };
        let handled_us = stats::p50_ns(&mut handled) as f64 / 1e3;
        m.set("sdtd.wire.queue_us", write_p50 as f64 / 1e3 - handled_us);
        m.set(
            "sdtd.wire.ping_p50_us",
            stats::p50_ns(&mut pings) as f64 / 1e3,
        );
        let mut all_rtts: Vec<u64> = timed
            .write_ns
            .iter()
            .chain(&timed.read_ns)
            .copied()
            .collect();
        all_rtts.sort_unstable();
        if let Some((pct, ns)) = stats::tail(&all_rtts) {
            m.set("sdtd.wire.rtt_tail_ms", ms(ns));
            m.set("sdtd.wire.rtt_tail_pct", pct * 100.0);
        }
        m.set("sdtd.write_p50_ms", ms(write_p50));
        m.set("sdtd.read_p50_ms", ms(stats::p50_ns(&mut timed.read_ns)));
        m.set("sdtd.rejections", (total.bad + timed.bad) as f64);
        let count = |key: &str| {
            metrics_reply
                .as_ref()
                .and_then(|r| r.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        m.set("sdtd.batch.count", count("batches"));
        m.set("sdtd.batch.largest", count("largest_batch"));
        m.set(
            "sdtd.batch.mean_ops",
            count("batched_ops") / count("batches").max(1.0),
        );
        m.set(
            "sdtd.snapshot.writes",
            daemon.map_or(0.0, |d| d.snapshot_writes as f64),
        );
        if mode == Mode::Serial {
            replay.delta_probe(shape.cluster, &mut m);
        }
    } else {
        ctx.common_end_to_end(&mut m, &setups, &rates);
    }

    total.absorb(timed);
    if let Some(bad) = &total.first_bad {
        errors.push(format!(
            "{}: {} of {} replies not ok; first: {bad}",
            mode.name(),
            total.bad,
            total.sent
        ));
    }
    Outcome {
        attempted: total.sent,
        failed: total.bad,
        errors,
        metrics: m,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_different_seed_differs() {
        let plan = |seed| {
            let mut rng = Rng::new(seed);
            (serial_schedule(&mut rng, 20), tenant_order(&mut rng, 16))
        };
        assert_eq!(plan(2023), plan(2023));
        assert_ne!(plan(2023).0, plan(7).0);
        assert_ne!(plan(2023).1, plan(7).1);
    }

    #[test]
    fn serial_schedule_is_half_reads_and_keeps_write_order() {
        let steps = serial_schedule(&mut Rng::new(5), 50);
        assert_eq!(steps.len(), 300);
        assert_eq!(steps.iter().filter(|s| s.is_write()).count(), 150);
        let writes: Vec<Step> = steps.iter().copied().filter(|s| s.is_write()).collect();
        for cycle in writes.chunks(3) {
            assert_eq!(cycle, [Step::Admit, Step::Migrate, Step::Destroy]);
        }
        assert!(steps.contains(&Step::Verify) && steps.contains(&Step::Status));
    }

    #[test]
    fn request_lines_are_byte_identical_for_equal_inputs() {
        let line = |id| {
            request_line(
                id,
                "admit",
                vec![p_config(&admit_text("[cluster]\nswitches = 1\n"))],
            )
        };
        assert_eq!(line(3), line(3));
        assert!(line(3).ends_with("}\n") && line(3).contains("\"method\":\"admit\""));
        assert_ne!(line(3), line(4));
    }
}
