//! `sdtctl` — command-line front end to the SDT controller.
//!
//! The operator workflow of Fig. 2: write a topology configuration file,
//! point the controller at it, get a deployed testbed (or a precise list of
//! cables to add).
//!
//! ```text
//! sdtctl check  <config.toml>...   validate configs against their clusters
//! sdtctl deploy <config.toml>      project + synthesize + prove, print report
//! sdtctl plan   <switches> <config.toml>...
//!                                  wiring plan covering a topology campaign
//! sdtctl tables <config.toml>      dump the synthesized flow tables
//! sdtctl slices <config.toml>...   admit every config as a slice of ONE
//!                                  shared cluster (first config wires it),
//!                                  print occupancy + the static proof of
//!                                  the shared tables (no packets injected)
//! sdtctl reconfigure [--scheduled] [--drop <p>] [--reorder <p>] [--seed <n>]
//!                    <from.toml> <to.toml>
//!                                  admit the first config as a slice, then
//!                                  migrate it to the second topology. With
//!                                  `--scheduled` the epoch is compiled into
//!                                  dependency-ordered rounds, each
//!                                  intermediate state statically proven
//!                                  before its round installs, over a
//!                                  control channel that drops/reorders
//!                                  flow-mods with the given probabilities
//!                                  (`--json` adds the per-round report).
//! sdtctl verify <config.toml>...   statically verify the installed flow
//!                                  tables (no packets injected): loops,
//!                                  blackholes, leaks, shadowed rules.
//!                                  One config = single deployment; many =
//!                                  slices of one cluster. `--corrupt
//!                                  loop|blackhole|leak|shadow` seeds a
//!                                  defect first to show it being caught.
//!                                  `--stats` adds verifier cost figures:
//!                                  header equivalence classes, symbolic
//!                                  walks and wall time.
//! ```
//!
//! With `--daemon <socket>`, `slices`, `reconfigure` and `verify` are
//! routed to a running `sdtd` instead of building a throwaway cluster:
//! the daemon admits/migrates/verifies against its persistent state and
//! ships back the finished report, which this client prints verbatim —
//! the output is byte-for-byte what local mode prints, because both run
//! the same `sdt_controller::commands` function: local mode on a fresh
//! controller wired from the first config, the daemon on its persistent
//! one.
//!
//! Every command accepts `--json` for machine-readable output on stdout;
//! any failure (non-deployable config, admission rejection, proof
//! violation) exits non-zero either way, so scripts and CI can gate on it.

use sdt_controller::commands::{self, ConfigItem};
use sdt_controller::output::{self, StatsBlock};
use sdt_controller::wire::{Reply, Request};
use sdt_controller::{
    plan_wiring, Deployment, Json, SdtController, SliceController, TestbedConfig,
};
use sdt_openflow::{Action, ControlConfig, FlowEntry, FlowMod};
use sdt_verify::{Intent, TableView, Verifier};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = {
        let before = args.len();
        args.retain(|a| a != "--json");
        args.len() != before
    };
    let daemon = {
        let mut sock = None;
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--daemon" {
                args.remove(i);
                if i < args.len() {
                    sock = Some(args.remove(i));
                } else {
                    eprintln!("sdtctl: --daemon needs a socket path");
                    return ExitCode::from(2);
                }
            } else {
                i += 1;
            }
        }
        sock
    };
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!(
                "usage: sdtctl [--json] [--daemon <socket>] \
                 <check|deploy|plan|tables|slices|reconfigure|verify> ..."
            );
            return ExitCode::from(2);
        }
    };
    let result = match (cmd, &daemon) {
        ("check", None) => cmd_check(rest, json),
        ("deploy", None) => cmd_deploy(rest, json),
        ("plan", None) => cmd_plan(rest),
        ("tables", None) => cmd_tables(rest),
        ("slices", None) => cmd_slices(rest, json),
        ("slices", Some(sock)) => daemon_slices(sock, rest, json),
        ("reconfigure", None) => cmd_reconfigure(rest, json),
        ("reconfigure", Some(sock)) => daemon_reconfigure(sock, rest, json),
        ("verify", None) => cmd_verify(rest, json),
        ("verify", Some(sock)) => daemon_verify(sock, rest, json),
        (other, Some(_)) => Err(format!("`{other}` does not support --daemon")),
        (other, None) => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sdtctl: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<TestbedConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TestbedConfig::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Read a config file and validate it locally, returning its text for the
/// wire — config errors surface on this side with the path named, before
/// anything reaches the daemon.
fn load_text(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TestbedConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(text)
}

// ---------------------------------------------------------------- daemon

/// One request/reply round trip over the daemon's Unix socket, ended the
/// way every shared command ends: the daemon's pre-rendered report printed
/// verbatim, its named error mapped onto this command's exit status.
fn daemon_call(socket: &str, req: &Request) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write as _};
    let mut stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to daemon at {socket}: {e}"))?;
    let mut line = req.encode(1);
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(|e| format!("daemon write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).map_err(|e| format!("daemon read: {e}"))?;
    if resp.is_empty() {
        return Err("daemon closed the connection".into());
    }
    let reply =
        Reply::decode(resp.trim_end_matches('\n')).map_err(|e| format!("daemon reply: {e}"))?;
    finish(&reply.output, reply.error)
}

/// How every shared command ends, local or daemon: the report (if any) on
/// stdout, the failure reason (if any) to `main` for stderr + non-zero exit.
fn finish(output: &str, error: Option<String>) -> Result<(), String> {
    if !output.is_empty() {
        println!("{output}");
    }
    error.map_or(Ok(()), Err)
}

fn daemon_slices(socket: &str, paths: &[String], json: bool) -> Result<(), String> {
    if paths.is_empty() {
        return Err("slices: need at least one config file".into());
    }
    let configs =
        paths.iter().map(|p| Ok((p.clone(), load_text(p)?))).collect::<Result<_, String>>()?;
    daemon_call(socket, &Request::Slices { json, configs })
}

fn daemon_verify(socket: &str, args: &[String], json: bool) -> Result<(), String> {
    let f = parse_verify_flags(args)?;
    if f.corrupt.is_some() {
        return Err("verify: --corrupt is local-only (it edits a throwaway \
                    deployment, not the daemon's live slices)"
            .into());
    }
    if let Some(other) = f.paths.first() {
        return Err(format!(
            "verify --daemon checks the daemon's live slices; unexpected `{other}`"
        ));
    }
    daemon_call(socket, &Request::Verify { json, stats: f.stats })
}

fn daemon_reconfigure(socket: &str, args: &[String], json: bool) -> Result<(), String> {
    let f = parse_reconfigure_flags(args)?;
    let [from_path, to_path] = f.paths.as_slice() else {
        return Err(RECONFIGURE_USAGE.into());
    };
    let req = Request::Reconfigure {
        json,
        scheduled: f.scheduled,
        from_path: from_path.clone(),
        from_text: load_text(from_path)?,
        to_text: load_text(to_path)?,
    };
    daemon_call(socket, &req)
}

// ----------------------------------------------------------------- local

fn cmd_check(paths: &[String], json: bool) -> Result<(), String> {
    if paths.is_empty() {
        return Err("check: need at least one config file".into());
    }
    let mut failed = false;
    let mut rows = Vec::new();
    for path in paths {
        let cfg = load(path)?;
        let ctl = SdtController::from_config(&cfg);
        let report = ctl.check(std::slice::from_ref(&cfg.topology));
        let verdict = &report.verdicts[0];
        failed |= verdict.is_err();
        if json {
            let mut row = vec![
                ("path", Json::str(path.as_str())),
                ("topology", Json::str(cfg.topology.name())),
                ("deployable", Json::Bool(verdict.is_ok())),
            ];
            row.extend(verdict.as_ref().err().map(|e| ("error", Json::str(e.to_string()))));
            rows.push(Json::obj(row));
        } else {
            match verdict {
                Ok(()) => println!("{path}: OK — {} deployable", cfg.topology.name()),
                Err(e) => println!("{path}: NOT deployable — {e}"),
            }
        }
    }
    if json {
        println!("{}", Json::Arr(rows).emit());
    }
    if failed {
        Err("some configurations are not deployable".into())
    } else {
        Ok(())
    }
}

fn cmd_deploy(paths: &[String], json: bool) -> Result<(), String> {
    let [path] = paths else { return Err("deploy: exactly one config file".into()) };
    let cfg = load(path)?;
    let mut ctl = SdtController::from_config(&cfg);
    let d = ctl.deploy_with(&cfg.topology, &cfg.strategy).map_err(|e| e.to_string())?;
    // The proof `deploy_with` gated on, rendered under the keys the probe
    // audit used to fill: proof totals equal probe totals.
    let v = ctl.verify_projection(&d.topology, &d.projection);
    let proof = v.report();
    let violations = proof.loops.len() + proof.blackholes.len() + proof.leaks.len();
    if json {
        let entries = &d.projection.synthesis.entries_per_switch;
        let report = Json::obj([
            ("topology", Json::str(cfg.topology.name())),
            ("strategy", Json::str(d.routes.strategy())),
            ("inter_switch_links", Json::usize(d.projection.inter_switch_links_used)),
            ("entries_per_switch", Json::Arr(entries.iter().map(|&n| Json::usize(n)).collect())),
            ("deploy_time_ms", Json::fixed(d.deploy_time_ns as f64 / 1e6, 3)),
            (
                "audit",
                Json::obj([
                    ("delivered", Json::usize(proof.delivered_pairs)),
                    ("isolated", Json::usize(proof.isolated_pairs)),
                    ("violations", Json::usize(violations)),
                    ("clean", Json::Bool(proof.holds())),
                ]),
            ),
        ]);
        println!("{}", report.emit());
    } else {
        println!("deployed {} on {} x {}", cfg.topology.name(), cfg.switches, cfg.model.name);
        println!("  routing strategy    : {}", d.routes.strategy());
        println!("  inter-switch links  : {}", d.projection.inter_switch_links_used);
        for (sw, n) in d.projection.synthesis.entries_per_switch.iter().enumerate() {
            println!("  switch {sw} entries    : {n}");
        }
        println!("  deploy time (model) : {:.0} ms", d.deploy_time_ns as f64 / 1e6);
        println!(
            "  dataplane audit     : {} delivered, {} isolated, {} violations",
            proof.delivered_pairs, proof.isolated_pairs, violations
        );
    }
    if !proof.holds() {
        return Err("audit found violations".into());
    }
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let (switches, paths) = match args.split_first() {
        Some((s, rest)) if !rest.is_empty() => {
            (s.parse::<u32>().map_err(|_| "plan: <switches> must be a number")?, rest)
        }
        _ => return Err("plan: usage: sdtctl plan <switches> <config>...".into()),
    };
    let mut topologies = Vec::new();
    let mut model = None;
    for path in paths {
        let cfg = load(path)?;
        model.get_or_insert(cfg.model);
        topologies.push(cfg.topology);
    }
    let model = match model {
        Some(m) => m,
        None => unreachable!("the usage check above requires at least one config"),
    };
    let plan = plan_wiring(&topologies, &model, switches)
        .map_err(|e| format!("no feasible wiring: {e}"))?;
    println!("wiring plan for {} topologies on {switches} x {}:", topologies.len(), model.name);
    println!("  host ports per switch      : {}", plan.hosts_per_switch);
    println!("  inter-switch links per pair: {}", plan.inter_links_per_pair);
    println!("  self-links on busiest switch: {}", plan.max_self_links);
    Ok(())
}

fn cmd_tables(paths: &[String]) -> Result<(), String> {
    let [path] = paths else { return Err("tables: exactly one config file".into()) };
    let cfg = load(path)?;
    let mut ctl = SdtController::from_config(&cfg);
    let d = ctl.deploy_with(&cfg.topology, &cfg.strategy).map_err(|e| e.to_string())?;
    for (sw, (t0, t1)) in d
        .projection
        .synthesis
        .table0
        .iter()
        .zip(&d.projection.synthesis.table1)
        .enumerate()
    {
        println!("=== physical switch {sw}: table 0 ({} entries) ===", t0.len());
        for e in t0 {
            println!("  {e:?}");
        }
        println!("=== physical switch {sw}: table 1 ({} entries) ===", t1.len());
        for e in t1 {
            println!("  {e:?}");
        }
    }
    Ok(())
}

/// Local mode's stand-in for the daemon's persistent state: load every
/// config up front (a bad file fails the command before anything runs) and
/// wire a fresh shared cluster from the first one's `[cluster]` section.
fn fresh(paths: &[String]) -> Result<(SliceController, Vec<ConfigItem>), String> {
    let cfgs = paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>()?;
    let ctl = SliceController::from_config(&cfgs[0]);
    Ok((ctl, paths.iter().cloned().zip(cfgs.into_iter().map(Ok)).collect()))
}

/// Admit every config file as one slice of a shared cluster
/// ([`commands::slices`]).
fn cmd_slices(paths: &[String], json: bool) -> Result<(), String> {
    if paths.is_empty() {
        return Err("slices: need at least one config file".into());
    }
    let (mut ctl, configs) = fresh(paths)?;
    let done = commands::slices(&mut ctl, &configs, json);
    finish(&done.output, done.error)
}

const RECONFIGURE_USAGE: &str = "reconfigure: usage: sdtctl reconfigure [--scheduled] \
                                 [--drop <p>] [--reorder <p>] [--seed <n>] <from.toml> <to.toml>";

struct ReconfigureFlags {
    /// `Some` with `--scheduled`: the loss profile of its control channel
    /// (`--drop` / `--reorder` / `--seed`), the same value local mode hands
    /// [`commands::reconfigure`] and daemon mode puts on the wire.
    scheduled: Option<ControlConfig>,
    paths: Vec<String>,
}

fn parse_reconfigure_flags(args: &[String]) -> Result<ReconfigureFlags, String> {
    let (mut scheduled, mut channel) = (false, ControlConfig::reliable());
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheduled" => scheduled = true,
            "--drop" => {
                channel.drop_prob = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("reconfigure: --drop needs a probability")?;
            }
            "--reorder" => {
                channel.reorder_prob = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("reconfigure: --reorder needs a probability")?;
            }
            "--seed" => {
                channel.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("reconfigure: --seed needs an integer")?;
            }
            _ => paths.push(a.clone()),
        }
    }
    Ok(ReconfigureFlags { scheduled: scheduled.then_some(channel), paths })
}

/// Admit the first config's topology as a slice of its own cluster, then
/// migrate it to the second config's topology ([`commands::reconfigure`]).
/// Plain mode uses the one-shot make-before-break epoch; `--scheduled`
/// compiles the epoch into dependency-ordered rounds with every
/// intermediate state statically proven before its round installs, over a
/// control channel whose loss and reordering probabilities come from
/// `--drop` / `--reorder` / `--seed`.
fn cmd_reconfigure(args: &[String], json: bool) -> Result<(), String> {
    let f = parse_reconfigure_flags(args)?;
    let [from_path, to_path] = f.paths.as_slice() else {
        return Err(RECONFIGURE_USAGE.into());
    };
    let from = load(from_path)?;
    let to = load(to_path)?;
    let mut ctl = SliceController::from_config(&from);
    let done = commands::reconfigure(&mut ctl, from_path, &from, &to, f.scheduled, json);
    finish(&done.output, done.error)
}

struct VerifyFlags {
    stats: bool,
    /// The defect class `--corrupt` names.
    corrupt: Option<String>,
    paths: Vec<String>,
}

fn parse_verify_flags(args: &[String]) -> Result<VerifyFlags, String> {
    let mut f = VerifyFlags { stats: false, corrupt: None, paths: Vec::new() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => f.stats = true,
            "--corrupt" => {
                let kind = it.next().ok_or("verify: --corrupt needs loop|blackhole|leak|shadow")?;
                f.corrupt = Some(kind.clone());
            }
            _ => f.paths.push(a.clone()),
        }
    }
    Ok(f)
}

/// Statically verify installed flow tables — no packets injected. One
/// config verifies a single deployment's live switches; several configs are
/// admitted as slices of one shared cluster and the cross-slice closure is
/// proven. `--corrupt <kind>` seeds a defect into the live tables first so
/// the catch can be demonstrated end to end.
fn cmd_verify(args: &[String], json: bool) -> Result<(), String> {
    let VerifyFlags { stats, corrupt: corrupt_kind, paths } = parse_verify_flags(args)?;
    match paths.as_slice() {
        [] => Err("verify: need at least one config file".into()),
        [path] => {
            let cfg = load(path)?;
            let mut ctl = SdtController::from_config(&cfg);
            let mut d =
                ctl.deploy_with(&cfg.topology, &cfg.strategy).map_err(|e| e.to_string())?;
            if let Some(kind) = &corrupt_kind {
                corrupt(&mut d, kind)?;
                if !json {
                    println!("seeded a `{kind}` defect into the live tables");
                }
            }
            let intent =
                || Intent::of_projection(&d.projection, &d.topology, d.topology.name());
            let t0 = std::time::Instant::now();
            let v =
                Verifier::check(ctl.cluster(), TableView::of_switches(&d.switches), intent());
            let wall_s = t0.elapsed().as_secs_f64();
            let block = if stats {
                // An empty-delta re-verify of the unchanged tables: what an
                // incremental recheck costs when the previous proof is kept.
                let t0 = std::time::Instant::now();
                let _ = Verifier::check_delta(&v, &[], intent());
                let warm_s = t0.elapsed().as_secs_f64();
                Some(StatsBlock { wall_s, warm_s: Some(warm_s), stats: v.stats().clone() })
            } else {
                None
            };
            let text = if json {
                output::verify_json(d.topology.name(), v.report(), block.as_ref())
            } else {
                output::verify_human(d.topology.name(), v.report(), block.as_ref())
            };
            println!("{text}");
            if v.holds() {
                Ok(())
            } else {
                Err("static verification failed".into())
            }
        }
        many => {
            if corrupt_kind.is_some() {
                return Err("verify: --corrupt works with exactly one config".into());
            }
            let (mut ctl, configs) = fresh(many)?;
            let done = commands::verify(&mut ctl, &configs, json, stats);
            finish(&done.output, done.error)
        }
    }
}

/// Seed one defect class into a deployment's live switches, behind the
/// controller's back — exactly what the verifier exists to catch.
fn corrupt(d: &mut Deployment, kind: &str) -> Result<(), String> {
    use sdt_openflow::FlowMatch;
    let oops = |e: sdt_openflow::TableError| format!("corrupt: {e}");
    match kind {
        "loop" => {
            // Bounce rules at both ends of the cable under the first logical
            // link (smallest id — the map's own order differs per process):
            // anything entering the cable port is reflected straight back out.
            let (_, &link) = d
                .projection
                .link_real
                .iter()
                .min_by_key(|(id, _)| **id)
                .ok_or("corrupt loop: deployment uses no cables")?;
            for (p, md) in [(link.a, 7001), (link.b, 7002)] {
                let sw = &mut d.switches[p.switch as usize];
                sw.apply(
                    0,
                    FlowMod::Add(FlowEntry {
                        m: FlowMatch::on_port(p.port),
                        priority: 99,
                        action: Action::WriteMetadataGoto(md),
                    }),
                )
                .map_err(oops)?;
                sw.apply(
                    1,
                    FlowMod::Add(FlowEntry {
                        m: FlowMatch::default().and_metadata(md),
                        priority: 99,
                        action: Action::Output(p.port),
                    }),
                )
                .map_err(oops)?;
            }
        }
        "blackhole" => {
            // Delete a route entry behind the controller's back: the pairs
            // that depended on it now die in a table miss.
            let e = *d.switches[0]
                .table(1)
                .entries()
                .first()
                .ok_or("corrupt blackhole: switch 0 table 1 is empty")?;
            d.switches[0].apply(1, FlowMod::Delete(e.m, e.priority)).map_err(oops)?;
        }
        "leak" => {
            // Route one host's traffic onto another host's port: the
            // misdelivery shows up as a leak naming this exact rule.
            let mut home: std::collections::HashMap<u32, sdt_topology::HostId> =
                std::collections::HashMap::new();
            let mut found = None;
            for h in (0..d.topology.num_hosts()).map(sdt_topology::HostId) {
                let p = d.projection.primary_host_port(&d.topology, h);
                if let Some(&victim) = home.get(&p.switch) {
                    found = Some((victim, p));
                    break;
                }
                home.insert(p.switch, h);
            }
            let (victim, wrong_port) =
                found.ok_or("corrupt leak: no two hosts share a switch")?;
            d.switches[wrong_port.switch as usize]
                .apply(
                    1,
                    FlowMod::Add(FlowEntry {
                        m: FlowMatch::to_dst(sdt_core::synthesis::addr_of(victim)),
                        priority: 99,
                        action: Action::Output(wrong_port.port),
                    }),
                )
                .map_err(oops)?;
        }
        "shadow" => {
            // A dead rule: same match as a live route entry, lower
            // priority. Harmless to forwarding, flagged as shadowed.
            let e = *d.switches[0]
                .table(1)
                .entries()
                .first()
                .ok_or("corrupt shadow: switch 0 table 1 is empty")?;
            d.switches[0]
                .apply(
                    1,
                    FlowMod::Add(FlowEntry {
                        m: e.m,
                        priority: e.priority.saturating_sub(1),
                        action: Action::Drop,
                    }),
                )
                .map_err(oops)?;
        }
        other => {
            return Err(format!("corrupt: unknown defect `{other}` (loop|blackhole|leak|shadow)"))
        }
    }
    Ok(())
}
