//! Versioned, byte-deterministic daemon snapshots.
//!
//! The snapshot is the daemon's crash-recovery story: after every mutating
//! batch the engine serializes its whole world — cluster spec, tenancy
//! bookkeeping, every slice, and the live flow tables — and atomically
//! replaces the state file *before* acknowledging the batch. A `kill -9`
//! at any instant therefore loses at most un-acknowledged work; restart
//! reloads the file and continues serving.
//!
//! What is stored, and why:
//!
//! * **cluster spec, not wiring** — the physical cluster is deterministic
//!   in its spec (model name, switch count, ports, cables), so the
//!   builder re-derives it.
//! * **per-slice config text** — topology generators and routing-strategy
//!   resolution are deterministic, so the slice's `Topology` and
//!   `RouteTable` are re-derived from the config that created (or last
//!   reconfigured) it. Custom topologies serialize through the config
//!   grammar's `kind = "custom"` edge list.
//! * **the projection, verbatim** — a slice's port/cable assignment
//!   depends on what was free *at admission time*, which depends on the
//!   full create/destroy history; it is NOT re-derivable from the configs
//!   alone. Same for the namespaced `installed` pipeline.
//! * **live table dumps, verbatim** — the flow tables are the ground
//!   truth the verifier proves things about. They are re-applied entry by
//!   entry on restore and re-proven once.
//!
//! Encoding uses [`Json`]'s deterministic emitter and the flow-entry text
//! codec from [`sdt_openflow::snap`]; map-typed projection fields are
//! key-sorted. Equal states therefore encode to equal bytes, giving the
//! tested property: snapshot → restore → re-snapshot is byte-identical.

use sdt_controller::controller::resolve_strategy;
use sdt_controller::config::wire_cluster;
use sdt_controller::{model_by_name, model_config_name, Json, TestbedConfig};
use sdt_core::cluster::{PhysLink, PhysLinkKind, PhysPort, PhysicalCluster};
use sdt_core::sdt::SdtProjection;
use sdt_core::synthesis::SynthesisOutput;
use sdt_openflow::{snap, FlowEntry, PortNo};
use sdt_routing::RouteTable;
use sdt_tenancy::{ManagerExport, Slice, SliceId, SliceManager};
use sdt_topology::{HostId, LinkId, SwitchId};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Current snapshot format version. Bump on any incompatible change; the
/// decoder refuses other versions by name instead of misreading them.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot failed to encode, decode, or restore.
#[derive(Clone, Debug)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn bad(msg: impl Into<String>) -> SnapshotError {
    SnapshotError(msg.into())
}

/// A field the checked [`Json`] readers refused, under its own words.
impl From<String> for SnapshotError {
    fn from(msg: String) -> Self {
        SnapshotError(msg)
    }
}

/// The physical cluster's deterministic description: enough to rebuild
/// the wiring with [`wire_cluster`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterSpec {
    /// Switch model, by its `[cluster] model` config name.
    pub model: String,
    /// Physical switch count.
    pub switches: u32,
    /// Host ports reserved per switch.
    pub hosts_per_switch: u16,
    /// Inter-switch cables per switch pair.
    pub inter_links_per_pair: u16,
}

impl ClusterSpec {
    /// The spec of a config file's `[cluster]` section.
    pub fn of_config(cfg: &TestbedConfig) -> Result<ClusterSpec, SnapshotError> {
        let model = model_config_name(&cfg.model)
            .ok_or_else(|| bad(format!("model `{}` has no config name", cfg.model.name)))?;
        Ok(ClusterSpec {
            model: model.to_string(),
            switches: cfg.switches,
            hosts_per_switch: cfg.hosts_per_switch,
            inter_links_per_pair: cfg.inter_links_per_pair,
        })
    }

    /// Rebuild the physical cluster this spec describes.
    pub fn build(&self) -> Result<PhysicalCluster, SnapshotError> {
        let model = model_by_name(&self.model)
            .ok_or_else(|| bad(format!("unknown switch model `{}`", self.model)))?;
        Ok(wire_cluster(model, self.switches, self.hosts_per_switch, self.inter_links_per_pair))
    }
}

/// One slice as persisted: identity, the config text that (re)creates its
/// topology and routing, its namespace reservation, and the two
/// admission-history-dependent artifacts stored verbatim.
#[derive(Clone, Debug)]
pub struct SliceSnap {
    /// Slice id.
    pub id: u32,
    /// Operator-facing name.
    pub name: String,
    /// Config text of the creating (or last reconfiguring) request.
    pub config: String,
    /// First metadata value of the slice's namespace.
    pub metadata_base: u32,
    /// Reserved metadata values.
    pub metadata_reserved: u32,
    /// First host address of the slice's namespace.
    pub addr_base: u32,
    /// Reserved host addresses.
    pub addr_reserved: u32,
    /// Epochs applied (1 = initial install).
    pub epochs: u32,
    /// Projection onto the shared cluster, verbatim.
    pub projection: SdtProjection,
    /// Namespaced pipeline as installed, verbatim.
    pub installed: SynthesisOutput,
}

/// A complete daemon state dump.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Cluster wiring description.
    pub cluster: ClusterSpec,
    /// Whether the deadlock gate vetoes cyclic-CDG routing.
    pub require_deadlock_free: bool,
    /// Next slice id.
    pub next_id: u32,
    /// Next free metadata namespace base.
    pub next_metadata: u32,
    /// Next free host-address namespace base.
    pub next_addr: u32,
    /// Admitted slices, in id order.
    pub slices: Vec<SliceSnap>,
    /// Per physical switch: live `(table 0, table 1)` dumps in first-match
    /// order.
    pub tables: Vec<(Vec<FlowEntry>, Vec<FlowEntry>)>,
}

impl Snapshot {
    /// Capture the daemon's current state. `configs` maps slice id to the
    /// config text that created / last reconfigured it.
    pub fn capture(
        spec: &ClusterSpec,
        require_deadlock_free: bool,
        mgr: &SliceManager,
        configs: &BTreeMap<u32, String>,
    ) -> Result<Snapshot, SnapshotError> {
        let ex = mgr.export();
        let mut slices = Vec::new();
        for s in ex.slices {
            let config = configs
                .get(&s.id.0)
                .ok_or_else(|| bad(format!("no config text recorded for {}", s.id)))?
                .clone();
            slices.push(SliceSnap {
                id: s.id.0,
                name: s.name,
                config,
                metadata_base: s.metadata_base,
                metadata_reserved: s.metadata_reserved,
                addr_base: s.addr_base,
                addr_reserved: s.addr_reserved,
                epochs: s.epochs,
                projection: s.projection,
                installed: s.installed,
            });
        }
        Ok(Snapshot {
            version: SNAPSHOT_VERSION,
            cluster: spec.clone(),
            require_deadlock_free,
            next_id: ex.next_id,
            next_metadata: ex.next_metadata,
            next_addr: ex.next_addr,
            slices,
            tables: ex.tables,
        })
    }

    /// Rebuild a live manager (and the per-slice config map) from this
    /// snapshot. All-or-nothing: any inconsistency — unknown model,
    /// unparsable config, table dumps that do not match the slices'
    /// accounting — rejects the whole restore with the reason named.
    pub fn restore(&self) -> Result<(SliceManager, BTreeMap<u32, String>), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "version {} (this build reads {SNAPSHOT_VERSION})",
                self.version
            )));
        }
        let cluster = self.cluster.build()?;
        let mut slices = Vec::new();
        let mut configs = BTreeMap::new();
        for s in &self.slices {
            let cfg = TestbedConfig::parse(&s.config)
                .map_err(|e| bad(format!("slice {}: config: {e}", s.id)))?;
            let strategy = resolve_strategy(&cfg.strategy, &cfg.topology)
                .map_err(|e| bad(format!("slice {}: {e}", s.id)))?;
            let routes = RouteTable::build_for_hosts(&cfg.topology, strategy.as_ref());
            configs.insert(s.id, s.config.clone());
            slices.push(Slice {
                id: SliceId(s.id),
                name: s.name.clone(),
                topology: cfg.topology,
                routes,
                projection: s.projection.clone(),
                metadata_base: s.metadata_base,
                metadata_reserved: s.metadata_reserved,
                addr_base: s.addr_base,
                addr_reserved: s.addr_reserved,
                installed: s.installed.clone(),
                epochs: s.epochs,
            });
        }
        let export = ManagerExport {
            slices,
            next_id: self.next_id,
            next_metadata: self.next_metadata,
            next_addr: self.next_addr,
            tables: self.tables.clone(),
        };
        let mgr = SliceManager::restore(cluster, export).map_err(|e| bad(e.to_string()))?;
        Ok((mgr, configs))
    }

    /// Serialize to the on-disk JSON form. Deterministic: equal snapshots
    /// emit equal bytes.
    pub fn encode(&self) -> String {
        let slices = Json::Arr(self.slices.iter().map(slice_json).collect());
        let tables = Json::Arr(
            self.tables
                .iter()
                .map(|(t0, t1)| {
                    Json::Obj(vec![
                        ("t0".into(), entries_json(t0)),
                        ("t1".into(), entries_json(t1)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("version".into(), Json::u64(self.version)),
            (
                "cluster".into(),
                Json::Obj(vec![
                    ("model".into(), Json::str(self.cluster.model.as_str())),
                    ("switches".into(), Json::u64(self.cluster.switches.into())),
                    (
                        "hosts_per_switch".into(),
                        Json::u64(self.cluster.hosts_per_switch.into()),
                    ),
                    (
                        "inter_links_per_pair".into(),
                        Json::u64(self.cluster.inter_links_per_pair.into()),
                    ),
                ]),
            ),
            ("require_deadlock_free".into(), Json::Bool(self.require_deadlock_free)),
            ("next_id".into(), Json::u64(self.next_id.into())),
            ("next_metadata".into(), Json::u64(self.next_metadata.into())),
            ("next_addr".into(), Json::u64(self.next_addr.into())),
            ("slices".into(), slices),
            ("tables".into(), tables),
        ])
        .emit()
    }

    /// Parse the on-disk form.
    pub fn decode(text: &str) -> Result<Snapshot, SnapshotError> {
        let doc = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let version = doc.member("version")?.want_u64("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let c = doc.member("cluster")?;
        let cluster = ClusterSpec {
            model: c.member("model")?.want_str("cluster.model")?.to_string(),
            switches: c.member("switches")?.want_u32("cluster.switches")?,
            hosts_per_switch: c.member("hosts_per_switch")?.want_u16("hosts_per_switch")?,
            inter_links_per_pair: c
                .member("inter_links_per_pair")?
                .want_u16("inter_links_per_pair")?,
        };
        let require_deadlock_free =
            doc.member("require_deadlock_free")?.want_bool("require_deadlock_free")?;
        let slices = doc
            .member("slices")?
            .want_arr("slices")?
            .iter()
            .map(slice_from)
            .collect::<Result<Vec<_>, _>>()?;
        let tables = doc
            .member("tables")?
            .want_arr("tables")?
            .iter()
            .map(|t| {
                Ok((
                    entries_from(t.member("t0")?, "tables.t0")?,
                    entries_from(t.member("t1")?, "tables.t1")?,
                ))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Ok(Snapshot {
            version,
            cluster,
            require_deadlock_free,
            next_id: doc.member("next_id")?.want_u32("next_id")?,
            next_metadata: doc.member("next_metadata")?.want_u32("next_metadata")?,
            next_addr: doc.member("next_addr")?.want_u32("next_addr")?,
            slices,
            tables,
        })
    }
}

/// Atomically replace `path` with `text`: write a sibling tmp file, sync
/// it, rename over the target. A crash mid-write leaves the old snapshot
/// intact; rename is atomic on POSIX filesystems.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot")
    ));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}

// -------------------------------------------------------- JSON helpers

fn u32s_json(ns: impl IntoIterator<Item = u32>) -> Json {
    Json::Arr(ns.into_iter().map(|n| Json::u64(n.into())).collect())
}

fn u32s_from(j: &Json, what: &str) -> Result<Vec<u32>, SnapshotError> {
    Ok(j.want_arr(what)?.iter().map(|n| n.want_u32(what)).collect::<Result<_, _>>()?)
}

fn port_json(p: PhysPort) -> Json {
    Json::Arr(vec![Json::u64(p.switch.into()), Json::u64(p.port.0.into())])
}

fn port_from(j: &Json, what: &str) -> Result<PhysPort, SnapshotError> {
    let a = j.want_arr(what)?;
    let [sw, port] = a else {
        return Err(bad(format!("{what}: expected [switch, port]")));
    };
    Ok(PhysPort {
        switch: sw.want_u32(what)?,
        port: PortNo(port.want_u16(what)?),
    })
}

fn entries_json(entries: &[FlowEntry]) -> Json {
    Json::Arr(snap::encode_entries(entries).into_iter().map(Json::Str).collect())
}

fn entries_from(j: &Json, what: &str) -> Result<Vec<FlowEntry>, SnapshotError> {
    j.want_arr(what)?
        .iter()
        .map(|l| {
            snap::decode_entry(l.want_str(what)?).map_err(|e| bad(format!("{what}: {e}")))
        })
        .collect()
}

fn synth_json(s: &SynthesisOutput) -> Json {
    let tab = |t: &Vec<Vec<FlowEntry>>| Json::Arr(t.iter().map(|e| entries_json(e)).collect());
    Json::Obj(vec![
        ("t0".into(), tab(&s.table0)),
        ("t1".into(), tab(&s.table1)),
        (
            "n".into(),
            Json::Arr(s.entries_per_switch.iter().map(|&n| Json::u64(n as u64)).collect()),
        ),
    ])
}

fn synth_from(j: &Json, what: &str) -> Result<SynthesisOutput, SnapshotError> {
    let tab = |m: &Json| -> Result<Vec<Vec<FlowEntry>>, SnapshotError> {
        m.want_arr(what)?.iter().map(|t| entries_from(t, what)).collect()
    };
    Ok(SynthesisOutput {
        table0: tab(j.member("t0")?)?,
        table1: tab(j.member("t1")?)?,
        entries_per_switch: j
            .member("n")?
            .want_arr(what)?
            .iter()
            .map(|n| n.want_usize(what))
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn projection_json(p: &SdtProjection) -> Json {
    let mut links: Vec<(&LinkId, &PhysLink)> = p.link_real.iter().collect();
    links.sort_by_key(|(lid, _)| lid.0);
    let link_real = Json::Arr(
        links
            .into_iter()
            .map(|(lid, l)| {
                Json::Arr(vec![
                    Json::u64(lid.0.into()),
                    Json::str(match l.kind {
                        PhysLinkKind::SelfLink => "self",
                        PhysLinkKind::InterSwitch => "inter",
                    }),
                    port_json(l.a),
                    port_json(l.b),
                ])
            })
            .collect(),
    );
    let mut ports: Vec<(&(SwitchId, LinkId), &PhysPort)> = p.port_of.iter().collect();
    ports.sort_by_key(|((s, l), _)| (s.0, l.0));
    let port_of = Json::Arr(
        ports
            .into_iter()
            .map(|((s, l), pp)| {
                Json::Arr(vec![Json::u64(s.0.into()), Json::u64(l.0.into()), port_json(*pp)])
            })
            .collect(),
    );
    let mut hosts: Vec<(&(HostId, LinkId), &PhysPort)> = p.host_port.iter().collect();
    hosts.sort_by_key(|((h, l), _)| (h.0, l.0));
    let host_port = Json::Arr(
        hosts
            .into_iter()
            .map(|((h, l), pp)| {
                Json::Arr(vec![Json::u64(h.0.into()), Json::u64(l.0.into()), port_json(*pp)])
            })
            .collect(),
    );
    let subswitches = Json::Arr(
        p.subswitches
            .iter()
            .map(|per_switch| {
                Json::Arr(
                    per_switch
                        .iter()
                        .map(|(sid, ports)| {
                            Json::Arr(vec![
                                Json::u64(sid.0.into()),
                                Json::Arr(ports.iter().map(|&pp| port_json(pp)).collect()),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    Json::Obj(vec![
        ("assignment".into(), u32s_json(p.assignment.iter().copied())),
        ("link_real".into(), link_real),
        ("port_of".into(), port_of),
        ("host_port".into(), host_port),
        ("subswitches".into(), subswitches),
        ("synthesis".into(), synth_json(&p.synthesis)),
        ("inter".into(), Json::u64(p.inter_switch_links_used as u64)),
    ])
}

fn projection_from(j: &Json) -> Result<SdtProjection, SnapshotError> {
    let assignment = u32s_from(j.member("assignment")?, "assignment")?;
    let mut link_real = std::collections::HashMap::new();
    for row in j.member("link_real")?.want_arr("link_real")? {
        let r = row.want_arr("link_real row")?;
        let [lid, kind, a, b] = r else {
            return Err(bad("link_real row: expected [link, kind, a, b]"));
        };
        let kind = match kind.want_str("link kind")? {
            "self" => PhysLinkKind::SelfLink,
            "inter" => PhysLinkKind::InterSwitch,
            other => return Err(bad(format!("unknown link kind `{other}`"))),
        };
        link_real.insert(
            LinkId(lid.want_u32("link id")?),
            PhysLink { kind, a: port_from(a, "link end a")?, b: port_from(b, "link end b")? },
        );
    }
    let mut port_of = std::collections::HashMap::new();
    for row in j.member("port_of")?.want_arr("port_of")? {
        let r = row.want_arr("port_of row")?;
        let [s, l, pp] = r else {
            return Err(bad("port_of row: expected [switch, link, port]"));
        };
        port_of.insert(
            (SwitchId(s.want_u32("port_of switch")?), LinkId(l.want_u32("port_of link")?)),
            port_from(pp, "port_of port")?,
        );
    }
    let mut host_port = std::collections::HashMap::new();
    for row in j.member("host_port")?.want_arr("host_port")? {
        let r = row.want_arr("host_port row")?;
        let [h, l, pp] = r else {
            return Err(bad("host_port row: expected [host, link, port]"));
        };
        host_port.insert(
            (HostId(h.want_u32("host_port host")?), LinkId(l.want_u32("host_port link")?)),
            port_from(pp, "host_port port")?,
        );
    }
    let mut subswitches = Vec::new();
    for per_switch in j.member("subswitches")?.want_arr("subswitches")? {
        let mut subs = Vec::new();
        for entry in per_switch.want_arr("subswitch entry")? {
            let r = entry.want_arr("subswitch entry")?;
            let [sid, ports] = r else {
                return Err(bad("subswitch entry: expected [switch, ports]"));
            };
            let ports = ports
                .want_arr("subswitch ports")?
                .iter()
                .map(|pp| port_from(pp, "subswitch port"))
                .collect::<Result<Vec<_>, _>>()?;
            subs.push((SwitchId(sid.want_u32("subswitch id")?), ports));
        }
        subswitches.push(subs);
    }
    Ok(SdtProjection {
        assignment,
        link_real,
        port_of,
        host_port,
        subswitches,
        synthesis: synth_from(j.member("synthesis")?, "projection.synthesis")?,
        inter_switch_links_used: j.member("inter")?.want_usize("inter")?,
    })
}

fn slice_json(s: &SliceSnap) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::u64(s.id.into())),
        ("name".into(), Json::str(s.name.as_str())),
        ("config".into(), Json::str(s.config.as_str())),
        ("metadata_base".into(), Json::u64(s.metadata_base.into())),
        ("metadata_reserved".into(), Json::u64(s.metadata_reserved.into())),
        ("addr_base".into(), Json::u64(s.addr_base.into())),
        ("addr_reserved".into(), Json::u64(s.addr_reserved.into())),
        ("epochs".into(), Json::u64(s.epochs.into())),
        ("projection".into(), projection_json(&s.projection)),
        ("installed".into(), synth_json(&s.installed)),
    ])
}

fn slice_from(j: &Json) -> Result<SliceSnap, SnapshotError> {
    Ok(SliceSnap {
        id: j.member("id")?.want_u32("slice.id")?,
        name: j.member("name")?.want_str("slice.name")?.to_string(),
        config: j.member("config")?.want_str("slice.config")?.to_string(),
        metadata_base: j.member("metadata_base")?.want_u32("metadata_base")?,
        metadata_reserved: j.member("metadata_reserved")?.want_u32("metadata_reserved")?,
        addr_base: j.member("addr_base")?.want_u32("addr_base")?,
        addr_reserved: j.member("addr_reserved")?.want_u32("addr_reserved")?,
        epochs: j.member("epochs")?.want_u32("epochs")?,
        projection: projection_from(j.member("projection")?)?,
        installed: synth_from(j.member("installed")?, "installed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_controller::SliceController;

    const CLUSTER: &str = "[cluster]\nswitches = 2\nmodel = \"openflow-128x100g\"\n\
                           hosts_per_switch = 16\ninter_links_per_pair = 16\n";

    fn cfg(topo: &str) -> String {
        format!("[topology]\n{topo}\n{CLUSTER}")
    }

    fn populated() -> (ClusterSpec, SliceController, BTreeMap<u32, String>) {
        let ft = cfg("kind = \"fat-tree\"\nk = 4");
        let ch = cfg("kind = \"chain\"\nn = 4");
        let first = TestbedConfig::parse(&ft).unwrap();
        let spec = ClusterSpec::of_config(&first).unwrap();
        let mut ctl = SliceController::from_config(&first);
        let mut configs = BTreeMap::new();
        for text in [&ft, &ch] {
            let c = TestbedConfig::parse(text).unwrap();
            let id = ctl.create(c.topology.name(), &c.topology, &c.strategy).unwrap();
            configs.insert(id.0, text.clone());
        }
        (spec, ctl, configs)
    }

    #[test]
    fn encode_decode_restore_re_encode_is_byte_identical() {
        let (spec, ctl, configs) = populated();
        let snap = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap();
        let text = snap.encode();

        let decoded = Snapshot::decode(&text).unwrap();
        assert_eq!(decoded.encode(), text, "decode → encode must be identity");

        let (mgr, configs2) = decoded.restore().unwrap();
        assert_eq!(configs2, configs);
        let again = Snapshot::capture(&spec, true, &mgr, &configs2).unwrap();
        assert_eq!(again.encode(), text, "restore → capture must be identity");
    }

    #[test]
    fn restored_manager_serves_and_verifies() {
        let (spec, mut ctl, configs) = populated();
        let snap = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap();
        let before = ctl.manager_mut().verify_report();

        let (mut mgr, _) = snap.restore().unwrap();
        let after = mgr.verify_report();
        assert!(after.holds());
        assert_eq!(format!("{before:?}"), format!("{after:?}"));

        // The restored manager keeps working: destroy one slice cleanly.
        let r = mgr.destroy(SliceId(0)).unwrap();
        assert!(r.host_ports > 0);
    }

    #[test]
    fn version_mismatch_refused_by_name() {
        let (spec, ctl, configs) = populated();
        let snap = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap();
        let text = snap.encode().replacen("\"version\":1", "\"version\":9", 1);
        let e = match Snapshot::decode(&text) {
            Err(e) => e,
            Ok(_) => panic!("future version must be refused"),
        };
        assert!(e.to_string().contains("version 9"), "{e}");
    }

    #[test]
    fn out_of_range_numbers_refused_by_field() {
        // 65552 and 65539 wrap to 16 and 3 as `u16`: reading them would
        // restore a cluster and a projection the file does not describe.
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode();
        let edits = [
            ("\"hosts_per_switch\":16", "\"hosts_per_switch\":65552", "hosts_per_switch"),
            ("\"self\",[1,126]", "\"self\",[1,65539]", "link end a"),
        ];
        for (from, to, field) in edits {
            assert!(text.contains(from), "the snapshot has no {from} to edit");
            let e = match Snapshot::decode(&text.replacen(from, to, 1)) {
                Err(e) => e,
                Ok(_) => panic!("{to} must be refused"),
            };
            assert!(e.to_string().contains(&format!("{field}: out of u16 range")), "{e}");
        }
    }

    #[test]
    fn corrupt_entry_names_the_record() {
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs)
            .unwrap()
            .encode()
            .replacen("|out:", "|warp:", 1);
        let e = match Snapshot::decode(&text) {
            Err(e) => e,
            Ok(_) => panic!("corrupt record must be refused"),
        };
        assert!(e.to_string().contains("warp"), "{e}");
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("sdtd-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!dir.join("state.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
