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
        let version = want_u64(member(&doc, "version")?, "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let c = member(&doc, "cluster")?;
        let cluster = ClusterSpec {
            model: want_str(member(c, "model")?, "cluster.model")?.to_string(),
            switches: want_u32(member(c, "switches")?, "cluster.switches")?,
            hosts_per_switch: want_u16(member(c, "hosts_per_switch")?, "hosts_per_switch")?,
            inter_links_per_pair: want_u16(
                member(c, "inter_links_per_pair")?,
                "inter_links_per_pair",
            )?,
        };
        let require_deadlock_free = member(&doc, "require_deadlock_free")?
            .as_bool()
            .ok_or_else(|| bad("require_deadlock_free: not a bool"))?;
        let slices = want_arr(member(&doc, "slices")?, "slices")?
            .iter()
            .map(slice_from)
            .collect::<Result<Vec<_>, _>>()?;
        let tables = want_arr(member(&doc, "tables")?, "tables")?
            .iter()
            .map(|t| {
                Ok((
                    entries_from(member(t, "t0")?, "tables.t0")?,
                    entries_from(member(t, "t1")?, "tables.t1")?,
                ))
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Ok(Snapshot {
            version,
            cluster,
            require_deadlock_free,
            next_id: want_u32(member(&doc, "next_id")?, "next_id")?,
            next_metadata: want_u32(member(&doc, "next_metadata")?, "next_metadata")?,
            next_addr: want_u32(member(&doc, "next_addr")?, "next_addr")?,
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

fn member<'a>(j: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    j.get(key).ok_or_else(|| bad(format!("missing member `{key}`")))
}

fn want_u64(j: &Json, what: &str) -> Result<u64, SnapshotError> {
    j.as_u64().ok_or_else(|| bad(format!("{what}: not an unsigned integer")))
}

fn want_u32(j: &Json, what: &str) -> Result<u32, SnapshotError> {
    u32::try_from(want_u64(j, what)?).map_err(|_| bad(format!("{what}: out of u32 range")))
}

fn want_u16(j: &Json, what: &str) -> Result<u16, SnapshotError> {
    u16::try_from(want_u64(j, what)?).map_err(|_| bad(format!("{what}: out of u16 range")))
}

fn want_str<'a>(j: &'a Json, what: &str) -> Result<&'a str, SnapshotError> {
    j.as_str().ok_or_else(|| bad(format!("{what}: not a string")))
}

fn want_arr<'a>(j: &'a Json, what: &str) -> Result<&'a [Json], SnapshotError> {
    j.as_arr().ok_or_else(|| bad(format!("{what}: not an array")))
}

fn u32s_json(ns: impl IntoIterator<Item = u32>) -> Json {
    Json::Arr(ns.into_iter().map(|n| Json::u64(n.into())).collect())
}

fn u32s_from(j: &Json, what: &str) -> Result<Vec<u32>, SnapshotError> {
    want_arr(j, what)?.iter().map(|n| want_u32(n, what)).collect()
}

fn port_json(p: PhysPort) -> Json {
    Json::Arr(vec![Json::u64(p.switch.into()), Json::u64(p.port.0.into())])
}

fn port_from(j: &Json, what: &str) -> Result<PhysPort, SnapshotError> {
    let a = want_arr(j, what)?;
    let [sw, port] = a else {
        return Err(bad(format!("{what}: expected [switch, port]")));
    };
    Ok(PhysPort {
        switch: want_u32(sw, what)?,
        port: PortNo(want_u16(port, what)?),
    })
}

fn entries_json(entries: &[FlowEntry]) -> Json {
    Json::Arr(snap::encode_entries(entries).into_iter().map(Json::Str).collect())
}

fn entries_from(j: &Json, what: &str) -> Result<Vec<FlowEntry>, SnapshotError> {
    want_arr(j, what)?
        .iter()
        .map(|l| {
            snap::decode_entry(want_str(l, what)?).map_err(|e| bad(format!("{what}: {e}")))
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
        want_arr(m, what)?.iter().map(|t| entries_from(t, what)).collect()
    };
    Ok(SynthesisOutput {
        table0: tab(member(j, "t0")?)?,
        table1: tab(member(j, "t1")?)?,
        entries_per_switch: want_arr(member(j, "n")?, what)?
            .iter()
            .map(|n| want_u64(n, what).map(|n| n as usize))
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
    let assignment = u32s_from(member(j, "assignment")?, "assignment")?;
    let mut link_real = std::collections::HashMap::new();
    for row in want_arr(member(j, "link_real")?, "link_real")? {
        let r = want_arr(row, "link_real row")?;
        let [lid, kind, a, b] = r else {
            return Err(bad("link_real row: expected [link, kind, a, b]"));
        };
        let kind = match want_str(kind, "link kind")? {
            "self" => PhysLinkKind::SelfLink,
            "inter" => PhysLinkKind::InterSwitch,
            other => return Err(bad(format!("unknown link kind `{other}`"))),
        };
        link_real.insert(
            LinkId(want_u32(lid, "link id")?),
            PhysLink { kind, a: port_from(a, "link end a")?, b: port_from(b, "link end b")? },
        );
    }
    let mut port_of = std::collections::HashMap::new();
    for row in want_arr(member(j, "port_of")?, "port_of")? {
        let r = want_arr(row, "port_of row")?;
        let [s, l, pp] = r else {
            return Err(bad("port_of row: expected [switch, link, port]"));
        };
        port_of.insert(
            (SwitchId(want_u32(s, "port_of switch")?), LinkId(want_u32(l, "port_of link")?)),
            port_from(pp, "port_of port")?,
        );
    }
    let mut host_port = std::collections::HashMap::new();
    for row in want_arr(member(j, "host_port")?, "host_port")? {
        let r = want_arr(row, "host_port row")?;
        let [h, l, pp] = r else {
            return Err(bad("host_port row: expected [host, link, port]"));
        };
        host_port.insert(
            (HostId(want_u32(h, "host_port host")?), LinkId(want_u32(l, "host_port link")?)),
            port_from(pp, "host_port port")?,
        );
    }
    let mut subswitches = Vec::new();
    for per_switch in want_arr(member(j, "subswitches")?, "subswitches")? {
        let mut subs = Vec::new();
        for entry in want_arr(per_switch, "subswitch entry")? {
            let r = want_arr(entry, "subswitch entry")?;
            let [sid, ports] = r else {
                return Err(bad("subswitch entry: expected [switch, ports]"));
            };
            let ports = want_arr(ports, "subswitch ports")?
                .iter()
                .map(|pp| port_from(pp, "subswitch port"))
                .collect::<Result<Vec<_>, _>>()?;
            subs.push((SwitchId(want_u32(sid, "subswitch id")?), ports));
        }
        subswitches.push(subs);
    }
    Ok(SdtProjection {
        assignment,
        link_real,
        port_of,
        host_port,
        subswitches,
        synthesis: synth_from(member(j, "synthesis")?, "projection.synthesis")?,
        inter_switch_links_used: want_u64(member(j, "inter")?, "inter")? as usize,
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
        id: want_u32(member(j, "id")?, "slice.id")?,
        name: want_str(member(j, "name")?, "slice.name")?.to_string(),
        config: want_str(member(j, "config")?, "slice.config")?.to_string(),
        metadata_base: want_u32(member(j, "metadata_base")?, "metadata_base")?,
        metadata_reserved: want_u32(member(j, "metadata_reserved")?, "metadata_reserved")?,
        addr_base: want_u32(member(j, "addr_base")?, "addr_base")?,
        addr_reserved: want_u32(member(j, "addr_reserved")?, "addr_reserved")?,
        epochs: want_u32(member(j, "epochs")?, "epochs")?,
        projection: projection_from(member(j, "projection")?)?,
        installed: synth_from(member(j, "installed")?, "installed")?,
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
