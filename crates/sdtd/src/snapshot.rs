//! Versioned, byte-deterministic daemon snapshots.
//!
//! The snapshot is the daemon's crash-recovery story: after every mutating
//! batch the engine serializes its whole world — cluster spec, tenancy
//! bookkeeping, every slice's decisions, and a digest of every live flow
//! table — and replaces the state file with [`write_atomic`] *before*
//! acknowledging the batch. Once that returns, the new file survives
//! `kill -9` and, because both the file and its directory entry are
//! fsynced, power loss too; a crash at any earlier instant leaves the
//! previous file whole. So while writes succeed, a crash loses at most
//! un-acknowledged work (a failed write is logged and the batch still
//! acknowledged — see the daemon's durability contract); restart reloads
//! the file and continues serving.
//!
//! What is stored, and why — a snapshot stores decisions, not their
//! consequences:
//!
//! * **cluster spec, not wiring** — the physical cluster is deterministic
//!   in its spec (model name, switch count, ports, cables), so the
//!   builder re-derives it.
//! * **per-slice config text** — topology generators and routing-strategy
//!   resolution are deterministic, so the slice's `Topology` and
//!   `RouteTable` are re-derived from the config that created (or last
//!   reconfigured) it, through the controller's one routing function
//!   ([`sdt_controller::routing::routes`]) with the snapshot's own deadlock
//!   gate: a slice whose routes the gate now vetoes is refused by name.
//!   Custom topologies serialize through the config grammar's
//!   `kind = "custom"` edge list.
//! * **per-slice placement, namespace and epoch count** — which switch,
//!   cable and host port a slice got depends on what was free *at
//!   admission time*, which depends on the full create/destroy history; it
//!   is NOT re-derivable from the configs alone. Everything that follows
//!   from it — the port map, sub-switches, the synthesized pipeline, the
//!   namespaced pipeline as installed — is not stored: restore re-derives
//!   it through the code admission used ([`SliceManager::restore`]), after
//!   checking the placement against the rebuilt cluster and the config's
//!   topology. A change to what synthesis or the namespace remap emits
//!   for a placement therefore changes restored slices, and bumps
//!   [`SNAPSHOT_VERSION`].
//! * **a digest per switch and table, not the entries** — a table keeps
//!   its entries in key order, so it is a function of its entry set, and
//!   the live tables hold exactly the entries the slices install. Restore
//!   rebuilds each table as the merge of its slices' re-derived entries
//!   and refuses, by switch and table, one whose digest
//!   ([`sdt_openflow::TableDigest`]: entry count and a fixed hash) is not
//!   the stored one; the restored tables are re-proven once.
//!
//! Encoding uses [`Json`]'s deterministic emitter; map-typed placement
//! fields are key-sorted. Equal states therefore encode to equal bytes,
//! giving the tested property: snapshot → restore → re-snapshot is
//! byte-identical.

use sdt_controller::config::{check_cluster, wire_cluster};
use sdt_controller::routing::routes;
use sdt_controller::{model_by_name, model_config_name, Json, TestbedConfig};
use sdt_core::cluster::{PhysLink, PhysPort, PhysicalCluster};
use sdt_core::sdt::Placement;
use sdt_openflow::{PortNo, TableDigest};
use sdt_tenancy::{ManagerExport, SliceId, SliceManager, SliceRecord};
use sdt_topology::{HostId, LinkId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Current snapshot format version. Bump on any incompatible change —
/// including a change to what a stored placement realizes to; the decoder
/// refuses other versions by name instead of misreading them.
pub const SNAPSHOT_VERSION: u64 = 3;

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
        check_cluster(&model, self.switches, self.hosts_per_switch, self.inter_links_per_pair)
            .map_err(|e| bad(e.to_string()))?;
        Ok(wire_cluster(model, self.switches, self.hosts_per_switch, self.inter_links_per_pair))
    }
}

/// A complete daemon state dump, at [`SNAPSHOT_VERSION`].
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Cluster wiring description.
    pub cluster: ClusterSpec,
    /// Whether the deadlock gate vetoes cyclic-CDG routing.
    pub require_deadlock_free: bool,
    /// The manager's state, each slice asked for as the config text that
    /// created (or last reconfigured) it.
    pub state: ManagerExport<String>,
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
        let state = mgr.export().try_with(|s| {
            let config = configs.get(&s.id.0);
            config.cloned().ok_or_else(|| bad(format!("no config text recorded for {}", s.id)))
        })?;
        Ok(Snapshot { cluster: spec.clone(), require_deadlock_free, state })
    }

    /// Rebuild a live manager (and the per-slice config map) from this
    /// snapshot. All-or-nothing: any inconsistency — unknown model,
    /// unparsable config, a placement the cluster or topology does not
    /// have, tables whose re-derived entries miss their digests —
    /// rejects the whole restore with the reason named.
    pub fn restore(&self) -> Result<(SliceManager, BTreeMap<u32, String>), SnapshotError> {
        let cluster = self.cluster.build()?;
        let mut configs = BTreeMap::new();
        let export = self.state.clone().try_with(|s| {
            let cfg = TestbedConfig::parse(&s.request)
                .map_err(|e| bad(format!("{}: config: {e}", s.id)))?;
            let routes = routes(&cfg.topology, &cfg.strategy, self.require_deadlock_free)
                .map_err(|e| bad(format!("{}: {e}", s.id)))?;
            configs.insert(s.id.0, s.request.clone());
            Ok::<_, SnapshotError>((cfg.topology, routes))
        })?;
        let mgr = SliceManager::restore(cluster, export).map_err(|e| bad(e.to_string()))?;
        Ok((mgr, configs))
    }

    /// Serialize to the on-disk JSON form. Deterministic: equal snapshots
    /// emit equal bytes.
    pub fn encode(&self) -> String {
        let (c, st) = (&self.cluster, &self.state);
        Json::obj([
            ("version", Json::u64(SNAPSHOT_VERSION)),
            (
                "cluster",
                Json::obj([
                    ("model", Json::str(c.model.as_str())),
                    ("switches", Json::u64(c.switches.into())),
                    ("hosts_per_switch", Json::u64(c.hosts_per_switch.into())),
                    ("inter_links_per_pair", Json::u64(c.inter_links_per_pair.into())),
                ]),
            ),
            ("require_deadlock_free", Json::Bool(self.require_deadlock_free)),
            ("next_id", Json::u64(st.next_id.into())),
            ("next_metadata", Json::u64(st.next_metadata.into())),
            ("next_addr", Json::u64(st.next_addr.into())),
            ("slices", Json::Arr(st.slices.iter().map(slice_json).collect())),
            (
                "digests",
                Json::Arr(
                    st.digests
                        .iter()
                        .map(|[t0, t1]| Json::Arr(vec![digest_json(t0), digest_json(t1)]))
                        .collect(),
                ),
            ),
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
        let digests = doc
            .member("digests")?
            .want_arr("digests")?
            .iter()
            .map(|sw| {
                let [t0, t1] = sw.want_arr("digests")? else {
                    return Err(bad("digests: expected [table 0, table 1] per switch"));
                };
                Ok([digest_from(t0)?, digest_from(t1)?])
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let state = ManagerExport {
            slices,
            next_id: doc.member("next_id")?.want_u32("next_id")?,
            next_metadata: doc.member("next_metadata")?.want_u32("next_metadata")?,
            next_addr: doc.member("next_addr")?.want_u32("next_addr")?,
            digests,
        };
        Ok(Snapshot { cluster, require_deadlock_free, state })
    }
}

/// Atomically and durably replace `path` with `text`: write a sibling tmp
/// file, fsync it, rename it over the target, fsync the directory. A crash
/// before the rename leaves the old file intact (rename is atomic on POSIX
/// filesystems); once this returns, the new file and its directory entry
/// are on disk, so power loss cannot bring the old one back.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot")
    ));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

// -------------------------------------------------------- JSON helpers

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

fn digest_json(d: &TableDigest) -> Json {
    Json::Arr(vec![Json::u64(d.entries), Json::u64(d.hash)])
}

fn digest_from(j: &Json) -> Result<TableDigest, SnapshotError> {
    let [entries, hash] = j.want_arr("digest")? else {
        return Err(bad("digest: expected [entries, hash]"));
    };
    Ok(TableDigest {
        entries: entries.want_u64("digest entries")?,
        hash: hash.want_u64("digest hash")?,
    })
}

fn slice_json(s: &SliceRecord<String>) -> Json {
    let (p, u) = (&s.placement, |n: u32| Json::u64(n.into()));
    let links: BTreeMap<u32, &PhysLink> = p.link_real.iter().map(|(l, c)| (l.0, c)).collect();
    let hosts: BTreeMap<_, _> = p.host_port.iter().map(|((h, l), &pp)| ((h.0, l.0), pp)).collect();
    let links =
        links.into_iter().map(|(l, c)| Json::Arr(vec![u(l), port_json(c.a), port_json(c.b)]));
    let hosts = hosts.into_iter().map(|((h, l), pp)| Json::Arr(vec![u(h), u(l), port_json(pp)]));
    Json::obj([
        ("id", u(s.id.0)),
        ("name", Json::str(s.name.as_str())),
        ("config", Json::str(s.request.as_str())),
        ("metadata_base", u(s.metadata_base)),
        ("metadata_reserved", u(s.metadata_reserved)),
        ("addr_base", u(s.addr_base)),
        ("addr_reserved", u(s.addr_reserved)),
        ("epochs", u(s.epochs)),
        ("assignment", Json::Arr(p.assignment.iter().map(|&sw| u(sw)).collect())),
        ("link_real", Json::Arr(links.collect())),
        ("host_port", Json::Arr(hosts.collect())),
    ])
}

fn slice_from(j: &Json) -> Result<SliceRecord<String>, SnapshotError> {
    let assignment = j
        .member("assignment")?
        .want_arr("assignment")?
        .iter()
        .map(|sw| sw.want_u32("assignment"))
        .collect::<Result<_, _>>()?;
    let mut link_real = HashMap::new();
    for row in j.member("link_real")?.want_arr("link_real")? {
        let [lid, a, b] = row.want_arr("link_real row")? else {
            return Err(bad("link_real row: expected [link, a, b]"));
        };
        let cable = PhysLink::between(port_from(a, "link end a")?, port_from(b, "link end b")?);
        link_real.insert(LinkId(lid.want_u32("link id")?), cable);
    }
    let mut host_port = HashMap::new();
    for row in j.member("host_port")?.want_arr("host_port")? {
        let [h, l, pp] = row.want_arr("host_port row")? else {
            return Err(bad("host_port row: expected [host, link, port]"));
        };
        host_port.insert(
            (HostId(h.want_u32("host_port host")?), LinkId(l.want_u32("host_port link")?)),
            port_from(pp, "host_port port")?,
        );
    }
    Ok(SliceRecord {
        id: SliceId(j.member("id")?.want_u32("slice.id")?),
        name: j.member("name")?.want_str("slice.name")?.to_string(),
        request: j.member("config")?.want_str("slice.config")?.to_string(),
        metadata_base: j.member("metadata_base")?.want_u32("metadata_base")?,
        metadata_reserved: j.member("metadata_reserved")?.want_u32("metadata_reserved")?,
        addr_base: j.member("addr_base")?.want_u32("addr_base")?,
        addr_reserved: j.member("addr_reserved")?.want_u32("addr_reserved")?,
        epochs: j.member("epochs")?.want_u32("epochs")?,
        placement: Placement { assignment, link_real, host_port },
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
        // A version-1 file (every slice's pipelines stored beside the live
        // tables) and a version-2 one (the live tables' entries) are
        // refused like a future one: there is one reader.
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode();
        for v in [1, 2, 9] {
            let old = text.replacen("\"version\":3", &format!("\"version\":{v}"), 1);
            let e = match Snapshot::decode(&old) {
                Err(e) => e,
                Ok(_) => panic!("version {v} must be refused"),
            };
            assert!(e.to_string().contains(&format!("version {v} (this build reads 3)")), "{e}");
        }
    }

    #[test]
    fn out_of_range_numbers_refused_by_field() {
        // 65552 and 65539 wrap to 16 and 3 as `u16`: reading them would
        // restore a cluster and a projection the file does not describe.
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode();
        let edits = [
            ("\"hosts_per_switch\":16", "\"hosts_per_switch\":65552", "hosts_per_switch"),
            ("[2,[1,126]", "[2,[1,65539]", "link end a"),
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

    /// Decode `text` with `from` replaced by `to`, restore it, and return
    /// the refusal.
    fn restore_refusal(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "the snapshot has no {from} to edit");
        let snap = Snapshot::decode(&text.replacen(from, to, 1)).unwrap();
        match snap.restore() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{to} must be refused"),
        }
    }

    #[test]
    fn placements_the_cluster_or_topology_lacks_are_refused_by_name() {
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode();
        // Slice 0 is a fat-tree k=4: logical switch 0 on physical switch 1,
        // link 2 on self-link (126, 127) of switch 1, host 0 on port 15.
        for (from, to, why) in [
            (
                "\"assignment\":[1,",
                "\"assignment\":[7,",
                "slice-0: assignment puts switch 0 on physical switch 7, of 2",
            ),
            (
                "[2,[1,126],[1,127]]",
                "[2,[1,126],[1,125]]",
                "slice-0: link 2: no cable PhysLink { kind: SelfLink, a: PhysPort { switch: 1, \
                 port: PortNo(126) }, b: PhysPort { switch: 1, port: PortNo(125) } } between \
                 its switches",
            ),
            (
                "[0,0,[1,15]]",
                "[0,0,[1,126]]",
                "slice-0: host 0: Some(PhysPort { switch: 1, port: PortNo(126) }) is no host \
                 port of its switch",
            ),
            ("[2,[1,126],[1,127]],", "", "slice-0: fabric link 2 has no cable"),
        ] {
            let e = restore_refusal(&text, from, to);
            assert!(e.contains(why), "{to}: {e}");
        }
    }

    #[test]
    fn a_placement_the_live_tables_disagree_with_is_refused_by_name() {
        // Host 0 of slice 0 moved to a free host port (5) and to one slice
        // 1 holds (7): both pass the placement check and re-derive as many
        // entries as before, but not the entries the live tables hold.
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode();
        for port in [5, 7] {
            let e = restore_refusal(&text, "[0,0,[1,15]]", &format!("[0,0,[1,{port}]]"));
            let why = "switch 1 table 0: the slices' entries do not match the digest \
                       (slices with entries there: slice-0, slice-1)";
            assert!(e.contains(why), "{port}: {e}");
        }
    }

    #[test]
    fn a_cluster_the_builder_cannot_wire_is_refused_by_name() {
        // 9 switches with 16 cables per pair need 16 + 8 * 16 ports.
        let (spec, ctl, configs) = populated();
        let text = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode();
        let e = restore_refusal(&text, "\"switches\":2", "\"switches\":9");
        assert!(e.contains("reserved ports (144) exceed switch ports (128)"), "{e}");
        let e = restore_refusal(&text, "\"switches\":2", "\"switches\":0");
        assert!(e.contains("`cluster.switches`: must be >= 1"), "{e}");
    }

    #[test]
    fn changed_digest_is_refused_by_switch_and_table() {
        // The file holds a digest per switch and table, not entries: one
        // that is not what the slices re-derive is refused by its place.
        let (spec, ctl, configs) = populated();
        let snap = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap();
        let text = snap.encode();
        let [_, t1] = snap.state.digests[1];
        let from = format!("[{},{}]]", t1.entries, t1.hash);
        for to in [
            format!("[{},{}]]", t1.entries + 1, t1.hash),
            format!("[{},{}]]", t1.entries, t1.hash ^ 1),
        ] {
            let e = restore_refusal(&text, &from, &to);
            let why = "switch 1 table 1: the slices' entries do not match the digest \
                       (slices with entries there: slice-0, slice-1)";
            assert!(e.contains(why), "{to}: {e}");
        }
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
