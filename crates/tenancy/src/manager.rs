//! The slice manager: admission control and lifecycle over one shared
//! cluster.
//!
//! A *slice* is one logical topology projected onto the shared physical
//! cluster alongside other slices. The manager holds the only mutable
//! reference to the live switches; every slice mutation goes through an
//! [`Epoch`] that is verified against the namespace map before a single
//! flow-mod is applied.
//!
//! ## Resource model
//!
//! Three hard resources are accounted per slice:
//!
//! * **host ports** — each logical host attachment claims one;
//! * **cables** — each logical fabric link claims one self-link or
//!   inter-switch cable;
//! * **flow-table entries** — each slice's remapped pipeline occupies
//!   entries of the per-switch shared table budget.
//!
//! Port/cable disjointness is enforced by reusing the projector's
//! [`FailedResources`] mechanism: everything a co-tenant holds is passed to
//! the new slice's projection as if it were failed hardware, so the
//! projection *cannot* assign it — and a rejection reports the genuinely
//! free counts, not the raw wiring.
//!
//! ## Namespacing
//!
//! Every slice's topology numbers switches and hosts from 0, so the raw
//! synthesized pipelines of two slices would collide on table-1 metadata
//! (`write-metadata(sub-switch id)`) and host addresses. The manager
//! allocates each slice a private metadata range and host-address range
//! (monotonic bases, never reused) and rewrites the synthesized entries
//! into them before installation. Table-0 entries need no rewrite: their
//! ingress ports are disjoint by the resource model.

use crate::epoch::{Epoch, EpochReport, OwnedSpace};
use sdt_core::cluster::{PhysLink, PhysicalCluster};
use sdt_core::sdt::{
    FailedResources, Placement, ProjectOptions, ProjectionError, SdtProjection, SdtProjector,
};
use sdt_core::synthesis::{SynthesisOutput, Table};
use sdt_openflow::{
    Action, EntryStore, FlowEntry, FlowMod, HostAddr, OpenFlowSwitch, SwitchConfig, TableDigest,
};
use sdt_routing::RouteTable;
use sdt_topology::{HostId, SwitchId, Topology};
use sdt_verify::{Intent, TableView, Verifier, VerifyStats};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Identifier of an admitted slice. Ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SliceId(pub u32);

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice-{}", self.0)
    }
}

/// Why a slice was refused. Every variant names the scarce resource and
/// where it ran out; nothing is installed on a refusal.
#[derive(Clone, Debug)]
pub enum AdmissionError {
    /// Ports, cables or single-tenant table capacity are short. The counts
    /// inside reflect what co-tenants left free, not the raw wiring.
    Resources(ProjectionError),
    /// The shared flow table of a switch lacks headroom for this slice's
    /// entries on top of its co-tenants' (plus, during reconfiguration, the
    /// make-before-break overlap).
    TableHeadroom {
        /// Physical switch that is out of entries.
        switch: u32,
        /// Entries this operation needs to install there.
        need: usize,
        /// Entries actually free there.
        free: usize,
    },
    /// No slice with this id.
    UnknownSlice(SliceId),
    /// Epoch verification failed — a manager invariant was violated and the
    /// epoch was not applied. Should never happen.
    EpochViolation(String),
    /// The static verifier proved the pending epoch would create a loop,
    /// blackhole or cross-slice leak; nothing was installed. The string is
    /// the verifier's summary naming the offending rule(s).
    StaticViolation(String),
    /// A scheduled migration stopped mid-flight: a round boundary could
    /// not be proven safe, or the control channel diverged and the live
    /// state failed re-verification. Unlike every other variant, flow-mods
    /// up to the failing round may already be applied — each state
    /// actually reached was individually proven safe.
    ScheduleFailed(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Resources(e) => write!(f, "insufficient resources: {e}"),
            AdmissionError::TableHeadroom { switch, need, free } => write!(
                f,
                "switch {switch}: flow table lacks headroom ({need} entries needed, {free} free)"
            ),
            AdmissionError::UnknownSlice(id) => write!(f, "unknown {id}"),
            AdmissionError::EpochViolation(v) => write!(f, "epoch verification failed: {v}"),
            AdmissionError::StaticViolation(v) => {
                write!(f, "static verification rejected the epoch: {v}")
            }
            AdmissionError::ScheduleFailed(v) => {
                write!(f, "scheduled migration failed: {v}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One queued lifecycle operation, as consumed by
/// [`SliceManager::apply_batch`]. Routes are resolved by the caller (the
/// controller's strategy/deadlock gates run *before* queueing) so a batch
/// is pure admission work.
#[derive(Clone, Debug)]
pub enum SliceOp {
    /// Admit a new slice.
    Create {
        /// Operator-facing name.
        name: String,
        /// Logical topology to realize.
        topo: Topology,
        /// Resolved routing.
        routes: RouteTable,
    },
    /// Make-before-break reconfiguration of an admitted slice.
    Reconfigure {
        /// Slice to migrate.
        id: SliceId,
        /// New logical topology.
        topo: Topology,
        /// Resolved routing for the new topology.
        routes: RouteTable,
    },
    /// Tear a slice down.
    Destroy {
        /// Slice to remove.
        id: SliceId,
    },
}

impl SliceOp {
    /// The already-admitted slice this operation touches (`None` for a
    /// create — fresh ids cannot collide). Used to split batches at
    /// repeated ids, where the disjoint-match-space argument behind the
    /// combined proof would not hold.
    fn slice_id(&self) -> Option<u32> {
        match self {
            SliceOp::Create { .. } => None,
            SliceOp::Reconfigure { id, .. } | SliceOp::Destroy { id } => Some(id.0),
        }
    }
}

/// What a successful [`SliceOp`] produced.
#[derive(Clone, Debug)]
pub enum OpOutcome {
    /// A create: the new slice's id.
    Created(SliceId),
    /// A reconfiguration: the applied epoch's report.
    Reconfigured(EpochReport),
    /// A teardown: the reclaimed resources.
    Destroyed(ReclaimedResources),
}

/// The manager's mutable state, dumped by [`SliceManager::export`] and
/// consumed by [`SliceManager::restore`]. Serialization lives with the
/// daemon (`sdt-sdtd`), which owns the on-disk format and stores each
/// slice's request as config text (`R = String`); this struct is the typed
/// contract between the two.
#[derive(Clone, Debug)]
pub struct ManagerExport<R = (Topology, RouteTable)> {
    /// Admitted slices' decisions, in id order.
    pub slices: Vec<SliceRecord<R>>,
    /// Next slice id (ids are never reused, so this is not derivable from
    /// `slices` once something was destroyed).
    pub next_id: u32,
    /// Next free metadata namespace base.
    pub next_metadata: u32,
    /// Next free host-address namespace base.
    pub next_addr: u32,
    /// Per switch: the digests of the live tables 0 and 1. Restore
    /// re-derives the tables from the slices and holds them to these.
    pub digests: Vec<[TableDigest; 2]>,
}

impl<R> ManagerExport<R> {
    /// The same state, each slice asked for as `ask` answers for it.
    pub fn try_with<S, E>(
        self,
        mut ask: impl FnMut(&SliceRecord<R>) -> Result<S, E>,
    ) -> Result<ManagerExport<S>, E> {
        let mut slices = Vec::with_capacity(self.slices.len());
        for s in self.slices {
            let request = ask(&s)?;
            slices.push(s.with(request));
        }
        Ok(ManagerExport {
            slices,
            next_id: self.next_id,
            next_metadata: self.next_metadata,
            next_addr: self.next_addr,
            digests: self.digests,
        })
    }
}

/// Why [`SliceManager::restore`] refused a dump. Restores are all-or-
/// nothing: any inconsistency between the dump and the cluster leaves
/// nothing constructed.
#[derive(Clone, Debug)]
pub struct RestoreError(pub String);

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "restore rejected: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// Resources handed back by [`SliceManager::destroy`] — exactly what the
/// slice had reserved, by construction of the teardown epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReclaimedResources {
    /// Host ports returned to the free pool.
    pub host_ports: usize,
    /// Cables (self-links + inter-switch links) returned.
    pub cables: usize,
    /// Flow-table entries removed across the cluster.
    pub flow_entries: usize,
}

/// One planned, not-yet-applied lifecycle operation: the epoch that
/// realizes it and the slice as it will stand afterwards. Produced by
/// [`SliceManager::plan`], which is pure — nothing is installed and no
/// bookkeeping moves until the manager gates and commits the plan.
#[derive(Clone, Debug)]
pub struct Plan {
    id: SliceId,
    epoch: Epoch,
    /// The slice once the epoch is in; `None` for a teardown.
    after: Option<Slice>,
    /// `after` sits in namespace ranges taken at `next_metadata` /
    /// `next_addr` (every create, and a reconfiguration that outgrew its
    /// reservation), so commit must advance those counters.
    fresh_namespace: bool,
}

impl Plan {
    /// The flow-mod batch this plan installs.
    pub fn epoch(&self) -> &Epoch {
        &self.epoch
    }
}

/// A compiled, not-yet-applied scheduled reconfiguration: the planned
/// operation, its dependency-ordered rounds, and the intents each round
/// boundary is proven against. Produced by
/// [`SliceManager::plan_scheduled`]; consumed by
/// [`SliceManager::commit_scheduled`]. Planning is pure — nothing is
/// installed and no bookkeeping moves until commit.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    plan: Plan,
    rounds: Vec<crate::schedule::Round>,
    pre_intent: Intent,
    post_intent: Intent,
}

impl MigrationPlan {
    /// The flow-mod batch this plan installs.
    pub fn epoch(&self) -> &Epoch {
        &self.plan.epoch
    }

    /// The dependency-ordered rounds the epoch was compiled into.
    pub fn rounds(&self) -> &[crate::schedule::Round] {
        &self.rounds
    }

    /// Reachability intent the pre-cutover boundaries are proven against
    /// (the fleet as admitted today, old slice included).
    pub fn pre_intent(&self) -> &Intent {
        &self.pre_intent
    }

    /// Reachability intent from the cutover round on (old slice replaced
    /// by the reconfigured one).
    pub fn post_intent(&self) -> &Intent {
        &self.post_intent
    }
}

/// An admitted slice: its logical topology, projection, namespace, and the
/// remapped pipeline actually installed on the shared switches.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Stable identifier.
    pub id: SliceId,
    /// Operator-facing name.
    pub name: String,
    /// The logical topology this slice realizes.
    pub topology: Topology,
    /// Routing table behind the slice's pipeline.
    pub routes: RouteTable,
    /// Projection onto the shared cluster (ports/cables it owns).
    pub projection: SdtProjection,
    /// First metadata value of the slice's table-1 namespace.
    pub metadata_base: u32,
    /// Reserved metadata values (may exceed the current topology's switch
    /// count after a shrinking reconfiguration).
    pub metadata_reserved: u32,
    /// First host address of the slice's namespace.
    pub addr_base: u32,
    /// Reserved host addresses.
    pub addr_reserved: u32,
    /// The namespaced pipeline as installed (synthesis remapped into the
    /// slice's metadata/address ranges).
    pub installed: SynthesisOutput,
    /// Epochs applied to this slice (1 = initial install).
    pub epochs: u32,
}

/// One slice as admission decided it: the placement, namespace and epoch
/// count — what depends on history — beside the request `R` they answer
/// (topology and routes here, the config text in a daemon snapshot).
#[derive(Clone, Debug)]
pub struct SliceRecord<R = (Topology, RouteTable)> {
    /// Stable identifier.
    pub id: SliceId,
    /// Operator-facing name.
    pub name: String,
    /// What the slice was asked to realize.
    pub request: R,
    /// Partition, cables and host ports it was given.
    pub placement: Placement,
    /// First metadata value of the slice's table-1 namespace.
    pub metadata_base: u32,
    /// Reserved metadata values.
    pub metadata_reserved: u32,
    /// First host address of the slice's namespace.
    pub addr_base: u32,
    /// Reserved host addresses.
    pub addr_reserved: u32,
    /// Epochs applied to this slice (1 = initial install).
    pub epochs: u32,
}

impl<R> SliceRecord<R> {
    /// The same decisions, asked for as `request`.
    fn with<S>(self, request: S) -> SliceRecord<S> {
        SliceRecord {
            id: self.id,
            name: self.name,
            request,
            placement: self.placement,
            metadata_base: self.metadata_base,
            metadata_reserved: self.metadata_reserved,
            addr_base: self.addr_base,
            addr_reserved: self.addr_reserved,
            epochs: self.epochs,
        }
    }
}

impl SliceRecord {
    /// The one place a [`Slice`] is built, for admission and restore
    /// alike: realize the placement ([`SdtProjector::realize`]) and remap
    /// its pipeline into the slice's namespace.
    fn realize(self, by: &SdtProjector, on: &PhysicalCluster) -> Result<Slice, ProjectionError> {
        let (topology, routes) = self.request;
        let projection = by.realize(&topology, on, &routes, self.placement)?;
        let installed = remap_synthesis(&projection.synthesis, self.metadata_base, self.addr_base);
        Ok(Slice {
            id: self.id,
            name: self.name,
            topology,
            routes,
            projection,
            metadata_base: self.metadata_base,
            metadata_reserved: self.metadata_reserved,
            addr_base: self.addr_base,
            addr_reserved: self.addr_reserved,
            installed,
            epochs: self.epochs,
        })
    }
}

impl Slice {
    /// Flow-table entries this slice occupies across the cluster.
    pub fn entries(&self) -> usize {
        self.installed.entries_per_switch.iter().sum()
    }

    /// The fabric-wide address of one of the slice's hosts.
    pub fn host_addr(&self, h: HostId) -> HostAddr {
        HostAddr(self.addr_base + h.0)
    }

    /// The match-space this slice owns on the shared switches.
    pub fn owned_space(&self) -> OwnedSpace {
        let mut own = OwnedSpace {
            metadata: vec![(self.metadata_base, self.metadata_reserved)],
            ..Default::default()
        };
        for (sw, t0) in self.installed.table0.iter().enumerate() {
            for e in t0 {
                if let Some(p) = e.m.in_port {
                    own.ports.insert((sw as u32, p));
                }
            }
        }
        own
    }
}

/// Occupancy of one shared switch's flow table.
#[derive(Clone, Copy, Debug)]
pub struct SwitchOccupancy {
    /// Physical switch.
    pub switch: u32,
    /// Shared pipeline capacity, entries.
    pub capacity: usize,
    /// Entries installed (all slices).
    pub used: usize,
    /// Entries free.
    pub free: usize,
}

/// One slice's row in [`ManagerStatus`].
#[derive(Clone, Debug)]
pub struct SliceStatus {
    /// Slice id.
    pub id: SliceId,
    /// Slice name.
    pub name: String,
    /// Logical topology name.
    pub topology: String,
    /// Logical switches.
    pub switches: u32,
    /// Logical hosts.
    pub hosts: u32,
    /// Host ports reserved.
    pub host_ports: usize,
    /// Cables reserved.
    pub cables: usize,
    /// Flow-table entries occupied.
    pub entries: usize,
    /// Metadata namespace `[base, base + reserved)`.
    pub metadata_range: (u32, u32),
    /// Host-address namespace `[base, base + reserved)`.
    pub addr_range: (u32, u32),
    /// Epochs applied (1 = initial install).
    pub epochs: u32,
}

/// Cluster-wide resource accounting snapshot.
#[derive(Clone, Debug)]
pub struct ManagerStatus {
    /// Per-switch flow-table occupancy.
    pub switches: Vec<SwitchOccupancy>,
    /// Host ports wired on the cluster.
    pub host_ports_total: usize,
    /// Host ports held by slices.
    pub host_ports_used: usize,
    /// Cables wired on the cluster.
    pub cables_total: usize,
    /// Cables held by slices.
    pub cables_used: usize,
    /// Live table entries no admitted slice owns — stale state a teardown
    /// failed to collect. The static proof cannot see these (an entry
    /// outside every slice's match space forwards nobody's traffic), so
    /// this count is the one hygiene signal reported beside it.
    pub orphan_entries: usize,
    /// Per-slice rows, in id order.
    pub slices: Vec<SliceStatus>,
}

/// Admission-controlled multi-tenant manager over one physical cluster.
pub struct SliceManager {
    cluster: PhysicalCluster,
    projector: SdtProjector,
    switches: Vec<OpenFlowSwitch>,
    slices: BTreeMap<u32, Slice>,
    next_id: u32,
    next_metadata: u32,
    next_addr: u32,
    /// Proof of the *current* live tables, carried between epochs so each
    /// admission only pays for the delta ([`Verifier::check_delta`]).
    /// `None` until first use.
    verifier: Option<Verifier>,
}

impl SliceManager {
    /// An empty manager over a wired cluster: live switches with empty
    /// tables, no slices.
    pub fn new(cluster: PhysicalCluster) -> Self {
        let model = cluster.model();
        let cfg = SwitchConfig {
            num_ports: model.ports as u16,
            port_gbps: model.gbps,
            table_capacity: model.table_capacity,
        };
        let switches =
            (0..cluster.num_switches()).map(|i| OpenFlowSwitch::new(i, cfg)).collect();
        SliceManager {
            cluster,
            // §VII-C mitigation stays on: a slice that only fits merged
            // still beats a rejection.
            projector: SdtProjector { merge_entries_on_overflow: true },
            switches,
            slices: BTreeMap::new(),
            next_id: 0,
            next_metadata: 0,
            next_addr: 0,
            verifier: None,
        }
    }

    /// The shared cluster.
    pub fn cluster(&self) -> &PhysicalCluster {
        &self.cluster
    }

    /// The live shared switches.
    pub fn switches(&self) -> &[OpenFlowSwitch] {
        &self.switches
    }

    /// Mutable access to the live switches (the audit oracle forwards
    /// probe packets, which bumps port counters). Drops the cached static
    /// proof: a caller may rewrite tables behind the manager's back, and a
    /// stale proof would let the next delta check miss that damage.
    pub fn switches_mut(&mut self) -> &mut [OpenFlowSwitch] {
        self.verifier = None;
        &mut self.switches
    }

    /// Admitted slices, in id order.
    pub fn slices(&self) -> impl Iterator<Item = &Slice> {
        self.slices.values()
    }

    /// One slice by id.
    pub fn slice(&self, id: SliceId) -> Option<&Slice> {
        self.slices.get(&id.0)
    }

    /// Number of admitted slices.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Everything co-tenants hold, expressed as "failed" resources so a
    /// projection for one slice cannot take them and shortage errors report
    /// true free counts. `skip` excludes one slice (its own resources are
    /// available to a reconfiguration of itself).
    fn occupancy_excluding(&self, skip: Option<SliceId>) -> FailedResources {
        let mut occ = FailedResources::new();
        for s in self.slices.values() {
            if Some(s.id) == skip {
                continue;
            }
            for cable in s.projection.link_real.values() {
                occ.fail_cable(cable);
            }
            for &p in s.projection.host_port.values() {
                occ.fail_port(p);
            }
        }
        occ
    }

    /// Union of every co-tenant's owned match-space.
    fn owned_by_others(&self, skip: SliceId) -> OwnedSpace {
        let mut all = OwnedSpace::default();
        for s in self.slices.values() {
            if s.id != skip {
                all.merge(&s.owned_space());
            }
        }
        all
    }

    /// Make-before-break headroom: can every switch absorb this epoch's
    /// *adds* on top of its current occupancy?
    fn headroom_check(&self, adds_per_switch: &[usize]) -> Result<(), AdmissionError> {
        for (sw, &need) in adds_per_switch.iter().enumerate() {
            let free = self.switches[sw].config().table_capacity
                - self.switches[sw].total_entries();
            if need > free {
                return Err(AdmissionError::TableHeadroom { switch: sw as u32, need, free });
            }
        }
        Ok(())
    }

    /// Apply a verified epoch's mods in their wire order (make-before-break,
    /// MODIFYs in place; see [`crate::epoch`]). Headroom was pre-checked,
    /// so installs cannot fail.
    fn apply_epoch(&mut self, plan: &Plan) -> EpochReport {
        for (sw, table, m) in plan.epoch.mods.iter() {
            if let Err(e) = self.switches[*sw as usize].apply(*table, m.clone()) {
                unreachable!("headroom pre-checked before applying the epoch: {e}");
            }
        }
        plan.epoch.report(self.switches.len())
    }

    /// The connectivity intent of a hypothetical slice set: every current
    /// slice except `skip`, plus `extra` — the shape admission, make-before-
    /// break reconfiguration and teardown each verify against.
    fn intent_with(&self, skip: Option<SliceId>, extra: Option<&Slice>) -> Intent {
        fn push(intent: &mut Intent, s: &Slice) {
            intent.push_domain(
                &format!("{}:{}", s.id, s.name),
                &s.topology,
                &s.projection,
                |h| s.host_addr(h),
            );
        }
        let mut intent = Intent::new();
        for s in self.slices.values() {
            if Some(s.id) != skip {
                push(&mut intent, s);
            }
        }
        if let Some(s) = extra {
            push(&mut intent, s);
        }
        intent
    }

    /// The intent the live tables are currently expected to implement.
    pub fn intent(&self) -> Intent {
        self.intent_with(None, None)
    }

    /// A proof of the *current* live tables, building it on first use and
    /// caching it for delta checks.
    fn current_verifier(&mut self) -> Verifier {
        match self.verifier.take() {
            Some(v) => v,
            None => Verifier::check(
                &self.cluster,
                TableView::of_switches(&self.switches),
                self.intent(),
            ),
        }
    }

    /// Statically verify a full pass over the live tables against the
    /// current intent, and cache the proof. Zero packet injections.
    pub fn verify_report(&mut self) -> sdt_verify::VerifyReport {
        let v = self.current_verifier();
        let report = v.report().clone();
        self.verifier = Some(v);
        report
    }

    /// Run a full proof over the live tables — even when a cached proof
    /// exists — and return it with the fast-path statistics (collapsed
    /// walks, destiny states resolved): the numbers behind
    /// `sdtctl verify --stats`.
    pub fn verify_report_with_stats(&mut self) -> (sdt_verify::VerifyReport, VerifyStats) {
        let v = Verifier::check(
            &self.cluster,
            TableView::of_switches(&self.switches),
            self.intent(),
        );
        let report = v.report().clone();
        let stats = v.stats().clone();
        self.verifier = Some(v);
        (report, stats)
    }

    /// The one pre-install gate: prove the live tables plus an epoch's
    /// `mods` (in wire order) against `intent` — would the tables *after*
    /// this epoch still be loop-free,
    /// blackhole-free and isolated? On success returns the proof of the
    /// current tables and the proof of the pending ones, both out of the
    /// cache (the caller installs whichever describes the tables it leaves
    /// behind); on failure the current proof goes back into the cache, the
    /// error names the violation, and nothing is applied.
    fn gate(
        &mut self,
        mods: &[(u32, u8, FlowMod)],
        intent: Intent,
    ) -> Result<(Verifier, Verifier), AdmissionError> {
        let current = self.current_verifier();
        let pending = Verifier::check_delta(&current, mods, intent);
        if pending.holds() {
            Ok((current, pending))
        } else {
            let summary = pending.report().summary();
            self.verifier = Some(current);
            Err(AdmissionError::StaticViolation(summary))
        }
    }

    /// Statically verify a pending epoch against the live tables plus its
    /// delta and the current intent, without applying anything. Live
    /// tables are untouched either way.
    pub fn precheck_epoch(&mut self, epoch: &Epoch) -> Result<(), AdmissionError> {
        let (current, _) = self.gate(&epoch.mods, self.intent())?;
        self.verifier = Some(current);
        Ok(())
    }

    /// Plan one lifecycle operation against the current state: project the
    /// requested topology around co-tenants, resolve its namespace, diff
    /// the slice's installed pipeline into an epoch, and check table
    /// headroom and namespace ownership. Pure — nothing is installed, no
    /// manager state moves; a refusal names the scarce resource.
    pub fn plan(&self, op: SliceOp) -> Result<Plan, AdmissionError> {
        let known =
            |id: SliceId| self.slices.get(&id.0).ok_or(AdmissionError::UnknownSlice(id));
        let (id, old, request) = match op {
            SliceOp::Create { name, topo, routes } => {
                (SliceId(self.next_id), None, Some((name, topo, routes)))
            }
            SliceOp::Reconfigure { id, topo, routes } => {
                let old = known(id)?;
                (id, Some(old), Some((old.name.clone(), topo, routes)))
            }
            SliceOp::Destroy { id } => (id, Some(known(id)?), None),
        };

        let mut fresh_namespace = false;
        let after = match request {
            None => None,
            Some((name, topology, routes)) => {
                let placement = self.place(&topology, old)?;
                // Namespace: reuse the reserved ranges when the new topology
                // fits (diff-friendly); otherwise allocate fresh ranges.
                let (switches, hosts) = (topology.num_switches(), topology.num_hosts());
                let (metadata_base, metadata_reserved, addr_base, addr_reserved) = match old {
                    Some(o) if switches <= o.metadata_reserved && hosts <= o.addr_reserved => {
                        (o.metadata_base, o.metadata_reserved, o.addr_base, o.addr_reserved)
                    }
                    _ => {
                        fresh_namespace = true;
                        (self.next_metadata, switches, self.next_addr, hosts)
                    }
                };
                let slice = SliceRecord {
                    id,
                    name,
                    request: (topology, routes),
                    placement,
                    metadata_base,
                    metadata_reserved,
                    addr_base,
                    addr_reserved,
                    epochs: old.map_or(1, |o| o.epochs + 1),
                }
                .realize(&self.projector, &self.cluster);
                Some(slice.map_err(AdmissionError::Resources)?)
            }
        };

        let empty = empty_synthesis(self.cluster.num_switches() as usize);
        let epoch = Epoch::from_diff(
            id,
            old.map_or(&empty, |s| &s.installed),
            after.as_ref().map_or(&empty, |s| &s.installed),
        );
        self.headroom_check(&epoch.adds_per_switch(self.switches.len()))?;
        // The epoch may touch the old and the new namespace of this slice.
        let mut own = OwnedSpace::default();
        for s in old.into_iter().chain(&after) {
            own.merge(&s.owned_space());
        }
        epoch
            .verify(&own, &self.owned_by_others(id))
            .map_err(|v| AdmissionError::EpochViolation(v.to_string()))?;
        Ok(Plan { id, epoch, after, fresh_namespace })
    }

    /// Place `topo` around everything co-tenants hold. `old` is the
    /// slice being reconfigured, if any: its own resources stay available
    /// to it, and its current cables are preferred where logical pairs
    /// coincide, so same-family reconfigurations diff to near-nothing.
    fn place(&self, topo: &Topology, old: Option<&Slice>) -> Result<Placement, AdmissionError> {
        let mut prefer: HashMap<(SwitchId, SwitchId), PhysLink> = HashMap::new();
        if let Some(o) = old {
            for l in o.topology.fabric_links() {
                let (a, b) = l.switch_ends();
                prefer.insert((a.min(b), a.max(b)), o.projection.link_real[&l.id]);
            }
        }
        let occ = self.occupancy_excluding(old.map(|o| o.id));
        let opts = ProjectOptions {
            failed: Some(&occ),
            prefer_cables: old.map(|_| &prefer),
            ..Default::default()
        };
        self.projector.place(topo, &self.cluster, &opts).map_err(AdmissionError::Resources)
    }

    /// Install a gated plan: apply its epoch, cache `proof` as the proof of
    /// the live tables (`None` = the caller proves a whole batch's end
    /// state afterwards), and settle the bookkeeping.
    fn commit(&mut self, plan: Plan, proof: Option<Verifier>) -> OpOutcome {
        let report = self.apply_epoch(&plan);
        self.verifier = proof;
        self.settle(plan, report)
    }

    /// The bookkeeping tail of every installed plan: namespace counters,
    /// the slice map, and the outcome the operation reports.
    fn settle(&mut self, plan: Plan, report: EpochReport) -> OpOutcome {
        let Some(slice) = plan.after else {
            let Some(gone) = self.slices.remove(&plan.id.0) else {
                unreachable!("{} was planned against this slice map", plan.id);
            };
            return OpOutcome::Destroyed(ReclaimedResources {
                host_ports: gone.projection.host_port.len(),
                cables: gone.projection.link_real.len(),
                flow_entries: gone.entries(),
            });
        };
        if plan.fresh_namespace {
            self.next_metadata += slice.metadata_reserved;
            self.next_addr += slice.addr_reserved;
        }
        match self.slices.insert(plan.id.0, slice) {
            Some(_) => OpOutcome::Reconfigured(report),
            None => {
                self.next_id += 1;
                OpOutcome::Created(plan.id)
            }
        }
    }

    /// Apply one lifecycle operation: plan it, gate the plan's epoch on
    /// the static proof of the post-operation tables, commit. Either the
    /// whole operation lands, or nothing does and the error names why —
    /// on any error the switches are exactly as before.
    pub fn apply_one(&mut self, op: SliceOp) -> Result<OpOutcome, AdmissionError> {
        let plan = self.plan(op)?;
        let intent = self.intent_with(Some(plan.id), plan.after.as_ref());
        let (_, proof) = self.gate(&plan.epoch.mods, intent)?;
        Ok(self.commit(plan, Some(proof)))
    }

    /// Admit a slice with its routes. Either the whole pipeline is
    /// installed, or nothing is and the error names the scarce resource.
    pub fn create(
        &mut self,
        name: &str,
        topo: &Topology,
        routes: RouteTable,
    ) -> Result<SliceId, AdmissionError> {
        let op = SliceOp::Create { name: name.to_string(), topo: topo.clone(), routes };
        match self.apply_one(op)? {
            OpOutcome::Created(id) => Ok(id),
            other => unreachable!("a create settles as Created, not {other:?}"),
        }
    }

    /// Make-before-break reconfiguration: project the new topology around
    /// co-tenant resources (preferring the slice's current cables so the
    /// diff stays small), install the new pipeline *next to* the old one,
    /// then cut over port by port and garbage-collect. Co-tenants' rules
    /// are untouched — the epoch is verified against their namespace before
    /// any flow-mod is applied.
    pub fn reconfigure(
        &mut self,
        id: SliceId,
        topo: &Topology,
        routes: RouteTable,
    ) -> Result<EpochReport, AdmissionError> {
        match self.apply_one(SliceOp::Reconfigure { id, topo: topo.clone(), routes })? {
            OpOutcome::Reconfigured(report) => Ok(report),
            other => unreachable!("a reconfiguration settles as Reconfigured, not {other:?}"),
        }
    }

    /// Plan a *scheduled* reconfiguration: compile the epoch into
    /// dependency-ordered rounds without applying anything. The plan can
    /// be inspected (rounds, intents) or handed to
    /// [`SliceManager::commit_scheduled`].
    pub fn plan_scheduled(
        &self,
        id: SliceId,
        topo: &Topology,
        routes: RouteTable,
    ) -> Result<MigrationPlan, AdmissionError> {
        let plan = self.plan(SliceOp::Reconfigure { id, topo: topo.clone(), routes })?;
        let before = TableView::of_switches(&self.switches);
        let rounds = crate::schedule::compile_rounds(&plan.epoch, &before);
        let pre_intent = self.intent();
        let post_intent = self.intent_with(Some(id), plan.after.as_ref());
        Ok(MigrationPlan { plan, rounds, pre_intent, post_intent })
    }

    /// Transient-safe reconfiguration: like [`SliceManager::reconfigure`],
    /// but the epoch is partitioned into dependency-ordered rounds, every
    /// intermediate table state is statically proven before its round
    /// installs, and the rounds go out over `channel` — which may drop and
    /// reorder flow-mods — with per-round read-back reconciliation (see
    /// [`crate::schedule`]).
    ///
    /// The whole epoch's end state is gated first, exactly as the one-shot
    /// path does; the per-round proofs come on top. On
    /// [`AdmissionError::ScheduleFailed`] the live switches hold the last
    /// individually-proven boundary state and the manager's bookkeeping
    /// still describes the *old* slice; the cached live-state proof is
    /// dropped either way.
    pub fn reconfigure_scheduled(
        &mut self,
        id: SliceId,
        topo: &Topology,
        routes: RouteTable,
        channel: &mut sdt_openflow::ControlChannel,
    ) -> Result<(EpochReport, crate::schedule::ScheduleReport), AdmissionError> {
        let plan = self.plan_scheduled(id, topo, routes)?;
        self.commit_scheduled(plan, channel)
    }

    /// Execute a [`MigrationPlan`]: gate the epoch's end state, then prove
    /// and install the rounds over `channel`, every boundary proven.
    pub fn commit_scheduled(
        &mut self,
        plan: MigrationPlan,
        channel: &mut sdt_openflow::ControlChannel,
    ) -> Result<(EpochReport, crate::schedule::ScheduleReport), AdmissionError> {
        let MigrationPlan { plan, rounds, pre_intent, post_intent } = plan;
        // Whole-epoch gate first. Beyond matching the one-shot contract,
        // this is what guarantees the scheduler's merge-on-failure
        // fallback terminates: the fully-merged round *is* this epoch.
        let (current, _) = self.gate(&plan.epoch.mods, post_intent.clone())?;
        match crate::schedule::install_scheduled(
            &self.cluster,
            &mut self.switches,
            channel,
            rounds,
            current,
            &pre_intent,
            &post_intent,
        ) {
            Ok((proof, sreport)) => {
                // A proof of the intended end state only describes the
                // live tables if they actually converged there.
                self.verifier = sreport.converged.then_some(proof);
                let report = plan.epoch.report(self.switches.len());
                self.settle(plan, report);
                Ok((report, sreport))
            }
            Err(e) => {
                self.verifier = None;
                Err(AdmissionError::ScheduleFailed(e.to_string()))
            }
        }
    }

    /// Tear a slice down: delete exactly its entries (table 0 first, so its
    /// ports stop classifying before the routing state goes) and return its
    /// resources. Co-tenants are untouched.
    pub fn destroy(&mut self, id: SliceId) -> Result<ReclaimedResources, AdmissionError> {
        match self.apply_one(SliceOp::Destroy { id })? {
            OpOutcome::Destroyed(reclaimed) => Ok(reclaimed),
            other => unreachable!("a teardown settles as Destroyed, not {other:?}"),
        }
    }

    /// Apply a batch of lifecycle operations with **one** static proof for
    /// the whole batch instead of one per operation, preserving exactly the
    /// accept/reject decisions and named errors sequential submission would
    /// produce.
    ///
    /// How: planning — resource projection, headroom and namespace
    /// ownership — still runs per operation, in order, against the
    /// evolving state; it is cheap and its rejections are
    /// position-dependent either way. The static proof, the expensive
    /// part, is deferred: plans commit with no proof, then a single full
    /// pass ([`Verifier::check`]) proves the batch's end state. That is
    /// sound because distinct slices occupy disjoint match-spaces (disjoint
    /// ingress ports in table 0, disjoint metadata in table 1 — enforced by
    /// [`Epoch::verify`] before anything installs), so one operation's
    /// violation cannot be masked or repaired by another slice's entries:
    /// it survives verbatim into the end state. Two operations on the
    /// *same* slice could mask each other, so a batch is split into
    /// segments at any repeated slice id and each segment proven
    /// separately.
    ///
    /// If the combined proof fails, the segment is rolled back exactly
    /// (switch banks are cloned up front) and re-run through
    /// [`SliceManager::apply_one`], whose per-operation
    /// gate attributes the named [`AdmissionError`] to the culprit(s) and
    /// admits the innocent. The slow path costs more than plain sequential
    /// submission, but only fires when a batch actually contains a
    /// statically invalid operation.
    pub fn apply_batch(
        &mut self,
        ops: Vec<SliceOp>,
    ) -> Vec<Result<OpOutcome, AdmissionError>> {
        if ops.len() <= 1 {
            return ops.into_iter().map(|op| self.apply_one(op)).collect();
        }
        let mut results = Vec::with_capacity(ops.len());
        let mut segment: Vec<SliceOp> = Vec::new();
        let mut touched: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for op in ops {
            if let Some(id) = op.slice_id() {
                if !touched.insert(id) {
                    results.extend(self.apply_segment(std::mem::take(&mut segment)));
                    touched.clear();
                    touched.insert(id);
                }
            }
            segment.push(op);
        }
        results.extend(self.apply_segment(segment));
        results
    }

    /// One same-slice-free segment of [`SliceManager::apply_batch`].
    fn apply_segment(
        &mut self,
        ops: Vec<SliceOp>,
    ) -> Vec<Result<OpOutcome, AdmissionError>> {
        if ops.len() <= 1 {
            return ops.into_iter().map(|op| self.apply_one(op)).collect();
        }
        // Proof of the pre-batch live tables (cached from the previous
        // epoch in the steady state) — restored verbatim on rollback.
        let current = self.current_verifier();
        let saved_switches = self.switches.clone();
        let saved_slices = self.slices.clone();
        let saved_counters = (self.next_id, self.next_metadata, self.next_addr);

        // Fast path: plan and commit in order, every proof deferred.
        let fast: Vec<Result<OpOutcome, AdmissionError>> = ops
            .iter()
            .cloned()
            .map(|op| self.plan(op).map(|plan| self.commit(plan, None)))
            .collect();

        if fast.iter().all(|r| r.is_err()) {
            // Nothing installed; the pre-batch proof still describes the
            // live tables.
            self.verifier = Some(current);
            return fast;
        }
        let pending = Verifier::check(
            &self.cluster,
            TableView::of_switches(&self.switches),
            self.intent(),
        );
        if pending.holds() {
            self.verifier = Some(pending);
            return fast;
        }

        // Slow path: exact rollback (the restored bank is the clone, bit
        // for bit), then sequential re-run with per-operation proofs to
        // name the culprit(s).
        self.switches = saved_switches;
        self.slices = saved_slices;
        (self.next_id, self.next_metadata, self.next_addr) = saved_counters;
        self.verifier = Some(current);
        ops.into_iter().map(|op| self.apply_one(op)).collect()
    }

    /// Dump the manager's mutable state for persistence: what admission
    /// decided for each slice, namespace counters, and the digests of the
    /// live per-switch tables. The physical cluster itself is wiring,
    /// not state — the caller persists its build parameters and hands an
    /// identically wired cluster back to [`SliceManager::restore`].
    pub fn export(&self) -> ManagerExport {
        ManagerExport {
            slices: self
                .slices
                .values()
                .map(|s| SliceRecord {
                    id: s.id,
                    name: s.name.clone(),
                    request: (s.topology.clone(), s.routes.clone()),
                    placement: Placement::of(&s.projection),
                    metadata_base: s.metadata_base,
                    metadata_reserved: s.metadata_reserved,
                    addr_base: s.addr_base,
                    addr_reserved: s.addr_reserved,
                    epochs: s.epochs,
                })
                .collect(),
            next_id: self.next_id,
            next_metadata: self.next_metadata,
            next_addr: self.next_addr,
            digests: self
                .switches
                .iter()
                .map(|sw| [sw.table(0).store().digest(), sw.table(1).store().digest()])
                .collect(),
        }
    }

    /// Rebuild a manager from an [`ManagerExport`] over a freshly wired
    /// cluster. Each slice is rebuilt from its record the way admission
    /// built it ([`SdtProjector::realize`], then [`remap_synthesis`]), once
    /// its placement is checked against the cluster and its topology
    /// ([`Placement::check`]) and its namespace against the counters. Each
    /// switch's tables are then the merge of its slices' installed tables
    /// in key order — what the live tables hold, since a table is its
    /// entry set — and must match the export's digests; a table that does
    /// not is refused by switch and table, naming the slices with entries
    /// there. The first proof after a restore is a full
    /// [`Verifier::check`] pass. The restored manager's verifiable
    /// behavior — admission decisions, verify findings, audit results — is
    /// byte-identical to the exporter's.
    pub fn restore(
        cluster: PhysicalCluster,
        export: ManagerExport,
    ) -> Result<SliceManager, RestoreError> {
        let mut mgr = SliceManager::new(cluster);
        if export.digests.len() != mgr.switches.len() {
            return Err(RestoreError(format!(
                "dump has {} switch digest(s), cluster has {} switch(es)",
                export.digests.len(),
                mgr.switches.len()
            )));
        }
        // A namespace covers its topology and lies below the counters that
        // allocated it, as `plan` leaves it: then remapping cannot overflow.
        let inside = |base: u32, reserved: u32, need: u32, next: u32| {
            need <= reserved && base.checked_add(reserved).is_some_and(|end| end <= next)
        };
        let (next_md, next_addr) = (export.next_metadata, export.next_addr);
        let mut slices = BTreeMap::new();
        for rec in export.slices {
            let (id, t, r) = (rec.id, &rec.request.0, &rec);
            let checked = if inside(r.metadata_base, r.metadata_reserved, t.num_switches(), next_md)
                && inside(r.addr_base, r.addr_reserved, t.num_hosts(), next_addr)
            {
                rec.placement.check(t, &mgr.cluster)
            } else {
                Err("namespace outside what was allocated".into())
            };
            let slice = checked
                .and_then(|()| rec.realize(&mgr.projector, &mgr.cluster).map_err(|e| e.to_string()))
                .map_err(|e| RestoreError(format!("{id}: {e}")))?;
            slices.insert(id.0, slice);
        }
        fn installed(s: &Slice, t: usize, sw: usize) -> &[FlowEntry] {
            &[&s.installed.table0, &s.installed.table1][t][sw]
        }
        for (sw, digests) in export.digests.iter().enumerate() {
            for (t, want) in digests.iter().enumerate() {
                let entries = slices.values().flat_map(|s| installed(s, t, sw).iter().copied());
                let store = EntryStore::from_ordered(entries.collect());
                if store.digest() != *want {
                    let there = slices.values().filter(|s| !installed(s, t, sw).is_empty());
                    let there: Vec<String> = there.map(|s| s.id.to_string()).collect();
                    return Err(RestoreError(format!(
                        "switch {sw} table {t}: the slices' entries do not match the digest \
                         (slices with entries there: {})",
                        if there.is_empty() { "none".to_string() } else { there.join(", ") }
                    )));
                }
                mgr.switches[sw]
                    .adopt(t as u8, Arc::new(store))
                    .map_err(|e| RestoreError(format!("switch {sw}: {e}")))?;
            }
        }
        mgr.slices = slices;
        mgr.next_id = export.next_id;
        mgr.next_metadata = export.next_metadata;
        mgr.next_addr = export.next_addr;
        Ok(mgr)
    }

    /// Resource accounting snapshot: per-switch table occupancy, port and
    /// cable pools, and every slice's reservations.
    pub fn status(&self) -> ManagerStatus {
        let switches = self
            .switches
            .iter()
            .enumerate()
            .map(|(i, sw)| SwitchOccupancy {
                switch: i as u32,
                capacity: sw.config().table_capacity,
                used: sw.total_entries(),
                free: sw.config().table_capacity - sw.total_entries(),
            })
            .collect();
        let slices: Vec<SliceStatus> = self
            .slices
            .values()
            .map(|s| SliceStatus {
                id: s.id,
                name: s.name.clone(),
                topology: s.topology.name().to_string(),
                switches: s.topology.num_switches(),
                hosts: s.topology.num_hosts(),
                host_ports: s.projection.host_port.len(),
                cables: s.projection.link_real.len(),
                entries: s.entries(),
                metadata_range: (s.metadata_base, s.metadata_base + s.metadata_reserved),
                addr_range: (s.addr_base, s.addr_base + s.addr_reserved),
                epochs: s.epochs,
            })
            .collect();
        // Equal on a healthy fabric; `live > owned` means orphaned entries.
        let live: usize = self.switches.iter().map(|s| s.total_entries()).sum();
        let owned: usize = slices.iter().map(|s| s.entries).sum();
        ManagerStatus {
            orphan_entries: live.saturating_sub(owned),
            host_ports_total: self.cluster.host_ports().len(),
            host_ports_used: slices.iter().map(|s| s.host_ports).sum(),
            cables_total: self.cluster.links().len(),
            cables_used: slices.iter().map(|s| s.cables).sum(),
            switches,
            slices,
        }
    }
}

/// Rewrite a synthesized pipeline into a slice's namespace: table-1
/// metadata and host addresses get the slice's bases added (actions and
/// matches alike). Table-0 ingress-port matches stay as synthesized — the
/// ports themselves are slice-disjoint.
pub fn remap_synthesis(s: &SynthesisOutput, metadata_base: u32, addr_base: u32) -> SynthesisOutput {
    let shift_addr = |a: Option<HostAddr>| a.map(|HostAddr(x)| HostAddr(x + addr_base));
    let mut out = SynthesisOutput {
        table0: Vec::with_capacity(s.table0.len()),
        table1: Vec::with_capacity(s.table1.len()),
        entries_per_switch: s.entries_per_switch.clone(),
    };
    for t0 in &s.table0 {
        out.table0.push(
            t0.iter()
                .map(|&e| {
                    let action = match e.action {
                        Action::WriteMetadataGoto(md) => {
                            Action::WriteMetadataGoto(md + metadata_base)
                        }
                        other => other,
                    };
                    FlowEntry { action, ..e }
                })
                .collect::<Vec<_>>()
                .into(),
        );
    }
    for t1 in &s.table1 {
        out.table1.push(
            t1.iter()
                .map(|&e| {
                    let mut m = e.m;
                    m.metadata = m.metadata.map(|md| md + metadata_base);
                    m.src = shift_addr(m.src);
                    m.dst = shift_addr(m.dst);
                    FlowEntry { m, ..e }
                })
                .collect::<Vec<_>>()
                .into(),
        );
    }
    out
}

fn empty_synthesis(num_switches: usize) -> SynthesisOutput {
    SynthesisOutput {
        table0: vec![Table::default(); num_switches],
        table1: vec![Table::default(); num_switches],
        entries_per_switch: vec![0; num_switches],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_routes;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_topology::chain::{chain, ring};
    use sdt_topology::fattree::fat_tree;
    use sdt_topology::meshtorus::mesh;

    fn small_cluster() -> PhysicalCluster {
        ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(12)
            .build()
    }

    #[test]
    fn two_slices_coexist_with_disjoint_resources() {
        let mut mgr = SliceManager::new(small_cluster());
        let a = mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let b = mgr.create("b", &ring(5), default_routes(&ring(5))).unwrap();
        assert_eq!(mgr.num_slices(), 2);
        let (sa, sb) = (mgr.slice(a).unwrap(), mgr.slice(b).unwrap());
        // Disjoint host ports and cables.
        for p in sa.projection.host_port.values() {
            assert!(!sb.projection.host_port.values().any(|q| q == p));
        }
        for c in sa.projection.link_real.values() {
            assert!(!sb.projection.link_real.values().any(|d| (d.a, d.b) == (c.a, c.b)));
        }
        // Disjoint namespaces.
        assert!(sa.metadata_base + sa.metadata_reserved <= sb.metadata_base);
        assert!(sa.addr_base + sa.addr_reserved <= sb.addr_base);
        // Live occupancy equals the slices' bookkeeping.
        let status = mgr.status();
        let live: usize = status.switches.iter().map(|s| s.used).sum();
        assert_eq!(live, sa.entries() + sb.entries());
    }

    #[test]
    fn admission_rejects_with_true_free_counts() {
        // 16 host ports per switch; first slice takes 16 of 32.
        let mut mgr = SliceManager::new(small_cluster());
        mgr.create("big", &fat_tree(4), default_routes(&fat_tree(4))).unwrap();
        // A second fat-tree needs more inter-switch cables than the first
        // one left free; the error must report the *remaining* free count
        // (4 of 12 cables left after the first tenant took 8), not the raw
        // wiring.
        let err = mgr.create("bigger", &fat_tree(4), default_routes(&fat_tree(4))).unwrap_err();
        match err {
            AdmissionError::Resources(ProjectionError::NotEnoughInterLinks {
                need,
                have,
                ..
            }) => {
                assert!(have < need, "free count must reflect the co-tenant ({have} >= {need})");
                assert!(have < 12, "raw wiring is 12 per pair; {have} must be what is left");
            }
            other => panic!("unexpected admission error: {other:?}"),
        }
        // Honest rejection: nothing was installed.
        assert_eq!(mgr.num_slices(), 1);
    }

    #[test]
    fn table_headroom_rejection_is_structured_and_clean() {
        let mut model = SwitchModel::openflow_128x100g();
        model.table_capacity = 150; // enough for one small slice only
        let cluster = ClusterBuilder::new(model, 1).hosts_per_switch(24).build();
        let mut mgr = SliceManager::new(cluster);
        mgr.create("first", &chain(8), default_routes(&chain(8))).unwrap();
        let before: Vec<usize> =
            mgr.switches().iter().map(|s| s.total_entries()).collect();
        let err = mgr.create("second", &chain(8), default_routes(&chain(8))).unwrap_err();
        match err {
            AdmissionError::TableHeadroom { switch, need, free } => {
                assert_eq!(switch, 0);
                assert!(need > free, "{need} vs {free}");
            }
            other => panic!("unexpected admission error: {other:?}"),
        }
        let after: Vec<usize> = mgr.switches().iter().map(|s| s.total_entries()).collect();
        assert_eq!(before, after, "rejection must not leave a partial install");
    }

    #[test]
    fn destroy_returns_exact_reservation() {
        let mut mgr = SliceManager::new(small_cluster());
        let a = mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let b = mgr.create("b", &mesh(&[2, 2]), default_routes(&mesh(&[2, 2]))).unwrap();
        let sb = mgr.slice(b).unwrap();
        let expect = ReclaimedResources {
            host_ports: sb.projection.host_port.len(),
            cables: sb.projection.link_real.len(),
            flow_entries: sb.entries(),
        };
        let live_before: usize = mgr.switches().iter().map(|s| s.total_entries()).sum();
        let got = mgr.destroy(b).unwrap();
        assert_eq!(got, expect);
        let live_after: usize = mgr.switches().iter().map(|s| s.total_entries()).sum();
        assert_eq!(live_before - live_after, expect.flow_entries);
        // Slice a is untouched and still fully installed.
        assert_eq!(live_after, mgr.slice(a).unwrap().entries());
        assert!(mgr.slice(b).is_none());
        assert!(matches!(
            mgr.destroy(b),
            Err(AdmissionError::UnknownSlice(_))
        ));
    }

    #[test]
    fn reconfigure_prefers_existing_cables() {
        let mut mgr = SliceManager::new(small_cluster());
        let a = mgr.create("a", &ring(6), default_routes(&ring(6))).unwrap();
        let before = mgr.slice(a).unwrap().projection.link_real.clone();
        // Same topology: the epoch should be empty (pure reuse).
        let report = mgr.reconfigure(a, &ring(6), default_routes(&ring(6))).unwrap();
        assert_eq!(report.flow_mods(), 0, "identical topology must diff to nothing");
        assert_eq!(mgr.slice(a).unwrap().projection.link_real, before);
        assert_eq!(mgr.slice(a).unwrap().epochs, 2);
    }

    #[test]
    fn reconfigure_to_larger_topology_allocates_fresh_namespace() {
        let mut mgr = SliceManager::new(small_cluster());
        let a = mgr.create("a", &chain(3), default_routes(&chain(3))).unwrap();
        let (mb, ab) =
            (mgr.slice(a).unwrap().metadata_base, mgr.slice(a).unwrap().addr_base);
        mgr.reconfigure(a, &chain(8), default_routes(&chain(8))).unwrap();
        let s = mgr.slice(a).unwrap();
        assert!(s.metadata_base > mb || s.addr_base > ab, "larger topology → fresh ranges");
        assert_eq!(s.metadata_reserved, 8);
        // The old namespace's entries are gone from the live switches.
        for sw in mgr.switches() {
            for e in sw.table(1).entries() {
                let md = e.m.metadata.unwrap();
                assert!(md >= s.metadata_base && md < s.metadata_base + s.metadata_reserved);
            }
        }
    }

    /// Drive the same op list through `apply_one` on one manager and
    /// `apply_batch` on another; the decisions, named errors, bookkeeping
    /// and live tables must be indistinguishable.
    fn assert_batch_matches_sequential(ops: Vec<SliceOp>) {
        let mut seq = SliceManager::new(small_cluster());
        let mut bat = SliceManager::new(small_cluster());
        let seq_results: Vec<_> =
            ops.iter().cloned().map(|op| seq.apply_one(op)).collect();
        let bat_results = bat.apply_batch(ops);
        assert_eq!(seq_results.len(), bat_results.len());
        for (i, (s, b)) in seq_results.iter().zip(&bat_results).enumerate() {
            match (s, b) {
                (Ok(OpOutcome::Created(x)), Ok(OpOutcome::Created(y))) => {
                    assert_eq!(x, y, "op {i}")
                }
                (Ok(OpOutcome::Reconfigured(x)), Ok(OpOutcome::Reconfigured(y))) => {
                    assert_eq!(x.flow_mods(), y.flow_mods(), "op {i}")
                }
                (Ok(OpOutcome::Destroyed(x)), Ok(OpOutcome::Destroyed(y))) => {
                    assert_eq!(x, y, "op {i}")
                }
                (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string(), "op {i}"),
                other => panic!("op {i}: sequential vs batched diverged: {other:?}"),
            }
        }
        assert_eq!(format!("{:?}", seq.status()), format!("{:?}", bat.status()));
        for (a, b) in seq.switches().iter().zip(bat.switches()) {
            assert_eq!(a.table(0).entries(), b.table(0).entries());
            assert_eq!(a.table(1).entries(), b.table(1).entries());
        }
        assert!(seq.verify_report().holds() == bat.verify_report().holds());
    }

    #[test]
    fn batch_admission_matches_sequential_accepts_and_rejects() {
        // Mix of accepts and position-dependent rejects: the second
        // fat-tree no longer fits next to the first, the unknown-slice
        // destroy fails by name, the last chain still fits.
        let op = |t: &Topology, n: &str| SliceOp::Create {
            name: n.to_string(),
            topo: t.clone(),
            routes: default_routes(t),
        };
        assert_batch_matches_sequential(vec![
            op(&fat_tree(4), "a"),
            op(&fat_tree(4), "b"),
            SliceOp::Destroy { id: SliceId(99) },
            op(&chain(3), "c"),
        ]);
    }

    #[test]
    fn batch_splits_same_slice_segments() {
        // Two reconfigurations of the same slice in one batch: the segment
        // split keeps the combined-proof argument sound, and the end state
        // must equal sequential submission's.
        let mut setup = SliceManager::new(small_cluster());
        let a = setup.create("a", &ring(4), default_routes(&ring(4))).unwrap();
        drop(setup);
        let re = |t: &Topology| SliceOp::Reconfigure {
            id: a,
            topo: t.clone(),
            routes: default_routes(t),
        };
        let mk = |t: &Topology, n: &str| SliceOp::Create {
            name: n.to_string(),
            topo: t.clone(),
            routes: default_routes(t),
        };
        assert_batch_matches_sequential(vec![
            mk(&ring(4), "a"),
            re(&chain(5)),
            re(&ring(6)),
            SliceOp::Destroy { id: a },
        ]);
    }

    #[test]
    fn batch_fallback_names_static_violations() {
        // Corrupt the live tables behind the manager's back, so every
        // subsequent proof fails: the batch's combined proof fails, the
        // rollback path re-runs per-op, and both ops come back with the
        // named StaticViolation — exactly like sequential submission.
        fn corrupted() -> SliceManager {
            let mut mgr = SliceManager::new(small_cluster());
            mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
            let e = *mgr.switches()[0].table(1).entries().first().unwrap();
            mgr.switches_mut()[0]
                .apply(1, sdt_openflow::FlowMod::Delete(e.m, e.priority))
                .unwrap();
            mgr
        }
        let op = |t: &Topology, n: &str| SliceOp::Create {
            name: n.to_string(),
            topo: t.clone(),
            routes: default_routes(t),
        };
        let mut seq = corrupted();
        let mut bat = corrupted();
        let ops = vec![op(&chain(3), "b"), op(&ring(3), "c")];
        let seq_r: Vec<_> = ops.iter().cloned().map(|o| seq.apply_one(o)).collect();
        let bat_r = bat.apply_batch(ops);
        for (s, b) in seq_r.iter().zip(&bat_r) {
            let (Err(se), Err(be)) = (s, b) else {
                panic!("corrupted fabric must reject: {s:?} vs {b:?}")
            };
            assert!(matches!(se, AdmissionError::StaticViolation(_)), "{se}");
            assert_eq!(se.to_string(), be.to_string());
        }
        // Rollback was exact: nothing new installed on either manager.
        assert_eq!(seq.num_slices(), 1);
        assert_eq!(bat.num_slices(), 1);
        for (a, b) in seq.switches().iter().zip(bat.switches()) {
            assert_eq!(a.table(1).entries(), b.table(1).entries());
        }
    }

    #[test]
    fn export_restore_round_trips_state_and_decisions() {
        let mut mgr = SliceManager::new(small_cluster());
        let a = mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let b = mgr.create("b", &ring(5), default_routes(&ring(5))).unwrap();
        mgr.reconfigure(b, &ring(6), default_routes(&ring(6))).unwrap();
        mgr.destroy(a).unwrap();
        let report_before = mgr.verify_report();

        let export = mgr.export();
        let mut back = SliceManager::restore(small_cluster(), export).unwrap();

        // Bookkeeping, live tables and verifier findings are identical.
        assert_eq!(format!("{:?}", mgr.status()), format!("{:?}", back.status()));
        for (x, y) in mgr.switches().iter().zip(back.switches()) {
            assert_eq!(x.table(0).entries(), y.table(0).entries());
            assert_eq!(x.table(1).entries(), y.table(1).entries());
        }
        let report_after = back.verify_report();
        assert_eq!(format!("{report_before:?}"), format!("{report_after:?}"));

        // Ids are never reused: the restored manager continues the id
        // sequence instead of resurrecting slice a's.
        let c1 = mgr.create("c", &chain(3), default_routes(&chain(3))).unwrap();
        let c2 = back.create("c", &chain(3), default_routes(&chain(3))).unwrap();
        assert_eq!(c1, c2);
        assert!(c1.0 > b.0);
    }

    #[test]
    fn restore_rejects_mismatched_cluster_or_orphans() {
        let mut mgr = SliceManager::new(small_cluster());
        mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let export = mgr.export();

        // Wrong switch count.
        let one = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 1)
            .hosts_per_switch(16)
            .build();
        assert!(SliceManager::restore(one, export.clone()).is_err());

        // Orphan entries: a dump whose tables hold more than the slices own,
        // refused by switch and table.
        let mut orphaned = export.clone();
        orphaned.slices.clear();
        let err = match SliceManager::restore(small_cluster(), orphaned) {
            Err(e) => e,
            Ok(_) => panic!("orphaned dump must be rejected"),
        };
        let why = "switch 0 table 0: the slices' entries do not match the digest \
                   (slices with entries there: none)";
        assert!(err.to_string().contains(why), "{err}");
    }

    /// The export digests the live tables, not what the slices derive: an
    /// entry written behind the manager's back is refused on restore, by
    /// switch and table, naming the slice with entries there.
    #[test]
    fn restore_refuses_live_tables_the_slices_do_not_derive() {
        let mut mgr = SliceManager::new(small_cluster());
        mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let e = *mgr.switches()[0].table(1).entries().first().unwrap();
        let stray = FlowEntry { m: e.m.and_port(sdt_openflow::PortNo(1)), ..e };
        mgr.switches_mut()[0].apply(1, FlowMod::Add(stray)).unwrap();
        let err = match SliceManager::restore(small_cluster(), mgr.export()) {
            Err(e) => e,
            Ok(_) => panic!("a stray live entry must be refused"),
        };
        let why = "switch 0 table 1: the slices' entries do not match the digest \
                   (slices with entries there: slice-0)";
        assert!(err.to_string().contains(why), "{err}");
    }

    #[test]
    fn remap_offsets_metadata_and_addresses() {
        let t = chain(3);
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 1)
            .hosts_per_switch(4)
            .build();
        let p = SdtProjector::default().project(&t, &cluster, &default_routes(&t)).unwrap();
        let r = remap_synthesis(&p.synthesis, 100, 1000);
        for (orig, shifted) in p.synthesis.table0[0].iter().zip(&r.table0[0]) {
            match (orig.action, shifted.action) {
                (Action::WriteMetadataGoto(a), Action::WriteMetadataGoto(b)) => {
                    assert_eq!(b, a + 100)
                }
                other => panic!("unexpected actions {other:?}"),
            }
            assert_eq!(orig.m, shifted.m);
        }
        for (orig, shifted) in p.synthesis.table1[0].iter().zip(&r.table1[0]) {
            assert_eq!(shifted.m.metadata, orig.m.metadata.map(|m| m + 100));
            assert_eq!(shifted.m.dst, orig.m.dst.map(|HostAddr(d)| HostAddr(d + 1000)));
        }
        assert_eq!(r.entries_per_switch, p.synthesis.entries_per_switch);
    }
}
