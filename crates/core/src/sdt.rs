//! Link Projection — the SDT projection algorithm (§IV).
//!
//! Given a logical topology, a physical cluster with fixed cabling, and a
//! routing table, [`SdtProjector::project`] produces an [`SdtProjection`]:
//!
//! 1. the logical switch graph is partitioned across the physical switches
//!    (METIS-like multilevel cut: minimal inter-switch links, balanced port
//!    usage — §IV-C);
//! 2. every logical fabric link is assigned a concrete cable — a *self-link*
//!    when both endpoints land on the same physical switch, an
//!    *inter-switch link* when they cross the cut (Eq. 1–2 of the paper);
//! 3. every host is assigned a host port on its logical switch's physical
//!    switch;
//! 4. ports are grouped into *sub-switches* and the two-table OpenFlow
//!    pipeline is synthesized (see [`crate::synthesis`]).
//!
//! When the fixed cabling cannot carry the topology, projection fails with
//! a [`ProjectionError`] that tells the operator exactly which resource is
//! short and by how much — the §V-1 checking function's "inform the user of
//! the necessary link modification".

use crate::cluster::{PhysLink, PhysPort, PhysicalCluster};
use crate::synthesis::{synthesize_flow_tables, synthesize_flow_tables_merged, SynthesisOutput};
use sdt_openflow::install_time_ns;
use sdt_partition::{partition_topology, PartitionConfig};
use sdt_routing::RouteTable;
use sdt_topology::{HostId, LinkId, SwitchId, Topology};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Physical resources the failure detector has declared unusable. A
/// re-projection under faults treats these as if the cables were never
/// wired — the §V-1 checking function then reports exactly what capacity
/// the surviving plant is short of, instead of silently re-using a dead
/// cable.
#[derive(Clone, Debug, Default)]
pub struct FailedResources {
    /// Dead cables, keyed by normalized (min, max) endpoint pair.
    cables: HashSet<(PhysPort, PhysPort)>,
    /// Dead individual ports (port-level degradation/fault).
    ports: HashSet<PhysPort>,
}

impl FailedResources {
    /// Nothing failed.
    pub fn new() -> Self {
        FailedResources::default()
    }

    /// Mark a cable dead (both directions).
    pub fn fail_cable(&mut self, cable: &PhysLink) {
        self.cables.insert(Self::key(cable.a, cable.b));
    }

    /// Mark a single physical port dead; every cable touching it is
    /// unusable.
    pub fn fail_port(&mut self, p: PhysPort) {
        self.ports.insert(p);
    }

    /// True when no resource is marked failed.
    pub fn is_empty(&self) -> bool {
        self.cables.is_empty() && self.ports.is_empty()
    }

    /// Failed cables + failed ports marked so far.
    pub fn len(&self) -> usize {
        self.cables.len() + self.ports.len()
    }

    /// Is this cable still usable?
    pub fn cable_ok(&self, cable: &PhysLink) -> bool {
        !self.cables.contains(&Self::key(cable.a, cable.b))
            && !self.ports.contains(&cable.a)
            && !self.ports.contains(&cable.b)
    }

    /// Is this host port still usable?
    pub fn port_ok(&self, p: PhysPort) -> bool {
        !self.ports.contains(&p)
    }

    fn key(a: PhysPort, b: PhysPort) -> (PhysPort, PhysPort) {
        (a.min(b), a.max(b))
    }
}

/// Knobs for [`SdtProjector::project_with`] beyond the happy path.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProjectOptions<'a> {
    /// Reuse a previous partition instead of re-partitioning. Incremental
    /// recovery passes the old assignment so only cable choices change and
    /// the table diff stays small.
    pub fixed_assignment: Option<&'a [u32]>,
    /// Resources to avoid (failed cables/ports).
    pub failed: Option<&'a FailedResources>,
    /// Cable preferences keyed by normalized logical endpoint pair: when
    /// the preferred cable is still free and healthy, reuse it. This is
    /// what keeps a recovery re-projection's flow-table diff proportional
    /// to the damage instead of to the topology.
    pub prefer_cables: Option<&'a HashMap<(SwitchId, SwitchId), PhysLink>>,
}

/// Why a projection cannot be deployed on the given cluster.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProjectionError {
    /// A physical switch has fewer free self-links than the sub-topology
    /// assigned to it needs.
    NotEnoughSelfLinks {
        /// Physical switch.
        switch: u32,
        /// Self-links required.
        need: usize,
        /// Self-links wired.
        have: usize,
    },
    /// A switch pair has fewer inter-switch cables than cut edges.
    NotEnoughInterLinks {
        /// Unordered physical switch pair.
        pair: (u32, u32),
        /// Inter-switch links required.
        need: usize,
        /// Inter-switch links wired.
        have: usize,
    },
    /// A physical switch has fewer host ports than hosts assigned.
    NotEnoughHostPorts {
        /// Physical switch.
        switch: u32,
        /// Host ports required.
        need: usize,
        /// Host ports wired.
        have: usize,
    },
    /// The synthesized pipeline exceeds the switch's table capacity
    /// (§VII-C).
    TableCapacity {
        /// Physical switch.
        switch: u32,
        /// Entries required.
        need: usize,
        /// Entry capacity.
        capacity: usize,
    },
}

impl fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectionError::NotEnoughSelfLinks { switch, need, have } => write!(
                f,
                "physical switch {switch}: {need} self-links needed, {have} wired — add {} cables",
                need - have
            ),
            ProjectionError::NotEnoughInterLinks { pair, need, have } => write!(
                f,
                "switch pair {pair:?}: {need} inter-switch links needed, {have} wired — add {}",
                need - have
            ),
            ProjectionError::NotEnoughHostPorts { switch, need, have } => write!(
                f,
                "physical switch {switch}: {need} host ports needed, {have} reserved"
            ),
            ProjectionError::TableCapacity { switch, need, capacity } => write!(
                f,
                "physical switch {switch}: pipeline needs {need} entries, capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ProjectionError {}

/// What [`SdtProjector::place`] decided for one topology, given what was
/// free; the rest of an [`SdtProjection`] follows ([`SdtProjector::realize`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Logical switch -> physical switch.
    pub assignment: Vec<u32>,
    /// Logical fabric link -> the cable realizing it.
    pub link_real: HashMap<LinkId, PhysLink>,
    /// Host attachment (host, host link) -> physical host port.
    pub host_port: HashMap<(HostId, LinkId), PhysPort>,
}

impl Placement {
    /// The decisions inside a projection.
    pub fn of(p: &SdtProjection) -> Placement {
        let (assignment, link_real) = (p.assignment.clone(), p.link_real.clone());
        Placement { assignment, link_real, host_port: p.host_port.clone() }
    }

    /// Does this placement fit `topo` on `cluster`, for
    /// [`SdtProjector::realize`] to index by? Every logical switch on a
    /// physical one, every fabric link on a cable the cluster has between
    /// its endpoints' switches, every host attachment on a host port of its
    /// switch, nothing else listed. The error names what does not fit.
    pub fn check(&self, topo: &Topology, cluster: &PhysicalCluster) -> Result<(), String> {
        let (a, k, n) = (&self.assignment, cluster.num_switches(), topo.num_switches());
        if a.len() != n as usize {
            return Err(format!("assignment covers {} of {n} logical switches", a.len()));
        }
        if let Some(s) = a.iter().position(|&p| p >= k) {
            return Err(format!("assignment puts switch {s} on physical switch {}, of {k}", a[s]));
        }
        let mut listed = (0, 0);
        for l in topo.fabric_links() {
            listed.0 += 1;
            let Some(cable) = self.link_real.get(&l.id) else {
                return Err(format!("fabric link {} has no cable", l.id.0));
            };
            let (sa, sb) = l.switch_ends();
            let ends = [(cable.a.switch, cable.b.switch), (cable.b.switch, cable.a.switch)];
            let joins = ends.contains(&(a[sa.idx()], a[sb.idx()]));
            if !joins || cluster.link_at(cable.a) != Some(cable) {
                return Err(format!("link {}: no cable {cable:?} between its switches", l.id.0));
            }
        }
        for h in (0..topo.num_hosts()).map(HostId) {
            for &(s, lid) in topo.attachments(h) {
                listed.1 += 1;
                match self.host_port.get(&(h, lid)) {
                    Some(&p) if p.switch == a[s.idx()] && cluster.is_host_port(p) => {}
                    p => return Err(format!("host {}: {p:?} is no host port of its switch", h.0)),
                }
            }
        }
        if listed != (self.link_real.len(), self.host_port.len()) {
            let (links, hosts) = listed;
            return Err(format!("more cables or ports listed than {links} links, {hosts} hosts"));
        }
        Ok(())
    }
}

/// A deployed (or deployable) projection of one logical topology.
#[derive(Clone, Debug)]
pub struct SdtProjection {
    /// Logical switch -> physical switch.
    pub assignment: Vec<u32>,
    /// Logical fabric link -> the cable realizing it.
    pub link_real: HashMap<LinkId, PhysLink>,
    /// Logical directed port (switch, incident link) -> physical port.
    pub port_of: HashMap<(SwitchId, LinkId), PhysPort>,
    /// Host attachment (host, host link) -> physical host port.
    pub host_port: HashMap<(HostId, LinkId), PhysPort>,
    /// Per physical switch: sub-switches as (logical switch, its ports).
    pub subswitches: Vec<Vec<(SwitchId, Vec<PhysPort>)>>,
    /// Synthesized pipeline entries.
    pub synthesis: SynthesisOutput,
    /// Cut size: logical links that crossed physical switches.
    pub inter_switch_links_used: usize,
}

impl SdtProjection {
    /// Primary physical host port of a host (its first attachment).
    pub fn primary_host_port(&self, topo: &Topology, h: HostId) -> PhysPort {
        let (_, lid) = topo.attachments(h)[0];
        self.host_port[&(h, lid)]
    }

    /// Total pipeline entries across the cluster.
    pub fn total_entries(&self) -> usize {
        self.synthesis.entries_per_switch.iter().sum()
    }

    /// Estimated deployment/reconfiguration time: flow-mod installs on the
    /// busiest switch (switches install in parallel) plus the barrier.
    pub fn deploy_time_ns(&self) -> u64 {
        let max_entries = self.synthesis.entries_per_switch.iter().copied().max().unwrap_or(0);
        install_time_ns(max_entries)
    }
}

/// The SDT projector (Link Projection).
#[derive(Clone, Debug, Default)]
pub struct SdtProjector {
    /// §VII-C mitigation: when the synthesized pipeline exceeds a switch's
    /// table capacity, retry with per-sub-switch default-route merging
    /// before giving up.
    pub merge_entries_on_overflow: bool,
}

impl SdtProjector {
    /// Project `topo` onto `cluster`, synthesizing flow tables that realize
    /// `routes`.
    pub fn project(
        &self,
        topo: &Topology,
        cluster: &PhysicalCluster,
        routes: &RouteTable,
    ) -> Result<SdtProjection, ProjectionError> {
        self.project_with(topo, cluster, routes, &ProjectOptions::default())
    }

    /// [`project`](Self::project) with explicit options: reuse a previous
    /// partition and/or route around failed physical resources. With
    /// default options this is exactly `project`. It is
    /// [`place`](Self::place) followed by [`realize`](Self::realize).
    pub fn project_with(
        &self,
        topo: &Topology,
        cluster: &PhysicalCluster,
        routes: &RouteTable,
        opts: &ProjectOptions<'_>,
    ) -> Result<SdtProjection, ProjectionError> {
        let placement = self.place(topo, cluster, opts)?;
        self.realize(topo, cluster, routes, placement)
    }

    /// Steps 1–3, the decisions: partition, cables and host ports.
    pub fn place(
        &self,
        topo: &Topology,
        cluster: &PhysicalCluster,
        opts: &ProjectOptions<'_>,
    ) -> Result<Placement, ProjectionError> {
        let k = cluster.num_switches();
        let no_faults = FailedResources::default();
        let failed = opts.failed.unwrap_or(&no_faults);
        // 1. Partition (trivial for a single switch), unless the caller
        // pins the old assignment for incremental recovery.
        let assignment: Vec<u32> = match opts.fixed_assignment {
            Some(a) => {
                assert_eq!(
                    a.len(),
                    topo.num_switches() as usize,
                    "fixed assignment must cover every logical switch"
                );
                a.to_vec()
            }
            None if k == 1 => vec![0; topo.num_switches() as usize],
            None => {
                partition_topology(topo, k, &PartitionConfig::default()).assignment().to_vec()
            }
        };

        // 2. Count resource demands up front so errors are complete. Pairs
        // in order: a short one is reported lowest first, in every process.
        let mut self_need = vec![0usize; k as usize];
        let mut inter_need: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for l in topo.fabric_links() {
            let (sa, sb) = l.switch_ends();
            let (pa, pb) = (assignment[sa.idx()], assignment[sb.idx()]);
            if pa == pb {
                self_need[pa as usize] += 1;
            } else {
                *inter_need.entry((pa.min(pb), pa.max(pb))).or_insert(0) += 1;
            }
        }
        let mut host_need = vec![0usize; k as usize];
        for h in 0..topo.num_hosts() {
            for &(s, _) in topo.attachments(HostId(h)) {
                host_need[assignment[s.idx()] as usize] += 1;
            }
        }
        for sw in 0..k {
            let have = cluster.self_links_of(sw).filter(|l| failed.cable_ok(l)).count();
            let need = self_need[sw as usize];
            if need > have {
                return Err(ProjectionError::NotEnoughSelfLinks { switch: sw, need, have });
            }
            let have = cluster.host_ports_of(sw).filter(|&&p| failed.port_ok(p)).count();
            let need = host_need[sw as usize];
            if need > have {
                return Err(ProjectionError::NotEnoughHostPorts { switch: sw, need, have });
            }
        }
        for (&pair, &need) in &inter_need {
            let have = cluster
                .inter_links_between(pair.0, pair.1)
                .filter(|l| failed.cable_ok(l))
                .count();
            if need > have {
                return Err(ProjectionError::NotEnoughInterLinks { pair, need, have });
            }
        }

        // 3. Assign cables and ports (dead resources never enter the free
        // lists).
        let mut self_free: Vec<Vec<PhysLink>> = (0..k)
            .map(|sw| {
                cluster.self_links_of(sw).filter(|l| failed.cable_ok(l)).copied().collect()
            })
            .collect();
        let mut inter_free: HashMap<(u32, u32), Vec<PhysLink>> = inter_need
            .keys()
            .map(|&pair| {
                (
                    pair,
                    cluster
                        .inter_links_between(pair.0, pair.1)
                        .filter(|l| failed.cable_ok(l))
                        .copied()
                        .collect(),
                )
            })
            .collect();
        let mut host_free: Vec<Vec<PhysPort>> = (0..k)
            .map(|sw| {
                cluster.host_ports_of(sw).filter(|&&p| failed.port_ok(p)).copied().collect()
            })
            .collect();

        let mut link_real = HashMap::new();
        // Cables some link prefers: a link *without* a (live) preference
        // must not steal one of these, or the displaced link would cascade
        // into stealing the next link's cable and the "incremental" diff
        // would balloon.
        let reserved: HashSet<(PhysPort, PhysPort)> = opts
            .prefer_cables
            .map(|m| m.values().map(|c| (c.a, c.b)).collect())
            .unwrap_or_default();
        for l in topo.fabric_links() {
            let (sa, sb) = l.switch_ends();
            let (pa, pb) = (assignment[sa.idx()], assignment[sb.idx()]);
            let preferred = opts
                .prefer_cables
                .and_then(|m| m.get(&(sa.min(sb), sa.max(sb))))
                .copied();
            let cable = {
                let free: &mut Vec<PhysLink> = if pa == pb {
                    &mut self_free[pa as usize]
                } else {
                    match inter_free.get_mut(&(pa.min(pb), pa.max(pb))) {
                        Some(f) => f,
                        None => unreachable!("demand counting pre-populated every pair"),
                    }
                };
                match preferred.and_then(|c| free.iter().position(|x| *x == c)) {
                    Some(i) => free.remove(i),
                    None => {
                        // Take the last unreserved cable (plain pop when no
                        // preferences are in play); steal only when every
                        // remaining cable is someone's preference.
                        let pos = free
                            .iter()
                            .rposition(|x| !reserved.contains(&(x.a, x.b)))
                            .unwrap_or(free.len() - 1);
                        free.remove(pos)
                    }
                }
            };
            link_real.insert(l.id, cable);
        }

        let mut host_port = HashMap::new();
        for h in 0..topo.num_hosts() {
            for &(s, lid) in topo.attachments(HostId(h)) {
                let sw = assignment[s.idx()];
                let p = match host_free[sw as usize].pop() {
                    Some(p) => p,
                    None => unreachable!("demand counting reserved a port per attachment"),
                };
                host_port.insert((HostId(h), lid), p);
            }
        }

        Ok(Placement { assignment, link_real, host_port })
    }

    /// Steps 4–5, everything a [`Placement`] determines: the port map,
    /// sub-switches, the pipeline (§VII-C merge on overflow, capacity
    /// check) and the cut size. [`project_with`](Self::project_with) ends
    /// here, so realizing its placement reproduces its projection.
    ///
    /// # Panics
    /// If `placement` does not [fit](Placement::check) `topo` on `cluster`.
    pub fn realize(
        &self,
        topo: &Topology,
        cluster: &PhysicalCluster,
        routes: &RouteTable,
        placement: Placement,
    ) -> Result<SdtProjection, ProjectionError> {
        let Placement { assignment, link_real, host_port } = placement;
        let k = cluster.num_switches();
        let mut port_of = HashMap::new();
        let mut inter_used = 0usize;
        for l in topo.fabric_links() {
            let (sa, sb) = l.switch_ends();
            let pa = assignment[sa.idx()];
            let cable = link_real[&l.id];
            if pa != assignment[sb.idx()] {
                inter_used += 1;
            }
            // Orient: endpoint `sa` gets the cable end on `pa` (for
            // self-links both ends are on `pa`; keep the cable's order).
            let (end_a, end_b) = if cable.a.switch == pa {
                (cable.a, cable.b)
            } else {
                (cable.b, cable.a)
            };
            port_of.insert((sa, l.id), end_a);
            port_of.insert((sb, l.id), end_b);
        }
        for h in 0..topo.num_hosts() {
            for &(s, lid) in topo.attachments(HostId(h)) {
                port_of.insert((s, lid), host_port[&(HostId(h), lid)]);
            }
        }

        // 4. Sub-switch port groups.
        let mut subswitches: Vec<Vec<(SwitchId, Vec<PhysPort>)>> = vec![Vec::new(); k as usize];
        for s in 0..topo.num_switches() {
            let s = SwitchId(s);
            let mut ports: Vec<PhysPort> = topo
                .neighbors(s)
                .iter()
                .map(|&(_, lid)| port_of[&(s, lid)])
                .chain(topo.hosts_of(s).iter().map(|&(_, lid)| port_of[&(s, lid)]))
                .collect();
            ports.sort_unstable();
            subswitches[assignment[s.idx()] as usize].push((s, ports));
        }

        // 5. Flow-table synthesis + capacity check (§VII-C: fall back to
        // entry merging if enabled and the plain pipeline does not fit).
        let mut synthesis =
            synthesize_flow_tables(topo, routes, &assignment, &port_of, &host_port, k);
        let capacity = cluster.model().table_capacity;
        if self.merge_entries_on_overflow
            && synthesis.entries_per_switch.iter().any(|&n| n > capacity)
        {
            synthesis = synthesize_flow_tables_merged(
                topo, routes, &assignment, &port_of, &host_port, k,
            );
        }
        for (sw, &need) in synthesis.entries_per_switch.iter().enumerate() {
            if need > capacity {
                return Err(ProjectionError::TableCapacity { switch: sw as u32, need, capacity });
            }
        }

        Ok(SdtProjection {
            assignment,
            link_real,
            port_of,
            host_port,
            subswitches,
            synthesis,
            inter_switch_links_used: inter_used,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_routes;
    use crate::cluster::ClusterBuilder;
    use crate::methods::SwitchModel;
    use sdt_topology::chain::chain;
    use sdt_topology::dragonfly::dragonfly;
    use sdt_topology::fattree::fat_tree;
    use sdt_topology::meshtorus::torus;

    fn cluster(n: u32, hosts: u16, inter: u16) -> PhysicalCluster {
        ClusterBuilder::new(SwitchModel::openflow_128x100g(), n)
            .hosts_per_switch(hosts)
            .inter_links_per_pair(inter)
            .build()
    }

    #[test]
    fn chain_on_one_switch() {
        let t = chain(8);
        let c = cluster(1, 8, 0);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        assert_eq!(p.inter_switch_links_used, 0);
        assert_eq!(p.link_real.len(), 7);
        assert_eq!(p.host_port.len(), 8);
        assert_eq!(p.subswitches[0].len(), 8);
    }

    #[test]
    fn fat_tree_on_two_switches() {
        let t = fat_tree(4);
        let c = cluster(2, 16, 16);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        // All 32 fabric links realized, all 16 hosts placed.
        assert_eq!(p.link_real.len(), 32);
        assert_eq!(p.host_port.len(), 16);
        assert!(p.inter_switch_links_used <= 16);
        // Every logical switch's ports live on its assigned physical switch.
        for (sw, subs) in p.subswitches.iter().enumerate() {
            for (s, ports) in subs {
                assert_eq!(p.assignment[s.idx()], sw as u32);
                assert_eq!(ports.len(), t.radix(*s));
                assert!(ports.iter().all(|pp| pp.switch == sw as u32));
            }
        }
    }

    #[test]
    fn torus_4x4_two_switches_needs_8_inter_links() {
        // Fig. 7 Case A: 8 inter-switch links.
        let t = torus(&[4, 4]);
        let c = cluster(2, 16, 8);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        assert_eq!(p.inter_switch_links_used, 8);
    }

    #[test]
    fn insufficient_inter_links_reported_with_counts() {
        let t = torus(&[4, 4]);
        let c = cluster(2, 16, 4); // only 4 wired, 8 needed
        let err = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap_err();
        match err {
            ProjectionError::NotEnoughInterLinks { pair: (0, 1), need, have } => {
                assert_eq!(need, 8);
                assert_eq!(have, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Three switch pairs each one cable short: the error names the lowest,
    /// whatever order a hash map would have visited them in.
    #[test]
    fn the_lowest_short_switch_pair_is_reported() {
        let t = fat_tree(4);
        let c = cluster(3, 16, 1);
        let routes = default_routes(&t);
        let messages: HashSet<String> = (0..16)
            .map(|_| SdtProjector::default().project(&t, &c, &routes).unwrap_err().to_string())
            .collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        let only = messages.iter().next().unwrap();
        assert!(only.starts_with("switch pair (0, 1):"), "{only}");
    }

    #[test]
    fn insufficient_host_ports_reported() {
        let t = chain(8);
        let c = cluster(1, 4, 0);
        let err = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap_err();
        assert!(matches!(err, ProjectionError::NotEnoughHostPorts { need: 8, have: 4, .. }));
    }

    #[test]
    fn no_cable_used_twice() {
        let t = fat_tree(4);
        let c = cluster(2, 16, 16);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for cable in p.link_real.values() {
            assert!(seen.insert((cable.a, cable.b)), "cable reused: {cable:?}");
        }
        let mut ports = std::collections::HashSet::new();
        for port in p.port_of.values() {
            assert!(ports.insert(*port), "port reused: {port:?}");
        }
    }

    #[test]
    fn overflow_triggers_entry_merging_when_enabled() {
        // Shrink the table capacity below the plain pipeline's need.
        let t = fat_tree(4);
        let mut model = SwitchModel::openflow_128x100g();
        let c0 = ClusterBuilder::new(model, 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let plain = SdtProjector::default().project(&t, &c0, &default_routes(&t)).unwrap();
        let need = *plain.synthesis.entries_per_switch.iter().max().unwrap();
        model.table_capacity = need - 10;
        let c = ClusterBuilder::new(model, 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        // Without the mitigation: refused.
        let err = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap_err();
        assert!(matches!(err, ProjectionError::TableCapacity { .. }));
        // With it: merged synthesis fits.
        let proj =
            SdtProjector { merge_entries_on_overflow: true };
        let p = proj.project(&t, &c, &default_routes(&t)).unwrap();
        assert!(p.synthesis.entries_per_switch.iter().all(|&n| n < need));
    }

    /// `realize` of the placement `project_with` decided returns
    /// `project_with`'s own projection, field for field.
    fn assert_realize_reproduces(
        proj: &SdtProjector,
        t: &Topology,
        c: &PhysicalCluster,
        opts: &ProjectOptions<'_>,
    ) -> SdtProjection {
        let routes = default_routes(t);
        let p = proj.project_with(t, c, &routes, opts).unwrap();
        let placement = Placement::of(&p);
        assert_eq!(placement.check(t, c), Ok(()), "{}", t.name());
        let r = proj.realize(t, c, &routes, placement).unwrap();
        assert_eq!(r.assignment, p.assignment, "{}", t.name());
        assert_eq!(r.link_real, p.link_real, "{}", t.name());
        assert_eq!(r.port_of, p.port_of, "{}", t.name());
        assert_eq!(r.host_port, p.host_port, "{}", t.name());
        assert_eq!(r.subswitches, p.subswitches, "{}", t.name());
        assert_eq!(r.synthesis, p.synthesis, "{}", t.name());
        assert_eq!(r.inter_switch_links_used, p.inter_switch_links_used, "{}", t.name());
        p
    }

    #[test]
    fn realizing_a_projections_placement_reproduces_it() {
        // The paper's four evaluation topologies (§VI-D) and a chain on one
        // switch, where every link is a self-link.
        let presets = [fat_tree(4), dragonfly(4, 9, 2, 1), torus(&[5, 5]), torus(&[4, 4, 4])];
        for t in &presets {
            assert_realize_reproduces(
                &SdtProjector::default(),
                t,
                &cluster(4, 16, 16),
                &ProjectOptions::default(),
            );
        }
        assert_realize_reproduces(
            &SdtProjector::default(),
            &chain(8),
            &cluster(1, 8, 0),
            &ProjectOptions::default(),
        );

        // A recovery re-projection: pinned partition, dead cables, preferred
        // cables.
        let t = torus(&[4, 4]);
        let c = cluster(2, 16, 10);
        let old = assert_realize_reproduces(
            &SdtProjector::default(),
            &t,
            &c,
            &ProjectOptions::default(),
        );
        let mut failed = FailedResources::new();
        failed.fail_cable(c.inter_links_between(0, 1).next().unwrap());
        let prefer: HashMap<(SwitchId, SwitchId), PhysLink> = t
            .fabric_links()
            .map(|l| {
                let (a, b) = l.switch_ends();
                ((a.min(b), a.max(b)), old.link_real[&l.id])
            })
            .collect();
        let opts = ProjectOptions {
            fixed_assignment: Some(&old.assignment),
            failed: Some(&failed),
            prefer_cables: Some(&prefer),
        };
        assert_realize_reproduces(&SdtProjector::default(), &t, &c, &opts);

        // The §VII-C merged pipeline: capacity below the plain one's need.
        let t = fat_tree(4);
        let plain =
            SdtProjector::default().project(&t, &cluster(2, 16, 16), &default_routes(&t)).unwrap();
        let mut model = SwitchModel::openflow_128x100g();
        model.table_capacity = plain.synthesis.entries_per_switch.iter().max().unwrap() - 10;
        let c = ClusterBuilder::new(model, 2).hosts_per_switch(16).inter_links_per_pair(16).build();
        let merging = SdtProjector { merge_entries_on_overflow: true };
        let merged = assert_realize_reproduces(&merging, &t, &c, &ProjectOptions::default());
        assert_ne!(merged.synthesis, plain.synthesis, "the merged path ran");
    }

    #[test]
    fn placement_check_names_what_does_not_fit() {
        let t = chain(4);
        let c = cluster(2, 8, 4);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let p = Placement::of(&p);
        let refused = |edit: &dyn Fn(&mut Placement), why: &str| {
            let mut bad = p.clone();
            edit(&mut bad);
            let e = bad.check(&t, &c).unwrap_err();
            assert!(e.contains(why), "{why}: {e}");
        };
        let lid = t.fabric_links().next().unwrap().id;
        let foreign = PhysLink {
            b: PhysPort { switch: 1, port: sdt_openflow::PortNo(300) },
            ..p.link_real[&lid]
        };
        let cable = *c.links().first().unwrap();
        let (h, hl) = (HostId(0), t.attachments(HostId(0))[0].1);
        refused(&|b| b.assignment[1] = 2, "puts switch 1 on physical switch 2, of 2");
        refused(&|b| b.assignment.truncate(3), "covers 3 of 4 logical switches");
        refused(&|b| b.link_real.retain(|&l, _| l != lid), "has no cable");
        refused(&|b| b.link_real.extend([(lid, foreign)]), "no cable PhysLink");
        refused(&|b| b.host_port.extend([((h, hl), cable.a)]), "is no host port of its switch");
        refused(&|b| b.link_real.extend([(LinkId(999), cable)]), "listed than 3 links, 4 hosts");
    }

    #[test]
    fn project_with_default_options_matches_project() {
        let t = fat_tree(4);
        let c = cluster(2, 16, 16);
        let proj = SdtProjector::default();
        let routes = default_routes(&t);
        let a = proj.project(&t, &c, &routes).unwrap();
        let b = proj.project_with(&t, &c, &routes, &ProjectOptions::default()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.link_real, b.link_real);
        assert_eq!(a.inter_switch_links_used, b.inter_switch_links_used);
    }

    #[test]
    fn failed_cables_are_routed_around() {
        // Torus 4x4 on 2 switches needs exactly 8 of the wired inter-links;
        // wire 10, kill 2 — projection must still succeed without touching
        // the dead cables.
        let t = torus(&[4, 4]);
        let c = cluster(2, 16, 10);
        let proj = SdtProjector::default();
        let routes = default_routes(&t);
        let healthy = proj.project(&t, &c, &routes).unwrap();
        let mut failed = FailedResources::new();
        let dead: Vec<PhysLink> = c.inter_links_between(0, 1).take(2).copied().collect();
        for cable in &dead {
            failed.fail_cable(cable);
        }
        assert_eq!(failed.len(), 2);
        let opts = ProjectOptions {
            fixed_assignment: Some(&healthy.assignment),
            failed: Some(&failed),
            ..Default::default()
        };
        let p = proj.project_with(&t, &c, &routes, &opts).unwrap();
        assert_eq!(p.assignment, healthy.assignment, "partition reused");
        for cable in p.link_real.values() {
            assert!(failed.cable_ok(cable), "dead cable {cable:?} reused");
        }
    }

    #[test]
    fn preferred_cables_are_reused() {
        // Re-projecting with the old cable map as preference must keep
        // every healthy cable exactly where it was.
        let t = torus(&[4, 4]);
        let c = cluster(2, 16, 10);
        let proj = SdtProjector::default();
        let routes = default_routes(&t);
        let old = proj.project(&t, &c, &routes).unwrap();
        let mut prefer: HashMap<(SwitchId, SwitchId), PhysLink> = HashMap::new();
        for l in t.fabric_links() {
            let (a, b) = (l.a.as_switch().unwrap(), l.b.as_switch().unwrap());
            prefer.insert((a.min(b), a.max(b)), old.link_real[&l.id]);
        }
        let opts = ProjectOptions {
            fixed_assignment: Some(&old.assignment),
            prefer_cables: Some(&prefer),
            ..Default::default()
        };
        let p = proj.project_with(&t, &c, &routes, &opts).unwrap();
        assert_eq!(p.link_real, old.link_real);
    }

    #[test]
    fn too_many_failures_reported_as_shortage() {
        // 8 inter-links needed; wire 8, kill 1 — the checking function must
        // say the surviving plant is one cable short.
        let t = torus(&[4, 4]);
        let c = cluster(2, 16, 8);
        let proj = SdtProjector::default();
        let routes = default_routes(&t);
        let mut failed = FailedResources::new();
        failed.fail_cable(c.inter_links_between(0, 1).next().unwrap());
        let opts = ProjectOptions { failed: Some(&failed), ..Default::default() };
        let err = proj.project_with(&t, &c, &routes, &opts).unwrap_err();
        assert!(
            matches!(err, ProjectionError::NotEnoughInterLinks { need: 8, have: 7, .. }),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn failed_port_kills_incident_cables_and_host_slots() {
        let t = chain(8);
        let c = cluster(1, 9, 0);
        let proj = SdtProjector::default();
        let routes = default_routes(&t);
        let mut failed = FailedResources::new();
        // Kill one host port: 9 wired - 1 dead = 8 still fits.
        failed.fail_port(*c.host_ports_of(0).next().unwrap());
        let opts = ProjectOptions { failed: Some(&failed), ..Default::default() };
        let p = proj.project_with(&t, &c, &routes, &opts).unwrap();
        for port in p.host_port.values() {
            assert!(failed.port_ok(*port), "dead host port reused");
        }
        // A port failure also condemns any cable touching it.
        let cable = c.self_links_of(0).next().unwrap();
        let mut failed2 = FailedResources::new();
        failed2.fail_port(cable.a);
        assert!(!failed2.cable_ok(cable));
    }

    #[test]
    fn deploy_time_sub_second() {
        // Table II: SDT reconfiguration 100ms ~ 1s.
        let t = fat_tree(4);
        let c = cluster(2, 16, 16);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let ns = p.deploy_time_ns();
        assert!((100_000_000..=1_000_000_000).contains(&ns), "{ns} ns");
    }
}
