//! Dataplane packet walking and the §VI-B hardware-isolation check.
//!
//! [`instantiate`] turns a projection into live [`OpenFlowSwitch`]es;
//! [`walk_packet`] then injects a packet at a host port and follows cables
//! and flow tables hop by hop — a software Wireshark. Projection
//! correctness means: every packet between connected hosts is delivered on
//! the same switch sequence the logical route prescribes, and every packet
//! toward a host of a different (co-deployed) topology is dropped before it
//! can reach any foreign port.
//!
//! [`walk_addrs`] is the workspace's only hop loop; [`walk_packet`],
//! [`IsolationReport`] and `sdt_tenancy::SliceAudit` are all built on it.
//! The two reports are probe-injection *oracles* for tests and examples:
//! production deploys are gated on, and report, the `sdt-verify` static
//! proof, which moves no counter.

use crate::cluster::{PhysPort, PhysicalCluster};
use crate::sdt::SdtProjection;
use crate::synthesis::addr_of;
use sdt_openflow::{HostAddr, OpenFlowSwitch, PacketMeta, PortNo, SwitchConfig};
use sdt_topology::{HostId, Topology};

/// One traversal record: (physical switch, ingress port, egress port).
pub type HopRecord = (u32, PortNo, PortNo);

/// Result of walking one packet through the dataplane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalkOutcome {
    /// Delivered to a host port.
    Delivered {
        /// The host owning the delivery port.
        to: HostId,
        /// Physical switch traversals.
        path: Vec<HopRecord>,
    },
    /// Dropped (table miss or Drop rule).
    Dropped {
        /// Switch where the packet died.
        at: u32,
        /// Traversals up to the drop.
        path: Vec<HopRecord>,
    },
    /// Exceeded the hop budget — a forwarding loop.
    Looped,
}

/// Build live switches from a projection: each table adopts its share of
/// the synthesized store, so no entry is copied until a switch writes to
/// that table. Panics on a pipeline over the switch model's capacity,
/// which [`crate::sdt::SdtProjector::project`] never returns.
pub fn instantiate(cluster: &PhysicalCluster, proj: &SdtProjection) -> Vec<OpenFlowSwitch> {
    let model = cluster.model();
    let cfg = SwitchConfig {
        num_ports: model.ports as u16,
        port_gbps: model.gbps,
        table_capacity: model.table_capacity,
    };
    let mut switches: Vec<OpenFlowSwitch> =
        (0..cluster.num_switches()).map(|i| OpenFlowSwitch::new(i, cfg)).collect();
    for (sw, switch) in switches.iter_mut().enumerate() {
        let tables = [&proj.synthesis.table0[sw], &proj.synthesis.table1[sw]];
        for (table, synthesized) in (0..).zip(tables) {
            if let Err(e) = switch.adopt(table, synthesized.share()) {
                panic!("switch {sw} cannot hold its synthesized pipeline: {e}");
            }
        }
    }
    switches
}

/// Where an address-level walk left the fabric (or failed to).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkEnd {
    /// Egressed on a host port; whose port it is, is the caller's to say.
    Egress(PhysPort),
    /// Died at this switch: table miss, Drop rule, or an unwired port.
    Dropped(u32),
    /// Exceeded the hop budget — a forwarding loop.
    Looped,
}

/// The one hop-by-hop walker: inject a packet carrying fabric-wide
/// addresses `src` → `dst` at `start` and follow cables and flow tables
/// until it leaves on a host port, dies, or runs out of hop budget. Every
/// hop goes through [`OpenFlowSwitch::forward`], so table and port counters
/// move exactly as for real traffic. Returns the end and the traversals
/// that forwarded (a dropping hop is not recorded).
pub fn walk_addrs(
    cluster: &PhysicalCluster,
    switches: &mut [OpenFlowSwitch],
    start: PhysPort,
    src: HostAddr,
    dst: HostAddr,
) -> (WalkEnd, Vec<HopRecord>) {
    let mut at = start;
    let mut path = Vec::new();
    // Hop budget: generous multiple of the cluster size.
    let budget = 4 * cluster.links().len() + 8;
    for _ in 0..budget {
        let meta = PacketMeta {
            in_port: at.port,
            src,
            dst,
            l4_src: 4791, // RoCEv2 UDP port, for flavor
            l4_dst: 4791,
        };
        let Some(out) = switches[at.switch as usize].forward(&meta, 1500) else {
            return (WalkEnd::Dropped(at.switch), path);
        };
        path.push((at.switch, at.port, out));
        let out_pp = PhysPort { switch: at.switch, port: out };
        if cluster.is_host_port(out_pp) {
            return (WalkEnd::Egress(out_pp), path);
        }
        match cluster.link_at(out_pp) {
            Some(cable) => at = cable.other(out_pp),
            // Unwired port: packet falls on the floor.
            None => return (WalkEnd::Dropped(at.switch), path),
        }
    }
    (WalkEnd::Looped, path)
}

/// Inject a packet from `src` to `dst` and follow it through the cluster.
pub fn walk_packet(
    cluster: &PhysicalCluster,
    switches: &mut [OpenFlowSwitch],
    proj: &SdtProjection,
    topo: &Topology,
    src: HostId,
    dst: HostId,
) -> WalkOutcome {
    let start = proj.primary_host_port(topo, src);
    match walk_addrs(cluster, switches, start, addr_of(src), addr_of(dst)) {
        (WalkEnd::Egress(pp), path) => {
            let to = proj
                .host_port
                .iter()
                .find(|&(_, &owned)| owned == pp)
                .map(|(&(h, _), _)| h)
                .unwrap_or_else(|| unreachable!("egress host port is assigned to a host"));
            WalkOutcome::Delivered { to, path }
        }
        (WalkEnd::Dropped(at), path) => WalkOutcome::Dropped { at, path },
        (WalkEnd::Looped, _) => WalkOutcome::Looped,
    }
}

/// Aggregate isolation audit: walk every ordered host pair and check that
/// packets are delivered exactly within connected components. The
/// single-tenant probe oracle the static proof is tested against.
#[derive(Clone, Debug, Default)]
pub struct IsolationReport {
    /// Pairs delivered to the correct destination.
    pub delivered: usize,
    /// Cross-component pairs correctly dropped.
    pub isolated: usize,
    /// Violations: wrong destination, leaked across components, or loops.
    pub violations: Vec<(HostId, HostId, String)>,
}

impl IsolationReport {
    /// Run the audit over every ordered host pair on freshly instantiated
    /// switches (the projection exactly as synthesized).
    pub fn audit(
        cluster: &PhysicalCluster,
        proj: &SdtProjection,
        topo: &Topology,
    ) -> IsolationReport {
        let mut switches = instantiate(cluster, proj);
        Self::audit_on(cluster, &mut switches, proj, topo)
    }

    /// Run the audit against the *live* switches as they stand — tables and
    /// all. This is what the chaos harness uses after a recovery: it checks
    /// the actual post-retry switch state, not a re-synthesized ideal, so a
    /// flow-mod the control channel silently dropped shows up as a
    /// violation here.
    pub fn audit_on(
        cluster: &PhysicalCluster,
        switches: &mut [OpenFlowSwitch],
        proj: &SdtProjection,
        topo: &Topology,
    ) -> IsolationReport {
        let comp = topo.component_of();
        let mut report = IsolationReport::default();
        for a in 0..topo.num_hosts() {
            for b in 0..topo.num_hosts() {
                if a == b {
                    continue;
                }
                let (src, dst) = (HostId(a), HostId(b));
                let same = comp[topo.host_switch(src).idx()] == comp[topo.host_switch(dst).idx()];
                match walk_packet(cluster, switches, proj, topo, src, dst) {
                    WalkOutcome::Delivered { to, .. } if same && to == dst => {
                        report.delivered += 1
                    }
                    WalkOutcome::Delivered { to, .. } => report.violations.push((
                        src,
                        dst,
                        format!("delivered to {to:?} (same-component = {same})"),
                    )),
                    WalkOutcome::Dropped { .. } if !same => report.isolated += 1,
                    WalkOutcome::Dropped { at, .. } => {
                        report.violations.push((src, dst, format!("dropped at switch {at}")))
                    }
                    WalkOutcome::Looped => {
                        report.violations.push((src, dst, "forwarding loop".into()))
                    }
                }
            }
        }
        report
    }

    /// True when no violations were found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_routes;
    use crate::cluster::ClusterBuilder;
    use crate::methods::SwitchModel;
    use crate::sdt::SdtProjector;
    use sdt_topology::chain::chain;
    use sdt_topology::fattree::fat_tree;

    fn cluster(n: u32, hosts: u16, inter: u16) -> PhysicalCluster {
        ClusterBuilder::new(SwitchModel::openflow_128x100g(), n)
            .hosts_per_switch(hosts)
            .inter_links_per_pair(inter)
            .build()
    }

    #[test]
    fn chain_packet_takes_logical_path() {
        let t = chain(8);
        let c = cluster(1, 8, 0);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let mut switches = instantiate(&c, &p);
        match walk_packet(&c, &mut switches, &p, &t, HostId(0), HostId(7)) {
            WalkOutcome::Delivered { to, path } => {
                assert_eq!(to, HostId(7));
                // 8 logical switches traversed = 8 pipeline passes.
                assert_eq!(path.len(), 8);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fat_tree_all_pairs_delivered() {
        let t = fat_tree(4);
        let c = cluster(2, 16, 16);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let report = IsolationReport::audit(&c, &p, &t);
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.delivered, 16 * 15);
        assert_eq!(report.isolated, 0);
    }

    /// `instantiate` shares the synthesized stores but still holds them to
    /// the switch model's budget, both tables together.
    #[test]
    #[should_panic(expected = "switch 0 cannot hold its synthesized pipeline")]
    fn instantiate_refuses_a_pipeline_over_table_capacity() {
        use crate::synthesis::Table;
        use sdt_openflow::{Action, FlowEntry, FlowMatch};
        let t = chain(8);
        let c = cluster(1, 8, 0);
        let mut p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let room = c.model().table_capacity - p.synthesis.table0[0].len();
        let flood = (0..=room as u32).map(|d| FlowEntry {
            m: FlowMatch::to_dst(HostAddr(d)).and_metadata(0),
            priority: 10,
            action: Action::Drop,
        });
        p.synthesis.table1[0] = Table::from(flood.collect::<Vec<_>>());
        instantiate(&c, &p);
    }

    #[test]
    fn hop_count_matches_logical_route() {
        let t = fat_tree(4);
        let c = cluster(2, 16, 16);
        let p = SdtProjector::default().project(&t, &c, &default_routes(&t)).unwrap();
        let mut switches = instantiate(&c, &p);
        // Host 0 (pod 0) to host 15 (pod 3): 5 logical switches.
        match walk_packet(&c, &mut switches, &p, &t, HostId(0), HostId(15)) {
            WalkOutcome::Delivered { path, .. } => assert_eq!(path.len(), 5),
            other => panic!("{other:?}"),
        }
    }
}
