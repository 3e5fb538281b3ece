//! The physical SDT cluster: switches, fixed cabling, host ports.
//!
//! A cluster's cabling is decided **once**, at deployment time (§IV-B):
//!
//! * *self-links* loop two ports of the same switch (the paper wires upper
//!   and lower adjacent ports for simplicity — footnote 2);
//! * *inter-switch links* join two different switches and carry the logical
//!   links that cross a partition cut;
//! * *host ports* attach compute nodes.
//!
//! After that, every topology (re)configuration touches only flow tables.

use crate::methods::SwitchModel;
use sdt_openflow::PortNo;

/// A specific port of a specific physical switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PhysPort {
    /// Physical switch index in the cluster.
    pub switch: u32,
    /// Port on that switch.
    pub port: PortNo,
}

/// Kind of a physical cable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhysLinkKind {
    /// Both ends on the same switch.
    SelfLink,
    /// Ends on two different switches.
    InterSwitch,
}

/// A physical cable between two ports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhysLink {
    /// Cable kind (derived from endpoints, stored for convenience).
    pub kind: PhysLinkKind,
    /// One end.
    pub a: PhysPort,
    /// Other end.
    pub b: PhysPort,
}

impl PhysLink {
    /// The opposite end of the cable. Panics if `p` is not an endpoint.
    pub fn other(&self, p: PhysPort) -> PhysPort {
        if self.a == p {
            self.b
        } else if self.b == p {
            self.a
        } else {
            panic!("port {p:?} not on this cable")
        }
    }
}

/// An immutable physical cluster: the hardware SDT projects onto.
#[derive(Clone, Debug)]
pub struct PhysicalCluster {
    model: SwitchModel,
    num_switches: u32,
    links: Vec<PhysLink>,
    host_ports: Vec<PhysPort>,
    /// port -> index into `links` (or u32::MAX for host/unused ports).
    port_link: Vec<Vec<u32>>,
    /// port -> true if reserved for a host.
    is_host_port: Vec<Vec<bool>>,
}

impl PhysicalCluster {
    /// Build a cluster from an explicit wiring (used by the §VII-A
    /// optical-flexibility extension, which computes its own cabling).
    ///
    /// # Panics
    /// If any port is used twice, out of range, or listed both as a host
    /// port and a cable end.
    pub fn custom(
        model: SwitchModel,
        num_switches: u32,
        cables: Vec<(PhysPort, PhysPort)>,
        host_ports: Vec<PhysPort>,
    ) -> PhysicalCluster {
        let p = model.ports as usize;
        let mut port_link = vec![vec![u32::MAX; p]; num_switches as usize];
        let mut is_host = vec![vec![false; p]; num_switches as usize];
        let mut used = std::collections::HashSet::new();
        let mut claim = |pp: PhysPort| {
            assert!(pp.switch < num_switches && pp.port.idx() < p, "port {pp:?} out of range");
            assert!(used.insert(pp), "port {pp:?} used twice");
        };
        for &hp in &host_ports {
            claim(hp);
            is_host[hp.switch as usize][hp.port.idx()] = true;
        }
        let mut links = Vec::with_capacity(cables.len());
        for (a, b) in cables {
            claim(a);
            claim(b);
            let kind = if a.switch == b.switch {
                PhysLinkKind::SelfLink
            } else {
                PhysLinkKind::InterSwitch
            };
            let idx = links.len() as u32;
            links.push(PhysLink { kind, a, b });
            port_link[a.switch as usize][a.port.idx()] = idx;
            port_link[b.switch as usize][b.port.idx()] = idx;
        }
        PhysicalCluster {
            model,
            num_switches,
            links,
            host_ports,
            port_link,
            is_host_port: is_host,
        }
    }

    /// Number of physical switches.
    pub fn num_switches(&self) -> u32 {
        self.num_switches
    }

    /// Switch model common to the cluster.
    pub fn model(&self) -> &SwitchModel {
        &self.model
    }

    /// All cables.
    pub fn links(&self) -> &[PhysLink] {
        &self.links
    }

    /// Self-links of one switch.
    pub fn self_links_of(&self, switch: u32) -> impl Iterator<Item = &PhysLink> {
        self.links
            .iter()
            .filter(move |l| l.kind == PhysLinkKind::SelfLink && l.a.switch == switch)
    }

    /// Inter-switch links between an unordered pair of switches.
    pub fn inter_links_between(&self, x: u32, y: u32) -> impl Iterator<Item = &PhysLink> {
        self.links.iter().filter(move |l| {
            l.kind == PhysLinkKind::InterSwitch
                && ((l.a.switch == x && l.b.switch == y) || (l.a.switch == y && l.b.switch == x))
        })
    }

    /// Ports reserved for hosts.
    pub fn host_ports(&self) -> &[PhysPort] {
        &self.host_ports
    }

    /// Host ports on one switch.
    pub fn host_ports_of(&self, switch: u32) -> impl Iterator<Item = &PhysPort> {
        self.host_ports.iter().filter(move |p| p.switch == switch)
    }

    /// The cable attached to a port, if any.
    pub fn link_at(&self, p: PhysPort) -> Option<&PhysLink> {
        let idx = self.port_link[p.switch as usize][p.port.idx()];
        (idx != u32::MAX).then(|| &self.links[idx as usize])
    }

    /// Is this port reserved for a host?
    pub fn is_host_port(&self, p: PhysPort) -> bool {
        self.is_host_port[p.switch as usize][p.port.idx()]
    }

    /// Total hardware price of the cluster (switches only).
    pub fn price_usd(&self) -> u64 {
        self.model.price_usd as u64 * self.num_switches as u64
    }
}

/// Builder for [`PhysicalCluster`] wiring plans.
///
/// Port layout per switch: host ports first, then inter-switch ports (one
/// block per peer switch), then the remainder paired up as self-links.
/// Odd leftover ports stay unused.
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    model: SwitchModel,
    num_switches: u32,
    hosts_per_switch: u16,
    inter_per_pair: u16,
}

impl ClusterBuilder {
    /// Start a plan over `num_switches` switches of the given model.
    pub fn new(model: SwitchModel, num_switches: u32) -> Self {
        assert!(num_switches >= 1);
        ClusterBuilder { model, num_switches, hosts_per_switch: 0, inter_per_pair: 0 }
    }

    /// Reserve the first `n` ports of every switch for hosts.
    pub fn hosts_per_switch(mut self, n: u16) -> Self {
        self.hosts_per_switch = n;
        self
    }

    /// Wire `n` inter-switch cables between every pair of switches.
    pub fn inter_links_per_pair(mut self, n: u16) -> Self {
        self.inter_per_pair = n;
        self
    }

    /// Materialize the wiring plan.
    ///
    /// # Panics
    /// If the reserved host and inter-switch ports exceed the switch's port
    /// count.
    pub fn build(self) -> PhysicalCluster {
        let p = self.model.ports as u16;
        let n = self.num_switches;
        let peers = (n - 1) as u16;
        let reserved = self.hosts_per_switch + self.inter_per_pair * peers;
        assert!(
            reserved <= p,
            "reserved ports ({reserved}) exceed switch ports ({p})"
        );

        let mut links = Vec::new();
        let mut host_ports = Vec::new();
        let mut port_link = vec![vec![u32::MAX; p as usize]; n as usize];
        let mut is_host = vec![vec![false; p as usize]; n as usize];

        for s in 0..n {
            for i in 0..self.hosts_per_switch {
                let pp = PhysPort { switch: s, port: PortNo(i) };
                host_ports.push(pp);
                is_host[s as usize][i as usize] = true;
            }
        }

        // Inter-switch blocks: on switch s, the block for peer t (t != s)
        // occupies ports [hosts + block_index*inter .. ). Each unordered pair
        // is cabled once, port i of the block on both sides.
        for s in 0..n {
            for t in (s + 1)..n {
                // Block index of t on s: peers are numbered skipping self.
                let bi_on_s = (if t > s { t - 1 } else { t }) as u16;
                let bi_on_t = (if s > t { s - 1 } else { s }) as u16;
                for i in 0..self.inter_per_pair {
                    let pa = PhysPort {
                        switch: s,
                        port: PortNo(self.hosts_per_switch + bi_on_s * self.inter_per_pair + i),
                    };
                    let pb = PhysPort {
                        switch: t,
                        port: PortNo(self.hosts_per_switch + bi_on_t * self.inter_per_pair + i),
                    };
                    let idx = links.len() as u32;
                    links.push(PhysLink { kind: PhysLinkKind::InterSwitch, a: pa, b: pb });
                    port_link[pa.switch as usize][pa.port.idx()] = idx;
                    port_link[pb.switch as usize][pb.port.idx()] = idx;
                }
            }
        }

        // Remaining ports pair up as self-links (adjacent ports, footnote 2).
        for s in 0..n {
            let first_free = self.hosts_per_switch + self.inter_per_pair * peers;
            let mut q = first_free;
            while q + 1 < p {
                let pa = PhysPort { switch: s, port: PortNo(q) };
                let pb = PhysPort { switch: s, port: PortNo(q + 1) };
                let idx = links.len() as u32;
                links.push(PhysLink { kind: PhysLinkKind::SelfLink, a: pa, b: pb });
                port_link[s as usize][pa.port.idx()] = idx;
                port_link[s as usize][pb.port.idx()] = idx;
                q += 2;
            }
        }

        PhysicalCluster {
            model: self.model,
            num_switches: n,
            links,
            host_ports,
            port_link,
            is_host_port: is_host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::SwitchModel;

    fn model64() -> SwitchModel {
        SwitchModel::openflow_64x100g()
    }

    #[test]
    fn single_switch_all_self_links() {
        let c = ClusterBuilder::new(model64(), 1).hosts_per_switch(8).build();
        assert_eq!(c.num_switches(), 1);
        assert_eq!(c.host_ports().len(), 8);
        // (64 - 8) / 2 = 28 self-links.
        assert_eq!(c.self_links_of(0).count(), 28);
        assert_eq!(c.links().len(), 28);
    }

    #[test]
    fn two_switches_with_inter_links() {
        let c = ClusterBuilder::new(model64(), 2)
            .hosts_per_switch(8)
            .inter_links_per_pair(8)
            .build();
        assert_eq!(c.inter_links_between(0, 1).count(), 8);
        // Per switch: 64 - 8 hosts - 8 inter = 48 -> 24 self-links.
        assert_eq!(c.self_links_of(0).count(), 24);
        assert_eq!(c.self_links_of(1).count(), 24);
    }

    #[test]
    fn inter_link_ports_are_consistent() {
        let c = ClusterBuilder::new(model64(), 3).inter_links_per_pair(4).build();
        for l in c.links().iter().filter(|l| l.kind == PhysLinkKind::InterSwitch) {
            assert_ne!(l.a.switch, l.b.switch);
            // Port lookup returns the same cable from both ends.
            assert_eq!(c.link_at(l.a).unwrap(), l);
            assert_eq!(c.link_at(l.b).unwrap(), l);
            assert_eq!(l.other(l.a), l.b);
        }
        assert_eq!(c.inter_links_between(0, 2).count(), 4);
        assert_eq!(c.inter_links_between(1, 2).count(), 4);
    }

    #[test]
    fn host_ports_carry_no_cables() {
        let c = ClusterBuilder::new(model64(), 1).hosts_per_switch(4).build();
        for &hp in c.host_ports() {
            assert!(c.is_host_port(hp));
            assert!(c.link_at(hp).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "reserved ports")]
    fn over_reservation_panics() {
        ClusterBuilder::new(model64(), 2)
            .hosts_per_switch(60)
            .inter_links_per_pair(10)
            .build();
    }

    #[test]
    fn custom_wiring_roundtrip() {
        let m = model64();
        let hp = PhysPort { switch: 0, port: PortNo(0) };
        let a = PhysPort { switch: 0, port: PortNo(1) };
        let b = PhysPort { switch: 1, port: PortNo(1) };
        let c = PhysPort { switch: 1, port: PortNo(2) };
        let d = PhysPort { switch: 1, port: PortNo(3) };
        let cl = PhysicalCluster::custom(m, 2, vec![(a, b), (c, d)], vec![hp]);
        assert_eq!(cl.inter_links_between(0, 1).count(), 1);
        assert_eq!(cl.self_links_of(1).count(), 1);
        assert!(cl.is_host_port(hp));
        assert_eq!(cl.link_at(a).unwrap().other(a), b);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn custom_wiring_rejects_port_reuse() {
        let m = model64();
        let a = PhysPort { switch: 0, port: PortNo(1) };
        let b = PhysPort { switch: 0, port: PortNo(2) };
        PhysicalCluster::custom(m, 1, vec![(a, b), (a, b)], vec![]);
    }

    #[test]
    fn price_scales_with_count() {
        let one = ClusterBuilder::new(model64(), 1).build().price_usd();
        let three = ClusterBuilder::new(model64(), 3).build().price_usd();
        assert_eq!(three, 3 * one);
    }
}
