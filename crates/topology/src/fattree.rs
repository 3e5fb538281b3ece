//! k-ary Fat-Tree generator (Al-Fares et al., SIGCOMM 2008).
//!
//! A Fat-Tree with parameter `k` (even) has `k` pods. Each pod holds `k/2`
//! edge switches and `k/2` aggregation switches; `(k/2)^2` core switches sit
//! on top. Every switch has radix `k`. The fabric supports `k^3/4` hosts.
//! The paper's Fig. 1 example (k = 4) uses 20 switches and 16 hosts.

use crate::graph::{HostId, SwitchId, Topology, TopologyBuilder, TopologyKind};

/// Switch-id layout of [`fat_tree`]: edges first, then aggregations, then
/// cores, pods in order.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeIds {
    k: u32,
}

impl FatTreeIds {
    /// Layout helper for a k-ary Fat-Tree.
    pub fn new(k: u32) -> Self {
        assert!(k >= 2 && k % 2 == 0, "fat-tree k must be even and >= 2");
        FatTreeIds { k }
    }

    /// Number of edge switches.
    pub fn num_edge(&self) -> u32 {
        self.k * self.k / 2
    }
    /// Number of aggregation switches.
    pub fn num_agg(&self) -> u32 {
        self.k * self.k / 2
    }
    /// Number of core switches.
    pub fn num_core(&self) -> u32 {
        self.k * self.k / 4
    }
    /// Total switches (`5k²/4`).
    pub fn num_switches(&self) -> u32 {
        self.num_edge() + self.num_agg() + self.num_core()
    }
    /// Total hosts (`k³/4`).
    pub fn num_hosts(&self) -> u32 {
        self.k * self.k * self.k / 4
    }

    /// Edge switch `e` (0..k/2) of pod `p`.
    pub fn edge(&self, pod: u32, e: u32) -> SwitchId {
        debug_assert!(pod < self.k && e < self.k / 2);
        SwitchId(pod * self.k / 2 + e)
    }
    /// Aggregation switch `a` (0..k/2) of pod `p`.
    pub fn agg(&self, pod: u32, a: u32) -> SwitchId {
        debug_assert!(pod < self.k && a < self.k / 2);
        SwitchId(self.num_edge() + pod * self.k / 2 + a)
    }
    /// Core switch in row `r` (0..k/2), column `c` (0..k/2). Core `(r, c)`
    /// connects to aggregation switch `r` of every pod.
    pub fn core(&self, r: u32, c: u32) -> SwitchId {
        debug_assert!(r < self.k / 2 && c < self.k / 2);
        SwitchId(self.num_edge() + self.num_agg() + r * self.k / 2 + c)
    }

    /// Classify a switch id back into (tier, pod-or-row, index).
    pub fn tier_of(&self, s: SwitchId) -> FatTreeTier {
        let half = self.k / 2;
        if s.0 < self.num_edge() {
            FatTreeTier::Edge { pod: s.0 / half, index: s.0 % half }
        } else if s.0 < self.num_edge() + self.num_agg() {
            let r = s.0 - self.num_edge();
            FatTreeTier::Agg { pod: r / half, index: r % half }
        } else {
            let r = s.0 - self.num_edge() - self.num_agg();
            FatTreeTier::Core { row: r / half, col: r % half }
        }
    }
}

/// Tier classification of a Fat-Tree switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FatTreeTier {
    /// Edge (ToR) switch: `pod` and position within the pod.
    Edge {
        /// Pod number.
        pod: u32,
        /// Position within the pod.
        index: u32,
    },
    /// Aggregation switch: `pod` and position within the pod.
    Agg {
        /// Pod number.
        pod: u32,
        /// Position within the pod.
        index: u32,
    },
    /// Core switch at `(row, col)`; row selects the aggregation index it
    /// reaches in every pod.
    Core {
        /// Row (aggregation index served).
        row: u32,
        /// Column within the row.
        col: u32,
    },
}

/// Build a k-ary Fat-Tree with the full complement of `k³/4` hosts.
///
/// # Panics
/// If `k` is odd or less than 2.
pub fn fat_tree(k: u32) -> Topology {
    let ids = FatTreeIds::new(k);
    let half = k / 2;
    let mut b = TopologyBuilder::new(format!("fat-tree-k{k}"), ids.num_switches(), ids.num_hosts())
        .kind(TopologyKind::FatTree { k });

    // Host and edge-agg wiring, pod by pod.
    let mut host = 0u32;
    for pod in 0..k {
        for e in 0..half {
            let edge = ids.edge(pod, e);
            for _ in 0..half {
                b.attach(HostId(host), edge);
                host += 1;
            }
            for a in 0..half {
                b.fabric(edge, ids.agg(pod, a));
            }
        }
        // Aggregation `a` of each pod connects to all cores in row `a`.
        for a in 0..half {
            for c in 0..half {
                b.fabric(ids.agg(pod, a), ids.core(a, c));
            }
        }
    }
    let t = crate::graph::built(b.build(), "fat-tree");
    debug_assert_eq!(host, ids.num_hosts());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_matches_paper_figure1() {
        let t = fat_tree(4);
        // "20 4-port switches and 48 cables to deploy a standard Fat-Tree
        //  topology supporting only 16 nodes" (§I).
        assert_eq!(t.num_switches(), 20);
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.num_fabric_links(), 32);
        assert_eq!(t.links().len(), 48); // 32 fabric + 16 host cables
        assert!(t.is_connected());
    }

    #[test]
    fn all_switches_have_radix_k() {
        for k in [4u32, 6, 8] {
            let t = fat_tree(k);
            for s in 0..t.num_switches() {
                assert_eq!(t.radix(SwitchId(s)), k as usize, "k={k} switch {s}");
            }
        }
    }

    #[test]
    fn port_demand_formula() {
        // Fabric ports = 2 * k^3/4 * ... simpler: total switch ports = 5k^3/4.
        for k in [4u32, 6, 8] {
            let t = fat_tree(k);
            assert_eq!(t.total_switch_ports() as u32, 5 * k * k * k / 4);
        }
    }

    #[test]
    fn tier_roundtrip() {
        let ids = FatTreeIds::new(6);
        assert_eq!(ids.tier_of(ids.edge(3, 2)), FatTreeTier::Edge { pod: 3, index: 2 });
        assert_eq!(ids.tier_of(ids.agg(5, 0)), FatTreeTier::Agg { pod: 5, index: 0 });
        assert_eq!(ids.tier_of(ids.core(1, 2)), FatTreeTier::Core { row: 1, col: 2 });
    }

    #[test]
    fn diameter_is_six_hops_of_switches() {
        // Edge -> agg -> core -> agg -> edge = 4 switch hops.
        let t = fat_tree(4);
        assert_eq!(t.diameter(), Some(4));
    }
}
