//! Dragonfly generator (Kim, Dally, Scott, Abts — ISCA 2008).
//!
//! A Dragonfly has `g` groups of `a` routers each. Routers inside a group
//! are fully connected (`a-1` local links per router); each router also has
//! `h` global links to other groups and `p` attached hosts. The paper
//! evaluates `a = 4, g = 9, h = 2` — every group then has `a·h = 8` global
//! links, exactly one to each of the other `g-1 = 8` groups... in fact 8
//! global links spread over 8 peer groups: one per pair, the *canonical*
//! palmtree arrangement.

use crate::graph::{HostId, SwitchId, Topology, TopologyBuilder, TopologyKind};

/// Id layout of a Dragonfly: router `r` of group `q` is switch `q*a + r`.
#[derive(Clone, Copy, Debug)]
pub struct DragonflyIds {
    /// Routers per group.
    pub a: u32,
    /// Number of groups.
    pub g: u32,
    /// Global links per router.
    pub h: u32,
    /// Hosts per router.
    pub p: u32,
}

impl DragonflyIds {
    /// Layout helper; validates the canonical constraint `a·h >= g-1` so
    /// every pair of groups can be joined by at least one global link.
    pub fn new(a: u32, g: u32, h: u32, p: u32) -> Self {
        assert!(a >= 1 && g >= 2 && h >= 1);
        assert!(a * h >= g - 1, "need a*h >= g-1 global links per group for full global connectivity");
        DragonflyIds { a, g, h, p }
    }

    /// Total routers.
    pub fn num_switches(&self) -> u32 {
        self.a * self.g
    }
    /// Total hosts.
    pub fn num_hosts(&self) -> u32 {
        self.a * self.g * self.p
    }
    /// Switch id of router `r` in group `q`.
    pub fn router(&self, group: u32, r: u32) -> SwitchId {
        debug_assert!(group < self.g && r < self.a);
        SwitchId(group * self.a + r)
    }
    /// Group of a switch.
    pub fn group_of(&self, s: SwitchId) -> u32 {
        s.0 / self.a
    }

    /// The global-link slots of the whole fabric, as (groupA, routerA,
    /// groupB, routerB) — the palmtree arrangement: group `q`'s global link
    /// number `j` (0..a*h) goes to group `(q + j + 1) mod g`, from router
    /// `j / h`. Slots whose peer group coincides (possible when `a*h >
    /// g-1`) wrap around to further groups.
    pub fn global_links(&self) -> Vec<(u32, u32, u32, u32)> {
        let mut out = Vec::new();
        for q in 0..self.g {
            for j in 0..self.a * self.h {
                let peer = (q + 1 + (j % (self.g - 1))) % self.g;
                // Emit each undirected link once: from the lower group id.
                if q < peer {
                    let r_here = j / self.h;
                    // The peer's slot pointing back at us.
                    let back = (self.g + q - peer - 1) % self.g; // distance from peer to q minus 1
                    // Find peer slot j' with (j' % (g-1)) == back, matching
                    // round j / (g-1).
                    let round = j / (self.g - 1);
                    let jp = round * (self.g - 1) + back;
                    if jp < self.a * self.h {
                        let r_there = jp / self.h;
                        out.push((q, r_here, peer, r_there));
                    }
                }
            }
        }
        out
    }
}

/// Build a Dragonfly topology. `p` hosts are attached to every router.
///
/// For the paper's evaluation config use `dragonfly(4, 9, 2, 2)`:
/// 36 routers, 72 hosts, radix 7 per router.
pub fn dragonfly(a: u32, g: u32, h: u32, p: u32) -> Topology {
    let ids = DragonflyIds::new(a, g, h, p);
    let mut b = TopologyBuilder::new(
        format!("dragonfly-a{a}-g{g}-h{h}"),
        ids.num_switches(),
        ids.num_hosts(),
    )
    .kind(TopologyKind::Dragonfly { a, g, h, p });

    // Hosts.
    for s in 0..ids.num_switches() {
        for i in 0..p {
            b.attach(HostId(s * p + i), SwitchId(s));
        }
    }
    // Local links: full mesh within each group.
    for q in 0..g {
        for r1 in 0..a {
            for r2 in (r1 + 1)..a {
                b.fabric(ids.router(q, r1), ids.router(q, r2));
            }
        }
    }
    // Global links (palmtree).
    let mut seen = std::collections::HashSet::new();
    for (qa, ra, qb, rb) in ids.global_links() {
        let x = ids.router(qa, ra);
        let y = ids.router(qb, rb);
        if seen.insert((x, y)) {
            b.fabric(x, y);
        }
    }
    crate::graph::built(b.build(), "dragonfly")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_counts() {
        let t = dragonfly(4, 9, 2, 2);
        assert_eq!(t.num_switches(), 36);
        assert_eq!(t.num_hosts(), 72);
        assert!(t.is_connected());
        // Local links: 9 groups * C(4,2)=6 -> 54. Global: 9*8/2 pairs = 36.
        assert_eq!(t.num_fabric_links(), 54 + 36);
    }

    #[test]
    fn paper_config_radix() {
        let t = dragonfly(4, 9, 2, 2);
        // a-1 local + h global + p hosts = 3 + 2 + 2 = 7.
        for s in 0..t.num_switches() {
            assert_eq!(t.radix(SwitchId(s)), 7);
        }
    }

    #[test]
    fn every_group_pair_joined() {
        let t = dragonfly(4, 9, 2, 2);
        let ids = DragonflyIds::new(4, 9, 2, 2);
        let mut pairs = std::collections::HashSet::new();
        for l in t.fabric_links() {
            let a = l.a.as_switch().unwrap();
            let b = l.b.as_switch().unwrap();
            let (ga, gb) = (ids.group_of(a), ids.group_of(b));
            if ga != gb {
                pairs.insert((ga.min(gb), ga.max(gb)));
            }
        }
        assert_eq!(pairs.len(), (9 * 8 / 2) as usize);
    }

    #[test]
    fn small_df_connected_diameter() {
        let t = dragonfly(2, 3, 1, 1);
        assert!(t.is_connected());
        // local hop + global hop + local hop max
        assert!(t.diameter().unwrap() <= 3);
    }
}
