//! Routing strategies and deadlock avoidance for SDT logical topologies.
//!
//! Implements the paper's Table III:
//!
//! | Topology     | Routing strategy                  | Deadlock avoidance      |
//! |--------------|-----------------------------------|-------------------------|
//! | Fat-Tree     | deterministic up/down (DFS order) | none needed             |
//! | Dragonfly    | minimal routing                   | VC change (Dally'93)    |
//! | 2D-Mesh      | X-Y routing                       | by routing (turn order) |
//! | 3D-Mesh      | X-Y-Z routing                     | by routing              |
//! | 2D/3D-Torus  | dimension order + dateline VCs    | by routing + VC change  |
//!
//! plus Valiant and UGAL-style adaptive routing for Dragonfly (the §VI-E
//! "active routing" experiment) and a spanning-tree up/down fallback for
//! arbitrary graphs (WANs, chains, rings).
//!
//! Every strategy emits [`Route`]s whose per-hop virtual-channel assignment
//! can be checked for deadlock freedom with the channel-dependency-graph
//! analysis in [`cdg`] (Dally & Seitz's criterion: the CDG over
//! (channel, VC) pairs must be acyclic).

pub mod cdg;
pub mod dimension;
pub mod dragonfly;
pub mod fattree;
pub mod generic;

use sdt_topology::{SwitchId, Topology};
use std::collections::HashMap;

/// A switch-level path with per-channel virtual channel assignment.
///
/// `hops` lists the switches traversed, source switch first, destination
/// switch last. `vcs[i]` is the virtual channel used on the fabric link from
/// `hops[i]` to `hops[i+1]` (so `vcs.len() == hops.len() - 1`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    /// Switches traversed, endpoints included.
    pub hops: Vec<SwitchId>,
    /// Virtual channel per fabric link.
    pub vcs: Vec<u8>,
}

impl Route {
    /// A route that never leaves the source switch.
    pub fn local(s: SwitchId) -> Self {
        Route { hops: vec![s], vcs: Vec::new() }
    }

    /// Number of fabric links traversed.
    pub fn len(&self) -> usize {
        self.vcs.len()
    }

    /// True for single-switch routes.
    pub fn is_empty(&self) -> bool {
        self.vcs.is_empty()
    }

    /// Validate the route against a topology: consecutive hops must be
    /// fabric neighbors and vc count must match.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if self.hops.is_empty() {
            return Err("empty route".into());
        }
        if self.vcs.len() + 1 != self.hops.len() {
            return Err(format!(
                "vc count {} does not match hop count {}",
                self.vcs.len(),
                self.hops.len()
            ));
        }
        for w in self.hops.windows(2) {
            if !topo.neighbors(w[0]).iter().any(|&(n, _)| n == w[1]) {
                return Err(format!("{:?} -> {:?} is not a fabric link", w[0], w[1]));
            }
        }
        Ok(())
    }
}

/// Observed per-directed-channel load, fed by the Network Monitor module
/// (§V-3 of the paper) and consumed by adaptive strategies.
#[derive(Clone, Debug, Default)]
pub struct LoadMap {
    loads: HashMap<(SwitchId, SwitchId), f64>,
}

impl LoadMap {
    /// Empty load map (all channels idle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the load estimate of the directed channel `from -> to`.
    pub fn set(&mut self, from: SwitchId, to: SwitchId, load: f64) {
        self.loads.insert((from, to), load);
    }

    /// Load estimate of the directed channel `from -> to`.
    ///
    /// Fabric links are bidirectional in the engine: every logical link is
    /// two directed channels, and monitors may only have sampled one
    /// direction (e.g. a hardware counter on one port). When the forward
    /// key is unknown the reverse direction is the best available estimate,
    /// so `get` falls back to it before reporting an idle 0.0.
    pub fn get(&self, from: SwitchId, to: SwitchId) -> f64 {
        self.loads
            .get(&(from, to))
            .or_else(|| self.loads.get(&(to, from)))
            .copied()
            .unwrap_or(0.0)
    }
}

/// A routing strategy: maps switch pairs to routes.
pub trait RoutingStrategy {
    /// Strategy name for reports (e.g. `"dragonfly-minimal"`).
    fn name(&self) -> &str;

    /// Number of virtual channels the strategy requires.
    fn num_vcs(&self) -> u8;

    /// Route between two switches. Must return a route starting at `from`
    /// and ending at `to`.
    fn route(&self, topo: &Topology, from: SwitchId, to: SwitchId) -> Route;

    /// Adaptive variant consulting channel loads; the default ignores them.
    fn route_adaptive(
        &self,
        topo: &Topology,
        from: SwitchId,
        to: SwitchId,
        _loads: &LoadMap,
    ) -> Route {
        self.route(topo, from, to)
    }
}

/// Precomputed all-pairs route table, the form consumed by the simulator and
/// by the controller's flow-table synthesis.
///
/// Storage is a dense `Vec` indexed by `from * n + to` — route lookup on the
/// simulator's flow-setup path is a single indexed load instead of a hash of
/// the `(SwitchId, SwitchId)` pair. Sparse tables (host-pair-only builds)
/// leave unpopulated slots as `None`; `pairs` keeps the populated keys for
/// iteration in insertion order.
#[derive(Clone, Debug)]
pub struct RouteTable {
    /// `n * n` slots, `from.0 * n + to.0`; `None` = no route in the table.
    slots: Vec<Option<Route>>,
    /// Populated `(from, to)` keys, in insertion order (drives `iter`).
    pairs: Vec<(SwitchId, SwitchId)>,
    /// Switch count the table was sized for.
    n: u32,
    num_vcs: u8,
    strategy: String,
}

impl RouteTable {
    fn empty(n: u32, strategy: &dyn RoutingStrategy) -> Self {
        RouteTable {
            slots: vec![None; (n as usize) * (n as usize)],
            pairs: Vec::new(),
            n,
            num_vcs: strategy.num_vcs(),
            strategy: strategy.name().to_string(),
        }
    }

    #[inline]
    fn slot(&self, from: SwitchId, to: SwitchId) -> usize {
        debug_assert!(from.0 < self.n && to.0 < self.n);
        from.0 as usize * self.n as usize + to.0 as usize
    }

    fn insert(&mut self, from: SwitchId, to: SwitchId, r: Route) {
        let ix = self.slot(from, to);
        if self.slots[ix].is_none() {
            self.pairs.push((from, to));
        }
        self.slots[ix] = Some(r);
    }

    /// Build routes for every ordered switch pair under `strategy`.
    pub fn build(topo: &Topology, strategy: &dyn RoutingStrategy) -> Self {
        Self::build_adaptive(topo, strategy, None)
    }

    /// Build routes, optionally consulting a load map (adaptive routing).
    pub fn build_adaptive(
        topo: &Topology,
        strategy: &dyn RoutingStrategy,
        loads: Option<&LoadMap>,
    ) -> Self {
        let n = topo.num_switches();
        let mut table = Self::empty(n, strategy);
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (from, to) = (SwitchId(a), SwitchId(b));
                let r = match loads {
                    Some(l) => strategy.route_adaptive(topo, from, to, l),
                    None => strategy.route(topo, from, to),
                };
                debug_assert_eq!(r.hops.first(), Some(&from));
                debug_assert_eq!(r.hops.last(), Some(&to));
                table.insert(from, to, r);
            }
        }
        table
    }

    /// Build routes only for the switch pairs that carry host traffic
    /// (attachment switches of host pairs). This is the set that matters for
    /// deadlock analysis: strategies like Fat-Tree up/down are only defined
    /// — and only need to be deadlock-free — for edge-to-edge traffic.
    pub fn build_for_hosts(topo: &Topology, strategy: &dyn RoutingStrategy) -> Self {
        let comp = topo.component_of();
        // Two different attachment switches always mean two different
        // hosts, so pairing the distinct switches covers every host pair.
        let attached: std::collections::BTreeSet<SwitchId> =
            (0..topo.num_hosts()).map(|h| topo.host_switch(sdt_topology::HostId(h))).collect();
        let mut table = Self::empty(topo.num_switches(), strategy);
        // Ascending (from, to): the table lists its pairs in insertion order.
        for &from in &attached {
            for &to in &attached {
                // Hosts in different connected components have no route —
                // co-deployed disjoint topologies stay isolated.
                if from == to || comp[from.idx()] != comp[to.idx()] {
                    continue;
                }
                let r = strategy.route(topo, from, to);
                debug_assert_eq!(r.hops.first(), Some(&from));
                debug_assert_eq!(r.hops.last(), Some(&to));
                table.insert(from, to, r);
            }
        }
        table
    }

    /// The route between two distinct switches.
    ///
    /// # Panics
    /// When the table holds no route for the pair (see [`Self::try_route`]).
    pub fn route(&self, from: SwitchId, to: SwitchId) -> &Route {
        self.try_route(from, to)
            .unwrap_or_else(|| panic!("no route {from:?} -> {to:?} in table"))
    }

    /// The route between two switches, if the table has one (host-pair
    /// tables omit unreachable and untraversed pairs).
    #[inline]
    pub fn try_route(&self, from: SwitchId, to: SwitchId) -> Option<&Route> {
        self.slots[self.slot(from, to)].as_ref()
    }

    /// All routes in the table.
    pub fn iter(&self) -> impl Iterator<Item = (&(SwitchId, SwitchId), &Route)> {
        self.pairs.iter().map(|pair| {
            let r = match self.slots[self.slot(pair.0, pair.1)].as_ref() {
                Some(r) => r,
                None => unreachable!("pairs only lists populated slots"),
            };
            (pair, r)
        })
    }

    /// VC count of the generating strategy.
    pub fn num_vcs(&self) -> u8 {
        self.num_vcs
    }

    /// Name of the generating strategy.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }
}

/// Pick the strategy the paper pairs with each topology family
/// (Table III), as a boxed trait object.
pub fn default_strategy(topo: &Topology) -> Box<dyn RoutingStrategy> {
    use sdt_topology::TopologyKind as K;
    match topo.kind() {
        K::FatTree { k } => Box::new(fattree::FatTreeDfs::new(*k)),
        K::Dragonfly { a, g, h, p } => {
            Box::new(dragonfly::DragonflyMinimal::new(*a, *g, *h, *p, topo))
        }
        K::Mesh { dims } => Box::new(dimension::DimensionOrder::mesh(dims.clone())),
        K::Torus { dims } => Box::new(dimension::DimensionOrder::torus(dims.clone())),
        _ => Box::new(generic::UpDown::new(topo)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_topology::chain::chain;

    #[test]
    fn route_table_covers_all_pairs() {
        let t = chain(4);
        let table = RouteTable::build(&t, &generic::Bfs::new(&t));
        assert_eq!(table.iter().count(), 12);
        let r = table.route(SwitchId(0), SwitchId(3));
        assert_eq!(r.hops.len(), 4);
    }

    #[test]
    fn host_table_pairs_the_attachment_switches_of_routable_host_pairs() {
        // Two components, several hosts per edge switch, core switches
        // with none: the table's pairs are the attachment switches of every
        // same-component host pair, ascending.
        let (a, b) = (sdt_topology::fattree::fat_tree(4), chain(3));
        let t = Topology::disjoint_union("two", &[&a, &b]);
        let comp = t.component_of();
        let mut want = std::collections::BTreeSet::new();
        for x in 0..t.num_hosts() {
            for y in 0..t.num_hosts() {
                let (sx, sy) = (
                    t.host_switch(sdt_topology::HostId(x)),
                    t.host_switch(sdt_topology::HostId(y)),
                );
                if x != y && sx != sy && comp[sx.idx()] == comp[sy.idx()] {
                    want.insert((sx, sy));
                }
            }
        }
        let table = RouteTable::build_for_hosts(&t, &generic::Bfs::new(&t));
        let got: Vec<_> = table.iter().map(|(pair, _)| *pair).collect();
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        assert!(got.len() < t.num_switches() as usize * (t.num_switches() as usize - 1));
    }

    #[test]
    fn load_map_reverse_fallback() {
        let mut l = LoadMap::new();
        l.set(SwitchId(0), SwitchId(1), 0.7);
        // Only the forward direction was sampled: the reverse query falls
        // back to it rather than reporting idle.
        assert_eq!(l.get(SwitchId(1), SwitchId(0)), 0.7);
        // Once both directions are known they are kept distinct.
        l.set(SwitchId(1), SwitchId(0), 0.2);
        assert_eq!(l.get(SwitchId(1), SwitchId(0)), 0.2);
        assert_eq!(l.get(SwitchId(0), SwitchId(1)), 0.7);
        // Unrelated pairs still read 0.0.
        assert_eq!(l.get(SwitchId(3), SwitchId(4)), 0.0);
    }

    #[test]
    fn route_validate_catches_gaps() {
        let t = chain(4);
        let bad = Route { hops: vec![SwitchId(0), SwitchId(2)], vcs: vec![0] };
        assert!(bad.validate(&t).is_err());
        let good = Route { hops: vec![SwitchId(0), SwitchId(1)], vcs: vec![0] };
        assert!(good.validate(&t).is_ok());
    }
}
