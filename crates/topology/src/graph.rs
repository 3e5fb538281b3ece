//! Core graph representation of a logical topology.
//!
//! A [`Topology`] is an undirected multigraph over two vertex classes:
//! *logical switches* (the things Topology Projection maps onto physical
//! sub-switches) and *hosts* (compute nodes attached to the fabric). Links
//! connect switch↔switch or host↔switch; host↔host links are rejected.

use std::fmt;

/// Identifier of a logical switch (dense, `0..num_switches`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// Identifier of a host / compute node (dense, `0..num_hosts`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Identifier of a logical link (dense, `0..links.len()`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}
impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}
impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl SwitchId {
    /// Index into per-switch arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl HostId {
    /// Index into per-host arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl LinkId {
    /// Index into per-link arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One endpoint of a logical link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A logical switch.
    Switch(SwitchId),
    /// An end host.
    Host(HostId),
}

impl Endpoint {
    /// The switch behind this endpoint, if it is one.
    pub fn as_switch(self) -> Option<SwitchId> {
        match self {
            Endpoint::Switch(s) => Some(s),
            Endpoint::Host(_) => None,
        }
    }
}

/// An undirected logical link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Link {
    /// Dense link identifier.
    pub id: LinkId,
    /// First endpoint.
    pub a: Endpoint,
    /// Second endpoint.
    pub b: Endpoint,
}

impl Link {
    /// Both endpoints as switches. Panics on a host link — callers reach
    /// this only through [`Topology::fabric_links`], which filters to
    /// switch–switch links, so a miss here is a topology-invariant bug.
    pub fn switch_ends(&self) -> (SwitchId, SwitchId) {
        match (self.a.as_switch(), self.b.as_switch()) {
            (Some(a), Some(b)) => (a, b),
            _ => unreachable!("fabric links join switches at both ends"),
        }
    }

    /// True if this link joins two switches (a *fabric* link).
    pub fn is_fabric(&self) -> bool {
        matches!((self.a, self.b), (Endpoint::Switch(_), Endpoint::Switch(_)))
    }

    /// True if this link attaches a host to a switch.
    pub fn is_host(&self) -> bool {
        !self.is_fabric()
    }

    /// Given one endpoint, the opposite one. Panics if `e` is not on the link.
    pub fn other(&self, e: Endpoint) -> Endpoint {
        if self.a == e {
            self.b
        } else if self.b == e {
            self.a
        } else {
            panic!("endpoint {e:?} not on link {:?}", self.id)
        }
    }
}

/// Which generator produced a topology (with its parameters), so routing
/// strategies can exploit structure (Table III of the paper).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyKind {
    /// k-ary Fat-Tree.
    FatTree {
        /// Pod/port parameter; must be even.
        k: u32,
    },
    /// Dragonfly with `a` routers per group, `g` groups, `h` global links
    /// per router, and `p` terminals per router.
    Dragonfly {
        /// Routers per group.
        a: u32,
        /// Number of groups.
        g: u32,
        /// Global links per router.
        h: u32,
        /// Hosts per router.
        p: u32,
    },
    /// n-dimensional mesh (no wraparound).
    Mesh {
        /// Extent of each dimension.
        dims: Vec<u32>,
    },
    /// n-dimensional torus (wraparound in every dimension).
    Torus {
        /// Extent of each dimension.
        dims: Vec<u32>,
    },
    /// BCube(n, k) server-centric topology.
    BCube {
        /// Switch port count per level.
        n: u32,
        /// Levels minus one (BCube_k has k+1 levels).
        k: u32,
    },
    /// Linear chain of switches, one host each (Fig. 10 fixture).
    Chain {
        /// Number of switches.
        n: u32,
    },
    /// Ring of switches, one host each.
    Ring {
        /// Number of switches.
        n: u32,
    },
    /// One hub switch with `leaves` single-host leaf switches.
    Star {
        /// Number of leaf switches.
        leaves: u32,
    },
    /// Synthetic WAN graph from the Topology-Zoo-like corpus.
    Wan {
        /// Index into the 261-graph corpus.
        index: u32,
    },
    /// Hand-built topology.
    Custom,
}

/// Errors raised while building or validating a topology.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// A link referenced a switch id `>= num_switches`.
    SwitchOutOfRange(SwitchId),
    /// A link referenced a host id `>= num_hosts`.
    HostOutOfRange(HostId),
    /// Both endpoints of a link were the same vertex.
    SelfLoop(Endpoint),
    /// A host↔host link was requested.
    HostToHostLink(HostId, HostId),
    /// The same unordered endpoint pair appeared twice.
    DuplicateLink(Endpoint, Endpoint),
    /// A host ended up with no attachment to any switch.
    OrphanHost(HostId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::SwitchOutOfRange(s) => write!(f, "switch {s:?} out of range"),
            TopologyError::HostOutOfRange(h) => write!(f, "host {h:?} out of range"),
            TopologyError::SelfLoop(e) => write!(f, "self-loop at {e:?}"),
            TopologyError::HostToHostLink(a, b) => {
                write!(f, "host-to-host link {a:?}-{b:?} not allowed")
            }
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a:?}-{b:?}"),
            TopologyError::OrphanHost(h) => write!(f, "host {h:?} attached to no switch"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental builder for [`Topology`].
///
/// ```
/// use sdt_topology::{TopologyBuilder, SwitchId, HostId};
/// let mut b = TopologyBuilder::new("pair", 2, 2);
/// b.fabric(SwitchId(0), SwitchId(1));
/// b.attach(HostId(0), SwitchId(0));
/// b.attach(HostId(1), SwitchId(1));
/// let t = b.build().unwrap();
/// assert_eq!(t.fabric_links().count(), 1);
/// ```
pub struct TopologyBuilder {
    name: String,
    kind: TopologyKind,
    num_switches: u32,
    num_hosts: u32,
    links: Vec<(Endpoint, Endpoint)>,
}

impl TopologyBuilder {
    /// Start a topology with fixed switch/host counts.
    pub fn new(name: impl Into<String>, num_switches: u32, num_hosts: u32) -> Self {
        TopologyBuilder {
            name: name.into(),
            kind: TopologyKind::Custom,
            num_switches,
            num_hosts,
            links: Vec::new(),
        }
    }

    /// Tag the topology with the generator that produced it.
    pub fn kind(mut self, kind: TopologyKind) -> Self {
        self.kind = kind;
        self
    }

    /// Add a switch↔switch link.
    pub fn fabric(&mut self, a: SwitchId, b: SwitchId) -> &mut Self {
        self.links.push((Endpoint::Switch(a), Endpoint::Switch(b)));
        self
    }

    /// Attach a host to a switch.
    pub fn attach(&mut self, h: HostId, s: SwitchId) -> &mut Self {
        self.links.push((Endpoint::Host(h), Endpoint::Switch(s)));
        self
    }

    /// Validate and freeze the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        Topology::new(self.name, self.kind, self.num_switches, self.num_hosts, self.links)
    }
}

/// Unwrap a generator's [`TopologyBuilder::build`] result. Generators wire
/// topologies from closed-form rules, so a build failure is a bug in the
/// generator itself, never a user error — hence `unreachable!` rather than
/// an `expect` on caller-supplied input.
pub(crate) fn built(r: Result<Topology, TopologyError>, generator: &str) -> Topology {
    match r {
        Ok(t) => t,
        Err(e) => unreachable!("{generator} generator produces a valid topology: {e}"),
    }
}

/// An immutable, validated logical topology.
#[derive(Clone, Debug)]
pub struct Topology {
    name: String,
    kind: TopologyKind,
    num_switches: u32,
    num_hosts: u32,
    links: Vec<Link>,
    /// Per switch: (neighbor switch, link) pairs, fabric links only.
    sw_adj: Vec<Vec<(SwitchId, LinkId)>>,
    /// Per switch: attached (host, link) pairs.
    sw_hosts: Vec<Vec<(HostId, LinkId)>>,
    /// Per host: attachment points (multi-homed hosts possible, e.g. BCube).
    host_adj: Vec<Vec<(SwitchId, LinkId)>>,
}

impl Topology {
    /// Validate endpoints and build adjacency. Prefer [`TopologyBuilder`].
    pub fn new(
        name: String,
        kind: TopologyKind,
        num_switches: u32,
        num_hosts: u32,
        raw_links: Vec<(Endpoint, Endpoint)>,
    ) -> Result<Self, TopologyError> {
        let mut links = Vec::with_capacity(raw_links.len());
        let mut sw_adj = vec![Vec::new(); num_switches as usize];
        let mut sw_hosts = vec![Vec::new(); num_switches as usize];
        let mut host_adj = vec![Vec::new(); num_hosts as usize];
        let mut seen = std::collections::HashSet::with_capacity(raw_links.len());

        let check = |e: Endpoint| -> Result<(), TopologyError> {
            match e {
                Endpoint::Switch(s) if s.0 >= num_switches => {
                    Err(TopologyError::SwitchOutOfRange(s))
                }
                Endpoint::Host(h) if h.0 >= num_hosts => Err(TopologyError::HostOutOfRange(h)),
                _ => Ok(()),
            }
        };

        for (a, b) in raw_links {
            check(a)?;
            check(b)?;
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            if let (Endpoint::Host(x), Endpoint::Host(y)) = (a, b) {
                return Err(TopologyError::HostToHostLink(x, y));
            }
            let key = if canon(a) <= canon(b) { (a, b) } else { (b, a) };
            if !seen.insert(key) {
                return Err(TopologyError::DuplicateLink(a, b));
            }
            let id = LinkId(links.len() as u32);
            links.push(Link { id, a, b });
            match (a, b) {
                (Endpoint::Switch(x), Endpoint::Switch(y)) => {
                    sw_adj[x.idx()].push((y, id));
                    sw_adj[y.idx()].push((x, id));
                }
                (Endpoint::Host(h), Endpoint::Switch(s))
                | (Endpoint::Switch(s), Endpoint::Host(h)) => {
                    sw_hosts[s.idx()].push((h, id));
                    host_adj[h.idx()].push((s, id));
                }
                _ => unreachable!("host-host rejected above"),
            }
        }

        for (h, adj) in host_adj.iter().enumerate() {
            if adj.is_empty() {
                return Err(TopologyError::OrphanHost(HostId(h as u32)));
            }
        }

        Ok(Topology { name, kind, num_switches, num_hosts, links, sw_adj, sw_hosts, host_adj })
    }

    /// Human-readable topology name (e.g. `"fat-tree-k4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Generator family and parameters.
    pub fn kind(&self) -> &TopologyKind {
        &self.kind
    }

    /// Number of logical switches.
    pub fn num_switches(&self) -> u32 {
        self.num_switches
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.num_hosts
    }

    /// All links (fabric and host attachments).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up a link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Iterator over switch↔switch links.
    pub fn fabric_links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(|l| l.is_fabric())
    }

    /// Fabric neighbors of a switch, with the joining link.
    pub fn neighbors(&self, s: SwitchId) -> &[(SwitchId, LinkId)] {
        &self.sw_adj[s.idx()]
    }

    /// Hosts attached to a switch.
    pub fn hosts_of(&self, s: SwitchId) -> &[(HostId, LinkId)] {
        &self.sw_hosts[s.idx()]
    }

    /// Attachment points of a host (usually one; BCube hosts are multi-homed).
    pub fn attachments(&self, h: HostId) -> &[(SwitchId, LinkId)] {
        &self.host_adj[h.idx()]
    }

    /// Primary attachment switch of a host (first attachment).
    pub fn host_switch(&self, h: HostId) -> SwitchId {
        self.host_adj[h.idx()][0].0
    }

    /// Fabric degree of a switch (switch-facing ports).
    pub fn degree(&self, s: SwitchId) -> usize {
        self.sw_adj[s.idx()].len()
    }

    /// Radix (total port count) of a switch: fabric degree plus attached hosts.
    pub fn radix(&self, s: SwitchId) -> usize {
        self.degree(s) + self.sw_hosts[s.idx()].len()
    }

    /// Total switch ports the topology demands (each fabric link uses two
    /// switch ports, each host link one). This is the quantity Topology
    /// Projection must fit into the physical switch pool (§IV-A of the paper).
    pub fn total_switch_ports(&self) -> usize {
        self.links
            .iter()
            .map(|l| if l.is_fabric() { 2 } else { 1 })
            .sum()
    }

    /// Number of fabric (switch↔switch) links.
    pub fn num_fabric_links(&self) -> usize {
        self.fabric_links().count()
    }

    /// True if the switch graph is connected (ignoring hosts). Topologies with
    /// zero switches count as connected.
    pub fn is_connected(&self) -> bool {
        if self.num_switches == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_switches as usize];
        let mut stack = vec![SwitchId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(s) = stack.pop() {
            for &(n, _) in self.neighbors(s) {
                if !seen[n.idx()] {
                    seen[n.idx()] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.num_switches
    }

    /// Connected-component label of every switch (labels are dense, in
    /// first-seen order). Used to co-deploy disjoint topologies on one SDT
    /// cluster (the §VI-B isolation experiment).
    pub fn component_of(&self) -> Vec<u32> {
        let n = self.num_switches as usize;
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        for start in 0..n as u32 {
            if comp[start as usize] != u32::MAX {
                continue;
            }
            let mut stack = vec![SwitchId(start)];
            comp[start as usize] = next;
            while let Some(s) = stack.pop() {
                for &(v, _) in self.neighbors(s) {
                    if comp[v.idx()] == u32::MAX {
                        comp[v.idx()] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// BFS hop distance between two switches, or `None` if disconnected.
    pub fn switch_distance(&self, from: SwitchId, to: SwitchId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; self.num_switches as usize];
        let mut queue = std::collections::VecDeque::new();
        dist[from.idx()] = 0;
        queue.push_back(from);
        while let Some(s) = queue.pop_front() {
            for &(n, _) in self.neighbors(s) {
                if dist[n.idx()] == u32::MAX {
                    dist[n.idx()] = dist[s.idx()] + 1;
                    if n == to {
                        return Some(dist[n.idx()]);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Diameter of the switch graph (max pairwise hop distance). `None` if
    /// disconnected. O(V·E) — intended for tests and reporting, not hot paths.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for s in 0..self.num_switches {
            let ecc = self.eccentricity(SwitchId(s))?;
            best = best.max(ecc);
        }
        Some(best)
    }

    fn eccentricity(&self, from: SwitchId) -> Option<u32> {
        let mut dist = vec![u32::MAX; self.num_switches as usize];
        let mut queue = std::collections::VecDeque::new();
        dist[from.idx()] = 0;
        queue.push_back(from);
        let mut reached = 1;
        let mut max = 0;
        while let Some(s) = queue.pop_front() {
            for &(n, _) in self.neighbors(s) {
                if dist[n.idx()] == u32::MAX {
                    dist[n.idx()] = dist[s.idx()] + 1;
                    max = max.max(dist[n.idx()]);
                    reached += 1;
                    queue.push_back(n);
                }
            }
        }
        (reached == self.num_switches).then_some(max)
    }

    /// Disjoint union of several topologies: switch and host ids of part
    /// `i` are offset by the totals of parts `0..i`. Used to co-deploy
    /// independent experiments on one SDT cluster (§VI-B's isolation
    /// evaluation runs two unconnected topologies side by side).
    ///
    /// ```
    /// use sdt_topology::{chain::chain, Topology};
    /// let u = Topology::disjoint_union("pair", &[&chain(3), &chain(4)]);
    /// assert_eq!(u.num_switches(), 7);
    /// assert_eq!(u.num_hosts(), 7);
    /// assert!(!u.is_connected());
    /// assert_eq!(u.component_of().iter().max(), Some(&1));
    /// ```
    pub fn disjoint_union(name: impl Into<String>, parts: &[&Topology]) -> Topology {
        let num_switches: u32 = parts.iter().map(|t| t.num_switches()).sum();
        let num_hosts: u32 = parts.iter().map(|t| t.num_hosts()).sum();
        let mut links = Vec::new();
        let (mut s_off, mut h_off) = (0u32, 0u32);
        for t in parts {
            let shift = |e: Endpoint| match e {
                Endpoint::Switch(s) => Endpoint::Switch(SwitchId(s.0 + s_off)),
                Endpoint::Host(h) => Endpoint::Host(HostId(h.0 + h_off)),
            };
            for l in t.links() {
                links.push((shift(l.a), shift(l.b)));
            }
            s_off += t.num_switches();
            h_off += t.num_hosts();
        }
        match Topology::new(name.into(), TopologyKind::Custom, num_switches, num_hosts, links) {
            Ok(t) => t,
            Err(e) => unreachable!("disjoint parts cannot collide: {e}"),
        }
    }

    /// The switch-graph as plain adjacency lists with unit edge weights —
    /// the form consumed by the `sdt-partition` crate. Host attachments are
    /// folded into vertex weights so partitions balance *ports*, not just
    /// fabric links.
    pub fn switch_graph(&self) -> (Vec<Vec<(u32, u64)>>, Vec<u64>) {
        let adj = self
            .sw_adj
            .iter()
            .map(|ns| ns.iter().map(|&(n, _)| (n.0, 1u64)).collect())
            .collect();
        let weights = (0..self.num_switches)
            .map(|s| self.radix(SwitchId(s)) as u64)
            .collect();
        (adj, weights)
    }
}

/// Canonical ordering key so (a,b) and (b,a) hash identically.
fn canon(e: Endpoint) -> (u8, u32) {
    match e {
        Endpoint::Switch(s) => (0, s.0),
        Endpoint::Host(h) => (1, h.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> Topology {
        let mut b = TopologyBuilder::new("pair", 2, 2);
        b.fabric(SwitchId(0), SwitchId(1));
        b.attach(HostId(0), SwitchId(0));
        b.attach(HostId(1), SwitchId(1));
        b.build().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let t = pair();
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.num_fabric_links(), 1);
        assert_eq!(t.total_switch_ports(), 4); // 2 fabric + 2 host-facing
        assert!(t.is_connected());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let t = pair();
        assert_eq!(t.neighbors(SwitchId(0)), &[(SwitchId(1), LinkId(0))]);
        assert_eq!(t.neighbors(SwitchId(1)), &[(SwitchId(0), LinkId(0))]);
    }

    #[test]
    fn radix_counts_hosts() {
        let t = pair();
        assert_eq!(t.degree(SwitchId(0)), 1);
        assert_eq!(t.radix(SwitchId(0)), 2);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new("bad", 1, 0);
        b.fabric(SwitchId(0), SwitchId(0));
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(Endpoint::Switch(SwitchId(0))));
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        let mut b = TopologyBuilder::new("bad", 2, 0);
        b.fabric(SwitchId(0), SwitchId(1));
        b.fabric(SwitchId(1), SwitchId(0));
        assert!(matches!(b.build().unwrap_err(), TopologyError::DuplicateLink(..)));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = TopologyBuilder::new("bad", 1, 0);
        b.fabric(SwitchId(0), SwitchId(5));
        assert_eq!(b.build().unwrap_err(), TopologyError::SwitchOutOfRange(SwitchId(5)));
    }

    #[test]
    fn rejects_orphan_host() {
        let b = TopologyBuilder::new("bad", 1, 1);
        assert_eq!(b.build().unwrap_err(), TopologyError::OrphanHost(HostId(0)));
    }

    #[test]
    fn distance_and_diameter() {
        let mut b = TopologyBuilder::new("path3", 3, 0);
        b.fabric(SwitchId(0), SwitchId(1));
        b.fabric(SwitchId(1), SwitchId(2));
        let t = b.build().unwrap();
        assert_eq!(t.switch_distance(SwitchId(0), SwitchId(2)), Some(2));
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn disconnected_detected() {
        let mut b = TopologyBuilder::new("disc", 4, 0);
        b.fabric(SwitchId(0), SwitchId(1));
        b.fabric(SwitchId(2), SwitchId(3));
        let t = b.build().unwrap();
        assert!(!t.is_connected());
        assert_eq!(t.switch_distance(SwitchId(0), SwitchId(3)), None);
        assert_eq!(t.diameter(), None);
    }

    #[test]
    fn link_other_endpoint() {
        let t = pair();
        let l = t.link(LinkId(0));
        assert_eq!(l.other(Endpoint::Switch(SwitchId(0))), Endpoint::Switch(SwitchId(1)));
    }
}
