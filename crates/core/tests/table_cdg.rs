//! The channel-dependency graph (CDG) the installed flow tables realize,
//! against the one the Deadlock Avoidance module certifies.
//!
//! `cdg::analyze` judges the logical `RouteTable`, virtual channels
//! included. The switches only ever see the synthesized tables, and those
//! carry no priority: every packet stays on the lossless priority it was
//! sent on. Here the CDG is rebuilt from the tables alone — every ordered
//! host pair walked hop by hop through the live switches
//! (`instantiate` + `walk_addrs`), each fabric egress port a node at
//! priority 0, each consecutive pair of them a dependency — and held to
//! the logical routes' CDG with each channel mapped to the physical
//! egress port its link is realized on.
//!
//! The 1-VC rows of Table III agree node for node and edge for edge. The
//! 2-VC rows (dragonfly, tori) cannot: a route's VC change never reaches a
//! switch, so the tables' CDG folds both VCs onto one priority and closes
//! a cycle the logical CDG breaks. Those rows are pinned as ignored known
//! defects until the tables carry the priority.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use sdt_core::cluster::{ClusterBuilder, PhysPort, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_core::sdt::{SdtProjection, SdtProjector};
use sdt_core::synthesis::addr_of;
use sdt_core::walk::{instantiate, walk_addrs, WalkEnd};
use sdt_routing::cdg::{analyze, DeadlockAnalysis};
use sdt_routing::{default_strategy, RouteTable};
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::{mesh, torus};
use sdt_topology::{HostId, Topology};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A CDG node: the physical switch, the egress port, and the priority (or
/// VC) the packet leaves on.
type Node = (u32, u16, u8);

/// A CDG kept in the order its walks met nodes and dependencies.
#[derive(Debug, Default)]
struct Cdg {
    nodes: Vec<Node>,
    index: HashMap<Node, usize>,
    /// Per node, its successors in the order first met.
    next: Vec<Vec<usize>>,
    edges: HashSet<(usize, usize)>,
}

impl Cdg {
    /// Add one packet's channel sequence.
    fn add_path(&mut self, path: &[Node]) {
        let mut prev = None;
        for &node in path {
            let at = *self.index.entry(node).or_insert_with(|| {
                self.nodes.push(node);
                self.next.push(Vec::new());
                self.nodes.len() - 1
            });
            if let Some(p) = prev {
                if self.edges.insert((p, at)) {
                    self.next[p].push(at);
                }
            }
            prev = Some(at);
        }
    }

    fn node_set(&self) -> BTreeSet<Node> {
        self.nodes.iter().copied().collect()
    }

    fn edge_set(&self) -> BTreeSet<(Node, Node)> {
        self.edges.iter().map(|&(a, b)| (self.nodes[a], self.nodes[b])).collect()
    }

    /// The length of a dependency cycle, if the graph has one. The search
    /// is `cdg::analyze`'s — depth first from each node in the order met,
    /// successors in the order met — and the walks meet channels in the
    /// order `analyze` meets them in the routes, so a cycle found here is
    /// the one `analyze` finds on the same routes with every VC set to 0.
    fn cycle_len(&self) -> Option<usize> {
        // `None` = unvisited, `Some(Some(depth))` = on the current path,
        // `Some(None)` = finished.
        let mut state: Vec<Option<Option<usize>>> = vec![None; self.nodes.len()];
        for start in 0..self.nodes.len() {
            if state[start].is_some() {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state[start] = Some(Some(0));
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if let Some(&v) = self.next[u].get(*i) {
                    *i += 1;
                    match state[v] {
                        None => {
                            state[v] = Some(Some(stack.len()));
                            stack.push((v, 0));
                        }
                        Some(Some(depth)) => return Some(stack.len() - depth),
                        Some(None) => {}
                    }
                } else {
                    state[u] = Some(None);
                    stack.pop();
                }
            }
        }
        None
    }
}

fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

fn hosts(topo: &Topology) -> impl Iterator<Item = (HostId, HostId)> + '_ {
    let all = move || (0..topo.num_hosts()).map(HostId);
    all().flat_map(move |a| all().filter(move |&b| b != a).map(move |b| (a, b)))
}

/// The CDG of the installed tables: every ordered host pair walked through
/// the live switches, every hop out of a fabric port a node at priority 0.
fn table_cdg(topo: &Topology, cluster: &PhysicalCluster, proj: &SdtProjection) -> Cdg {
    let mut switches = instantiate(cluster, proj);
    let mut cdg = Cdg::default();
    for (a, b) in hosts(topo) {
        let start = proj.primary_host_port(topo, a);
        let (end, path) = walk_addrs(cluster, &mut switches, start, addr_of(a), addr_of(b));
        assert!(matches!(end, WalkEnd::Egress(_)), "{} h{}->h{}: {end:?}", topo.name(), a.0, b.0);
        let channels: Vec<Node> = path
            .iter()
            .filter(|&&(sw, _, out)| !cluster.is_host_port(PhysPort { switch: sw, port: out }))
            .map(|&(sw, _, out)| (sw, out.0, 0))
            .collect();
        cdg.add_path(&channels);
    }
    cdg
}

/// The CDG of the logical routes, each channel `s -> t` on VC `v` mapped to
/// `(the egress port of s's end of the s-t link, v)` — the link synthesis
/// forwards `s -> t` on.
fn logical_cdg(topo: &Topology, proj: &SdtProjection, routes: &RouteTable) -> Cdg {
    let mut cdg = Cdg::default();
    for (a, b) in hosts(topo) {
        let (sa, sb) = (topo.host_switch(a), topo.host_switch(b));
        if sa == sb {
            continue; // turned around inside one switch: no channel
        }
        let route = routes.route(sa, sb);
        let channels: Vec<Node> = route
            .hops
            .windows(2)
            .zip(&route.vcs)
            .map(|(w, &vc)| {
                let lid = topo.neighbors(w[0]).iter().find(|&&(n, _)| n == w[1]).map(|&(_, l)| l);
                let port = proj.port_of[&(w[0], lid.expect("route hops are fabric neighbors"))];
                (port.switch, port.port.0, vc)
            })
            .collect();
        cdg.add_path(&channels);
    }
    cdg
}

/// Project `topo` with its default routes and hold the tables' CDG to the
/// logical one: the same verdict, then the same nodes and edges.
fn tables_agree_with_routes(topo: &Topology, cluster: &PhysicalCluster) {
    let routes = default_routes(topo);
    let proj = SdtProjector::default().project(topo, cluster, &routes).unwrap();
    let logical = logical_cdg(topo, &proj, &routes);
    match analyze(&routes) {
        DeadlockAnalysis::Free { nodes, .. } => assert_eq!(logical.nodes.len(), nodes),
        DeadlockAnalysis::Cycle(c) => panic!("{}: routes cyclic ({})", topo.name(), c.len()),
    }
    let tables = table_cdg(topo, cluster, &proj);
    if let Some(len) = tables.cycle_len() {
        panic!(
            "{}: the tables' CDG has a dependency cycle of length {len}; \
             the routes' ({} VCs) has none",
            topo.name(),
            routes.num_vcs()
        );
    }
    assert_eq!(tables.node_set(), logical.node_set(), "{}: CDG nodes differ", topo.name());
    assert_eq!(tables.edge_set(), logical.edge_set(), "{}: CDG dependencies differ", topo.name());
}

/// Four synthetic 512-port switches: room for every Table III row.
fn wide_cluster() -> PhysicalCluster {
    let wide = SwitchModel {
        name: "synthetic 512x100G",
        ports: 512,
        gbps: 100,
        price_usd: 0,
        table_capacity: 262_144,
        p4: false,
    };
    ClusterBuilder::new(wide, 4).hosts_per_switch(64).inter_links_per_pair(96).build()
}

#[test]
fn fat_tree_k4_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&fat_tree(4), &wide_cluster());
}

#[test]
fn mesh_4x4_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&mesh(&[4, 4]), &wide_cluster());
}

#[test]
fn mesh_3x3x3_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&mesh(&[3, 3, 3]), &wide_cluster());
}

/// Cycle of length 16 when both VCs fold onto one priority.
#[test]
#[ignore = "known defect: VCs not in tables"]
fn dragonfly_4_9_2_2_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&dragonfly(4, 9, 2, 2), &wide_cluster());
}

/// Cycle of length 5 (one dimension's ring) without the dateline VC.
#[test]
#[ignore = "known defect: VCs not in tables"]
fn torus_5x5_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&torus(&[5, 5]), &wide_cluster());
}

/// Cycle of length 4 (one dimension's ring) without the dateline VC.
#[test]
#[ignore = "known defect: VCs not in tables"]
fn torus_4x4x4_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&torus(&[4, 4, 4]), &wide_cluster());
}

/// The 4×4 torus of the paper's migration pin, on its three-switch H3C
/// cluster: cycle of length 4.
#[test]
#[ignore = "known defect: VCs not in tables"]
fn torus_4x4_tables_realize_the_certified_cdg() {
    let cluster = ClusterBuilder::new(SwitchModel::h3c_64x10g(), 3)
        .hosts_per_switch(8)
        .inter_links_per_pair(12)
        .build();
    tables_agree_with_routes(&torus(&[4, 4]), &cluster);
}

/// The 8×16 torus of the wide migration pin: cycle of length 16.
#[test]
#[ignore = "known defect: VCs not in tables"]
fn torus_8x16_tables_realize_the_certified_cdg() {
    tables_agree_with_routes(&torus(&[8, 16]), &wide_cluster());
}
