//! Flow-table synthesis: lowering a projection + routing to OpenFlow.
//!
//! Produces the two-table pipeline described in [`sdt_openflow::switch`]:
//!
//! * **table 0** — one entry per in-use physical port: `in_port = p →
//!   write-metadata(sub-switch id), goto table 1`. This is the sub-switch
//!   partition (§IV-A): it pins every packet to the logical switch its
//!   ingress port belongs to.
//! * **table 1** — one entry per (sub-switch, destination host):
//!   `metadata = s ∧ ip_dst = d → output(port)`, where the port realizes the
//!   routing strategy's next hop (or the host port at the last hop). When a
//!   strategy is source-dependent (e.g. Valiant), higher-priority
//!   src-specific entries override the destination default.
//!
//! Misses drop. Nothing can leave a sub-switch's forwarding domain, which
//! is the property the §VI-B isolation experiment checks with a sniffer.

use crate::cluster::PhysPort;
use sdt_openflow::{Action, FlowEntry, FlowMatch, HostAddr, PortNo};
use sdt_routing::RouteTable;
use sdt_topology::{HostId, LinkId, SwitchId, Topology};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// Priorities of the synthesized entry classes.
const PRIO_CLASSIFY: u16 = 10;
const PRIO_DEFAULT: u16 = 5;
const PRIO_DST: u16 = 10;
const PRIO_SRC_OVERRIDE: u16 = 20;

/// Synthesized pipeline for every physical switch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthesisOutput {
    /// Per physical switch: table-0 entries (port classification).
    pub table0: Vec<Vec<FlowEntry>>,
    /// Per physical switch: table-1 entries (routing per sub-switch).
    pub table1: Vec<Vec<FlowEntry>>,
    /// Per physical switch: total entries (both tables).
    pub entries_per_switch: Vec<usize>,
}

/// The host address SDT assigns to a host id (identity mapping).
pub fn addr_of(h: HostId) -> HostAddr {
    HostAddr(h.0)
}

/// Lower `routes` over the projected `topo` to per-switch flow tables.
///
/// `assignment` maps logical→physical switches, `port_of` logical directed
/// ports→physical ports, `host_port` host attachments→host ports (all from
/// [`crate::sdt::SdtProjector`]).
pub fn synthesize_flow_tables(
    topo: &Topology,
    routes: &RouteTable,
    assignment: &[u32],
    port_of: &HashMap<(SwitchId, LinkId), PhysPort>,
    host_port: &HashMap<(HostId, LinkId), PhysPort>,
    num_phys: u32,
) -> SynthesisOutput {
    emit(&demand(topo, routes, port_of, host_port), assignment, port_of, num_phys, false)
}

/// Like [`synthesize_flow_tables`], but with §VII-C entry merging: for each
/// sub-switch the most common egress becomes one low-priority
/// `metadata-only` default entry, and only exceptions keep exact
/// destination entries. This shrinks tables by the fan-out factor when a
/// projection would otherwise exceed capacity — at the cost that packets to
/// *unknown* destinations entering that sub-switch follow the default
/// instead of dropping (packets can still never leave their sub-switch's
/// port domain, so co-deployed topologies remain port-isolated).
pub fn synthesize_flow_tables_merged(
    topo: &Topology,
    routes: &RouteTable,
    assignment: &[u32],
    port_of: &HashMap<(SwitchId, LinkId), PhysPort>,
    host_port: &HashMap<(HostId, LinkId), PhysPort>,
    num_phys: u32,
) -> SynthesisOutput {
    emit(&demand(topo, routes, port_of, host_port), assignment, port_of, num_phys, true)
}

/// What the routes ask of the pipeline, before it is lowered to entries.
struct Demand {
    /// Per logical switch: `(destination host, egress port)` in ascending
    /// destination order — the route default at that sub-switch.
    egress: Vec<Vec<(HostId, PhysPort)>>,
    /// `(sub-switch, source, destination)` triples whose route leaves on a
    /// different port than the default (source-dependent strategies).
    overrides: HashMap<(SwitchId, HostId, HostId), PhysPort>,
}

/// What the routes toward one destination switch ask of the switches they
/// cross: the part of [`demand`] every host behind that switch shares.
#[derive(Default)]
struct Toward {
    /// The default egress at each switch a route crosses before its last
    /// hop, other than the destination switch, in the order first crossed.
    defaults: Vec<(SwitchId, PhysPort)>,
    /// `(switch, ingress switch, port)`: a later route leaving that switch
    /// on another port than the default, in walk order.
    disagree: Vec<(SwitchId, SwitchId, PhysPort)>,
    /// Every visit of the destination switch, in walk order: where the
    /// source scan meets the walked ingress switch (its lowest host), the
    /// switch, and the port it leaves on — `None` at the route's end, where
    /// it is the destination host's own port.
    arrivals: Vec<(HostId, SwitchId, Option<PhysPort>)>,
}

/// Egress demand of `routes`, walked once per *destination switch*: routes
/// are keyed by switch pair, so every host behind one ingress switch
/// contributes the same hops, and toward every host behind one destination
/// switch `sb` the same routes run. The first route to cross `(s, dst)` sets
/// the default there and later disagreeing ones become per-source
/// overrides, for every host behind their ingress switch, so the order in
/// which ingress switches are met decides which entries exist. It is the
/// order a scan over source hosts meets them in: an ingress switch is
/// walked at its lowest host other than `dst`. Only two things move with
/// `dst` behind `sb`: where `sb`'s own hosts fall in that order, and the
/// port a route ends on, `dst`'s own. So every other ingress switch's route
/// to `sb` is walked once into a [`Toward`], and each destination stamps
/// its entries from it, replaying only its visits of `sb`.
fn demand(
    topo: &Topology,
    routes: &RouteTable,
    port_of: &HashMap<(SwitchId, LinkId), PhysPort>,
    host_port: &HashMap<(HostId, LinkId), PhysPort>,
) -> Demand {
    let switches = topo.num_switches() as usize;
    let hosts = || (0..topo.num_hosts()).map(HostId);
    let ingress: Vec<SwitchId> = hosts().map(|h| topo.host_switch(h)).collect();
    let mut behind: Vec<Vec<HostId>> = vec![Vec::new(); switches];
    for h in hosts() {
        behind[ingress[h.idx()].idx()].push(h);
    }
    // Ingress switches in the order a scan over source hosts meets them.
    let met: Vec<SwitchId> = hosts()
        .filter(|h| behind[ingress[h.idx()].idx()][0] == *h)
        .map(|h| ingress[h.idx()])
        .collect();
    // Physical egress of every logical fabric port, resolved once.
    let fabric: Vec<Vec<(SwitchId, Option<PhysPort>)>> = (0..topo.num_switches())
        .map(|s| {
            let s = SwitchId(s);
            topo.neighbors(s).iter().map(|&(n, lid)| (n, port_of.get(&(s, lid)).copied())).collect()
        })
        .collect();
    let toward = |s: SwitchId, next: SwitchId| -> PhysPort {
        match fabric[s.idx()].iter().find(|&&(n, _)| n == next) {
            Some(&(_, Some(port))) => port,
            Some(_) => unreachable!("the projection maps every routed logical port"),
            None => unreachable!("route hops are fabric neighbors"),
        }
    };

    // Every other ingress switch's route to `sb`, walked in scan order.
    let mut first: Vec<Option<PhysPort>> = vec![None; switches];
    let mut walk = |sb: SwitchId| {
        first.fill(None);
        let mut t = Toward::default();
        for &sa in met.iter().filter(|&&sa| sa != sb) {
            let Some(route) = routes.try_route(sa, sb) else {
                continue; // unreachable pair (disjoint component)
            };
            for (i, &s) in route.hops.iter().enumerate() {
                let out = route.hops.get(i + 1).map(|&next| toward(s, next));
                if s == sb {
                    t.arrivals.push((behind[sa.idx()][0], sa, out));
                    continue;
                }
                let Some(out) = out else { unreachable!("a route ends at its destination") };
                match first[s.idx()] {
                    None => {
                        first[s.idx()] = Some(out);
                        t.defaults.push((s, out));
                    }
                    Some(default) if default != out => t.disagree.push((s, sa, out)),
                    Some(_) => {}
                }
            }
        }
        t
    };

    let mut d = Demand { egress: vec![Vec::new(); switches], overrides: HashMap::new() };
    let mut walked: Vec<Option<Toward>> = (0..switches).map(|_| None).collect();
    for dst in hosts() {
        let sb = ingress[dst.idx()];
        let t = walked[sb.idx()].get_or_insert_with(|| walk(sb));
        for &(s, out) in &t.defaults {
            d.egress[s.idx()].push((dst, out));
        }
        // Behind another ingress switch than `sb`: never `dst`.
        for &(s, sa, out) in &t.disagree {
            for &h in &behind[sa.idx()] {
                d.overrides.insert((s, h, dst), out);
            }
        }
        // At `sb`: every visit in walk order, `sb`'s own hosts met where
        // the first of them other than `dst` falls, and every route that
        // ends there ending on `dst`'s port.
        let (_, lid) = topo
            .attachments(dst)
            .iter()
            .copied()
            .find(|&(att, _)| att == sb)
            .unwrap_or_else(|| unreachable!("a host attaches to its own switch"));
        let delivery = host_port[&(dst, lid)];
        let mut own = behind[sb.idx()].iter().copied().find(|&h| h != dst);
        let mut default = None;
        let mut visit = |sa: SwitchId, out: PhysPort| match default {
            None => {
                default = Some(out);
                d.egress[sb.idx()].push((dst, out));
            }
            Some(port) if port != out => {
                for &h in behind[sa.idx()].iter().filter(|&&h| h != dst) {
                    d.overrides.insert((sb, h, dst), out);
                }
            }
            Some(_) => {}
        };
        for &(at, sa, out) in &t.arrivals {
            if own.take_if(|own| *own < at).is_some() {
                visit(sb, delivery);
            }
            visit(sa, out.unwrap_or(delivery));
        }
        if own.is_some() {
            visit(sb, delivery);
        }
    }
    d
}

/// Lower a [`Demand`] to per-switch tables.
fn emit(
    demand: &Demand,
    assignment: &[u32],
    port_of: &HashMap<(SwitchId, LinkId), PhysPort>,
    num_phys: u32,
    merge_defaults: bool,
) -> SynthesisOutput {
    let mut out = SynthesisOutput {
        table0: vec![Vec::new(); num_phys as usize],
        table1: vec![Vec::new(); num_phys as usize],
        entries_per_switch: vec![0; num_phys as usize],
    };

    // Table 0: port classification for every logical port.
    for (&(s, _lid), &pp) in port_of {
        out.table0[pp.switch as usize].push(FlowEntry {
            m: FlowMatch::on_port(pp.port),
            priority: PRIO_CLASSIFY,
            action: Action::WriteMetadataGoto(s.0),
        });
    }

    // Table 1: destination routing per sub-switch, optionally compressed
    // around a per-sub-switch default egress (§VII-C entry merging): the
    // port most destinations leave on, the lowest-numbered one on a tie.
    for (s, dsts) in demand.egress.iter().enumerate() {
        let table = &mut out.table1[assignment[s] as usize];
        let mut default = None;
        if merge_defaults {
            let mut counts: BTreeMap<PortNo, usize> = BTreeMap::new();
            for &(_, pp) in dsts {
                *counts.entry(pp.port).or_insert(0) += 1;
            }
            default = counts.iter().max_by_key(|&(&p, &n)| (n, Reverse(p))).map(|(&p, _)| p);
        }
        if let Some(port) = default {
            table.push(FlowEntry {
                m: FlowMatch { metadata: Some(s as u32), ..FlowMatch::any() },
                priority: PRIO_DEFAULT,
                action: Action::Output(port),
            });
        }
        // Covered by the sub-switch default: no exact entry.
        for &(dst, pp) in dsts.iter().filter(|&&(_, pp)| default != Some(pp.port)) {
            table.push(FlowEntry {
                m: FlowMatch::to_dst(addr_of(dst)).and_metadata(s as u32),
                priority: PRIO_DST,
                action: Action::Output(pp.port),
            });
        }
    }
    for (&(s, src, dst), &pp) in &demand.overrides {
        let mut m = FlowMatch::to_dst(addr_of(dst)).and_metadata(s.0);
        m.src = Some(addr_of(src));
        out.table1[assignment[s.idx()] as usize].push(FlowEntry {
            m,
            priority: PRIO_SRC_OVERRIDE,
            action: Action::Output(pp.port),
        });
    }

    // Deterministic order (HashMap iteration is not).
    for t in out.table0.iter_mut().chain(out.table1.iter_mut()) {
        t.sort_unstable_by_key(FlowEntry::order_key);
    }
    for sw in 0..num_phys as usize {
        out.entries_per_switch[sw] = out.table0[sw].len() + out.table1[sw].len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use crate::methods::SwitchModel;
    use crate::sdt::SdtProjector;
    use sdt_routing::RoutingStrategy;
    use sdt_topology::fattree::fat_tree;

    /// The demand loop as it was before it walked one route per ingress
    /// switch: every ordered host pair, in host order. The oracle [`demand`]
    /// is held to.
    fn demand_per_pair(
        topo: &Topology,
        routes: &RouteTable,
        port_of: &HashMap<(SwitchId, LinkId), PhysPort>,
        host_port: &HashMap<(HostId, LinkId), PhysPort>,
    ) -> Demand {
        let mut egress: HashMap<(SwitchId, HostId), PhysPort> = HashMap::new();
        let mut overrides: HashMap<(SwitchId, HostId, HostId), PhysPort> = HashMap::new();
        let link_between = |a: SwitchId, b: SwitchId| -> LinkId {
            topo.neighbors(a)
                .iter()
                .find(|&&(n, _)| n == b)
                .map(|&(_, lid)| lid)
                .unwrap_or_else(|| unreachable!("route hops are fabric neighbors"))
        };
        for src in 0..topo.num_hosts() {
            let src = HostId(src);
            for dst in 0..topo.num_hosts() {
                let dst = HostId(dst);
                if src == dst {
                    continue;
                }
                let sa = topo.host_switch(src);
                let sb = topo.host_switch(dst);
                let hops: Vec<SwitchId> = if sa == sb {
                    vec![sa]
                } else {
                    match routes.try_route(sa, sb) {
                        Some(r) => r.hops.clone(),
                        None => continue,
                    }
                };
                for (i, &s) in hops.iter().enumerate() {
                    let out: PhysPort = if i + 1 < hops.len() {
                        let lid = link_between(s, hops[i + 1]);
                        port_of[&(s, lid)]
                    } else {
                        let (_, lid) = topo
                            .attachments(dst)
                            .iter()
                            .copied()
                            .find(|&(att, _)| att == s)
                            .unwrap_or_else(|| {
                                unreachable!("route ends at an attachment switch of dst")
                            });
                        host_port[&(dst, lid)]
                    };
                    match egress.entry((s, dst)) {
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(out);
                        }
                        std::collections::hash_map::Entry::Occupied(o) => {
                            if *o.get() != out {
                                overrides.insert((s, src, dst), out);
                            }
                        }
                    }
                }
            }
        }
        let mut d = Demand { egress: vec![Vec::new(); topo.num_switches() as usize], overrides };
        for ((s, dst), pp) in egress {
            d.egress[s.idx()].push((dst, pp));
        }
        for dsts in &mut d.egress {
            dsts.sort_unstable_by_key(|&(dst, _)| dst);
        }
        d
    }

    /// Projection-shaped port maps without a projector: logical switch `s`
    /// lives on physical switch `s % phys`, ports handed out in order.
    #[allow(clippy::type_complexity)]
    fn wiring(
        topo: &Topology,
        phys: u32,
    ) -> (Vec<u32>, HashMap<(SwitchId, LinkId), PhysPort>, HashMap<(HostId, LinkId), PhysPort>)
    {
        let assignment: Vec<u32> = (0..topo.num_switches()).map(|s| s % phys).collect();
        let mut next = vec![0u16; phys as usize];
        let mut take = |s: SwitchId| {
            let switch = assignment[s.idx()];
            let port = PortNo(next[switch as usize]);
            next[switch as usize] += 1;
            PhysPort { switch, port }
        };
        let (mut port_of, mut host_port) = (HashMap::new(), HashMap::new());
        for s in (0..topo.num_switches()).map(SwitchId) {
            for &(_, lid) in topo.neighbors(s) {
                port_of.insert((s, lid), take(s));
            }
        }
        for h in (0..topo.num_hosts()).map(HostId) {
            for &(s, lid) in topo.attachments(h) {
                host_port.insert((h, lid), take(s));
            }
        }
        (assignment, port_of, host_port)
    }

    /// Plain and merged synthesis of `routes` agree with the per-pair
    /// oracle; returns how many source overrides the routes needed.
    fn assert_matches_per_pair(topo: &Topology, strategy: &dyn RoutingStrategy) -> usize {
        let routes = RouteTable::build_for_hosts(topo, strategy);
        let (assignment, port_of, host_port) = wiring(topo, 3);
        let ours = demand(topo, &routes, &port_of, &host_port);
        let oracle = demand_per_pair(topo, &routes, &port_of, &host_port);
        let name = format!("{} under {}", topo.name(), routes.strategy());
        for merged in [false, true] {
            let got = emit(&ours, &assignment, &port_of, 3, merged);
            let want = emit(&oracle, &assignment, &port_of, 3, merged);
            assert_eq!(got, want, "{name}, merged = {merged}");
        }
        oracle.overrides.len()
    }

    /// Six switches joined by `links`, their eighteen hosts dealt out five
    /// switches apart from switch 2: it holds hosts 0, 6 and 12, so where a
    /// destination switch's own hosts fall among the sources moves with the
    /// destination.
    fn dealt(name: &str, links: &[(u32, u32)]) -> Topology {
        let mut b = sdt_topology::TopologyBuilder::new(name, 6, 18);
        for &(x, y) in links {
            b.fabric(SwitchId(x), SwitchId(y));
        }
        for h in 0..18 {
            b.attach(HostId(h), SwitchId((h * 5 + 2) % 6));
        }
        b.build().unwrap()
    }

    /// Shortest paths along a chain, except that a route to any switch but
    /// the chain's ends runs one switch past it and comes back: it crosses
    /// its destination switch before its last hop.
    struct Overshoot;

    impl RoutingStrategy for Overshoot {
        fn name(&self) -> &str {
            "overshoot"
        }

        fn num_vcs(&self) -> u8 {
            1
        }

        fn route(&self, topo: &Topology, from: SwitchId, to: SwitchId) -> sdt_routing::Route {
            let mut hops: Vec<SwitchId> = if from <= to {
                (from.0..=to.0).map(SwitchId).collect()
            } else {
                (to.0..=from.0).rev().map(SwitchId).collect()
            };
            if from < to && to.0 + 1 < topo.num_switches() {
                hops.extend([SwitchId(to.0 + 1), to]);
            } else if from > to && to.0 > 0 {
                hops.extend([SwitchId(to.0 - 1), to]);
            }
            sdt_routing::Route { vcs: vec![0; hops.len() - 1], hops }
        }
    }

    #[test]
    fn per_switch_synthesis_matches_the_per_pair_oracle() {
        use sdt_routing::{dragonfly::DragonflyValiant, ecmp::Ecmp, generic::Bfs, oddeven::OddEven};
        use sdt_topology::{bcube::bcube, chain::chain, dragonfly::dragonfly, meshtorus};
        let split = Topology::disjoint_union("split", &[&fat_tree(4), &chain(3)]);
        let mesh = meshtorus::mesh(&[4, 4]);
        let df = dragonfly(4, 9, 2, 2);
        // Host 16 alone on switch 20: no other host behind it, and no route
        // reaches it from another component — nor leaves it.
        let lone = Topology::disjoint_union("lone", &[&fat_tree(4), &chain(1)]);
        let chain6: Vec<(u32, u32)> = (0..5).map(|s| (s, s + 1)).collect();
        let ring6: Vec<(u32, u32)> =
            chain6.iter().copied().chain([(5, 0), (0, 3), (1, 4)]).collect();
        let dealt_ring = dealt("dealt-ring", &ring6);
        let topos = [
            fat_tree(4),
            fat_tree(8),
            meshtorus::torus(&[4, 4]),
            mesh.clone(),
            df.clone(),
            bcube(4, 1),
            split,
            lone.clone(),
            dealt_ring.clone(),
        ];
        for t in &topos {
            assert_matches_per_pair(t, sdt_routing::default_strategy(t).as_ref());
            assert_matches_per_pair(t, &Bfs::new(t));
        }
        // Source-dependent strategies: the only inputs that reach a
        // `PRIO_SRC_OVERRIDE` entry.
        let mut overrides = 0;
        for t in [&topos[0], &topos[1], &dealt_ring] {
            overrides += assert_matches_per_pair(t, &Ecmp::new(t));
        }
        overrides += assert_matches_per_pair(&mesh, &OddEven::new(&[4, 4]));
        let valiant = assert_matches_per_pair(&df, &DragonflyValiant::new(4, 9, 2, 2, &df));
        assert!(valiant > 0, "Valiant routes depend on the source switch");
        assert!(overrides > 0, "ECMP / odd-even routes depend on the source switch");
        // Routes that pass their destination switch before ending there:
        // whether a destination's first default there is its own port or
        // the way on depends on where its switch's own hosts are met.
        for t in [chain(6), dealt("dealt-chain", &chain6)] {
            let overshot = assert_matches_per_pair(&t, &Overshoot);
            assert!(overshot > 0, "a route leaving its destination switch disagrees there");
        }
        // The lone host gets no entry at its switch: nothing arrives.
        let routes = RouteTable::build_for_hosts(&lone, &Bfs::new(&lone));
        let (_, port_of, host_port) = wiring(&lone, 3);
        let egress = demand(&lone, &routes, &port_of, &host_port).egress;
        assert_eq!(lone.host_switch(HostId(16)), SwitchId(20));
        assert!(egress[20].is_empty());
        assert!(egress.iter().flatten().all(|&(dst, _)| dst != HostId(16)));
    }

    /// Plain synthesis of fat-tree k=16 on 19 switches, every entry,
    /// pinned: a digest recorded before destinations were walked per
    /// switch.
    #[test]
    fn fat_tree_k16_synthesis_is_pinned() {
        let t = fat_tree(16);
        let routes = RouteTable::build_for_hosts(&t, sdt_routing::default_strategy(&t).as_ref());
        let (assignment, port_of, host_port) = wiring(&t, 19);
        let out = synthesize_flow_tables(&t, &routes, &assignment, &port_of, &host_port, 19);
        assert_eq!(out.table1.iter().map(Vec::len).sum::<usize>(), 148_480);
        assert_eq!(digest(&out), 10_473_455_963_939_887_681);
    }

    /// FNV-1a over every field of every entry, in table order.
    fn digest(out: &SynthesisOutput) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let opt = |v: Option<u32>| v.map_or(u64::MAX, u64::from);
        for table in out.table0.iter().chain(&out.table1) {
            eat(table.len() as u64);
            for e in table {
                eat(u64::from(e.priority));
                eat(opt(e.m.in_port.map(|p| u32::from(p.0))));
                eat(opt(e.m.metadata));
                eat(opt(e.m.src.map(|a| a.0)));
                eat(opt(e.m.dst.map(|a| a.0)));
                eat(match e.action {
                    Action::Output(p) => u64::from(p.0),
                    Action::Drop => 1 << 32,
                    Action::WriteMetadataGoto(md) => 2 << 32 | u64::from(md),
                });
            }
        }
        h
    }

    #[test]
    fn merged_synthesis_is_deterministic() {
        // Up-ports of a fat-tree carry equal destination counts, so the
        // default egress of most sub-switches is a tie; each synthesis
        // builds its own `HashMap`s, each with its own hash keys.
        let t = fat_tree(4);
        let c = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let p = SdtProjector::default().project_default(&t, &c).unwrap();
        let routes = RouteTable::build_for_hosts(&t, sdt_routing::default_strategy(&t).as_ref());
        let merged = || {
            synthesize_flow_tables_merged(&t, &routes, &p.assignment, &p.port_of, &p.host_port, 2)
        };
        let first = merged();
        for _ in 0..4 {
            assert_eq!(merged(), first);
        }
        assert_eq!(digest(&first), 10_845_559_731_164_891_837, "entries per switch {:?}", first.entries_per_switch);
    }

    #[test]
    fn fat_tree_k4_entry_budget_matches_paper() {
        // §VII-C: projecting fat-tree k=4 (20 switches, 16 nodes) onto 2
        // OpenFlow switches needs "about only 300 flow table entries" per
        // switch. Our two-table pipeline: table0 = logical ports on the
        // switch (~40), table1 = sub-switches x destinations (~160).
        let t = fat_tree(4);
        let c = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let p = SdtProjector::default().project_default(&t, &c).unwrap();
        for (sw, &n) in p.synthesis.entries_per_switch.iter().enumerate() {
            assert!(
                (100..=400).contains(&n),
                "switch {sw}: {n} entries, expected a few hundred"
            );
        }
        let total: usize = p.synthesis.entries_per_switch.iter().sum();
        // 80 classification entries (one per logical port) plus routing
        // entries for every sub-switch actually traversed by some route.
        assert!((240..=800).contains(&total), "total {total}");
    }

    #[test]
    fn merged_synthesis_shrinks_tables_and_still_delivers() {
        use crate::walk::IsolationReport;
        let t = fat_tree(4);
        let c = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let mut proj = SdtProjector::default().project_default(&t, &c).unwrap();
        let plain: usize = proj.synthesis.entries_per_switch.iter().sum();
        // Re-synthesize with merging and swap it in.
        let strategy = sdt_routing::default_strategy(&t);
        let routes = sdt_routing::RouteTable::build_for_hosts(&t, strategy.as_ref());
        proj.synthesis = synthesize_flow_tables_merged(
            &t,
            &routes,
            &proj.assignment,
            &proj.port_of,
            &proj.host_port,
            2,
        );
        let merged: usize = proj.synthesis.entries_per_switch.iter().sum();
        assert!(merged < plain, "merged {merged} vs plain {plain}");
        let report = IsolationReport::audit(&c, &proj, &t);
        assert!(report.clean(), "{:?}", report.violations);
    }

    #[test]
    fn every_table1_entry_keeps_domain() {
        // An entry for sub-switch s must output on a port of s — forwarding
        // domain closure, the isolation property.
        let t = fat_tree(4);
        let c = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let p = SdtProjector::default().project_default(&t, &c).unwrap();
        for (sw, entries) in p.synthesis.table1.iter().enumerate() {
            for e in entries {
                let s = SwitchId(e.m.metadata.expect("table1 entries are metadata-scoped"));
                let ports = p.subswitches[sw]
                    .iter()
                    .find(|(ls, _)| *ls == s)
                    .map(|(_, ps)| ps.clone())
                    .expect("sub-switch present on this physical switch");
                match e.action {
                    Action::Output(port) => assert!(
                        ports.iter().any(|pp| pp.port == port),
                        "entry {e:?} escapes sub-switch {s:?}"
                    ),
                    other => panic!("unexpected action {other:?}"),
                }
            }
        }
    }
}
