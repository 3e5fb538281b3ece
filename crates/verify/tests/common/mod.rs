//! A seeded slice-churn chain for the delta-proof tests: the table batches
//! and intents a `SliceManager` goes through on a 3-switch cluster while
//! slices are created (hosts appended to the intent), the middle one is
//! destroyed (later hosts shift position), the first is reconfigured, one
//! domain is relabelled, and another slice arrives. `fast_differential`
//! holds the two walkers to each other and to a probe count along it;
//! `determinism` proves it twice. Also the hand-written
//! switch chains the suites edit rules into — one host per switch, or
//! several that share their switch's row — a live bank of a view's
//! tables for probes, and the batch that empties one of its tables.

#![allow(dead_code)] // each test crate reads its own part of a step

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_core::cluster::{ClusterBuilder, PhysPort, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::{
    diff_tables, Action, EntryStore, FlowEntry, FlowMatch, FlowMod, HostAddr, OpenFlowSwitch,
    PortNo,
};
use sdt_routing::{default_strategy, RouteTable};
use sdt_tenancy::{SliceId, SliceManager};
use sdt_topology::chain::{chain, ring};
use sdt_topology::meshtorus::mesh;
use sdt_topology::Topology;
use sdt_verify::{Intent, IntentHost, TableView};
use std::sync::Arc;

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
pub fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

/// One link of the chain: what to hand `Verifier::check_delta*` on top of
/// the proof of the previous step (the first step's previous proof is of
/// empty tables against an empty intent).
pub struct ChurnStep {
    pub label: &'static str,
    /// The live switches the step starts from.
    pub before: Vec<OpenFlowSwitch>,
    /// The flow-mods that turn `before` into the tables after the step.
    pub batch: Vec<(u32, u8, FlowMod)>,
    /// The intent after the step.
    pub intent: Intent,
}

fn small_topology(rng: &mut StdRng) -> Topology {
    match rng.random_range(0..3u32) {
        0 => chain(rng.random_range(2..5u32)),
        1 => ring(rng.random_range(3..6u32)),
        _ => mesh(&[2, 2]),
    }
}

/// Run `op` on the manager and record the step it amounts to.
fn record(
    steps: &mut Vec<ChurnStep>,
    mgr: &mut SliceManager,
    label: &'static str,
    op: impl FnOnce(&mut SliceManager),
) {
    let before = mgr.switches().to_vec();
    op(mgr);
    let mut batch = Vec::new();
    for (sw, (old, new)) in before.iter().zip(mgr.switches()).enumerate() {
        for table in 0..2u8 {
            let mods = diff_tables(old.table(table).entries(), new.table(table).entries());
            batch.extend(mods.into_iter().map(|m| (sw as u32, table, m)));
        }
    }
    steps.push(ChurnStep { label, before, batch, intent: mgr.intent() });
}

/// The cluster and the chain of steps for `seed`.
pub fn slice_churn(seed: u64) -> (PhysicalCluster, Vec<ChurnStep>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 3)
        .hosts_per_switch(16)
        .inter_links_per_pair(16)
        .build();
    let mut mgr = SliceManager::new(cluster.clone());
    let mut steps = Vec::new();
    // The middle slice is small enough to leave one physical switch alone,
    // so its teardown re-walks some pairs and carries others.
    for label in ["create a", "create b", "create c"] {
        let topo = if label == "create b" { chain(2) } else { small_topology(&mut rng) };
        record(&mut steps, &mut mgr, label, |m| {
            m.create(label, &topo, default_routes(&topo)).unwrap();
        });
    }
    record(&mut steps, &mut mgr, "destroy the middle slice", |m| {
        m.destroy(SliceId(1)).unwrap();
    });
    let topo = small_topology(&mut rng);
    record(&mut steps, &mut mgr, "reconfigure the first slice", |m| {
        m.reconfigure(SliceId(0), &topo, default_routes(&topo)).unwrap();
    });
    // Same tables, same hosts, one domain under a new label: findings name
    // the label, so its hosts are not the hosts the previous proof walked.
    let mut relabelled = mgr.intent();
    relabelled.domains[1] = "2:renamed".to_string();
    steps.push(ChurnStep {
        label: "relabel the last slice",
        before: mgr.switches().to_vec(),
        batch: Vec::new(),
        intent: relabelled,
    });
    let topo = small_topology(&mut rng);
    record(&mut steps, &mut mgr, "create d", |m| {
        m.create("d", &topo, default_routes(&topo)).unwrap();
    });
    (cluster, steps)
}

/// A chain of `n` three-port switches, one logical switch and one host
/// each, with hand-written tables: port 0 is the host, port 1 the cable to
/// the left neighbor, port 2 the cable to the right; switch `i` classifies
/// into metadata `i` and routes by destination. Wider than any cluster a
/// projection in this repository produces, so switch sets need two words.
pub fn wide_chain(n: u32) -> (PhysicalCluster, TableView, Intent) {
    let at = |switch: u32, port: u16| PhysPort { switch, port: PortNo(port) };
    let model = SwitchModel { name: "synthetic 3-port", ports: 3, ..SwitchModel::openflow_64x100g() };
    let cables = (0..n - 1).map(|i| (at(i, 2), at(i + 1, 1))).collect();
    let cluster = PhysicalCluster::custom(model, n, cables, (0..n).map(|i| at(i, 0)).collect());
    let mut view = TableView::empty(n as usize);
    let mut intent = Intent::new();
    intent.domains.push("wide-chain".to_string());
    for i in 0..n {
        for port in 0..3 {
            let classify = FlowEntry {
                m: FlowMatch::on_port(PortNo(port)),
                priority: 10,
                action: Action::WriteMetadataGoto(i),
            };
            view.apply(i, 0, &FlowMod::Add(classify));
        }
        for dst in 0..n {
            let out = match dst.cmp(&i) {
                std::cmp::Ordering::Less => 1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 2,
            };
            view.apply(i, 1, &FlowMod::Add(route(i, dst, out)));
        }
        intent.hosts.push(IntentHost {
            domain: 0,
            host: sdt_topology::HostId(i),
            addr: HostAddr(i),
            ingress: at(i, 0),
            ports: vec![at(i, 0)],
            group: 0,
        });
    }
    (cluster, view, intent)
}

/// A chain of `n` switches with `per` host ports each — ports `0..per`,
/// then port `per` to the left neighbor and `per + 1` to the right — whose
/// tables have [`wide_chain`]'s shape: switch `i` classifies every port into
/// metadata `i` and routes address `per · i + k` to its port `k`. The intent
/// lists the hosts on ports `0..listed` of every switch, each with its
/// address as host id; the other ports' addresses are routed, but nobody
/// holds them yet.
pub fn bushy_chain(n: u32, per: u16, listed: u16) -> (PhysicalCluster, TableView, Intent) {
    let at = |switch: u32, port: u16| PhysPort { switch, port: PortNo(port) };
    let model = SwitchModel {
        name: "synthetic bushy",
        ports: u32::from(per) + 2,
        ..SwitchModel::openflow_64x100g()
    };
    let cables = (0..n - 1).map(|i| (at(i, per + 1), at(i + 1, per))).collect();
    let hosts = (0..n).flat_map(|i| (0..per).map(move |k| at(i, k))).collect();
    let cluster = PhysicalCluster::custom(model, n, cables, hosts);
    let mut view = TableView::empty(n as usize);
    let mut intent = Intent::new();
    intent.domains.push("bushy-chain".to_string());
    let per32 = u32::from(per);
    for i in 0..n {
        for port in 0..per + 2 {
            let classify = FlowEntry {
                m: FlowMatch::on_port(PortNo(port)),
                priority: 10,
                action: Action::WriteMetadataGoto(i),
            };
            view.apply(i, 0, &FlowMod::Add(classify));
        }
        for dst in 0..n * per32 {
            let out = match (dst / per32).cmp(&i) {
                std::cmp::Ordering::Less => per,
                std::cmp::Ordering::Equal => (dst % per32) as u16,
                std::cmp::Ordering::Greater => per + 1,
            };
            view.apply(i, 1, &FlowMod::Add(route(i, dst, out)));
        }
        for k in 0..listed {
            let addr = per32 * i + u32::from(k);
            intent.hosts.push(IntentHost {
                domain: 0,
                host: sdt_topology::HostId(addr),
                addr: HostAddr(addr),
                ingress: at(i, k),
                ports: vec![at(i, k)],
                group: 0,
            });
        }
    }
    (cluster, view, intent)
}

/// A live switch bank holding `view`'s tables, for probes that walk packets.
pub fn bank(cluster: &PhysicalCluster, view: &TableView) -> Vec<OpenFlowSwitch> {
    let config = sdt_openflow::SwitchConfig {
        num_ports: cluster.model().ports as u16,
        port_gbps: 100,
        table_capacity: usize::MAX,
    };
    (0..view.num_switches() as u32)
        .map(|sw| {
            let mut s = OpenFlowSwitch::new(sw, config);
            for table in 0..2 {
                let store = EntryStore::from_ordered(view.entries(sw, table).to_vec());
                s.adopt(table, Arc::new(store)).unwrap();
            }
            s
        })
        .collect()
}

/// The batch that empties table `table` of switch `sw` in `view`: one
/// Delete per entry.
pub fn emptying(view: &TableView, sw: u32, table: u8) -> Vec<(u32, u8, FlowMod)> {
    view.entries(sw, table).iter().map(|e| (sw, table, FlowMod::Delete(e.m, e.priority))).collect()
}

/// Switch `sw`'s route toward host `dst` in [`wide_chain`] and [`bushy_chain`].
pub fn route(sw: u32, dst: u32, out: u16) -> FlowEntry {
    FlowEntry {
        m: FlowMatch::to_dst(HostAddr(dst)).and_metadata(sw),
        priority: 10,
        action: Action::Output(PortNo(out)),
    }
}
