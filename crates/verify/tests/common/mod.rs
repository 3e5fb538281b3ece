//! A seeded slice-churn chain for the delta-proof tests: the table batches
//! and intents a `SliceManager` goes through on a 3-switch cluster while
//! slices are created (hosts appended to the intent), the middle one is
//! destroyed (later hosts shift position), the first is reconfigured, one
//! domain is relabelled, and another slice arrives. `fast_differential`
//! holds the two walkers to each other and to a probe count along it;
//! `determinism` runs it at two thread counts. Also the hand-written
//! switch chain both suites edit rules into.

#![allow(dead_code)] // each test crate reads its own part of a step

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_core::cluster::{ClusterBuilder, PhysPort, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::{
    diff_tables, Action, FlowEntry, FlowMatch, FlowMod, HostAddr, OpenFlowSwitch, PortNo,
};
use sdt_tenancy::{SliceId, SliceManager};
use sdt_topology::chain::{chain, ring};
use sdt_topology::meshtorus::mesh;
use sdt_topology::Topology;
use sdt_verify::{Intent, IntentHost, TableView};

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
            m.create(label, &topo).unwrap();
        });
    }
    record(&mut steps, &mut mgr, "destroy the middle slice", |m| {
        m.destroy(SliceId(1)).unwrap();
    });
    let topo = small_topology(&mut rng);
    record(&mut steps, &mut mgr, "reconfigure the first slice", |m| {
        m.reconfigure(SliceId(0), &topo).unwrap();
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
        m.create("d", &topo).unwrap();
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

/// Switch `sw`'s route toward host `dst` in [`wide_chain`].
pub fn route(sw: u32, dst: u32, out: u16) -> FlowEntry {
    FlowEntry {
        m: FlowMatch::to_dst(HostAddr(dst)).and_metadata(sw),
        priority: 10,
        action: Action::Output(PortNo(out)),
    }
}
