//! A seeded slice-churn chain for the delta-proof tests: the table batches
//! and intents a `SliceManager` goes through on a 3-switch cluster while
//! slices are created (hosts appended to the intent), the middle one is
//! destroyed (later hosts shift position), the first is reconfigured, one
//! domain is relabelled, and another slice arrives. `fast_differential`
//! holds the two walkers to each other and to a probe count along it;
//! `determinism` runs it at two thread counts.

#![allow(dead_code)] // each test crate reads its own part of a step

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::{diff_tables, FlowMod, OpenFlowSwitch};
use sdt_tenancy::{SliceId, SliceManager};
use sdt_topology::chain::{chain, ring};
use sdt_topology::meshtorus::mesh;
use sdt_topology::Topology;
use sdt_verify::Intent;

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
