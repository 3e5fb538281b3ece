//! A proof is a function of its inputs alone: proving the same tables
//! against the same intent twice — each proof with fresh hash maps, whose
//! iteration order std seeds per map — must agree on every finding vec,
//! every counter, and the full `Debug` rendering — on the paper's preset
//! topologies, on an incremental delta check, and on a seeded random
//! multi-tenant slice mix — and the shims `benchmark/` calls must be that
//! same proof.

#![allow(clippy::unwrap_used, clippy::expect_used)]
mod common;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_core::cluster::ClusterBuilder;
use sdt_core::methods::SwitchModel;
use sdt_core::sdt::SdtProjector;
use sdt_openflow::{Action, FlowEntry, FlowMatch, FlowMod, HostAddr};
use sdt_tenancy::SliceManager;
use sdt_topology::chain::{chain, ring};
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::{mesh, torus};
use sdt_topology::Topology;
use sdt_verify::{Intent, TableView, Verifier, WalkCache};

/// Assert two verifiers derived the exact same proof.
fn assert_identical(a: &Verifier, b: &Verifier, label: &str) {
    let (ra, rb) = (a.report(), b.report());
    assert_eq!(ra.loops, rb.loops, "{label}: loops differ");
    assert_eq!(ra.blackholes, rb.blackholes, "{label}: blackholes differ");
    assert_eq!(ra.leaks, rb.leaks, "{label}: leaks differ");
    assert_eq!(ra.shadowed, rb.shadowed, "{label}: shadow findings differ");
    assert_eq!(ra.nondeterminism, rb.nondeterminism, "{label}: nondet findings differ");
    assert_eq!(
        format!("{ra:?}"),
        format!("{rb:?}"),
        "{label}: reports not byte-identical"
    );
}

/// Project a topology onto the smallest cluster that carries it.
fn project(topo: &Topology) -> (sdt_core::cluster::PhysicalCluster, sdt_core::sdt::SdtProjection) {
    let model = SwitchModel::openflow_128x100g();
    let projector = SdtProjector { merge_entries_on_overflow: true };
    for n in 1..=8u32 {
        let cluster = ClusterBuilder::new(model, n)
            .hosts_per_switch((topo.num_hosts() / n).max(1) as u16)
            .inter_links_per_pair(24)
            .build();
        if let Ok(p) = projector.project(topo, &cluster, &common::default_routes(topo)) {
            return (cluster, p);
        }
    }
    panic!("{} does not fit on 8 switches", topo.name());
}

#[test]
fn paper_presets_prove_the_same_twice() {
    let presets: Vec<Topology> =
        vec![fat_tree(4), torus(&[4, 4]), dragonfly(4, 9, 2, 2), ring(8)];
    for topo in &presets {
        let (cluster, proj) = project(topo);
        let view = || TableView::of_synthesis(&proj.synthesis);
        let intent = || Intent::of_projection(&proj, topo, topo.name());
        let v1 = Verifier::check(&cluster, view(), intent());
        let v2 = Verifier::check(&cluster, view(), intent());
        assert_identical(&v1, &v2, topo.name());
        assert!(v1.holds(), "{} should verify clean", topo.name());
    }
}

#[test]
fn delta_checks_prove_the_same_twice() {
    // Corrupt a verified fat-tree deployment with a batch that clears one
    // switch's routing table — the delta re-walk must report the same
    // blackholes every time.
    let topo = fat_tree(4);
    let (cluster, proj) = project(&topo);
    let view = || TableView::of_synthesis(&proj.synthesis);
    let intent = || Intent::of_projection(&proj, &topo, topo.name());
    let v1 = Verifier::check(&cluster, view(), intent());
    let v2 = Verifier::check(&cluster, view(), intent());
    let batch: Vec<(u32, u8, FlowMod)> = vec![(0, 1, FlowMod::Clear)];
    let d1 = Verifier::check_delta(&v1, &batch, intent());
    let d2 = Verifier::check_delta(&v2, &batch, intent());
    assert_identical(&d1, &d2, "fat-tree k=4 + clear delta");
    assert!(!d1.holds(), "clearing a routing table must break the proof");

    // Slice churn: every step carries some pairs over a changed intent and
    // the class passes fill in the rest, all into one shared pair index.
    let (cluster, steps) = common::slice_churn(10);
    let empty = || TableView::of_switches(&steps[0].before);
    let mut c1 = Verifier::check(&cluster, empty(), Intent::new());
    let mut c2 = Verifier::check(&cluster, empty(), Intent::new());
    for step in &steps {
        c1 = Verifier::check_delta(&c1, &step.batch, step.intent.clone());
        c2 = Verifier::check_delta(&c2, &step.batch, step.intent.clone());
        assert_identical(&c1, &c2, step.label);
        assert!(c1.holds(), "{}: {}", step.label, c1.report().summary());
    }
}

#[test]
fn random_slice_mix_proves_the_same_twice() {
    // A seeded random multi-tenant mix: admissions and teardowns leave live
    // tables with orphaned shadows, metadata tiers and uneven occupancy —
    // richer than any single synthesis. Two full proofs over the live
    // tables must be identical.
    let mut rng = StdRng::seed_from_u64(0x5d7_2026);
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 3)
        .hosts_per_switch(16)
        .inter_links_per_pair(16)
        .build();
    let mut mgr = SliceManager::new(cluster);
    let mut admitted = Vec::new();
    for i in 0..10 {
        let topo = match rng.random_range(0..3u32) {
            0 => chain(rng.random_range(2..5u32)),
            1 => ring(rng.random_range(3..6u32)),
            _ => mesh(&[2, 2]),
        };
        if let Ok(id) = mgr.create(&format!("s{i}"), &topo, common::default_routes(&topo)) {
            admitted.push(id);
        }
        if !admitted.is_empty() && rng.random_bool(0.3) {
            let victim = admitted.swap_remove(rng.random_range(0..admitted.len()));
            mgr.destroy(victim).unwrap();
        }
    }
    assert!(!admitted.is_empty(), "seed produced no surviving slices");
    let prove =
        || Verifier::check(mgr.cluster(), TableView::of_switches(mgr.switches()), mgr.intent());
    let (v1, v2) = (prove(), prove());
    assert_identical(&v1, &v2, "random slice mix");
    assert!(v1.holds(), "slice mix should verify clean");
}

#[test]
fn every_pass_proves_the_same_twice() {
    // What runs per switch (warnings, the route pass), per class and per
    // source (the reference walk) gives the same proof twice: on a full
    // proof of 19 switches' tables whose rules test `src`, on a delta that
    // closes a cycle, and along the slice-churn chain.
    let (cluster, mut view, intent) = common::wide_chain(19);
    for (src, dst) in [(1, 5), (6, 0), (900, 3)] {
        let m = FlowMatch { src: Some(HostAddr(src)), ..common::route(4, dst, 0).m };
        view.apply(4, 1, &FlowMod::Add(FlowEntry { m, priority: 20, action: Action::Drop }));
    }
    let old = common::route(9, 10, 2);
    let batch = vec![
        (9, 1, FlowMod::Delete(old.m, old.priority)),
        (9, 1, FlowMod::Add(common::route(9, 10, 1))),
    ];
    let (churn_cluster, steps) = common::slice_churn(10);
    let prove = || {
        let full = Verifier::check(&cluster, view.clone(), intent.clone());
        let delta = Verifier::check_delta(&full, &batch, intent.clone());
        let empty = TableView::of_switches(&steps[0].before);
        let base = Verifier::check(&churn_cluster, empty, Intent::new());
        let mut chain = vec![base];
        for step in &steps {
            let last = &chain[chain.len() - 1];
            let next = Verifier::check_delta(last, &step.batch, step.intent.clone());
            chain.push(next);
        }
        chain.extend([full, delta]);
        chain
    };
    let one = prove();
    assert!(!one[one.len() - 1].holds(), "the delta closes a cycle");
    for (nth, (a, b)) in one.iter().zip(prove()).enumerate() {
        assert_identical(a, &b, &format!("proof {nth}"));
        assert_eq!(a.stats(), b.stats(), "proof {nth}");
    }
}

/// `benchmark/` times the product's proof: the shims it calls —
/// `check_threads`, `check_cached` and `check_delta_cached`, at whatever
/// worker count `verify_threads()` reports — give the report and
/// `VerifyStats` of `check` / `check_delta`, on a preset and on a delta.
#[test]
fn benchmark_shims_prove_what_check_proves() {
    let topo = fat_tree(4);
    let (cluster, proj) = project(&topo);
    let view = || TableView::of_synthesis(&proj.synthesis);
    let intent = || Intent::of_projection(&proj, &topo, topo.name());
    assert_eq!(sdt_verify::verify_threads(), 1);
    let same = |a: &Verifier, b: &Verifier, label: &str| {
        assert_identical(a, b, label);
        assert_eq!(a.stats(), b.stats(), "{label}: stats differ");
    };
    let mut cache = WalkCache::new();
    let full = Verifier::check(&cluster, view(), intent());
    for threads in [sdt_verify::verify_threads(), 2] {
        let shim = Verifier::check_threads(&cluster, view(), intent(), threads);
        same(&full, &shim, &format!("check_threads(.., {threads})"));
        let shim = Verifier::check_cached(&cluster, view(), intent(), threads, &mut cache);
        same(&full, &shim, &format!("check_cached(.., {threads})"));
    }
    let batch: Vec<(u32, u8, FlowMod)> = vec![(0, 1, FlowMod::Clear)];
    let delta = Verifier::check_delta(&full, &batch, intent());
    assert!(!delta.holds(), "clearing a routing table must break the proof");
    for threads in [sdt_verify::verify_threads(), 2] {
        let shim = Verifier::check_delta_cached(&full, &batch, intent(), threads, &mut cache);
        same(&delta, &shim, &format!("check_delta_cached(.., {threads})"));
    }
}
