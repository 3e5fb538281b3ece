//! Key order decides nothing a lookup decides: the premise behind keeping
//! a table's entries in key order (`FlowEntry::order_key`) instead of
//! install order, and behind restoring a table as the merge of its
//! slices' entries.
//!
//! Within a priority level a lookup fires the first matching entry, so the
//! order of two equal-priority entries matters only when their matches
//! overlap. At every point of every install this suite drives — after each
//! flow-mod of the paper's fat-tree k=4 → 4×4 torus → fat-tree migrations
//! (in the order the scheduled rounds send them), and of a five-slice
//! create / reconfigure / destroy mix — no table holds two distinct
//! equal-priority entries whose matches overlap, and the static proof
//! reports no nondeterminism. So the tie-break an install order used to
//! make is never asked for.
//!
//! After each operation, scheduled or not, the live tables equal, byte for
//! byte, the merge of the slices' installed tables in key order — what a
//! restore builds.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::{ControlChannel, EntryStore, FlowEntry, FlowMod, OpenFlowSwitch};
use sdt_routing::{default_strategy, RouteTable};
use sdt_tenancy::{SliceId, SliceManager, SliceOp};
use sdt_topology::chain::{chain, ring};
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::{mesh, torus};
use sdt_topology::Topology;
use sdt_verify::{Intent, TableView, Verifier};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

/// The paper's three-switch cluster of 64-port H3C switches.
fn paper_cluster() -> PhysicalCluster {
    ClusterBuilder::new(SwitchModel::h3c_64x10g(), 3)
        .hosts_per_switch(8)
        .inter_links_per_pair(12)
        .build()
}

/// The first pair of distinct equal-priority entries with overlapping
/// matches in `entries`, if any.
fn tie(entries: &[FlowEntry]) -> Option<(FlowEntry, FlowEntry)> {
    entries.iter().enumerate().find_map(|(i, a)| {
        let level = entries[i + 1..].iter().take_while(|b| b.priority == a.priority);
        level.copied().find(|b| b != a && a.m.overlaps(&b.m)).map(|b| (*a, b))
    })
}

/// Apply `mods` one at a time to a copy of `bank`; after each, the table
/// it touched holds no tie and the proof of the whole bank reports no
/// nondeterminism. Returns the bank at the end and the prefixes checked.
fn walk_prefixes<'a>(
    cluster: &PhysicalCluster,
    bank: &[OpenFlowSwitch],
    intent: &Intent,
    mods: impl IntoIterator<Item = &'a (u32, u8, FlowMod)>,
    label: &str,
) -> (Vec<OpenFlowSwitch>, usize) {
    let mut bank = bank.to_vec();
    for sw in &bank {
        for t in [0, 1] {
            assert_eq!(tie(sw.table(t).entries()), None, "{label}, before: switch {}", sw.id());
        }
    }
    let mut prefixes = 0;
    for (at, (sw, t, m)) in mods.into_iter().enumerate() {
        bank[*sw as usize].apply(*t, m.clone()).unwrap();
        let got = tie(bank[*sw as usize].table(*t).entries());
        assert_eq!(got, None, "{label}, after mod {at}: switch {sw} table {t}");
        let proof = Verifier::check(cluster, TableView::of_switches(&bank), intent.clone());
        let nondet = &proof.report().nondeterminism;
        assert!(nondet.is_empty(), "{label}, after mod {at}: {nondet:?}");
        prefixes += 1;
    }
    (bank, prefixes)
}

/// Each switch's tables are the merge of its slices' installed tables, in
/// key order, byte for byte.
fn assert_tables_are_the_slices_merge(mgr: &SliceManager, label: &str) {
    for (i, sw) in mgr.switches().iter().enumerate() {
        for t in [0u8, 1] {
            let merged: Vec<FlowEntry> = mgr
                .slices()
                .flat_map(|s| {
                    let tables = if t == 0 { &s.installed.table0 } else { &s.installed.table1 };
                    tables[i].iter().copied()
                })
                .collect();
            let merged = EntryStore::from_ordered(merged);
            assert_eq!(sw.table(t).entries(), merged.entries(), "{label}: switch {i} table {t}");
        }
    }
}

#[test]
fn paper_k4_migrations_never_hold_an_equal_priority_overlap() {
    let mut mgr = SliceManager::new(paper_cluster());
    let id = mgr.create("m", &fat_tree(4), default_routes(&fat_tree(4))).unwrap();
    let mut prefixes = 0;
    for to in [torus(&[4, 4]), fat_tree(4)] {
        let plan = mgr.plan_scheduled(id, &to, default_routes(&to)).unwrap();
        let sent = plan.rounds().iter().flat_map(|r| &r.mods);
        let (bank, n) =
            walk_prefixes(mgr.cluster(), mgr.switches(), plan.pre_intent(), sent, to.name());
        prefixes += n;
        mgr.commit_scheduled(plan, &mut ControlChannel::reliable()).unwrap();
        for (got, want) in mgr.switches().iter().zip(&bank) {
            for t in [0, 1] {
                assert_eq!(got.table(t).entries(), want.table(t).entries());
            }
        }
        assert!(mgr.verify_report().nondeterminism.is_empty());
    }
    assert_eq!(prefixes, 1_248, "the two migrations send 624 mods each");
}

/// After each scheduled commit of the paper's k=4 migrations — rounds
/// installed one after the other over the control channel — each switch's
/// tables are the merge of its slices' installed tables, byte for byte.
#[test]
fn commit_scheduled_leaves_each_switch_the_merge_of_its_slices() {
    let mut mgr = SliceManager::new(paper_cluster());
    let id = mgr.create("m", &fat_tree(4), default_routes(&fat_tree(4))).unwrap();
    mgr.create("n", &chain(3), default_routes(&chain(3))).unwrap();
    assert_tables_are_the_slices_merge(&mgr, "admitted");
    for to in [torus(&[4, 4]), fat_tree(4)] {
        let plan = mgr.plan_scheduled(id, &to, default_routes(&to)).unwrap();
        mgr.commit_scheduled(plan, &mut ControlChannel::reliable()).unwrap();
        assert_tables_are_the_slices_merge(&mgr, to.name());
    }
}

#[test]
fn a_five_slice_mix_never_holds_an_equal_priority_overlap() {
    let cluster = || {
        ClusterBuilder::new(SwitchModel::h3c_64x10g(), 3)
            .hosts_per_switch(16)
            .inter_links_per_pair(12)
            .build()
    };
    let mut mgr = SliceManager::new(cluster());
    let create = |name: &str, t: Topology| SliceOp::Create {
        name: name.to_string(),
        routes: default_routes(&t),
        topo: t,
    };
    let reconfigure = |id: u32, t: Topology| SliceOp::Reconfigure {
        id: SliceId(id),
        routes: default_routes(&t),
        topo: t,
    };
    let ops = [
        create("a", ring(4)),
        create("b", chain(3)),
        create("c", mesh(&[2, 2])),
        create("d", fat_tree(4)),
        reconfigure(1, ring(5)),
        create("e", chain(4)),
        SliceOp::Destroy { id: SliceId(0) },
        reconfigure(2, chain(5)),
        reconfigure(4, mesh(&[2, 3])),
        SliceOp::Destroy { id: SliceId(3) },
        create("f", ring(3)),
        reconfigure(1, chain(2)),
        SliceOp::Destroy { id: SliceId(2) },
    ];
    let mut prefixes = 0;
    for (step, op) in ops.into_iter().enumerate() {
        let label = format!("step {step}");
        let plan = mgr.plan(op.clone()).unwrap();
        let mods = &*plan.epoch().mods;
        let (bank, n) = walk_prefixes(mgr.cluster(), mgr.switches(), &mgr.intent(), mods, &label);
        prefixes += n;
        drop(plan);
        mgr.apply_one(op).unwrap();
        for (got, want) in mgr.switches().iter().zip(&bank) {
            for t in [0, 1] {
                assert_eq!(got.table(t).entries(), want.table(t).entries(), "{label}");
            }
        }
        assert_tables_are_the_slices_merge(&mgr, &label);
        assert!(mgr.verify_report().nondeterminism.is_empty(), "{label}");
    }
    assert!(mgr.num_slices() >= 3 && prefixes > 1_000, "{prefixes} prefixes");
}
