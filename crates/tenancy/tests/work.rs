//! Control-plane work pins: what a scheduled migration asks of the
//! switches and of the verifier, counted exactly, so a change to the
//! reconfiguration path says whether the work moved without a timer.
//!
//! Each case runs the operator path minus the wire — `plan_scheduled`, then
//! `commit_scheduled` over a reliable channel — and renders, per installed
//! round, its phase, atomic units, flow-mods, the busiest switch's share of
//! them, the host pairs its boundary proof re-walked and the compiled
//! rounds merged into it; then the migration's total mods, merges and
//! violations, the entries the switches deep-copied by copy-on-write
//! (`FlowTable::entries_copied`) and the entries their Deletes scanned
//! (`FlowTable::entries_scanned`). The copy count is 0 here: each proof
//! applies the mods it checks to its own copy of a table
//! (`TableView::apply`), so no proof shares a table when a round writes it
//! on a switch. The tables are exact: a change that moves a pin re-records
//! it here and says why.
//!
//! The rounds themselves copy no mod: every round reads its epoch's one
//! buffer (`rounds_read_the_epoch_buffer_and_copy_no_mod`), and a merged
//! round installs what its rounds did, in their order
//! (`a_merged_round_installs_its_rounds_in_order`).

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::{ControlChannel, FlowTable};
use sdt_tenancy::{compile_rounds, install_scheduled, MigrationPlan, SliceManager};
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::torus;
use sdt_topology::Topology;
use sdt_routing::{default_strategy, RouteTable};
use sdt_verify::{TableView, Verifier};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

/// Admit `path[0]`, then migrate it through the rest of `path` one
/// scheduled reconfiguration at a time; one rendered table per migration.
fn migrations(cluster: PhysicalCluster, path: &[Topology]) -> Vec<String> {
    let mut mgr = SliceManager::new(cluster);
    let id = mgr.create("m", &path[0], default_routes(&path[0])).unwrap();
    let n = mgr.switches().len();
    path[1..]
        .iter()
        .map(|to| {
            let plan = mgr.plan_scheduled(id, to, default_routes(to)).unwrap();
            // Busiest switch per compiled round; an installed round that
            // merged several compiled ones sums their mods per switch.
            let per_switch: Vec<Vec<usize>> = plan
                .rounds()
                .iter()
                .map(|r| {
                    let mut per = vec![0usize; n];
                    for (sw, _, _) in &r.mods {
                        per[*sw as usize] += 1;
                    }
                    per
                })
                .collect();
            let sum = |mgr: &SliceManager, count: fn(&FlowTable) -> u64| -> u64 {
                let tables = mgr.switches().iter().flat_map(|sw| [sw.table(0), sw.table(1)]);
                tables.map(count).sum()
            };
            let copied = sum(&mgr, FlowTable::entries_copied);
            let scanned = sum(&mgr, FlowTable::entries_scanned);
            let (_, report) = mgr.commit_scheduled(plan, &mut ControlChannel::reliable()).unwrap();
            let mut compiled = per_switch.iter();
            let mut out = String::new();
            for r in &report.rounds {
                let mut per = vec![0usize; n];
                for round in compiled.by_ref().take(r.merged_from) {
                    per.iter_mut().zip(round).for_each(|(a, b)| *a += b);
                }
                let busiest = per.into_iter().max().unwrap_or(0);
                out += &format!(
                    "{} {} units={} mods={} busiest={} pairs_walked={} merged_from={}\n",
                    r.round, r.phase, r.units, r.mods, busiest, r.pairs_walked, r.merged_from
                );
            }
            out += &format!(
                "total_mods={} merges={} violations={}\n",
                report.total_mods, report.merges, report.violations
            );
            out += &format!("entries_copied={}\n", sum(&mgr, FlowTable::entries_copied) - copied);
            out += &format!("entries_scanned={}\n", sum(&mgr, FlowTable::entries_scanned) - scanned);
            out
        })
        .collect()
}

fn wide() -> SwitchModel {
    SwitchModel {
        name: "synthetic 512x100G",
        ports: 512,
        gbps: 100,
        price_usd: 0,
        table_capacity: 262_144,
        p4: false,
    }
}

/// Hold each migration's table to its pin; a failure prints every table
/// the run got.
fn check(got: &[String], want: &[&str]) {
    let all = got.join("\n");
    assert_eq!(got.len(), want.len(), "{all}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "migration {i} moved; this run got:\n{all}");
    }
}

/// Fat-tree k=8 (80 switches, 128 hosts) to the 8×16 torus and back, on
/// four 512-port switches — the widest migration tier-1 can afford.
#[test]
fn fat_tree_k8_to_torus_and_back_on_512_port_switches() {
    let cluster =
        ClusterBuilder::new(wide(), 4).hosts_per_switch(64).inter_links_per_pair(96).build();
    let got = migrations(cluster, &[fat_tree(8), torus(&[8, 16]), fat_tree(8)]);
    check(
        &got,
        &[
            "0 make units=16384 mods=16384 busiest=4096 pairs_walked=16256 merged_from=1\n\
             1 make units=384 mods=384 busiest=108 pairs_walked=16256 merged_from=1\n\
             2 cutover units=640 mods=896 busiest=252 pairs_walked=16256 merged_from=1\n\
             3 collect units=5248 mods=5248 busiest=1344 pairs_walked=16256 merged_from=1\n\
             total_mods=22912 merges=0 violations=0\n\
             entries_copied=0\n\
             entries_scanned=25075552\n",
            "0 make units=4089 mods=4089 busiest=1312 pairs_walked=16256 merged_from=1\n\
             1 make units=231 mods=231 busiest=84 pairs_walked=16256 merged_from=1\n\
             2 cutover units=1951 mods=3518 busiest=1514 pairs_walked=16256 merged_from=1\n\
             3 collect units=15072 mods=15072 busiest=4096 pairs_walked=16256 merged_from=1\n\
             total_mods=22910 merges=0 violations=0\n\
             entries_copied=0\n\
             entries_scanned=54780876\n",
        ],
    );
}

/// The paper's three-switch cluster of 64-port H3C switches.
fn paper_cluster() -> PhysicalCluster {
    ClusterBuilder::new(SwitchModel::h3c_64x10g(), 3)
        .hosts_per_switch(8)
        .inter_links_per_pair(12)
        .build()
}

/// The paper's fat-tree k=4 on its cluster, to the 4×4 torus and back.
#[test]
fn paper_fat_tree_k4_to_torus_and_back() {
    let got = migrations(paper_cluster(), &[fat_tree(4), torus(&[4, 4]), fat_tree(4)]);
    check(
        &got,
        &[
            "0 make units=200 mods=200 busiest=72 pairs_walked=240 merged_from=1\n\
             1 make units=57 mods=57 busiest=21 pairs_walked=240 merged_from=1\n\
             2 cutover units=144 mods=223 busiest=98 pairs_walked=240 merged_from=1\n\
             3 collect units=144 mods=144 busiest=64 pairs_walked=240 merged_from=1\n\
             total_mods=624 merges=0 violations=0\n\
             entries_copied=0\n\
             entries_scanned=27657\n",
            "0 make units=172 mods=172 busiest=72 pairs_walked=240 merged_from=1\n\
             1 make units=37 mods=37 busiest=15 pairs_walked=240 merged_from=1\n\
             2 cutover units=144 mods=223 busiest=100 pairs_walked=240 merged_from=1\n\
             3 collect units=192 mods=192 busiest=64 pairs_walked=240 merged_from=1\n\
             total_mods=624 merges=0 violations=0\n\
             entries_copied=0\n\
             entries_scanned=31333\n",
        ],
    );
}

/// A fat-tree k=4 slice on the paper's cluster, planned to migrate to the
/// 4×4 torus.
fn paper_k4_plan() -> (SliceManager, MigrationPlan) {
    let mut mgr = SliceManager::new(paper_cluster());
    let id = mgr.create("m", &fat_tree(4), default_routes(&fat_tree(4))).unwrap();
    let to = torus(&[4, 4]);
    let plan = mgr.plan_scheduled(id, &to, default_routes(&to)).unwrap();
    (mgr, plan)
}

/// No round copies a mod: every round a plan holds, and every round
/// `compile_rounds` returns for the plan's epoch, yields the epoch's own
/// mods — the same addresses — at ascending positions, and the rounds
/// together cover each position once.
#[test]
fn rounds_read_the_epoch_buffer_and_copy_no_mod() {
    let (mgr, plan) = paper_k4_plan();
    let epoch = plan.epoch();
    let compiled = compile_rounds(epoch, &TableView::of_switches(mgr.switches()));
    for rounds in [plan.rounds(), &compiled[..]] {
        assert_eq!(rounds.len(), 4);
        let mut covered: Vec<u32> = Vec::new();
        for r in rounds {
            let at = r.mods.positions();
            assert_eq!(r.mods.len(), at.len());
            assert!(at.is_sorted(), "a compiled round's positions ascend");
            for (m, &i) in r.mods.iter().zip(at) {
                assert!(std::ptr::eq(m, &epoch.mods[i as usize]), "position {i} was copied");
            }
            covered.extend(at);
        }
        covered.sort_unstable();
        assert!(covered.into_iter().eq(0..epoch.mods.len() as u32));
    }
}

/// A round whose boundary fails its proof merges with the next: the merged
/// round installs its rounds' mods one round after the other, the order a
/// concatenation of copies had. Installing the plan's rounds backwards
/// makes every boundary before the last fail.
#[test]
fn a_merged_round_installs_its_rounds_in_order() {
    let (mgr, plan) = paper_k4_plan();
    let mut rounds = plan.rounds().to_vec();
    rounds.reverse();
    let mut want = mgr.switches().to_vec();
    for (sw, t, m) in rounds.iter().flat_map(|r| &r.mods) {
        want[*sw as usize].apply(*t, m.clone()).unwrap();
    }
    let mut switches = mgr.switches().to_vec();
    let base =
        Verifier::check(mgr.cluster(), TableView::of_switches(&switches), plan.pre_intent().clone());
    let (_, report) = install_scheduled(
        mgr.cluster(),
        &mut switches,
        &mut ControlChannel::reliable(),
        rounds,
        base,
        plan.pre_intent(),
        plan.post_intent(),
    )
    .unwrap();
    let merged: Vec<_> = report.rounds.iter().map(|r| (r.merged_from, r.mods)).collect();
    assert_eq!(merged, [(4, plan.epoch().mods.len())]);
    for (got, want) in switches.iter().zip(&want) {
        for t in [0u8, 1] {
            assert_eq!(got.table(t).entries(), want.table(t).entries());
        }
    }
}
