//! Property tests over the round scheduler: whatever migration the slice
//! manager plans, the compiled rounds are a faithful, dependency-correct
//! re-sequencing of the epoch.
//!
//! (a) the rounds partition the epoch's flow-mod batch exactly — no mod
//!     duplicated, none lost;
//! (b) dependency edges hold: a table-0 add that steers metadata into
//!     routes added this epoch lands strictly after every one of those
//!     route adds, and no delete precedes a pure add;
//! (c) concatenating the rounds reaches exactly the unscheduled epoch's
//!     table state: same entry set per table, every (match, priority) key
//!     unique — distinct-key units commute, so set equality is lookup
//!     equality;
//! (d) scheduling and installation are deterministic: re-planning gives
//!     the same rounds, and a fixed channel seed replays the same install.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::{
    diff_tables, Action, ControlChannel, ControlConfig, FlowMod, OpenFlowSwitch, RetryPolicy,
};
use sdt_tenancy::{install_scheduled, MigrationPlan, SliceManager};
use sdt_topology::chain::{chain, ring};
use sdt_topology::meshtorus::mesh;
use sdt_topology::Topology;
use sdt_verify::{TableView, Verifier};

fn cluster2() -> PhysicalCluster {
    ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(12)
        .build()
}

fn zoo(ix: usize) -> Topology {
    match ix % 6 {
        0 => chain(3),
        1 => chain(4),
        2 => ring(4),
        3 => ring(5),
        4 => mesh(&[2, 2]),
        _ => mesh(&[3, 2]),
    }
}

/// Plan a migration `zoo(from) -> zoo(to)` next to a co-tenant.
fn plan_of(co: usize, from: usize, to: usize) -> (SliceManager, MigrationPlan) {
    let mut mgr = SliceManager::new(cluster2());
    mgr.create("co", &zoo(co)).unwrap();
    let id = mgr.create("m", &zoo(from)).unwrap();
    let plan = mgr.plan_scheduled(id, &zoo(to)).unwrap();
    (mgr, plan)
}

/// Canonical multiset key of one flow-mod.
fn key(sw: u32, t: u8, m: &FlowMod) -> String {
    format!("{sw}/{t}/{m:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rounds_partition_the_batch_exactly((co, from, to) in (0usize..6, 0usize..6, 0usize..6)) {
        let (_, plan) = plan_of(co, from, to);
        let mut scheduled: Vec<String> = plan
            .rounds()
            .iter()
            .flat_map(|r| r.mods.iter().map(|(sw, t, m)| key(*sw, *t, m)))
            .collect();
        let mut epoch: Vec<String> =
            plan.epoch().ordered_mods().iter().map(|(sw, t, m)| key(*sw, *t, m)).collect();
        scheduled.sort();
        epoch.sort();
        prop_assert_eq!(scheduled, epoch);
    }

    #[test]
    fn dependency_edges_are_never_violated((co, from, to) in (0usize..6, 0usize..6, 0usize..6)) {
        let (_, plan) = plan_of(co, from, to);
        // Where every *fresh* table-1 route for (switch, metadata) lands —
        // pure adds only; the add half of an in-place MODIFY replaces a
        // route that exists throughout and creates no dependency edge.
        let mut route_round: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        let mut pure_t0_adds: Vec<(usize, u32, u32)> = Vec::new(); // (round, sw, md)
        let mut last_pure_add = 0usize;
        let mut first_delete = usize::MAX;
        for (i, r) in plan.rounds().iter().enumerate() {
            // Key of the MODIFY unit we're inside, if any: subsequent adds
            // matching it are replacements, not pure adds.
            let mut modify_key: Option<(u32, u8, sdt_openflow::FlowMatch, u16)> = None;
            for (sw, t, m) in &r.mods {
                match m {
                    FlowMod::Delete(dm, dp) => {
                        first_delete = first_delete.min(i);
                        modify_key = Some((*sw, *t, *dm, *dp));
                    }
                    FlowMod::Add(e) => {
                        if modify_key == Some((*sw, *t, e.m, e.priority)) {
                            continue; // MODIFY replacement
                        }
                        modify_key = None;
                        last_pure_add = last_pure_add.max(i);
                        if *t == 1 {
                            if let Some(md) = e.m.metadata {
                                let slot = route_round.entry((*sw, md)).or_insert(i);
                                *slot = (*slot).max(i);
                            }
                        } else if let Action::WriteMetadataGoto(md) = e.action {
                            pure_t0_adds.push((i, *sw, md));
                        }
                    }
                    FlowMod::Clear => prop_assert!(false, "epochs never emit Clear"),
                }
            }
        }
        // (b1) no delete in an earlier round than a pure add.
        prop_assert!(
            first_delete == usize::MAX || first_delete >= last_pure_add,
            "delete in round {first_delete} precedes pure add in round {last_pure_add}"
        );
        // (b2) a steering table-0 add waits for every fresh route it
        // steers to.
        for (i, sw, md) in pure_t0_adds {
            if let Some(&route) = route_round.get(&(sw, md)) {
                prop_assert!(
                    route < i,
                    "t0 add in round {i} steers md {md} whose fresh routes land in round {route}"
                );
            }
        }
    }

    #[test]
    fn concatenated_rounds_reach_the_unscheduled_state((co, from, to) in (0usize..6, 0usize..6, 0usize..6)) {
        let (mgr, plan) = plan_of(co, from, to);
        let mut by_rounds = TableView::of_switches(mgr.switches());
        for r in plan.rounds() {
            for (sw, t, m) in &r.mods {
                by_rounds.apply(*sw, *t, m);
            }
        }
        let mut one_shot = TableView::of_switches(mgr.switches());
        for (sw, t, m) in &plan.epoch().ordered_mods() {
            one_shot.apply(*sw, *t, m);
        }
        for sw in 0..by_rounds.num_switches() as u32 {
            for t in [0u8, 1u8] {
                let a = by_rounds.entries(sw, t);
                let b = one_shot.entries(sw, t);
                // Same entry set, same count (distinct-key units commute,
                // so only vector order may differ between the two paths).
                prop_assert_eq!(a.len(), b.len(), "switch {} table {} entry count", sw, t);
                prop_assert!(
                    diff_tables(a, b).is_empty(),
                    "switch {sw} table {t}: scheduled and one-shot entry sets diverge"
                );
                // Every (match, priority) key unique: set equality is
                // first-match-wins lookup equality.
                let mut keys: Vec<(String, u16)> =
                    b.iter().map(|e| (format!("{:?}", e.m), e.priority)).collect();
                keys.sort();
                let n = keys.len();
                keys.dedup();
                prop_assert_eq!(keys.len(), n, "switch {} table {} has duplicate keys", sw, t);
            }
        }
    }
}

/// Run one plan through `install_scheduled` with a fixed channel seed;
/// return what determinism must preserve.
fn run_install(
    mgr: &SliceManager,
    plan: &MigrationPlan,
    seed: u64,
) -> (Vec<OpenFlowSwitch>, Vec<String>, usize, bool) {
    let mut switches: Vec<OpenFlowSwitch> = mgr.switches().to_vec();
    let mut channel = ControlChannel::new(ControlConfig {
        drop_prob: 0.25,
        reorder_prob: 0.25,
        seed,
        ..ControlConfig::reliable()
    });
    let base = Verifier::check(
        mgr.cluster(),
        TableView::of_switches(&switches),
        plan.pre_intent().clone(),
    );
    let (_, rep) = install_scheduled(
        mgr.cluster(),
        &mut switches,
        &mut channel,
        plan.rounds().to_vec(),
        base,
        plan.pre_intent(),
        plan.post_intent(),
        mgr.timing(),
        &RetryPolicy::default(),
    )
    .unwrap();
    let rounds: Vec<String> = rep
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{}m/{}u sends={} retries={} conv={} rever={}",
                r.round, r.phase, r.mods, r.units, r.sends, r.retries, r.converged, r.reverified
            )
        })
        .collect();
    (switches, rounds, rep.violations, rep.converged)
}

#[test]
fn scheduling_replays_exactly_for_a_fixed_seed() {
    let (mgr, plan) = plan_of(1, 2, 1); // chain(4) co-tenant isn't migrated
    // compile_rounds is a pure function: re-planning must be identical.
    let replan = {
        let mut m2 = SliceManager::new(cluster2());
        m2.create("co", &zoo(1)).unwrap();
        let id = m2.create("m", &zoo(2)).unwrap();
        m2.plan_scheduled(id, &zoo(1)).unwrap()
    };
    assert_eq!(format!("{:?}", plan.rounds()), format!("{:?}", replan.rounds()));

    for seed in [3u64, 17] {
        let (sw1, rounds1, viol1, conv1) = run_install(&mgr, &plan, seed);
        let (sw2, rounds2, viol2, conv2) = run_install(&mgr, &plan, seed);
        assert_eq!(rounds1, rounds2, "seed {seed}: round trace differs on replay");
        assert_eq!((viol1, conv1), (viol2, conv2));
        for (a, b) in sw1.iter().zip(&sw2) {
            for t in [0u8, 1u8] {
                assert_eq!(
                    a.table(t).entries(),
                    b.table(t).entries(),
                    "seed {seed}: live tables differ on replay"
                );
            }
        }
        assert!(conv1, "seed {seed}: lossy install must converge");
        assert_eq!(viol1, 0);
    }
}
