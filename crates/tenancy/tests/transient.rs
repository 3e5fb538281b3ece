//! Transient-state differential suite: every intermediate table state a
//! scheduled migration produces is proven clean by the *reference*
//! (uncollapsed) verifier — and the naive one-shot order is
//! shown to produce a transient violation the scheduler provably avoids.
//!
//! The scheduler's own proofs run through the collapsed incremental walker
//! (`check_delta`); trusting it to certify its own rounds would be
//! circular. Here each round boundary is re-derived independently: the
//! rounds are applied to a [`TableView`] snapshot one by one and each
//! resulting state is handed to `Verifier::check_plain`, which
//! shares no collapse machinery with the fast path.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_openflow::FlowMod;
use sdt_tenancy::{MigrationPlan, RoundPhase, SliceManager};
use sdt_topology::chain::{chain, ring};
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::{mesh, torus};
use sdt_topology::Topology;
use sdt_verify::{Intent, TableView, Verifier};

fn cluster2() -> PhysicalCluster {
    ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(12)
        .build()
}

/// The boundary intent rule the scheduler uses: pre-cutover states still
/// implement the old intent (the new pipeline is dark until steered to);
/// from the first cutover-phase round on — and always at the end — the
/// post-migration intent rules.
fn boundary_intent(plan: &MigrationPlan, i: usize) -> &Intent {
    let last = plan.rounds().len() - 1;
    if i == last || plan.rounds()[i].phase >= RoundPhase::Cutover {
        plan.post_intent()
    } else {
        plan.pre_intent()
    }
}

/// Walk a plan's rounds over a table snapshot, handing every boundary
/// state to `check` for independent judgment.
fn enumerate_boundaries(
    mgr: &SliceManager,
    plan: &MigrationPlan,
    mut check: impl FnMut(usize, &TableView, &Intent),
) {
    let mut view = TableView::of_switches(mgr.switches());
    for (i, round) in plan.rounds().iter().enumerate() {
        for (sw, t, m) in &round.mods {
            view.apply(*sw, *t, m);
        }
        check(i, &view, boundary_intent(plan, i));
    }
}

/// Reference verdict on one boundary: no loop, blackhole or leak.
fn assert_boundary_clean(mgr: &SliceManager, plan: &MigrationPlan, label: &str) {
    enumerate_boundaries(mgr, plan, |i, view, intent| {
        let v = Verifier::check_plain(mgr.cluster(), view.clone(), intent.clone());
        assert!(
            v.holds(),
            "{label}: round {i}/{} boundary violates: {}",
            plan.rounds().len(),
            v.report().summary()
        );
    });
}

#[test]
fn paper_preset_migrations_are_clean_at_every_boundary() {
    // The paper's reconfiguration demos: fat-tree <-> torus, chain -> ring,
    // each migrated while a co-tenant occupies the same fabric (so a
    // transient mis-steer would surface as a leak, not just a blackhole).
    let presets: &[(Topology, Topology)] = &[
        (fat_tree(4), torus(&[4, 4])),
        (chain(4), ring(4)),
        (ring(6), mesh(&[2, 3])),
    ];
    for (from, to) in presets {
        let mut mgr = SliceManager::new(cluster2());
        mgr.create("co-tenant", &chain(4)).unwrap();
        let id = mgr.create("migrant", from).unwrap();
        let plan = mgr.plan_scheduled(id, to).unwrap();
        assert!(plan.rounds().len() > 1, "{}->{}: expected multiple rounds", from.name(), to.name());
        assert_boundary_clean(&mgr, &plan, &format!("{}->{}", from.name(), to.name()));
    }
}

#[test]
fn seeded_random_slice_mixes_are_clean_at_every_boundary() {
    // Deterministic xorshift over a topology zoo: admit a random pair of
    // slices, migrate the second to another random topology, and prove
    // every scheduled boundary with the reference walker.
    let zoo: &[fn() -> Topology] = &[
        || chain(3),
        || chain(4),
        || ring(4),
        || ring(5),
        || mesh(&[2, 2]),
        || mesh(&[3, 2]),
    ];
    let mut state = 0x5eed_f00d_u64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for case in 0..6 {
        let a = zoo[next(zoo.len())]();
        let b = zoo[next(zoo.len())]();
        let to = zoo[next(zoo.len())]();
        let mut mgr = SliceManager::new(cluster2());
        mgr.create("a", &a).unwrap();
        let id = mgr.create("b", &b).unwrap();
        let plan = mgr.plan_scheduled(id, &to).unwrap();
        assert_boundary_clean(
            &mgr,
            &plan,
            &format!("case {case}: {}+{} -> {}", a.name(), b.name(), to.name()),
        );
    }
}

#[test]
fn memoized_round_proofs_match_the_reference_walker() {
    // Differential closure of the scheduler's actual proof chain: replay it
    // with `check_delta_plain` (no memoization, no collapse) and
    // assert findings are byte-identical to the fast incremental chain at
    // every boundary.
    let mut mgr = SliceManager::new(cluster2());
    mgr.create("co-tenant", &chain(4)).unwrap();
    let id = mgr.create("migrant", &fat_tree(4)).unwrap();
    let plan = mgr.plan_scheduled(id, &torus(&[4, 4])).unwrap();

    let before = TableView::of_switches(mgr.switches());
    let mut fast = Verifier::check(mgr.cluster(), before.clone(), plan.pre_intent().clone());
    let mut plain = Verifier::check_plain(mgr.cluster(), before, plan.pre_intent().clone());
    for (i, round) in plan.rounds().iter().enumerate() {
        let intent = boundary_intent(&plan, i);
        fast = Verifier::check_delta(&fast, &round.mods, intent.clone());
        plain = Verifier::check_delta_plain(&plain, &round.mods, intent.clone());
        let (f, p) = (fast.report(), plain.report());
        assert_eq!(format!("{:?}", f.loops), format!("{:?}", p.loops), "round {i} loops");
        assert_eq!(
            format!("{:?}", f.blackholes),
            format!("{:?}", p.blackholes),
            "round {i} blackholes"
        );
        assert_eq!(format!("{:?}", f.leaks), format!("{:?}", p.leaks), "round {i} leaks");
        assert!(p.holds(), "round {i}: reference found {}", p.summary());
    }
}

#[test]
fn naive_one_shot_order_produces_a_transient_violation() {
    // The crafted case the scheduler earns its keep on: install the same
    // epoch in the naive break-before-make order (deletes first, adds
    // after). Mid-batch — old pipeline torn down, new one not yet up — the
    // reference verifier must find a blackhole against the pre-migration
    // intent, because live traffic at that instant still follows it.
    let mut mgr = SliceManager::new(cluster2());
    let id = mgr.create("migrant", &chain(4)).unwrap();
    let plan = mgr.plan_scheduled(id, &ring(4)).unwrap();
    assert!(
        !plan.epoch().deletes.is_empty() && !plan.epoch().adds.is_empty(),
        "migration must both add and delete for the ordering to matter"
    );

    let mut view = TableView::of_switches(mgr.switches());
    for d in &plan.epoch().deletes {
        view.apply(d.switch, d.table, &FlowMod::Delete(d.m, d.priority));
    }
    let mid =
        Verifier::check_plain(mgr.cluster(), view.clone(), plan.pre_intent().clone());
    assert!(
        !mid.report().blackholes.is_empty(),
        "deletes-first midpoint must blackhole live traffic: {}",
        mid.report().summary()
    );

    // Completing the naive batch lands on the same end state the scheduler
    // reaches — the violation is purely transient, which is exactly why
    // one-shot end-state gating cannot see it.
    for a in &plan.epoch().adds {
        view.apply(a.switch, a.table, &FlowMod::Add(a.entry));
    }
    let done =
        Verifier::check_plain(mgr.cluster(), view, plan.post_intent().clone());
    assert!(done.holds(), "end state clean either way: {}", done.report().summary());
}
