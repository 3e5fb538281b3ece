//! Differential proof that the fast verifier is invisible: the
//! symmetry-collapsed, weight-sharded walk must produce reports
//! **byte-identical** to the reference (plain) walker — on the paper's
//! preset topologies, on incremental delta checks, on a seeded random
//! multi-tenant slice mix, on the live tables left behind by a
//! chaos-style `recover()`, and on arbitrary interleavings of flow-mod
//! batches with verification passes (property test).
//!
//! These tests compare the full `Debug` rendering of [`VerifyReport`], so
//! any drift in a finding, a counter, or even ordering fails loudly.

#![allow(clippy::unwrap_used, clippy::expect_used)]
mod common;

use common::{bank, bushy_chain, default_routes, route, wide_chain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_controller::{FailureReport, SdtController};
use sdt_core::cluster::ClusterBuilder;
use sdt_core::methods::SwitchModel;
use sdt_core::sdt::SdtProjector;
use sdt_openflow::{
    Action, ControlChannel, FlowEntry, FlowMatch, FlowMod, HostAddr, PortNo,
};
use sdt_tenancy::SliceManager;
use sdt_topology::chain::{chain, ring};
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::{mesh, torus};
use sdt_topology::Topology;
use sdt_verify::{Intent, TableView, Verifier};

/// Fast and plain must have derived the same proof, bit for bit.
fn assert_identical(fast: &Verifier, plain: &Verifier, label: &str) {
    let (rf, rp) = (fast.report(), plain.report());
    assert_eq!(rf.loops, rp.loops, "{label}: loops differ");
    assert_eq!(rf.blackholes, rp.blackholes, "{label}: blackholes differ");
    assert_eq!(rf.leaks, rp.leaks, "{label}: leaks differ");
    assert_eq!(rf.shadowed, rp.shadowed, "{label}: shadow findings differ");
    assert_eq!(rf.nondeterminism, rp.nondeterminism, "{label}: nondet findings differ");
    assert_eq!(
        format!("{rf:?}"),
        format!("{rp:?}"),
        "{label}: reports not byte-identical"
    );
}

/// A delta proof must say what a from-scratch proof of the same tables and
/// intent says, in everything but the two counters of work it saved.
fn assert_same_verdict_as_scratch(delta: &Verifier, scratch: &Verifier, label: &str) {
    let with_delta_counters = sdt_verify::VerifyReport {
        pairs_walked: delta.report().pairs_walked,
        switches_scanned: delta.report().switches_scanned,
        ..scratch.report().clone()
    };
    assert_eq!(
        format!("{:?}", delta.report()),
        format!("{with_delta_counters:?}"),
        "{label}: delta proof differs from a from-scratch proof"
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
        if let Ok(p) = projector.project(topo, &cluster, &default_routes(topo)) {
            return (cluster, p);
        }
    }
    panic!("{} does not fit on 8 switches", topo.name());
}

/// Project a topology onto `switches` synthetic 512-port switches wired for
/// it, as the `reconfig-k16` benchmark unit does.
fn project_wide(
    topo: &Topology,
    switches: u32,
) -> (sdt_core::cluster::PhysicalCluster, sdt_core::sdt::SdtProjection) {
    let wide = SwitchModel {
        name: "synthetic 512x100G",
        ports: 512,
        gbps: 100,
        price_usd: 0,
        table_capacity: 262_144,
        p4: false,
    };
    let ctl = SdtController::for_campaign(std::slice::from_ref(topo), wide, switches).unwrap();
    let projector = SdtProjector { merge_entries_on_overflow: true };
    let proj = projector.project(topo, ctl.cluster(), &default_routes(topo)).unwrap();
    (ctl.cluster().clone(), proj)
}

#[test]
fn paper_presets_fast_equals_plain() {
    let presets: Vec<Topology> =
        vec![fat_tree(4), torus(&[4, 4]), dragonfly(4, 9, 2, 2), ring(8)];
    for topo in &presets {
        let (cluster, proj) = project(topo);
        let view = || TableView::of_synthesis(&proj.synthesis);
        let intent = || Intent::of_projection(&proj, topo, topo.name());
        let plain = Verifier::check_plain(&cluster, view(), intent());
        let fast = Verifier::check(&cluster, view(), intent());
        assert_identical(&fast, &plain, topo.name());
        assert!(
            fast.stats().symmetric,
            "{}: SDT synthesis should admit the fast path",
            topo.name()
        );
    }
}

#[test]
fn delta_checks_fast_equals_plain_across_modes() {
    // Corrupt a verified fat-tree with a batch emptying one routing table:
    // plain delta and fast delta must report the same blackholes, and an
    // empty delta must agree too.
    let topo = fat_tree(4);
    let (cluster, proj) = project(&topo);
    let view = || TableView::of_synthesis(&proj.synthesis);
    let intent = || Intent::of_projection(&proj, &topo, topo.name());
    let plain0 = Verifier::check_plain(&cluster, view(), intent());
    let fast0 = Verifier::check(&cluster, view(), intent());

    let batch = common::emptying(&view(), 0, 1);
    let dp = Verifier::check_delta_plain(&plain0, &batch, intent());
    let df = Verifier::check_delta(&fast0, &batch, intent());
    assert_identical(&df, &dp, "emptied-table delta fast");
    assert!(!dp.holds(), "emptying a routing table must break the proof");

    // Re-verify the unmodified tables: the fast empty delta (whole-proof
    // replay) must agree with the plain empty delta (both report zero
    // re-walked pairs — everything reused) and keep every clean finding.
    let empty: Vec<(u32, u8, FlowMod)> = Vec::new();
    let warm = Verifier::check_delta(&fast0, &empty, intent());
    let warm_plain = Verifier::check_delta_plain(&plain0, &empty, intent());
    assert_identical(&warm, &warm_plain, "warm empty delta");
    assert!(warm.holds(), "empty delta over clean tables stays clean");
}

#[test]
fn random_slice_mix_fast_equals_plain() {
    // Seeded random multi-tenant churn leaves live tables richer than any
    // single synthesis (orphaned shadows, uneven metadata tiers). Both
    // walkers must agree on the full proof.
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
        if let Ok(id) = mgr.create(&format!("s{i}"), &topo, default_routes(&topo)) {
            admitted.push(id);
        }
        if !admitted.is_empty() && rng.random_bool(0.3) {
            let victim = admitted.swap_remove(rng.random_range(0..admitted.len()));
            mgr.destroy(victim).unwrap();
        }
    }
    assert!(!admitted.is_empty(), "seed produced no surviving slices");
    let view = || TableView::of_switches(mgr.switches());
    let plain = Verifier::check_plain(mgr.cluster(), view(), mgr.intent());
    let fast = Verifier::check(mgr.cluster(), view(), mgr.intent());
    assert_identical(&fast, &plain, "random slice mix");
}

#[test]
fn post_recovery_live_tables_fast_equals_plain() {
    // Chaos-style fault + recover(): kill a cable under a deployed torus,
    // reconcile the live switches, then prove fast == plain on the exact
    // tables the recovery left behind.
    let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
        .hosts_per_switch(16)
        .inter_links_per_pair(10)
        .build();
    let mut c = SdtController::new(cluster);
    let d = c.deploy(&torus(&[4, 4])).unwrap();
    let pre = Verifier::check(
        c.cluster(),
        TableView::of_switches(&d.switches),
        Intent::of_projection(&d.projection, &d.topology, d.topology.name()),
    );
    assert!(pre.holds(), "intact deployment must verify clean");

    let dead = (sdt_topology::SwitchId(0), sdt_topology::SwitchId(1));
    let mut ch = ControlChannel::reliable();
    let report = FailureReport::links(vec![dead]);
    let out = c.recover(d, &report, &mut ch).unwrap();
    assert!(out.retry.converged, "reliable channel must converge");

    let dep = &out.deployment;
    let view = || TableView::of_switches(&dep.switches);
    let intent = || Intent::of_projection(&dep.projection, &dep.topology, dep.topology.name());
    let plain = Verifier::check_plain(c.cluster(), view(), intent());
    let fast = Verifier::check(c.cluster(), view(), intent());
    assert_identical(&fast, &plain, "post-recovery live tables");
}

#[test]
fn deltas_past_the_64th_switch_fast_equals_plain() {
    // Switches 3 and 67 share a bit in any 64-bit fold of the switch id, so
    // a delta on one must not re-walk the pairs that cross only the other:
    // the re-walked count is exactly the pairs whose path crosses a touched
    // switch.
    const N: u32 = 70;
    let (cluster, view, intent) = wide_chain(N);
    let plain0 = Verifier::check_plain(&cluster, view.clone(), intent.clone());
    let fast0 = Verifier::check(&cluster, view, intent.clone());
    assert_identical(&fast0, &plain0, "wide chain");
    assert!(fast0.holds() && fast0.stats().symmetric);

    // Ordered pairs of a chain whose path crosses any of `touched`.
    let crossing = |touched: &[u32]| {
        (0..N)
            .flat_map(|i| (0..N).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && touched.iter().any(|&t| i.min(j) <= t && t <= i.max(j)))
            .count()
    };
    // Repoint one route on each touched switch back toward the sender.
    let repoint = |sw: u32| {
        let old = route(sw, sw + 1, 2);
        [(sw, 1, FlowMod::Delete(old.m, old.priority)), (sw, 1, FlowMod::Add(route(sw, sw + 1, 1)))]
    };
    for touched in [vec![3], vec![67], vec![3, 67], vec![63, 64]] {
        let batch: Vec<(u32, u8, FlowMod)> = touched.iter().flat_map(|&sw| repoint(sw)).collect();
        let label = format!("delta on {touched:?}");
        let dp = Verifier::check_delta_plain(&plain0, &batch, intent.clone());
        let df = Verifier::check_delta(&fast0, &batch, intent.clone());
        assert_identical(&df, &dp, &label);
        assert!(!df.holds(), "{label}: a route pointing backwards must break the proof");
        assert_eq!(df.report().pairs_walked, crossing(&touched), "{label}");

        // Undo it as a delta on the delta: traces reused once are reused
        // again, and the proof is whole again.
        let undo: Vec<(u32, u8, FlowMod)> = touched
            .iter()
            .flat_map(|&sw| {
                let bad = route(sw, sw + 1, 1);
                [(sw, 1, FlowMod::Delete(bad.m, bad.priority)), (sw, 1, FlowMod::Add(route(sw, sw + 1, 2)))]
            })
            .collect();
        let up = Verifier::check_delta_plain(&dp, &undo, intent.clone());
        let uf = Verifier::check_delta(&df, &undo, intent.clone());
        assert_identical(&uf, &up, &format!("{label}, undone"));
        assert!(uf.holds());
        assert_eq!(uf.report().pairs_walked, crossing(&touched), "{label}, undone");
    }
}

#[test]
fn hosts_sharing_an_address_are_never_carried_over() {
    // Hosts 0 and 5 of a six-switch chain claim one address, so nothing but
    // the ingress port tells their traffic apart and no trace can be handed
    // to "the pair with these addresses". Take switch 1's route to host 3
    // away: host 0's packets now die there and host 5's still arrive, which
    // a proof that carried either's trace to the other would get wrong.
    let (cluster, view, mut intent) = wide_chain(6);
    intent.hosts[5].addr = HostAddr(0);
    let plain0 = Verifier::check_plain(&cluster, view.clone(), intent.clone());
    let fast0 = Verifier::check(&cluster, view.clone(), intent.clone());
    assert_identical(&fast0, &plain0, "shared address");

    let gone = route(1, 3, 2);
    let batch = vec![(1, 1, FlowMod::Delete(gone.m, gone.priority))];
    let mut after = view;
    for (sw, table, m) in &batch {
        after.apply(*sw, *table, m);
    }
    let dp = Verifier::check_delta_plain(&plain0, &batch, intent.clone());
    let df = Verifier::check_delta(&fast0, &batch, intent.clone());
    assert_identical(&df, &dp, "shared address, delta");
    let scratch = Verifier::check(&cluster, after, intent.clone());
    assert_same_verdict_as_scratch(&df, &scratch, "shared address, delta");
    // The 18 pairs with host 0 or 5 at an end, and of the 12 among hosts
    // 1..=4 the 6 with host 1 at an end (they cross switch 1).
    assert_eq!(df.report().pairs_walked, 18 + 6);

    // Unchanged tables and intent: only the pairs of hosts that own their
    // address replay.
    let warm = Verifier::check_delta(&df, &[], intent.clone());
    let warm_plain = Verifier::check_delta_plain(&dp, &[], intent);
    assert_identical(&warm, &warm_plain, "shared address, empty delta");
    assert_same_verdict_as_scratch(&warm, &scratch, "shared address, empty delta");
    assert_eq!(warm.report().pairs_walked, 18);
}

/// A table-1 rule of [`wide_chain`]'s switch `sw` that drops what `src`
/// sends to `dst`, above the routes.
fn drop_from(sw: u32, src: u32, dst: u32) -> FlowEntry {
    FlowEntry {
        m: FlowMatch { src: Some(HostAddr(src)), ..route(sw, dst, 0).m },
        priority: 20,
        action: Action::Drop,
    }
}

/// Fast and plain full proofs of `view`, held to each other; then `batch` on
/// top of each as a delta, held to each other and to a from-scratch proof
/// of the tables it leaves. Returns the two fast proofs.
fn assert_full_and_delta_agree(
    cluster: &sdt_core::cluster::PhysicalCluster,
    view: &TableView,
    intent: &Intent,
    batch: &[(u32, u8, FlowMod)],
    label: &str,
) -> (Verifier, Verifier) {
    let plain0 = Verifier::check_plain(cluster, view.clone(), intent.clone());
    let fast0 = Verifier::check(cluster, view.clone(), intent.clone());
    assert_identical(&fast0, &plain0, label);
    assert!(fast0.stats().symmetric, "{label}: the fast path must take these tables");
    let mut after = view.clone();
    for (sw, table, m) in batch {
        after.apply(*sw, *table, m);
    }
    let dp = Verifier::check_delta_plain(&plain0, batch, intent.clone());
    let df = Verifier::check_delta(&fast0, batch, intent.clone());
    assert_identical(&df, &dp, &format!("{label}, delta"));
    let scratch = Verifier::check(cluster, after, intent.clone());
    assert_same_verdict_as_scratch(&df, &scratch, &format!("{label}, delta"));
    (fast0, df)
}

#[test]
fn rules_testing_src_fast_equals_plain_equals_scratch() {
    // Table-1 rules that test `src` split the pairs over several source
    // classes, so the class a pair falls in depends on both its ends: host 1
    // may not reach host 5, nor host 6 host 0, and nobody else is touched.
    let (cluster, mut view, intent) = wide_chain(8);
    for rule in [drop_from(2, 1, 5), drop_from(4, 6, 0), drop_from(4, 900, 3)] {
        view.apply(rule.m.metadata.unwrap(), 1, &FlowMod::Add(rule));
    }
    let gone = drop_from(2, 1, 5);
    let batch = vec![(2, 1, FlowMod::Delete(gone.m, gone.priority))];
    let (full, delta) = assert_full_and_delta_agree(&cluster, &view, &intent, &batch, "src rules");
    // Sources 1, 6, 900 and fresh, by nine destinations.
    assert_eq!(full.report().header_classes, 4 * 9);
    let dead = |v: &Verifier| -> Vec<(u32, u32)> {
        v.report().blackholes.iter().map(|b| (b.src.0, b.dst.0)).collect()
    };
    assert_eq!(dead(&full), [(1, 5), (6, 0)]);
    assert_eq!(dead(&delta), [(6, 0)]);
}

#[test]
fn catch_all_and_equal_priority_routes_break_ties_by_key_order() {
    // Switch 3 loses its exact route to host 5 and gets two overlapping
    // rules of one priority instead, just below the routes' (so the
    // metadata rule steals no other destination) — one on the destination
    // alone, one on the metadata alone — over a catch-all drop. Whichever
    // sorts first in key order fires: the destination rule (no metadata)
    // and host 5 is still reached; once it is replaced by one that also
    // matches the metadata, and so sorts after the metadata rule, host 5's
    // traffic bounces between 2 and 3.
    let (cluster, mut view, intent) = wide_chain(6);
    let exact = route(3, 5, 2);
    let below = exact.priority - 1;
    let by_dst = FlowEntry { m: FlowMatch::to_dst(HostAddr(5)), priority: below, ..exact };
    let by_md = FlowEntry {
        m: FlowMatch::default().and_metadata(3),
        priority: below,
        action: Action::Output(PortNo(1)),
    };
    let by_dst_md = FlowEntry { m: by_dst.m.and_metadata(3), ..by_dst };
    let catch_all = FlowEntry { m: FlowMatch::any(), priority: 1, action: Action::Drop };
    view.apply(3, 1, &FlowMod::Delete(exact.m, exact.priority));
    view.apply(3, 1, &FlowMod::Add(catch_all));
    view.apply(2, 1, &FlowMod::Add(catch_all));
    view.apply(3, 1, &FlowMod::Add(by_md));
    view.apply(3, 1, &FlowMod::Add(by_dst));
    // The delta replaces the destination rule with one behind the
    // metadata rule in key order.
    let swap = vec![
        (3, 1, FlowMod::Delete(by_dst.m, by_dst.priority)),
        (3, 1, FlowMod::Add(by_dst_md)),
    ];
    let (full, delta) = assert_full_and_delta_agree(&cluster, &view, &intent, &swap, "tie-break");
    assert!(full.holds(), "{}", full.report().summary());
    assert!(!full.report().nondeterminism.is_empty(), "the overlap is still flagged");
    assert_eq!(delta.report().loops.len(), 1, "{}", delta.report().summary());
    // Hosts 0..=3 lose host 5 to the cycle; hosts 4 and 5 never cross switch 3's rule.
    assert_eq!(delta.report().looped_pairs, 4);
    assert_eq!(delta.stats().loop_classes_fallback, 1);
}

#[test]
fn more_classes_than_one_block_fast_equals_plain_equals_scratch() {
    // 200 source values nobody sends from, and one somebody does, times
    // thirteen destination classes: the class jobs run in two blocks, each
    // behind its own route pass, and the pair index is filled across both.
    let (cluster, mut view, intent) = wide_chain(12);
    for k in 0..200 {
        view.apply(5, 1, &FlowMod::Add(drop_from(5, 1000 + k, k % 12)));
    }
    view.apply(5, 1, &FlowMod::Add(drop_from(5, 1, 9)));
    let back = route(7, 8, 1);
    let batch = vec![
        (7, 1, FlowMod::Delete(back.m, back.priority)),
        (7, 1, FlowMod::Add(back)),
    ];
    let (full, delta) = assert_full_and_delta_agree(&cluster, &view, &intent, &batch, "blocks");
    assert_eq!(full.report().header_classes, 202 * 13);
    assert_eq!(full.report().blackholes.len(), 1);
    // Traffic to host 8 now cycles in every source class, and those classes
    // lie on both sides of the block boundary (position 2 048).
    assert!(delta.report().looped_pairs > 0);
    assert_eq!(delta.stats().loop_classes_fallback, 202);
}

#[test]
fn reordered_and_replaced_hosts_past_the_64th_switch_carry_row_by_row() {
    // The intent of the second proof lists the hosts backwards and gives
    // six of them a new host id, and its batch turns a route on switch 67
    // around: a pair keeps its trace iff both its hosts are who they were —
    // wherever they now stand in the list — and its path avoids switch 67.
    const N: u32 = 70;
    let (cluster, view, intent) = wide_chain(N);
    let plain0 = Verifier::check_plain(&cluster, view.clone(), intent.clone());
    let fast0 = Verifier::check(&cluster, view.clone(), intent.clone());
    let replaced = 10..16u32;
    let mut next = intent.clone();
    next.hosts.reverse();
    for h in next.hosts.iter_mut().filter(|h| replaced.contains(&h.addr.0)) {
        h.host = sdt_topology::HostId(100 + h.addr.0);
    }
    let old = route(67, 68, 2);
    let batch = vec![
        (67, 1, FlowMod::Delete(old.m, old.priority)),
        (67, 1, FlowMod::Add(route(67, 68, 1))),
    ];
    let mut after = view;
    for (sw, table, m) in &batch {
        after.apply(*sw, *table, m);
    }
    let dp = Verifier::check_delta_plain(&plain0, &batch, next.clone());
    let df = Verifier::check_delta(&fast0, &batch, next.clone());
    assert_identical(&df, &dp, "reordered intent");
    let scratch = Verifier::check(&cluster, after, next.clone());
    assert_same_verdict_as_scratch(&df, &scratch, "reordered intent");
    let rewalked = (0..N)
        .flat_map(|a| (0..N).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b)
        .filter(|&(a, b)| {
            replaced.contains(&a) || replaced.contains(&b) || (a.min(b) <= 67 && 67 <= a.max(b))
        })
        .count();
    assert_eq!(df.report().pairs_walked, rewalked);

    // Back to the first order on unchanged tables: everything carries but
    // the pairs of the hosts whose id changes back.
    let back = Verifier::check_delta(&df, &[], intent.clone());
    let back_plain = Verifier::check_delta_plain(&dp, &[], intent);
    assert_identical(&back, &back_plain, "order restored");
    assert_eq!(back.report().pairs_walked, 2 * 6 * (N as usize - 6) + 6 * 5);
}

/// The ordered pairs of `step.intent` a delta proof on top of a proof
/// against `was` must re-walk, counted without the verifier: a pair carries
/// over only if both hosts were hosts of `was` — same address, same entry,
/// same domain label — and a probe through the tables the step starts from
/// crosses no switch the step's batch touches.
fn pairs_to_rewalk(
    cluster: &sdt_core::cluster::PhysicalCluster,
    was: &Intent,
    step: &common::ChurnStep,
) -> usize {
    use sdt_core::walk::{walk_addrs, WalkEnd};
    let now = &step.intent;
    let kept: Vec<bool> = now
        .hosts
        .iter()
        .map(|h| {
            was.hosts.iter().any(|p| {
                (p.addr, p.ingress, &p.ports, p.group, p.host, &was.domains[p.domain])
                    == (h.addr, h.ingress, &h.ports, h.group, h.host, &now.domains[h.domain])
            })
        })
        .collect();
    let mut switches = step.before.clone();
    let mut count = 0;
    for (i, src) in now.hosts.iter().enumerate() {
        for (j, dst) in now.hosts.iter().enumerate() {
            if i == j {
                continue;
            }
            let mut crosses_touched = || {
                let (end, path) =
                    walk_addrs(cluster, &mut switches, src.ingress, src.addr, dst.addr);
                let died_at = match end {
                    WalkEnd::Dropped(sw) => Some(sw),
                    _ => None,
                };
                let mut crossed = path.iter().map(|hop| hop.0).chain(died_at);
                crossed.any(|sw| step.batch.iter().any(|(touched, _, _)| *touched == sw))
            };
            if !kept[i] || !kept[j] || crosses_touched() {
                count += 1;
            }
        }
    }
    count
}

#[test]
fn carry_over_under_intent_change_fast_equals_plain_equals_scratch() {
    // Slice churn moves the intent under the proof: hosts are appended,
    // removed from the middle (every later position shifts) and relabelled.
    // At every step the two walkers' delta proofs must be byte-identical,
    // must say what a from-scratch proof of the same tables says, and must
    // have re-walked exactly the pairs the carry-over rule cannot keep.
    // Seed 10 tears the middle slice down next to 20 pairs it leaves alone;
    // seed 111 reconfigures to the topology the slice already has, an empty
    // batch the fast path replays whole and the reference re-derives.
    for seed in [10, 111] {
        let (cluster, steps) = common::slice_churn(seed);
        let mut view = TableView::of_switches(&steps[0].before);
        let mut plain = Verifier::check_plain(&cluster, view.clone(), Intent::new());
        let mut fast = Verifier::check(&cluster, view.clone(), Intent::new());
        for step in &steps {
            let label = format!("seed {seed}, {}", step.label);
            let expected = pairs_to_rewalk(&cluster, fast.intent(), step);
            for (sw, table, m) in &step.batch {
                view.apply(*sw, *table, m);
            }
            let intent = || step.intent.clone();
            plain = Verifier::check_delta_plain(&plain, &step.batch, intent());
            fast = Verifier::check_delta(&fast, &step.batch, intent());
            assert_identical(&fast, &plain, &label);
            let r = fast.report();
            assert!(r.holds(), "{label}: {}", r.summary());

            let scratch = Verifier::check(&cluster, view.clone(), intent());
            assert_same_verdict_as_scratch(&fast, &scratch, &label);
            assert_eq!(r.pairs_walked, expected, "{label}: of {} pairs", r.pairs_checked);
            if step.label.starts_with("destroy") {
                assert!(
                    0 < r.pairs_walked && r.pairs_walked < r.pairs_checked,
                    "{label}: {} of {} re-walked, the step must both carry and re-walk",
                    r.pairs_walked,
                    r.pairs_checked
                );
            }
        }
    }
}

#[test]
fn a_shared_rows_leak_and_blackhole_are_reported_per_member_in_src_major_order() {
    // Hosts 0..=3 sit behind one edge switch of a fat-tree k=8 and share a
    // row. Two rules above its routes break that row twice: traffic for
    // host 100 is dropped there, and traffic for host 101 goes out host 1's
    // port. Every member of the row must get its own finding, source by
    // source, exactly where the reference walker puts it.
    let topo = fat_tree(8);
    let (cluster, proj) = project_wide(&topo, 4);
    let intent = Intent::of_projection(&proj, &topo, topo.name());
    let mut view = TableView::of_synthesis(&proj.synthesis);
    let edge = topo.host_switch(sdt_topology::HostId(0));
    assert!((1..4).all(|h| topo.host_switch(sdt_topology::HostId(h)) == edge));
    let sw = proj.assignment[edge.idx()];
    let at_edge = |dst: u32, action| FlowEntry {
        m: FlowMatch::to_dst(HostAddr(dst)).and_metadata(edge.0),
        priority: 20,
        action,
    };
    let host_1 = intent.hosts[1].ingress;
    assert_eq!(host_1.switch, sw);
    view.apply(sw, 1, &FlowMod::Add(at_edge(100, Action::Drop)));
    view.apply(sw, 1, &FlowMod::Add(at_edge(101, Action::Output(host_1.port))));
    let plain = Verifier::check_plain(&cluster, view.clone(), intent.clone());
    let fast = Verifier::check(&cluster, view, intent);
    assert_identical(&fast, &plain, "corrupted fat-tree k=8");
    assert_eq!(fast.stats().rows, 32, "one row per edge switch");
    let r = fast.report();
    let dead: Vec<(u32, u32)> = r.blackholes.iter().map(|b| (b.src.0, b.dst.0)).collect();
    assert_eq!(dead, [(0, 100), (1, 100), (2, 100), (3, 100)]);
    let leaks: Vec<(u32, u32, u32)> =
        r.leaks.iter().map(|l| (l.src.0, l.dst_addr.0, l.to_host.0)).collect();
    assert_eq!(leaks, [(0, 101, 1), (1, 101, 1), (2, 101, 1), (3, 101, 1)]);
    assert_eq!(r.pairs_checked, 128 * 127);
    assert_eq!(r.delivered_pairs, 128 * 127 - 8);
}

#[test]
fn hosts_that_expect_differently_never_share_a_row() {
    // Hosts 0 and 1 enter switch 0 alike, so every packet of theirs fares
    // alike, but the intent puts host 1 in a connectivity group of its own:
    // each of its ten deliveries, to and from the other five hosts, is a
    // leak, and none of host 0's is.
    let (cluster, view, mut intent) = bushy_chain(3, 2, 2);
    intent.hosts[1].group = 1;
    let plain = Verifier::check_plain(&cluster, view.clone(), intent.clone());
    let fast = Verifier::check(&cluster, view, intent);
    assert_identical(&fast, &plain, "two groups on one switch");
    assert_eq!(fast.stats().rows, 4);
    assert_eq!(fast.report().leaks.len(), 10);
}

#[test]
fn a_delta_chain_splits_a_shared_row_and_merges_it_again() {
    // Six switches, two listed hosts on each of their three host ports: the
    // hosts of a switch share a row. Each step is a delta on the last; each
    // must be byte-identical to the reference delta, say what a from-scratch
    // proof says, and re-walk exactly the pairs a probe through the tables
    // it starts from says cross a touched switch (or lost an endpoint).
    let (cluster, mut view, intent) = bushy_chain(6, 3, 2);
    let mut plain = Verifier::check_plain(&cluster, view.clone(), intent.clone());
    let mut fast = Verifier::check(&cluster, view.clone(), intent.clone());
    assert_identical(&fast, &plain, "bushy chain");
    assert_eq!(fast.stats().rows, 6);
    let reroute = |sw: u32, dst: u32, from: u16, to: u16| {
        let old = route(sw, dst, from);
        [(sw, 1, FlowMod::Delete(old.m, old.priority)), (sw, 1, FlowMod::Add(route(sw, dst, to)))]
    };
    let at = |switch: u32, port: u16| sdt_core::cluster::PhysPort { switch, port: PortNo(port) };
    let mut steps = Vec::new();
    // Host 3 leaves switch 1 for switch 3's free port: the routes to it on
    // switches 1 to 3 turn, every row there carries nothing, and it joins
    // switch 3's row.
    let mut moved = intent.clone();
    let h3 = moved.hosts.iter_mut().find(|h| h.addr.0 == 3).unwrap();
    (h3.ingress, h3.ports) = (at(3, 2), vec![at(3, 2)]);
    let batch = [reroute(1, 3, 0, 4), reroute(2, 3, 3, 4), reroute(3, 3, 3, 2)].concat();
    steps.push(("move host 3", batch, moved.clone(), 6));
    // A host appears on switch 5's free port, whose address is routed
    // already: no table changes, switch 5's two hosts carry their row and
    // the newcomer carries nothing — the row splits.
    let mut added = moved.clone();
    added.hosts.push(sdt_verify::IntentHost {
        host: sdt_topology::HostId(17),
        addr: HostAddr(17),
        ingress: at(5, 2),
        ports: vec![at(5, 2)],
        ..added.hosts[0].clone()
    });
    steps.push(("add host 17", Vec::new(), added.clone(), 7));
    // Host 7 leaves from the middle of the list: every later host moves up
    // a position, the split stays.
    let mut removed = added.clone();
    removed.hosts.retain(|h| h.addr.0 != 7);
    steps.push(("remove host 7", Vec::new(), removed.clone(), 7));
    // Switch 5 is touched: none of its hosts carries anything, and they
    // share one row again.
    steps.push(("touch switch 5", reroute(5, 15, 0, 0).to_vec(), removed, 6));
    for (label, batch, next, rows) in steps {
        let step = common::ChurnStep { label, before: bank(&cluster, &view), batch, intent: next };
        let expected = pairs_to_rewalk(&cluster, fast.intent(), &step);
        for (sw, table, m) in &step.batch {
            view.apply(*sw, *table, m);
        }
        plain = Verifier::check_delta_plain(&plain, &step.batch, step.intent.clone());
        fast = Verifier::check_delta(&fast, &step.batch, step.intent.clone());
        assert_identical(&fast, &plain, label);
        assert!(fast.holds(), "{label}: {}", fast.report().summary());
        let scratch = Verifier::check(&cluster, view.clone(), step.intent.clone());
        assert_same_verdict_as_scratch(&fast, &scratch, label);
        assert_eq!(fast.report().pairs_walked, expected, "{label}");
        assert_eq!(fast.stats().rows, rows, "{label}");
    }
}

#[test]
fn fat_tree_k16_keeps_one_row_per_source_group() {
    // The `reconfig-k16` benchmark unit's proof: 1 024 hosts, 128 edge
    // switches, 1 025 header classes, on 19 wide switches.
    let topo = fat_tree(16);
    let (cluster, proj) = project_wide(&topo, 19);
    let intent = Intent::of_projection(&proj, &topo, topo.name());
    let v = Verifier::check(&cluster, TableView::of_synthesis(&proj.synthesis), intent);
    assert!(v.holds(), "{}", v.report().summary());
    assert_eq!(v.report().pairs_checked, 1_047_552);
    let want = sdt_verify::VerifyStats {
        symmetric: true,
        pairs_walked_full: 131_072,
        pairs_replayed: 916_480,
        rows: 128,
        loop_classes_fast: 1025,
        loop_classes_fallback: 0,
        cache_hits: 278_528,
        cache_misses: 328_000,
    };
    assert_eq!(v.stats(), &want);
}

/// Decode a random match over tiny field domains so entries collide and
/// shadow constantly — and regularly break the symmetry preconditions
/// (header-matching classify rules, port-matching route rules), forcing
/// the fast path through its fallback as well as its collapsed walk.
fn decode_match(r: u32) -> FlowMatch {
    let mut m = FlowMatch::any();
    if r & 1 != 0 {
        m.in_port = Some(PortNo(((r >> 8) & 3) as u16));
    }
    if r & 2 != 0 {
        m.metadata = Some((r >> 10) & 3);
    }
    if r & 4 != 0 {
        m.src = Some(HostAddr(((r >> 12) & 7) % 6));
    }
    if r & 8 != 0 {
        m.dst = Some(HostAddr(((r >> 15) & 7) % 6));
    }
    if r & 16 != 0 {
        m.l4_dst = Some(((r >> 18) & 3) as u16);
    }
    m
}

fn decode_mod((kind, r, priority, action): (u8, u32, u16, u8)) -> FlowMod {
    match kind % 4 {
        0 | 1 => FlowMod::Delete(decode_match(r), priority),
        _ => FlowMod::Add(FlowEntry {
            m: decode_match(r),
            priority,
            action: match action % 3 {
                0 => Action::Drop,
                1 => Action::WriteMetadataGoto((r >> 21) & 3),
                _ => Action::Output(PortNo(((r >> 21) & 7) as u16)),
            },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleave random flow-mod batches with verification passes: after
    /// every batch, the plain delta chain and the fast delta chain must
    /// render byte-identical reports. Random batches routinely violate the
    /// pipeline shape, so this exercises collapsed walks and fallbacks in
    /// one run.
    #[test]
    fn interleaved_flow_mods_and_verifies_agree(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<u32>(), 0u16..8, any::<u8>()),
                1..4,
            ),
            1..5,
        ),
        sw_seed in any::<u32>(),
    ) {
        let topo = chain(4);
        let (cluster, proj) = project(&topo);
        let intent = || Intent::of_projection(&proj, &topo, topo.name());
        let view = || TableView::of_synthesis(&proj.synthesis);
        let num_switches = cluster.num_switches();
        let mut plain = Verifier::check_plain(&cluster, view(), intent());
        let mut fast = Verifier::check(&cluster, view(), intent());
        assert_identical(&fast, &plain, "proptest initial");
        for (bi, raw) in batches.iter().enumerate() {
            let batch: Vec<(u32, u8, FlowMod)> = raw
                .iter()
                .enumerate()
                .map(|(mi, &op)| {
                    let sw = (sw_seed.wrapping_add((bi * 4 + mi) as u32)) % num_switches;
                    let table = (op.1 >> 5) as u8 & 1;
                    (sw, table, decode_mod(op))
                })
                .collect();
            plain = Verifier::check_delta_plain(&plain, &batch, intent());
            fast = Verifier::check_delta(&fast, &batch, intent());
            assert_identical(&fast, &plain, &format!("proptest batch {bi}"));
        }
    }
}
