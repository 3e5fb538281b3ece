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

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_controller::{FailureReport, RecoveryConfig, SdtController};
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
    let projector = SdtProjector { merge_entries_on_overflow: true, ..Default::default() };
    for n in 1..=8u32 {
        let cluster = ClusterBuilder::new(model, n)
            .hosts_per_switch((topo.num_hosts() / n).max(1) as u16)
            .inter_links_per_pair(24)
            .build();
        if let Ok(p) = projector.project_default(topo, &cluster) {
            return (cluster, p);
        }
    }
    panic!("{} does not fit on 8 switches", topo.name());
}

#[test]
fn paper_presets_fast_equals_plain() {
    let presets: Vec<Topology> =
        vec![fat_tree(4), torus(&[4, 4]), dragonfly(4, 9, 2, 2), ring(8)];
    for topo in &presets {
        let (cluster, proj) = project(topo);
        let view = || TableView::of_synthesis(&proj.synthesis);
        let intent = || Intent::of_projection(&proj, topo, topo.name());
        let plain = Verifier::check_plain_threads(&cluster, view(), intent(), 2);
        let fast = Verifier::check_threads(&cluster, view(), intent(), 2);
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
    // Corrupt a verified fat-tree with a batch clearing one routing table:
    // plain delta and fast delta must report the same blackholes, and an
    // empty delta must agree too.
    let topo = fat_tree(4);
    let (cluster, proj) = project(&topo);
    let view = || TableView::of_synthesis(&proj.synthesis);
    let intent = || Intent::of_projection(&proj, &topo, topo.name());
    let plain0 = Verifier::check_plain_threads(&cluster, view(), intent(), 2);
    let fast0 = Verifier::check_threads(&cluster, view(), intent(), 2);

    let batch: Vec<(u32, u8, FlowMod)> = vec![(0, 1, FlowMod::Clear)];
    let dp = Verifier::check_delta_plain_threads(&plain0, &batch, intent(), 2);
    let df = Verifier::check_delta_threads(&fast0, &batch, intent(), 2);
    assert_identical(&df, &dp, "clear delta fast");
    assert!(!dp.holds(), "clearing a routing table must break the proof");

    // Re-verify the unmodified tables: the fast empty delta (whole-proof
    // replay) must agree with the plain empty delta (both report zero
    // re-walked pairs — everything reused) and keep every clean finding.
    let empty: Vec<(u32, u8, FlowMod)> = Vec::new();
    let warm = Verifier::check_delta_threads(&fast0, &empty, intent(), 2);
    let warm_plain = Verifier::check_delta_plain_threads(&plain0, &empty, intent(), 2);
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
        if let Ok(id) = mgr.create(&format!("s{i}"), &topo) {
            admitted.push(id);
        }
        if !admitted.is_empty() && rng.random_bool(0.3) {
            let victim = admitted.swap_remove(rng.random_range(0..admitted.len()));
            mgr.destroy(victim).unwrap();
        }
    }
    assert!(!admitted.is_empty(), "seed produced no surviving slices");
    let view = || TableView::of_switches(mgr.switches());
    let plain = Verifier::check_plain_threads(mgr.cluster(), view(), mgr.intent(), 2);
    let fast = Verifier::check_threads(mgr.cluster(), view(), mgr.intent(), 2);
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
    let pre = Verifier::check_threads(
        c.cluster(),
        TableView::of_switches(&d.switches),
        Intent::of_projection(&d.projection, &d.topology, d.topology.name()),
        2,
    );
    assert!(pre.holds(), "intact deployment must verify clean");

    let dead = (sdt_topology::SwitchId(0), sdt_topology::SwitchId(1));
    let mut ch = ControlChannel::reliable();
    let report = FailureReport::links(vec![dead]);
    let out = c.recover(d, &report, &mut ch, &RecoveryConfig::default()).unwrap();
    assert!(out.retry.converged, "reliable channel must converge");

    let dep = &out.deployment;
    let view = || TableView::of_switches(&dep.switches);
    let intent = || Intent::of_projection(&dep.projection, &dep.topology, dep.topology.name());
    let plain = Verifier::check_plain_threads(c.cluster(), view(), intent(), 2);
    let fast = Verifier::check_threads(c.cluster(), view(), intent(), 2);
    assert_identical(&fast, &plain, "post-recovery live tables");
}

/// A chain of `n` three-port switches, one logical switch and one host
/// each, with hand-written tables: port 0 is the host, port 1 the cable to
/// the left neighbor, port 2 the cable to the right; switch `i` classifies
/// into metadata `i` and routes by destination. Wider than any cluster a
/// projection in this repository produces, so switch sets need two words.
fn wide_chain(n: u32) -> (sdt_core::cluster::PhysicalCluster, TableView, Intent) {
    use sdt_core::cluster::{PhysPort, PhysicalCluster};
    use sdt_verify::IntentHost;
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
fn route(sw: u32, dst: u32, out: u16) -> FlowEntry {
    FlowEntry {
        m: FlowMatch::to_dst(HostAddr(dst)).and_metadata(sw),
        priority: 10,
        action: Action::Output(PortNo(out)),
    }
}

#[test]
fn deltas_past_the_64th_switch_fast_equals_plain() {
    // Switches 3 and 67 share a bit in any 64-bit fold of the switch id, so
    // a delta on one must not re-walk the pairs that cross only the other:
    // the re-walked count is exactly the pairs whose path crosses a touched
    // switch.
    const N: u32 = 70;
    let (cluster, view, intent) = wide_chain(N);
    let plain0 = Verifier::check_plain_threads(&cluster, view.clone(), intent.clone(), 2);
    let fast0 = Verifier::check_threads(&cluster, view, intent.clone(), 2);
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
        let dp = Verifier::check_delta_plain_threads(&plain0, &batch, intent.clone(), 2);
        let df = Verifier::check_delta_threads(&fast0, &batch, intent.clone(), 2);
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
        let up = Verifier::check_delta_plain_threads(&dp, &undo, intent.clone(), 2);
        let uf = Verifier::check_delta_threads(&df, &undo, intent.clone(), 2);
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
    let plain0 = Verifier::check_plain_threads(&cluster, view.clone(), intent.clone(), 2);
    let fast0 = Verifier::check_threads(&cluster, view.clone(), intent.clone(), 2);
    assert_identical(&fast0, &plain0, "shared address");

    let gone = route(1, 3, 2);
    let batch = vec![(1, 1, FlowMod::Delete(gone.m, gone.priority))];
    let mut after = view;
    for (sw, table, m) in &batch {
        after.apply(*sw, *table, m);
    }
    let dp = Verifier::check_delta_plain_threads(&plain0, &batch, intent.clone(), 2);
    let df = Verifier::check_delta_threads(&fast0, &batch, intent.clone(), 2);
    assert_identical(&df, &dp, "shared address, delta");
    let scratch = Verifier::check_threads(&cluster, after, intent.clone(), 2);
    assert_same_verdict_as_scratch(&df, &scratch, "shared address, delta");
    // The 18 pairs with host 0 or 5 at an end, and of the 12 among hosts
    // 1..=4 the 6 with host 1 at an end (they cross switch 1).
    assert_eq!(df.report().pairs_walked, 18 + 6);

    // Unchanged tables and intent: only the pairs of hosts that own their
    // address replay.
    let warm = Verifier::check_delta_threads(&df, &[], intent.clone(), 2);
    let warm_plain = Verifier::check_delta_plain_threads(&dp, &[], intent, 2);
    assert_identical(&warm, &warm_plain, "shared address, empty delta");
    assert_same_verdict_as_scratch(&warm, &scratch, "shared address, empty delta");
    assert_eq!(warm.report().pairs_walked, 18);
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
        let mut plain = Verifier::check_plain_threads(&cluster, view.clone(), Intent::new(), 2);
        let mut fast = Verifier::check_threads(&cluster, view.clone(), Intent::new(), 2);
        for step in &steps {
            let label = format!("seed {seed}, {}", step.label);
            let expected = pairs_to_rewalk(&cluster, fast.intent(), step);
            for (sw, table, m) in &step.batch {
                view.apply(*sw, *table, m);
            }
            let intent = || step.intent.clone();
            plain = Verifier::check_delta_plain_threads(&plain, &step.batch, intent(), 2);
            fast = Verifier::check_delta_threads(&fast, &step.batch, intent(), 2);
            assert_identical(&fast, &plain, &label);
            let r = fast.report();
            assert!(r.holds(), "{label}: {}", r.summary());

            let scratch = Verifier::check_threads(&cluster, view.clone(), intent(), 2);
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
        0 => FlowMod::Clear,
        1 => FlowMod::Delete(decode_match(r), priority),
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
        let mut plain = Verifier::check_plain_threads(&cluster, view(), intent(), 2);
        let mut fast = Verifier::check_threads(&cluster, view(), intent(), 2);
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
            plain = Verifier::check_delta_plain_threads(&plain, &batch, intent(), 2);
            fast = Verifier::check_delta_threads(&fast, &batch, intent(), 2);
            assert_identical(&fast, &plain, &format!("proptest batch {bi}"));
        }
    }
}
