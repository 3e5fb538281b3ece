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
//!     the same rounds, and a fixed channel seed replays the same install;
//! (e) the wire order [`Epoch::from_diff`] stores, and the rounds compiled
//!     from it, equal a reference that works the order out of plain add
//!     and delete lists — random multi-switch pipelines with MODIFYs, keys
//!     held twice and tables not in entry order;
//! (f) replaying that wire order on the old tables ends exactly on the new
//!     tables' entries, per switch and table.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_core::synthesis::{SynthesisOutput, Table};
use sdt_openflow::{
    diff_positions, diff_tables, Action, ControlChannel, ControlConfig, FlowEntry, FlowMatch,
    FlowMod, HostAddr, OpenFlowSwitch, PortNo,
};
use sdt_tenancy::epoch::synthesis_entries;
use sdt_tenancy::{
    compile_rounds, install_scheduled, Epoch, MigrationPlan, RoundPhase, SliceId, SliceManager,
};
use std::collections::{BTreeSet, HashSet};
use sdt_topology::chain::{chain, ring};
use sdt_topology::meshtorus::mesh;
use sdt_topology::Topology;
use sdt_verify::{TableView, Verifier};
use sdt_routing::{default_strategy, RouteTable};

/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them.
fn default_routes(t: &Topology) -> RouteTable {
    RouteTable::build_for_hosts(t, default_strategy(t).as_ref())
}

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
    mgr.create("co", &zoo(co), default_routes(&zoo(co))).unwrap();
    let id = mgr.create("m", &zoo(from), default_routes(&zoo(from))).unwrap();
    let plan = mgr.plan_scheduled(id, &zoo(to), default_routes(&zoo(to))).unwrap();
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
            plan.epoch().mods.iter().map(|(sw, t, m)| key(*sw, *t, m)).collect();
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
        for (sw, t, m) in plan.epoch().mods.iter() {
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
        m2.create("co", &zoo(1), default_routes(&zoo(1))).unwrap();
        let id = m2.create("m", &zoo(2), default_routes(&zoo(2))).unwrap();
        m2.plan_scheduled(id, &zoo(1), default_routes(&zoo(1))).unwrap()
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

type Mod = (u32, u8, FlowMod);
/// One add of the plain lists: (switch, table, entry).
type Add = (u32, u8, FlowEntry);
/// One strict delete of the plain lists: (switch, table, match, priority).
type Delete = (u32, u8, FlowMatch, u16);

/// The mods turning `old` into `new` as two plain lists, switch by switch,
/// table 0 then table 1, each in position order. A delete strikes every
/// entry of its (match, priority) key, so the adds are the entries `old`
/// lacks and those `new` keeps under a deleted key.
fn plain_lists(old: &SynthesisOutput, new: &SynthesisOutput) -> (Vec<Add>, Vec<Delete>) {
    let (mut adds, mut deletes) = (Vec::new(), Vec::new());
    for sw in 0..old.table0.len().max(new.table0.len()) {
        for table in [0u8, 1u8] {
            let (o, n) = (synthesis_entries(old, sw, table), synthesis_entries(new, sw, table));
            let (gone, fresh) = diff_positions(o, n);
            let struck: HashSet<_> = gone.iter().map(|&i| (o[i].m, o[i].priority)).collect();
            deletes.extend(gone.iter().map(|&i| (sw as u32, table, o[i].m, o[i].priority)));
            adds.extend(
                (0..n.len())
                    .filter(|j| fresh.contains(j) || struck.contains(&(n[*j].m, n[*j].priority)))
                    .map(|j| (sw as u32, table, n[j])),
            );
        }
    }
    (adds, deletes)
}

/// The reference wire order over plain lists: adds table 1 → table 0, then
/// deletes table 0 → table 1, each add that shares a delete's (switch,
/// table, match, priority) key held back to land right after the last
/// delete of that key (an in-place MODIFY).
fn ordered(adds: &[Add], deletes: &[Delete]) -> Vec<Mod> {
    // Adds and deletes by position, each sorted by key. Equal delete keys
    // go last position first, so a merge meets the last delete of a key
    // first: the one an add of the same key rides behind.
    let add_key = |&i: &u32| {
        let (switch, table, entry) = &adds[i as usize];
        (*switch, *table, entry.m.order_key(entry.priority))
    };
    let delete_key = |&i: &u32| {
        let (switch, table, m, priority) = &deletes[i as usize];
        (*switch, *table, m.order_key(*priority))
    };
    let mut by_key: Vec<u32> = (0..adds.len() as u32).collect();
    by_key.sort_unstable_by_key(add_key);
    let mut sorted_deletes: Vec<u32> = (0..deletes.len() as u32).collect();
    sorted_deletes.sort_by_key(|d| (delete_key(d), std::cmp::Reverse(*d)));
    // Per add: the position of the delete it rides, if one shares its key.
    const ALONE: u32 = u32::MAX;
    let mut rides = vec![ALONE; adds.len()];
    let mut sorted_deletes = sorted_deletes.iter().peekable();
    for a in &by_key {
        let key = add_key(a);
        while sorted_deletes.next_if(|&d| delete_key(d) < key).is_some() {}
        if let Some(&&d) = sorted_deletes.peek().filter(|&&d| delete_key(d) == key) {
            rides[*a as usize] = d;
        }
    }
    // Held-back adds per table: (position of their delete, own position).
    let mut held: [Vec<(u32, u32)>; 2] = Default::default();
    let mut mods = Vec::with_capacity(adds.len() + deletes.len());
    for table in [1u8, 0u8] {
        for (i, a) in adds.iter().enumerate().filter(|(_, a)| a.1 == table) {
            match rides[i] {
                ALONE => mods.push((a.0, a.1, FlowMod::Add(a.2))),
                at => held[usize::from(table)].push((at, i as u32)),
            }
        }
    }
    for table in [0u8, 1u8] {
        // Stable: adds sharing a delete keep their order. The deletes of
        // one table are then met in the order their adds are held.
        let held = &mut held[usize::from(table)];
        held.sort_by_key(|&(at, _)| at);
        let mut held = held.iter().peekable();
        for (at, d) in deletes.iter().enumerate().filter(|(_, d)| d.1 == table) {
            mods.push((d.0, d.1, FlowMod::Delete(d.2, d.3)));
            while let Some(&(_, i)) = held.next_if(|&&(of, _)| of == at as u32) {
                mods.push((d.0, d.1, FlowMod::Add(adds[i as usize].2)));
            }
        }
    }
    mods
}

/// [`ordered`]'s own reference, from before the pairing was keyed by
/// delete position: a key set, and a heap `Vec` of replacements per key,
/// sent behind the key's last delete.
fn ordered_by_key_map(adds: &[Add], deletes: &[Delete]) -> Vec<Mod> {
    use std::collections::HashMap;
    let delete_keys: HashSet<Delete> = deletes.iter().copied().collect();
    let mut replacements: HashMap<Delete, Vec<FlowEntry>> = HashMap::new();
    let mut mods = Vec::new();
    for table in [1u8, 0u8] {
        for &(switch, t, entry) in adds.iter().filter(|a| a.1 == table) {
            let key = (switch, t, entry.m, entry.priority);
            if delete_keys.contains(&key) {
                replacements.entry(key).or_default().push(entry);
            } else {
                mods.push((switch, t, FlowMod::Add(entry)));
            }
        }
    }
    for table in [0u8, 1u8] {
        for (at, &d) in deletes.iter().enumerate().filter(|(_, d)| d.1 == table) {
            mods.push((d.0, d.1, FlowMod::Delete(d.2, d.3)));
            if deletes[at + 1..].contains(&d) {
                continue;
            }
            for e in replacements.remove(&d).into_iter().flatten() {
                mods.push((d.0, d.1, FlowMod::Add(e)));
            }
        }
    }
    mods
}

/// A wire order's atomic units, regrouped by adjacency: a delete and the
/// adds of its own key that follow it form one.
fn units_of(mods: &[Mod]) -> Vec<Vec<Mod>> {
    let mut units: Vec<Vec<Mod>> = Vec::new();
    for (sw, t, m) in mods.iter().cloned() {
        let attaches = match (&m, units.last()) {
            (FlowMod::Add(e), Some(u)) => matches!(
                u.first(),
                Some(&(usw, ut, FlowMod::Delete(dm, dp)))
                    if usw == sw && ut == t && dm == e.m && dp == e.priority
            ),
            _ => false,
        };
        match units.last_mut() {
            Some(u) if attaches => u.push((sw, t, m)),
            _ => units.push(vec![(sw, t, m)]),
        }
    }
    units
}

/// The reference round compiler: a layer per unit, then one filtering,
/// cloning pass over every unit per layer. Each round as (phase, units,
/// mods).
fn reference_rounds(mods: &[Mod], before: &TableView) -> Vec<(RoundPhase, usize, Vec<Mod>)> {
    let units = units_of(mods);
    let mut fresh_routes: HashSet<(u32, u32)> = HashSet::new();
    for u in &units {
        if let [(sw, 1, FlowMod::Add(e))] = u.as_slice() {
            if let Some(md) = e.m.metadata {
                fresh_routes.insert((*sw, md));
            }
        }
    }
    let mut steered: HashSet<(u32, u32)> = HashSet::new();
    for sw in 0..before.num_switches() as u32 {
        for e in before.entries(sw, 0) {
            if let Action::WriteMetadataGoto(md) = e.action {
                steered.insert((sw, md));
            }
        }
    }
    let mut add_max = 0usize;
    let mut layers: Vec<(usize, RoundPhase)> = Vec::with_capacity(units.len());
    for u in &units {
        let layer = match u.as_slice() {
            [(_, 1, FlowMod::Add(_))] => (0, RoundPhase::Make),
            [(sw, 0, FlowMod::Add(e))] => {
                let depends = match e.action {
                    Action::WriteMetadataGoto(md) => fresh_routes.contains(&(*sw, md)),
                    _ => false,
                };
                (usize::from(depends), RoundPhase::Make)
            }
            [(_, 0, FlowMod::Delete(..)), ..] => (usize::MAX - 1, RoundPhase::Cutover),
            [(_, 1, FlowMod::Delete(..)), _, ..] => (usize::MAX - 1, RoundPhase::Cutover),
            [(sw, 1, FlowMod::Delete(dm, _))] => {
                if dm.metadata.is_some_and(|md| steered.contains(&(*sw, md))) {
                    (usize::MAX, RoundPhase::Collect)
                } else {
                    (usize::MAX - 1, RoundPhase::Cutover)
                }
            }
            _ => (usize::MAX - 1, RoundPhase::Cutover),
        };
        if layer.1 == RoundPhase::Make {
            add_max = add_max.max(layer.0);
        }
        layers.push(layer);
    }
    let resolved = |l: usize| match l {
        usize::MAX => add_max + 2,
        x if x == usize::MAX - 1 => add_max + 1,
        x => x,
    };
    let mut rounds = Vec::new();
    for target in 0..=add_max + 2 {
        let mut mods = Vec::new();
        let mut n_units = 0usize;
        let mut phase = RoundPhase::Make;
        for (u, &(l, p)) in units.iter().zip(&layers) {
            if resolved(l) == target {
                mods.extend(u.iter().cloned());
                n_units += 1;
                phase = phase.max(p);
            }
        }
        if !mods.is_empty() {
            rounds.push((phase, n_units, mods));
        }
    }
    rounds
}

/// Random old and new pipelines over one to three switches each (so one
/// side may lack a switch the other has) and a small key space: tables
/// hold a (match, priority) key twice and exact copies, the new side
/// drops entries, re-points some in place (a MODIFY) and adds others. A
/// [`Table`] keeps its entries in key order, whatever order they are
/// generated in.
fn pipelines(seed: u64) -> (SynthesisOutput, SynthesisOutput) {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n) as u32
    };
    let entry = |table: usize, next: &mut dyn FnMut(u64) -> u32| match table {
        0 => FlowEntry {
            m: FlowMatch::on_port(PortNo(next(4) as u16)),
            priority: [10, 20][next(2) as usize],
            action: Action::WriteMetadataGoto(next(3)),
        },
        _ => FlowEntry {
            m: FlowMatch::to_dst(HostAddr(next(3))).and_metadata(next(3)),
            priority: 10,
            action: Action::Output(PortNo(next(5) as u16)),
        },
    };
    let (n_old, n_new) = (1 + next(3) as usize, 1 + next(3) as usize);
    let mut old = [vec![Vec::new(); n_old], vec![Vec::new(); n_old]];
    let mut new = [vec![Vec::new(); n_new], vec![Vec::new(); n_new]];
    for table in 0..2 {
        for sw in 0..n_old.max(n_new) {
            let was: Vec<FlowEntry> = (0..next(8)).map(|_| entry(table, &mut next)).collect();
            let mut is = Vec::new();
            for e in &was {
                match next(4) {
                    0 => {}
                    1 => is.push(FlowEntry { action: entry(table, &mut next).action, ..*e }),
                    _ => is.push(*e),
                }
            }
            is.extend((0..next(4)).map(|_| entry(table, &mut next)));
            if sw < n_old {
                old[table][sw] = was;
            }
            if sw < n_new {
                new[table][sw] = is;
            }
        }
    }
    let pipeline = |[table0, table1]: [Vec<Vec<FlowEntry>>; 2]| SynthesisOutput {
        entries_per_switch: table0.iter().zip(&table1).map(|(a, b)| a.len() + b.len()).collect(),
        table0: table0.into_iter().map(Table::from).collect(),
        table1: table1.into_iter().map(Table::from).collect(),
    };
    (pipeline(old), pipeline(new))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn epoch_wire_order_and_rounds_equal_the_plain_list_reference(seed in any::<u64>()) {
        let (old, new) = pipelines(seed);
        let (adds, deletes) = plain_lists(&old, &new);
        let want = ordered(&adds, &deletes);
        prop_assert_eq!(format!("{want:?}"), format!("{:?}", ordered_by_key_map(&adds, &deletes)));
        let epoch = Epoch::from_diff(SliceId(0), &old, &new);
        prop_assert_eq!(format!("{:?}", epoch.mods), format!("{want:?}"));
        let before = TableView::of_synthesis(&old);
        let got: Vec<String> = compile_rounds(&epoch, &before)
            .iter()
            .map(|r| format!("{:?} {} {:?}", r.phase, r.units, r.mods))
            .collect();
        let want: Vec<String> = reference_rounds(&want, &before)
            .iter()
            .map(|(phase, units, mods)| format!("{phase:?} {units} {mods:?}"))
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// A plain replay of a wire order on `old`'s tables: an add appends, a
/// delete strikes every entry of its (match, priority) key. Per switch and
/// table, the entries left as a set.
fn replayed(old: &SynthesisOutput, mods: &[Mod]) -> Vec<[BTreeSet<String>; 2]> {
    let mut tables: Vec<[Vec<FlowEntry>; 2]> =
        old.table0.iter().zip(&old.table1).map(|(t0, t1)| [t0.to_vec(), t1.to_vec()]).collect();
    for (sw, table, m) in mods {
        if tables.len() <= *sw as usize {
            tables.resize(*sw as usize + 1, Default::default());
        }
        let t = &mut tables[*sw as usize][usize::from(*table)];
        match *m {
            FlowMod::Add(e) => t.push(e),
            FlowMod::Delete(m, p) => t.retain(|e| (e.m, e.priority) != (m, p)),
            FlowMod::Clear => t.clear(),
        }
    }
    let set = |t: &Vec<FlowEntry>| t.iter().map(|e| format!("{e:?}")).collect();
    tables.iter().map(|ts| ts.each_ref().map(set)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// (f) Replaying the wire order on `old` ends exactly on `new`'s
    /// entries, per switch and table, also where `old` holds a key twice
    /// and deletes one or both copies.
    #[test]
    fn replaying_the_epoch_on_old_ends_on_new(seed in any::<u64>()) {
        let (old, new) = pipelines(seed);
        let epoch = Epoch::from_diff(SliceId(0), &old, &new);
        let (got, want) = (replayed(&old, &epoch.mods), replayed(&new, &[]));
        let none = Default::default();
        for sw in 0..got.len().max(want.len()) {
            let (got, want) = (got.get(sw).unwrap_or(&none), want.get(sw).unwrap_or(&none));
            prop_assert_eq!(got, want, "switch {}", sw);
        }
    }
}

/// What the generator reaches over 500 seeds: MODIFYs in either table,
/// several adds behind one delete, and a delete key held twice within one
/// table; and every table it builds is in key order.
#[test]
fn the_pipeline_generator_reaches_every_pairing_shape() {
    let (mut modifies, mut wide_modifies, mut repeated_deletes) = ([0, 0], 0, 0);
    for seed in 0..500 {
        let (old, new) = pipelines(seed);
        let (adds, deletes) = plain_lists(&old, &new);
        for u in units_of(&ordered(&adds, &deletes)).iter().filter(|u| u.len() > 1) {
            modifies[usize::from(u[0].1)] += 1;
            wide_modifies += usize::from(u.len() > 2);
        }
        let keys: HashSet<String> = deletes.iter().map(|d| format!("{d:?}")).collect();
        repeated_deletes += usize::from(keys.len() < deletes.len());
        let in_order = |t: &Table| t.is_sorted_by_key(FlowEntry::order_key);
        let mut tables = old.table0.iter().chain(&old.table1).chain(&new.table0).chain(&new.table1);
        assert!(tables.all(in_order), "seed {seed}");
    }
    assert!(
        modifies[0] > 100 && modifies[1] > 100 && wide_modifies > 20,
        "{modifies:?} {wide_modifies}"
    );
    assert!(repeated_deletes > 100, "{repeated_deletes}");
}
