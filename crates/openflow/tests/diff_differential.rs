//! Differential property test for the table diff: on any two entry lists —
//! in no particular order, with repeated entries, with entries that share a
//! (match, priority) key and differ in action, with one side empty —
//! [`diff_tables`] returns the mods its set definition does, in the same
//! order, and everything built on the same merge agrees with it:
//! [`diff_positions`] names the entries behind those mods,
//! [`table_divergence`] is their number and [`same_entries`] is "none".
//!
//! Field domains are tiny (3 ports, 3 metadata values, 4 addresses, 3
//! priorities, 3 actions) so that the two sides share entries, repeat them
//! and collide on keys in nearly every case.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_openflow::{
    diff_positions, diff_tables, same_entries, table_divergence, Action, FlowEntry, FlowMatch,
    FlowMod, HostAddr, OpenFlowSwitch, PortNo, SwitchConfig,
};
use std::collections::HashSet;

/// [`diff_tables`] as it was before it merged the sides in entry order: a
/// hash set per side, a membership probe per entry. The set definition.
fn reference_diff(old: &[FlowEntry], new: &[FlowEntry]) -> Vec<FlowMod> {
    let old_set: HashSet<&FlowEntry> = old.iter().collect();
    let new_set: HashSet<&FlowEntry> = new.iter().collect();
    let mut mods = Vec::new();
    for e in old {
        if !new_set.contains(e) {
            mods.push(FlowMod::Delete(e.m, e.priority));
        }
    }
    for e in new {
        if !old_set.contains(e) {
            mods.push(FlowMod::Add(*e));
        }
    }
    mods
}

/// Decode an entry over the small domains from raw bits: the low bits
/// choose which fields constrain, higher bits the values.
fn decode(r: u32) -> FlowEntry {
    let field = |bit: u32, shift: u32, n: u32| (r & bit != 0).then_some((r >> shift) % n);
    FlowEntry {
        m: FlowMatch {
            in_port: field(1, 8, 3).map(|p| PortNo(p as u16)),
            metadata: field(2, 10, 3),
            src: field(4, 12, 4).map(HostAddr),
            dst: field(8, 14, 4).map(HostAddr),
            l4_src: field(16, 16, 2).map(|p| p as u16),
            l4_dst: field(32, 18, 2).map(|p| p as u16),
        },
        priority: [5, 10, 20][(r >> 20) as usize % 3],
        action: match (r >> 22) % 3 {
            0 => Action::Drop,
            1 => Action::WriteMetadataGoto((r >> 24) % 2),
            _ => Action::Output(PortNo(((r >> 24) % 3) as u16)),
        },
    }
}

/// One side of a case: decoded entries, then some of them again (and again
/// under the other action), so repeats and key collisions are certain.
fn side(raw: &[u32]) -> Vec<FlowEntry> {
    let mut entries: Vec<FlowEntry> = raw.iter().map(|&r| decode(r)).collect();
    for (i, &r) in raw.iter().enumerate() {
        match r >> 28 {
            0 | 1 => entries.push(entries[i]),
            2 => entries.push(FlowEntry { action: Action::Drop, ..entries[i] }),
            _ => {}
        }
    }
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn diff_equals_its_set_definition(
        old in proptest::collection::vec(any::<u32>(), 0..40),
        new in proptest::collection::vec(any::<u32>(), 0..40),
        shared in proptest::collection::vec(any::<u32>(), 0..20),
    ) {
        // `shared` lands on both sides, at the front of one and the back of
        // the other, so neither side is in any order.
        let old = side(&[&shared[..], &old[..]].concat());
        let new = side(&[&new[..], &shared[..]].concat());
        for (old, new) in [(&old, &new), (&new, &old), (&old, &old), (&old, &Vec::new())] {
            let want = reference_diff(old, new);
            prop_assert_eq!(format!("{:?}", diff_tables(old, new)), format!("{want:?}"));
            prop_assert_eq!(same_entries(old, new), want.is_empty());

            let (gone, fresh) = diff_positions(old, new);
            let named: Vec<FlowMod> = gone
                .iter()
                .map(|&i| FlowMod::Delete(old[i].m, old[i].priority))
                .chain(fresh.iter().map(|&j| FlowMod::Add(new[j])))
                .collect();
            prop_assert_eq!(format!("{named:?}"), format!("{want:?}"));
            prop_assert!(gone.is_sorted() && fresh.is_sorted());

            // The live tables hold `old` in scan order, not in this order:
            // the count is of a set difference, so it does not care.
            let mut sw = OpenFlowSwitch::new(0, SwitchConfig::x64_100g());
            old.iter().for_each(|&e| sw.apply(1, FlowMod::Add(e)).unwrap());
            let live = sw.table(1).entries();
            prop_assert_eq!(table_divergence(&sw, &[], new), reference_diff(live, new).len());
            prop_assert_eq!(table_divergence(&sw, new, live), reference_diff(&[], new).len());
        }
    }
}
