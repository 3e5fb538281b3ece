//! Overlap/cover queries over priority-ordered entry lists, answered from
//! sorted runs — the engine behind the verifier's fast dead-rule and
//! nondeterminism scan.
//!
//! The naive scan asks, for every entry, "which *earlier* entries overlap
//! it, and does one cover it?" — O(n) per entry, O(n²) per table, and at
//! fat-tree k=16 scale (~8k entries per switch) that quadratic scan *is*
//! the verification wall. This module answers the same query with one sort
//! per table and a few comparisons per entry.
//!
//! The trick rides the equality-or-wildcard match algebra. Group entries by
//! their **mask** — the subset of fields they constrain. Two matches `x`
//! (mask `M`) and `e` (mask `E`) overlap iff they agree on every field of
//! `M ∩ E`; `x` covers `e` iff additionally `M ⊆ E`. Every query is an
//! entry of the table being scanned, so a group is only ever probed at its
//! intersections with the masks present there. For each such (group,
//! submask) the scan files one flat vector of `(projection, position)`
//! records — a member's values on the submask and where it stands in the
//! table — stable-sorted by projection. The members a query overlaps there
//! are one run of equal projections, found by one binary search; the
//! earlier ones are a prefix of the run, since positions ascend within it;
//! and they cover the query exactly when the submask is all of `M`.
//!
//! A query into the entry's own group asks for the earlier members of its
//! own run: entries with the very same match, which all cover it and are
//! never order-dependent with it, so only the first of them matters. That
//! is one position per entry, noted while the runs are cut — no search.
//!
//! A projection lists its fields in [`FlowEntry::order_key`]'s order, and
//! every flow table is kept in that order, so the sort only checks runs
//! (an SDT table is one `{metadata, dst}` group at one priority: one run).
//! A list in another priority-descending order is merely less sorted.

use crate::table::{shadowed_entries_in, subtract_witness};
use crate::{FlowEntry, FlowMatch, MatchUniverse, ShadowedEntry};

/// Field-presence mask: one bit per match field.
const F_IN_PORT: u8 = 1;
const F_METADATA: u8 = 1 << 1;
const F_SRC: u8 = 1 << 2;
const F_DST: u8 = 1 << 3;
const F_L4_SRC: u8 = 1 << 4;
const F_L4_DST: u8 = 1 << 5;

fn mask_of(m: &FlowMatch) -> u8 {
    (if m.in_port.is_some() { F_IN_PORT } else { 0 })
        | (if m.metadata.is_some() { F_METADATA } else { 0 })
        | (if m.src.is_some() { F_SRC } else { 0 })
        | (if m.dst.is_some() { F_DST } else { 0 })
        | (if m.l4_src.is_some() { F_L4_SRC } else { 0 })
        | (if m.l4_dst.is_some() { F_L4_DST } else { 0 })
}

/// The values `m` constrains, in [`FlowEntry::order_key`]'s field order —
/// in_port, metadata, dst, src, l4_src, l4_dst — with wildcards as 0.
/// Every record of one vector carries the same fields, so their keys
/// compare as the matches' order keys do.
fn key_of(m: &FlowMatch) -> Key {
    (
        m.in_port.map_or(0, |p| p.0),
        m.metadata.unwrap_or(0),
        m.dst.map_or(0, |a| a.0),
        m.src.map_or(0, |a| a.0),
        m.l4_src.unwrap_or(0),
        m.l4_dst.unwrap_or(0),
    )
}

/// `key` on the fields in `sub` alone, the others pinned to 0.
fn restrict(key: Key, sub: u8) -> Key {
    fn keep<T: Default>(sub: u8, field: u8, v: T) -> T {
        if sub & field != 0 {
            v
        } else {
            T::default()
        }
    }
    (
        keep(sub, F_IN_PORT, key.0),
        keep(sub, F_METADATA, key.1),
        keep(sub, F_DST, key.2),
        keep(sub, F_SRC, key.3),
        keep(sub, F_L4_SRC, key.4),
        keep(sub, F_L4_DST, key.5),
    )
}

type Key = (u16, u32, u32, u32, u16, u16);

/// A record: a member's key on some submask, and its position.
type Filed = (Key, u32);

/// One mask group's members projected onto one submask a query can probe
/// it at, sorted by projection, positions ascending within a run.
struct Probe {
    sub: u8,
    filed: Vec<Filed>,
}

struct MaskGroup {
    mask: u8,
    /// Position of the group's first member: a query from before it
    /// overlaps nothing here.
    first: u32,
    /// One per `mask ∩ Q`, `Q` a mask present in the table, each once;
    /// the first is `mask` itself.
    probes: Vec<Probe>,
}

/// Everything a scan of one table files.
struct Runs {
    groups: Vec<MaskGroup>,
    /// Per position, the first position holding the same match — itself
    /// unless an earlier entry does.
    first_same: Vec<u32>,
}

impl Runs {
    /// One pass over the entries files each under its own mask; the other
    /// submasks are cut from those records, not from the entries.
    fn file(entries: &[FlowEntry]) -> Runs {
        // Per mask, in order of first sight: the mask, its first position
        // and its members' records.
        let mut group_of = [u8::MAX; 64];
        let mut found: Vec<(u8, u32, Vec<Filed>)> = Vec::new();
        for (pos, e) in entries.iter().enumerate() {
            let mask = mask_of(&e.m);
            let gi = &mut group_of[usize::from(mask)];
            if *gi == u8::MAX {
                *gi = found.len() as u8;
                found.push((mask, pos as u32, Vec::new()));
            }
            found[usize::from(*gi)].2.push((key_of(&e.m), pos as u32));
        }
        let present: Vec<u8> = found.iter().map(|&(mask, ..)| mask).collect();
        // Stable, and every vector starts in position order: a run's
        // positions ascend.
        let by_key = |a: &Filed, b: &Filed| a.0.cmp(&b.0);
        let mut first_same: Vec<u32> = (0..entries.len() as u32).collect();
        let groups = found
            .into_iter()
            .map(|(mask, first, mut own)| {
                let mut subs: Vec<u8> = present.iter().map(|q| mask & q).collect();
                subs.sort_unstable();
                subs.dedup();
                let cut: Vec<Probe> = (subs.into_iter().filter(|&sub| sub != mask))
                    .map(|sub| {
                        let mut filed: Vec<_> =
                            own.iter().map(|&(key, pos)| (restrict(key, sub), pos)).collect();
                        filed.sort_by(by_key);
                        Probe { sub, filed }
                    })
                    .collect();
                // Strictly ascending — one priority level in key order, no
                // match twice — is every run of one.
                if !own.is_sorted_by(|a, b| a.0 < b.0) {
                    own.sort_by(by_key);
                    for run in own.chunk_by(|a, b| a.0 == b.0).filter(|r| r.len() > 1) {
                        run.iter().for_each(|&(_, pos)| first_same[pos as usize] = run[0].1);
                    }
                }
                let probes = std::iter::once(Probe { sub: mask, filed: own }).chain(cut).collect();
                MaskGroup { mask, first, probes }
            })
            .collect();
        Runs { groups, first_same }
    }
}

/// Indexed equivalent of [`crate::shadowed_entries_in`] — same findings,
/// same order, same `covered_by` lists — plus the equal-priority
/// nondeterminism pairs the verifier reports, from one sweep.
///
/// `entries` must be in descending priority, as a flow table keeps them
/// (key order within a level; any order within a level is scanned the
/// same way), exactly as the linear reference requires. Returns the
/// shadowed entries and the nondet pairs as
/// `(earlier position, later position)` sorted ascending — the order the
/// nested reference loops produce.
pub fn table_warnings_indexed(
    entries: &[FlowEntry],
    universe: &MatchUniverse,
) -> (Vec<ShadowedEntry>, Vec<(u32, u32)>) {
    let runs = Runs::file(entries);
    let mut shadowed = Vec::new();
    let mut nondet: Vec<(u32, u32)> = Vec::new();
    // Earlier entries of other groups overlapping the current one,
    // ascending per group. Its own group adds none: an earlier entry there
    // has the same match, so it covers the current one and the union
    // search below never runs.
    let mut overlaps: Vec<u32> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let pos = i as u32;
        let mut cover = Some(runs.first_same[i]).filter(|&c| c < pos);
        overlaps.clear();
        // In a table of one mask there is no other group to ask.
        let mask = match runs.groups.as_slice() {
            [only] => only.mask,
            _ => mask_of(&e.m),
        };
        for group in runs.groups.iter().filter(|g| g.mask != mask && g.first < pos) {
            let sub = group.mask & mask;
            let Some(probe) = group.probes.iter().find(|p| p.sub == sub) else {
                unreachable!("every group is filed at its meet with every mask present");
            };
            let key = restrict(key_of(&e.m), sub);
            let run = &probe.filed[probe.filed.partition_point(|r| r.0 < key)..];
            let from = overlaps.len();
            overlaps.extend(run.iter().take_while(|r| r.0 == key && r.1 < pos).map(|r| r.1));
            if sub == group.mask {
                // Each member of the run covers `e`; the first is earliest.
                if let Some(&c) = overlaps.get(from) {
                    cover = Some(cover.map_or(c, |known| known.min(c)));
                }
            }
        }
        if cover.is_none() && overlaps.is_empty() {
            continue; // nothing earlier overlaps `e`
        }
        // Another group's match is never `e`'s own.
        let tied = overlaps.iter().filter(|&&p| entries[p as usize].priority == e.priority);
        nondet.extend(tied.map(|&p| (p, pos)));
        if let Some(c) = cover {
            shadowed.push(ShadowedEntry { entry: *e, covered_by: vec![entries[c as usize]] });
        } else if overlaps.len() >= 2 {
            overlaps.sort_unstable();
            let cover_matches: Vec<FlowMatch> =
                overlaps.iter().map(|&p| entries[p as usize].m).collect();
            if subtract_witness(&e.m, &cover_matches, universe).is_none() {
                shadowed.push(ShadowedEntry {
                    entry: *e,
                    covered_by: overlaps.iter().map(|&p| entries[p as usize]).collect(),
                });
            }
        }
    }
    nondet.sort_unstable();
    (shadowed, nondet)
}

/// The linear reference of [`table_warnings_indexed`], kept as its oracle
/// (the verifier's plain path runs it): the union-shadow search against
/// every earlier entry, and nested loops over each equal-priority run —
/// O(n²), same findings, same order.
pub fn table_warnings_linear(
    entries: &[FlowEntry],
    universe: &MatchUniverse,
) -> (Vec<ShadowedEntry>, Vec<(u32, u32)>) {
    let mut nondet = Vec::new();
    for (i, a) in entries.iter().enumerate() {
        for (j, b) in entries
            .iter()
            .enumerate()
            .skip(i + 1)
            .take_while(|(_, b)| b.priority == a.priority)
        {
            if a.m != b.m && a.m.overlaps(&b.m) {
                nondet.push((i as u32, j as u32));
            }
        }
    }
    (shadowed_entries_in(entries, universe), nondet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, EntryStore, FlowMod, HostAddr, PortNo};

    fn entry(m: FlowMatch, priority: u16) -> FlowEntry {
        FlowEntry { m, priority, action: Action::Drop }
    }

    fn assert_agrees(entries: &[FlowEntry], universe: &MatchUniverse, label: &str) {
        let (shadowed, nondet) = table_warnings_indexed(entries, universe);
        let (want_shadowed, want_nondet) = table_warnings_linear(entries, universe);
        assert_eq!(shadowed, want_shadowed, "{label}: shadowed findings diverge");
        assert_eq!(nondet, want_nondet, "{label}: nondet pairs diverge");
    }

    #[test]
    fn covers_and_unions_match_linear_reference() {
        let per_port = |p: u16, prio: u16| entry(FlowMatch::on_port(PortNo(p)), prio);
        let cases: Vec<Vec<FlowEntry>> = vec![
            // Catch-all shadows a specific entry.
            vec![entry(FlowMatch::any(), 10), entry(FlowMatch::to_dst(HostAddr(5)), 5)],
            // Union shadowing over a bounded port universe.
            vec![per_port(0, 10), per_port(1, 10), entry(FlowMatch::any(), 5)],
            // Equal-priority overlapping pairs in several shapes.
            vec![
                entry(FlowMatch::to_dst(HostAddr(7)), 5),
                entry(FlowMatch::on_port(PortNo(1)), 5),
                entry(FlowMatch::to_dst(HostAddr(7)).and_port(PortNo(1)), 5),
                entry(FlowMatch::to_dst(HostAddr(8)), 5),
            ],
            // Duplicate matches (not nondet — identical match spaces).
            vec![entry(FlowMatch::on_port(PortNo(2)), 5), entry(FlowMatch::on_port(PortNo(2)), 5)],
            // Nothing at all.
            Vec::new(),
        ];
        let bounded = MatchUniverse::for_switch(2, []);
        for (i, entries) in cases.iter().enumerate() {
            assert_agrees(entries, &MatchUniverse::unbounded(), &format!("case {i} unbounded"));
            assert_agrees(entries, &bounded, &format!("case {i} bounded"));
        }
        assert_eq!(table_warnings_indexed(&[], &bounded), (Vec::new(), Vec::new()));
    }

    /// A match from one xorshift draw: each of the six fields constrained
    /// when its bit of `fields` is set and a coin says so, over tiny value
    /// domains so matches collide constantly.
    fn random_match(r: u64, fields: u64) -> FlowMatch {
        let r = r & (fields | !63);
        FlowMatch {
            in_port: (r & 1 != 0).then_some(PortNo((r >> 8) as u16 % 4)),
            metadata: (r & 2 != 0).then_some((r >> 16) as u32 % 3),
            src: (r & 4 != 0).then_some(HostAddr((r >> 24) as u32 % 3)),
            dst: (r & 8 != 0).then_some(HostAddr((r >> 32) as u32 % 3)),
            l4_src: (r & 16 != 0).then_some((r >> 40) as u16 % 2),
            l4_dst: (r & 32 != 0).then_some((r >> 48) as u16 % 2),
        }
    }

    /// `n` random entries at four priorities, in flow-table order.
    fn random_table(next: &mut impl FnMut() -> u64, n: usize, fields: u64) -> Vec<FlowEntry> {
        let mut entries: Vec<FlowEntry> = (0..n)
            .map(|_| {
                let r = next();
                let priority = ((r >> 56) % 4) as u16;
                FlowEntry { m: random_match(r, fields), priority, action: Action::Drop }
            })
            .collect();
        // Flow-table order: stable sort by descending priority.
        entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
        entries
    }

    /// Deterministic xorshift so failures reproduce.
    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn randomized_tables_match_linear_reference() {
        let mut next = xorshift(0x5d7_2026_0809);
        let universe = MatchUniverse::for_switch(4, 0..3);
        // Small tables over every subset of the fields a table may use, so
        // the masks present — and with them the submasks filed — vary from
        // one mask to all sixty-four; then tables of several hundred
        // entries, where every run holds many positions.
        let sizes = (0..64).map(|fields| (2 + fields as usize % 24, fields)).chain([
            (300, 63),
            (500, 0b001011),
            (400, 0b111100),
        ]);
        for (round, (n, fields)) in sizes.enumerate() {
            let entries = random_table(&mut next, n, fields);
            assert_agrees(&entries, &universe, &format!("round {round}, fields {fields:#b}"));
            assert_agrees(&entries, &MatchUniverse::unbounded(), &format!("round {round} unb"));
        }
    }

    /// What a delta left when tables kept install order: a table
    /// installed in key order, a third of its entries deleted, then as many
    /// new ones added — each behind every entry of its priority level, so
    /// levels are no longer key-ordered. A table keeps key order now
    /// (`EntryStore::apply`, which this list is held to as a set), but the
    /// scan takes any priority-descending list, as its reference does.
    #[test]
    fn tables_a_delta_left_out_of_key_order_match_linear_reference() {
        let mut next = xorshift(0xde17a);
        let universe = MatchUniverse::for_switch(4, 0..3);
        let mut unordered = 0;
        for (round, (n, fields)) in [(40, 63), (120, 0b001011), (200, 0b001010), (300, 0b111111)]
            .into_iter()
            .enumerate()
        {
            let mut sorted = random_table(&mut next, n, fields);
            sorted.sort_by_key(FlowEntry::order_key);
            sorted.dedup_by_key(|e| (e.m, e.priority));
            let mut store = EntryStore::from_ordered(sorted.clone());
            let mut entries = sorted.clone();
            for e in sorted.iter().step_by(3) {
                store.apply(&FlowMod::Delete(e.m, e.priority));
                entries.retain(|x| (x.m, x.priority) != (e.m, e.priority));
            }
            for e in random_table(&mut next, n / 3, fields) {
                store.apply(&FlowMod::Add(e));
                // An Add of a key the table holds replaces its entry.
                entries.retain(|x| (x.m, x.priority) != (e.m, e.priority));
                let behind = entries.iter().rposition(|x| x.priority >= e.priority);
                entries.insert(behind.map_or(0, |p| p + 1), e);
            }
            let mut keyed = entries.clone();
            keyed.sort_by_key(FlowEntry::order_key);
            assert_eq!(store.entries(), keyed, "round {round}");
            unordered += usize::from(!entries.is_sorted_by_key(FlowEntry::order_key));
            assert_agrees(&entries, &universe, &format!("round {round}"));
            assert_agrees(&entries, &MatchUniverse::unbounded(), &format!("round {round} unb"));
            assert_agrees(store.entries(), &universe, &format!("round {round} keyed"));
        }
        assert_eq!(unordered, 4, "every edited list is out of key order");
    }

    /// The same match at several priority levels: each later copy is
    /// covered by the first, and equal-priority copies are not
    /// order-dependent.
    #[test]
    fn duplicate_matches_across_priorities_match_linear_reference() {
        let mut next = xorshift(0xd00b1e);
        let universe = MatchUniverse::for_switch(4, 0..3);
        for (round, fields) in [0b001010u64, 0b001011, 63].into_iter().enumerate() {
            let mut entries = random_table(&mut next, 60, fields);
            let copies: Vec<FlowEntry> = entries
                .iter()
                .step_by(2)
                .map(|e| FlowEntry { priority: (e.priority + 1 + (next() % 3) as u16) % 4, ..*e })
                .collect();
            entries.extend(copies);
            entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
            assert_agrees(&entries, &universe, &format!("round {round}"));
            assert_agrees(&entries, &MatchUniverse::unbounded(), &format!("round {round} unb"));
        }
    }

    /// Merged synthesis's table 1: per sub-switch a `{metadata}` default
    /// behind its `{metadata, dst}` exceptions and `{metadata, src, dst}`
    /// overrides, in key order — every default queries the routes group,
    /// every route the overrides group. Some defaults sit at the routes'
    /// priority, ahead of them in key order: they cover those routes from
    /// another group, and the pairs are order-dependent.
    #[test]
    fn merged_synthesis_tables_match_linear_reference() {
        let mut next = xorshift(0x3e96ed);
        let (mut covered, mut pairs) = (0, 0);
        for round in 0..6u32 {
            let subs = 2 + round % 4;
            let mut entries = Vec::new();
            for md in 0..subs {
                let at = |m: FlowMatch| m.and_metadata(md);
                let default_prio = if next() % 3 == 0 { 10 } else { 5 };
                entries.push(entry(at(FlowMatch::any()), default_prio));
                for dst in (0..12).map(HostAddr) {
                    if next() % 4 == 0 {
                        continue;
                    }
                    entries.push(entry(at(FlowMatch::to_dst(dst)), 10));
                    if next() % 5 == 0 {
                        let src = Some(HostAddr((next() % 12) as u32));
                        entries.push(entry(FlowMatch { src, ..at(FlowMatch::to_dst(dst)) }, 20));
                    }
                }
            }
            entries.sort_by_key(FlowEntry::order_key);
            let universe = MatchUniverse::for_switch(8, 0..subs);
            assert_agrees(&entries, &universe, &format!("round {round}"));
            assert_agrees(&entries, &MatchUniverse::unbounded(), &format!("round {round} unb"));
            let (shadowed, nondet) = table_warnings_indexed(&entries, &universe);
            covered += shadowed.len();
            pairs += nondet.len();
        }
        assert!(covered > 0 && pairs > 0, "{covered} shadowed, {pairs} order-dependent pairs");
    }

    #[test]
    fn records_filed_are_bounded_by_entries_times_masks_present() {
        let filed = |entries: &[FlowEntry]| {
            let runs = Runs::file(entries);
            let records = runs.groups.iter().flat_map(|g| &g.probes).map(|p| p.filed.len()).sum();
            (records, runs.groups.len())
        };
        // A table of routes: one mask, one record an entry — under every
        // submask it was four.
        let routes: Vec<FlowEntry> = (0..40)
            .map(|i| entry(FlowMatch::to_dst(HostAddr(i)).and_metadata(i % 5), 10))
            .collect();
        assert_eq!(filed(&routes), (40, 1));
        // With a catch-all behind them the routes are also filed under the
        // empty submask, where it queries them.
        let mut with_default = routes.clone();
        with_default.push(entry(FlowMatch::any(), 1));
        assert_eq!(filed(&with_default), (81, 2));
        assert_eq!(filed(&[]), (0, 0));
        // All six fields in play: never more than entries × masks present,
        // where every submask made it entries × 64.
        let mut next = xorshift(0x21);
        for fields in [63, 0b101010, 0b000111] {
            let entries = random_table(&mut next, 200, fields);
            let (records, masks) = filed(&entries);
            assert!(records <= entries.len() * masks, "{records} records, {masks} masks");
        }
    }
}
