//! Indexed overlap/cover queries over priority-ordered entry lists — the
//! engine behind the verifier's fast dead-rule and nondeterminism scan.
//!
//! The naive scan asks, for every entry, "which *earlier* entries overlap
//! it, and does one cover it?" — O(n) per entry, O(n²) per table, and at
//! fat-tree k=16 scale (~8k entries per switch) that quadratic scan *is*
//! the verification wall. This module answers the same query in
//! O(distinct match shapes) per entry.
//!
//! The trick rides the equality-or-wildcard match algebra. Group entries by
//! their **mask** — the subset of fields they constrain. Two matches `x`
//! (mask `M`) and `e` (mask `E`) overlap iff they agree on every field of
//! `M ∩ E`; `x` covers `e` iff additionally `M ⊆ E`. So per group, bucket
//! entries under submask projections of their constrained values; a query
//! probes exactly one bucket per group — key `(M ∩ E, e`'s values on
//! `M ∩ E)` — and every bucket member overlaps, with covering exactly when
//! `M ∩ E = M`. Each entry lands in one bucket per query, so results need
//! no dedup, and positions come back in install order. Every query is an
//! entry of the table being scanned, so a group is only ever probed at its
//! intersections with the masks present there, and an entry is filed under
//! those alone: one key for a `{metadata, dst}` route in a table of routes,
//! not the four its submasks would make.
//!
//! SDT tables hold a handful of distinct masks (`{in_port}` classify rows,
//! `{metadata, dst}` routing rows, a catch-all), so queries are effectively
//! O(1); the degenerate worst case (every entry overlapping every other)
//! returns output-sized results, which is what the caller must walk anyway.

use crate::table::{shadowed_entries_in, subtract_witness};
use crate::{FlowEntry, FlowMatch, MatchUniverse, ShadowedEntry};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-xor hasher: the keys below are already
/// well-mixed fixed-width packs, and bucket probes are the inner loop of
/// the warnings scan, so the default SipHash costs more than the probe.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write_u64(u64::from(b));
    }

    fn write_u16(&mut self, w: u16) {
        self.write_u64(u64::from(w));
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u128(&mut self, w: u128) {
        self.write_u64(w as u64);
        self.write_u64((w >> 64) as u64);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`std::hash::BuildHasher`] of [`FxHasher`], for maps keyed by entries
/// and matches the controller synthesized itself.
pub type FxBuild = BuildHasherDefault<FxHasher>;

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

/// The values of `m` on the fields in `sub`, one exact lane per field
/// (fields outside `sub` pinned to 0 — the submask in the bucket key keeps
/// "absent" and "constrained to 0" apart).
fn project(m: &FlowMatch, sub: u8) -> Projected {
    (
        if sub & F_IN_PORT != 0 { m.in_port.map_or(0, |p| p.0) } else { 0 },
        if sub & F_METADATA != 0 { m.metadata.unwrap_or(0) } else { 0 },
        if sub & F_SRC != 0 { m.src.map_or(0, |a| a.0) } else { 0 },
        if sub & F_DST != 0 { m.dst.map_or(0, |a| a.0) } else { 0 },
        if sub & F_L4_SRC != 0 { m.l4_src.unwrap_or(0) } else { 0 },
        if sub & F_L4_DST != 0 { m.l4_dst.unwrap_or(0) } else { 0 },
    )
}

type Projected = (u16, u32, u32, u32, u16, u16);

/// Bucket key: submask + projected values. The submask is explicit, so two
/// different submasks never share a bucket even when their projections
/// agree numerically.
type Key = (u8, Projected);

/// The positions filed under one key, ascending. SDT tables key almost
/// every entry differently, so a bucket of one is held inline.
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn push(&mut self, pos: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, pos]),
            Bucket::Many(v) => v.push(pos),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(pos) => std::slice::from_ref(pos),
            Bucket::Many(v) => v,
        }
    }
}

struct MaskGroup {
    mask: u8,
    /// `mask ∩ Q` for every mask `Q` present in the table, each once: the
    /// submasks a query can probe this group at.
    probed: Vec<u8>,
    buckets: HashMap<Key, Bucket, FxBuild>,
}

/// Incremental index over a prefix of a priority-ordered entry list,
/// answering "which already-inserted entries overlap / cover this match".
pub struct OverlapIndex {
    groups: Vec<MaskGroup>,
    by_mask: [Option<u8>; 64],
}

/// Result of one [`OverlapIndex::query`]: positions of inserted entries
/// overlapping the probe (ascending order not guaranteed — sort if order
/// matters), and the smallest position among those that fully cover it.
pub struct OverlapHit {
    /// Positions of every inserted entry whose match overlaps the probe.
    pub overlaps: Vec<u32>,
    /// Lowest position whose match covers the probe outright, if any.
    pub first_cover: Option<u32>,
}

impl OverlapIndex {
    /// An empty index for scanning `entries`: every match inserted or
    /// queried later must constrain the same fields as one of them.
    pub fn new(entries: &[FlowEntry]) -> Self {
        let mut count = [0usize; 64];
        for e in entries {
            count[usize::from(mask_of(&e.m))] += 1;
        }
        let masks: Vec<u8> = (0..64).filter(|&m| count[usize::from(m)] > 0).collect();
        let mut by_mask = [None; 64];
        let groups = masks
            .iter()
            .enumerate()
            .map(|(gi, &mask)| {
                by_mask[usize::from(mask)] = Some(gi as u8);
                let mut probed: Vec<u8> = masks.iter().map(|q| mask & q).collect();
                probed.sort_unstable();
                probed.dedup();
                let buckets =
                    HashMap::with_capacity_and_hasher(count[usize::from(mask)], FxBuild::default());
                MaskGroup { mask, probed, buckets }
            })
            .collect();
        OverlapIndex { groups, by_mask }
    }

    /// Insert the match of the entry at `pos`. Positions must be inserted
    /// in ascending order for bucket vectors to stay sorted.
    pub fn insert(&mut self, pos: u32, m: &FlowMatch) {
        let Some(gi) = self.by_mask[usize::from(mask_of(m))] else {
            panic!("{m:?} constrains fields no entry given to `OverlapIndex::new` does");
        };
        let group = &mut self.groups[usize::from(gi)];
        for &sub in &group.probed {
            match group.buckets.entry((sub, project(m, sub))) {
                Entry::Vacant(v) => {
                    v.insert(Bucket::One(pos));
                }
                Entry::Occupied(mut o) => o.get_mut().push(pos),
            }
        }
    }

    /// All inserted entries overlapping `m`, plus the first that covers it.
    pub fn query(&self, m: &FlowMatch) -> OverlapHit {
        let qmask = mask_of(m);
        let mut overlaps = Vec::new();
        let mut first_cover: Option<u32> = None;
        for group in &self.groups {
            let common = group.mask & qmask;
            let Some(bucket) = group.buckets.get(&(common, project(m, common))) else {
                continue;
            };
            let bucket = bucket.as_slice();
            overlaps.extend_from_slice(bucket);
            if common == group.mask {
                // Every bucket member's full constraint set agrees with
                // `m`, i.e. each covers it; the first is the earliest.
                if first_cover.is_none_or(|c| bucket[0] < c) {
                    first_cover = Some(bucket[0]);
                }
            }
        }
        OverlapHit { overlaps, first_cover }
    }
}

/// Indexed equivalent of [`crate::shadowed_entries_in`] — same findings,
/// same order, same `covered_by` lists — plus the equal-priority
/// nondeterminism pairs the verifier reports, from one sweep.
///
/// `entries` must be in flow-table order (descending priority, stable
/// insertion order within a level), exactly as the linear reference
/// requires. Returns the shadowed entries and the nondet pairs as
/// `(earlier position, later position)` sorted ascending — the order the
/// nested reference loops produce.
pub fn table_warnings_indexed(
    entries: &[FlowEntry],
    universe: &MatchUniverse,
) -> (Vec<ShadowedEntry>, Vec<(u32, u32)>) {
    let mut idx = OverlapIndex::new(entries);
    let mut shadowed = Vec::new();
    let mut nondet: Vec<(u32, u32)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let pos = i as u32;
        let mut hit = idx.query(&e.m);
        for &p in &hit.overlaps {
            let x = &entries[p as usize];
            if x.priority == e.priority && x.m != e.m {
                nondet.push((p, pos));
            }
        }
        if let Some(c) = hit.first_cover {
            shadowed.push(ShadowedEntry {
                entry: *e,
                covered_by: vec![entries[c as usize]],
            });
        } else if hit.overlaps.len() >= 2 {
            hit.overlaps.sort_unstable();
            let cover_matches: Vec<FlowMatch> =
                hit.overlaps.iter().map(|&p| entries[p as usize].m).collect();
            if subtract_witness(&e.m, &cover_matches, universe).is_none() {
                shadowed.push(ShadowedEntry {
                    entry: *e,
                    covered_by: hit.overlaps.iter().map(|&p| entries[p as usize]).collect(),
                });
            }
        }
        idx.insert(pos, &e.m);
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
    use crate::{Action, HostAddr, PortNo};

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
        ];
        let bounded = MatchUniverse::for_switch(2, []);
        for (i, entries) in cases.iter().enumerate() {
            assert_agrees(entries, &MatchUniverse::unbounded(), &format!("case {i} unbounded"));
            assert_agrees(entries, &bounded, &format!("case {i} bounded"));
        }
    }

    /// `n` entries in flow-table order from one xorshift stream: each of the
    /// six fields constrained when its bit of `fields` is set and a coin
    /// says so, over tiny value domains so entries collide constantly.
    fn random_table(next: &mut impl FnMut() -> u64, n: usize, fields: u64) -> Vec<FlowEntry> {
        let mut entries: Vec<FlowEntry> = (0..n)
            .map(|_| {
                let r = next() & (fields | !63);
                let m = FlowMatch {
                    in_port: (r & 1 != 0).then_some(PortNo((r >> 8) as u16 % 4)),
                    metadata: (r & 2 != 0).then_some((r >> 16) as u32 % 3),
                    src: (r & 4 != 0).then_some(HostAddr((r >> 24) as u32 % 3)),
                    dst: (r & 8 != 0).then_some(HostAddr((r >> 32) as u32 % 3)),
                    l4_src: (r & 16 != 0).then_some((r >> 40) as u16 % 2),
                    l4_dst: (r & 32 != 0).then_some((r >> 48) as u16 % 2),
                };
                FlowEntry { m, priority: ((r >> 56) % 4) as u16, action: Action::Drop }
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
        // entries, where every bucket holds many positions.
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

    #[test]
    fn an_entry_is_filed_once_per_mask_present() {
        let keys = |entries: &[FlowEntry]| {
            let mut idx = OverlapIndex::new(entries);
            for (pos, e) in entries.iter().enumerate() {
                idx.insert(pos as u32, &e.m);
            }
            let masks: std::collections::BTreeSet<u8> =
                entries.iter().map(|e| mask_of(&e.m)).collect();
            (idx.groups.iter().map(|g| g.buckets.len()).sum::<usize>(), masks.len())
        };
        // A table of routes: one mask, one key an entry — under every
        // submask it was four.
        let routes: Vec<FlowEntry> = (0..40)
            .map(|i| entry(FlowMatch::to_dst(HostAddr(i)).and_metadata(i % 5), 10))
            .collect();
        assert_eq!(keys(&routes), (40, 1));
        // With a catch-all behind them the routes are also reachable through
        // the empty submask: one more key for all of them, one for itself.
        let mut with_default = routes.clone();
        with_default.push(entry(FlowMatch::any(), 1));
        assert_eq!(keys(&with_default), (42, 2));
        // All six fields in play: never more than entries × masks present,
        // where every submask made it entries × 64.
        let mut next = xorshift(0x21);
        for fields in [63, 0b101010, 0b000111] {
            let entries = random_table(&mut next, 200, fields);
            let (filed, masks) = keys(&entries);
            assert!(filed <= entries.len() * masks, "{filed} keys, {masks} masks");
        }
    }
}
