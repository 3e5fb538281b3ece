//! The ordered entry store: a flow table's entries, their order, and the
//! tuple-space index over them — one type, one `apply`, one lookup.
//!
//! Entries are kept in `(priority descending, install sequence ascending)`
//! order, the order a front-to-back scan resolves first-match-wins in.
//! [`EntryStore::apply`] is the only code that decides what an Add, a
//! Delete or a Clear does to that order.
//!
//! The index is built by whoever first looks something up
//! ([`EntryStore::first_match_where`], which [`EntryStore::lookup`] goes
//! through): one pass over the entries, behind a [`OnceLock`] so any number
//! of threads may share a store and probe it first at once. A store that is
//! only ever installed, walked through [`EntryStore::entries`], diffed and
//! dropped — a planned view handed to the round compiler, table 1 of a
//! proof, a switch nobody sends a packet to — never hashes an entry. Once
//! the index exists, `apply` patches it in the same step as the entries, a
//! clone copies it, and only a Clear drops it (the next probe of the then
//! empty store builds an empty one).
//!
//! The index: SDT rules key on three fields with exact values — `in_port`
//! (domain restriction), `metadata` (sub-switch id) and `dst` (routing);
//! the other match fields are almost always wildcards. Entries are
//! therefore bucketed by *which* of those three fields they constrain — a
//! 3-bit tier id — and within a tier by the constrained values, hashed
//! exactly. A lookup probes at most `TIER_COUNT` buckets (one hash each)
//! instead of scanning every entry, and merges the per-tier winners by
//! (priority, install order), so the result is bit-for-bit the
//! first-match-wins answer of the linear scan.
//!
//! Every holder of flow entries is built on this type: the live
//! [`crate::FlowTable`] (store + capacity + lookup/miss counters) and
//! `sdt-verify`'s `TableView` (the prover's and the scheduler's unbounded,
//! copy-on-write copies). The store has no counters, so code that holds
//! only a store cannot move one.

use crate::{FlowEntry, FlowMatch, FlowMod, HostAddr, PacketMeta, PortNo};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// FxHash-style multiply-xor hasher: the keys below are already
/// well-mixed fixed-width packs, and bucket probes are the inner loop of
/// a lookup, so the default SipHash costs more than the probe.
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

/// Tier-id bit: the entry constrains `in_port`.
const TIER_IN_PORT: usize = 1;
/// Tier-id bit: the entry constrains `metadata`.
const TIER_METADATA: usize = 1 << 1;
/// Tier-id bit: the entry constrains `dst`.
const TIER_DST: usize = 1 << 2;
/// Number of tiers: one per subset of the indexed fields. Tier 0 is the
/// wildcard tier (entries constraining none of the indexed fields).
const TIER_COUNT: usize = 8;

/// Exact-value bucket key within a tier: the constrained values of
/// (`in_port`, `metadata`, `dst`), with unconstrained fields pinned to 0 so
/// they never split buckets.
type TierKey = (u16, u32, u32);

/// Where an entry lives: its tier — the subset of indexed fields it
/// constrains — and its bucket key within that tier.
fn slot_of(m: &FlowMatch) -> (usize, TierKey) {
    let tier = (if m.in_port.is_some() { TIER_IN_PORT } else { 0 })
        | (if m.metadata.is_some() { TIER_METADATA } else { 0 })
        | (if m.dst.is_some() { TIER_DST } else { 0 });
    (tier, (m.in_port.map_or(0, |p| p.0), m.metadata.unwrap_or(0), m.dst.map_or(0, |d| d.0)))
}

/// An index candidate: an entry and its install sequence number.
type Installed = (u64, FlowEntry);

/// Where a candidate stands in scan order; ascends exactly as position in
/// the entry vector does. Unlike a position it is fixed when the candidate
/// is indexed, so an Add or a Delete elsewhere in the table never renumbers
/// a candidate.
fn rank(&(seq, e): &Installed) -> (Reverse<u16>, u64) {
    (Reverse(e.priority), seq)
}

/// The candidates of one bucket, ascending rank. SDT pipelines key every
/// entry of a table differently, so the bucket of one is held inline: no
/// allocation to build it, no pointer to chase to probe it.
#[derive(Clone, Debug)]
enum Bucket {
    One(Installed),
    Many(Vec<Installed>),
}

impl Bucket {
    fn insert(&mut self, at: Installed) {
        let mut v = match std::mem::replace(self, Bucket::Many(Vec::new())) {
            Bucket::One(first) => vec![first],
            Bucket::Many(v) => v,
        };
        v.insert(v.partition_point(|x| rank(x) < rank(&at)), at);
        *self = Bucket::Many(v);
    }

    /// Drop the candidates `doomed` names; true when none are left.
    fn remove(&mut self, doomed: impl Fn(&FlowEntry) -> bool) -> bool {
        match self {
            Bucket::One((_, e)) => doomed(e),
            Bucket::Many(v) => {
                v.retain(|(_, e)| !doomed(e));
                v.is_empty()
            }
        }
    }

    fn as_slice(&self) -> &[Installed] {
        match self {
            Bucket::One(e) => std::slice::from_ref(e),
            Bucket::Many(v) => v,
        }
    }
}

/// One exact-match map per tier.
#[derive(Clone, Debug, Default)]
struct Tiers([HashMap<TierKey, Bucket, FxBuild>; TIER_COUNT]);

impl Tiers {
    /// Index the entries of a store nobody has probed yet, each under its
    /// position as install sequence number: positions ascend exactly as
    /// scan order does, and every later Add draws a `next_seq` of at least
    /// `entries.len()` (one Add per entry ever installed since the last
    /// Clear), so it ranks behind every equal-priority entry indexed here.
    fn of(entries: &[FlowEntry]) -> Self {
        let mut tiers = Tiers::default();
        for (at, e) in entries.iter().enumerate() {
            tiers.insert((at as u64, *e));
        }
        tiers
    }

    fn insert(&mut self, at: Installed) {
        let (tier, key) = slot_of(&at.1.m);
        match self.0[tier].entry(key) {
            Entry::Vacant(v) => {
                v.insert(Bucket::One(at));
            }
            Entry::Occupied(mut o) => o.get_mut().insert(at),
        }
    }

    /// Drop every candidate with exactly this (match, priority).
    fn remove(&mut self, fm: &FlowMatch, priority: u16) {
        let (tier, key) = slot_of(fm);
        if let Entry::Occupied(mut o) = self.0[tier].entry(key) {
            if o.get_mut().remove(|e| e.m == *fm && e.priority == priority) {
                o.remove();
            }
        }
    }
}

/// Flow entries in first-match order with their tier index, mutable only
/// through [`EntryStore::apply`]. Unbounded and counter-free: capacity and
/// the lookup/miss tallies belong to [`crate::FlowTable`], which wraps one.
#[derive(Clone, Debug, Default)]
pub struct EntryStore {
    /// Entries sorted by descending priority (stable insertion order within
    /// a priority level — first match wins, as in OpenFlow).
    entries: Vec<FlowEntry>,
    /// Monotonic install counter; within one priority level, lower seq ==
    /// installed earlier == wins first (the OpenFlow first-match rule).
    next_seq: u64,
    /// Tier index over `entries`: unset until the first probe, from then
    /// on patched in lock-step by `apply`.
    tiers: OnceLock<Tiers>,
}

impl EntryStore {
    /// Installed entries, highest priority first.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Apply a flow-mod: Add inserts after every entry of greater *or
    /// equal* priority, Delete removes every entry with exactly this
    /// (match, priority), Clear removes everything. A tier index that has
    /// been built is patched in the same step — one bucket insert for Add,
    /// one bucket drain for Delete; Clear drops it.
    pub fn apply(&mut self, m: &FlowMod) {
        match m {
            FlowMod::Add(e) => {
                let at = (self.next_seq, *e);
                self.next_seq += 1;
                // Found from the back: no more steps than the insert below
                // shifts entries, and none for a table installed in order.
                let behind = |x: &FlowEntry| x.priority >= e.priority;
                let pos = self.entries.iter().rposition(behind).map_or(0, |p| p + 1);
                self.entries.insert(pos, *e);
                if let Some(tiers) = self.tiers.get_mut() {
                    tiers.insert(at);
                }
            }
            FlowMod::Clear => {
                self.entries.clear();
                self.next_seq = 0;
                self.tiers.take();
            }
            FlowMod::Delete(fm, priority) => {
                self.entries.retain(|e| !(e.m == *fm && e.priority == *priority));
                if let Some(tiers) = self.tiers.get_mut() {
                    tiers.remove(fm, *priority);
                }
            }
        }
    }

    /// Install `entries` as Adds, in order, reserving room for them once.
    pub fn install(&mut self, entries: &[FlowEntry]) {
        self.entries.reserve(entries.len());
        for &e in entries {
            self.apply(&FlowMod::Add(e));
        }
    }

    /// The entry a packet fires: the first, in scan order, whose match fits
    /// `meta` under pipeline `metadata`.
    pub fn lookup(&self, meta: &PacketMeta, metadata: Option<u32>) -> Option<&FlowEntry> {
        self.first_match_where(meta.in_port, metadata, Some(meta.dst), |e| {
            e.m.matches(meta, metadata)
        })
    }

    /// The first entry — in linear-scan order — that satisfies `pred`,
    /// among entries whose indexed constraints are consistent with
    /// (`in_port`, `metadata`, `dst`).
    ///
    /// Contract on `pred` (what makes tier pruning sound): for any entry
    /// `e` constraining an indexed field, `pred(e)` must imply the
    /// constraint equals the corresponding query argument — and must be
    /// false whenever the query leaves that field undefined (`None`
    /// `metadata`/`dst`). The concrete [`crate::FlowMatch::matches`] and
    /// the verifier's symbolic entry-vs-class test both satisfy this.
    pub fn first_match_where<F>(
        &self,
        in_port: PortNo,
        metadata: Option<u32>,
        dst: Option<HostAddr>,
        mut pred: F,
    ) -> Option<&FlowEntry>
    where
        F: FnMut(&FlowEntry) -> bool,
    {
        let tiers = self.tiers.get_or_init(|| Tiers::of(&self.entries));
        let mut best: Option<&Installed> = None;
        for (tier, map) in tiers.0.iter().enumerate() {
            if map.is_empty()
                || (tier & TIER_METADATA != 0 && metadata.is_none())
                || (tier & TIER_DST != 0 && dst.is_none())
            {
                continue;
            }
            // The bucket this query probes: its values on the tier's fields
            // (all defined — the tiers that need an undefined one were
            // skipped above), 0 elsewhere.
            let key = (
                if tier & TIER_IN_PORT != 0 { in_port.0 } else { 0 },
                if tier & TIER_METADATA != 0 { metadata.unwrap_or(0) } else { 0 },
                if tier & TIER_DST != 0 { dst.map_or(0, |d| d.0) } else { 0 },
            );
            let Some(bucket) = map.get(&key) else { continue };
            for c in bucket.as_slice() {
                if best.is_some_and(|b| rank(c) >= rank(b)) {
                    break; // ranks ascend — this tier cannot improve
                }
                if pred(&c.1) {
                    best = Some(c);
                    break;
                }
            }
        }
        best.map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;

    fn pkt(in_port: u16, src: u32, dst: u32) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(in_port),
            src: HostAddr(src),
            dst: HostAddr(dst),
            l4_src: 1000,
            l4_dst: 2000,
        }
    }

    fn store_of(adds: &[FlowEntry]) -> EntryStore {
        let mut s = EntryStore::default();
        s.install(adds);
        s
    }

    /// Exhaustive differential: every probe over a mixed-tier table agrees
    /// with the linear scan.
    #[test]
    fn agrees_with_linear_scan_across_tiers() {
        let s = store_of(&[
            FlowEntry { m: FlowMatch::any(), priority: 0, action: Action::Drop },
            FlowEntry {
                m: FlowMatch::to_dst(HostAddr(7)),
                priority: 10,
                action: Action::Output(PortNo(1)),
            },
            FlowEntry {
                m: FlowMatch::to_dst(HostAddr(7)).and_port(PortNo(2)),
                priority: 10,
                action: Action::Output(PortNo(2)),
            },
            FlowEntry {
                m: FlowMatch::on_port(PortNo(3)),
                priority: 4,
                action: Action::WriteMetadataGoto(9),
            },
            FlowEntry {
                m: FlowMatch::to_dst(HostAddr(8)).and_metadata(9),
                priority: 6,
                action: Action::Output(PortNo(5)),
            },
            // Same keys again: buckets of more than one entry.
            FlowEntry {
                m: FlowMatch::to_dst(HostAddr(8)).and_metadata(9),
                priority: 6,
                action: Action::Drop,
            },
            FlowEntry {
                m: FlowMatch::to_dst(HostAddr(7)),
                priority: 12,
                action: Action::Output(PortNo(4)),
            },
            FlowEntry { m: FlowMatch::to_dst(HostAddr(7)), priority: 3, action: Action::Drop },
        ]);
        for in_port in 0..5u16 {
            for dst in 5..10u32 {
                for md in [None, Some(9), Some(11)] {
                    let p = pkt(in_port, 1, dst);
                    let linear = s.entries().iter().find(|e| e.m.matches(&p, md));
                    assert_eq!(s.lookup(&p, md), linear, "in_port={in_port} dst={dst} md={md:?}");
                }
            }
        }
    }

    #[test]
    fn undefined_query_fields_skip_their_tiers() {
        // A symbolic destination outside every concrete class (dst=None)
        // can only hit entries that wildcard dst.
        let dst_rule = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(1)),
            priority: 9,
            action: Action::Output(PortNo(1)),
        };
        let fallback = FlowEntry { m: FlowMatch::any(), priority: 1, action: Action::Drop };
        let s = store_of(&[dst_rule, fallback]);
        let hit = s.first_match_where(PortNo(0), None, None, |e| {
            e.m.dst.is_none() && e.m.metadata.is_none()
        });
        assert_eq!(hit.map(|e| e.action), Some(Action::Drop));
    }
}
