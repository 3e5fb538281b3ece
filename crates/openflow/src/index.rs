//! The ordered entry store: a flow table's entries, their order, and the
//! tuple-space index over them — one type, one `apply`, one lookup.
//!
//! A store is a map from a (match, priority) key to the one entry holding
//! it, as OpenFlow 1.3 defines a flow table: an ADD of a key the table
//! holds replaces that entry. Entries are kept in key order
//! ([`FlowEntry::order_key`]: priority descending, then the match fields),
//! the order a front-to-back scan resolves first-match-wins in. The order
//! is a function of the entry set alone, not of the order the entries were
//! installed in, so two stores holding the same entries hold the same
//! bytes. [`EntryStore::apply`] is the only code that decides what an Add
//! or a Delete does to that map.
//!
//! The index is built by whoever first looks something up
//! ([`EntryStore::first_match_where`], which [`EntryStore::lookup`] goes
//! through): one pass over the entries, behind a [`OnceLock`] so any number
//! of threads may share a store and probe it first at once. A store that is
//! only ever installed, walked through [`EntryStore::entries`], diffed and
//! dropped — a synthesized table only diffed into an epoch, table 1 of a
//! proof, a switch nobody sends a packet to — never hashes an entry. Once
//! the index exists, `apply` patches it in the same step as the entries and
//! a clone copies it.
//!
//! The index: SDT rules key on three fields with exact values — `in_port`
//! (domain restriction), `metadata` (sub-switch id) and `dst` (routing);
//! the other match fields are almost always wildcards. Entries are
//! therefore bucketed by *which* of those three fields they constrain — a
//! 3-bit tier id — and within a tier by the constrained values, hashed
//! exactly. A lookup probes at most `TIER_COUNT` buckets (one hash each)
//! instead of scanning every entry, and merges the per-tier winners by
//! key order, so the result is bit-for-bit the first-match-wins answer of
//! the linear scan.
//!
//! Every holder of flow entries is built on this type: the live
//! [`crate::FlowTable`] (store + capacity + lookup/miss counters),
//! `sdt-verify`'s `TableView` (the prover's and the scheduler's unbounded,
//! copy-on-write copies) and `sdt-core`'s synthesized `Table`, which the
//! other two share until they write. The store has no counters, so code
//! that holds only a store cannot move one.

use crate::{Action, FlowEntry, FlowMatch, FlowMod, HostAddr, PacketMeta, PortNo};
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

/// The candidates of one bucket, in key order. Most buckets of an SDT
/// pipeline hold one entry, so the bucket of one is held inline: no
/// allocation to build it, no pointer to chase to probe it.
#[derive(Clone, Debug)]
enum Bucket {
    One(FlowEntry),
    Many(Vec<FlowEntry>),
}

impl Bucket {
    fn insert(&mut self, e: FlowEntry) {
        let mut v = match std::mem::replace(self, Bucket::Many(Vec::new())) {
            Bucket::One(first) => vec![first],
            Bucket::Many(v) => v,
        };
        v.insert(v.partition_point(|x| x.order_key() < e.order_key()), e);
        *self = Bucket::Many(v);
    }

    /// Drop the candidates `doomed` names; true when none are left.
    fn remove(&mut self, doomed: impl Fn(&FlowEntry) -> bool) -> bool {
        match self {
            Bucket::One(e) => doomed(e),
            Bucket::Many(v) => {
                v.retain(|e| !doomed(e));
                v.is_empty()
            }
        }
    }

    fn as_slice(&self) -> &[FlowEntry] {
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
    /// Index the entries of a store nobody has probed yet.
    fn of(entries: &[FlowEntry]) -> Self {
        let mut tiers = Tiers::default();
        for e in entries {
            tiers.insert(*e);
        }
        tiers
    }

    fn insert(&mut self, e: FlowEntry) {
        let (tier, key) = slot_of(&e.m);
        match self.0[tier].entry(key) {
            Entry::Vacant(v) => {
                v.insert(Bucket::One(e));
            }
            Entry::Occupied(mut o) => o.get_mut().insert(e),
        }
    }

    /// Drop the candidate with exactly this (match, priority).
    fn remove(&mut self, fm: &FlowMatch, priority: u16) {
        let (tier, key) = slot_of(fm);
        if let Entry::Occupied(mut o) = self.0[tier].entry(key) {
            if o.get_mut().remove(|e| e.m == *fm && e.priority == priority) {
                o.remove();
            }
        }
    }
}

/// What a persisted state keeps of a flow table instead of its entries:
/// the entry count and a hash of every entry's fields in key order — a
/// function of the entry set. The hash is FNV-1a over fixed-width
/// little-endian words, written out here rather than `DefaultHasher`,
/// whose output may change between Rust releases: a digest one build
/// writes, the next one reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TableDigest {
    /// Entries in the table.
    pub entries: u64,
    /// FNV-1a over every entry's fields, in key order.
    pub hash: u64,
}

/// Flow entries in first-match order with their tier index, mutable only
/// through [`EntryStore::apply`]. Unbounded and counter-free: capacity and
/// the lookup/miss tallies belong to [`crate::FlowTable`], which wraps one.
#[derive(Clone, Debug, Default)]
pub struct EntryStore {
    /// Entries in key order ([`FlowEntry::order_key`]) — first match wins.
    entries: Vec<FlowEntry>,
    /// Tier index over `entries`: unset until the first probe, from then
    /// on patched in lock-step by `apply`.
    tiers: OnceLock<Tiers>,
}

impl EntryStore {
    /// Installed entries in key order, highest priority first.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// This store's [`TableDigest`].
    pub fn digest(&self) -> TableDigest {
        // A present value is stored plus one, so `None` (0) differs from
        // `Some(0)`.
        let opt = |v: Option<u32>| v.map_or(0, |v| u64::from(v) + 1);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for e in &self.entries {
            let m = e.m;
            let action = match e.action {
                Action::Output(p) => 1 << 32 | u64::from(p.0),
                Action::Drop => 2 << 32,
                Action::WriteMetadataGoto(md) => 3 << 32 | u64::from(md),
            };
            let words = [
                u64::from(e.priority),
                opt(m.in_port.map(|p| p.0.into())),
                opt(m.metadata),
                opt(m.src.map(|a| a.0)),
                opt(m.dst.map(|a| a.0)),
                opt(m.l4_src.map(u32::from)),
                opt(m.l4_dst.map(u32::from)),
                action,
            ];
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        TableDigest { entries: self.entries.len() as u64, hash }
    }

    /// Apply a flow-mod, OpenFlow 1.3's way: an Add of a (match,
    /// priority) key the store holds replaces that entry, any other Add is
    /// inserted at its place in key order (a binary search); a Delete
    /// removes the entry with exactly this (match, priority), if there is
    /// one (strict). A tier index that has been built is patched in the same
    /// step — a bucket insert for Add, after a bucket remove when it
    /// replaces, and a bucket remove for Delete.
    pub fn apply(&mut self, m: &FlowMod) {
        match m {
            FlowMod::Add(e) => {
                let pos = self.entries.partition_point(|x| x.order_key() < e.order_key());
                let replaces = self.entries.get(pos).is_some_and(|x| x.order_key() == e.order_key());
                if replaces {
                    self.entries[pos] = *e;
                } else {
                    self.entries.insert(pos, *e);
                }
                if let Some(tiers) = self.tiers.get_mut() {
                    if replaces {
                        tiers.remove(&e.m, e.priority);
                    }
                    tiers.insert(*e);
                }
            }
            FlowMod::Delete(fm, priority) => {
                self.entries.retain(|e| !(e.m == *fm && e.priority == *priority));
                if let Some(tiers) = self.tiers.get_mut() {
                    tiers.remove(fm, *priority);
                }
            }
        }
    }

    /// The store one [`EntryStore::apply`] of an Add per entry, in the
    /// given order, builds from an empty one, without the per-entry insert:
    /// the vector itself, stably sorted into key order, and of a key given
    /// twice the later entry (one pass and no move for entries already in
    /// strict key order, as synthesis emits them). Never panics: a hostile
    /// input just builds the store those Adds would.
    pub fn from_ordered(mut entries: Vec<FlowEntry>) -> Self {
        if !entries.is_sorted_by(|a, b| a.order_key() < b.order_key()) {
            entries.sort_by_key(FlowEntry::order_key);
            // `dedup_by` keeps the first of a run: move the later one into it.
            entries.dedup_by(|later, kept| {
                let same = later.order_key() == kept.order_key();
                if same {
                    *kept = *later;
                }
                same
            });
        }
        EntryStore { entries, tiers: OnceLock::new() }
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
        let mut best: Option<&FlowEntry> = None;
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
                if best.is_some_and(|b| c.order_key() >= b.order_key()) {
                    break; // keys ascend — this tier cannot improve
                }
                if pred(c) {
                    best = Some(c);
                    break;
                }
            }
        }
        best
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

    /// The store one Add per entry builds, in order.
    fn store_of(adds: &[FlowEntry]) -> EntryStore {
        let mut s = EntryStore::default();
        for &e in adds {
            s.apply(&FlowMod::Add(e));
        }
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
            // The same match again, a level lower: a bucket of more than
            // one entry.
            FlowEntry {
                m: FlowMatch::to_dst(HostAddr(8)).and_metadata(9),
                priority: 2,
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

    /// A digest is a fixed function of the entry set: pinned here, so
    /// a build that hashes differently fails before it reads a digest
    /// another build wrote; the same for any install order; and moved by
    /// any one field, `None` against `Some(0)` included.
    #[test]
    fn digest_is_a_fixed_function_of_the_entry_set() {
        let e = |m: FlowMatch, priority: u16, action: Action| FlowEntry { m, priority, action };
        let entries = vec![
            e(FlowMatch::on_port(PortNo(3)), 10, Action::WriteMetadataGoto(7)),
            e(FlowMatch::to_dst(HostAddr(9)).and_metadata(7), 10, Action::Output(PortNo(2))),
            e(FlowMatch::any().and_metadata(7), 5, Action::Drop),
        ];
        let digest = EntryStore::from_ordered(entries.clone()).digest();
        assert_eq!(digest, TableDigest { entries: 3, hash: 0x9577_0957_546d_e0ab });
        assert_eq!(store_of(&[entries[2], entries[0], entries[1]]).digest(), digest);
        assert_eq!(EntryStore::default().digest().entries, 0);
        let mut moved = entries.clone();
        moved[0].m.metadata = Some(0);
        assert_ne!(EntryStore::from_ordered(moved).digest().hash, digest.hash);
        let mut moved = entries;
        moved[2].action = Action::Output(PortNo(0));
        assert_ne!(EntryStore::from_ordered(moved).digest().hash, digest.hash);
    }

    /// `from_ordered` of any permutation of some entries is one Add per
    /// entry in any order, byte for byte: a store is its entry set. The
    /// entries hold overlapping equal-priority pairs in three tiers and an
    /// entry given twice, and a later Add and Delete land the same in every
    /// store.
    #[test]
    fn from_ordered_of_any_permutation_is_one_add_per_entry_in_any_order() {
        let e = |m: FlowMatch, priority: u16, port: u16| FlowEntry {
            m,
            priority,
            action: Action::Output(PortNo(port)),
        };
        let entries = [
            e(FlowMatch::to_dst(HostAddr(3)), 10, 1),
            e(FlowMatch::on_port(PortNo(2)), 10, 2),
            e(FlowMatch::any().and_metadata(4), 10, 3),
            e(FlowMatch::to_dst(HostAddr(3)), 10, 1),
            e(FlowMatch::any(), 5, 4),
            e(FlowMatch::to_dst(HostAddr(3)).and_port(PortNo(2)), 20, 5),
        ];
        let later = e(FlowMatch::to_dst(HostAddr(3)).and_metadata(4), 10, 6);
        let reference = EntryStore::from_ordered(entries.to_vec());
        assert!(reference.entries().is_sorted_by_key(FlowEntry::order_key));
        // Every permutation, by Heap's algorithm.
        let (mut perm, mut c, mut i, mut seen) = (entries, [0usize; 6], 1, 0);
        loop {
            let mut built = EntryStore::from_ordered(perm.to_vec());
            let mut installed = store_of(&perm);
            assert_eq!(built.entries(), reference.entries(), "{perm:?}");
            assert_eq!(installed.entries(), reference.entries(), "{perm:?}");
            for s in [&mut built, &mut installed] {
                s.apply(&FlowMod::Add(later));
                s.apply(&FlowMod::Delete(FlowMatch::on_port(PortNo(2)), 10));
            }
            assert_eq!(built.entries(), installed.entries(), "{perm:?}");
            let probes = [(2, 3, Some(4)), (2, 3, None), (1, 3, Some(4)), (2, 7, None)];
            for (in_port, dst, md) in probes {
                let p = pkt(in_port, 1, dst);
                let linear = built.entries().iter().find(|e| e.m.matches(&p, md));
                assert_eq!(built.lookup(&p, md), linear, "{perm:?}");
                assert_eq!(installed.lookup(&p, md), linear, "{perm:?}");
            }
            seen += 1;
            while i < perm.len() && c[i] >= i {
                c[i] = 0;
                i += 1;
            }
            if i == perm.len() {
                break;
            }
            perm.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            c[i] += 1;
            i = 1;
        }
        assert_eq!(seen, 720);
    }

    /// An Add of a key the store holds replaces its entry, in the entries
    /// and in a built index alike, and `from_ordered` keeps the later entry
    /// of a key given twice, as one Add per entry in that order would.
    #[test]
    fn an_add_replaces_the_entry_of_its_key() {
        let route = |port: u16| FlowEntry {
            m: FlowMatch::to_dst(HostAddr(7)),
            priority: 10,
            action: Action::Output(PortNo(port)),
        };
        let other = FlowEntry { m: FlowMatch::any(), priority: 1, action: Action::Drop };
        let mut s = store_of(&[route(1), other]);
        assert_eq!(s.lookup(&pkt(0, 1, 7), None), Some(&route(1)), "index built");
        s.apply(&FlowMod::Add(route(2)));
        assert_eq!(s.entries(), [route(2), other]);
        assert_eq!(s.lookup(&pkt(0, 1, 7), None), Some(&route(2)));
        let buckets = s.tiers.get().unwrap().0.iter().flat_map(|tier| tier.values());
        assert_eq!(buckets.map(|b| b.as_slice().len()).sum::<usize>(), 2, "replaced in the index");
        s.apply(&FlowMod::Delete(route(2).m, 10));
        assert_eq!(s.lookup(&pkt(0, 1, 7), None), Some(&other), "nothing of the key left");
        for (given, last) in [([route(1), other, route(2)], 2), ([route(2), route(1), other], 1)] {
            let built = EntryStore::from_ordered(given.to_vec());
            assert_eq!(built.entries(), store_of(&given).entries());
            assert_eq!(built.entries(), [route(last), other]);
        }
    }
}
