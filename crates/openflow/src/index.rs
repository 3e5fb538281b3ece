//! Multi-tier hash indexing over flow entries (tuple-space search).
//!
//! SDT rules key on three fields with exact values: `in_port` (domain
//! restriction), `metadata` (sub-switch id) and `dst` (routing); the other
//! match fields are almost always wildcards. Entries are therefore bucketed
//! by *which* of those three fields they constrain — a 3-bit tier id — and
//! within a tier by the constrained values, hashed exactly. A lookup probes
//! at most `TIER_COUNT` buckets (one hash each) instead of scanning every
//! entry, and merges the per-tier winners by (priority, install order), so
//! the result is bit-for-bit the first-match-wins answer of the linear scan.
//!
//! Two consumers share this module:
//! - [`crate::FlowTable`] keeps a live tier index patched incrementally on
//!   every `apply` (see `table.rs`);
//! - [`EntryIndex`] here is the build-once variant over an immutable entry
//!   slice, used by `sdt-verify` to accelerate symbolic class walks.

use crate::overlap::FxBuild;
use crate::{FlowEntry, HostAddr, PortNo};
use std::collections::hash_map::{Entry, HashMap};

/// Tier-id bit: the entry constrains `in_port`.
pub(crate) const TIER_IN_PORT: usize = 1;
/// Tier-id bit: the entry constrains `metadata`.
pub(crate) const TIER_METADATA: usize = 1 << 1;
/// Tier-id bit: the entry constrains `dst`.
pub(crate) const TIER_DST: usize = 1 << 2;
/// Number of tiers: one per subset of the indexed fields. Tier 0 is the
/// wildcard tier (entries constraining none of the indexed fields).
pub(crate) const TIER_COUNT: usize = 8;

/// Exact-value bucket key within a tier: the constrained values of
/// (`in_port`, `metadata`, `dst`), with unconstrained fields pinned to 0 so
/// they never split buckets.
pub(crate) type TierKey = (u16, u32, u32);

/// Which tier an entry lives in: the subset of indexed fields it constrains.
pub(crate) fn tier_of(m: &crate::FlowMatch) -> usize {
    (if m.in_port.is_some() { TIER_IN_PORT } else { 0 })
        | (if m.metadata.is_some() { TIER_METADATA } else { 0 })
        | (if m.dst.is_some() { TIER_DST } else { 0 })
}

/// Bucket key for an entry within its own tier.
pub(crate) fn entry_key(tier: usize, m: &crate::FlowMatch) -> TierKey {
    (
        if tier & TIER_IN_PORT != 0 { m.in_port.map_or(0, |p| p.0) } else { 0 },
        if tier & TIER_METADATA != 0 { m.metadata.unwrap_or(0) } else { 0 },
        if tier & TIER_DST != 0 { m.dst.map_or(0, |d| d.0) } else { 0 },
    )
}

/// Bucket key a packet (or symbolic class) probes in a given tier. The
/// caller must skip tiers whose required fields the query leaves undefined
/// ([`TIER_METADATA`] with no pipeline metadata, [`TIER_DST`] with a
/// destination outside every concrete class).
pub(crate) fn query_key(
    tier: usize,
    in_port: PortNo,
    metadata: Option<u32>,
    dst: Option<HostAddr>,
) -> TierKey {
    (
        if tier & TIER_IN_PORT != 0 { in_port.0 } else { 0 },
        if tier & TIER_METADATA != 0 { metadata.unwrap_or(0) } else { 0 },
        if tier & TIER_DST != 0 { dst.map_or(0, |d| d.0) } else { 0 },
    )
}

/// Build-once tier index over an immutable, priority-ordered entry slice.
///
/// Buckets store `(position, entry)` pairs in ascending slice position;
/// because the slice is sorted by descending priority with stable insertion
/// order within a level (the [`crate::FlowTable`] invariant), the
/// lowest-position candidate across all tiers *is* the entry a front-to-back
/// linear scan would hit first.
#[derive(Clone, Debug)]
pub struct EntryIndex {
    tiers: [HashMap<TierKey, Bucket, FxBuild>; TIER_COUNT],
}

/// The `(position, entry)` pairs of one bucket, ascending position. SDT
/// pipelines key every entry of a table differently, so the bucket of one
/// is held inline: no allocation to build it, no pointer to chase to
/// probe it.
#[derive(Clone, Debug)]
enum Bucket {
    One((u32, FlowEntry)),
    Many(Vec<(u32, FlowEntry)>),
}

impl Bucket {
    fn push(&mut self, at: (u32, FlowEntry)) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, at]),
            Bucket::Many(v) => v.push(at),
        }
    }

    fn as_slice(&self) -> &[(u32, FlowEntry)] {
        match self {
            Bucket::One(e) => std::slice::from_ref(e),
            Bucket::Many(v) => v,
        }
    }
}

impl EntryIndex {
    /// Index `entries` (which must be in flow-table order: descending
    /// priority, stable within a level).
    pub fn build(entries: &[FlowEntry]) -> Self {
        let mut tiers: [HashMap<TierKey, Bucket, FxBuild>; TIER_COUNT] =
            std::array::from_fn(|_| HashMap::default());
        for (pos, e) in entries.iter().enumerate() {
            let tier = tier_of(&e.m);
            let at = (pos as u32, *e);
            match tiers[tier].entry(entry_key(tier, &e.m)) {
                Entry::Vacant(v) => {
                    v.insert(Bucket::One(at));
                }
                Entry::Occupied(mut o) => o.get_mut().push(at),
            }
        }
        EntryIndex { tiers }
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
        let mut best: Option<(u32, &FlowEntry)> = None;
        for tier in 0..TIER_COUNT {
            let map = &self.tiers[tier];
            if map.is_empty()
                || (tier & TIER_METADATA != 0 && metadata.is_none())
                || (tier & TIER_DST != 0 && dst.is_none())
            {
                continue;
            }
            let Some(bucket) = map.get(&query_key(tier, in_port, metadata, dst)) else {
                continue;
            };
            for (pos, e) in bucket.as_slice() {
                if best.is_some_and(|(bp, _)| *pos >= bp) {
                    break; // positions ascend — this tier cannot improve
                }
                if pred(e) {
                    best = Some((*pos, e));
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
    use crate::{Action, FlowMatch, FlowMod, FlowTable, PacketMeta};

    fn pkt(in_port: u16, src: u32, dst: u32) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(in_port),
            src: HostAddr(src),
            dst: HostAddr(dst),
            l4_src: 1000,
            l4_dst: 2000,
        }
    }

    /// Exhaustive differential: every probe over a mixed-tier table agrees
    /// with the linear scan.
    #[test]
    fn agrees_with_linear_scan_across_tiers() {
        let mut t = FlowTable::new(64);
        let adds = [
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
        ];
        for e in adds {
            t.apply(FlowMod::Add(e)).unwrap();
        }
        let idx = EntryIndex::build(t.entries());
        for in_port in 0..5u16 {
            for dst in 5..10u32 {
                for md in [None, Some(9), Some(11)] {
                    let p = pkt(in_port, 1, dst);
                    let linear =
                        t.entries().iter().find(|e| e.m.matches(&p, md)).copied();
                    let indexed = idx
                        .first_match_where(p.in_port, md, Some(p.dst), |e| e.m.matches(&p, md))
                        .copied();
                    assert_eq!(indexed, linear, "in_port={in_port} dst={dst} md={md:?}");
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
        let idx = EntryIndex::build(&[dst_rule, fallback]);
        let hit = idx.first_match_where(PortNo(0), None, None, |e| {
            e.m.dst.is_none() && e.m.metadata.is_none()
        });
        assert_eq!(hit.map(|e| e.action), Some(Action::Drop));
    }
}
