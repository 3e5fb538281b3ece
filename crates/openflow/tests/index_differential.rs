//! Differential property test for the one tier index: on any table built
//! by a random interleaving of Add / Delete / Clear flow-mods, every way the
//! workspace reads it must agree with the pre-index linear scan —
//!
//! * **live**: `FlowTable::lookup_with`, same match on every probe and
//!   identical lookup/miss counter movement;
//! * **cloned**: an `EntryStore` cloned out of the table mid-stream and fed
//!   the remaining mods itself (what a `TableView` does with a delta: clone
//!   one switch's stores, patch them in place) ends with the same entries;
//! * **symbolic**: `first_match_where` on that clone, under the concrete
//!   `matches` predicate, returns the very entry the linear scan fires.
//!
//! Field domains are kept tiny (4 ports, 3 metadata values, 6 addresses) so
//! random entries collide constantly: same-priority overlaps, duplicate
//! (match, priority) pairs, cross-tier shadowing — exactly the cases where
//! a broken priority merge or a stale index bucket would diverge.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_openflow::{
    Action, EntryStore, FlowEntry, FlowMatch, FlowMod, FlowTable, HostAddr, PacketMeta, PortNo,
};

/// Decode a random match over the small field domains from raw bits:
/// low bits choose which fields constrain, higher bits choose the values.
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

fn decode_action(a: u8, r: u32) -> Action {
    match a {
        0 => Action::Drop,
        1 => Action::WriteMetadataGoto((r >> 21) & 3),
        _ => Action::Output(PortNo(((r >> 21) & 7) as u16)),
    }
}

/// Resolve one raw op into a concrete flow-mod, tracking installed
/// (match, priority) pairs so deletes can target live entries instead of
/// always missing. The same resolved mod is then applied to both tables.
fn resolve_op(
    log: &mut Vec<(FlowMatch, u16)>,
    (kind, r, priority, action): (u8, u32, u16, u8),
) -> FlowMod {
    match kind {
        0 => {
            log.clear();
            FlowMod::Clear
        }
        1 | 2 if !log.is_empty() => {
            let (m, p) = log[r as usize % log.len()];
            log.retain(|&(lm, lp)| (lm, lp) != (m, p));
            FlowMod::Delete(m, p)
        }
        1..=4 => {
            let m = decode_match(r);
            log.retain(|&(lm, lp)| (lm, lp) != (m, priority));
            FlowMod::Delete(m, priority)
        }
        _ => {
            let m = decode_match(r);
            log.push((m, priority));
            FlowMod::Add(FlowEntry { m, priority, action: decode_action(action, r) })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_lookup_equals_linear_scan(
        ops in proptest::collection::vec(
            (0u8..16, any::<u32>(), 0u16..8, 0u8..3),
            1..120,
        ),
    ) {
        // Two tables fed the identical mod stream: one probed through the
        // index, one through the linear oracle. Halfway, a store forks off
        // the first (the clone replaces whatever `forked` held) and applies
        // the rest of the stream on its own.
        let mut indexed = FlowTable::new(4096);
        let mut linear = FlowTable::new(4096);
        let mut forked = EntryStore::default();
        let mut log = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                forked = indexed.store().clone();
            }
            let m = resolve_op(&mut log, op);
            forked.apply(&m);
            indexed.apply(m.clone()).unwrap();
            linear.apply(m).unwrap();
        }
        prop_assert_eq!(indexed.entries(), linear.entries());
        prop_assert_eq!(forked.entries(), linear.entries());

        // Exhaustive probe grid over the op domains (plus out-of-domain
        // values so some probes miss everything).
        for port in 0..5u16 {
            for dst in 0..7u32 {
                for src in [0u32, 3, 6] {
                    for metadata in [None, Some(0u32), Some(2), Some(7)] {
                        let meta = PacketMeta {
                            in_port: PortNo(port),
                            src: HostAddr(src),
                            dst: HostAddr(dst),
                            l4_src: 1,
                            l4_dst: 2,
                        };
                        prop_assert_eq!(
                            indexed.lookup_with(&meta, metadata),
                            linear.linear_lookup_with(&meta, metadata),
                            "divergence at port {} dst {} src {} md {:?}",
                            port, dst, src, metadata
                        );
                        let fits = |e: &FlowEntry| e.m.matches(&meta, metadata);
                        prop_assert_eq!(
                            forked.first_match_where(meta.in_port, metadata, Some(meta.dst), fits),
                            linear.entries().iter().find(|e| fits(e)),
                            "forked store diverges at port {} dst {} src {} md {:?}",
                            port, dst, src, metadata
                        );
                    }
                }
            }
        }
        // Identical probe streams must move the counters identically —
        // in particular the two paths must agree on every miss.
        prop_assert_eq!(indexed.stats(), linear.stats());
    }
}
