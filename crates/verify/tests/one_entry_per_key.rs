//! A flow table is a map from a (match, priority) key to one entry, as
//! OpenFlow 1.3's ADD defines it. On random Add / Delete streams whose keys
//! collide constantly, every holder of a table ends where a `BTreeMap`
//! keyed by (priority descending, match) ends — the same entries in the
//! same order, so no key twice:
//!
//! * a live `FlowTable`, probed at a drawn position of the stream;
//! * an `EntryStore` cloned out of it right after that probe built its
//!   index, and fed the rest of the stream itself;
//! * a `TableView`, which applies each mod to its copy-on-write store.
//!
//! The two indexes, patched by every replacing Add, still give the linear
//! scan's answer on every probe.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_openflow::{
    Action, EntryStore, FlowEntry, FlowMatch, FlowMod, FlowTable, HostAddr, PacketMeta, PortNo,
};
use sdt_verify::TableView;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The model's key: the fields of `FlowMatch::order_key`, in its order.
type Key = (Reverse<u16>, Option<PortNo>, Option<u32>, Option<HostAddr>, Option<HostAddr>);

fn key(m: &FlowMatch, priority: u16) -> Key {
    (Reverse(priority), m.in_port, m.metadata, m.dst, m.src)
}

/// A flow-mod over tiny domains (2 ports, 2 metadata values, 3 addresses,
/// 3 priorities, 3 actions), so most Adds name a key already held and
/// most Deletes one that is.
fn decode(add: bool, r: u32) -> FlowMod {
    let field = |bit: u32, shift: u32, n: u32| (r & bit != 0).then_some((r >> shift) % n);
    let m = FlowMatch {
        in_port: field(1, 4, 2).map(|p| PortNo(p as u16)),
        metadata: field(2, 6, 2),
        dst: field(4, 8, 3).map(HostAddr),
        src: field(8, 10, 3).map(HostAddr),
        ..FlowMatch::any()
    };
    let priority = ((r >> 12) % 3) as u16;
    if !add {
        return FlowMod::Delete(m, priority);
    }
    let action = match (r >> 14) % 3 {
        0 => Action::Drop,
        1 => Action::WriteMetadataGoto(1),
        _ => Action::Output(PortNo(((r >> 16) % 4) as u16)),
    };
    FlowMod::Add(FlowEntry { m, priority, action })
}

/// Every probe over the domains: the store's indexed first match is the
/// linear scan's.
fn index_agrees(store: &EntryStore) -> Result<(), TestCaseError> {
    for in_port in 0..3u16 {
        for dst in 0..4u32 {
            for metadata in [None, Some(0), Some(1)] {
                let meta = PacketMeta {
                    in_port: PortNo(in_port),
                    src: HostAddr(dst % 3),
                    dst: HostAddr(dst),
                    l4_src: 0,
                    l4_dst: 0,
                };
                let fits = |e: &FlowEntry| e.m.matches(&meta, metadata);
                prop_assert_eq!(
                    store.first_match_where(meta.in_port, metadata, Some(meta.dst), fits),
                    store.entries().iter().find(|e| fits(e)),
                    "{:?} md {:?}",
                    meta,
                    metadata
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_table_holder_is_a_map_from_key_to_entry(
        ops in proptest::collection::vec((0u8..3, any::<u32>()), 1..80),
        fork in any::<u32>(),
    ) {
        let fork = fork as usize % ops.len();
        let mut model: BTreeMap<Key, FlowEntry> = BTreeMap::new();
        let mut table = FlowTable::new(4096);
        let mut view = TableView::empty(1);
        let mut clone: Option<EntryStore> = None;
        for (i, &(kind, r)) in ops.iter().enumerate() {
            if i == fork {
                let probe = PacketMeta {
                    in_port: PortNo(0),
                    src: HostAddr(0),
                    dst: HostAddr(0),
                    l4_src: 0,
                    l4_dst: 0,
                };
                table.lookup(&probe);
                clone = Some(table.store().clone());
            }
            let m = decode(kind != 0, r);
            match m {
                FlowMod::Add(e) => model.insert(key(&e.m, e.priority), e),
                FlowMod::Delete(fm, p) => model.remove(&key(&fm, p)),
            };
            if let Some(store) = clone.as_mut() {
                store.apply(&m);
            }
            view.apply(0, 1, &m);
            table.apply(m).unwrap();
        }
        let want: Vec<FlowEntry> = model.into_values().collect();
        let Some(clone) = clone else { unreachable!("fork < ops.len()") };
        prop_assert_eq!(table.entries(), &want[..], "live table");
        prop_assert_eq!(clone.entries(), &want[..], "store cloned at op {}", fork);
        prop_assert_eq!(view.entries(0, 1), &want[..], "table view");
        index_agrees(table.store())?;
        index_agrees(&clone)?;
    }
}
