//! Differential property test for the one tier index: on any table built
//! by a random interleaving of Add / Delete flow-mods, every way the
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
//! The index is built by the first probe and patched by every mod after
//! it, so *when* a store is first probed is part of the input: the live
//! table is probed at a drawn position of the stream (position 0 is a first
//! probe of an empty store), again at a second drawn position, and at the
//! end; one clone forks off just before the first probe (it carries no
//! index and builds its own at the end), one just after (it carries a copy
//! and patches it), and a fifth store sees the whole stream unprobed. All
//! of them must end equal to the linear scan.
//!
//! Field domains are kept tiny (4 ports, 3 metadata values, 6 addresses) so
//! random entries collide constantly: same-priority overlaps, Adds of a
//! (match, priority) key the table holds (which replace its entry),
//! cross-tier shadowing — exactly the cases where a broken priority merge
//! or a stale index bucket would diverge.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use sdt_openflow::{
    Action, EntryStore, FlowEntry, FlowMatch, FlowMod, FlowTable, HostAddr, PacketMeta, PortNo,
    TableStats,
};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

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

/// Exhaustive probe grid over the op domains (plus out-of-domain values so
/// some probes miss everything).
fn grid() -> Vec<(PacketMeta, Option<u32>)> {
    let mut probes = Vec::new();
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
                    probes.push((meta, metadata));
                }
            }
        }
    }
    probes
}

/// The live pair over the whole grid: same action on every probe. Both
/// sides count one lookup per probe, so their stats stay comparable.
fn live_agrees(indexed: &FlowTable, linear: &FlowTable, when: &str) -> Result<(), TestCaseError> {
    for (meta, metadata) in grid() {
        prop_assert_eq!(
            indexed.lookup_with(&meta, metadata),
            linear.linear_lookup_with(&meta, metadata),
            "live table diverges {} at {:?} md {:?}",
            when, meta, metadata
        );
    }
    Ok(())
}

/// A bare store over the whole grid: `first_match_where` returns the very
/// entry a front-to-back scan of its own entries fires.
fn store_agrees(store: &EntryStore, which: &str) -> Result<(), TestCaseError> {
    for (meta, metadata) in grid() {
        let fits = |e: &FlowEntry| e.m.matches(&meta, metadata);
        prop_assert_eq!(
            store.first_match_where(meta.in_port, metadata, Some(meta.dst), fits),
            store.entries().iter().find(|e| fits(e)),
            "{} store diverges at {:?} md {:?}",
            which, meta, metadata
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_lookup_equals_linear_scan(
        ops in proptest::collection::vec(
            (1u8..16, any::<u32>(), 0u16..8, 0u8..3),
            1..120,
        ),
        probes in (any::<u32>(), any::<u32>()),
    ) {
        let (a, b) = (probes.0 as usize % ops.len(), probes.1 as usize % ops.len());
        let (first_probe, second_probe) = (a.min(b), a.max(b));

        // Two tables fed the identical mod stream: one probed through the
        // index, one through the linear oracle.
        let mut indexed = FlowTable::new(4096);
        let mut linear = FlowTable::new(4096);
        let mut unprobed = EntryStore::default();
        // (fork taken before the first probe, fork taken after it)
        let mut forks: Option<(EntryStore, EntryStore)> = None;
        let mut log = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            if i == first_probe {
                let before = indexed.store().clone();
                live_agrees(&indexed, &linear, "at its first probe")?;
                forks = Some((before, indexed.store().clone()));
            }
            if i == second_probe {
                live_agrees(&indexed, &linear, "at its second probe")?;
            }
            let m = resolve_op(&mut log, op);
            if let Some((before, after)) = forks.as_mut() {
                before.apply(&m);
                after.apply(&m);
            }
            unprobed.apply(&m);
            indexed.apply(m.clone()).unwrap();
            linear.apply(m).unwrap();
        }
        let Some((before, after)) = forks else { unreachable!("first_probe < ops.len()") };

        prop_assert_eq!(indexed.entries(), linear.entries());
        live_agrees(&indexed, &linear, "at the end")?;
        for (store, which) in [
            (&before, "forked-before-first-probe"),
            (&after, "forked-after-first-probe"),
            (&unprobed, "probed-only-at-the-end"),
        ] {
            prop_assert_eq!(store.entries(), linear.entries(), "{} store's entries", which);
            store_agrees(store, which)?;
        }
        // Identical probe streams must move the counters identically —
        // in particular the two paths must agree on every miss.
        prop_assert_eq!(indexed.stats(), linear.stats());
    }
}

/// Eight threads make the first probe of one shared table at the same
/// moment: whichever builds the index, every thread reads the finished one,
/// and all answers are the linear scan's. The table's relaxed counters lose
/// no bump to the race: once the threads are joined, `stats()` holds
/// exactly one lookup per probe and one miss per probe the scan missed.
#[test]
fn concurrent_first_probes_agree_with_linear_scan() {
    const THREADS: usize = 8;
    const PROBES: u32 = 600;
    // 12 000 entries over all eight tiers, three priorities, with repeats
    // of a (match) under a lower priority so buckets hold more than one.
    // The entries that constrain no tier field pin `src` instead, and the
    // probes range past every field's domain, so some probes miss
    // everything. Every entry outputs to its own port, so an action names
    // its entry. Some of them repeat a (match, priority) key: the table
    // holds the last of each.
    let entries: Vec<FlowEntry> = (0..12_000u32)
        .map(|i| {
            let mut m = FlowMatch::any();
            if i & 1 != 0 {
                m.in_port = Some(PortNo((i >> 3) as u16 % 48));
            }
            if i & 2 != 0 {
                m.metadata = Some((i >> 3) % 96);
            }
            if i & 4 != 0 {
                m.dst = Some(HostAddr((i >> 3) % 1024));
            }
            if i & 7 == 0 {
                m.src = Some(HostAddr((i >> 3) % 3));
            }
            FlowEntry { m, priority: (i % 3) as u16, action: Action::Output(PortNo(i as u16)) }
        })
        .collect();
    let mut table = FlowTable::new(entries.len());
    table.adopt(Arc::new(EntryStore::from_ordered(entries.clone()))).unwrap();
    let table = Arc::new(table);
    let start = Barrier::new(THREADS);

    let oracle_misses: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let (table, start) = (Arc::clone(&table), &start);
                s.spawn(move || {
                    start.wait();
                    let mut misses = 0;
                    for q in 0..PROBES {
                        let x = q * THREADS as u32 + t;
                        let meta = PacketMeta {
                            in_port: PortNo((x % 97) as u16),
                            src: HostAddr(x % 7),
                            dst: HostAddr(x % 2053),
                            l4_src: 1,
                            l4_dst: 2,
                        };
                        let metadata = (x % 5 != 0).then_some(x % 193);
                        let scan = table.entries().iter().find(|e| e.m.matches(&meta, metadata));
                        misses += u64::from(scan.is_none());
                        assert_eq!(
                            table.lookup_with(&meta, metadata),
                            scan.map(|e| e.action),
                            "thread {t} probe {q}"
                        );
                    }
                    misses
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert!(oracle_misses > 0, "the probe grid must miss somewhere");
    let lookups = THREADS as u64 * u64::from(PROBES);
    let keys: HashSet<(FlowMatch, u16)> = entries.iter().map(|e| (e.m, e.priority)).collect();
    assert_eq!(
        table.stats(),
        TableStats { entries: keys.len(), lookups, misses: oracle_misses }
    );
}
