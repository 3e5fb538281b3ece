//! Property tests for the snapshot codec: on ANY reachable daemon state —
//! any interleaving of admissions (some rejected) and teardowns over a
//! shared cluster — the snapshot round trip is exact:
//!
//! (a) `encode → decode → encode` is byte-identical (codec identity);
//! (b) `capture → restore → capture → encode` is byte-identical (the
//!     restored manager IS the original, as far as persistence can see);
//! (c) the restored manager's full static-verification report renders
//!     byte-identical to the original's — findings, counts, everything;
//! (d) every restored slice equals the original in every field — the
//!     stored decisions and everything restore re-derives from them.
//!
//! The file holds no flow entry: per switch and table it holds the live
//! table's digest, and restore re-derives the entries.
//!
//! And on a file nobody vouches for — torn at any byte, or with any one
//! byte changed — neither [`Snapshot::decode`] nor [`Snapshot::restore`]
//! panics, a torn file is never taken, and whatever decodes is a snapshot
//! whose encoding is stable (`encode → decode → encode` byte-identical): a
//! damaged file is refused or read as exactly what it now says, never as
//! something in between.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sdt_controller::{SliceController, TestbedConfig};
use sdt_openflow::{OpenFlowSwitch, TableDigest};
use sdt_sdtd::{ClusterSpec, Snapshot};
use sdt_tenancy::{Slice, SliceId, SliceManager};
use std::collections::BTreeMap;

fn cfg(topology: &str) -> String {
    format!(
        "[topology]\n{topology}\n\n[cluster]\nswitches = 2\n\
         model = \"openflow-128x100g\"\nhosts_per_switch = 16\n\
         inter_links_per_pair = 16\n"
    )
}

/// The tenant config pool: small topologies across the generator zoo,
/// including one (fat-tree k=4) big enough to draw honest rejections once
/// the little cluster fills up.
fn pool() -> Vec<String> {
    vec![
        cfg("kind = \"chain\"\nn = 2"),
        cfg("kind = \"chain\"\nn = 4"),
        cfg("kind = \"ring\"\nn = 4"),
        format!("{}\n[routing]\nstrategy = \"updown\"\n", cfg("kind = \"ring\"\nn = 5")),
        cfg("kind = \"mesh\"\ndims = [2, 2]"),
        cfg("kind = \"star\"\nleaves = 3"),
        cfg("kind = \"fat-tree\"\nk = 4"),
    ]
}

/// Property (d): `b` is `a`, field for field.
fn assert_same_slice(a: &Slice, b: &Slice) {
    let (p, q) = (&a.projection, &b.projection);
    assert_eq!((a.id, &a.name), (b.id, &b.name));
    assert_eq!(p.assignment, q.assignment, "{}", a.id);
    assert_eq!(p.link_real, q.link_real, "{}", a.id);
    assert_eq!(p.port_of, q.port_of, "{}", a.id);
    assert_eq!(p.host_port, q.host_port, "{}", a.id);
    assert_eq!(p.subswitches, q.subswitches, "{}", a.id);
    assert_eq!(p.synthesis, q.synthesis, "{}", a.id);
    assert_eq!(p.inter_switch_links_used, q.inter_switch_links_used, "{}", a.id);
    assert_eq!(
        (a.metadata_base, a.metadata_reserved, a.addr_base, a.addr_reserved, a.epochs),
        (b.metadata_base, b.metadata_reserved, b.addr_base, b.addr_reserved, b.epochs),
        "{}",
        a.id
    );
}

/// The digests of the manager's live tables, per switch.
fn live_digests(mgr: &SliceManager) -> Vec<[TableDigest; 2]> {
    let digest = |sw: &OpenFlowSwitch, t| sw.table(t).store().digest();
    mgr.switches().iter().map(|sw| [digest(sw, 0), digest(sw, 1)]).collect()
}

/// Replay a random op sequence the way the daemon would: admissions keep
/// the per-slice config text, teardowns drop it. Returns the populated
/// controller plus the config map a snapshot capture needs.
fn build(ops: &[(u8, u8)]) -> (SliceController, BTreeMap<u32, String>) {
    let pool = pool();
    let first = TestbedConfig::parse(&pool[0]).unwrap();
    let mut ctl = SliceController::from_config(&first);
    let mut configs: BTreeMap<u32, String> = BTreeMap::new();
    for &(sel, action) in ops {
        if action % 4 == 0 && !configs.is_empty() {
            // Destroy the (sel % len)-th live slice.
            let ids: Vec<u32> = configs.keys().copied().collect();
            let id = ids[sel as usize % ids.len()];
            ctl.destroy(SliceId(id)).unwrap();
            configs.remove(&id);
        } else {
            let text = &pool[sel as usize % pool.len()];
            let c = TestbedConfig::parse(text).unwrap();
            if let Ok(id) = ctl.create(c.topology.name(), &c.topology, &c.strategy) {
                configs.insert(id.0, text.clone());
            }
        }
    }
    (ctl, configs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_round_trip_is_byte_identical(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..10),
    ) {
        let (mut ctl, configs) = build(&ops);
        let spec = ClusterSpec {
            model: "openflow-128x100g".to_string(),
            switches: 2,
            hosts_per_switch: 16,
            inter_links_per_pair: 16,
        };
        let snap = Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap();
        let text = snap.encode();

        // (a) codec identity.
        let decoded = Snapshot::decode(&text).unwrap();
        prop_assert_eq!(decoded.encode(), text.clone());

        // (b) restore → capture identity, byte for byte.
        let (mgr, restored_configs) = decoded.restore().unwrap();
        prop_assert_eq!(&restored_configs, &configs);
        let again = Snapshot::capture(&spec, true, &mgr, &restored_configs).unwrap();
        prop_assert_eq!(again.encode(), text);

        // (d) every slice comes back equal in every field.
        prop_assert_eq!(mgr.num_slices(), ctl.manager().num_slices());
        for (a, b) in ctl.manager().slices().zip(mgr.slices()) {
            assert_same_slice(a, b);
        }

        // No flow entry is in the file — no `priority|match|action` record,
        // no `tables` member — and its digests are the live tables'.
        prop_assert!(!text.contains('|') && !text.contains("\"tables\""));
        prop_assert_eq!(&decoded.state.digests, &live_digests(ctl.manager()));
        for (a, b) in ctl.manager().switches().iter().zip(mgr.switches()) {
            prop_assert_eq!(a.table(0).entries(), b.table(0).entries());
            prop_assert_eq!(a.table(1).entries(), b.table(1).entries());
        }

        // (c) the restored verifier findings render byte-identical.
        let mut mgr = mgr;
        let original = format!("{:?}", ctl.manager_mut().verify_report());
        let restored = format!("{:?}", mgr.verify_report());
        prop_assert_eq!(original, restored);
    }
}

/// The encoded snapshot of a two-slice daemon (chain-2 and ring-4).
fn two_slice_snapshot() -> String {
    let (ctl, configs) = build(&[(0, 1), (2, 1)]);
    assert_eq!(configs.len(), 2);
    let spec = ClusterSpec {
        model: "openflow-128x100g".to_string(),
        switches: 2,
        hosts_per_switch: 16,
        inter_links_per_pair: 16,
    };
    Snapshot::capture(&spec, true, ctl.manager(), &configs).unwrap().encode()
}

/// What a daemon restart does with a file: decode it, then restore it.
fn load(text: &str) -> Result<SliceManager, String> {
    let snap = Snapshot::decode(text).map_err(|e| e.to_string())?;
    snap.restore().map(|(mgr, _)| mgr).map_err(|e| e.to_string())
}

#[test]
fn a_torn_snapshot_file_is_never_taken() {
    let text = two_slice_snapshot();
    assert!(load(&text).is_ok());
    for cut in 0..text.len() {
        let torn = String::from_utf8_lossy(&text.as_bytes()[..cut]);
        assert!(load(&torn).is_err(), "a prefix of {cut} bytes loaded");
    }
}

#[test]
fn a_snapshot_with_one_byte_changed_is_refused_or_read_as_what_it_says() {
    let text = two_slice_snapshot();
    let mut bytes = text.clone().into_bytes();
    let (mut taken, mut refused, mut restored) = (0, 0, 0);
    for at in 0..bytes.len() {
        let original = bytes[at];
        for replacement in [b'"', b'\\', b'}', b',', b'0', b'9', 0xff, original ^ 1] {
            bytes[at] = replacement;
            match Snapshot::decode(&String::from_utf8_lossy(&bytes)) {
                Ok(snap) => {
                    taken += 1;
                    let encoded = snap.encode();
                    let again = Snapshot::decode(&encoded)
                        .unwrap_or_else(|e| panic!("byte {at} -> {replacement:#x}: {e}"));
                    assert_eq!(again.encode(), encoded, "byte {at} -> {replacement:#x}");
                    // Restore indexes by the decoded values: it refuses what
                    // does not fit, by name, and never panics.
                    if snap.restore().is_ok() {
                        restored += 1;
                    }
                }
                Err(_) => refused += 1,
            }
        }
        bytes[at] = original;
    }
    // Every arm ran: digits and string bytes mutate into other valid
    // files, structure and keys do not, and some mutations (a name, an
    // epoch count) still restore.
    assert!(taken > 0 && refused > taken, "{taken} taken, {refused} refused");
    assert!(restored > 0 && restored < taken, "{restored} of {taken} taken restored");
}

#[test]
fn numbers_that_do_not_fit_their_field_are_refused_by_name() {
    let text = two_slice_snapshot();
    for (from, to, why) in [
        ("\"epochs\":", "\"epochs\":-", "epochs: not an unsigned integer"),
        ("\"assignment\":[", "\"assignment\":[18446744073709551616,", "not an unsigned integer"),
        ("\"next_id\":2", "\"next_id\":4294967298", "next_id: out of u32 range"),
        ("\"require_deadlock_free\":true", "\"require_deadlock_free\":1", "require_deadlock_free: not a bool"),
    ] {
        assert!(text.contains(from), "the snapshot has no {from} to edit");
        let e = Snapshot::decode(&text.replacen(from, to, 1)).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains(why), "{to}: {e}");
    }
}

/// Restore routes each slice the way admission does, deadlock gate
/// included, under the snapshot's own flag: a ring-5 routed by BFS, admitted
/// while the gate was off, is refused by name once the file says the gate
/// is on — not brought back with a cyclic channel dependency graph.
#[test]
fn restore_runs_the_deadlock_gate_the_snapshot_names() {
    let text = format!(
        "{}\n[routing]\nstrategy = \"bfs\"\nrequire_deadlock_free = false\n",
        cfg("kind = \"ring\"\nn = 5")
    );
    let c = TestbedConfig::parse(&text).unwrap();
    let mut ctl = SliceController::from_config(&c);
    let id = ctl.create(c.topology.name(), &c.topology, &c.strategy).unwrap();
    let spec = ClusterSpec::of_config(&c).unwrap();
    let configs = BTreeMap::from([(id.0, text)]);
    let mut snap = Snapshot::capture(&spec, false, ctl.manager(), &configs).unwrap();
    assert!(snap.restore().is_ok(), "the gate is off: the slice comes back");
    snap.require_deadlock_free = true;
    let e = snap.restore().map(|_| ()).unwrap_err().to_string();
    assert!(e.contains("slice-0: routing rejected: channel dependency cycle of length 5"), "{e}");
}
