//! Cross-slice isolation audit by probe injection — the **test oracle**
//! the static proof is checked against.
//!
//! Production code never runs this: every install is gated by the
//! `sdt-verify` proof and every operator report renders that proof
//! ([`SliceManager::verify_report`]). The audit stays, like
//! `Verifier::check_plain` and `FlowTable::linear_lookup_with`, as
//! an independent second opinion for `tests/verify_differential.rs`: it
//! shares no code with the verifier, walks real packets through the *live*
//! shared tables with the one walker in [`sdt_core::walk`], and must reach
//! the same totals and the same verdict. Probes move table and port
//! counters like any traffic, hence `&mut` — which is exactly why it is not
//! a production step. [`SliceAudit::run`] checks:
//!
//! 1. **structural**: pairwise-disjoint (switch, in-port) sets from the
//!    installed table-0 entries; pairwise-disjoint metadata ranges;
//! 2. **intra-slice**: every ordered host pair of every slice walks the
//!    shared dataplane and must behave exactly as in a single-tenant
//!    deployment (delivered within a connected component, dropped across);
//! 3. **cross-slice**: every (host of A, host of B) probe must be dropped —
//!    a delivery anywhere is a leak;
//! 4. **diagnostics**: dead (shadowed) rules are attributed to the slice
//!    that owns them, and entries owned by nobody are counted as orphans.
//!    These are capacity-hygiene warnings, not isolation failures.

use crate::manager::{Slice, SliceId, SliceManager};
use sdt_core::cluster::PhysPort;
use sdt_core::walk::{walk_addrs, WalkEnd};
use sdt_openflow::{shadowed_entries, FlowEntry, HostAddr, PortNo};
use sdt_topology::HostId;
use std::collections::HashMap;
use std::fmt;

/// One slice's behavioral audit results.
#[derive(Clone, Debug)]
pub struct SliceAuditEntry {
    /// Slice id.
    pub id: SliceId,
    /// Slice name.
    pub name: String,
    /// Intra-slice ordered pairs delivered correctly.
    pub delivered: usize,
    /// Intra-slice cross-component pairs correctly dropped.
    pub isolated: usize,
    /// Intra-slice violations (wrong destination, unexpected drop, loop).
    pub violations: Vec<(HostId, HostId, String)>,
    /// Dead rules this slice owns on the live switches: installed entries
    /// that can never match because a higher-priority entry covers them.
    /// They waste table capacity silently (§VII-C) — surfaced here so the
    /// tenant, not the operator, gets the bill.
    pub shadowed: usize,
}

/// Where a cross-slice probe ended up when it should have been dropped.
#[derive(Clone, Debug)]
pub struct CrossLeak {
    /// Slice the probe was injected in.
    pub from_slice: SliceId,
    /// Source host (local to `from_slice`).
    pub src: HostId,
    /// Slice the probe was addressed to.
    pub to_slice: SliceId,
    /// Destination host (local to `to_slice`).
    pub dst: HostId,
    /// What happened instead of a drop.
    pub outcome: String,
}

impl fmt::Display for CrossLeak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} host {} -> {} host {}: {}",
            self.from_slice, self.src.0, self.to_slice, self.dst.0, self.outcome
        )
    }
}

/// The full multi-tenant audit report.
#[derive(Clone, Debug, Default)]
pub struct SliceAudit {
    /// Per-slice behavioral results, in id order.
    pub per_slice: Vec<SliceAuditEntry>,
    /// (switch, port) classified by more than one slice's table-0 — must be
    /// empty.
    pub port_overlaps: Vec<(u32, PortNo)>,
    /// Slice pairs with intersecting metadata ranges — must be empty.
    pub metadata_overlaps: Vec<(SliceId, SliceId)>,
    /// Cross-slice probes that were not dropped — must be empty.
    pub cross_leaks: Vec<CrossLeak>,
    /// Cross-slice probes correctly dropped.
    pub cross_isolated: usize,
    /// Live entries owned by no admitted slice (stale state the manager
    /// failed to garbage-collect) — must be zero.
    pub orphan_entries: usize,
}

impl SliceAudit {
    /// True when every isolation property holds. Shadowed rules are
    /// diagnostics, not violations — a clean audit may still report them.
    pub fn clean(&self) -> bool {
        self.port_overlaps.is_empty()
            && self.metadata_overlaps.is_empty()
            && self.cross_leaks.is_empty()
            && self.orphan_entries == 0
            && self.per_slice.iter().all(|s| s.violations.is_empty())
    }

    /// Run the audit over the manager's live switches, one probe at a
    /// time: per slice, its intra-slice pairs source-major, then its row of
    /// every cross-slice matrix target-slice-major.
    pub fn run(mgr: &mut SliceManager) -> SliceAudit {
        // Snapshot the slices; the walks below need the switches mutably.
        let slices: Vec<Slice> = mgr.slices().cloned().collect();
        let cluster = mgr.cluster().clone();
        let mut audit = SliceAudit::default();

        // ---- 1. structural disjointness -------------------------------
        let mut port_owner: HashMap<(u32, PortNo), SliceId> = HashMap::new();
        for s in &slices {
            for (sw, t0) in s.projection.synthesis.table0.iter().enumerate() {
                for e in t0 {
                    let Some(p) = e.m.in_port else { continue };
                    if let Some(prev) = port_owner.insert((sw as u32, p), s.id) {
                        if prev != s.id {
                            audit.port_overlaps.push((sw as u32, p));
                        }
                    }
                }
            }
        }
        for (i, a) in slices.iter().enumerate() {
            for b in &slices[i + 1..] {
                let (a0, a1) = (a.metadata_base, a.metadata_base + a.metadata_reserved);
                let (b0, b1) = (b.metadata_base, b.metadata_base + b.metadata_reserved);
                if a0 < b1 && b0 < a1 {
                    audit.metadata_overlaps.push((a.id, b.id));
                }
            }
        }

        // ---- 4. ownership / orphans / shadowing -----------------------
        // Attribute every live entry: table 0 by ingress port, table 1 by
        // metadata range. Anything unattributable is an orphan.
        let owner_of = |sw: u32, table: u8, e: &FlowEntry| -> Option<SliceId> {
            if table == 0 {
                e.m.in_port.and_then(|p| port_owner.get(&(sw, p)).copied())
            } else {
                let md = e.m.metadata?;
                slices
                    .iter()
                    .find(|s| md >= s.metadata_base && md < s.metadata_base + s.metadata_reserved)
                    .map(|s| s.id)
            }
        };
        let mut shadowed_of: HashMap<SliceId, usize> = HashMap::new();
        for sw in mgr.switches() {
            for table in [0u8, 1u8] {
                let entries = sw.table(table).entries();
                audit.orphan_entries +=
                    entries.iter().filter(|e| owner_of(sw.id(), table, e).is_none()).count();
                for e in shadowed_entries(entries) {
                    if let Some(id) = owner_of(sw.id(), table, &e) {
                        *shadowed_of.entry(id).or_insert(0) += 1;
                    }
                }
            }
        }

        // ---- 2 & 3. behavioral walks ----------------------------------
        // Host-port ownership across all slices, for classifying where a
        // probe actually landed.
        let mut host_owner: HashMap<PhysPort, (SliceId, HostId)> = HashMap::new();
        for s in &slices {
            for (&(h, _), &pp) in &s.projection.host_port {
                host_owner.insert(pp, (s.id, h));
            }
        }
        let switches = mgr.switches_mut();
        let mut probe = |from: &Slice, src: HostId, dst: HostAddr| {
            let start = from.projection.primary_host_port(&from.topology, src);
            match walk_addrs(&cluster, switches, start, from.host_addr(src), dst).0 {
                // Egress on an unassigned host port: the packet left the
                // fabric but reached nobody.
                WalkEnd::Egress(pp) if !host_owner.contains_key(&pp) => {
                    WalkEnd::Dropped(pp.switch)
                }
                end => end,
            }
        };
        for s in &slices {
            let mut entry = SliceAuditEntry {
                id: s.id,
                name: s.name.clone(),
                delivered: 0,
                isolated: 0,
                violations: Vec::new(),
                shadowed: shadowed_of.get(&s.id).copied().unwrap_or(0),
            };
            let comp = s.topology.component_of();
            let hosts = |t: &Slice| (0..t.topology.num_hosts()).map(HostId);
            for (src, dst) in hosts(s).flat_map(|a| hosts(s).map(move |b| (a, b))) {
                if src == dst {
                    continue;
                }
                let same = comp[s.topology.host_switch(src).idx()]
                    == comp[s.topology.host_switch(dst).idx()];
                let why = match probe(s, src, s.host_addr(dst)) {
                    WalkEnd::Egress(pp) if same && host_owner[&pp] == (s.id, dst) => {
                        entry.delivered += 1;
                        continue;
                    }
                    WalkEnd::Dropped(_) if !same => {
                        entry.isolated += 1;
                        continue;
                    }
                    WalkEnd::Egress(pp) => {
                        let (sid, h) = host_owner[&pp];
                        format!("delivered to {sid} host {} (same-component = {same})", h.0)
                    }
                    WalkEnd::Dropped(at) => format!("dropped at switch {at}"),
                    WalkEnd::Looped => "forwarding loop".into(),
                };
                entry.violations.push((src, dst, why));
            }
            for t in slices.iter().filter(|t| t.id != s.id) {
                for (src, dst) in hosts(s).flat_map(|a| hosts(t).map(move |b| (a, b))) {
                    let outcome = match probe(s, src, t.host_addr(dst)) {
                        WalkEnd::Dropped(_) => {
                            audit.cross_isolated += 1;
                            continue;
                        }
                        WalkEnd::Egress(pp) => {
                            let (sid, h) = host_owner[&pp];
                            format!("delivered to {sid} host {}", h.0)
                        }
                        WalkEnd::Looped => "forwarding loop".into(),
                    };
                    audit.cross_leaks.push(CrossLeak {
                        from_slice: s.id,
                        src,
                        to_slice: t.id,
                        dst,
                        outcome,
                    });
                }
            }
            audit.per_slice.push(entry);
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_routes;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_topology::chain::{chain, ring};
    use sdt_topology::meshtorus::mesh;

    fn manager() -> SliceManager {
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(12)
            .build();
        SliceManager::new(cluster)
    }

    #[test]
    fn three_slices_audit_clean() {
        let mut mgr = manager();
        mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        mgr.create("b", &ring(5), default_routes(&ring(5))).unwrap();
        mgr.create("c", &mesh(&[2, 2]), default_routes(&mesh(&[2, 2]))).unwrap();
        let audit = SliceAudit::run(&mut mgr);
        assert!(audit.clean(), "audit not clean: {audit:?}");
        // Every slice's hosts talk among themselves...
        for s in &audit.per_slice {
            assert!(s.delivered > 0, "{}: nothing delivered", s.name);
            assert!(s.violations.is_empty());
        }
        // ...and every cross-slice probe died: 2 * (4*5 + 4*4 + 5*4).
        assert_eq!(audit.cross_isolated, 2 * (4 * 5 + 4 * 4 + 5 * 4));
        assert!(audit.cross_leaks.is_empty());
    }

    #[test]
    fn audit_reflects_destroy() {
        let mut mgr = manager();
        mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let b = mgr.create("b", &ring(5), default_routes(&ring(5))).unwrap();
        mgr.destroy(b).unwrap();
        let audit = SliceAudit::run(&mut mgr);
        assert!(audit.clean(), "stale state after destroy: {audit:?}");
        assert_eq!(audit.per_slice.len(), 1);
        assert_eq!(audit.orphan_entries, 0);
    }

    #[test]
    fn audit_survives_reconfiguration() {
        let mut mgr = manager();
        mgr.create("a", &chain(4), default_routes(&chain(4))).unwrap();
        let b = mgr.create("b", &ring(5), default_routes(&ring(5))).unwrap();
        mgr.create("c", &mesh(&[2, 2]), default_routes(&mesh(&[2, 2]))).unwrap();
        mgr.reconfigure(b, &chain(5), default_routes(&chain(5))).unwrap();
        let audit = SliceAudit::run(&mut mgr);
        assert!(audit.clean(), "audit not clean after reconfigure: {audit:?}");
    }
}
