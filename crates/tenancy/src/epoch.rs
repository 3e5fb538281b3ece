//! Epoched flow-mod batches — the unit of multi-tenant reconfiguration.
//!
//! Every mutation the [`crate::SliceManager`] performs on the shared
//! switches — admitting a slice, reconfiguring it, tearing it down — is
//! first materialized as an [`Epoch`]: the complete set of additions and
//! deletions, each targeted at a (physical switch, pipeline table). Before
//! anything is applied, [`Epoch::verify`] proves that every mod's match
//! space lies inside the owning slice's namespace and outside every other
//! slice's — so a reconfiguration *cannot* touch a co-tenant's rules, by
//! construction and by check.
//!
//! Application order implements make-before-break:
//!
//! 1. **adds, table 1 first** — new routing entries become matchable before
//!    any port steers to them;
//! 2. **adds, table 0** — new classify entries land *behind* the old ones
//!    (same priority, stable insertion order), so the old pipeline keeps
//!    winning first-match until step 3;
//! 3. **deletes, table 0 first** — removing an old classify entry is the
//!    per-port atomic cutover to the already-installed new pipeline;
//! 4. **deletes, table 1** — only then is the old routing state garbage
//!    collected.
//!
//! At no instant does a port classify into a sub-switch whose routing
//! entries are absent, and at no instant is another slice's state touched.

use crate::SliceId;
use sdt_core::synthesis::SynthesisOutput;
use sdt_openflow::{diff_positions, install_time_ns, FlowEntry, FlowMatch, FlowMod, PortNo};
use std::collections::HashSet;
use std::fmt;

/// One entry installation, targeted at a switch and pipeline table.
#[derive(Clone, Copy, Debug)]
pub struct EpochAdd {
    /// Physical switch.
    pub switch: u32,
    /// Pipeline table (0 or 1).
    pub table: u8,
    /// Entry to install.
    pub entry: FlowEntry,
}

/// One strict deletion (exact match + priority), targeted like an add.
#[derive(Clone, Copy, Debug)]
pub struct EpochDelete {
    /// Physical switch.
    pub switch: u32,
    /// Pipeline table (0 or 1).
    pub table: u8,
    /// Match of the entry to remove.
    pub m: FlowMatch,
    /// Priority of the entry to remove.
    pub priority: u16,
}

/// A verified, atomic batch of flow-mods belonging to exactly one slice.
#[derive(Clone, Debug, Default)]
pub struct Epoch {
    /// The slice this epoch mutates.
    pub slice: SliceId,
    /// Entries to install (applied first: table 1, then table 0).
    pub adds: Vec<EpochAdd>,
    /// Entries to remove (applied last: table 0, then table 1).
    pub deletes: Vec<EpochDelete>,
}

/// The match-space a slice owns on the shared fabric: its ingress ports
/// (table 0) and its metadata range (table 1). Two slices' spaces are
/// disjoint by construction; [`Epoch::verify`] re-proves it per epoch.
#[derive(Clone, Debug, Default)]
pub struct OwnedSpace {
    /// (physical switch, ingress port) pairs whose table-0 entries belong
    /// to the slice. Probed by key; iterated only to pour one set into
    /// another ([`OwnedSpace::merge`]), so its order reaches no output.
    pub ports: HashSet<(u32, PortNo)>,
    /// Metadata ranges `[base, base + len)` scoping the slice's table-1
    /// entries. More than one range only transiently, mid-reconfiguration.
    pub metadata: Vec<(u32, u32)>,
}

impl OwnedSpace {
    /// Does the space own this ingress port?
    pub fn contains_port(&self, switch: u32, port: PortNo) -> bool {
        self.ports.contains(&(switch, port))
    }

    /// Does the space own this metadata value?
    pub fn contains_metadata(&self, md: u32) -> bool {
        self.metadata.iter().any(|&(base, len)| md >= base && md - base < len)
    }

    /// Absorb another space (used to union "all other slices").
    pub fn merge(&mut self, other: &OwnedSpace) {
        self.ports.extend(other.ports.iter().copied());
        self.metadata.extend(other.metadata.iter().copied());
    }
}

/// Why an epoch failed verification. Any of these firing means a manager
/// bug, not an operator error — the manager refuses to apply the epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochViolation {
    /// A mod targets an ingress port owned by another slice.
    ForeignPort {
        /// Physical switch.
        switch: u32,
        /// The foreign port.
        port: PortNo,
    },
    /// A table-0 mod targets a port the slice does not own.
    UnownedPort {
        /// Physical switch.
        switch: u32,
        /// The unowned port.
        port: PortNo,
    },
    /// A mod's metadata lies in another slice's range.
    ForeignMetadata {
        /// Physical switch.
        switch: u32,
        /// The foreign metadata value.
        metadata: u32,
    },
    /// A table-1 mod's metadata is outside the slice's ranges.
    UnownedMetadata {
        /// Physical switch.
        switch: u32,
        /// The unowned metadata value.
        metadata: u32,
    },
    /// A mod's match is not scoped at all (no in-port on table 0, no
    /// metadata on table 1) — it could match co-tenant traffic.
    UnscopedMatch {
        /// Physical switch.
        switch: u32,
        /// Pipeline table.
        table: u8,
    },
}

impl fmt::Display for EpochViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochViolation::ForeignPort { switch, port } => {
                write!(f, "switch {switch}: mod touches foreign port {}", port.0)
            }
            EpochViolation::UnownedPort { switch, port } => {
                write!(f, "switch {switch}: mod touches unowned port {}", port.0)
            }
            EpochViolation::ForeignMetadata { switch, metadata } => {
                write!(f, "switch {switch}: mod touches foreign metadata {metadata}")
            }
            EpochViolation::UnownedMetadata { switch, metadata } => {
                write!(f, "switch {switch}: mod touches unowned metadata {metadata}")
            }
            EpochViolation::UnscopedMatch { switch, table } => {
                write!(f, "switch {switch} table {table}: unscoped match")
            }
        }
    }
}

/// What applying an epoch cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochReport {
    /// Entries installed.
    pub adds: usize,
    /// Entries removed.
    pub deletes: usize,
    /// Flow-mods on the busiest switch (switches install in parallel).
    pub max_mods_one_switch: usize,
    /// Modeled wall-clock of the epoch, ns (busiest switch + barrier).
    pub install_time_ns: u64,
}

impl EpochReport {
    /// Total flow-mods sent.
    pub fn flow_mods(&self) -> usize {
        self.adds + self.deletes
    }
}

/// One switch's table-`table` entries of a synthesized pipeline (empty for
/// a switch the pipeline does not reach).
pub fn synthesis_entries(s: &SynthesisOutput, switch: usize, table: u8) -> &[FlowEntry] {
    let tables = if table == 0 { &s.table0 } else { &s.table1 };
    tables.get(switch).map_or(&[], Vec::as_slice)
}

impl Epoch {
    /// Diff two synthesized pipelines into an epoch: exactly the mods that
    /// turn `old` into `new`, table by table, switch by switch. Entries
    /// present in both stay untouched, which is what keeps same-family
    /// reconfigurations proportional to the delta.
    pub fn from_diff(slice: SliceId, old: &SynthesisOutput, new: &SynthesisOutput) -> Epoch {
        let num_switches = old.table0.len().max(new.table0.len());
        let tables = || (0..num_switches).flat_map(|sw| [(sw, 0u8), (sw, 1u8)]);
        let diffs: Vec<_> = tables()
            .map(|(sw, t)| {
                diff_positions(synthesis_entries(old, sw, t), synthesis_entries(new, sw, t))
            })
            .collect();
        let mut epoch = Epoch {
            slice,
            adds: Vec::with_capacity(diffs.iter().map(|(_, fresh)| fresh.len()).sum()),
            deletes: Vec::with_capacity(diffs.iter().map(|(gone, _)| gone.len()).sum()),
        };
        for ((sw, table), (gone, fresh)) in tables().zip(diffs) {
            let switch = sw as u32;
            let (old, new) = (synthesis_entries(old, sw, table), synthesis_entries(new, sw, table));
            epoch.deletes.extend(gone.iter().map(|&i| {
                let FlowEntry { m, priority, .. } = old[i];
                EpochDelete { switch, table, m, priority }
            }));
            epoch.adds.extend(fresh.iter().map(|&j| EpochAdd { switch, table, entry: new[j] }));
        }
        epoch
    }

    /// Flow-mods this epoch sends to each switch (adds + deletes).
    pub fn mods_per_switch(&self, num_switches: usize) -> Vec<usize> {
        let mut per = vec![0usize; num_switches];
        for a in &self.adds {
            per[a.switch as usize] += 1;
        }
        for d in &self.deletes {
            per[d.switch as usize] += 1;
        }
        per
    }

    /// *Adds* this epoch sends to each switch — the transient extra table
    /// occupancy make-before-break needs headroom for.
    pub fn adds_per_switch(&self, num_switches: usize) -> Vec<usize> {
        let mut per = vec![0usize; num_switches];
        for a in &self.adds {
            per[a.switch as usize] += 1;
        }
        per
    }

    /// Prove that every mod in the epoch stays inside `own` (the epoch's
    /// slice, old ∪ new namespace) and outside `others` (the union of every
    /// co-tenant's namespace). This is the "provably never touch another
    /// slice's rules" guarantee: table-0 mods must name an owned, non-foreign
    /// ingress port; table-1 mods an owned, non-foreign metadata value.
    pub fn verify(&self, own: &OwnedSpace, others: &OwnedSpace) -> Result<(), EpochViolation> {
        let check = |switch: u32, table: u8, m: &FlowMatch| -> Result<(), EpochViolation> {
            match table {
                0 => {
                    let Some(port) = m.in_port else {
                        return Err(EpochViolation::UnscopedMatch { switch, table });
                    };
                    if others.contains_port(switch, port) {
                        return Err(EpochViolation::ForeignPort { switch, port });
                    }
                    if !own.contains_port(switch, port) {
                        return Err(EpochViolation::UnownedPort { switch, port });
                    }
                    Ok(())
                }
                _ => {
                    let Some(md) = m.metadata else {
                        return Err(EpochViolation::UnscopedMatch { switch, table });
                    };
                    if others.contains_metadata(md) {
                        return Err(EpochViolation::ForeignMetadata { switch, metadata: md });
                    }
                    if !own.contains_metadata(md) {
                        return Err(EpochViolation::UnownedMetadata { switch, metadata: md });
                    }
                    Ok(())
                }
            }
        };
        for a in &self.adds {
            check(a.switch, a.table, &a.entry.m)?;
        }
        for d in &self.deletes {
            check(d.switch, d.table, &d.m)?;
        }
        Ok(())
    }

    /// The epoch lowered to wire order: the exact `(switch, table,
    /// flow-mod)` sequence make-before-break application sends — adds table
    /// 1 → table 0, then deletes table 0 → table 1, with a same-(match,
    /// priority) delete+add pair applied as an in-place replacement
    /// (OpenFlow MODIFY: the add is held back and lands right after its
    /// delete, otherwise the delete would wipe its own replacement).
    ///
    /// Both the manager's install and the static pre-install check replay
    /// this sequence, so what the verifier proves is byte-for-byte what the
    /// switches receive.
    pub fn ordered_mods(&self) -> Vec<(u32, u8, FlowMod)> {
        self.ordered().0
    }

    /// [`Epoch::ordered_mods`] and the index at which its delete phase
    /// starts. That index is all the atomic units need: before it every
    /// mod is a unit of its own, from it on a unit is a delete and the adds
    /// that follow it (its replacements).
    pub(crate) fn ordered(&self) -> (Vec<(u32, u8, FlowMod)>, usize) {
        // Adds and deletes by position, each sorted by key — one pass over
        // an epoch diffed out of ordered tables. Equal delete keys stay in
        // position order, so a merge meets the first delete of a key first:
        // the one an add of the same key rides behind.
        let add_key = |&i: &u32| {
            let a = &self.adds[i as usize];
            (a.switch, a.table, a.entry.m.order_key(a.entry.priority))
        };
        let delete_key = |&i: &u32| {
            let d = &self.deletes[i as usize];
            (d.switch, d.table, d.m.order_key(d.priority))
        };
        let mut by_key: Vec<u32> = (0..self.adds.len() as u32).collect();
        by_key.sort_unstable_by_key(add_key);
        let mut deletes: Vec<u32> = (0..self.deletes.len() as u32).collect();
        deletes.sort_by_key(delete_key);
        // Per add: the position of the delete it rides, if one shares its key.
        const ALONE: u32 = u32::MAX;
        let mut rides = vec![ALONE; self.adds.len()];
        let mut deletes = deletes.iter().peekable();
        for a in &by_key {
            let key = add_key(a);
            while deletes.next_if(|&d| delete_key(d) < key).is_some() {}
            if let Some(&&d) = deletes.peek().filter(|&&d| delete_key(d) == key) {
                rides[*a as usize] = d;
            }
        }
        // Held-back adds per table: (position of their delete, own position).
        let mut held: [Vec<(u32, u32)>; 2] = Default::default();
        let mut mods = Vec::with_capacity(self.adds.len() + self.deletes.len());
        for table in [1u8, 0u8] {
            for (i, a) in self.adds.iter().enumerate().filter(|(_, a)| a.table == table) {
                match rides[i] {
                    ALONE => mods.push((a.switch, a.table, FlowMod::Add(a.entry))),
                    at => held[usize::from(table)].push((at, i as u32)),
                }
            }
        }
        let deletes_from = mods.len();
        for table in [0u8, 1u8] {
            // Stable: adds sharing a delete keep their order. The deletes
            // of one table are then met in the order their adds are held.
            let held = &mut held[usize::from(table)];
            held.sort_by_key(|&(at, _)| at);
            let mut held = held.iter().peekable();
            for (at, d) in self.deletes.iter().enumerate().filter(|(_, d)| d.table == table) {
                mods.push((d.switch, d.table, FlowMod::Delete(d.m, d.priority)));
                while let Some(&(_, i)) = held.next_if(|&&(of, _)| of == at as u32) {
                    mods.push((d.switch, d.table, FlowMod::Add(self.adds[i as usize].entry)));
                }
            }
        }
        (mods, deletes_from)
    }

    /// Build the report for this epoch (before or after applying it).
    pub fn report(&self, num_switches: usize) -> EpochReport {
        let max = self.mods_per_switch(num_switches).into_iter().max().unwrap_or(0);
        EpochReport {
            adds: self.adds.len(),
            deletes: self.deletes.len(),
            max_mods_one_switch: max,
            install_time_ns: install_time_ns(max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_openflow::{Action, HostAddr};

    fn t0_entry(port: u16, md: u32) -> FlowEntry {
        FlowEntry {
            m: FlowMatch::on_port(PortNo(port)),
            priority: 10,
            action: Action::WriteMetadataGoto(md),
        }
    }

    fn t1_entry(md: u32, dst: u32, out: u16) -> FlowEntry {
        FlowEntry {
            m: FlowMatch::to_dst(HostAddr(dst)).and_metadata(md),
            priority: 10,
            action: Action::Output(PortNo(out)),
        }
    }

    fn synth(t0: Vec<FlowEntry>, t1: Vec<FlowEntry>) -> SynthesisOutput {
        let entries = t0.len() + t1.len();
        SynthesisOutput {
            table0: vec![t0],
            table1: vec![t1],
            entries_per_switch: vec![entries],
        }
    }

    #[test]
    fn diff_splits_adds_and_deletes_by_table() {
        let old = synth(vec![t0_entry(1, 100)], vec![t1_entry(100, 7, 1)]);
        let new = synth(vec![t0_entry(2, 100)], vec![t1_entry(100, 7, 2)]);
        let e = Epoch::from_diff(SliceId(0), &old, &new);
        assert_eq!(e.adds.len(), 2);
        assert_eq!(e.deletes.len(), 2);
        assert_eq!(e.mods_per_switch(1), vec![4]);
        assert_eq!(e.adds_per_switch(1), vec![2]);
    }

    #[test]
    fn verify_rejects_foreign_and_unowned_matches() {
        let own = OwnedSpace {
            ports: [(0, PortNo(1))].into_iter().collect(),
            metadata: vec![(100, 4)],
        };
        let others = OwnedSpace {
            ports: [(0, PortNo(9))].into_iter().collect(),
            metadata: vec![(200, 4)],
        };
        let mk = |t0: Vec<FlowEntry>, t1: Vec<FlowEntry>| {
            Epoch::from_diff(SliceId(0), &synth(vec![], vec![]), &synth(t0, t1))
        };
        assert_eq!(mk(vec![t0_entry(1, 100)], vec![t1_entry(100, 0, 1)]).verify(&own, &others), Ok(()));
        assert!(matches!(
            mk(vec![t0_entry(9, 100)], vec![]).verify(&own, &others),
            Err(EpochViolation::ForeignPort { .. })
        ));
        assert!(matches!(
            mk(vec![t0_entry(3, 100)], vec![]).verify(&own, &others),
            Err(EpochViolation::UnownedPort { .. })
        ));
        assert!(matches!(
            mk(vec![], vec![t1_entry(201, 0, 1)]).verify(&own, &others),
            Err(EpochViolation::ForeignMetadata { .. })
        ));
        assert!(matches!(
            mk(vec![], vec![t1_entry(50, 0, 1)]).verify(&own, &others),
            Err(EpochViolation::UnownedMetadata { .. })
        ));
        // A table-1 entry with no metadata scope is never acceptable.
        let unscoped = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(0)),
            priority: 10,
            action: Action::Output(PortNo(1)),
        };
        assert!(matches!(
            mk(vec![], vec![unscoped]).verify(&own, &others),
            Err(EpochViolation::UnscopedMatch { table: 1, .. })
        ));
    }

    #[test]
    fn report_models_busiest_switch() {
        let old = synth(vec![], vec![]);
        let new = synth(vec![t0_entry(1, 100)], vec![t1_entry(100, 7, 1)]);
        let e = Epoch::from_diff(SliceId(0), &old, &new);
        let r = e.report(1);
        assert_eq!(r.adds, 2);
        assert_eq!(r.deletes, 0);
        assert_eq!(r.flow_mods(), 2);
        assert_eq!(r.max_mods_one_switch, 2);
        assert_eq!(r.install_time_ns, install_time_ns(2));
    }
}
