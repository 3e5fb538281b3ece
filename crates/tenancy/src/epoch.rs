//! Epoched flow-mod batches — the unit of multi-tenant reconfiguration.
//!
//! Every mutation the [`crate::SliceManager`] performs on the shared
//! switches — admitting a slice, reconfiguring it, tearing it down — is
//! first materialized as an [`Epoch`]: one batch of `(physical switch,
//! pipeline table, flow-mod)` triples, stored in the order the switches
//! receive them. [`Epoch::from_diff`] is the one place that order is
//! decided. Before anything is applied, [`Epoch::verify`] proves that
//! every mod's match space lies inside the owning slice's namespace and
//! outside every other slice's — so a reconfiguration *cannot* touch a
//! co-tenant's rules, by construction and by check.
//!
//! The wire order implements make-before-break in four layers, each one
//! round of a scheduled install ([`crate::schedule::compile_rounds`]):
//!
//! 1. **make, round 0** — the table-1 adds: new routing entries become
//!    matchable before any port steers to them; then the table-0 adds
//!    whose metadata gains no new table-1 route on their switch;
//! 2. **make, round 1** — the other table-0 adds, each after the routes
//!    it steers into. Every table-0 add is on a port no surviving entry
//!    classifies: a table-0 entry keys on its ingress port alone, so a
//!    port's reclassification shares its old entry's (match, priority) key
//!    and rides that entry's delete (below), and the old pipeline keeps
//!    every port it still classifies until the cutover;
//! 3. **cutover** — the table-0 deletes: removing an old classify entry is
//!    the per-port atomic cutover to the already-installed new pipeline;
//!    then the table-1 deletes that adds ride (in-place route repoints,
//!    whose class stays live throughout);
//! 4. **collect** — every other table-1 delete: only then is the old
//!    routing state garbage collected.
//!
//! An add that shares a delete's (switch, table, match, priority) key is an
//! in-place replacement (OpenFlow MODIFY): `FlowMod::Delete` removes by
//! (match, priority), so adding first would get the replacement wiped by
//! its own delete. Such an add leaves the make layers and lands right after
//! the last delete of its key instead; an entry kept under a deleted key
//! (only a table holding the key twice has one) is sent again there, since
//! the delete strikes it too — and so every delete of that key is sent in
//! the cutover, before it. [`Epoch::from_diff`] decides the layers along
//! with the order and records where each ends ([`Epoch::layers`]). The
//! manager's install, the static pre-install gate and the round compiler
//! all read this one sequence, so what the verifier proves is
//! byte-for-byte what the switches receive.
//!
//! At no instant does a port classify into a sub-switch whose routing
//! entries are absent, and at no instant is another slice's state touched.

use crate::SliceId;
use sdt_core::synthesis::SynthesisOutput;
use sdt_openflow::{diff_positions, install_time_ns, Action, FlowEntry, FlowMod, FxBuild, PortNo};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A verified, atomic batch of flow-mods belonging to exactly one slice.
#[derive(Clone, Debug, Default)]
pub struct Epoch {
    /// The slice this epoch mutates.
    pub slice: SliceId,
    /// `(switch, table, flow-mod)` in wire order (see the module docs):
    /// what the gate proves and the manager installs. One immutable
    /// buffer, shared — never copied — by every
    /// [`crate::schedule::Round`] compiled from the epoch; an `Arc<Vec>`
    /// rather than an `Arc<[_]>`, so the vector [`Epoch::from_diff`] fills
    /// at its final size is moved in, not copied.
    pub mods: Arc<Vec<(u32, u8, FlowMod)>>,
    /// The wire order's four layers, in order: make round 0, make round 1,
    /// cutover, collect (see the module docs). Each starts where the one
    /// before it ends; the last ends at `mods.len()`.
    pub layers: [Layer; 4],
}

/// One layer of an [`Epoch`]'s wire order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layer {
    /// Where the layer ends in [`Epoch::mods`] (exclusive).
    pub end: usize,
    /// Atomic units in the layer: a lone add, a lone delete, or a delete
    /// with the adds that ride it (an in-place MODIFY, never split).
    pub units: usize,
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
    tables.get(switch).map_or(&[], |t| &t[..])
}

/// One switch's table of a diff: the positions `old` loses, in position
/// order, and per such delete whether adds ride its key (a MODIFY); the
/// positions of `new` to add whose key no delete shares; and the other
/// adds as (rank in `gone` of the delete each rides, position), by rank.
struct TableDiff<'a> {
    old: &'a [FlowEntry],
    new: &'a [FlowEntry],
    gone: Vec<usize>,
    modify: Vec<bool>,
    alone: Vec<usize>,
    riders: Vec<(usize, usize)>,
}

impl<'a> TableDiff<'a> {
    fn new(old: &'a [FlowEntry], new: &'a [FlowEntry]) -> Self {
        let (gone, fresh) = diff_positions(old, new);
        // Both sides by key: one comparison per element on a table already
        // in entry order. Equal delete keys go last position first, so the
        // merge meets the last delete of a key first: the one its adds ride,
        // which no later delete of the key can strike.
        let key = |e: &FlowEntry| e.m.order_key(e.priority);
        let mut deletes: Vec<usize> = (0..gone.len()).collect();
        deletes.sort_by_key(|&k| (key(&old[gone[k]]), Reverse(k)));
        // Every entry of `new`, not only the fresh ones, meets the deletes:
        // a delete strikes every entry of its key, so an entry `new` keeps
        // under a deleted key is sent again behind it. Only a table that
        // holds a key twice has one; synthesis never emits such a table.
        let mut by_key: Vec<usize> = (0..new.len()).collect();
        by_key.sort_unstable_by_key(|&j| key(&new[j]));
        // Per entry of `new`: the rank in `gone` of the delete it rides.
        let mut rides = vec![None; new.len()];
        let mut next = deletes.iter().copied().peekable();
        for j in by_key {
            let k = key(&new[j]);
            while next.next_if(|&d| key(&old[gone[d]]) < k).is_some() {}
            rides[j] = next.peek().copied().filter(|&d| key(&old[gone[d]]) == k);
        }
        let (mut alone, mut riders) = (Vec::new(), Vec::new());
        let mut fresh = fresh.into_iter().peekable();
        for (j, ride) in rides.into_iter().enumerate() {
            let is_fresh = fresh.next_if_eq(&j).is_some();
            match ride {
                Some(k) => riders.push((k, j)),
                None if is_fresh => alone.push(j),
                None => {}
            }
        }
        // Stable: the adds riding one delete keep their position order.
        riders.sort_by_key(|&(k, _)| k);
        // Every delete of a ridden key is part of its MODIFY: an earlier
        // one sent after the riders would strike them. Each key's deletes
        // are adjacent in `deletes`, the ridden one first, so only a delete
        // right behind a MODIFY's needs its key compared.
        let mut modify = vec![false; gone.len()];
        for &(k, _) in &riders {
            modify[k] = true;
        }
        for pair in deletes.windows(2) {
            if modify[pair[0]] && !modify[pair[1]] {
                modify[pair[1]] = key(&old[gone[pair[0]]]) == key(&old[gone[pair[1]]]);
            }
        }
        TableDiff { old, new, gone, modify, alone, riders }
    }

    /// Append the deletes `send` picks by rank, in position order, each
    /// followed by the adds that ride it; returns how many deletes — units
    /// — that was.
    fn send_deletes(
        &self,
        sw: u32,
        table: u8,
        send: impl Fn(usize) -> bool,
        mods: &mut Vec<(u32, u8, FlowMod)>,
    ) -> usize {
        let mut riders = self.riders.iter().peekable();
        let mut sent = 0;
        for (k, &i) in self.gone.iter().enumerate().filter(|&(k, _)| send(k)) {
            let FlowEntry { m, priority, .. } = self.old[i];
            mods.push((sw, table, FlowMod::Delete(m, priority)));
            while riders.next_if(|&&(of, _)| of < k).is_some() {}
            while let Some(&(_, j)) = riders.next_if(|&&(of, _)| of == k) {
                mods.push((sw, table, FlowMod::Add(self.new[j])));
            }
            sent += 1;
        }
        sent
    }
}

impl Epoch {
    /// Diff two synthesized pipelines into an epoch: exactly the mods that
    /// turn `old` into `new`, in wire order. Entries present in both stay
    /// untouched, which is what keeps same-family reconfigurations
    /// proportional to the delta.
    ///
    /// Each part of a layer (module docs) runs switch by switch, each
    /// switch's mods in table position order; an add rides the last
    /// delete, in `old`'s position order, of its own key.
    pub fn from_diff(slice: SliceId, old: &SynthesisOutput, new: &SynthesisOutput) -> Epoch {
        let num_switches = old.table0.len().max(new.table0.len());
        let diffs: Vec<[TableDiff; 2]> = (0..num_switches)
            .map(|sw| {
                [0, 1].map(|t| {
                    TableDiff::new(synthesis_entries(old, sw, t), synthesis_entries(new, sw, t))
                })
            })
            .collect();
        let size = diffs.iter().flatten().map(|d| d.gone.len() + d.alone.len() + d.riders.len());
        let mut mods = Vec::with_capacity(size.sum());
        let mut layers = [Layer::default(); 4];
        // Make: the lone adds of table 1, noting the metadata values that
        // gain a route on each switch (keyed lookups only, never iterated);
        // then those of table 0, a round later when they steer into one.
        let mut fresh: HashSet<(u32, u32), FxBuild> = HashSet::default();
        for (sw, [_, d]) in diffs.iter().enumerate() {
            for e in d.alone.iter().map(|&j| d.new[j]) {
                fresh.extend(e.m.metadata.map(|md| (sw as u32, md)));
                mods.push((sw as u32, 1, FlowMod::Add(e)));
            }
        }
        let mut steering = Vec::new();
        for (sw, [d, _]) in diffs.iter().enumerate() {
            for e in d.alone.iter().map(|&j| d.new[j]) {
                let waits = matches!(e.action,
                    Action::WriteMetadataGoto(md) if fresh.contains(&(sw as u32, md)));
                let add = (sw as u32, 0, FlowMod::Add(e));
                if waits {
                    steering.push(add);
                } else {
                    mods.push(add);
                }
            }
        }
        layers[0] = Layer { end: mods.len(), units: mods.len() };
        layers[1] = Layer { end: mods.len() + steering.len(), units: steering.len() };
        mods.append(&mut steering);
        // Cutover: every table-0 delete, then the table-1 deletes of the
        // MODIFYs; collect: the other table-1 deletes. Each delete is
        // followed by the adds that ride it.
        let mut units = 0;
        for (sw, [d, _]) in diffs.iter().enumerate() {
            units += d.send_deletes(sw as u32, 0, |_| true, &mut mods);
        }
        for (sw, [_, d]) in diffs.iter().enumerate() {
            units += d.send_deletes(sw as u32, 1, |k| d.modify[k], &mut mods);
        }
        layers[2] = Layer { end: mods.len(), units };
        let mut units = 0;
        for (sw, [_, d]) in diffs.iter().enumerate() {
            units += d.send_deletes(sw as u32, 1, |k| !d.modify[k], &mut mods);
        }
        layers[3] = Layer { end: mods.len(), units };
        Epoch { slice, mods: Arc::new(mods), layers }
    }

    /// Flow-mods this epoch sends to each switch (adds + deletes).
    pub fn mods_per_switch(&self, num_switches: usize) -> Vec<usize> {
        self.per_switch(num_switches, |_| true)
    }

    /// *Adds* this epoch sends to each switch — the transient extra table
    /// occupancy make-before-break needs headroom for.
    pub fn adds_per_switch(&self, num_switches: usize) -> Vec<usize> {
        self.per_switch(num_switches, |m| matches!(m, FlowMod::Add(_)))
    }

    fn per_switch(&self, num_switches: usize, counts: impl Fn(&FlowMod) -> bool) -> Vec<usize> {
        let mut per = vec![0usize; num_switches];
        for (sw, _, _) in self.mods.iter().filter(|(_, _, m)| counts(m)) {
            per[*sw as usize] += 1;
        }
        per
    }

    /// Prove that every mod in the epoch stays inside `own` (the epoch's
    /// slice, old ∪ new namespace) and outside `others` (the union of every
    /// co-tenant's namespace). This is the "provably never touch another
    /// slice's rules" guarantee: table-0 mods must name an owned, non-foreign
    /// ingress port; table-1 mods an owned, non-foreign metadata value.
    /// The first offending mod in wire order is named.
    pub fn verify(&self, own: &OwnedSpace, others: &OwnedSpace) -> Result<(), EpochViolation> {
        for &(switch, table, ref m) in self.mods.iter() {
            let m = match m {
                FlowMod::Add(e) => &e.m,
                FlowMod::Delete(m, _) => m,
            };
            if table == 0 {
                let Some(port) = m.in_port else {
                    return Err(EpochViolation::UnscopedMatch { switch, table });
                };
                if others.contains_port(switch, port) {
                    return Err(EpochViolation::ForeignPort { switch, port });
                }
                if !own.contains_port(switch, port) {
                    return Err(EpochViolation::UnownedPort { switch, port });
                }
            } else {
                let Some(md) = m.metadata else {
                    return Err(EpochViolation::UnscopedMatch { switch, table });
                };
                if others.contains_metadata(md) {
                    return Err(EpochViolation::ForeignMetadata { switch, metadata: md });
                }
                if !own.contains_metadata(md) {
                    return Err(EpochViolation::UnownedMetadata { switch, metadata: md });
                }
            }
        }
        Ok(())
    }

    /// Build the report for this epoch (before or after applying it).
    pub fn report(&self, num_switches: usize) -> EpochReport {
        let max = self.mods_per_switch(num_switches).into_iter().max().unwrap_or(0);
        let adds = self.mods.iter().filter(|(_, _, m)| matches!(m, FlowMod::Add(_))).count();
        EpochReport {
            adds,
            deletes: self.mods.len() - adds,
            max_mods_one_switch: max,
            install_time_ns: install_time_ns(max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_openflow::{Action, FlowMatch, HostAddr};

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
            table0: vec![t0.into()],
            table1: vec![t1.into()],
            entries_per_switch: vec![entries],
        }
    }

    #[test]
    fn diff_splits_adds_and_deletes_by_table() {
        let old = synth(vec![t0_entry(1, 100)], vec![t1_entry(100, 7, 1)]);
        let new = synth(vec![t0_entry(2, 100)], vec![t1_entry(100, 7, 2)]);
        let e = Epoch::from_diff(SliceId(0), &old, &new);
        let r = e.report(1);
        assert_eq!((r.adds, r.deletes), (2, 2));
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
