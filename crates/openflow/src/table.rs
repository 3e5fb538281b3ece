//! Priority-matched flow tables with capacity accounting.

use crate::index::EntryStore;
use crate::{HostAddr, PortNo};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wildcard-able match over the fields SDT programs: ingress port, pipeline
/// metadata (OpenFlow 1.3 multi-table), plus an IPv4-style 5-tuple subset.
/// `None` matches anything.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Pipeline metadata written by an earlier table (sub-switch id in SDT).
    pub metadata: Option<u32>,
    /// Source host address.
    pub src: Option<HostAddr>,
    /// Destination host address.
    pub dst: Option<HostAddr>,
    /// L4 source port.
    pub l4_src: Option<u16>,
    /// L4 destination port.
    pub l4_dst: Option<u16>,
}

impl FlowMatch {
    /// Match anything.
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// Match a specific ingress port (the sub-switch domain restriction).
    pub fn on_port(in_port: PortNo) -> Self {
        FlowMatch { in_port: Some(in_port), ..Default::default() }
    }

    /// Match a destination host (routing entry).
    pub fn to_dst(dst: HostAddr) -> Self {
        FlowMatch { dst: Some(dst), ..Default::default() }
    }

    /// Restrict this match to an ingress port.
    pub fn and_port(mut self, p: PortNo) -> Self {
        self.in_port = Some(p);
        self
    }

    /// Restrict this match to pipeline metadata (sub-switch id).
    pub fn and_metadata(mut self, m: u32) -> Self {
        self.metadata = Some(m);
        self
    }

    /// Where an entry with this match and `priority` stands among a table's
    /// entries — what a strict delete names, in the order of
    /// [`FlowEntry::order_key`].
    pub fn order_key(&self, priority: u16) -> impl Ord {
        let FlowMatch { in_port, metadata, src, dst, l4_src, l4_dst } = *self;
        (Reverse(priority), in_port, metadata, dst, src, l4_src, l4_dst)
    }

    /// Does this match cover every packet the `other` match covers?
    ///
    /// Field-wise: each of `self`'s constraints is either absent (wildcard)
    /// or equal to `other`'s constraint on the same field.
    pub fn covers(&self, other: &FlowMatch) -> bool {
        covers(self, other)
    }

    /// The exact intersection of two match spaces: the match that fits
    /// precisely the packets fitting both, or `None` when they are disjoint.
    ///
    /// Because every field is equality-or-wildcard, the intersection of two
    /// matches is always itself expressible as a single match (the field-wise
    /// meet), so this operation is exact — no set of residual matches needed.
    pub fn intersect(&self, other: &FlowMatch) -> Option<FlowMatch> {
        fn meet<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> Result<Option<T>, ()> {
            match (a, b) {
                (None, x) | (x, None) => Ok(x),
                (Some(x), Some(y)) if x == y => Ok(Some(x)),
                _ => Err(()),
            }
        }
        Some(FlowMatch {
            in_port: meet(self.in_port, other.in_port).ok()?,
            metadata: meet(self.metadata, other.metadata).ok()?,
            src: meet(self.src, other.src).ok()?,
            dst: meet(self.dst, other.dst).ok()?,
            l4_src: meet(self.l4_src, other.l4_src).ok()?,
            l4_dst: meet(self.l4_dst, other.l4_dst).ok()?,
        })
    }

    /// Do the two match spaces share at least one packet?
    pub fn overlaps(&self, other: &FlowMatch) -> bool {
        self.intersect(other).is_some()
    }

    /// Does a packet (with current pipeline metadata) fit this match?
    pub fn matches(&self, m: &PacketMeta, metadata: Option<u32>) -> bool {
        fn ok<T: PartialEq>(field: Option<T>, v: T) -> bool {
            field.is_none_or(|f| f == v)
        }
        let meta_ok = match self.metadata {
            None => true,
            Some(want) => metadata == Some(want),
        };
        meta_ok
            && ok(self.in_port, m.in_port)
            && ok(self.src, m.src)
            && ok(self.dst, m.dst)
            && ok(self.l4_src, m.l4_src)
            && ok(self.l4_dst, m.l4_dst)
    }
}

/// The packet header fields a switch pipeline inspects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PacketMeta {
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Source host.
    pub src: HostAddr,
    /// Destination host.
    pub dst: HostAddr,
    /// L4 source port.
    pub l4_src: u16,
    /// L4 destination port.
    pub l4_dst: u16,
}

/// Forwarding action of a flow entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// Emit on a port.
    Output(PortNo),
    /// Drop the packet (domain isolation).
    Drop,
    /// OpenFlow 1.3 `write-metadata` + `goto-table`: stamp the packet with
    /// metadata (SDT uses the sub-switch id) and continue in the next table.
    WriteMetadataGoto(u32),
}

/// One flow rule: match + priority + action.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowEntry {
    /// Match fields.
    pub m: FlowMatch,
    /// Higher priority wins.
    pub priority: u16,
    /// Action on match.
    pub action: Action,
}

impl FlowEntry {
    /// The one order on entries, by their (match, priority) key: priority
    /// descending (scan order), then `in_port`, `metadata`, `dst`, `src`,
    /// `l4_src`, `l4_dst`. A table holds one entry per key, so it is a
    /// total order on any table's entries. Every table keeps its entries in
    /// it, whatever order they were installed in ([`EntryStore::apply`]),
    /// and the table diff and the epoch's delete/add pairing merge along
    /// it.
    pub fn order_key(&self) -> impl Ord {
        self.m.order_key(self.priority)
    }
}

/// Flow-table modification messages (the controller→switch protocol subset
/// SDT uses), with OpenFlow 1.3's semantics: a table holds one entry per
/// (match, priority) key.
#[derive(Clone, Debug)]
pub enum FlowMod {
    /// Install an entry (OFPFC_ADD): it replaces the entry with identical
    /// match and priority, if the table holds one.
    Add(FlowEntry),
    /// Remove the entry whose (match, priority) equal the given ones
    /// exactly (OFPFC_DELETE_STRICT); a no-op if there is none.
    Delete(FlowMatch, u16),
}

/// Errors from table mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableError {
    /// Capacity exhausted (paper §VII-C): the projection does not fit.
    TableFull {
        /// Configured entry capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::TableFull { capacity } => {
                write!(f, "flow table full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Aggregate occupancy statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Installed entries.
    pub entries: usize,
    /// Total lookups served.
    pub lookups: u64,
    /// Lookups that matched no entry.
    pub misses: u64,
}

/// A priority-ordered flow table with bounded capacity: an [`EntryStore`]
/// (the entries, their order, their tier index and the one `apply`) plus
/// what only a live switch table has — a capacity and lookup/miss counters.
///
/// The store is held behind an `Arc` and shared copy-on-write: the
/// synthesized pipeline a switch was instantiated from
/// ([`FlowTable::adopt`]), a proof's view of the table
/// ([`FlowTable::shared_store`]) and a cloned bank hold the same allocation
/// until [`FlowTable::apply`] next writes to it, and only then is it copied
/// — by whoever writes, once.
///
/// Lookups are served from the store's multi-tier hash index (built by
/// the table's first lookup, patched by every mod after it), so cost is
/// O(tiers), not O(entries); [`FlowTable::linear_lookup_with`] keeps the
/// original scan as a differential-testing oracle.
#[derive(Debug)]
pub struct FlowTable {
    store: Arc<EntryStore>,
    capacity: usize,
    /// Lookup/miss tallies, bumped from `&self` lookups that may run on
    /// many verifier/audit threads at once.
    ///
    /// **Ordering contract**: every access is `Relaxed`, and that is
    /// sufficient — each counter is a single memory location touched only
    /// by `fetch_add` (an atomic read-modify-write, so no increment can be
    /// lost regardless of ordering) and standalone `load`s that feed
    /// stats reports. Nothing is *published* through these counters: no
    /// other memory access is ordered against them, so no release/acquire
    /// edge is needed. The quiesced totals are therefore exact under any
    /// interleaving (`tests/index_differential.rs` probes one shared table
    /// from eight threads and checks them); only the momentary values seen
    /// by a concurrent `stats()` depend on timing.
    lookups: AtomicU64,
    misses: AtomicU64,
    /// Entries deep-copied by copy-on-write: a write to a store still
    /// shared adds the store's length. Bumped only from `&mut self`.
    entries_copied: u64,
    /// Entries a Delete visited: each adds the store's length, the
    /// entries [`EntryStore::apply`]'s `retain` walks. Bumped only from
    /// `&mut self`.
    entries_scanned: u64,
}

impl Clone for FlowTable {
    fn clone(&self) -> Self {
        FlowTable {
            store: Arc::clone(&self.store),
            capacity: self.capacity,
            entries_copied: self.entries_copied,
            entries_scanned: self.entries_scanned,
            // Relaxed: a clone takes a point-in-time sample of each
            // counter independently. Cloning a table that is concurrently
            // being probed may catch `lookups` and `misses` from slightly
            // different instants, which is fine — nothing reads the two
            // tallies as one consistent pair.
            lookups: AtomicU64::new(self.lookups.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

impl FlowTable {
    /// An empty table holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        FlowTable {
            store: Arc::default(),
            capacity,
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries_copied: 0,
            entries_scanned: 0,
        }
    }

    /// Installed entry count.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Apply a flow-mod: refuse an Add past capacity, else
    /// [`EntryStore::apply`]. An Add at capacity is refused even when it
    /// would replace an entry rather than grow the table: admission's
    /// headroom check keeps every table below capacity, so no install of
    /// the controller's meets the case.
    pub fn apply(&mut self, m: FlowMod) -> Result<(), TableError> {
        match m {
            FlowMod::Add(_) if self.len() >= self.capacity => {
                return Err(TableError::TableFull { capacity: self.capacity });
            }
            FlowMod::Delete(..) => self.entries_scanned += self.len() as u64,
            FlowMod::Add(_) => {}
        }
        // A store still shared with a view, a bank or a synthesized
        // pipeline is copied first: that copy is what `entries_copied` counts.
        if Arc::get_mut(&mut self.store).is_none() {
            self.entries_copied += self.len() as u64;
        }
        Arc::make_mut(&mut self.store).apply(&m);
        Ok(())
    }

    /// Make `store` this table's entries, whole and shared — no entry
    /// copied until the next write ([`FlowTable::apply`]). Refused, with
    /// the table left as it was, if the store holds more than `capacity`.
    pub fn adopt(&mut self, store: Arc<EntryStore>) -> Result<(), TableError> {
        if store.entries().len() > self.capacity {
            return Err(TableError::TableFull { capacity: self.capacity });
        }
        self.store = store;
        Ok(())
    }

    /// Entries this table has deep-copied by copy-on-write: the length of
    /// every shared store a write had to copy first.
    pub fn entries_copied(&self) -> u64 {
        self.entries_copied
    }

    /// Entries this table's Deletes have visited: the table's length at
    /// each Delete, what [`EntryStore::apply`] scans to strike its key.
    pub fn entries_scanned(&self) -> u64 {
        self.entries_scanned
    }

    /// Highest-priority matching action, or `None` on a table miss.
    ///
    /// Within a priority level the table is **first-match-wins in key
    /// order** ([`FlowEntry::order_key`]): [`EntryStore::apply`] keeps the
    /// entries in it, and lookup resolves in it, so of two equal-priority
    /// overlapping entries the one whose match sorts first fires, whatever
    /// order they were installed in. OpenFlow leaves overlapping
    /// same-priority rules switch-defined — a function of the entry set
    /// here, but not one a real switch promises, which is why the static
    /// verifier flags such pairs as nondeterminism warnings.
    pub fn lookup(&self, meta: &PacketMeta) -> Option<Action> {
        self.lookup_with(meta, None)
    }

    /// Lookup with pipeline metadata from an earlier table. Same
    /// first-match-wins-within-priority contract as [`FlowTable::lookup`].
    ///
    /// [`EntryStore::lookup`] plus the counters: one lookup per call, one
    /// miss per `None`.
    pub fn lookup_with(&self, meta: &PacketMeta, metadata: Option<u32>) -> Option<Action> {
        // Relaxed RMW: a pure tally. No memory is published through this
        // counter and atomic read-modify-writes on one location never lose
        // increments, so the total is exact under any interleaving.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self.store.lookup(meta, metadata).map(|e| e.action);
        if hit.is_none() {
            // Relaxed RMW: same tally-only contract as `lookups` above.
            // `misses` is not ordered against `lookups` either — a
            // concurrent `stats()` may observe the lookup bump without
            // the miss bump, but never a miss without its lookup being
            // eventually counted.
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The pre-index O(entries) linear scan, kept as the reference
    /// implementation: differential tests compare
    /// [`FlowTable::lookup_with`] against it entry-for-entry and
    /// counter-for-counter (same single lookup bump, same miss bump).
    pub fn linear_lookup_with(&self, meta: &PacketMeta, metadata: Option<u32>) -> Option<Action> {
        // Relaxed RMWs, same contract (and same bump pattern) as
        // `lookup_with` — the differential tests depend on the two paths
        // moving the counters identically.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        for e in self.entries() {
            if e.m.matches(meta, metadata) {
                return Some(e.action);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Occupancy and lookup statistics.
    ///
    /// Counter reads are `Relaxed` point-in-time samples: exact once the
    /// probing threads have quiesced (joined), momentary while they run.
    /// The two counters are two independent relaxed loads with no ordering
    /// between them, so a report taken concurrently with probing can even
    /// show `misses` ahead of `lookups`: the `lookups` load may run before
    /// a probe's bump and the `misses` load after that probe's miss. Each
    /// sample is still bounded by its true total — counts are never
    /// invented, and quiesced totals are exact.
    pub fn stats(&self) -> TableStats {
        TableStats {
            entries: self.len(),
            lookups: self.lookups.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Installed entries, highest priority first.
    pub fn entries(&self) -> &[FlowEntry] {
        self.store.entries()
    }

    /// The table without its capacity and counters: what a proof or a
    /// schedule reads, so that no lookup it makes can be counted.
    pub fn store(&self) -> &EntryStore {
        &self.store
    }

    /// [`FlowTable::store`] as a share of the allocation — what a
    /// `TableView` of the live bank holds, one pointer per table.
    pub fn shared_store(&self) -> Arc<EntryStore> {
        Arc::clone(&self.store)
    }
}

/// Does match `a` cover every packet that `b` covers? (Field-wise: each of
/// `a`'s constraints is absent or equal to `b`'s.)
pub(crate) fn covers(a: &FlowMatch, b: &FlowMatch) -> bool {
    fn field<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
        match (a, b) {
            (None, _) => true,
            (Some(x), Some(y)) => x == y,
            (Some(_), None) => false,
        }
    }
    field(a.in_port, b.in_port)
        && field(a.metadata, b.metadata)
        && field(a.src, b.src)
        && field(a.dst, b.dst)
        && field(a.l4_src, b.l4_src)
        && field(a.l4_dst, b.l4_dst)
}

/// Entries that can never match because an earlier (higher- or
/// equal-priority) entry covers their entire match space. Shadowed entries
/// waste TCAM and usually indicate a synthesis bug; the SDT pipeline is
/// expected to produce none.
///
/// This is the *pairwise* check: it finds entries covered by a single
/// earlier rule. With every match field drawn from an unbounded value domain
/// that is also complete — if a union of rules covers an entry, then (pick a
/// per-field value distinct from every constraint in the union) one rule of
/// the union must cover it alone. Shadowing by a union of rules that no
/// single rule subsumes only becomes possible once a field's domain is
/// finite (a switch has finitely many ports; the pipeline writes finitely
/// many metadata values); use [`shadowed_entries_in`] with a
/// [`MatchUniverse`] for that complete check.
pub fn shadowed_entries(entries: &[FlowEntry]) -> Vec<FlowEntry> {
    // entries are priority-sorted descending (FlowTable order).
    let mut shadowed = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        for earlier in &entries[..i] {
            if earlier.priority >= e.priority && covers(&earlier.m, &e.m) {
                shadowed.push(*e);
                break;
            }
        }
    }
    shadowed
}

/// Finite value domains for the fields whose real-world range is bounded.
///
/// Match-space subtraction is relative to a universe: a rule matching
/// `in_port=*` is fully covered by one rule per physical port — but only if
/// the checker knows the port list is exhaustive. `None` means the field is
/// treated as unbounded (a fresh, never-constrained value always exists).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchUniverse {
    /// Every ingress port that can physically occur, or `None` if unbounded.
    pub in_ports: Option<Vec<PortNo>>,
    /// Every pipeline-metadata value the earlier tables can write, or `None`
    /// if unbounded.
    pub metadata: Option<Vec<u32>>,
}

impl MatchUniverse {
    /// A universe with no bounded fields (reduces every union-cover question
    /// to the pairwise one).
    pub fn unbounded() -> Self {
        MatchUniverse::default()
    }

    /// Universe for a switch with ports `0..num_ports` that can write the
    /// given metadata values.
    pub fn for_switch(num_ports: u16, metadata: impl IntoIterator<Item = u32>) -> Self {
        MatchUniverse {
            in_ports: Some((0..num_ports).map(PortNo).collect()),
            metadata: Some(metadata.into_iter().collect()),
        }
    }
}

/// A packet witnessing `target ∖ ⋃ covers` within `universe`, or `None` when
/// the union of `covers` subsumes all of `target` — i.e. match-space
/// subtraction, reported as an example residual point rather than a residual
/// region set.
///
/// The search splits `target` on one wildcarded-but-constrained field at a
/// time: for a bounded field it enumerates the universe values, for an
/// unbounded field the distinct constraint values plus one fresh value no
/// rule mentions. Each refinement binds a field, so the recursion depth is
/// at most the field count and the result is exact (no approximation in
/// either direction).
pub fn subtract_witness(
    target: &FlowMatch,
    covers: &[FlowMatch],
    universe: &MatchUniverse,
) -> Option<FlowMatch> {
    let live: Vec<FlowMatch> =
        covers.iter().filter(|c| c.overlaps(target)).copied().collect();
    witness_search(*target, &live, universe)
}

/// Field accessors used by the witness search, so splitting logic is written
/// once. `u32` is wide enough for every field's value type.
#[derive(Clone, Copy)]
enum Field {
    InPort,
    Metadata,
    Src,
    Dst,
    L4Src,
    L4Dst,
}

const FIELDS: [Field; 6] =
    [Field::InPort, Field::Metadata, Field::Src, Field::Dst, Field::L4Src, Field::L4Dst];

impl Field {
    fn get(self, m: &FlowMatch) -> Option<u32> {
        match self {
            Field::InPort => m.in_port.map(|p| u32::from(p.0)),
            Field::Metadata => m.metadata,
            Field::Src => m.src.map(|a| a.0),
            Field::Dst => m.dst.map(|a| a.0),
            Field::L4Src => m.l4_src.map(u32::from),
            Field::L4Dst => m.l4_dst.map(u32::from),
        }
    }

    fn set(self, m: &mut FlowMatch, v: u32) {
        match self {
            Field::InPort => m.in_port = Some(PortNo(v as u16)),
            Field::Metadata => m.metadata = Some(v),
            Field::Src => m.src = Some(HostAddr(v)),
            Field::Dst => m.dst = Some(HostAddr(v)),
            Field::L4Src => m.l4_src = Some(v as u16),
            Field::L4Dst => m.l4_dst = Some(v as u16),
        }
    }

    /// The finite domain for this field, if the universe bounds it.
    fn domain(self, u: &MatchUniverse) -> Option<Vec<u32>> {
        match self {
            Field::InPort => {
                u.in_ports.as_ref().map(|ps| ps.iter().map(|p| u32::from(p.0)).collect())
            }
            Field::Metadata => u.metadata.clone(),
            _ => None,
        }
    }
}

fn witness_search(
    target: FlowMatch,
    covers: &[FlowMatch],
    universe: &MatchUniverse,
) -> Option<FlowMatch> {
    if covers.iter().any(|c| c.covers(&target)) {
        return None; // this refinement is fully subsumed by a single rule
    }
    // Find a field where the target is wildcarded but some cover constrains:
    // that is the only way a union can cover what no single rule does.
    for f in FIELDS {
        if f.get(&target).is_some() {
            continue;
        }
        let constrained: Vec<u32> =
            covers.iter().filter_map(|c| f.get(c)).collect();
        if constrained.is_empty() {
            continue;
        }
        let branches: Vec<u32> = match f.domain(universe) {
            Some(domain) => domain,
            None => {
                // Unbounded: the named values, plus one fresh value that no
                // cover constrains this field to (always exists).
                let mut vs = constrained.clone();
                let fresh = (0..).find(|v| !constrained.contains(v));
                vs.extend(fresh);
                vs
            }
        };
        for v in branches {
            let mut refined = target;
            f.set(&mut refined, v);
            let still: Vec<FlowMatch> =
                covers.iter().filter(|c| c.overlaps(&refined)).copied().collect();
            if let Some(w) = witness_search(refined, &still, universe) {
                return Some(w);
            }
        }
        return None; // every refinement of this field was covered
    }
    // No cover constrains any field beyond the target, and none covers it
    // outright (checked above) — so no cover overlaps it at all.
    Some(target)
}

/// An entry that can never match, together with the earlier rules that
/// jointly cover its match space (one rule for classic pairwise shadowing,
/// several for union shadowing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowedEntry {
    /// The dead entry.
    pub entry: FlowEntry,
    /// The higher- or equal-priority rules whose union covers it.
    pub covered_by: Vec<FlowEntry>,
}

/// Complete shadow detection relative to a [`MatchUniverse`]: an entry is
/// shadowed when the *union* of earlier higher- or equal-priority rules
/// covers its whole match space, even if no single rule does.
///
/// The pairwise [`shadowed_entries`] check runs first as a fast pre-filter;
/// the subtraction search only runs for entries that overlap at least two
/// earlier rules without being singly covered.
pub fn shadowed_entries_in(entries: &[FlowEntry], universe: &MatchUniverse) -> Vec<ShadowedEntry> {
    let mut shadowed = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let earlier: Vec<&FlowEntry> = entries[..i]
            .iter()
            .filter(|x| x.priority >= e.priority && x.m.overlaps(&e.m))
            .collect();
        // Fast pairwise pre-filter: a single covering rule settles it.
        if let Some(one) = earlier.iter().find(|x| covers(&x.m, &e.m)) {
            shadowed.push(ShadowedEntry { entry: *e, covered_by: vec![**one] });
            continue;
        }
        if earlier.len() < 2 {
            continue; // a union needs at least two overlapping rules
        }
        let cover_matches: Vec<FlowMatch> = earlier.iter().map(|x| x.m).collect();
        if subtract_witness(&e.m, &cover_matches, universe).is_none() {
            shadowed.push(ShadowedEntry {
                entry: *e,
                covered_by: earlier.into_iter().copied().collect(),
            });
        }
    }
    shadowed
}

/// Walk `old` and `new` merged in entry order and hand `visit` every entry
/// the other side does not hold — `(false, i)` for `old[i]`, `(true, j)` for
/// `new[j]` — until it returns false; returns how many it was handed.
/// Sides are tables: each holds a (match, priority) key at most once.
pub(crate) fn each_absent(
    old: &[FlowEntry],
    new: &[FlowEntry],
    mut visit: impl FnMut(bool, usize) -> bool,
) -> usize {
    // One comparison per element on a side already in entry order — every
    // table's entries.
    let in_order = |side: &[FlowEntry]| {
        let mut at: Vec<usize> = (0..side.len()).collect();
        at.sort_unstable_by_key(|&i| side[i].order_key());
        at
    };
    let (olds, news) = (in_order(old), in_order(new));
    let (mut i, mut j, mut handed) = (0, 0, 0);
    while i < olds.len() || j < news.len() {
        let (a, b) = (olds.get(i).map(|&a| &old[a]), news.get(j).map(|&b| &new[b]));
        let (in_new, at) = match (a, b) {
            // Held by both.
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
                continue;
            }
            (Some(a), b) if b.is_none_or(|b| a.order_key() < b.order_key()) => {
                i += 1;
                (false, olds[i - 1])
            }
            _ => {
                j += 1;
                (true, news[j - 1])
            }
        };
        handed += 1;
        if !visit(in_new, at) {
            break;
        }
    }
    handed
}

/// [`diff_tables`] as positions: the entries of `old` that `new` lacks and
/// the entries of `new` that `old` lacks, each ascending.
pub fn diff_positions(old: &[FlowEntry], new: &[FlowEntry]) -> (Vec<usize>, Vec<usize>) {
    let (mut gone, mut fresh) = (Vec::new(), Vec::new());
    each_absent(old, new, |in_new, at| {
        if in_new { &mut fresh } else { &mut gone }.push(at);
        true
    });
    // Met in entry order; already ascending on a side kept in it.
    gone.sort_unstable();
    fresh.sort_unstable();
    (gone, fresh)
}

/// Do the two tables hold the same set of entries? Stops at the first one
/// they do not share.
pub fn same_entries(a: &[FlowEntry], b: &[FlowEntry]) -> bool {
    each_absent(a, b, |_, _| false) == 0
}

/// Incremental reconfiguration: the flow-mods turning the entry set `old`
/// into `new` (deletes first, in `old` order, then adds, in `new` order).
/// Unchanged entries are untouched, which is what keeps SDT
/// reconfigurations between *similar* topologies fast — only the delta
/// pays install latency.
pub fn diff_tables(old: &[FlowEntry], new: &[FlowEntry]) -> Vec<FlowMod> {
    let (gone, fresh) = diff_positions(old, new);
    let deletes = gone.iter().map(|&i| FlowMod::Delete(old[i].m, old[i].priority));
    deletes.chain(fresh.iter().map(|&j| FlowMod::Add(new[j]))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(in_port: u16, src: u32, dst: u32) -> PacketMeta {
        PacketMeta {
            in_port: PortNo(in_port),
            src: HostAddr(src),
            dst: HostAddr(dst),
            l4_src: 1000,
            l4_dst: 2000,
        }
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new(10);
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::any(),
            priority: 0,
            action: Action::Drop,
        }))
        .unwrap();
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::to_dst(HostAddr(7)),
            priority: 10,
            action: Action::Output(PortNo(3)),
        }))
        .unwrap();
        assert_eq!(t.lookup(&meta(0, 1, 7)), Some(Action::Output(PortNo(3))));
        assert_eq!(t.lookup(&meta(0, 1, 8)), Some(Action::Drop));
    }

    #[test]
    fn in_port_restriction() {
        let mut t = FlowTable::new(10);
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::to_dst(HostAddr(5)).and_port(PortNo(1)),
            priority: 5,
            action: Action::Output(PortNo(2)),
        }))
        .unwrap();
        assert_eq!(t.lookup(&meta(1, 9, 5)), Some(Action::Output(PortNo(2))));
        assert_eq!(t.lookup(&meta(3, 9, 5)), None, "wrong in-port must miss");
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut t = FlowTable::new(2);
        for i in 0..2 {
            t.apply(FlowMod::Add(FlowEntry {
                m: FlowMatch::to_dst(HostAddr(i)),
                priority: 1,
                action: Action::Drop,
            }))
            .unwrap();
        }
        let err = t
            .apply(FlowMod::Add(FlowEntry {
                m: FlowMatch::any(),
                priority: 1,
                action: Action::Drop,
            }))
            .unwrap_err();
        assert_eq!(err, TableError::TableFull { capacity: 2 });
    }

    #[test]
    fn clear_and_delete() {
        let mut t = FlowTable::new(10);
        let m1 = FlowMatch::to_dst(HostAddr(1));
        let m2 = FlowMatch::to_dst(HostAddr(2));
        for m in [m1, m2] {
            t.apply(FlowMod::Add(FlowEntry { m, priority: 1, action: Action::Drop })).unwrap();
        }
        t.apply(FlowMod::Delete(m1, 1)).unwrap();
        assert_eq!(t.len(), 1);
        // Wrong priority deletes nothing.
        t.apply(FlowMod::Delete(m2, 9)).unwrap();
        assert_eq!(t.len(), 1);
        t.apply(FlowMod::Delete(m2, 1)).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn diff_produces_minimal_mods() {
        let e = |dst: u32, port: u16| FlowEntry {
            m: FlowMatch::to_dst(HostAddr(dst)),
            priority: 1,
            action: Action::Output(PortNo(port)),
        };
        let old = [e(1, 1), e(2, 2), e(3, 3)];
        let new = [e(2, 2), e(3, 9), e(4, 4)];
        let mods = diff_tables(&old, &new);
        // Remove dst1 and dst3@3; add dst3@9 and dst4: 4 mods, not 6.
        assert_eq!(mods.len(), 4);
        let dels = mods.iter().filter(|m| matches!(m, FlowMod::Delete(..))).count();
        assert_eq!(dels, 2);
        // Applying the diff really transforms the table.
        let mut t = FlowTable::new(10);
        for &entry in &old {
            t.apply(FlowMod::Add(entry)).unwrap();
        }
        for m in mods {
            t.apply(m).unwrap();
        }
        let mut have: Vec<FlowEntry> = t.entries().to_vec();
        let mut want = new.to_vec();
        have.sort_by_key(|e| e.m.dst);
        want.sort_by_key(|e| e.m.dst);
        assert_eq!(have, want);
    }

    #[test]
    fn shadow_detection() {
        let any_drop = FlowEntry { m: FlowMatch::any(), priority: 10, action: Action::Drop };
        let specific = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(5)),
            priority: 5,
            action: Action::Output(PortNo(1)),
        };
        // The catch-all at higher priority shadows the specific entry.
        assert_eq!(shadowed_entries(&[any_drop, specific]), vec![specific]);
        // Reversed priorities: nothing shadowed (specific matches first).
        let specific_hi = FlowEntry { priority: 20, ..specific };
        assert!(shadowed_entries(&[specific_hi, any_drop]).is_empty());
        // Disjoint matches never shadow.
        let other = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(6)),
            priority: 5,
            action: Action::Drop,
        };
        assert!(shadowed_entries(&[specific_hi, other]).is_empty());
    }

    #[test]
    fn diff_identity_is_empty() {
        let e = FlowEntry { m: FlowMatch::any(), priority: 0, action: Action::Drop };
        assert!(diff_tables(&[e], &[e]).is_empty());
    }

    #[test]
    fn cover_intersect_overlap_algebra() {
        let port0 = FlowMatch::on_port(PortNo(0));
        let dst5 = FlowMatch::to_dst(HostAddr(5));
        let both = FlowMatch::to_dst(HostAddr(5)).and_port(PortNo(0));
        assert!(FlowMatch::any().covers(&both));
        assert!(port0.covers(&both) && dst5.covers(&both));
        assert!(!both.covers(&port0));
        // Intersection is the field-wise meet.
        assert_eq!(port0.intersect(&dst5), Some(both));
        assert_eq!(both.intersect(&both), Some(both));
        // Conflicting constraints are disjoint.
        let port1 = FlowMatch::on_port(PortNo(1));
        assert_eq!(port0.intersect(&port1), None);
        assert!(!port0.overlaps(&port1));
        assert!(port0.overlaps(&dst5));
    }

    #[test]
    fn subtract_witness_finds_uncovered_point() {
        let u = MatchUniverse::unbounded();
        // dst=5 minus {dst=5 ∧ port=0} leaves e.g. (dst=5, port=fresh).
        let w = subtract_witness(
            &FlowMatch::to_dst(HostAddr(5)),
            &[FlowMatch::to_dst(HostAddr(5)).and_port(PortNo(0))],
            &u,
        )
        .expect("not fully covered");
        assert_eq!(w.dst, Some(HostAddr(5)));
        assert_ne!(w.in_port, Some(PortNo(0)));
        // Full coverage by a single wildcard rule.
        assert_eq!(subtract_witness(&FlowMatch::to_dst(HostAddr(5)), &[FlowMatch::any()], &u), None);
    }

    #[test]
    fn union_shadow_needs_bounded_universe() {
        // Two per-port rules jointly cover the catch-all only when the port
        // universe is known to be exactly {0, 1}.
        let per_port = |p: u16| FlowEntry {
            m: FlowMatch::on_port(PortNo(p)),
            priority: 10,
            action: Action::Output(PortNo(p)),
        };
        let catch_all = FlowEntry { m: FlowMatch::any(), priority: 5, action: Action::Drop };
        let entries = [per_port(0), per_port(1), catch_all];
        // Pairwise: no single rule covers the catch-all.
        assert!(shadowed_entries(&entries).is_empty());
        // Unbounded universe: a fresh port witnesses the residual space.
        assert!(shadowed_entries_in(&entries, &MatchUniverse::unbounded()).is_empty());
        // Bounded universe: the union is complete — shadowed, both rules named.
        let u = MatchUniverse::for_switch(2, []);
        let found = shadowed_entries_in(&entries, &u);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].entry, catch_all);
        assert_eq!(found[0].covered_by, vec![per_port(0), per_port(1)]);
    }

    #[test]
    fn union_shadow_pairwise_prefilter_still_reports_single_cover() {
        let any_hi = FlowEntry { m: FlowMatch::any(), priority: 9, action: Action::Drop };
        let dead = FlowEntry {
            m: FlowMatch::on_port(PortNo(3)),
            priority: 1,
            action: Action::Output(PortNo(0)),
        };
        let found = shadowed_entries_in(&[any_hi, dead], &MatchUniverse::unbounded());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].covered_by, vec![any_hi]);
    }

    #[test]
    fn lower_priority_rules_never_shadow() {
        // A union of *lower*-priority rules does not shadow the rule above
        // it, even when the union covers the whole universe.
        let per_port = |p: u16| FlowEntry {
            m: FlowMatch::on_port(PortNo(p)),
            priority: 2,
            action: Action::Output(PortNo(p)),
        };
        let target = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(7)),
            priority: 5,
            action: Action::Drop,
        };
        let entries = [target, per_port(0), per_port(1)];
        let found = shadowed_entries_in(&entries, &MatchUniverse::for_switch(2, []));
        // The dst=7 rule is live; the per-port rules are only *partially*
        // covered by it (dst=7 slice), so nothing is shadowed.
        assert!(found.is_empty(), "unexpected shadows: {found:?}");
    }

    /// Two Adds of one (match, priority) key: the later replaces the
    /// earlier, as OpenFlow's ADD does, so the table holds the key once.
    #[test]
    fn a_later_add_of_a_key_replaces_the_earlier() {
        let mut t = FlowTable::new(10);
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::on_port(PortNo(0)),
            priority: 5,
            action: Action::Output(PortNo(1)),
        }))
        .unwrap();
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::on_port(PortNo(0)),
            priority: 5,
            action: Action::Output(PortNo(2)),
        }))
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&meta(0, 0, 0)), Some(Action::Output(PortNo(2))));
    }

    /// Pin the tier index against the linear-scan oracle on a mixed-tier
    /// table, through interleaved deletes and re-adds.
    #[test]
    fn indexed_path_matches_linear_oracle() {
        let mut t = FlowTable::new(128);
        for dst in 0..12u32 {
            t.apply(FlowMod::Add(FlowEntry {
                m: FlowMatch::to_dst(HostAddr(dst)),
                priority: 10,
                action: Action::Output(PortNo(dst as u16)),
            }))
            .unwrap();
        }
        for port in 0..4u16 {
            t.apply(FlowMod::Add(FlowEntry {
                m: FlowMatch::on_port(PortNo(port)),
                priority: 4,
                action: Action::WriteMetadataGoto(u32::from(port)),
            }))
            .unwrap();
        }
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::to_dst(HostAddr(3)).and_metadata(2),
            priority: 20,
            action: Action::Drop,
        }))
        .unwrap();
        t.apply(FlowMod::Add(FlowEntry { m: FlowMatch::any(), priority: 0, action: Action::Drop }))
            .unwrap();
        t.apply(FlowMod::Delete(FlowMatch::to_dst(HostAddr(5)), 10)).unwrap();
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch::to_dst(HostAddr(5)),
            priority: 10,
            action: Action::Output(PortNo(31)),
        }))
        .unwrap();
        for in_port in 0..6u16 {
            for dst in 0..14u32 {
                for md in [None, Some(2), Some(7)] {
                    let p = meta(in_port, 1, dst);
                    assert_eq!(
                        t.lookup_with(&p, md),
                        t.linear_lookup_with(&p, md),
                        "in_port={in_port} dst={dst} md={md:?}"
                    );
                }
            }
        }
        // Both paths bumped the counters identically: equal lookup totals,
        // equal miss totals (each probe ran once per path).
        let s = t.stats();
        assert_eq!(s.lookups % 2, 0);
        assert_eq!(s.misses % 2, 0);
    }

    /// The index resolves a priority level in key order even when the
    /// equal-priority entries live in different tiers: installed in either
    /// order, the dst-tier entry (no `in_port`, which sorts first) wins, and
    /// once it is deleted the port-tier entry does — each tier wins once.
    #[test]
    fn indexed_first_match_follows_key_order_across_tiers() {
        let by_port = FlowEntry {
            m: FlowMatch::on_port(PortNo(1)),
            priority: 5,
            action: Action::Output(PortNo(8)),
        };
        let by_dst = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(9)),
            priority: 5,
            action: Action::Output(PortNo(9)),
        };
        for pair in [[by_port, by_dst], [by_dst, by_port]] {
            let mut t = FlowTable::new(32);
            // Non-matching higher-priority entries ahead of the pair.
            for dst in 100..110u32 {
                t.apply(FlowMod::Add(FlowEntry {
                    m: FlowMatch::to_dst(HostAddr(dst)),
                    priority: 50,
                    action: Action::Drop,
                }))
                .unwrap();
            }
            for e in pair {
                t.apply(FlowMod::Add(e)).unwrap();
            }
            let p = meta(1, 0, 9);
            assert_eq!(t.lookup(&p), Some(Action::Output(PortNo(9))));
            assert_eq!(t.lookup(&p), t.linear_lookup_with(&p, None));
            t.apply(FlowMod::Delete(by_dst.m, 5)).unwrap();
            assert_eq!(t.lookup(&p), Some(Action::Output(PortNo(8))));
            assert_eq!(t.lookup(&p), t.linear_lookup_with(&p, None));
        }
    }

    #[test]
    fn five_tuple_fields_match() {
        let mut t = FlowTable::new(4);
        t.apply(FlowMod::Add(FlowEntry {
            m: FlowMatch {
                in_port: None,
                metadata: None,
                src: Some(HostAddr(1)),
                dst: Some(HostAddr(2)),
                l4_src: Some(1000),
                l4_dst: Some(2000),
            },
            priority: 9,
            action: Action::Output(PortNo(4)),
        }))
        .unwrap();
        assert_eq!(t.lookup(&meta(0, 1, 2)), Some(Action::Output(PortNo(4))));
        let mut other = meta(0, 1, 2);
        other.l4_dst = 2001;
        assert_eq!(t.lookup(&other), None);
    }
}
