//! The symmetry-collapse fast path of the verifier.
//!
//! SDT pipelines have a rigid shape: table 0 classifies **by ingress port
//! only** (forwarding-domain restriction — §III-B) and hands a metadata tag
//! to table 1, which routes **by header only**. When the installed tables
//! actually have that shape — checked, not assumed, by `symmetric` — two
//! consequences make the exhaustive per-pair walk collapse:
//!
//! 1. **Table-0 decisions are class-independent.** Every live table-0 rule
//!    (metadata-free; metadata-matching classify rules are dead, nothing
//!    writes metadata before table 0) constrains no header field, so the
//!    first match at `(switch, in_port)` is one fixed rule for *every*
//!    header class. The per-port resolution — including chains of direct
//!    `Output` hops across cables — is precomputed once in a `FateTable`.
//! 2. **Table-1 decisions are port-independent.** No table-1 rule
//!    constrains `in_port`, so the pipeline state after a metadata write is
//!    just `(switch, metadata)` — and the rest of the walk is a pure
//!    function of `(state, header class)`. `DestinyMemo` resolves each
//!    state's *destiny* (deliver / drop / loop, plus the switches crossed)
//!    once per class and replays it for every pair whose walk reaches it.
//!
//! A walk that would exhaust the reference walker's hop budget must revisit
//! an ingress port (the budget exceeds the longest simple port path), and a
//! revisited port is a revisited `(switch, metadata)` state — so cycle
//! detection on the state chain reports `Looped` for exactly the pairs the
//! budgeted reference walk reports `Looped`. Findings are byte-identical by
//! construction, and `tests/fast_differential.rs` re-proves it
//! differentially on every preset and under random slice churn.
//!
//! When any precondition fails — a header-matching live classify rule, a
//! port-matching route rule, a direct-output cable cycle — the whole pass
//! **falls back** to the reference walker (`FateTable::build` reports
//! `ok = false`). Correct-but-slow beats fast-but-wrong.
//!
//! The table-1 decisions are taken switch by switch, not class by class:
//! each switch's table 1 is walked once, in scan order, each entry
//! claiming the `StepMatrix` cells — `(state, class)` — it is the first to
//! match, and the `DestinyMemo`s chase cells.
//!
//! Nothing here outlives a pass: what carries over between proofs is the
//! previous [`crate::Verifier`] that `check_delta*` takes — the traces the
//! class passes built from these destinies, one per (class, source group),
//! and the index saying which pair got which.

use std::collections::HashMap;

use sdt_core::cluster::{PhysPort, PhysicalCluster};
use sdt_openflow::{Action, FlowEntry, FxBuild, PortNo};

use crate::analysis::{DropReason, PairOutcome, RuleRef};
use crate::model::{entry_matches, HeaderClass, HeaderValues, TableView};

/// Operational counters of one verification pass: how much work the
/// symmetry collapse and the in-pass destiny memo saved. Kept
/// *outside* [`crate::VerifyReport`] so the report stays byte-identical
/// between the fast and reference paths (the differential tests compare
/// reports; stats are allowed to differ).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Did the table shape admit the fast path? `false` means every number
    /// below is zero and the reference walker produced the report.
    pub symmetric: bool,
    /// Pairs whose (ingress, class) representative actually resolved a walk.
    pub pairs_walked_full: usize,
    /// Pairs that replayed a representative's verdict without walking.
    pub pairs_replayed: usize,
    /// Rows of trace ids the proof keeps: one per set of hosts that
    /// provably fare alike toward every destination (128 of 1 024 hosts on
    /// fat-tree k=16), not one per host.
    pub rows: usize,
    /// Header classes the loop scan cleared by state-graph analysis alone.
    pub loop_classes_fast: usize,
    /// Header classes re-scanned by the reference loop walker (a cycle was
    /// reachable, and findings must be byte-identical).
    pub loop_classes_fallback: usize,
    /// Destiny lookups a class pass answered from a state it had already
    /// resolved (the in-pass `DestinyMemo`; nothing crosses passes) —
    /// non-zero on any proof whose routes share a next hop. The name is
    /// kept only because `benchmark/` reads it; a later `benchmark` issue
    /// retires it.
    pub cache_hits: usize,
    /// Destiny states the class passes resolved, each by chasing
    /// `StepMatrix` cells: the table-1 lookups behind the cells are made
    /// once per proof by the per-switch route pass, not once per resolve.
    /// The name is kept only because `benchmark/` reads it; a later
    /// `benchmark` issue retires it.
    pub cache_misses: usize,
}

/// A walk verdict and the switches the walk crosses: a pair's trace (the
/// whole path) or one pipeline state's *destiny* in one header class (what
/// the walk crosses strictly after entering the state). The verdict is an
/// id — into the proof's [`Outcomes`], then into the trace store's list —
/// so a trace is 32 bytes and carrying one over copies no rule.
#[derive(Clone, Debug)]
pub(crate) struct Trace {
    pub(crate) outcome: u32,
    pub(crate) crossed: SwitchSet,
}

/// The distinct verdicts a proof's walks end in, each held once: `LOOPED`,
/// then the terminals the fate table and the route passes meet, in order.
pub(crate) struct Outcomes {
    pub(crate) list: Vec<PairOutcome>,
    /// Keyed lookups only, never iterated.
    ids: HashMap<PairOutcome, u32, FxBuild>,
}

impl Outcomes {
    /// The id of [`PairOutcome::Looped`] in every proof.
    pub(crate) const LOOPED: u32 = 0;

    pub(crate) fn new() -> Self {
        let mut all = Outcomes { list: Vec::new(), ids: HashMap::default() };
        all.id(PairOutcome::Looped);
        all
    }

    /// The id of `out`, added if this proof has not met it yet.
    pub(crate) fn id(&mut self, out: PairOutcome) -> u32 {
        let Outcomes { list, ids } = self;
        assert!(list.len() < (UNSET ^ TERMINAL) as usize, "a step cell names under 2^31 outcomes");
        *ids.entry(out).or_insert_with_key(|out| {
            list.push(out.clone());
            list.len() as u32 - 1
        })
    }
}

/// An exact set of physical switches, one bit each: ⌈n/64⌉ words for an
/// n-switch cluster. The first word is held inline and `rest` is the empty
/// box (no allocation) up to 64 switches — every cluster this repository
/// projects onto — so the sets a proof makes by the hundred thousand cost
/// no heap traffic there; wider clusters spill into `rest`, same
/// operations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SwitchSet {
    first: u64,
    rest: Box<[u64]>,
}

impl SwitchSet {
    /// The empty set over a cluster of `switches` switches.
    pub(crate) fn empty(switches: u32) -> Self {
        let words = (switches as usize).div_ceil(64).max(1);
        SwitchSet { first: 0, rest: vec![0; words - 1].into() }
    }

    pub(crate) fn insert(&mut self, sw: u32) {
        let word = match (sw / 64) as usize {
            0 => &mut self.first,
            w => &mut self.rest[w - 1],
        };
        *word |= 1 << (sw % 64);
    }

    pub(crate) fn contains(&self, sw: u32) -> bool {
        let word = match (sw / 64) as usize {
            0 => self.first,
            w => self.rest.get(w - 1).copied().unwrap_or(0),
        };
        word & 1 << (sw % 64) != 0
    }

    pub(crate) fn union_with(&mut self, other: &SwitchSet) {
        self.first |= other.first;
        for (a, b) in self.rest.iter_mut().zip(&other.rest) {
            *a |= b;
        }
    }

    pub(crate) fn intersects(&self, other: &SwitchSet) -> bool {
        self.first & other.first != 0
            || self.rest.iter().zip(&other.rest).any(|(a, b)| a & b != 0)
    }

    pub(crate) fn len(&self) -> usize {
        std::iter::once(&self.first).chain(&self.rest).map(|w| w.count_ones() as usize).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Holds nothing. Kept only because `benchmark/` names it and may not be
/// edited with `crates/`; a later `benchmark` issue retires it.
#[derive(Clone, Debug, Default)]
pub struct WalkCache;

impl WalkCache {
    /// The only value.
    pub fn new() -> Self {
        WalkCache
    }
}

/// Do the installed tables have the SDT pipeline shape the fast path
/// needs? (a) Every *live* table-0 rule — metadata-free, since nothing
/// writes metadata before table 0 — constrains no header field, so
/// classify decisions are class-blind. (b) No table-1 rule constrains
/// `in_port`, so route decisions are port-blind.
pub(crate) fn symmetric(view: &TableView) -> bool {
    for sw in 0..view.num_switches() as u32 {
        for e in view.entries(sw, 0) {
            if e.m.metadata.is_none()
                && (e.m.src.is_some()
                    || e.m.dst.is_some()
                    || e.m.l4_src.is_some()
                    || e.m.l4_dst.is_some())
            {
                return false;
            }
        }
        if view.entries(sw, 1).iter().any(|e| e.m.in_port.is_some()) {
            return false;
        }
    }
    true
}

/// Where a packet entering a given `(switch, port)` ends up, independent of
/// its header class (valid only under `symmetric` tables).
#[derive(Clone, Copy, Debug)]
pub(crate) enum FateOut {
    /// Dies, or is delivered to a host port by direct classify outputs,
    /// before any metadata write: the verdict's [`Outcomes`] id.
    Terminal(u32),
    /// Reaches a pipeline state `(switch, metadata)` — header-dependent from
    /// here on; continue in `DestinyMemo`. The id indexes
    /// [`FateTable::state`].
    State(u32),
}

/// One port's fate plus the switches crossed reaching it (the terminal
/// state's switch included — the walk inserts a switch on arrival).
#[derive(Clone, Debug)]
pub(crate) struct Fate {
    pub(crate) out: FateOut,
    pub(crate) crossed: SwitchSet,
}

/// Class-independent per-port fate of every `(switch, port)`, precomputed
/// once per pass.
pub(crate) struct FateTable {
    /// `true` iff the tables are `symmetric` and no direct-output cable
    /// cycle exists; `false` disables the entire fast path.
    pub(crate) ok: bool,
    fates: Vec<Option<Fate>>,
    ports: usize,
    /// Every pipeline state some port's fate reaches, by state id. A walk
    /// enters a state only through a port's fate, so these are all the
    /// states a `DestinyMemo` can meet and it indexes them densely.
    states: Vec<(u32, u32)>,
    switches: u32,
}

impl FateTable {
    /// Resolve every port's fate. Chains of direct classify outputs across
    /// cables are followed with memoization; a cycle among them (packets
    /// that loop without ever hitting table 1) defeats the state
    /// abstraction, so it conservatively reports `ok = false`.
    pub(crate) fn build(
        cluster: &PhysicalCluster,
        view: &TableView,
        outcomes: &mut Outcomes,
    ) -> FateTable {
        let ports = cluster.model().ports as usize;
        let n = view.num_switches();
        let mut t = FateTable {
            ok: symmetric(view),
            fates: vec![None; n * ports],
            ports,
            states: Vec::new(),
            switches: cluster.num_switches(),
        };
        if !t.ok {
            return t;
        }
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        for sw in 0..n as u32 {
            for port in 0..ports as u16 {
                if t.slot(sw, PortNo(port)).is_some() {
                    continue;
                }
                // Follow direct-output hops until a known fate, a terminal,
                // or a revisit (cable cycle) — then resolve the chain
                // backwards, each hop adding its own switch.
                let mut chain: Vec<PhysPort> = Vec::new();
                let mut cur = PhysPort { switch: sw, port: PortNo(port) };
                let mut f = loop {
                    if let Some(f) = t.slot(cur.switch, cur.port) {
                        break f.clone();
                    }
                    if chain.contains(&cur) {
                        t.ok = false;
                        return t;
                    }
                    let out = match classify_step(cluster, view, cur) {
                        ClassifyStep::Hop(next) => {
                            chain.push(cur);
                            cur = next;
                            continue;
                        }
                        ClassifyStep::Terminal(out) => FateOut::Terminal(outcomes.id(out)),
                        ClassifyStep::State(state) => {
                            FateOut::State(*ids.entry(state).or_insert_with(|| {
                                t.states.push(state);
                                t.states.len() as u32 - 1
                            }))
                        }
                    };
                    let mut crossed = SwitchSet::empty(t.switches);
                    crossed.insert(cur.switch);
                    let f = Fate { out, crossed };
                    *t.slot_mut(cur.switch, cur.port) = Some(f.clone());
                    break f;
                };
                for &p in chain.iter().rev() {
                    f.crossed.insert(p.switch);
                    *t.slot_mut(p.switch, p.port) = Some(f.clone());
                }
            }
        }
        t
    }

    fn slot(&self, sw: u32, port: PortNo) -> &Option<Fate> {
        &self.fates[sw as usize * self.ports + port.idx()]
    }

    fn slot_mut(&mut self, sw: u32, port: PortNo) -> &mut Option<Fate> {
        &mut self.fates[sw as usize * self.ports + port.idx()]
    }

    /// The fate of a packet entering at `p`. Every in-range port was
    /// resolved by `FateTable::build`.
    pub(crate) fn fate(&self, p: PhysPort) -> &Fate {
        self.at(p.switch as usize * self.ports + p.port.idx())
    }

    /// The fate at a [`StepMatrix`] cell's slot.
    fn at(&self, slot: usize) -> &Fate {
        match &self.fates[slot] {
            Some(f) => f,
            None => unreachable!("fate table covers every port when ok"),
        }
    }

    /// The empty switch set of this pass's cluster.
    fn no_switches(&self) -> SwitchSet {
        SwitchSet::empty(self.switches)
    }
}

enum ClassifyStep {
    Terminal(PairOutcome),
    /// A metadata write: pipeline state `(switch, metadata)`.
    State((u32, u32)),
    Hop(PhysPort),
}

/// One class-blind classify decision: the first live (metadata-free)
/// table-0 match at `(switch, in_port)`. Under `symmetric` tables this is
/// exactly the entry the reference walker's class-aware lookup finds for
/// *every* header class: live rules constrain no header field, and
/// metadata-constrained rules fail the reference's match too.
fn classify_step(cluster: &PhysicalCluster, view: &TableView, at: PhysPort) -> ClassifyStep {
    let sw = at.switch;
    let hit = view.store(sw, 0).first_match_where(at.port, None, None, |e| {
        e.m.metadata.is_none() && e.m.in_port.is_none_or(|p| p == at.port)
    });
    let onward = match hit.map(|e| e.action) {
        Some(Action::WriteMetadataGoto(md)) => return ClassifyStep::State((sw, md)),
        Some(Action::Output(p)) => far_end(cluster, PhysPort { switch: sw, port: p }),
        _ => None,
    };
    match onward {
        Some(next) => ClassifyStep::Hop(next),
        None => ClassifyStep::Terminal(walk_end(cluster, sw, 0, hit)),
    }
}

/// The far end of the cable at `port`; `None` at a host port and at a port
/// with nothing behind it.
fn far_end(cluster: &PhysicalCluster, port: PhysPort) -> Option<PhysPort> {
    let link = cluster.link_at(port).filter(|_| !cluster.is_host_port(port))?;
    Some(link.other(port))
}

/// The verdict of a walk that ends in `table` of switch `sw`: `hit` is the
/// entry fired there (`None` = table miss), which neither hands the packet
/// to table 1 nor outputs it to a cable.
fn walk_end(cluster: &PhysicalCluster, sw: u32, table: u8, hit: Option<&FlowEntry>) -> PairOutcome {
    let dead = |reason| PairOutcome::Dropped { reason };
    let Some(&entry) = hit else {
        return dead(DropReason::Miss { switch: sw, table });
    };
    let rule = RuleRef { switch: sw, table, entry };
    match entry.action {
        Action::Drop => dead(DropReason::Rule(rule)),
        Action::WriteMetadataGoto(_) => dead(DropReason::BadGoto(rule)),
        Action::Output(p) => {
            let port = PhysPort { switch: sw, port: p };
            if cluster.is_host_port(port) {
                PairOutcome::Delivered { port, via: rule }
            } else {
                dead(DropReason::Unwired(port))
            }
        }
    }
}

/// A [`StepMatrix`] cell with this bit holds an [`Outcomes`] id in the rest:
/// the walk ends at the state's own switch. Without it the cell is the
/// [`FateTable`] slot of the far end of the cable the route outputs to.
const TERMINAL: u32 = 1 << 31;
/// A cell no entry has claimed yet, while a route pass fills its block;
/// never an [`Outcomes`] id ([`Outcomes::id`] stops one short).
const UNSET: u32 = u32::MAX;

/// The table-1 decision of every pipeline state in every header class of
/// one block of classes — all a `DestinyMemo` reads. Class-major: a class
/// chases one contiguous row.
pub(crate) struct StepMatrix {
    cells: Vec<u32>,
    states: usize,
}

impl StepMatrix {
    /// Each switch in turn walks its table 1 once, in scan order, and hands
    /// each entry the cells it can own: the switch's states whose metadata
    /// it names (all if none) × the classes of the block its header fields
    /// fit ([`HeaderValues::each_fitting`]). An entry claims a cell still
    /// unset when it matches there, so a cell's owner is the first match in
    /// scan order — the entry the reference walker's lookup returns; the
    /// cells no entry claims are the switch's table miss. Terminal verdicts
    /// get their ids in `outcomes` as they are first named. `classes` are
    /// those from position `lo` on.
    pub(crate) fn build(
        cluster: &PhysicalCluster,
        view: &TableView,
        fates: &FateTable,
        outcomes: &mut Outcomes,
        values: &HeaderValues,
        (lo, classes): (usize, &[HeaderClass]),
    ) -> StepMatrix {
        let states = fates.states.len();
        let md_of = |state: &u32| fates.states[*state as usize].1;
        let mut by_switch: Vec<Vec<u32>> = vec![Vec::new(); view.num_switches()];
        for (id, &(sw, _)) in fates.states.iter().enumerate() {
            by_switch[sw as usize].push(id as u32);
        }
        by_switch.iter_mut().for_each(|of_switch| of_switch.sort_unstable_by_key(md_of));
        let block = lo..lo + classes.len();
        let mut cells = vec![UNSET; classes.len() * states];
        for (sw, of_switch) in (0u32..).zip(&by_switch) {
            // The fate slot each port's cable leads to, if one does.
            let far: Vec<Option<u32>> = (0..fates.ports as u16)
                .map(|p| {
                    let to = far_end(cluster, PhysPort { switch: sw, port: PortNo(p) })?;
                    Some((to.switch as usize * fates.ports + to.port.idx()) as u32)
                })
                .collect();
            let mds: Vec<u32> = of_switch.iter().map(md_of).collect();
            let mut near = 0;
            for run in view.entries(sw, 1).chunk_by(|a, b| a.m.metadata == b.m.metadata) {
                let rows = match run[0].m.metadata {
                    None => 0..mds.len(),
                    Some(md) => match mds.binary_search(&md) {
                        Ok(row) => row..row + 1,
                        Err(_) => continue, // no port steers here
                    },
                };
                for e in run {
                    // What the walk does on firing `e`, named at its first claim.
                    let mut step = None;
                    values.each_fitting(&e.m, &block, &mut near, |at| {
                        let class = at - lo;
                        for row in rows.clone() {
                            let cell = &mut cells[class * states + of_switch[row] as usize];
                            // Port-blind under `symmetric` tables: `PortNo(0)`
                            // stands in for any ingress port.
                            let md = Some(mds[row]);
                            if *cell == UNSET && entry_matches(e, PortNo(0), md, &classes[class]) {
                                *cell = *step.get_or_insert_with(|| {
                                    let cabled = match e.action {
                                        Action::Output(p) => far.get(p.idx()).copied().flatten(),
                                        _ => None,
                                    };
                                    cabled.unwrap_or_else(|| {
                                        TERMINAL | outcomes.id(walk_end(cluster, sw, 1, Some(e)))
                                    })
                                });
                            }
                        }
                    });
                }
            }
            // Half the cells of a fat-tree: named once per switch.
            let mut miss = None;
            for class in cells.chunks_exact_mut(states.max(1)) {
                for &state in of_switch {
                    let cell = &mut class[state as usize];
                    if *cell == UNSET {
                        let end = || TERMINAL | outcomes.id(walk_end(cluster, sw, 1, None));
                        *cell = *miss.get_or_insert_with(end);
                    }
                }
            }
        }
        StepMatrix { cells, states }
    }

    /// One class's decisions, by state id.
    pub(crate) fn class(&self, class: usize) -> &[u32] {
        &self.cells[class * self.states..][..self.states]
    }
}

/// Per-class destiny resolver: maps pipeline states to their walk verdicts,
/// each resolved once per pass.
pub(crate) struct DestinyMemo<'a> {
    fates: &'a FateTable,
    /// This class's [`StepMatrix`] row.
    steps: &'a [u32],
    /// Per state id: 1 + its index in `arena` once resolved, else 0.
    slot: Vec<u32>,
    arena: Vec<Trace>,
    /// The chain `resolve` is walking (empty between calls; kept for its
    /// allocation) and, per state id, 1 + its position on it, else 0.
    chain: Vec<ChainLink<'a>>,
    onchain: Vec<u32>,
    /// Lookups answered by a resolved state so far
    /// ([`VerifyStats::cache_hits`]).
    pub(crate) hits: usize,
    /// States resolved so far ([`VerifyStats::cache_misses`]).
    pub(crate) resolved: usize,
}

/// One pending link of a destiny chain walk: the state, and the switches
/// the edge to the next state crosses.
type ChainLink<'a> = (u32, &'a SwitchSet);

impl<'a> DestinyMemo<'a> {
    pub(crate) fn new(fates: &'a FateTable, steps: &'a [u32]) -> Self {
        let states = fates.states.len();
        DestinyMemo {
            fates,
            steps,
            slot: vec![0; states],
            arena: Vec::with_capacity(states),
            chain: Vec::new(),
            onchain: vec![0; states],
            hits: 0,
            resolved: 0,
        }
    }

    pub(crate) fn destiny(&self, idx: usize) -> &Trace {
        &self.arena[idx]
    }

    /// Resolve the destiny of a state for this memo's class. Iterative
    /// chain walk with cycle detection: a state chain revisiting itself is
    /// exactly a walk that would exhaust the reference budget, so every
    /// state on the cycle is `Looped`.
    pub(crate) fn resolve(&mut self, state: u32) -> usize {
        if let Some(i) = self.known(state) {
            self.hits += 1;
            return i;
        }
        let mut chain = std::mem::take(&mut self.chain);
        let mut cur = state;
        // The resolved destiny the chain runs into, and how much of the
        // chain leads up to it (the rest closed a cycle).
        let (base, upto) = loop {
            if let Some(i) = self.known(cur) {
                self.hits += 1;
                break (i, chain.len());
            }
            self.resolved += 1;
            if let Some(pos) = (self.onchain[cur as usize] as usize).checked_sub(1) {
                break (self.close_cycle(&chain[pos..]), pos);
            }
            // The table-1 decision at `cur`, then the fate of the port it
            // outputs to.
            let (outcome, crossed) = match self.steps[cur as usize] {
                cell if cell & TERMINAL != 0 => (cell ^ TERMINAL, self.fates.no_switches()),
                slot => match self.fates.at(slot as usize) {
                    Fate { out: FateOut::State(next), crossed } => {
                        chain.push((cur, crossed));
                        self.onchain[cur as usize] = chain.len() as u32;
                        cur = *next;
                        continue;
                    }
                    Fate { out: FateOut::Terminal(outcome), crossed } => (*outcome, crossed.clone()),
                },
            };
            break (self.commit(cur, outcome, crossed), chain.len());
        };
        // Back-resolve the (acyclic remainder of the) chain: each earlier
        // state shares the downstream outcome and adds its edge switches.
        let Trace { outcome, mut crossed } = self.arena[base].clone();
        for &(earlier, edge) in chain[..upto].iter().rev() {
            crossed.union_with(edge);
            self.commit(earlier, outcome, crossed.clone());
        }
        for (walked, _) in chain.drain(..) {
            self.onchain[walked as usize] = 0;
        }
        self.chain = chain;
        match self.known(state) {
            Some(i) => i,
            None => unreachable!("resolve always installs its own state"),
        }
    }

    /// The destiny of a state this memo has resolved.
    fn known(&self, state: u32) -> Option<usize> {
        (self.slot[state as usize] as usize).checked_sub(1)
    }

    /// All states on `cycle` form one cycle: each is `Looped` and crosses
    /// the union of the cycle's edge switch sets (the walk repeats the
    /// cycle forever, so every cycle state sees the same union). Returns
    /// the first state's destiny.
    fn close_cycle(&mut self, cycle: &[ChainLink<'a>]) -> usize {
        let mut crossed = self.fates.no_switches();
        for (_, edge) in cycle {
            crossed.union_with(edge);
        }
        let first = self.arena.len();
        for &(state, _) in cycle {
            self.commit(state, Outcomes::LOOPED, crossed.clone());
        }
        first
    }

    /// Record a computed verdict and index it.
    fn commit(&mut self, state: u32, outcome: u32, crossed: SwitchSet) -> usize {
        self.arena.push(Trace { outcome, crossed });
        self.slot[state as usize] = self.arena.len() as u32;
        self.arena.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::CLASS_BLOCK;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sdt_core::methods::SwitchModel;
    use sdt_openflow::{FlowMatch, FlowMod, HostAddr};

    /// One cell of the route pass as it was before it walked the tables: a
    /// first-match probe of the tier index, under the reference walker's
    /// match test. The oracle [`StepMatrix::build`] is held to.
    fn probe<'a>(view: &'a TableView, sw: u32, md: u32, class: &HeaderClass) -> Option<&'a FlowEntry> {
        view.store(sw, 1).first_match_where(PortNo(0), Some(md), class.dst, |e| {
            entry_matches(e, PortNo(0), Some(md), class)
        })
    }

    /// What a cell says, ids resolved: the fate slot the walk goes on at,
    /// or the verdict it ends in.
    fn decode(cell: u32, outcomes: &Outcomes) -> Result<u32, PairOutcome> {
        match cell & TERMINAL {
            0 => Ok(cell),
            _ => Err(outcomes.list[(cell ^ TERMINAL) as usize].clone()),
        }
    }

    /// Four 8-port switches — port 0 a host, ports 1–2 cabled round a ring,
    /// the rest dark — whose table 0 steers every port into one of a few
    /// sub-switches and whose table 1 is `rules` random entries over small
    /// value sets (`spread` addresses per field), so that they overlap at
    /// equal priority all the time: metadata and destination wildcards,
    /// merged defaults, `src` and L4 tests, unsteered metadata, bad gotos.
    /// Switch 3 routes nothing.
    fn random_tables(seed: u64, rules: usize, spread: u32) -> (PhysicalCluster, TableView) {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = |switch: u32, port: u16| PhysPort { switch, port: PortNo(port) };
        let model = SwitchModel { name: "synthetic 8-port", ports: 8, ..SwitchModel::openflow_64x100g() };
        let cables = (0..4).map(|i| (at(i, 2), at((i + 1) % 4, 1))).collect();
        let cluster = PhysicalCluster::custom(model, 4, cables, (0..4).map(|i| at(i, 0)).collect());
        let mut view = TableView::empty(4);
        for sw in 0..4u32 {
            for port in 0..8 {
                let md = rng.random_range(0..4u32);
                let m = FlowMatch::on_port(PortNo(port));
                let classify = FlowEntry { m, priority: 10, action: Action::WriteMetadataGoto(md) };
                view.apply(sw, 0, &FlowMod::Add(classify));
            }
            let mut some = |p: f64, n: u32| rng.random_bool(p).then(|| rng.random_range(0..n));
            let table: Vec<FlowEntry> = (0..if sw == 3 { 0 } else { rules })
                .map(|_| FlowEntry {
                    m: FlowMatch {
                        in_port: None,
                        metadata: some(0.8, 6),
                        src: some(0.3, spread).map(HostAddr),
                        dst: some(0.7, spread).map(HostAddr),
                        l4_src: some(0.1, 2).map(|v| v as u16),
                        l4_dst: some(0.1, 2).map(|v| 4791 + v as u16),
                    },
                    priority: [5, 10, 10, 20][some(1.0, 4).unwrap_or(0) as usize],
                    action: match some(0.9, 8) {
                        Some(port) => Action::Output(PortNo(port as u16)),
                        None => [Action::Drop, Action::WriteMetadataGoto(1)][some(1.0, 2).unwrap_or(0) as usize],
                    },
                })
                .collect();
            table.iter().for_each(|&e| view.apply(sw, 1, &FlowMod::Add(e)));
        }
        (cluster, view)
    }

    #[test]
    fn every_cell_is_the_first_match_the_index_probe_finds() {
        // (seed, rules per table, addresses per field), two or more seeds a
        // set-up: the last set-up has 51 × 51 × 3 × 3 classes, so blocks of
        // `CLASS_BLOCK` split it. Every seed draws a table of its own, so
        // the floor below counts distinct tables' cells.
        let set_ups = [
            (1, 40, 4),
            (2, 40, 4),
            (5, 40, 4),
            (6, 40, 4),
            (3, 120, 3),
            (7, 120, 3),
            (4, 400, 50),
            (8, 400, 50),
        ];
        let mut cells_checked = 0;
        for (seed, rules, spread) in set_ups {
            let (cluster, view) = random_tables(seed, rules, spread);
            let mut outcomes = Outcomes::new();
            let fates = FateTable::build(&cluster, &view, &mut outcomes);
            assert!(fates.ok && !fates.states.is_empty());
            let values = HeaderValues::collect(&view);
            let classes = values.classes();
            let sizes = match classes.len() > CLASS_BLOCK {
                true => vec![CLASS_BLOCK],
                false => vec![1, 7, classes.len()],
            };
            for size in sizes {
                for (nth, block) in classes.chunks(size).enumerate() {
                    let lo = nth * size;
                    let at = (lo, block);
                    let steps =
                        StepMatrix::build(&cluster, &view, &fates, &mut outcomes, &values, at);
                    for (c, class) in block.iter().enumerate() {
                        for (state, &(sw, md)) in fates.states.iter().enumerate() {
                            let hit = probe(&view, sw, md, class);
                            let cabled = hit.and_then(|e| match e.action {
                                Action::Output(p) => far_end(&cluster, PhysPort { switch: sw, port: p }),
                                _ => None,
                            });
                            let want = match cabled {
                                Some(to) => Ok((to.switch as usize * fates.ports + to.port.idx()) as u32),
                                None => Err(walk_end(&cluster, sw, 1, hit)),
                            };
                            let got = decode(steps.class(c)[state], &outcomes);
                            assert_eq!(
                                got, want,
                                "seed {seed} block {size}@{lo} switch {sw} metadata {md} class {class:?}"
                            );
                            cells_checked += 1;
                        }
                    }
                }
            }
        }
        assert!(cells_checked > 500_000, "{cells_checked} cells");
    }

    #[test]
    fn switch_sets_are_exact_across_word_boundaries() {
        let of = |members: &[u32]| {
            let mut s = SwitchSet::empty(130);
            members.iter().for_each(|&m| s.insert(m));
            s
        };
        let a = of(&[0, 63, 64, 129]);
        assert_eq!(a.len(), 4);
        for sw in 0..130 {
            assert_eq!(a.contains(sw), [0, 63, 64, 129].contains(&sw), "switch {sw}");
        }
        // 3 and 67 fold onto one bit of a 64-bit mask; the set keeps them apart.
        assert!(!of(&[3]).intersects(&of(&[67])));
        assert!(of(&[3, 128]).intersects(&of(&[67, 128])));
        let mut u = of(&[3]);
        u.union_with(&of(&[67]));
        assert_eq!(u, of(&[3, 67]));
        assert!(SwitchSet::empty(19).is_empty() && !u.is_empty());
    }
}
