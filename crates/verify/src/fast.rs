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
//! Nothing here outlives a pass: what carries over between proofs is the
//! previous [`crate::Verifier`] that `check_delta*` takes.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::sync::OnceLock;

use sdt_core::cluster::{PhysPort, PhysicalCluster};
use sdt_openflow::{Action, EntryIndex, PortNo};

use crate::analysis::{DropReason, PairOutcome, RuleRef};
use crate::model::{entry_matches, HeaderClass, TableView};

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
    /// Header classes the loop scan cleared by state-graph analysis alone.
    pub loop_classes_fast: usize,
    /// Header classes re-scanned by the reference loop walker (a cycle was
    /// reachable, and findings must be byte-identical).
    pub loop_classes_fallback: usize,
    /// Destiny lookups answered by a state the same class job had already
    /// resolved (the in-pass `DestinyMemo`; nothing crosses passes). The
    /// name is kept only because `benchmark/` reads it and its own test
    /// requires a non-zero reading; a later `benchmark` issue retires it.
    pub cache_hits: usize,
    /// Destiny states the pass resolved. The name is kept only because
    /// `benchmark/` reads it; a later `benchmark` issue retires it.
    pub cache_misses: usize,
}

/// One pipeline state's walk verdict, for one header class.
#[derive(Clone, Debug)]
pub(crate) struct Destiny {
    /// How the walk ends from this state.
    pub(crate) out: PairOutcome,
    /// Switches the walk crosses strictly after entering this state.
    pub(crate) post: Arc<BTreeSet<u32>>,
    /// Bloom mask of `post` (see [`mask_of`]).
    pub(crate) mask: u64,
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

fn empty_set() -> Arc<BTreeSet<u32>> {
    static EMPTY: OnceLock<Arc<BTreeSet<u32>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(BTreeSet::new())).clone()
}

/// Switch-set bloom mask: bit `s & 63` per member. Two sets whose masks
/// AND to zero are provably disjoint (the converse needs an exact set
/// check, since switches past 64 alias); exact below 64 switches.
pub(crate) fn mask_of(set: &BTreeSet<u32>) -> u64 {
    set.iter().fold(0u64, |m, &s| m | 1 << (s & 63))
}

/// Where a packet entering a given `(switch, port)` ends up, independent of
/// its header class (valid only under `symmetric` tables).
#[derive(Clone, Debug)]
pub(crate) enum FateOut {
    /// Dies before any metadata write.
    Dead(DropReason),
    /// Delivered to a host port by direct classify outputs.
    Deliver {
        /// The host port.
        port: PhysPort,
        /// Rule performing the final output.
        via: RuleRef,
    },
    /// Reaches pipeline state `(switch, metadata)` — header-dependent from
    /// here on; continue in `DestinyMemo`.
    State {
        /// Switch whose table 1 takes over.
        sw: u32,
        /// Metadata written by its classify rule.
        md: u32,
    },
}

/// One port's fate plus the switches crossed reaching it (the terminal
/// state's switch included — the walk inserts a switch on arrival).
#[derive(Clone, Debug)]
pub(crate) struct Fate {
    pub(crate) out: FateOut,
    pub(crate) pre: Arc<BTreeSet<u32>>,
    pub(crate) mask: u64,
}

/// Class-independent per-port fate of every `(switch, port)`, precomputed
/// once per pass.
pub(crate) struct FateTable {
    /// `true` iff the tables are `symmetric` and no direct-output cable
    /// cycle exists; `false` disables the entire fast path.
    pub(crate) ok: bool,
    fates: Vec<Option<Fate>>,
    ports: usize,
}

impl FateTable {
    /// Resolve every port's fate. Chains of direct classify outputs across
    /// cables are followed with memoization; a cycle among them (packets
    /// that loop without ever hitting table 1) defeats the state
    /// abstraction, so it conservatively reports `ok = false`.
    pub(crate) fn build(
        cluster: &PhysicalCluster,
        view: &TableView,
        indexes: &[Arc<[EntryIndex; 2]>],
    ) -> FateTable {
        let ports = cluster.model().ports as usize;
        let n = view.num_switches();
        let mut t = FateTable { ok: symmetric(view), fates: vec![None; n * ports], ports };
        if !t.ok {
            return t;
        }
        for sw in 0..n as u32 {
            for port in 0..ports as u16 {
                if t.slot(sw, PortNo(port)).is_some() {
                    continue;
                }
                // Follow direct-output hops until a known fate, a terminal,
                // or a revisit (cable cycle) — then resolve the chain
                // backwards, each hop adding its own switch to `pre`.
                let mut chain: Vec<PhysPort> = Vec::new();
                let mut cur = PhysPort { switch: sw, port: PortNo(port) };
                let base = loop {
                    if let Some(f) = t.slot(cur.switch, cur.port) {
                        break f.clone();
                    }
                    if chain.contains(&cur) {
                        t.ok = false;
                        return t;
                    }
                    match classify_step(cluster, indexes, cur) {
                        ClassifyStep::Terminal(out) => {
                            let pre = Arc::new(BTreeSet::from([cur.switch]));
                            let mask = mask_of(&pre);
                            let f = Fate { out, pre, mask };
                            *t.slot_mut(cur.switch, cur.port) = Some(f.clone());
                            break f;
                        }
                        ClassifyStep::Hop(next) => {
                            chain.push(cur);
                            cur = next;
                        }
                    }
                };
                let mut f = base;
                for &p in chain.iter().rev() {
                    if !f.pre.contains(&p.switch) {
                        let mut set = (*f.pre).clone();
                        set.insert(p.switch);
                        f.mask = mask_of(&set);
                        f.pre = Arc::new(set);
                    }
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
        match self.slot(p.switch, p.port) {
            Some(f) => f,
            None => unreachable!("fate table covers every port when ok"),
        }
    }
}

enum ClassifyStep {
    Terminal(FateOut),
    Hop(PhysPort),
}

/// One class-blind classify decision: the first live (metadata-free)
/// table-0 match at `(switch, in_port)`. Under `symmetric` tables this is
/// exactly the entry the reference walker's class-aware lookup finds for
/// *every* header class: live rules constrain no header field, and
/// metadata-constrained rules fail the reference's match too.
fn classify_step(
    cluster: &PhysicalCluster,
    indexes: &[Arc<[EntryIndex; 2]>],
    at: PhysPort,
) -> ClassifyStep {
    let sw = at.switch;
    let hit = indexes[sw as usize][0].first_match_where(at.port, None, None, |e| {
        e.m.metadata.is_none() && e.m.in_port.is_none_or(|p| p == at.port)
    });
    let Some(&e0) = hit else {
        return ClassifyStep::Terminal(FateOut::Dead(DropReason::Miss { switch: sw, table: 0 }));
    };
    let r0 = RuleRef { switch: sw, table: 0, entry: e0 };
    match e0.action {
        Action::Drop => ClassifyStep::Terminal(FateOut::Dead(DropReason::Rule(r0))),
        Action::WriteMetadataGoto(md) => ClassifyStep::Terminal(FateOut::State { sw, md }),
        Action::Output(p) => {
            let port = PhysPort { switch: sw, port: p };
            if cluster.is_host_port(port) {
                return ClassifyStep::Terminal(FateOut::Deliver { port, via: r0 });
            }
            match cluster.link_at(port) {
                Some(link) => ClassifyStep::Hop(link.other(port)),
                None => ClassifyStep::Terminal(FateOut::Dead(DropReason::Unwired(port))),
            }
        }
    }
}

/// Per-class destiny resolver: maps pipeline states `(switch, metadata)` to
/// their walk verdicts, each resolved once per pass.
pub(crate) struct DestinyMemo<'a> {
    cluster: &'a PhysicalCluster,
    indexes: &'a [Arc<[EntryIndex; 2]>],
    fates: &'a FateTable,
    class: HeaderClass,
    map: HashMap<(u32, u32), usize>,
    arena: Vec<Destiny>,
    /// Lookups answered from `map` so far ([`VerifyStats::cache_hits`]).
    pub(crate) hits: usize,
    /// States resolved so far ([`VerifyStats::cache_misses`]).
    pub(crate) resolved: usize,
}

impl<'a> DestinyMemo<'a> {
    pub(crate) fn new(
        cluster: &'a PhysicalCluster,
        indexes: &'a [Arc<[EntryIndex; 2]>],
        fates: &'a FateTable,
        class: HeaderClass,
    ) -> Self {
        DestinyMemo {
            cluster,
            indexes,
            fates,
            class,
            map: HashMap::new(),
            arena: Vec::new(),
            hits: 0,
            resolved: 0,
        }
    }

    pub(crate) fn destiny(&self, idx: usize) -> &Destiny {
        &self.arena[idx]
    }

    /// Resolve the destiny of state `(sw, md)` for this memo's class.
    /// Iterative chain walk with cycle detection: a state chain revisiting
    /// itself is exactly a walk that would exhaust the reference budget, so
    /// every state on the cycle is `Looped`.
    pub(crate) fn resolve(&mut self, sw: u32, md: u32) -> usize {
        if let Some(&i) = self.map.get(&(sw, md)) {
            self.hits += 1;
            return i;
        }
        let mut chain: Vec<ChainLink> = Vec::new();
        let mut onchain: HashMap<(u32, u32), usize> = HashMap::new();
        let mut cur = (sw, md);
        let base: usize = loop {
            if let Some(&i) = self.map.get(&cur) {
                self.hits += 1;
                break i;
            }
            self.resolved += 1;
            if let Some(&pos) = onchain.get(&cur) {
                break self.close_cycle(&chain, pos);
            }
            match self.route_step(cur) {
                RouteStep::Terminal { out, post, mask } => {
                    break self.commit(cur, out, post, mask);
                }
                RouteStep::Chain { pre, mask, next } => {
                    onchain.insert(cur, chain.len());
                    chain.push((cur, pre, mask));
                    cur = next;
                }
            }
        };
        // Back-resolve the (acyclic remainder of the) chain: each earlier
        // state shares the downstream outcome and adds its edge switches.
        let upto = onchain.get(&cur).copied().unwrap_or(chain.len()).min(chain.len());
        let out = self.arena[base].out.clone();
        let mut post = self.arena[base].post.clone();
        let mut mask = self.arena[base].mask;
        for (state, pre, pmask) in chain[..upto].iter().rev() {
            if !pre.iter().all(|s| post.contains(s)) {
                let mut set = (*post).clone();
                set.extend(pre.iter().copied());
                post = Arc::new(set);
            }
            mask |= pmask;
            self.commit(*state, out.clone(), post.clone(), mask);
        }
        match self.map.get(&(sw, md)) {
            Some(&i) => i,
            None => unreachable!("resolve always installs its own state"),
        }
    }

    /// All states on `chain[pos..]` form one cycle: each is `Looped` and
    /// crosses the union of the cycle's edge switch sets (the walk repeats
    /// the cycle forever, so every cycle state sees the same union).
    fn close_cycle(&mut self, chain: &[ChainLink], pos: usize) -> usize {
        let cycle = &chain[pos..];
        let (post, mask) = match cycle {
            [(_, pre, m)] => (pre.clone(), *m),
            _ => {
                let mut set = BTreeSet::new();
                let mut mask = 0u64;
                for (_, pre, m) in cycle {
                    set.extend(pre.iter().copied());
                    mask |= m;
                }
                (Arc::new(set), mask)
            }
        };
        let mut first = 0;
        for (i, (state, _, _)) in cycle.iter().enumerate() {
            let idx = self.commit(*state, PairOutcome::Looped, post.clone(), mask);
            if i == 0 {
                first = idx;
            }
        }
        first
    }

    /// One header-dependent route step: the table-1 decision at a state.
    /// Port-blind under `symmetric` tables, so `PortNo(0)` stands in for
    /// any actual ingress port — the reference lookup finds the same entry.
    fn route_step(&self, (sw, md): (u32, u32)) -> RouteStep {
        let class = self.class;
        let hit = self.indexes[sw as usize][1]
            .first_match_where(PortNo(0), Some(md), class.dst, |e| {
                entry_matches(e, PortNo(0), Some(md), &class)
            });
        let Some(&e1) = hit else {
            return RouteStep::terminal(PairOutcome::Dropped {
                reason: DropReason::Miss { switch: sw, table: 1 },
            });
        };
        let r1 = RuleRef { switch: sw, table: 1, entry: e1 };
        let p = match e1.action {
            Action::Drop => {
                return RouteStep::terminal(PairOutcome::Dropped { reason: DropReason::Rule(r1) })
            }
            Action::WriteMetadataGoto(_) => {
                return RouteStep::terminal(PairOutcome::Dropped {
                    reason: DropReason::BadGoto(r1),
                })
            }
            Action::Output(p) => p,
        };
        let port = PhysPort { switch: sw, port: p };
        if self.cluster.is_host_port(port) {
            return RouteStep::terminal(PairOutcome::Delivered { port, via: r1 });
        }
        let Some(link) = self.cluster.link_at(port) else {
            return RouteStep::terminal(PairOutcome::Dropped {
                reason: DropReason::Unwired(port),
            });
        };
        let fate = self.fates.fate(link.other(port));
        match &fate.out {
            FateOut::Dead(reason) => RouteStep::Terminal {
                out: PairOutcome::Dropped { reason: reason.clone() },
                post: fate.pre.clone(),
                mask: fate.mask,
            },
            FateOut::Deliver { port, via } => RouteStep::Terminal {
                out: PairOutcome::Delivered { port: *port, via: via.clone() },
                post: fate.pre.clone(),
                mask: fate.mask,
            },
            FateOut::State { sw, md } => {
                RouteStep::Chain { pre: fate.pre.clone(), mask: fate.mask, next: (*sw, *md) }
            }
        }
    }

    /// Record a computed verdict and index it.
    fn commit(
        &mut self,
        state: (u32, u32),
        out: PairOutcome,
        post: Arc<BTreeSet<u32>>,
        mask: u64,
    ) -> usize {
        let idx = self.arena.len();
        self.arena.push(Destiny { out, post, mask });
        self.map.insert(state, idx);
        idx
    }
}

/// One pending link of a destiny chain walk: the state, the switches the
/// edge to the next state crosses, and that edge's mask.
type ChainLink = ((u32, u32), Arc<BTreeSet<u32>>, u64);

enum RouteStep {
    Terminal { out: PairOutcome, post: Arc<BTreeSet<u32>>, mask: u64 },
    Chain { pre: Arc<BTreeSet<u32>>, mask: u64, next: (u32, u32) },
}

impl RouteStep {
    fn terminal(out: PairOutcome) -> RouteStep {
        RouteStep::Terminal { out, post: empty_set(), mask: 0 }
    }
}

/// Shared empty switch set for terminal fates/destinies.
pub(crate) fn no_switches() -> Arc<BTreeSet<u32>> {
    empty_set()
}
