//! The static analyses: forwarding-graph loop scan, per-pair reachability
//! closure, dead/nondeterministic-rule warnings, and the VeriFlow-style
//! incremental delta check.
//!
//! # One thread
//!
//! Every pass runs on the caller's thread, in canonical order — warnings
//! per switch id, loop scans per class in enumeration order, reachability
//! walks per source host in intent order — and writes its findings in
//! place. A delta proof bounds the work by the switches its batch touches,
//! not by cores.
//!
//! # What a proof keeps
//!
//! Besides its view, intent, warnings and loops, a [`Verifier`] keeps how
//! every ordered host pair fared: each *distinct* trace of the pass once —
//! a verdict id and the switches crossed, in one flat vector — and rows of
//! `u32` trace ids, one id per destination host, which every host points
//! at. Hosts that provably fare alike toward every destination share a
//! row: at fat-tree k=16, 128 rows serve 1 024 hosts. The report reads each
//! pair through its source's row, and so does the next proof: one
//! carry-over rule, shared by both walkers, decides which pairs of a delta
//! keep their previous trace; the walkers fill in the rest. Every pass over
//! the pairs — marking, gathering, carrying, counting — runs once per row,
//! not once per host.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

use sdt_core::cluster::{PhysPort, PhysicalCluster};
use sdt_openflow::{
    table_warnings_indexed, table_warnings_linear, Action, FlowEntry, FlowMod, FxBuild,
    MatchUniverse, PortNo, ShadowedEntry,
};
use sdt_topology::HostId;

use crate::fast::{
    DestinyMemo, Fate, FateOut, FateTable, Outcomes, StepMatrix, SwitchSet, Trace, VerifyStats,
    WalkCache,
};
use crate::model::{entry_matches, HeaderClass, HeaderValues, Intent, TableView};

/// A named rule: enough to point an operator at the exact `FlowEntry` in
/// the exact table that causes a finding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RuleRef {
    /// Physical switch.
    pub switch: u32,
    /// Pipeline table (0 = classify, 1 = route).
    pub table: u8,
    /// The installed entry.
    pub entry: FlowEntry,
}

impl std::fmt::Display for RuleRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "switch {} table {} prio {} {:?} -> {:?}",
            self.switch, self.table, self.entry.priority, self.entry.m, self.entry.action
        )
    }
}

/// Why a match space dead-ends.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// No entry matched (table miss — drop in OpenFlow-with-no-miss-rule).
    Miss {
        /// Switch where the miss occurs.
        switch: u32,
        /// Table that missed.
        table: u8,
    },
    /// An explicit drop rule fired.
    Rule(RuleRef),
    /// Output to a port with no cable and no host behind it.
    Unwired(PhysPort),
    /// Output to a host port no intent host is attached to.
    UnownedHostPort(PhysPort),
    /// A table-1 rule tried to continue the pipeline (goto past the last
    /// table is a drop).
    BadGoto(RuleRef),
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::Miss { switch, table } => {
                write!(f, "table miss at switch {switch} table {table}")
            }
            DropReason::Rule(r) => write!(f, "drop rule [{r}]"),
            DropReason::Unwired(p) => {
                write!(f, "output to unwired port {} on switch {}", p.port.0, p.switch)
            }
            DropReason::UnownedHostPort(p) => {
                write!(f, "output to unassigned host port {} on switch {}", p.port.0, p.switch)
            }
            DropReason::BadGoto(r) => write!(f, "goto past last table [{r}]"),
        }
    }
}

/// A forwarding cycle: following the installed rules, a packet of this
/// header class re-enters a port it already entered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopFinding {
    /// The ingress ports on the cycle, in traversal order.
    pub ports: Vec<PhysPort>,
    /// The rule chain that forms the cycle (classify + route rules at each
    /// hop).
    pub rules: Vec<RuleRef>,
    /// Header class exhibiting the loop.
    pub class: HeaderClass,
}

impl std::fmt::Display for LoopFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let path: Vec<String> =
            self.ports.iter().map(|p| format!("sw{}:p{}", p.switch, p.port.0)).collect();
        write!(f, "forwarding loop {} via {} rule(s)", path.join(" -> "), self.rules.len())?;
        for r in &self.rules {
            write!(f, "; [{r}]")?;
        }
        Ok(())
    }
}

/// A host pair the intent expects to communicate whose match space
/// dead-ends instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlackholeFinding {
    /// Domain of both hosts.
    pub domain: String,
    /// Sending host.
    pub src: HostId,
    /// Intended destination host.
    pub dst: HostId,
    /// Why the packets die.
    pub reason: DropReason,
}

impl std::fmt::Display for BlackholeFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "blackhole: {} host {} -> host {} dies at {}",
            self.domain, self.src.0, self.dst.0, self.reason
        )
    }
}

/// A delivery the intent forbids: traffic from one domain reaching a host
/// port it must not reach (cross-slice leak, or misdelivery to the wrong
/// host), with the rule that performed the final output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakFinding {
    /// Sending domain.
    pub from_domain: String,
    /// Sending host.
    pub src: HostId,
    /// Domain owning the port the packet arrived at.
    pub to_domain: String,
    /// Host that (wrongly) receives the traffic.
    pub to_host: HostId,
    /// The destination address the packet carried.
    pub dst_addr: sdt_openflow::HostAddr,
    /// Host port the packet egressed on.
    pub port: PhysPort,
    /// The rule that output the packet onto the host port.
    pub via: RuleRef,
}

impl std::fmt::Display for LeakFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "leak: {} host {} reaches {} host {} (dst addr {}) on switch {} port {} via [{}]",
            self.from_domain,
            self.src.0,
            self.to_domain,
            self.to_host.0,
            self.dst_addr.0,
            self.port.switch,
            self.port.port.0,
            self.via
        )
    }
}

/// A rule that can never fire: its whole match space is covered by earlier
/// higher- or equal-priority rules (singly or as a union), or it tests
/// pipeline state the earlier tables never produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowFinding {
    /// Switch holding the dead rule.
    pub switch: u32,
    /// Table holding the dead rule.
    pub table: u8,
    /// The dead rule and the rules covering it (empty for unreachable
    /// pipeline state, e.g. a table-0 rule matching on metadata).
    pub shadowed: ShadowedEntry,
}

impl std::fmt::Display for ShadowFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dead rule at switch {} table {}: prio {} {:?} covered by {} rule(s)",
            self.switch,
            self.table,
            self.shadowed.entry.priority,
            self.shadowed.entry.m,
            self.shadowed.covered_by.len()
        )
    }
}

/// Two equal-priority rules with overlapping but non-identical matches.
/// Deterministic in this model — first match wins in key order, a
/// function of the entry set, so a restored table decides it the same way
/// — but OpenFlow leaves it switch-defined, so the verifier flags it as a
/// warning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NondetFinding {
    /// Switch holding the pair.
    pub switch: u32,
    /// Table holding the pair.
    pub table: u8,
    /// The rule first in key order (the one that wins here).
    pub first: FlowEntry,
    /// The overlapping rule after it in key order.
    pub second: FlowEntry,
}

impl std::fmt::Display for NondetFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "order-dependent match at switch {} table {}: prio {} {:?} overlaps {:?}",
            self.switch, self.table, self.first.priority, self.first.m, self.second.m
        )
    }
}

/// The complete verdict of a static verification pass.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Forwarding cycles (any header class).
    pub loops: Vec<LoopFinding>,
    /// Intended pairs whose traffic dead-ends.
    pub blackholes: Vec<BlackholeFinding>,
    /// Forbidden deliveries, each naming the offending rule.
    pub leaks: Vec<LeakFinding>,
    /// Dead rules (diagnostic — does not fail [`VerifyReport::holds`]).
    pub shadowed: Vec<ShadowFinding>,
    /// Order-dependent equal-priority overlaps (diagnostic).
    pub nondeterminism: Vec<NondetFinding>,
    /// Ordered host pairs proven to deliver as intended.
    pub delivered_pairs: usize,
    /// Ordered host pairs proven isolated as intended.
    pub isolated_pairs: usize,
    /// Ordered host pairs whose traffic cycles forever.
    pub looped_pairs: usize,
    /// Total ordered pairs covered by the verdict.
    pub pairs_checked: usize,
    /// Pairs actually re-walked (smaller than `pairs_checked` after an
    /// incremental check; the rest were proven unaffected by the delta).
    pub pairs_walked: usize,
    /// Switches whose tables were (re-)scanned for rule-level warnings.
    pub switches_scanned: usize,
    /// Size of the header-equivalence-class partition the analyses covered
    /// (`HeaderValues::num_classes`).
    pub header_classes: usize,
}

impl VerifyReport {
    /// Does the data plane satisfy its intent: no loops, no blackholes, no
    /// leaks? (Shadow/nondeterminism findings are warnings, not failures.)
    pub fn holds(&self) -> bool {
        self.loops.is_empty()
            && self.blackholes.is_empty()
            && self.leaks.is_empty()
            && self.looped_pairs == 0
    }

    /// One-line verdict plus the first finding of each failing class.
    pub fn summary(&self) -> String {
        if self.holds() {
            return format!(
                "verified: {} pairs delivered, {} isolated, no loops/blackholes/leaks",
                self.delivered_pairs, self.isolated_pairs
            );
        }
        let mut parts = vec![format!(
            "violations: {} loop(s), {} blackhole(s), {} leak(s)",
            self.loops.len(),
            self.blackholes.len(),
            self.leaks.len()
        )];
        if let Some(l) = self.loops.first() {
            parts.push(l.to_string());
        }
        if let Some(b) = self.blackholes.first() {
            parts.push(b.to_string());
        }
        if let Some(l) = self.leaks.first() {
            parts.push(l.to_string());
        }
        parts.join("; ")
    }
}

/// One symbolic forwarding step: what happens to a packet of a given header
/// class entering a switch at a given port.
enum Step {
    /// Egresses on a host port.
    Deliver { port: PhysPort, via: RuleRef },
    /// Egresses on a cable; continues at the far end.
    Next { to: PhysPort, rules: Vec<RuleRef> },
    /// Dies.
    Dead { at: u32, reason: DropReason },
}

/// Evaluate the two-table pipeline of `at.switch` for a packet entering on
/// `at.port`, symbolically (first matching entry wins; no counters touched).
/// The view's tier index prunes candidates; `entry_matches` keeps the final
/// say, so the firing entry is exactly the linear scan's first match.
fn step(view: &TableView, cluster: &PhysicalCluster, at: PhysPort, class: &HeaderClass) -> Step {
    let sw = at.switch;
    let Some(&e0) = view
        .store(sw, 0)
        .first_match_where(at.port, None, class.dst, |e| entry_matches(e, at.port, None, class))
    else {
        return Step::Dead { at: sw, reason: DropReason::Miss { switch: sw, table: 0 } };
    };
    let r0 = RuleRef { switch: sw, table: 0, entry: e0 };
    let md = match e0.action {
        Action::Drop => return Step::Dead { at: sw, reason: DropReason::Rule(r0) },
        Action::Output(p) => return egress(cluster, PhysPort { switch: sw, port: p }, vec![r0]),
        Action::WriteMetadataGoto(md) => md,
    };
    let Some(&e1) = view
        .store(sw, 1)
        .first_match_where(at.port, Some(md), class.dst, |e| entry_matches(e, at.port, Some(md), class))
    else {
        return Step::Dead { at: sw, reason: DropReason::Miss { switch: sw, table: 1 } };
    };
    let r1 = RuleRef { switch: sw, table: 1, entry: e1 };
    match e1.action {
        Action::Drop => Step::Dead { at: sw, reason: DropReason::Rule(r1) },
        Action::WriteMetadataGoto(_) => {
            Step::Dead { at: sw, reason: DropReason::BadGoto(r1) }
        }
        Action::Output(p) => egress(cluster, PhysPort { switch: sw, port: p }, vec![r0, r1]),
    }
}

/// Resolve a physical egress port: host port, cable, or nothing.
fn egress(cluster: &PhysicalCluster, port: PhysPort, rules: Vec<RuleRef>) -> Step {
    if cluster.is_host_port(port) {
        let via = rules.last().cloned().unwrap_or_else(|| unreachable!("egress needs a rule"));
        return Step::Deliver { port, via };
    }
    match cluster.link_at(port) {
        Some(link) => Step::Next { to: link.other(port), rules },
        None => Step::Dead { at: port.switch, reason: DropReason::Unwired(port) },
    }
}

/// What a proof keeps of its pair walks: each distinct verdict once, each
/// distinct [`Trace`] — how a pair fares plus the switches its packets
/// cross, the key to incremental re-checking (a pair whose path avoids every
/// switch touched by a delta cannot change behaviour) — once, and which of
/// them every ordered intent pair got, as rows of trace ids. A verdict
/// replayed to a million pairs is a few hundred rows, and the next proof
/// tests a trace against its delta once, however many pairs share it.
/// Traces carry no addresses: which pairs a trace belongs to is recorded
/// beside it, in the rows.
#[derive(Debug, Default)]
struct TraceStore {
    /// The verdicts `distinct` names by position: those of the traces
    /// carried over from the previous proof, then the proof's own
    /// [`Outcomes`] (fast walker) or one per walked pair (reference walker).
    outcomes: Vec<PairOutcome>,
    /// The distinct traces of the pass: those carried over from the previous
    /// proof, then one per walked pair (reference walker) or one per (class,
    /// source group) representative (fast walker).
    distinct: Vec<Trace>,
    /// Per intent host, the row of `rows` its pairs read. Hosts share a row
    /// when their rows are provably equal ([`Verifier::carry_over`]).
    row_of: Vec<u32>,
    /// Rows of one trace id per intent host, flat: pair `(i, j)` reads its
    /// index in `distinct` at `row_of[i] · n + j` ([`OPEN`] only while a
    /// walker is filling it). A host's own column is no pair of its own: it
    /// holds the other members' pair to it, or stays [`OPEN`] in a row of
    /// one.
    rows: Vec<u32>,
}

/// The [`TraceStore::rows`] entry of a pair that has no trace yet.
const OPEN: u32 = u32::MAX;
/// [`Verifier::carry_over`]'s mark for a previous trace no pair has asked
/// for yet, and the fast walker's for a (source group, class) whose trace
/// some open pair waits for. Neither is ever a trace's index.
const UNASKED: u32 = OPEN - 1;
const NEEDED: u32 = OPEN - 1;

/// Header classes per [`StepMatrix`]: what bounds a proof's memory when
/// rules test `src` and the classes number in the millions. Fat-tree k=16
/// (1 025 classes) is one block.
pub(crate) const CLASS_BLOCK: usize = 2048;

impl TraceStore {
    /// Add a distinct trace; returns its index.
    fn push(&mut self, trace: Trace) -> u32 {
        let id = self.distinct.len();
        assert!(id < UNASKED as usize, "rows of u32s name at most 2^32 - 2 traces");
        self.distinct.push(trace);
        id as u32
    }

    /// The row host `i` reads, of `n` intent hosts.
    fn row(&self, i: usize, n: usize) -> &[u32] {
        &self.rows[self.row_of[i] as usize * n..][..n]
    }

    /// Per row: its first member, and how many hosts read it.
    fn heads(&self) -> Vec<(usize, u32)> {
        let mut heads = vec![(0, 0); self.rows.len() / self.row_of.len().max(1)];
        for (i, &r) in self.row_of.iter().enumerate() {
            let (head, members) = &mut heads[r as usize];
            if *members == 0 {
                *head = i;
            }
            *members += 1;
        }
        heads
    }
}

/// Per address, the one host of `intent` holding it — `None` once a second
/// host does.
fn sole_holders(intent: &Intent) -> HashMap<u32, Option<usize>> {
    let mut at = HashMap::with_capacity(intent.hosts.len());
    for (i, h) in intent.hosts.iter().enumerate() {
        at.entry(h.addr.0).and_modify(|held| *held = None).or_insert(Some(i));
    }
    at
}

/// The verdict of one ordered pair's walk.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum PairOutcome {
    /// Egressed on a host port.
    Delivered {
        /// The host port.
        port: PhysPort,
        /// Rule performing the final output.
        via: RuleRef,
    },
    /// Died in a drop rule, a miss, or a bad port.
    Dropped {
        /// Where and why.
        reason: DropReason,
    },
    /// Never terminates (forwarding cycle).
    Looped,
}

/// Per-switch rule-level warnings, cached so a delta check only rescans the
/// switches the delta touches.
#[derive(Clone, Debug, Default)]
struct SwitchWarnings {
    shadowed: Vec<ShadowFinding>,
    nondet: Vec<NondetFinding>,
}

/// What a delta check works from: the switches its batch touches and the
/// proof of the tables before it. `None` for a full proof.
type Delta<'a> = Option<(&'a SwitchSet, &'a Verifier)>;

/// The static verifier: proves loop-freedom, blackhole-freedom and
/// isolation of a table snapshot against an [`Intent`], and re-proves them
/// incrementally for a pending flow-mod batch without touching live tables.
#[derive(Clone, Debug)]
pub struct Verifier {
    cluster: PhysicalCluster,
    view: TableView,
    intent: Intent,
    values: HeaderValues,
    /// Shared, not copied, by `Clone` and by an empty-batch replay.
    traces: Arc<TraceStore>,
    loops: Vec<LoopFinding>,
    warnings: Vec<SwitchWarnings>,
    report: VerifyReport,
    stats: VerifyStats,
}

impl Verifier {
    /// Fully verify a table snapshot against an intent.
    pub fn check(cluster: &PhysicalCluster, view: TableView, intent: Intent) -> Verifier {
        Self::check_impl(cluster, view, intent, false, CLASS_BLOCK)
    }

    /// [`Verifier::check`]; the worker count is ignored. Kept only because
    /// `benchmark/` calls it; a later `benchmark` issue retires it.
    pub fn check_threads(
        cluster: &PhysicalCluster,
        view: TableView,
        intent: Intent,
        _threads: usize,
    ) -> Verifier {
        Self::check(cluster, view, intent)
    }

    /// [`Verifier::check`]. Kept only because `benchmark/` calls it; a
    /// later `benchmark` issue retires it.
    pub fn check_cached(
        cluster: &PhysicalCluster,
        view: TableView,
        intent: Intent,
        _threads: usize,
        _cache: &mut WalkCache,
    ) -> Verifier {
        Self::check(cluster, view, intent)
    }

    /// The reference (unoptimized) verifier: no symmetry collapse, no
    /// memoization — every pair budget-walked, every switch linearly
    /// scanned. Exists so the differential tests can prove the fast path
    /// byte-identical; not intended for production callers.
    pub fn check_plain(cluster: &PhysicalCluster, view: TableView, intent: Intent) -> Verifier {
        Self::check_impl(cluster, view, intent, true, CLASS_BLOCK)
    }

    fn check_impl(
        cluster: &PhysicalCluster,
        view: TableView,
        intent: Intent,
        plain: bool,
        block: usize,
    ) -> Verifier {
        let values = HeaderValues::collect(&view);
        Self::unproven(cluster.clone(), view, intent, values).prove(None, plain, block)
    }

    /// A verifier of these tables against this intent that has proven
    /// nothing yet.
    fn unproven(
        cluster: PhysicalCluster,
        view: TableView,
        intent: Intent,
        values: HeaderValues,
    ) -> Verifier {
        Verifier {
            cluster,
            view,
            intent,
            values,
            traces: Arc::default(),
            loops: Vec::new(),
            warnings: Vec::new(),
            report: VerifyReport::default(),
            stats: VerifyStats::default(),
        }
    }

    /// Every proof — full or delta, reference or fast: scan the switches,
    /// find the loops, walk the pairs the delta does not carry over, report.
    fn prove(mut self, delta: Delta<'_>, plain: bool, block: usize) -> Verifier {
        let scan = if plain { table_warnings_linear } else { table_warnings_indexed };
        self.scan_warnings(delta, scan);
        // Empty batch against an unchanged intent in which every host owns
        // its address (so every pair carries over): the view, values,
        // warnings, carried loops and every previous trace are replayed
        // verbatim, so the report is `prev`'s with the delta counters zeroed
        // — exactly what the full machinery below would recompute, and what
        // the reference does recompute. (`symmetric` is inherited: the
        // tables didn't change.)
        if let Some((touched, prev)) = delta {
            if !plain
                && touched.is_empty()
                && self.intent == prev.intent
                && {
                    let holders = sole_holders(&self.intent);
                    self.intent.hosts.iter().all(|h| holders[&h.addr.0].is_some())
                }
            {
                self.traces = Arc::clone(&prev.traces);
                self.stats.symmetric = prev.stats.symmetric;
                self.stats.rows = prev.stats.rows;
                self.report =
                    VerifyReport { switches_scanned: 0, pairs_walked: 0, ..prev.report.clone() };
                return self;
            }
        }
        let touched = delta.map(|(touched, _)| touched);
        let mut outcomes = Outcomes::new();
        let fates = (!plain)
            .then(|| FateTable::build(&self.cluster, &self.view, &mut outcomes))
            .filter(|f| f.ok);
        self.stats.symmetric = fates.is_some();
        let walked = match &fates {
            Some(fates) => self.walk_pairs_fast(fates, outcomes, delta, block),
            None => {
                self.scan_loops(touched);
                self.walk_pairs(delta)
            }
        };
        self.finalize(touched.map_or(self.view.num_switches(), SwitchSet::len), walked);
        self
    }

    /// Incrementally verify `prev`'s tables plus a pending flow-mod batch
    /// against a (possibly updated) intent, VeriFlow-style: only the
    /// switches the batch touches are rescanned, only the host pairs whose
    /// forwarding path crosses a touched switch (or whose intent entry
    /// changed) are re-walked, and the loop scan restarts only from touched
    /// switches.
    ///
    /// Soundness: the per-(switch, in-port, class) step function is
    /// unchanged at untouched switches, so (a) a pair whose previous path
    /// avoids every touched switch behaves identically, and (b) any *new*
    /// forwarding cycle must cross a touched switch — in the functional
    /// forwarding graph, walking from each touched-switch port finds every
    /// such cycle; cycles wholly among untouched switches are carried over
    /// from `prev` verbatim.
    ///
    /// `prev` is not modified, and no live table is: the batch is replayed
    /// on a cloned snapshot. The batch is read once, in order, so any
    /// sequence of `&(switch, table, mod)` will do — a slice, or a
    /// scheduler round's share of its epoch.
    pub fn check_delta<'a>(
        prev: &Verifier,
        batch: impl IntoIterator<Item = &'a (u32, u8, FlowMod)>,
        intent: Intent,
    ) -> Verifier {
        Self::check_delta_impl(prev, batch, intent, false, CLASS_BLOCK)
    }

    /// [`Verifier::check_delta`]. Kept only because `benchmark/` calls it;
    /// a later `benchmark` issue retires it.
    pub fn check_delta_cached<'a>(
        prev: &Verifier,
        batch: impl IntoIterator<Item = &'a (u32, u8, FlowMod)>,
        intent: Intent,
        _threads: usize,
        _cache: &mut WalkCache,
    ) -> Verifier {
        Self::check_delta(prev, batch, intent)
    }

    /// The reference incremental check — see [`Verifier::check_plain`].
    pub fn check_delta_plain<'a>(
        prev: &Verifier,
        batch: impl IntoIterator<Item = &'a (u32, u8, FlowMod)>,
        intent: Intent,
    ) -> Verifier {
        Self::check_delta_impl(prev, batch, intent, true, CLASS_BLOCK)
    }

    fn check_delta_impl<'a>(
        prev: &Verifier,
        batch: impl IntoIterator<Item = &'a (u32, u8, FlowMod)>,
        intent: Intent,
        plain: bool,
        block: usize,
    ) -> Verifier {
        let mut view = prev.view.clone();
        let mut touched = SwitchSet::empty(prev.cluster.num_switches());
        for (sw, table, m) in batch {
            view.apply(*sw, *table, m);
            touched.insert(*sw);
        }
        // An empty batch leaves the view bit-identical, so the header
        // values collected from it are too — skip the rescan (the plain
        // reference recollects unconditionally).
        let values = if !plain && touched.is_empty() {
            prev.values.clone()
        } else {
            HeaderValues::collect(&view)
        };
        let mut v = Self::unproven(prev.cluster.clone(), view, intent, values);
        // Carry over loops that avoid every touched switch; rediscover the
        // rest from the touched frontier.
        v.loops = prev
            .loops
            .iter()
            .filter(|l| l.ports.iter().all(|p| !touched.contains(p.switch)))
            .cloned()
            .collect();
        v.prove(Some((&touched, prev)), plain, block)
    }

    /// The verdict.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// The tables this proof is of — for a delta proof, the previous
    /// proof's tables with the batch applied. The scheduler reads each
    /// round's intended boundary state here instead of keeping its own.
    pub fn view(&self) -> &TableView {
        &self.view
    }

    /// Shorthand for `report().holds()`.
    pub fn holds(&self) -> bool {
        self.report.holds()
    }

    /// The intent this verdict is against.
    pub fn intent(&self) -> &Intent {
        &self.intent
    }

    /// Operational counters of this pass: symmetry-collapse savings and
    /// fallbacks. Not part of the report (reports stay byte-identical
    /// across optimization levels; stats are allowed to differ).
    pub fn stats(&self) -> &VerifyStats {
        &self.stats
    }

    /// Per-switch dead-rule and nondeterminism warnings, in switch-id
    /// order. For untouched switches in a delta check, the cached findings
    /// are reused. `scan` is the reference [`table_warnings_linear`] or the
    /// overlap-indexed [`table_warnings_indexed`] (byte-identical findings,
    /// sub-quadratic).
    fn scan_warnings(&mut self, delta: Delta<'_>, scan: TableScan) {
        let num_ports = self.cluster.model().ports as u16;
        let view = &self.view;
        self.warnings = (0..view.num_switches() as u32)
            .map(|sw| match delta {
                Some((touched, prev)) if !touched.contains(sw) => {
                    prev.warnings[sw as usize].clone()
                }
                _ => switch_warnings(view, num_ports, sw, scan),
            })
            .collect();
    }

    /// Cycle scan over the forwarding port-graph. Nodes are cable ingress
    /// ports; per header class the graph is functional (one successor), so
    /// following successor chains with a visited set finds every cycle.
    /// Classes are scanned in enumeration order against one set of the
    /// cycles met so far, so a cycle that several classes exhibit is
    /// credited to the first.
    fn scan_loops(&mut self, touched: Option<&SwitchSet>) {
        let (starts, mut seen) = self.loop_scan_inputs(touched);
        for class in self.values.classes() {
            scan_loops_class(&self.view, &self.cluster, &starts, &mut seen, class, &mut self.loops);
        }
    }

    /// What every loop scan starts from: the ingress ports to walk from —
    /// every link end, or those on a touched switch for a delta — and the
    /// cycles already in `self.loops` (carried over from the previous
    /// proof), which must not be reported again.
    fn loop_scan_inputs(
        &self,
        touched: Option<&SwitchSet>,
    ) -> (Vec<PhysPort>, HashSet<Vec<(u32, u16)>>) {
        let starts = self
            .cluster
            .links()
            .iter()
            .flat_map(|l| [l.a, l.b])
            .filter(|p| touched.is_none_or(|t| t.contains(p.switch)))
            .collect();
        let carried = self.loops.iter().map(|l| canonical_cycle(&l.ports)).collect();
        (starts, carried)
    }

    /// The one carry-over rule, shared by both walkers so their reuse
    /// decisions are identical. A host of this intent *is* a host of
    /// `prev`'s when it has the same address and an identical entry —
    /// ingress, ports, group, host id and domain label — and owns that
    /// address in both intents: an address held twice names no host, since
    /// nothing in a packet tells its holders apart. Ordered pair `(i, j)`
    /// keeps its previous trace iff both hosts are hosts of `prev` and that
    /// trace avoids every touched switch — tested, and the trace carried,
    /// once per distinct trace, the first time a pair asks for it in
    /// src-major order.
    ///
    /// Hosts share a row when the walker about to fill it gives them the
    /// same `key` (the reference walker: the host itself), they expect the
    /// same verdicts (domain and connectivity group), and they carry the
    /// same previous row or nothing at all: then their carried columns
    /// agree, and so does whatever the walker fills in. A host of `prev`
    /// asks only for the traces of its previous row, so the carrying runs
    /// once per previous row — all of it at its first member, whose pairs
    /// ask first; of the later members only the second asks anything new,
    /// its pair to the first. A row all of whose traces cross a touched
    /// switch carries nothing, and its hosts join the fresh ones: a row
    /// split by a changed host merges again once its switch is touched.
    ///
    /// Returns the store a walker starts from: carried pairs pointing at
    /// their traces, every other pair [`OPEN`] (all of them without a
    /// `delta`).
    fn carry_over<K: Hash + Eq>(&self, delta: Delta<'_>, key: impl Fn(usize) -> K) -> TraceStore {
        let (now, n) = (&self.intent, self.intent.hosts.len());
        let mut store = TraceStore::default();
        // The previous rows carried, remapped to this proof's hosts and
        // traces, and per host the one it carries, if it carries anything.
        let mut carried: Vec<Vec<u32>> = Vec::new();
        let mut carries: Vec<Option<usize>> = vec![None; n];
        if let Some((touched, prev)) = delta {
            let (kept, np) = (&*prev.traces, prev.intent.hosts.len());
            let (now_at, was_at) = (sole_holders(now), sole_holders(&prev.intent));
            // (host, the host of `prev` it is), for every host that is one.
            let same: Vec<(usize, usize)> = (now.hosts.iter().enumerate())
                .filter_map(|(i, h)| {
                    // Sole holder of its address now, and who was before.
                    let sole =
                        |at: &HashMap<u32, Option<usize>>| at.get(&h.addr.0).copied().flatten();
                    sole(&now_at)?;
                    let p = sole(&was_at)?;
                    let w = &prev.intent.hosts[p];
                    (w.ingress == h.ingress
                        && w.ports == h.ports
                        && w.group == h.group
                        && w.host == h.host
                        && prev.intent.domains[w.domain] == now.domains[h.domain])
                        .then_some((i, p))
                })
                .collect();
            // Per previous trace: its index in `store`, or `OPEN` if it
            // crosses a touched switch — once some pair has asked; per
            // previous verdict, its index in `store` once a carried trace
            // names it.
            let mut moved = vec![UNASKED; kept.distinct.len()];
            store.distinct.reserve(kept.distinct.len());
            let mut moved_out = vec![UNASKED; kept.outcomes.len()];
            // Per previous row: where in `carried` it goes, its first member
            // with the host of `prev` it is, and how many have been met.
            let mut met = vec![(0, (0, 0), 0u32); kept.rows.len() / np.max(1)];
            for &(i, pi) in &same {
                let (at, first, members) = &mut met[kept.row_of[pi] as usize];
                *members += 1;
                if *members == 1 {
                    (*at, *first) = (carried.len(), (i, pi));
                    carried.push(vec![OPEN; n]);
                }
                carries[i] = Some(*at);
                let first = [*first];
                let asks: &[(usize, usize)] = match *members {
                    1 => &same,
                    2 => &first,
                    _ => continue,
                };
                let (was_row, row) = (kept.row(pi, np), &mut carried[*at]);
                for &(j, pj) in asks.iter().filter(|&&(j, _)| i != j) {
                    let t = was_row[pj] as usize;
                    if moved[t] == UNASKED {
                        let Trace { outcome, crossed } = &kept.distinct[t];
                        moved[t] = if crossed.intersects(touched) {
                            OPEN
                        } else {
                            let out = &mut moved_out[*outcome as usize];
                            if *out == UNASKED {
                                *out = store.outcomes.len() as u32;
                                store.outcomes.push(kept.outcomes[*outcome as usize].clone());
                            }
                            store.push(Trace { outcome: *out, crossed: crossed.clone() })
                        };
                    }
                    row[j] = moved[t];
                }
            }
            let empty: Vec<bool> =
                carried.iter().map(|row| row.iter().all(|&id| id == OPEN)).collect();
            carries.iter_mut().for_each(|c| *c = c.filter(|&at| !empty[at]));
        }
        // Keyed lookups only, never iterated: rows are numbered in host order.
        let mut ids: HashMap<_, u32, FxBuild> = HashMap::default();
        let mut starts: Vec<Option<usize>> = Vec::new();
        store.row_of = (now.hosts.iter().enumerate())
            .map(|(i, h)| {
                let fresh = ids.len() as u32;
                *ids.entry((key(i), h.domain, h.group, carries[i])).or_insert_with(|| {
                    starts.push(carries[i]);
                    fresh
                })
            })
            .collect();
        let open = vec![OPEN; n];
        store.rows = (starts.iter())
            .flat_map(|start| start.map_or(&open, |at| &carried[at]))
            .copied()
            .collect();
        store
    }

    /// Reachability closure over every ordered intent host pair the delta
    /// does not carry over, each source host with a row of its own, walked
    /// and stored in src-major/dst-minor order. Returns the number of pairs
    /// actually re-walked (for the report).
    fn walk_pairs(&mut self, delta: Delta<'_>) -> usize {
        let mut store = self.carry_over(delta, |i| i);
        let budget = 4 * self.cluster.links().len() + 8;
        let (cluster, values, view) = (&self.cluster, &self.values, &self.view);
        let hosts = &self.intent.hosts;
        let n = hosts.len();
        let mut walked = 0usize;
        for (i, src) in hosts.iter().enumerate() {
            let row = store.row_of[i] as usize * n;
            for (j, dst) in hosts.iter().enumerate() {
                if i == j || store.rows[row + j] != OPEN {
                    continue;
                }
                let class = values.class_of(src.addr, dst.addr, 4791, 4791);
                let mut crossed = SwitchSet::empty(cluster.num_switches());
                let mut at = src.ingress;
                let mut outcome = PairOutcome::Looped;
                for _ in 0..budget {
                    crossed.insert(at.switch);
                    match step(view, cluster, at, &class) {
                        Step::Deliver { port, via } => {
                            outcome = PairOutcome::Delivered { port, via };
                            break;
                        }
                        Step::Dead { at: sw, reason } => {
                            crossed.insert(sw);
                            outcome = PairOutcome::Dropped { reason };
                            break;
                        }
                        Step::Next { to, .. } => at = to,
                    }
                }
                store.outcomes.push(outcome);
                let id = store.push(Trace { outcome: store.outcomes.len() as u32 - 1, crossed });
                store.rows[row + j] = id;
                walked += 1;
            }
        }
        self.traces = Arc::new(store);
        walked
    }

    /// [`Verifier::walk_pairs`] and [`Verifier::scan_loops`] fused, with
    /// the symmetry collapse. Hosts of one source group and one source
    /// class half share a row: every pair of theirs to one destination has
    /// one class and one trace. Per block of `block` header classes: the
    /// route pass resolves every table-1 decision once
    /// ([`StepMatrix::build`]); a pass over the rows marks each (source
    /// group, class) some open pair waits on; each class in turn chases the
    /// decisions through a [`DestinyMemo`] and uses the destinies twice — to
    /// prove the class loop-free (or fall back to the reference port walk,
    /// keeping `LoopFinding`s byte-identical) and to store one
    /// representative trace per marked source group; and a second row pass
    /// hands every open cell its trace as a `u32`. Reports are
    /// byte-identical to the reference's at any block size.
    fn walk_pairs_fast(
        &mut self,
        fates: &FateTable,
        mut outcomes: Outcomes,
        delta: Delta<'_>,
        block: usize,
    ) -> usize {
        let hosts = &self.intent.hosts;
        let (starts, mut seen_cycles) = self.loop_scan_inputs(delta.map(|(touched, _)| touched));
        // Start fates are class-independent, and terminal starts can never
        // reach a `Looped` destiny — so the per-class loop check only needs
        // the distinct pipeline states the starts resolve to.
        let mut seen = HashSet::new();
        let start_states: Vec<u32> = starts
            .iter()
            .filter_map(|&p| match fates.fate(p).out {
                FateOut::State(state) => Some(state),
                FateOut::Terminal(_) => None,
            })
            .filter(|s| seen.insert(*s))
            .collect();
        // Ingress fates are class-independent too: sources whose fates
        // reach the same pipeline state across the same switches get
        // content-identical traces in every class (the destiny is a pure
        // function of the state within a class), so they form one group
        // and share one trace per class. Other fates stay on their own.
        let mut groups: Vec<&Fate> = Vec::new();
        let mut by_state: HashMap<(u32, &SwitchSet), usize> = HashMap::new();
        // Per host: its group, after the two halves of its pairs' classes as
        // positions in `classes()` — a pair's class is its source's first
        // half plus its destination's second (L4 fields are constant across
        // intent traffic). Classes are taken in that enumeration order
        // (loop findings are deduplicated first-class-wins, so the order is
        // part of the report contract); the classes no pair falls in still
        // get their turn, for the loop scan alone.
        let sides: Vec<(usize, usize, usize)> = hosts
            .iter()
            .map(|h| {
                let fate = fates.fate(h.ingress);
                let fresh = groups.len();
                let group = match fate.out {
                    FateOut::State(state) => {
                        *by_state.entry((state, &fate.crossed)).or_insert(fresh)
                    }
                    FateOut::Terminal(_) => fresh,
                };
                if group == fresh {
                    groups.push(fate);
                }
                let (from, to) = self.values.pair_class(h.addr, 4791, 4791);
                (from, to, group)
            })
            .collect();
        let mut store = self.carry_over(delta, |i| (sides[i].0, sides[i].2));
        let carried_outcomes = store.outcomes.len() as u32;
        let heads = store.heads();
        self.stats.rows = heads.len();
        let (cluster, view) = (&self.cluster, &self.view);
        let classes = self.values.classes();
        let mut walked_total = 0usize;
        for (nth, classes) in classes.chunks(block).enumerate() {
            let (lo, len) = (nth * block, classes.len());
            let at = (lo, classes);
            let steps = StepMatrix::build(cluster, view, fates, &mut outcomes, &self.values, at);
            // Per (class of the block, source group), class-major so a class
            // reads its groups' cells in one run: `OPEN`, `NEEDED`, then the
            // trace id its class gives it. Each `NEEDED` cell pushes one
            // trace, so the block's traces are sized for at once.
            let mut cells = vec![OPEN; len * groups.len()];
            let rows = (&heads[..], &store.row_of[..], &mut store.rows[..]);
            each_open(&sides, rows, &mut cells, (lo, len), |_, cell, _| *cell = NEEDED);
            store.distinct.reserve_exact(cells.iter().filter(|&&cell| cell == NEEDED).count());
            for (c, &class) in classes.iter().enumerate() {
                let mut memo = DestinyMemo::new(fates, steps.class(c));
                // Loop scan first: a class from whose start ports no
                // `Looped` destiny is reachable provably has no cycle —
                // skip it; one that does falls back to the reference port
                // walk so the findings are byte-identical.
                if !starts.is_empty() {
                    let looped = start_states.iter().any(|&state| {
                        let idx = memo.resolve(state);
                        memo.destiny(idx).outcome == Outcomes::LOOPED
                    });
                    if looped {
                        self.stats.loop_classes_fallback += 1;
                        let (seen, loops) = (&mut seen_cycles, &mut self.loops);
                        scan_loops_class(view, cluster, &starts, seen, class, loops);
                    } else {
                        self.stats.loop_classes_fast += 1;
                    }
                }
                for (g, cell) in cells[c * groups.len()..][..groups.len()].iter_mut().enumerate() {
                    if *cell != NEEDED {
                        continue;
                    }
                    let Fate { out, crossed } = groups[g];
                    let mut crossed = crossed.clone();
                    let outcome = match *out {
                        FateOut::Terminal(outcome) => outcome,
                        FateOut::State(state) => {
                            let idx = memo.resolve(state);
                            crossed.union_with(&memo.destiny(idx).crossed);
                            memo.destiny(idx).outcome
                        }
                    };
                    *cell = store.push(Trace { outcome: carried_outcomes + outcome, crossed });
                    self.stats.pairs_walked_full += 1;
                }
                self.stats.cache_hits += memo.hits;
                self.stats.cache_misses += memo.resolved;
            }
            // Every cell of the block still open takes its source group's
            // verdict in its class, for each pair that reads it.
            let rows = (&heads[..], &store.row_of[..], &mut store.rows[..]);
            each_open(&sides, rows, &mut cells, (lo, len), |slot, cell, pairs| {
                *slot = *cell;
                walked_total += pairs;
            });
        }
        debug_assert_eq!(
            store.rows.iter().filter(|&&id| id >= NEEDED).count(),
            heads.iter().filter(|&&(_, members)| members == 1).count(),
            "every ordered pair belongs to exactly one class; only a lone member's own \
             column stays open"
        );
        store.outcomes.extend(outcomes.list);
        self.stats.pairs_replayed = walked_total - self.stats.pairs_walked_full;
        self.traces = Arc::new(store);
        walked_total
    }

    /// Turn traces + warnings + loops into the final report: classify each
    /// distinct trace once, then compare and count along each row, once
    /// for all its members; only a row with a cell off its expected verdict
    /// is read again, member by member, and only such a cell reads its
    /// trace.
    fn finalize(&mut self, switches_scanned: usize, pairs_walked: usize) {
        /// A trace's verdict when it reaches no intent host, and when it
        /// never ends; otherwise the index of the host it is delivered to.
        const NOWHERE: u32 = u32::MAX;
        const FOREVER: u32 = u32::MAX - 1;
        /// What a pair's verdict says against its expectation, as a
        /// position in a row's counts.
        const DELIVERED: usize = 0;
        const LOOPED: usize = 1;
        const ISOLATED: usize = 2;
        const OFF: usize = 3;
        // Dense port→host-index table (last write wins): probed once per
        // distinct delivered trace.
        let ports = self.cluster.model().ports as usize;
        let mut owner = vec![NOWHERE; self.cluster.num_switches() as usize * ports];
        let (intent, store) = (&self.intent, &*self.traces);
        for (i, h) in intent.hosts.iter().enumerate() {
            for &p in &h.ports {
                owner[p.switch as usize * ports + p.port.idx()] = i as u32;
            }
        }
        let verdict_of = |trace: &Trace| match &store.outcomes[trace.outcome as usize] {
            PairOutcome::Delivered { port, .. } => {
                let at = port.switch as usize * ports + port.port.idx();
                owner.get(at).copied().unwrap_or(NOWHERE)
            }
            PairOutcome::Dropped { .. } => NOWHERE,
            PairOutcome::Looped => FOREVER,
        };
        let verdicts: Vec<u32> = store.distinct.iter().map(verdict_of).collect();
        let n = intent.hosts.len();
        let mut report = VerifyReport {
            loops: self.loops.clone(),
            switches_scanned,
            pairs_walked,
            pairs_checked: n * n.saturating_sub(1),
            header_classes: self.values.num_classes(),
            ..VerifyReport::default()
        };
        for w in &self.warnings {
            report.shadowed.extend(w.shadowed.iter().cloned());
            report.nondeterminism.extend(w.nondet.iter().cloned());
        }
        // Delivery is expected within one (domain, connectivity group),
        // which the members of a row share: what a cell says is the same
        // for each of them.
        let sides: Vec<(usize, u32)> = intent.hosts.iter().map(|h| (h.domain, h.group)).collect();
        let say = |src: usize, j: usize, id: u32| {
            let (expected, verdict) = (sides[src] == sides[j], verdicts[id as usize]);
            if expected && verdict == j as u32 {
                DELIVERED
            } else if verdict == FOREVER {
                LOOPED
            } else if !expected && verdict == NOWHERE {
                ISOLATED
            } else {
                OFF
            }
        };
        let heads = store.heads();
        let counts: Vec<[usize; 4]> = (heads.iter().enumerate())
            .map(|(r, &(head, _))| {
                let mut count = [0; 4];
                for (j, &id) in store.rows[r * n..][..n].iter().enumerate() {
                    if id != OPEN {
                        count[say(head, j, id)] += 1;
                    }
                }
                count
            })
            .collect();
        for (i, src) in intent.hosts.iter().enumerate() {
            let row = store.row(i, n);
            let mut count = counts[store.row_of[i] as usize];
            // Its own column is no pair of this host's.
            if row[i] != OPEN {
                count[say(i, i, row[i])] -= 1;
            }
            report.delivered_pairs += count[DELIVERED];
            report.looped_pairs += count[LOOPED];
            report.isolated_pairs += count[ISOLATED];
            if count[OFF] == 0 {
                continue;
            }
            for (j, &id) in row.iter().enumerate().filter(|&(j, _)| j != i) {
                if say(i, j, id) != OFF {
                    continue;
                }
                let (dst, verdict) = (&intent.hosts[j], verdicts[id as usize]);
                let dead = |reason| BlackholeFinding {
                    domain: intent.domains[src.domain].clone(),
                    src: src.host,
                    dst: dst.host,
                    reason,
                };
                match &store.outcomes[store.distinct[id as usize].outcome as usize] {
                    PairOutcome::Delivered { port, via } if verdict != NOWHERE => {
                        let to = &intent.hosts[verdict as usize];
                        report.leaks.push(LeakFinding {
                            from_domain: intent.domains[src.domain].clone(),
                            src: src.host,
                            to_domain: intent.domains[to.domain].clone(),
                            to_host: to.host,
                            dst_addr: dst.addr,
                            port: *port,
                            via: via.clone(),
                        });
                    }
                    PairOutcome::Delivered { port, .. } => {
                        report.blackholes.push(dead(DropReason::UnownedHostPort(*port)));
                    }
                    PairOutcome::Dropped { reason } => {
                        report.blackholes.push(dead(reason.clone()));
                    }
                    PairOutcome::Looped => unreachable!("counted above"),
                }
            }
        }
        self.report = report;
    }
}

/// Visit, one row at a time, every cell still [`OPEN`] that some pair
/// reads and whose class is one of the `len` from position `lo`, together
/// with its (class, source group) cell of `cells` (class-major, one source
/// group per column) and how many pairs read it: every member of the row,
/// less the one whose own column it is.
/// `sides` holds, per host, the two halves of its pairs' class positions
/// ([`HeaderValues::pair_class`]) and its source group, which a row's
/// members share; `rows` is [`TraceStore::heads`], `row_of` and `rows`.
fn each_open(
    sides: &[(usize, usize, usize)],
    (heads, row_of, rows): (&[(usize, u32)], &[u32], &mut [u32]),
    cells: &mut [u32],
    (lo, len): (usize, usize),
    mut visit: impl FnMut(&mut u32, &mut u32, usize),
) {
    let n = sides.len();
    let groups = cells.len() / len.max(1);
    let widest = sides.iter().map(|&(_, to, _)| to).max().unwrap_or(0);
    for (r, &(head, members)) in heads.iter().enumerate() {
        let (from, _, group) = sides[head];
        if from >= lo + len || from + widest < lo {
            continue; // none of this row's classes is in the block
        }
        let row = &mut rows[r * n..][..n];
        for (j, slot) in row.iter_mut().enumerate() {
            // Below `lo` wraps far past `len`.
            let at = (from + sides[j].1).wrapping_sub(lo);
            if *slot == OPEN && at < len {
                let pairs = members as usize - usize::from(row_of[j] as usize == r);
                if pairs > 0 {
                    visit(slot, &mut cells[at * groups + group], pairs);
                }
            }
        }
    }
}

/// One class's reference loop scan: follow the forwarding port-graph from
/// each start with a visited set, appending to `loops` every cycle not yet
/// in `seen` (and adding it there). Shared by the plain pass (all classes)
/// and the fast pass (fallback classes only).
fn scan_loops_class(
    view: &TableView,
    cluster: &PhysicalCluster,
    starts: &[PhysPort],
    seen: &mut HashSet<Vec<(u32, u16)>>,
    class: HeaderClass,
    loops: &mut Vec<LoopFinding>,
) {
    let mut done: HashSet<PhysPort> = HashSet::new();
    for &start in starts {
        if done.contains(&start) {
            continue;
        }
        let mut index: HashMap<PhysPort, usize> = HashMap::new();
        let mut chain: Vec<(PhysPort, Vec<RuleRef>)> = Vec::new();
        let mut cur = start;
        loop {
            if done.contains(&cur) {
                break; // chain merges into an already-explored path
            }
            if let Some(&i) = index.get(&cur) {
                let cycle = &chain[i..];
                let ports: Vec<PhysPort> = cycle.iter().map(|(p, _)| *p).collect();
                let canon = canonical_cycle(&ports);
                if seen.insert(canon) {
                    loops.push(LoopFinding {
                        ports,
                        rules: cycle.iter().flat_map(|(_, r)| r.clone()).collect(),
                        class,
                    });
                }
                break;
            }
            match step(view, cluster, cur, &class) {
                Step::Next { to, rules } => {
                    index.insert(cur, chain.len());
                    chain.push((cur, rules));
                    cur = to;
                }
                Step::Deliver { .. } | Step::Dead { .. } => break,
            }
        }
        done.extend(chain.iter().map(|(p, _)| *p));
    }
}

/// One table's dead rules and equal-priority overlapping pairs (as
/// positions, ascending): the contract [`table_warnings_indexed`] and its
/// reference [`table_warnings_linear`] share.
type TableScan = fn(&[FlowEntry], &MatchUniverse) -> (Vec<ShadowedEntry>, Vec<(u32, u32)>);

/// The dead-rule and nondeterminism warnings of a single switch — a pure
/// function of its table view.
fn switch_warnings(view: &TableView, num_ports: u16, sw: u32, scan: TableScan) -> SwitchWarnings {
    let mut w = SwitchWarnings::default();
    // Metadata values table 0 can hand to table 1 on this switch.
    let written: BTreeSet<u32> = view
        .entries(sw, 0)
        .iter()
        .filter_map(|e| match e.action {
            Action::WriteMetadataGoto(md) => Some(md),
            _ => None,
        })
        .collect();
    for table in 0..2u8 {
        let entries = view.entries(sw, table);
        let universe = if table == 0 {
            // Table 0 sees raw packets: bounded ports, no metadata.
            MatchUniverse {
                in_ports: Some((0..num_ports).map(PortNo).collect()),
                metadata: None,
            }
        } else {
            MatchUniverse::for_switch(num_ports, written.iter().copied())
        };
        if table == 0 {
            // A classify rule matching on metadata can never fire:
            // nothing runs before table 0 to write any.
            for e in entries.iter().filter(|e| e.m.metadata.is_some()) {
                w.shadowed.push(ShadowFinding {
                    switch: sw,
                    table,
                    shadowed: ShadowedEntry { entry: *e, covered_by: Vec::new() },
                });
            }
        }
        let (shadowed, nondet) = scan(entries, &universe);
        for s in shadowed {
            w.shadowed.push(ShadowFinding { switch: sw, table, shadowed: s });
        }
        for (a, b) in nondet {
            w.nondet.push(NondetFinding {
                switch: sw,
                table,
                first: entries[a as usize],
                second: entries[b as usize],
            });
        }
    }
    w
}

/// Canonical rotation of a cycle's port list, for de-duplication across
/// header classes and delta passes.
fn canonical_cycle(ports: &[PhysPort]) -> Vec<(u32, u16)> {
    let raw: Vec<(u32, u16)> = ports.iter().map(|p| (p.switch, p.port.0)).collect();
    let Some(min_at) = (0..raw.len()).min_by_key(|&i| raw[i]) else {
        return raw;
    };
    let mut out = Vec::with_capacity(raw.len());
    out.extend_from_slice(&raw[min_at..]);
    out.extend_from_slice(&raw[..min_at]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_routes;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_core::sdt::SdtProjector;
    use sdt_openflow::{FlowMatch, HostAddr};
    use sdt_topology::fattree::fat_tree;

    /// What a proof keeps, rendered: the report, the rows and who reads
    /// them, and the traces they name with their verdicts spelled out (a
    /// verdict's id is its place in the order the route passes met it,
    /// which moves with the block cut).
    fn kept(v: &Verifier) -> String {
        let store = &v.traces;
        let named = |t: &'_ Trace| (store.outcomes[t.outcome as usize].clone(), t.crossed.clone());
        let traces: Vec<_> = store.distinct.iter().map(named).collect();
        format!("{:?} {:?} {:?} {traces:?}", v.report, store.row_of, store.rows)
    }

    /// The pair index is a function of the tables and the intent alone:
    /// wherever the class blocks are cut — one class each, a boundary
    /// inside a source row, one block for all — full and delta proofs keep
    /// the same verdicts, traces and trace ids, and report what the
    /// reference does.
    #[test]
    fn pair_index_is_the_same_at_any_block_size() {
        let topo = fat_tree(4);
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let proj =
            SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
        let mut view = TableView::of_synthesis(&proj.synthesis);
        let intent = Intent::of_projection(&proj, &topo, topo.name());
        // Three routes of switch 0 each refuse one source: four source
        // classes, so a pair's class depends on both its ends.
        let refused: Vec<FlowEntry> = view.entries(0, 1)[..3]
            .iter()
            .zip([2, 7, 11])
            .map(|(e, src)| FlowEntry {
                m: FlowMatch { src: Some(HostAddr(src)), ..e.m },
                priority: e.priority + 1,
                action: Action::Drop,
            })
            .collect();
        for rule in &refused {
            view.apply(0, 1, &FlowMod::Add(*rule));
        }
        let batch = vec![(0, 1, FlowMod::Delete(refused[0].m, refused[0].priority))];
        let prove = |block| {
            let (v, i) = (view.clone(), intent.clone());
            let full = Verifier::check_impl(&cluster, v, i, false, block);
            let delta = Verifier::check_delta_impl(&full, &batch, intent.clone(), false, block);
            (full, delta)
        };
        let (full, delta) = prove(CLASS_BLOCK);
        let classes = full.report.header_classes;
        assert!(full.stats.symmetric && classes == 4 * 17, "{classes} classes");
        assert!(0 < delta.report.pairs_walked && delta.report.pairs_walked < 16 * 15);
        let plain = Verifier::check_plain(&cluster, view.clone(), intent.clone());
        let plain_delta = Verifier::check_delta_plain(&plain, &batch, intent.clone());
        assert_eq!(format!("{:?}", full.report), format!("{:?}", plain.report));
        assert_eq!(format!("{:?}", delta.report), format!("{:?}", plain_delta.report));
        for block in [1, 5, 17, 18, classes - 1, classes] {
            let (f, d) = prove(block);
            assert_eq!(kept(&f), kept(&full), "full proof, blocks of {block}");
            assert_eq!(kept(&d), kept(&delta), "delta proof, blocks of {block}");
            assert_eq!((&f.stats, &d.stats), (&full.stats, &delta.stats));
        }
    }
}
