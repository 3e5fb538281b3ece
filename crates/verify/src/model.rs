//! Symbolic model of the deployed data plane: a mutable snapshot of every
//! flow table ([`TableView`]), the operator's connectivity intent
//! ([`Intent`]), and the finite header-equivalence-class machinery that
//! makes exhaustive analysis tractable.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use sdt_core::cluster::PhysPort;
use sdt_core::synthesis::{addr_of, SynthesisOutput, Table};
use sdt_core::SdtProjection;
use sdt_openflow::{EntryStore, FlowEntry, FlowMatch, FlowMod, FxBuild, HostAddr, OpenFlowSwitch};
use sdt_topology::{HostId, Topology};

/// A side-effect-free snapshot of every flow table in the cluster, mutable
/// under [`FlowMod`] semantics.
///
/// The whole point of static checking is to prove properties with **zero
/// packet injections**, so a proof must not move a lookup or port counter
/// (the differential test asserts they stay at zero). That holds by type:
/// a view holds each table's [`EntryStore`] — the entries, their order and,
/// once something has probed the table, its tier index — and a store has
/// no counters to move.
///
/// Every table is `Arc`-shared copy-on-write, with the live switch
/// ([`sdt_openflow::FlowTable::shared_store`]) and the synthesized pipeline
/// ([`Table::share`]) too: viewing a pipeline, snapshotting a bank or
/// cloning a view costs one pointer per table and copies no entry, and
/// [`TableView::apply`] deep-copies only the table it mutates — the
/// clone-then-apply pattern every delta check uses touches exactly the
/// batch's tables. A table's index is built by its first lookup, so a view
/// that is only walked entry by entry (table 1 of a fast proof) never
/// builds one; a copy carries the index only if the
/// original had been probed, and from then on `apply` patches it in place.
#[derive(Clone, Debug, Default)]
pub struct TableView {
    switches: Vec<[Arc<EntryStore>; 2]>,
}

impl TableView {
    /// An all-empty view for `num_switches` switches. All slots share two
    /// `Arc`s — [`TableView::apply`] copies-on-write before mutating.
    pub fn empty(num_switches: usize) -> Self {
        TableView { switches: vec![Default::default(); num_switches] }
    }

    /// Snapshot the live tables of a switch bank: a share of each table's
    /// store — no entry copied, no lookups, no counters. The bank's next
    /// write to a table copies it first, so the snapshot never moves.
    pub fn of_switches(switches: &[OpenFlowSwitch]) -> Self {
        TableView {
            switches: switches.iter().map(|s| [0, 1].map(|t| s.table(t).shared_store())).collect(),
        }
    }

    /// View of a synthesized (not yet installed) pipeline — the tables a
    /// switch holds once it is installed: a share of each synthesized
    /// store, no entry copied.
    pub fn of_synthesis(s: &SynthesisOutput) -> Self {
        TableView {
            switches: s
                .table0
                .iter()
                .zip(&s.table1)
                .map(|(t0, t1)| [t0, t1].map(Table::share))
                .collect(),
        }
    }

    /// Number of switches in the view.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Entries of one table, descending priority.
    pub fn entries(&self, switch: u32, table: u8) -> &[FlowEntry] {
        self.store(switch, table).entries()
    }

    /// One table's store, for the symbolic lookups of the analyses.
    pub(crate) fn store(&self, switch: u32, table: u8) -> &EntryStore {
        &self.switches[switch as usize][usize::from(table)]
    }

    /// Apply one flow-mod with [`EntryStore::apply`] — what
    /// `FlowTable::apply` does, minus capacity, which admission checks
    /// separately. Copy-on-write: only this table is cloned (and only when
    /// shared with another view or the live switch).
    pub fn apply(&mut self, switch: u32, table: u8, m: &FlowMod) {
        Arc::make_mut(&mut self.switches[switch as usize][usize::from(table)]).apply(m);
    }
}

/// One host the operator expects the fabric to serve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntentHost {
    /// Index into [`Intent::domains`].
    pub domain: usize,
    /// Host id within its domain's logical topology.
    pub host: HostId,
    /// Fabric-wide address the pipeline routes on.
    pub addr: HostAddr,
    /// Primary attachment port — where this host's packets enter.
    pub ingress: PhysPort,
    /// Every physical port wired to this host (multi-homed hosts have
    /// several); delivery through any of them reaches the host.
    pub ports: Vec<PhysPort>,
    /// Connectivity group within the domain: hosts in different groups
    /// (disconnected components of the logical topology) are *expected* to
    /// be mutually unreachable.
    pub group: u32,
}

/// The connectivity contract the tables must implement: which hosts exist,
/// where they attach, and which pairs must (and must not) reach each other.
///
/// A *domain* is one isolation unit — a whole deployment for the
/// single-tenant controller, one slice for the tenancy layer. The expected
/// verdict for an ordered host pair is: **deliver** iff same domain and same
/// connectivity group, **drop** otherwise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Intent {
    /// Domain labels, used in findings (`"fat-tree-k4"`, `"slice-3:ml"`, …).
    pub domains: Vec<String>,
    /// Every host, across all domains.
    pub hosts: Vec<IntentHost>,
}

impl Intent {
    /// An empty intent (no hosts — every delivery is a leak).
    pub fn new() -> Self {
        Intent::default()
    }

    /// Intent of a single-tenant deployment: one domain holding the whole
    /// topology, host addresses from [`addr_of`].
    pub fn of_projection(proj: &SdtProjection, topo: &Topology, label: &str) -> Self {
        let mut intent = Intent::new();
        intent.push_domain(label, topo, proj, addr_of);
        intent
    }

    /// Append one domain (topology + its projection) to the intent.
    /// `addr` maps the domain's logical hosts to their fabric-wide
    /// addresses (slices pass their namespaced `Slice::host_addr`).
    pub fn push_domain(
        &mut self,
        label: &str,
        topo: &Topology,
        proj: &SdtProjection,
        addr: impl Fn(HostId) -> HostAddr,
    ) -> usize {
        let domain = self.domains.len();
        self.domains.push(label.to_string());
        let comp = topo.component_of();
        for h in 0..topo.num_hosts() {
            let h = HostId(h);
            let mut ports: Vec<PhysPort> = topo
                .attachments(h)
                .iter()
                .map(|&(_, lid)| proj.host_port[&(h, lid)])
                .collect();
            ports.sort();
            self.hosts.push(IntentHost {
                domain,
                host: h,
                addr: addr(h),
                ingress: proj.primary_host_port(topo, h),
                ports,
                group: comp[topo.host_switch(h).idx()],
            });
        }
        domain
    }
}

/// The concrete values each header field is compared against anywhere in
/// the table set. Two packets agreeing on which of these values they carry
/// (or carrying none of them) are matched identically by every rule, so one
/// representative per equivalence class suffices — the standard
/// header-space/VeriFlow argument, exact here because every match field is
/// equality-or-wildcard (no ranges, no masks).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeaderValues {
    srcs: Vec<HostAddr>,
    dsts: Vec<HostAddr>,
    l4_srcs: Vec<u16>,
    l4_dsts: Vec<u16>,
}

/// One header equivalence class: per field, either a concrete value some
/// rule tests, or `None` — the *fresh* class of values no rule anywhere
/// mentions (all such values are indistinguishable to the pipeline).
/// `in_port` and pipeline metadata are switch-local state, not packet
/// header, and are enumerated by the walk itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HeaderClass {
    /// Source-address class.
    pub src: Option<HostAddr>,
    /// Destination-address class.
    pub dst: Option<HostAddr>,
    /// L4 source port class.
    pub l4_src: Option<u16>,
    /// L4 destination port class.
    pub l4_dst: Option<u16>,
}

impl HeaderValues {
    /// Collect the value sets from every rule in the view.
    pub fn collect(view: &TableView) -> Self {
        fn sorted<T: Ord>(values: HashSet<T, FxBuild>) -> Vec<T> {
            let mut values: Vec<T> = values.into_iter().collect();
            values.sort_unstable();
            values
        }
        let mut srcs: HashSet<_, FxBuild> = HashSet::default();
        let mut dsts: HashSet<_, FxBuild> = HashSet::default();
        let mut l4_srcs: HashSet<_, FxBuild> = HashSet::default();
        let mut l4_dsts: HashSet<_, FxBuild> = HashSet::default();
        for sw in 0..view.num_switches() as u32 {
            for table in 0..2 {
                for e in view.entries(sw, table) {
                    srcs.extend(e.m.src);
                    dsts.extend(e.m.dst);
                    l4_srcs.extend(e.m.l4_src);
                    l4_dsts.extend(e.m.l4_dst);
                }
            }
        }
        HeaderValues {
            srcs: sorted(srcs),
            dsts: sorted(dsts),
            l4_srcs: sorted(l4_srcs),
            l4_dsts: sorted(l4_dsts),
        }
    }

    /// Every header class: the cross product of per-field value sets, each
    /// extended with the fresh class. This is the complete, finite partition
    /// of packet-header space the loop scan must cover.
    pub fn classes(&self) -> Vec<HeaderClass> {
        fn with_fresh<T: Copy>(vs: &[T]) -> Vec<Option<T>> {
            let mut out: Vec<Option<T>> = vs.iter().copied().map(Some).collect();
            out.push(None);
            out
        }
        let mut classes = Vec::new();
        for &src in &with_fresh(&self.srcs) {
            for &dst in &with_fresh(&self.dsts) {
                for &l4_src in &with_fresh(&self.l4_srcs) {
                    for &l4_dst in &with_fresh(&self.l4_dsts) {
                        classes.push(HeaderClass { src, dst, l4_src, l4_dst });
                    }
                }
            }
        }
        classes
    }

    /// Size of the partition [`HeaderValues::classes`] enumerates, without
    /// materializing it: per-field value count plus the fresh class, as a
    /// product.
    pub fn num_classes(&self) -> usize {
        (self.srcs.len() + 1) * self.strides()[0]
    }

    /// What one step of each field but the last is worth as a position in
    /// [`HeaderValues::classes`]: `[src, dst, l4_src]`, `l4_dst` steps by 1.
    fn strides(&self) -> [usize; 3] {
        let per_l4_src = self.l4_dsts.len() + 1;
        let per_dst = (self.l4_srcs.len() + 1) * per_l4_src;
        [(self.dsts.len() + 1) * per_dst, per_dst, per_l4_src]
    }

    /// Position in [`HeaderValues::classes`] of the class of a packet from
    /// `src` to `dst` with these L4 ports, in two halves that add up to it:
    /// `pair_class(src, ..).0 + pair_class(dst, ..).1`. The first half
    /// carries the source and both L4 fields, the second the destination.
    pub(crate) fn pair_class(&self, addr: HostAddr, l4_src: u16, l4_dst: u16) -> (usize, usize) {
        let [per_src, per_dst, per_l4_src] = self.strides();
        let l4 = pos(&self.l4_srcs, l4_src) * per_l4_src + pos(&self.l4_dsts, l4_dst);
        (pos(&self.srcs, addr) * per_src + l4, pos(&self.dsts, addr) * per_dst)
    }

    /// Visit the position, within `block` of [`HeaderValues::classes`], of
    /// every class a rule matching `m` can fit: per field the one value `m`
    /// names, or all of them and the fresh class where it names none. A
    /// table in entry order names ascending destinations, so each is looked
    /// for first right after `near`, where the last call found its own.
    pub(crate) fn each_fitting(
        &self,
        m: &FlowMatch,
        block: &Range<usize>,
        near: &mut usize,
        mut visit: impl FnMut(usize),
    ) {
        // One field's digits: the one `m` names, else those of its
        // `values + 1` that — worth `stride` positions each, the higher
        // fields having put the class at `base` — reach into the block. A
        // field no rule tests has the fresh class alone: nothing to divide.
        let digits = |named: Option<usize>, values: usize, stride: usize, base: usize| match named {
            Some(at) => at..at + 1,
            None if values == 0 => 0..1,
            None => {
                block.start.saturating_sub(base) / stride
                    ..block.end.saturating_sub(base).div_ceil(stride).min(values + 1)
            }
        };
        let [per_src, per_dst, per_l4_src] = self.strides();
        let src = m.src.map(|v| pos(&self.srcs, v));
        let dst = m.dst.map(|v| {
            let next = *near + 1;
            *near = if self.dsts.get(next) == Some(&v) { next } else { pos(&self.dsts, v) };
            *near
        });
        let l4_src = m.l4_src.map(|v| pos(&self.l4_srcs, v));
        let l4_dst = m.l4_dst.map(|v| pos(&self.l4_dsts, v));
        for src in digits(src, self.srcs.len(), per_src, 0) {
            let base = src * per_src;
            for dst in digits(dst, self.dsts.len(), per_dst, base) {
                let base = base + dst * per_dst;
                for l4_src in digits(l4_src, self.l4_srcs.len(), per_l4_src, base) {
                    let base = base + l4_src * per_l4_src;
                    let at = digits(l4_dst, self.l4_dsts.len(), 1, base).map(|d| base + d);
                    // A named digit is not clipped above: it may miss the block.
                    at.filter(|at| block.contains(at)).for_each(&mut visit);
                }
            }
        }
    }

    /// The class a concrete packet header falls into: each field keeps its
    /// value if some rule tests it, else collapses to the fresh class.
    pub fn class_of(&self, src: HostAddr, dst: HostAddr, l4_src: u16, l4_dst: u16) -> HeaderClass {
        fn keep<T: Ord + Copy>(vs: &[T], v: T) -> Option<T> {
            vs.binary_search(&v).ok().map(|_| v)
        }
        HeaderClass {
            src: keep(&self.srcs, src),
            dst: keep(&self.dsts, dst),
            l4_src: keep(&self.l4_srcs, l4_src),
            l4_dst: keep(&self.l4_dsts, l4_dst),
        }
    }
}

/// Position of `v` among a field's values: they come first, in order; the
/// fresh class is last.
fn pos<T: Ord>(vs: &[T], v: T) -> usize {
    vs.binary_search(&v).unwrap_or(vs.len())
}

/// Symbolic match: does `m` fit a packet of class `h` entering on
/// `in_port` with pipeline `metadata`? Mirrors `FlowMatch::matches` exactly,
/// with the fresh class (`None`) failing every concrete field test.
pub(crate) fn entry_matches(
    e: &FlowEntry,
    in_port: sdt_openflow::PortNo,
    metadata: Option<u32>,
    h: &HeaderClass,
) -> bool {
    fn ok<T: PartialEq>(rule: Option<T>, class: Option<T>) -> bool {
        match rule {
            None => true,
            Some(v) => class == Some(v),
        }
    }
    let meta_ok = match e.m.metadata {
        None => true,
        Some(want) => metadata == Some(want),
    };
    meta_ok
        && e.m.in_port.is_none_or(|p| p == in_port)
        && ok(e.m.src, h.src)
        && ok(e.m.dst, h.dst)
        && ok(e.m.l4_src, h.l4_src)
        && ok(e.m.l4_dst, h.l4_dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::default_routes;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_core::sdt::SdtProjector;
    use sdt_core::walk::instantiate;
    use sdt_openflow::{Action, FlowMatch, PortNo};
    use sdt_topology::fattree::fat_tree;

    /// A proof of the synthesized pipeline and a proof of the installed
    /// one read the same tables: both constructors end in the one `apply`.
    #[test]
    fn synthesized_and_installed_views_hold_the_same_tables() {
        let topo = fat_tree(4);
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let proj =
            SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
        let planned = TableView::of_synthesis(&proj.synthesis);
        let installed = TableView::of_switches(&instantiate(&cluster, &proj));
        assert_eq!(planned.num_switches(), installed.num_switches());
        for sw in 0..planned.num_switches() as u32 {
            for table in 0..2 {
                assert!(!planned.entries(sw, table).is_empty(), "switch {sw} table {table}");
                assert_eq!(
                    planned.entries(sw, table),
                    installed.entries(sw, table),
                    "switch {sw} table {table}"
                );
            }
        }
    }

    /// One copy per table: the proof's view and every instantiated switch
    /// hold the synthesized store itself, and a write to a switch copies
    /// only the table it writes — the projection and a proof made before
    /// the write stay byte-identical.
    #[test]
    fn one_copy_per_table_shared_by_synthesis_proof_and_switches() {
        let topo = fat_tree(4);
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        let proj =
            SdtProjector::default().project(&topo, &cluster, &default_routes(&topo)).unwrap();
        let tables = |s: &SynthesisOutput| -> Vec<Vec<FlowEntry>> {
            s.table0.iter().chain(&s.table1).map(|t| t.to_vec()).collect()
        };
        let synthesized = tables(&proj.synthesis);
        let intent = Intent::of_projection(&proj, &topo, topo.name());
        let proof =
            crate::Verifier::check(&cluster, TableView::of_synthesis(&proj.synthesis), intent);
        assert!(proof.holds(), "{}", proof.report().summary());
        let (report, viewed) = (format!("{:?}", proof.report()), format!("{:?}", proof.view()));
        let mut switches = instantiate(&cluster, &proj);
        for (sw, switch) in switches.iter().enumerate() {
            let tables = [&proj.synthesis.table0[sw], &proj.synthesis.table1[sw]];
            for (t, table) in (0..).zip(tables) {
                let store = table.share();
                assert!(Arc::ptr_eq(&switch.table(t).shared_store(), &store), "{sw}/{t}");
                assert!(std::ptr::eq(proof.view().store(sw as u32, t), Arc::as_ptr(&store)));
            }
        }

        let gone = proj.synthesis.table1[0][0];
        switches[0].apply(1, FlowMod::Delete(gone.m, gone.priority)).unwrap();
        let copied = proj.synthesis.table1[0].len() as u64;
        assert_eq!(switches[0].table(1).entries_copied(), copied);
        assert_eq!(switches[0].table(1).len() as u64, copied - 1);
        let written = switches[0].table(1).shared_store();
        assert!(!Arc::ptr_eq(&written, &proj.synthesis.table1[0].share()));
        let untouched =
            (0..2).flat_map(|sw| (0..2).map(move |t| (sw, t))).filter(|&st| st != (0, 1));
        for (sw, t) in untouched {
            let table = [&proj.synthesis.table0[sw], &proj.synthesis.table1[sw]][usize::from(t)];
            assert!(Arc::ptr_eq(&switches[sw].table(t).shared_store(), &table.share()));
            assert_eq!(switches[sw].table(t).entries_copied(), 0, "{sw}/{t}");
        }
        assert_eq!(tables(&proj.synthesis), synthesized);
        assert_eq!(format!("{:?}", proof.report()), report);
        assert_eq!(format!("{:?}", proof.view()), viewed);
    }

    #[test]
    fn fresh_class_fails_concrete_tests() {
        let e = FlowEntry {
            m: FlowMatch::to_dst(HostAddr(7)),
            priority: 1,
            action: Action::Drop,
        };
        let hit = HeaderClass { src: None, dst: Some(HostAddr(7)), l4_src: None, l4_dst: None };
        let fresh = HeaderClass { src: None, dst: None, l4_src: None, l4_dst: None };
        assert!(entry_matches(&e, PortNo(0), None, &hit));
        assert!(!entry_matches(&e, PortNo(0), None, &fresh));
    }

    #[test]
    fn class_of_collapses_unknown_values() {
        let mut v = TableView::empty(1);
        v.apply(
            0,
            1,
            &FlowMod::Add(FlowEntry {
                m: FlowMatch::to_dst(HostAddr(3)),
                priority: 1,
                action: Action::Drop,
            }),
        );
        let vals = HeaderValues::collect(&v);
        let c = vals.class_of(HostAddr(9), HostAddr(3), 4791, 4791);
        assert_eq!(c, HeaderClass { src: None, dst: Some(HostAddr(3)), l4_src: None, l4_dst: None });
        // 2 dst classes (3 + fresh) × 1 × 1 × 1.
        assert_eq!(vals.classes().len(), 2);
        assert_eq!(vals.num_classes(), vals.classes().len());
    }

    #[test]
    fn pair_class_is_the_position_of_class_of() {
        let mut v = TableView::empty(1);
        let rule = |m: FlowMatch| FlowMod::Add(FlowEntry { m, priority: 1, action: Action::Drop });
        for (src, dst, l4) in [(1, 5, 4791), (9, 5, 80), (9, 7, 443)] {
            let to = FlowMatch { src: Some(HostAddr(src)), ..FlowMatch::to_dst(HostAddr(dst)) };
            v.apply(0, 1, &rule(FlowMatch { l4_dst: Some(l4), ..to }));
            v.apply(0, 1, &rule(FlowMatch { l4_src: Some(l4), ..FlowMatch::any() }));
        }
        let vals = HeaderValues::collect(&v);
        let classes = vals.classes();
        for (l4_src, l4_dst) in [(4791, 4791), (80, 443), (1, 2)] {
            for src in [0, 1, 5, 9].map(HostAddr) {
                for dst in [0, 5, 7, 9].map(HostAddr) {
                    let at = vals.pair_class(src, l4_src, l4_dst).0
                        + vals.pair_class(dst, l4_src, l4_dst).1;
                    assert_eq!(classes[at], vals.class_of(src, dst, l4_src, l4_dst));
                }
            }
        }
    }
}
