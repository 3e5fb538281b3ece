//! Concurrent per-slice workloads in one engine run.
//!
//! The slice manager (sdt-tenancy) proves that co-tenant slices are
//! isolated at the flow-table level; this module provides the matching
//! *performance* story: all admitted slices run their workloads inside one
//! [`Simulator`] as the disjoint-union topology, with flows tagged by
//! slice so telemetry (FCT percentiles, fabric bytes) can be reported per
//! tenant.
//!
//! Because the union is built per connected component — routing trees are
//! rooted per component and `build_for_hosts` never crosses components —
//! slices cannot exchange a single byte inside the engine, and appending a
//! component *last* leaves every earlier component's host ids, channel
//! indices, and event order untouched. That is what makes the
//! make-before-break claim testable end-to-end: [`MultiSliceSim::new_with_staged`]
//! pre-builds a slice's replacement topology as a trailing staged
//! component, [`cutover`](MultiSliceSim::cutover) flips the slice's new
//! flows onto it mid-run, and the other slices' telemetry stays
//! byte-identical to a run where the reconfiguration never happened.

use crate::config::SimConfig;
use crate::engine::{FlowId, SimOutcome, Simulator, Time};
use crate::telemetry::FctSummary;
use sdt_routing::{default_strategy, RouteTable};
use sdt_topology::{HostId, SwitchId, Topology};

/// One component of the union: a slice's topology instance placed at a
/// host/switch offset.
#[derive(Clone, Debug)]
struct Component {
    topo: Topology,
    host_off: u32,
    switch_off: u32,
}

/// A multi-tenant simulation: one engine, one union topology, per-slice
/// flow tagging and telemetry.
pub struct MultiSliceSim {
    sim: Simulator,
    components: Vec<Component>,
    /// Slice index -> component currently receiving new flows.
    active: Vec<usize>,
    /// Staged replacement components: slice index -> component index.
    staged: Vec<Option<usize>>,
    /// Per slice: (engine flow id, component the flow was started in).
    flows: Vec<Vec<(FlowId, usize)>>,
}

impl MultiSliceSim {
    /// One engine over the disjoint union of `slices`, one component per
    /// slice, in order.
    pub fn new(slices: &[&Topology], cfg: SimConfig) -> Self {
        Self::new_with_staged(slices, &[], cfg)
    }

    /// Like [`new`](Self::new), but additionally pre-builds replacement
    /// topologies as *trailing* components: `staged` pairs a slice index
    /// with the topology it will be reconfigured to. Until
    /// [`cutover`](Self::cutover), the staged component carries no flows;
    /// because it is appended after every primary component, its presence
    /// does not shift any other slice's ids or channels.
    pub fn new_with_staged(
        slices: &[&Topology],
        staged: &[(usize, &Topology)],
        cfg: SimConfig,
    ) -> Self {
        let mut components = Vec::with_capacity(slices.len() + staged.len());
        let (mut h_off, mut s_off) = (0u32, 0u32);
        let mut push = |t: &Topology| {
            components.push(Component {
                topo: t.clone(),
                host_off: h_off,
                switch_off: s_off,
            });
            h_off += t.num_hosts();
            s_off += t.num_switches();
        };
        for t in slices {
            push(t);
        }
        let mut staged_of = vec![None; slices.len()];
        for (ci, &(slice, t)) in staged.iter().enumerate() {
            assert!(slice < slices.len(), "staged entry names slice {slice} of {}", slices.len());
            push(t);
            staged_of[slice] = Some(slices.len() + ci);
        }

        let parts: Vec<&Topology> = components.iter().map(|c| &c.topo).collect();
        let union = Topology::disjoint_union("multi-slice", &parts);
        let strategy = default_strategy(&union);
        let routes = RouteTable::build_for_hosts(&union, strategy.as_ref());
        MultiSliceSim {
            sim: Simulator::new(&union, routes, cfg),
            active: (0..slices.len()).collect(),
            staged: staged_of,
            flows: vec![Vec::new(); slices.len()],
            components,
        }
    }

    /// Number of slices (primary components).
    pub fn num_slices(&self) -> usize {
        self.flows.len()
    }

    /// Flip a slice's *new* flows onto its staged replacement component —
    /// the simulation-side view of a make-before-break reconfiguration.
    /// In-flight flows on the old component drain naturally, exactly as
    /// traffic in flight during an epoch keeps flowing on the old rules.
    pub fn cutover(&mut self, slice: usize) {
        let c = match self.staged[slice] {
            Some(c) => c,
            None => panic!("cutover requires a staged component for slice {slice}"),
        };
        self.active[slice] = c;
    }

    /// Start a raw (always-backlogged) flow between two of a slice's hosts
    /// (slice-local host ids).
    pub fn start_raw_flow(&mut self, slice: usize, src: HostId, dst: HostId, bytes: u64) -> FlowId {
        let c = self.active[slice];
        let off = self.components[c].host_off;
        let id = self.sim.start_raw_flow(HostId(off + src.0), HostId(off + dst.0), bytes);
        self.flows[slice].push((id, c));
        id
    }

    /// Start a TCP flow between two of a slice's hosts (slice-local ids).
    pub fn start_tcp_flow(&mut self, slice: usize, src: HostId, dst: HostId, bytes: u64) -> FlowId {
        let c = self.active[slice];
        let off = self.components[c].host_off;
        let id = self.sim.start_tcp_flow(HostId(off + src.0), HostId(off + dst.0), bytes);
        self.flows[slice].push((id, c));
        id
    }

    /// Run until done / deadlock / time limit (see [`Simulator::run`]).
    pub fn run(&mut self) -> SimOutcome {
        self.sim.run()
    }

    /// Raise (or clear, with 0) the simulated-time limit; the run is
    /// resumable afterwards.
    pub fn set_time_limit(&mut self, max_sim_ns: Time) {
        self.sim.set_time_limit(max_sim_ns)
    }

    /// Current simulated time, ns.
    pub fn now_ns(&self) -> Time {
        self.sim.now_ns()
    }

    /// One slice's packet-loss accounting: `(unfinished, delivered)` flow
    /// counts over everything the slice ever started. Combined with
    /// [`Simulator::stats`]'s `drops` counter (cells dropped engine-wide),
    /// `unfinished == 0 && drops == 0` is the zero-packet-loss claim
    /// `tests/multi_tenant.rs` asserts across a mid-run cutover.
    pub fn slice_loss(&self, slice: usize) -> (usize, usize) {
        let mut unfinished = 0;
        let mut delivered = 0;
        for &(id, _) in &self.flows[slice] {
            if self.sim.flow_stats(id).finish.is_some() {
                delivered += 1;
            } else {
                unfinished += 1;
            }
        }
        (unfinished, delivered)
    }

    /// FCT summary over one slice's finished flows (nearest-rank
    /// percentiles).
    pub fn slice_fct_summary(&self, slice: usize) -> FctSummary {
        let fcts = self.flows[slice]
            .iter()
            .filter_map(|&(id, _)| {
                let st = self.sim.flow_stats(id);
                st.finish.map(|t| t.saturating_sub(st.start))
            })
            .collect();
        FctSummary::from_durations(fcts)
    }

    /// One slice's flow stats, in start order, with host ids localized
    /// back into the slice's own numbering.
    pub fn slice_flow_stats(&self, slice: usize) -> Vec<crate::engine::FlowStats> {
        self.flows[slice]
            .iter()
            .map(|&(id, c)| {
                let mut st = self.sim.flow_stats(id);
                let off = self.components[c].host_off;
                st.src_host -= off;
                st.dst_host -= off;
                st
            })
            .collect()
    }

    /// Bytes one slice moved over its fabric links (both directions of
    /// every switch↔switch channel of its components), over the run so
    /// far.
    pub fn slice_fabric_bytes(&self, slice: usize) -> u64 {
        let mut comps = vec![self.active[slice]];
        if self.active[slice] != slice {
            comps.push(slice); // old component still drains after cutover
        }
        let mut total = 0;
        for &ci in &comps {
            let c = &self.components[ci];
            for l in c.topo.fabric_links() {
                let (la, lb) = l.switch_ends();
                let a = SwitchId(c.switch_off + la.0);
                let b = SwitchId(c.switch_off + lb.0);
                total += self.sim.channel_bytes(a, b) + self.sim.channel_bytes(b, a);
            }
        }
        total
    }

    /// The underlying engine (cross-slice aggregates, utilization
    /// reports).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_topology::chain::{chain, ring};
    use sdt_topology::meshtorus::mesh;

    #[test]
    fn slices_run_concurrently_with_private_telemetry() {
        let (a, b) = (chain(4), ring(4));
        let mut ms = MultiSliceSim::new(&[&a, &b], SimConfig::default());
        ms.start_raw_flow(0, HostId(0), HostId(3), 400_000);
        ms.start_raw_flow(1, HostId(0), HostId(2), 200_000);
        assert_eq!(ms.run(), SimOutcome::Completed);
        let (sa, sb) = (ms.slice_fct_summary(0), ms.slice_fct_summary(1));
        assert_eq!((sa.count, sb.count), (1, 1));
        // 4-hop chain flow takes longer than the 2-hop ring flow.
        assert!(sa.max_ns > sb.max_ns);
        assert!(ms.slice_fabric_bytes(0) >= 400_000);
        assert!(ms.slice_fabric_bytes(1) >= 200_000);
        // Localized stats use slice-local ids.
        let stats = ms.slice_flow_stats(1);
        assert_eq!((stats[0].src_host, stats[0].dst_host), (0, 2));
    }

    #[test]
    fn trailing_staged_component_is_invisible_until_cutover() {
        let (a, b, c) = (chain(3), ring(4), mesh(&[2, 2]));
        let b2 = chain(4);

        let mut control = MultiSliceSim::new(&[&a, &b, &c], SimConfig::default());
        let mut test = MultiSliceSim::new_with_staged(&[&a, &b, &c], &[(1, &b2)], SimConfig::default());
        for ms in [&mut control, &mut test] {
            ms.start_raw_flow(0, HostId(0), HostId(2), 300_000);
            ms.start_raw_flow(1, HostId(0), HostId(2), 250_000);
            ms.start_raw_flow(2, HostId(0), HostId(3), 350_000);
            assert_eq!(ms.run(), SimOutcome::Completed);
        }
        for s in 0..3 {
            assert_eq!(control.slice_fct_summary(s), test.slice_fct_summary(s));
            assert_eq!(control.slice_fabric_bytes(s), test.slice_fabric_bytes(s));
        }
    }

    #[test]
    fn cutover_moves_new_flows_to_the_staged_component() {
        let a = chain(3);
        let b = ring(4);
        let b2 = chain(4);
        let mut ms = MultiSliceSim::new_with_staged(&[&a, &b], &[(1, &b2)], SimConfig::default());
        ms.start_raw_flow(1, HostId(0), HostId(2), 100_000);
        ms.cutover(1);
        // chain(4) host 3 exists only in the replacement topology.
        ms.start_raw_flow(1, HostId(0), HostId(3), 100_000);
        assert_eq!(ms.run(), SimOutcome::Completed);
        let s = ms.slice_fct_summary(1);
        assert_eq!(s.count, 2);
        // Post-cutover fabric accounting covers old + new components.
        assert!(ms.slice_fabric_bytes(1) >= 200_000);
    }
}
