//! Failure detection and degradation (§V + §VI-E recovery).
//!
//! Two pieces, composed by [`crate::SdtController::recover`]:
//!
//! * [`FailureDetector`] — the Network Monitor's failure-facing half:
//!   port-stat staleness (a logical channel whose byte counters freeze in
//!   *both* directions for [`DETECT_STALE_POLLS`] consecutive polls is
//!   suspect);
//! * [`surviving_topology`] / [`unreachable_pairs`] — graceful
//!   degradation: the logical topology minus everything the faults took
//!   out, and the host pairs an operator must be told are gone.
//!
//! The repair itself is [`sdt_openflow::reconcile`] aimed at the intended
//! synthesis: a silently dropped flow-mod is caught because the diff is
//! computed from the switch's *actual* table, not from what the controller
//! believes it sent.

use sdt_core::sdt::SdtProjection;
use sdt_openflow::OpenFlowSwitch;
use sdt_topology::{HostId, SwitchId, Topology, TopologyBuilder};
use std::collections::{HashMap, HashSet};

/// Consecutive stale monitor polls before a channel is declared dead.
pub const DETECT_STALE_POLLS: u32 = 3;
/// Monitor poll interval, ns.
pub const POLL_INTERVAL_NS: u64 = 1_000_000;
/// Modeled detection latency: polls until a frozen counter is trusted.
pub const DETECTION_NS: u64 = DETECT_STALE_POLLS as u64 * POLL_INTERVAL_NS;

/// What the failure detector hands the controller: which logical links
/// lost their cable, and which sub-switches are wedged beyond a flow-mod's
/// reach. Cable faults are recoverable in full when spare cables exist;
/// dead switches always force degradation.
#[derive(Clone, Debug, Default)]
pub struct FailureReport {
    /// Logical links whose physical cable is dead.
    pub dead_links: Vec<(SwitchId, SwitchId)>,
    /// Sub-switches crashed and not coming back.
    pub dead_switches: Vec<SwitchId>,
}

impl FailureReport {
    /// A report of cable faults only.
    pub fn links(dead_links: Vec<(SwitchId, SwitchId)>) -> Self {
        FailureReport { dead_links, dead_switches: Vec::new() }
    }

    /// True when nothing failed.
    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_switches.is_empty()
    }

    /// Every logical link unusable under this report: the dead links plus
    /// all fabric links incident to a dead switch.
    pub fn all_dead_links(&self, topo: &Topology) -> Vec<(SwitchId, SwitchId)> {
        let mut dead: HashSet<(SwitchId, SwitchId)> =
            self.dead_links.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        let crashed: HashSet<SwitchId> = self.dead_switches.iter().copied().collect();
        for l in topo.fabric_links() {
            let (a, b) = l.switch_ends();
            if crashed.contains(&a) || crashed.contains(&b) {
                dead.insert((a.min(b), a.max(b)));
            }
        }
        let mut v: Vec<_> = dead.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// Monitor-driven failure detection by port-stat staleness.
///
/// Staleness is judged per *logical* channel through the projection's port
/// map: if the tx counter behind a channel freezes in both directions for
/// [`DETECT_STALE_POLLS`] consecutive polls, the link is suspected. (Like any
/// passive monitor, this needs background traffic to discriminate — an
/// idle-by-design link looks identical to a dead one.)
#[derive(Clone, Debug, Default)]
pub struct FailureDetector {
    polls: u64,
    last_tx: HashMap<(SwitchId, SwitchId), u64>,
    stale: HashMap<(SwitchId, SwitchId), u32>,
}

impl FailureDetector {
    /// One monitor poll: fold the switches' per-port tx counters through
    /// the projection and update per-channel staleness.
    pub fn poll(&mut self, topo: &Topology, proj: &SdtProjection, switches: &[OpenFlowSwitch]) {
        for s in 0..topo.num_switches() {
            let s = SwitchId(s);
            for &(t, lid) in topo.neighbors(s) {
                let pp = proj.port_of[&(s, lid)];
                let tx = switches[pp.switch as usize].port_stats(pp.port).tx_bytes;
                let frozen = self.polls > 0 && self.last_tx.get(&(s, t)) == Some(&tx);
                let count = self.stale.entry((s, t)).or_insert(0);
                *count = if frozen { *count + 1 } else { 0 };
                self.last_tx.insert((s, t), tx);
            }
        }
        self.polls += 1;
    }

    /// Links currently suspected dead: every channel stale in both
    /// directions for at least [`DETECT_STALE_POLLS`] polls. Normalized
    /// `(min, max)` pairs, sorted.
    pub fn suspected(&self) -> Vec<(SwitchId, SwitchId)> {
        let mut out: HashSet<(SwitchId, SwitchId)> = HashSet::new();
        for (&(s, t), &n) in &self.stale {
            if n >= DETECT_STALE_POLLS
                && self.stale.get(&(t, s)).is_some_and(|&m| m >= DETECT_STALE_POLLS)
            {
                out.insert((s.min(t), s.max(t)));
            }
        }
        let mut v: Vec<_> = out.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// The logical topology with `dead_links` removed. Switches and host
/// attachments are kept (indices stay aligned with the original), so a
/// fully cut-off switch becomes its own connected component — which is
/// exactly how [`unreachable_pairs`] and the isolation audit account for
/// it. The result is tagged [`sdt_topology::TopologyKind::Custom`] so
/// routing falls back to the generic deadlock-free strategy instead of a
/// generator-specific one that assumes the full structure.
pub fn surviving_topology(topo: &Topology, dead_links: &[(SwitchId, SwitchId)]) -> Topology {
    let dead: HashSet<(SwitchId, SwitchId)> =
        dead_links.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    let mut b = TopologyBuilder::new(
        format!("{}-degraded", topo.name()),
        topo.num_switches(),
        topo.num_hosts(),
    );
    for l in topo.fabric_links() {
        let (x, y) = l.switch_ends();
        if !dead.contains(&(x.min(y), x.max(y))) {
            b.fabric(x, y);
        }
    }
    for h in 0..topo.num_hosts() {
        let h = HostId(h);
        for &(s, _) in topo.attachments(h) {
            b.attach(h, s);
        }
    }
    match b.build() {
        Ok(t) => t,
        Err(e) => unreachable!("removing links cannot invalidate a valid topology: {e}"),
    }
}

/// Ordered host pairs in different connected components of `topo` — the
/// traffic an operator must be told cannot be restored. Empty when the
/// surviving topology is still connected.
pub fn unreachable_pairs(topo: &Topology) -> Vec<(HostId, HostId)> {
    let comp = topo.component_of();
    let mut out = Vec::new();
    for a in 0..topo.num_hosts() {
        for b in 0..topo.num_hosts() {
            if a != b {
                let (ha, hb) = (HostId(a), HostId(b));
                if comp[topo.host_switch(ha).idx()] != comp[topo.host_switch(hb).idx()] {
                    out.push((ha, hb));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SdtController;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_core::walk::walk_packet;
    use sdt_topology::chain::{chain, ring};

    fn controller(hosts: u16) -> SdtController {
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 1)
            .hosts_per_switch(hosts)
            .build();
        SdtController::new(cluster)
    }

    #[test]
    fn detector_flags_the_idle_link_only() {
        let mut c = controller(4);
        let topo = chain(4);
        let mut d = c.deploy(&topo).unwrap();
        let mut det = FailureDetector::default();
        // Traffic h0<->h1 and h1<->h2 keeps s0-s1 and s1-s2 hot in both
        // directions; s2-s3 stays frozen — as if its cable were cut.
        for _ in 0..5 {
            for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
                walk_packet(
                    c.cluster(),
                    &mut d.switches,
                    &d.projection,
                    &topo,
                    HostId(a),
                    HostId(b),
                );
            }
            det.poll(&topo, &d.projection, &d.switches);
        }
        assert_eq!(det.suspected(), vec![(SwitchId(2), SwitchId(3))]);
    }

    #[test]
    fn surviving_topology_splits_components() {
        let topo = ring(6);
        // One cut: a ring stays connected.
        let one = surviving_topology(&topo, &[(SwitchId(0), SwitchId(1))]);
        assert!(one.is_connected());
        assert!(unreachable_pairs(&one).is_empty());
        // Two cuts: the ring falls into two arcs.
        let two =
            surviving_topology(&topo, &[(SwitchId(0), SwitchId(1)), (SwitchId(3), SwitchId(4))]);
        assert!(!two.is_connected());
        let gone = unreachable_pairs(&two);
        // Arcs {1,2,3} and {4,5,0}: 3*3 cross pairs, ordered = 18.
        assert_eq!(gone.len(), 18);
        // Symmetric: (a,b) gone  =>  (b,a) gone.
        let set: HashSet<_> = gone.iter().copied().collect();
        assert!(gone.iter().all(|&(a, b)| set.contains(&(b, a))));
    }
}
