//! Slice lifecycle as a controller module: `create` / `reconfigure` /
//! `destroy` over the shared cluster, with the controller's routing and
//! deadlock-avoidance modules in front of admission.
//!
//! The [`sdt_tenancy::SliceManager`] enforces the resource and isolation
//! invariants; this wrapper adds what the paper's controller (§V) owes
//! every deployment regardless of tenancy: named routing-strategy
//! resolution (Table III) and the channel-dependency-graph gate, which
//! vetoes a slice whose routing could deadlock the lossless fabric *before*
//! admission is even attempted.

use crate::config::TestbedConfig;
use crate::routing::{routes, RouteError};
use sdt_core::cluster::PhysicalCluster;
use sdt_routing::RouteTable;
use sdt_tenancy::epoch::EpochReport;
use sdt_tenancy::{
    AdmissionError, ManagerStatus, OpOutcome, ReclaimedResources, SliceId, SliceManager, SliceOp,
};
use sdt_topology::Topology;
use std::fmt;

/// Why a slice operation was refused.
#[derive(Debug)]
pub enum SliceOpError {
    /// The manager refused admission (resources, headroom, unknown slice).
    Admission(AdmissionError),
    /// The routing step refused: an unknown strategy name, or a cyclic
    /// channel dependency graph the Deadlock Avoidance module vetoed.
    Routing(RouteError),
    /// The item's config file did not parse; the parser's message.
    Config(String),
}

impl fmt::Display for SliceOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceOpError::Admission(e) => write!(f, "admission refused: {e}"),
            SliceOpError::Routing(e) => write!(f, "{e}"),
            SliceOpError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SliceOpError {}

/// One lifecycle operation of a [`SliceController::apply_batch`]: what
/// [`SliceOp`] is before its routing strategy is resolved.
#[derive(Clone, Debug)]
pub enum BatchItem {
    /// Admit a slice ([`SliceController::create`]).
    Admit {
        /// Slice name.
        name: String,
        /// Logical topology.
        topo: Topology,
        /// Routing strategy name ("default" for Table III's pick).
        strategy: String,
    },
    /// Reconfigure a slice, one shot ([`SliceController::reconfigure`]).
    Migrate {
        /// The slice.
        id: SliceId,
        /// Its new topology.
        topo: Topology,
        /// Routing strategy name.
        strategy: String,
    },
    /// Tear a slice down ([`SliceController::destroy`]).
    Destroy {
        /// The slice.
        id: SliceId,
    },
}

/// Multi-tenant front of the SDT controller.
pub struct SliceController {
    mgr: SliceManager,
    require_deadlock_free: bool,
}

impl SliceController {
    /// Slice controller over an already-wired cluster.
    pub fn new(cluster: PhysicalCluster) -> Self {
        SliceController { mgr: SliceManager::new(cluster), require_deadlock_free: true }
    }

    /// Build the shared cluster from a config file's `[cluster]` section.
    pub fn from_config(cfg: &TestbedConfig) -> Self {
        let mut c = SliceController::new(cfg.cluster());
        c.require_deadlock_free = cfg.require_deadlock_free;
        c
    }

    /// Wrap an already-populated manager — the daemon's restore path,
    /// where the manager comes back from a snapshot rather than from a
    /// sequence of `create` calls.
    pub fn from_manager(mgr: SliceManager, require_deadlock_free: bool) -> Self {
        SliceController { mgr, require_deadlock_free }
    }

    /// Whether the deadlock gate vetoes routing with a cyclic channel
    /// dependency graph — what a snapshot of this controller records.
    pub fn require_deadlock_free(&self) -> bool {
        self.require_deadlock_free
    }

    /// Resolve a named strategy and run the deadlock gate — the
    /// admission-independent half of `create`/`reconfigure`. The daemon
    /// calls this per request *before* queueing, so a batch handed to
    /// [`SliceManager::apply_batch`] is pure admission work.
    pub fn resolve_routes(
        &self,
        topo: &Topology,
        strategy: &str,
    ) -> Result<RouteTable, SliceOpError> {
        routes(topo, strategy, self.require_deadlock_free).map_err(SliceOpError::Routing)
    }

    /// Admit a slice with a named routing strategy ("default" for
    /// Table III's per-topology pick).
    pub fn create(
        &mut self,
        name: &str,
        topo: &Topology,
        strategy: &str,
    ) -> Result<SliceId, SliceOpError> {
        let routes = self.resolve_routes(topo, strategy)?;
        self.mgr.create(name, topo, routes).map_err(SliceOpError::Admission)
    }

    /// Run several lifecycle operations as one batch — the `slices`
    /// command and the daemon's coalesced runs, so both leave the same
    /// cached proof behind: strategy resolution and the deadlock gate per
    /// item, then one [`SliceManager::apply_batch`] over the survivors (one
    /// static proof for the lot, each refusal still named). An `Err` item
    /// is a config that did not parse: it keeps its place and comes back
    /// as [`SliceOpError::Config`]. Returns one result per item, in order,
    /// and how many items reached `apply_batch`.
    pub fn apply_batch(
        &mut self,
        items: Vec<Result<BatchItem, String>>,
    ) -> (Vec<Result<OpOutcome, SliceOpError>>, usize) {
        let mut ops = Vec::new();
        let resolved: Vec<Result<(), SliceOpError>> = items
            .into_iter()
            .map(|item| {
                ops.push(match item.map_err(SliceOpError::Config)? {
                    BatchItem::Admit { name, topo, strategy } => {
                        let routes = self.resolve_routes(&topo, &strategy)?;
                        SliceOp::Create { name, topo, routes }
                    }
                    BatchItem::Migrate { id, topo, strategy } => {
                        let routes = self.resolve_routes(&topo, &strategy)?;
                        SliceOp::Reconfigure { id, topo, routes }
                    }
                    BatchItem::Destroy { id } => SliceOp::Destroy { id },
                });
                Ok(())
            })
            .collect();
        let reached = ops.len();
        let mut applied = self.mgr.apply_batch(ops).into_iter();
        let results = resolved
            .into_iter()
            .map(|r| {
                r?;
                match applied.next() {
                    Some(outcome) => outcome.map_err(SliceOpError::Admission),
                    None => unreachable!("apply_batch answers every operation"),
                }
            })
            .collect();
        (results, reached)
    }

    /// Make-before-break reconfiguration of an admitted slice to a new
    /// topology. Returns the epoch report (flow-mod counts, modeled
    /// cutover time).
    pub fn reconfigure(
        &mut self,
        id: SliceId,
        topo: &Topology,
        strategy: &str,
    ) -> Result<EpochReport, SliceOpError> {
        let routes = self.resolve_routes(topo, strategy)?;
        self.mgr.reconfigure(id, topo, routes).map_err(SliceOpError::Admission)
    }

    /// Transient-safe reconfiguration: the epoch is compiled into
    /// dependency-ordered rounds, every intermediate table state is proven
    /// before its round installs, and the rounds go out over `channel`
    /// (which may drop and reorder flow-mods). Returns both the epoch
    /// report and the per-round [`sdt_tenancy::ScheduleReport`].
    pub fn reconfigure_scheduled(
        &mut self,
        id: SliceId,
        topo: &Topology,
        strategy: &str,
        channel: &mut sdt_openflow::ControlChannel,
    ) -> Result<(EpochReport, sdt_tenancy::ScheduleReport), SliceOpError> {
        let routes = self.resolve_routes(topo, strategy)?;
        self.mgr.reconfigure_scheduled(id, topo, routes, channel).map_err(SliceOpError::Admission)
    }

    /// Tear a slice down and reclaim its resources.
    pub fn destroy(&mut self, id: SliceId) -> Result<ReclaimedResources, SliceOpError> {
        self.mgr.destroy(id).map_err(SliceOpError::Admission)
    }

    /// Cluster-wide resource accounting snapshot.
    pub fn status(&self) -> ManagerStatus {
        self.mgr.status()
    }

    /// The underlying slice manager.
    pub fn manager(&self) -> &SliceManager {
        &self.mgr
    }

    /// Mutable manager access.
    pub fn manager_mut(&mut self) -> &mut SliceManager {
        &mut self.mgr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_tenancy::SliceAudit;
    use sdt_topology::chain::{chain, ring};
    use sdt_topology::fattree::fat_tree;

    fn controller() -> SliceController {
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(12)
            .build();
        SliceController::new(cluster)
    }

    #[test]
    fn lifecycle_create_reconfigure_destroy() {
        let mut c = controller();
        let a = c.create("a", &fat_tree(4), "default").unwrap();
        let b = c.create("b", &chain(4), "default").unwrap();
        assert_eq!(c.status().slices.len(), 2);

        let report = c.reconfigure(b, &ring(4), "updown").unwrap();
        assert!(report.flow_mods() > 0);
        assert!(SliceAudit::run(c.manager_mut()).clean());

        let reclaimed = c.destroy(a).unwrap();
        assert_eq!(reclaimed.host_ports, 16);
        assert_eq!(c.status().slices.len(), 1);
        assert!(SliceAudit::run(c.manager_mut()).clean());
    }

    #[test]
    fn scheduled_reconfigure_over_lossy_channel_converges_clean() {
        let mut c = controller();
        c.create("a", &fat_tree(4), "default").unwrap();
        let b = c.create("b", &chain(4), "default").unwrap();
        let mut ch = sdt_openflow::ControlChannel::new(sdt_openflow::ControlConfig {
            drop_prob: 0.2,
            reorder_prob: 0.2,
            seed: 11,
            ..sdt_openflow::ControlConfig::reliable()
        });
        let (report, sched) = c.reconfigure_scheduled(b, &ring(4), "updown", &mut ch).unwrap();
        assert!(report.flow_mods() > 0);
        assert!(sched.rounds.len() > 1, "migration must span multiple rounds");
        assert_eq!(sched.violations, 0);
        assert!(sched.converged, "lossy channel must still converge: {sched:?}");
        assert!(SliceAudit::run(c.manager_mut()).clean());
    }

    #[test]
    fn deadlock_gate_runs_before_admission() {
        let mut c = controller();
        // BFS on an odd ring has a cyclic CDG: vetoed pre-admission.
        let err = c.create("r", &ring(5), "bfs").unwrap_err();
        assert!(matches!(err, SliceOpError::Routing(RouteError::DeadlockRisk { cycle_len: 5 })));
        assert_eq!(c.status().slices.len(), 0);
        // The same slice under up/down routing is admitted.
        c.create("r", &ring(5), "updown").unwrap();
    }

    #[test]
    fn unknown_strategy_named_in_error() {
        let mut c = controller();
        match c.create("x", &chain(3), "warp-drive") {
            Err(SliceOpError::Routing(RouteError::UnknownStrategy(s))) => {
                assert_eq!(s, "warp-drive")
            }
            other => panic!("{other:?}"),
        }
    }
}
