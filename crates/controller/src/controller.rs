//! Topology Customization + deployment lifecycle.

use crate::config::TestbedConfig;
use crate::recovery::{
    install_with_retry, surviving_topology, unreachable_pairs, FailureReport, RecoveryConfig,
    RetryStats,
};
use crate::wiring::plan_wiring;
use sdt_core::cluster::{PhysLink, PhysicalCluster};
use sdt_core::sdt::{
    FailedResources, ProjectOptions, ProjectionError, SdtProjection, SdtProjector,
};
use sdt_core::walk::instantiate;
use sdt_openflow::{ControlChannel, InstallTiming, OpenFlowSwitch};
use sdt_routing::cdg::{analyze, DeadlockAnalysis};
use sdt_routing::{default_strategy, RouteTable, RoutingStrategy};
use sdt_topology::{HostId, SwitchId, Topology, TopologyKind};
use sdt_verify::{Intent, TableView, Verifier};
use std::collections::HashMap;

/// Outcome of the checking function (§V-1): what the wiring supports and
/// what would have to change.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-topology verdicts, in input order.
    pub verdicts: Vec<Result<(), ProjectionError>>,
}

impl CheckReport {
    /// True when every topology is deployable as-is.
    pub fn all_ok(&self) -> bool {
        self.verdicts.iter().all(Result::is_ok)
    }
}

/// Why a deployment was refused.
#[derive(Debug)]
pub enum DeployError {
    /// The projection failed (wiring or table capacity).
    Projection(ProjectionError),
    /// The Deadlock Avoidance module vetoed the routing (cyclic CDG).
    DeadlockRisk {
        /// Length of the offending dependency cycle.
        cycle_len: usize,
    },
    /// Unknown routing strategy name in the config.
    UnknownStrategy(String),
    /// The static data-plane verifier found a loop, blackhole or leak in
    /// the synthesized tables, so nothing was installed.
    StaticVerification(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Projection(e) => write!(f, "projection failed: {e}"),
            DeployError::DeadlockRisk { cycle_len } => {
                write!(f, "routing rejected: channel dependency cycle of length {cycle_len}")
            }
            DeployError::UnknownStrategy(s) => write!(f, "unknown routing strategy `{s}`"),
            DeployError::StaticVerification(s) => {
                write!(f, "static verification rejected the tables: {s}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Resolve a routing strategy by its config-file name for a topology.
pub fn resolve_strategy(
    name: &str,
    topo: &Topology,
) -> Result<Box<dyn RoutingStrategy>, DeployError> {
    use sdt_routing::{dimension, dragonfly as dfr, fattree as ftr, generic};
    let s: Box<dyn RoutingStrategy> = match (name, topo.kind()) {
        ("default", _) => default_strategy(topo),
        ("bfs", _) => Box::new(generic::Bfs::new(topo)),
        ("updown", _) => Box::new(generic::UpDown::new(topo)),
        ("fattree-dfs", TopologyKind::FatTree { k }) => Box::new(ftr::FatTreeDfs::new(*k)),
        ("dragonfly-minimal", TopologyKind::Dragonfly { a, g, h, p }) => {
            Box::new(dfr::DragonflyMinimal::new(*a, *g, *h, *p, topo))
        }
        ("dragonfly-valiant", TopologyKind::Dragonfly { a, g, h, p }) => {
            Box::new(dfr::DragonflyValiant::new(*a, *g, *h, *p, topo))
        }
        ("dragonfly-ugal", TopologyKind::Dragonfly { a, g, h, p }) => {
            Box::new(dfr::DragonflyUgal::new(*a, *g, *h, *p, topo))
        }
        ("dimension-order", TopologyKind::Mesh { dims }) => {
            Box::new(dimension::DimensionOrder::mesh(dims.clone()))
        }
        ("dimension-order", TopologyKind::Torus { dims }) => {
            Box::new(dimension::DimensionOrder::torus(dims.clone()))
        }
        (other, _) => return Err(DeployError::UnknownStrategy(other.into())),
    };
    Ok(s)
}

/// The Deadlock Avoidance gate (§V-3), shared by deployment, recovery and
/// slice admission: when `required`, routes whose channel dependency graph
/// has a cycle are refused — `Err` carries the cycle's length.
pub(crate) fn deadlock_gate(required: bool, routes: &RouteTable) -> Result<(), usize> {
    match required.then(|| analyze(routes)) {
        Some(DeadlockAnalysis::Cycle(c)) => Err(c.len()),
        _ => Ok(()),
    }
}

/// A live deployment: projection + programmed switches.
#[derive(Debug)]
pub struct Deployment {
    /// The logical topology deployed.
    pub topology: Topology,
    /// The projection onto the cluster.
    pub projection: SdtProjection,
    /// Route table driving the flow tables.
    pub routes: RouteTable,
    /// Programmed switch instances.
    pub switches: Vec<OpenFlowSwitch>,
    /// Modeled deployment time, ns.
    pub deploy_time_ns: u64,
}

/// The SDT controller.
pub struct SdtController {
    cluster: PhysicalCluster,
    projector: SdtProjector,
    timing: InstallTiming,
    require_deadlock_free: bool,
    /// Count of reconfigurations performed (reporting).
    pub reconfigurations: u32,
}

impl SdtController {
    /// Controller over an already-wired cluster.
    pub fn new(cluster: PhysicalCluster) -> Self {
        SdtController {
            cluster,
            // §VII-C: the controller's built-in module merges entries when
            // a projection would exceed a switch's table capacity.
            projector: SdtProjector { merge_entries_on_overflow: true, ..Default::default() },
            timing: InstallTiming::default(),
            require_deadlock_free: true,
            reconfigurations: 0,
        }
    }

    /// Build controller + cluster straight from a parsed config file.
    pub fn from_config(cfg: &TestbedConfig) -> Self {
        let mut c = SdtController::new(cfg.cluster());
        c.require_deadlock_free = cfg.require_deadlock_free;
        c
    }

    /// Build controller + a wiring plan sized for a whole topology
    /// campaign (§IV-B: reserve the max inter-switch links over all
    /// targets).
    pub fn for_campaign(
        topologies: &[Topology],
        model: sdt_core::methods::SwitchModel,
        switches: u32,
    ) -> Result<Self, ProjectionError> {
        let plan = plan_wiring(topologies, &model, switches)?;
        Ok(SdtController::new(plan.build(model, switches)))
    }

    /// The wired cluster.
    pub fn cluster(&self) -> &PhysicalCluster {
        &self.cluster
    }

    /// Statically verify a projection's synthesized tables against the
    /// topology's delivery intent — no packets injected, no counters
    /// touched. Pure read of the would-be pipeline.
    pub fn verify_projection(&self, topo: &Topology, projection: &SdtProjection) -> Verifier {
        Verifier::check(
            &self.cluster,
            TableView::of_synthesis(&projection.synthesis),
            Intent::of_projection(projection, topo, topo.name()),
        )
    }

    /// The deploy/recovery gate: error out with the report summary when the
    /// verifier does not hold.
    fn static_gate(&self, topo: &Topology, projection: &SdtProjection) -> Result<(), DeployError> {
        let v = self.verify_projection(topo, projection);
        if v.holds() {
            Ok(())
        } else {
            Err(DeployError::StaticVerification(v.report().summary()))
        }
    }

    /// §V-1 checking function: can each topology be projected on this
    /// wiring? Failed verdicts say which resource is short and by how much.
    pub fn check(&self, topologies: &[Topology]) -> CheckReport {
        let verdicts = topologies
            .iter()
            .map(|t| {
                let strategy = default_strategy(t);
                let routes = RouteTable::build_for_hosts(t, strategy.as_ref());
                self.projector.project(t, &self.cluster, &routes).map(|_| ())
            })
            .collect();
        CheckReport { verdicts }
    }

    /// Deploy a topology with its default (Table III) strategy.
    pub fn deploy(&mut self, topo: &Topology) -> Result<Deployment, DeployError> {
        self.deploy_with(topo, "default")
    }

    /// Deploy with an explicit routing strategy name.
    pub fn deploy_with(
        &mut self,
        topo: &Topology,
        strategy_name: &str,
    ) -> Result<Deployment, DeployError> {
        let strategy = resolve_strategy(strategy_name, topo)?;
        let routes = RouteTable::build_for_hosts(topo, strategy.as_ref());
        deadlock_gate(self.require_deadlock_free, &routes)
            .map_err(|cycle_len| DeployError::DeadlockRisk { cycle_len })?;
        let projection = self
            .projector
            .project(topo, &self.cluster, &routes)
            .map_err(DeployError::Projection)?;
        // Static verification gate: prove the synthesized pipeline
        // loop-free, blackhole-free and isolation-correct *before* any
        // switch is programmed.
        self.static_gate(topo, &projection)?;
        let switches = instantiate(&self.cluster, &projection);
        let deploy_time_ns = projection.deploy_time_ns(&self.timing);
        Ok(Deployment {
            topology: topo.clone(),
            projection,
            routes,
            switches,
            deploy_time_ns,
        })
    }

    /// Reconfigure from a live deployment to a new topology (what the paper
    /// does "by simply using different topology configuration files").
    /// Only the flow-mod *delta* pays install latency: entries shared by
    /// the old and new pipelines stay put. Returns the new deployment and
    /// the modeled reconfiguration time.
    pub fn reconfigure(
        &mut self,
        old: &Deployment,
        topo: &Topology,
    ) -> Result<(Deployment, u64), DeployError> {
        let new = self.deploy(topo)?;
        // Switches reprogram in parallel: the busiest one bounds the time.
        let delta = sdt_tenancy::Epoch::from_diff(
            sdt_tenancy::SliceId::default(),
            &old.projection.synthesis,
            &new.projection.synthesis,
        );
        let t = delta.report(self.cluster.num_switches() as usize, &self.timing).install_time_ns;
        self.reconfigurations += 1;
        Ok((new, t))
    }

    /// Failure recovery (§V + §VI-E): given the [`FailureReport`] the
    /// [`crate::recovery::FailureDetector`] produced, repair the deployment
    /// and reconcile the *live* switches — stale tables, dropped flow-mods
    /// and all — toward it over `channel`. Two phases:
    ///
    /// 1. **Full recovery** — cable faults only: the *same* logical
    ///    topology and routes are re-projected with the dead cables marked
    ///    unusable and every healthy cable pinned in place, so only the
    ///    re-realized links' flow entries change. The diff scales with the
    ///    damage, not the topology.
    /// 2. **Graceful degradation** — when a sub-switch crashed or the
    ///    spares cannot absorb the damage: the surviving topology (dead
    ///    links removed) is re-routed with the generic deadlock-free
    ///    strategy and re-projected; traffic that cannot be restored is
    ///    returned in [`RecoveryOutcome::unreachable_pairs`], not errored.
    ///
    /// With an empty report this is pure anti-entropy: re-diff the live
    /// tables against the intended synthesis and repair any divergence.
    pub fn recover(
        &mut self,
        old: Deployment,
        report: &FailureReport,
        channel: &mut ControlChannel,
        cfg: &RecoveryConfig,
    ) -> Result<RecoveryOutcome, DeployError> {
        // The cables that realized the dead logical links are the failed
        // physical resources; every healthy cable is preferred where it
        // already is, so the flow-table diff scales with the damage.
        let mut failed = FailedResources::new();
        let mut prefer: HashMap<(SwitchId, SwitchId), PhysLink> = HashMap::new();
        let dead: std::collections::HashSet<(SwitchId, SwitchId)> =
            report.dead_links.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        for l in old.topology.fabric_links() {
            let (a, b) = l.switch_ends();
            let key = (a.min(b), a.max(b));
            let cable = old.projection.link_real[&l.id];
            if dead.contains(&key) {
                failed.fail_cable(&cable);
            } else {
                prefer.insert(key, cable);
            }
        }

        // Phase 1: full recovery. Same topology, same routes; dead cables
        // swapped for spares. A wedged sub-switch rules this out.
        if report.dead_switches.is_empty() {
            let pinned = ProjectOptions {
                fixed_assignment: Some(&old.projection.assignment),
                failed: Some(&failed),
                prefer_cables: Some(&prefer),
            };
            if let Ok(projection) =
                self.projector.project_with(&old.topology, &self.cluster, &old.routes, &pinned)
            {
                return self.finish_recovery(
                    old.topology,
                    projection,
                    old.routes,
                    old.switches,
                    channel,
                    cfg,
                    Vec::new(),
                    false,
                );
            }
        }

        // Phase 2: graceful degradation. The surviving topology is
        // TopologyKind::Custom: default_strategy falls back to generic
        // deadlock-free up/down routing, which keeps working per component
        // however the faults carved the graph.
        let all_dead = report.all_dead_links(&old.topology);
        let surviving = surviving_topology(&old.topology, &all_dead);
        let strategy = default_strategy(&surviving);
        let routes = RouteTable::build_for_hosts(&surviving, strategy.as_ref());
        deadlock_gate(self.require_deadlock_free, &routes)
            .map_err(|cycle_len| DeployError::DeadlockRisk { cycle_len })?;
        let pinned = ProjectOptions {
            fixed_assignment: Some(&old.projection.assignment),
            failed: Some(&failed),
            prefer_cables: Some(&prefer),
        };
        let projection = match self
            .projector
            .project_with(&surviving, &self.cluster, &routes, &pinned)
        {
            Ok(p) => p,
            // Spares exhausted under the pinned partition: re-partition
            // before giving up.
            Err(_) => {
                let repartition =
                    ProjectOptions { failed: Some(&failed), ..Default::default() };
                self.projector
                    .project_with(&surviving, &self.cluster, &routes, &repartition)
                    .map_err(DeployError::Projection)?
            }
        };
        let unreachable = unreachable_pairs(&surviving);
        self.finish_recovery(
            surviving,
            projection,
            routes,
            old.switches,
            channel,
            cfg,
            unreachable,
            !report.is_empty(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_recovery(
        &mut self,
        topology: Topology,
        projection: SdtProjection,
        routes: RouteTable,
        mut switches: Vec<OpenFlowSwitch>,
        channel: &mut ControlChannel,
        cfg: &RecoveryConfig,
        unreachable_pairs: Vec<(HostId, HostId)>,
        degraded: bool,
    ) -> Result<RecoveryOutcome, DeployError> {
        // Pre-install epoch check: the *intended* synthesis is verified
        // statically before a single flow-mod goes out, so a repair that
        // would loop or leak leaves the live (if wounded) tables untouched.
        // The intent is built from the surviving topology, so pairs the
        // faults severed count as expected drops, not blackholes.
        self.static_gate(&topology, &projection)?;
        let scheduled = if cfg.scheduled {
            self.scheduled_reconcile(&topology, &projection, &mut switches, channel, cfg)
        } else {
            None
        };
        let (retry, schedule) = match scheduled {
            Some((retry, rep)) => (retry, Some(rep)),
            // Not asked for, or the scheduler refused (boundary unprovable
            // even fully merged, or the channel diverged into an unsafe
            // state): the plain retry loop, which the epoch-level static
            // gate above still covers.
            None => (
                install_with_retry(channel, &mut switches, &projection.synthesis, cfg, &self.timing),
                None,
            ),
        };
        let recovery_time_ns = cfg.detection_ns() + retry.elapsed_ns;
        let deploy_time_ns = projection.deploy_time_ns(&self.timing);
        self.reconfigurations += 1;
        Ok(RecoveryOutcome {
            unreachable_pairs,
            degraded,
            deployment: Deployment {
                topology,
                projection,
                routes,
                switches,
                deploy_time_ns,
            },
            retry,
            schedule,
            recovery_time_ns,
        })
    }

    /// Transient-safe recovery path: compile the repair diff (live tables →
    /// intended synthesis) into an [`sdt_tenancy::Epoch`], schedule it into
    /// dependency-ordered rounds, and install them with every round
    /// boundary statically proven to introduce *no new* findings over the
    /// wounded base state ([`sdt_tenancy::no_new_findings`] — recovery
    /// starts from tables that may already blackhole, so the bar is
    /// monotone improvement, not perfection). Returns `None` when the
    /// scheduler gives up, letting the caller fall back to
    /// [`install_with_retry`].
    fn scheduled_reconcile(
        &self,
        topology: &Topology,
        projection: &SdtProjection,
        switches: &mut [OpenFlowSwitch],
        channel: &mut ControlChannel,
        cfg: &RecoveryConfig,
    ) -> Option<(RetryStats, sdt_tenancy::ScheduleReport)> {
        let epoch = sdt_tenancy::Epoch::from_entries(
            sdt_tenancy::SliceId::default(),
            switches.len(),
            |sw, t| switches[sw].table(t).entries(),
            |sw, t| sdt_tenancy::epoch::synthesis_entries(&projection.synthesis, sw, t),
        );
        let before = TableView::of_switches(switches);
        let rounds = sdt_tenancy::compile_rounds(&epoch, &before);
        let intent = Intent::of_projection(projection, topology, topology.name());
        let base = Verifier::check(&self.cluster, before, intent.clone());
        let (_proof, rep) = sdt_tenancy::install_scheduled(
            &self.cluster,
            switches,
            channel,
            rounds,
            base,
            &intent,
            &intent,
            &self.timing,
            &cfg.retry,
        )
        .ok()?;
        let retry = RetryStats {
            rounds: rep.rounds.len() as u32,
            retries: rep.rounds.iter().map(|r| r.retries).sum(),
            flow_mods_sent: rep.rounds.iter().map(|r| r.sends).sum(),
            backoff_ns_total: rep.rounds.iter().map(|r| r.backoff_ns).sum(),
            elapsed_ns: rep.install_ns_total,
            converged: rep.converged,
        };
        Some((retry, rep))
    }
}

/// What [`SdtController::recover`] achieved.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The recovered deployment: surviving topology, its projection, and
    /// the live switches after reconciliation.
    pub deployment: Deployment,
    /// Ordered host pairs cut off by the faults (empty when the surviving
    /// topology is still connected).
    pub unreachable_pairs: Vec<(HostId, HostId)>,
    /// Retry counters from the reconciliation loop.
    pub retry: RetryStats,
    /// Per-round report when the transient-safe scheduler carried the
    /// reconciliation ([`RecoveryConfig::scheduled`]); `None` on the
    /// one-shot path or when the scheduler refused and recovery fell back.
    pub schedule: Option<sdt_tenancy::ScheduleReport>,
    /// Modeled end-to-end recovery time: detection + installs + backoff.
    pub recovery_time_ns: u64,
    /// True when any logical link was actually lost.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_core::cluster::ClusterBuilder;
    use sdt_core::methods::SwitchModel;
    use sdt_core::walk::IsolationReport;
    use sdt_topology::chain::{chain, ring};
    use sdt_topology::fattree::fat_tree;
    use sdt_topology::meshtorus::torus;

    fn controller() -> SdtController {
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(16)
            .build();
        SdtController::new(cluster)
    }

    #[test]
    fn deploy_fat_tree_and_verify_dataplane() {
        let mut c = controller();
        let d = c.deploy(&fat_tree(4)).unwrap();
        assert!(d.deploy_time_ns < 1_000_000_000);
        let report = IsolationReport::audit(c.cluster(), &d.projection, &d.topology);
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.delivered, 16 * 15);
    }

    #[test]
    fn reconfigure_between_topologies() {
        let mut c = controller();
        let d1 = c.deploy(&fat_tree(4)).unwrap();
        let (d2, t) = c.reconfigure(&d1, &torus(&[4, 4])).unwrap();
        assert_eq!(c.reconfigurations, 1);
        // Table II: SDT reconfiguration in the 100 ms – 1 s band.
        assert!((100_000_000..=1_000_000_000).contains(&t), "{t} ns");
        let report = IsolationReport::audit(c.cluster(), &d2.projection, &d2.topology);
        assert!(report.clean());
    }

    #[test]
    fn reconfigure_to_same_topology_is_nearly_free() {
        // Identical pipelines diff to zero flow-mods: only the barrier pays.
        let mut c = controller();
        let d1 = c.deploy(&fat_tree(4)).unwrap();
        let (_, t) = c.reconfigure(&d1, &fat_tree(4)).unwrap();
        assert!(t <= 60_000_000, "{t} ns should be barrier-only");
    }

    #[test]
    fn check_reports_shortfalls() {
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(2) // too few for a torus cut
            .build();
        let c = SdtController::new(cluster);
        let report = c.check(&[chain(8), torus(&[4, 4])]);
        assert!(report.verdicts[0].is_ok());
        assert!(matches!(
            report.verdicts[1],
            Err(ProjectionError::NotEnoughInterLinks { need: 8, .. })
        ));
        assert!(!report.all_ok());
    }

    #[test]
    fn deadlock_gate_vetoes_cyclic_routing() {
        // BFS on an odd ring has a cyclic CDG (all 1-VC shortest paths
        // around a cycle).
        let mut c = controller();
        let r = ring(5);
        let err = c.deploy_with(&r, "bfs").unwrap_err();
        assert!(matches!(err, DeployError::DeadlockRisk { .. }));
        // Up/down routing on the same ring passes the gate.
        let d = c.deploy_with(&r, "updown").unwrap();
        let report = IsolationReport::audit(c.cluster(), &d.projection, &d.topology);
        assert!(report.clean());
    }

    #[test]
    fn unknown_strategy_rejected() {
        let mut c = controller();
        assert!(matches!(
            c.deploy_with(&chain(4), "warp-drive"),
            Err(DeployError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn recover_from_link_failure_with_spare_cable() {
        // Torus 4x4 needs 8 inter-switch cables; wire 10 so spares exist.
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(10)
            .build();
        let mut c = SdtController::new(cluster);
        let d = c.deploy(&torus(&[4, 4])).unwrap();
        let dead = (sdt_topology::SwitchId(0), sdt_topology::SwitchId(1));
        let dead_cable = {
            let lid = d
                .topology
                .fabric_links()
                .find(|l| {
                    let (a, b) = l.switch_ends();
                    (a.min(b), a.max(b)) == dead
                })
                .unwrap()
                .id;
            d.projection.link_real[&lid]
        };
        let mut ch = ControlChannel::reliable();
        let report = FailureReport::links(vec![dead]);
        let out = c.recover(d, &report, &mut ch, &RecoveryConfig::default()).unwrap();
        // A spare cable absorbs the fault: FULL recovery, nothing lost.
        assert!(out.retry.converged);
        assert!(!out.degraded, "spare cable means no degradation");
        assert!(out.unreachable_pairs.is_empty());
        assert_eq!(c.reconfigurations, 1);
        // The dead cable must not carry anything in the new projection.
        for cable in out.deployment.projection.link_real.values() {
            assert_ne!((cable.a, cable.b), (dead_cable.a, dead_cable.b));
        }
        // The live switches realize the FULL logical torus again.
        let report = sdt_core::walk::IsolationReport::audit_on(
            c.cluster(),
            &mut { out.deployment.switches },
            &out.deployment.projection,
            &out.deployment.topology,
        );
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.delivered, 16 * 15);
    }

    #[test]
    fn recover_over_lossy_channel_retries_and_converges() {
        let mut c = controller();
        let d = c.deploy(&fat_tree(4)).unwrap();
        let dead = {
            let l = d.topology.fabric_links().next().unwrap();
            (l.a.as_switch().unwrap(), l.b.as_switch().unwrap())
        };
        let mut ch = ControlChannel::new(sdt_openflow::ControlConfig {
            drop_prob: 0.3,
            seed: 42,
            ..sdt_openflow::ControlConfig::reliable()
        });
        let report = FailureReport::links(vec![dead]);
        let out = c.recover(d, &report, &mut ch, &RecoveryConfig::default()).unwrap();
        assert!(out.retry.converged, "{:?}", out.retry);
        assert!(out.retry.retries > 0, "30% loss must trigger the retry path");
        assert!(out.retry.backoff_ns_total > 0);
        assert!(ch.dropped() > 0);
        let mut switches = out.deployment.switches;
        let report = sdt_core::walk::IsolationReport::audit_on(
            c.cluster(),
            &mut switches,
            &out.deployment.projection,
            &out.deployment.topology,
        );
        assert!(report.clean(), "{:?}", report.violations);
    }

    #[test]
    fn recover_from_switch_crash_degrades_and_reports_unreachable() {
        // A wedged sub-switch cannot be re-cabled around: recovery must
        // degrade, carry on per component, and name the lost pairs.
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 1)
            .hosts_per_switch(4)
            .build();
        let mut c = SdtController::new(cluster);
        let d = c.deploy(&chain(4)).unwrap();
        let report = crate::recovery::FailureReport {
            dead_links: vec![],
            dead_switches: vec![sdt_topology::SwitchId(1)],
        };
        let mut ch = ControlChannel::reliable();
        let out = c.recover(d, &report, &mut ch, &RecoveryConfig::default()).unwrap();
        assert!(out.degraded);
        // Components {0}, {1}, {2,3}: ordered host pairs across = 12 - 2.
        assert_eq!(out.unreachable_pairs.len(), 10);
        let mut switches = out.deployment.switches;
        let audit = sdt_core::walk::IsolationReport::audit_on(
            c.cluster(),
            &mut switches,
            &out.deployment.projection,
            &out.deployment.topology,
        );
        assert!(audit.clean(), "{:?}", audit.violations);
        assert_eq!(audit.delivered, 2); // h2 <-> h3 both ways
        assert_eq!(audit.isolated, 10);
    }

    #[test]
    fn recovery_diff_scales_with_damage_not_topology() {
        // One dead link with a spare cable: full recovery keeps topology
        // and routes, so the reconciliation touches only the entries of
        // the re-realized link — far fewer than a from-scratch install.
        let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
            .hosts_per_switch(16)
            .inter_links_per_pair(10)
            .build();
        let mut c = SdtController::new(cluster);
        let d = c.deploy(&torus(&[4, 4])).unwrap();
        let full_install: usize = d.projection.synthesis.entries_per_switch.iter().sum();
        let report =
            FailureReport::links(vec![(sdt_topology::SwitchId(0), sdt_topology::SwitchId(4))]);
        let mut ch = ControlChannel::reliable();
        let out = c.recover(d, &report, &mut ch, &RecoveryConfig::default()).unwrap();
        assert!(out.retry.converged);
        assert!(!out.degraded);
        assert!(
            (out.retry.flow_mods_sent as usize) < full_install / 2,
            "incremental recovery sent {} mods vs {} full install",
            out.retry.flow_mods_sent,
            full_install
        );
    }

    #[test]
    fn recover_with_empty_report_is_anti_entropy() {
        let mut c = controller();
        let mut d = c.deploy(&fat_tree(4)).unwrap();
        // Someone wounded a table behind the controller's back.
        let e = d.switches[0].table(1).entries()[0];
        d.switches[0].apply(1, sdt_openflow::FlowMod::Delete(e.m, e.priority)).unwrap();
        let mut ch = ControlChannel::reliable();
        let out = c
            .recover(d, &FailureReport::default(), &mut ch, &RecoveryConfig::default())
            .unwrap();
        assert!(out.retry.converged);
        assert!(!out.degraded);
        assert_eq!(out.retry.flow_mods_sent, 1, "exactly the missing entry re-sent");
    }

    #[test]
    fn from_config_roundtrip() {
        let cfg = crate::config::TestbedConfig::parse(
            "[topology]\nkind = \"fat-tree\"\nk = 4\n[cluster]\nswitches = 2\nhosts_per_switch = 16\ninter_links_per_pair = 16\n",
        )
        .unwrap();
        let mut c = SdtController::from_config(&cfg);
        assert!(c.deploy(&cfg.topology).is_ok());
    }
}
