//! Topology Customization + deployment lifecycle.

use crate::config::TestbedConfig;
use crate::recovery::{surviving_topology, unreachable_pairs, FailureReport, DETECTION_NS};
use crate::routing::{routes, RouteError};
use crate::wiring::plan_wiring;
use sdt_core::cluster::{PhysLink, PhysicalCluster};
use sdt_core::sdt::{
    FailedResources, ProjectOptions, ProjectionError, SdtProjection, SdtProjector,
};
use sdt_core::walk::instantiate;
use sdt_openflow::{reconcile, ControlChannel, OpenFlowSwitch, Reconciled};
use sdt_routing::RouteTable;
use sdt_tenancy::epoch::synthesis_entries;
use sdt_topology::{HostId, SwitchId, Topology};
use sdt_verify::{Intent, TableView, Verifier};
use std::collections::HashMap;

/// Why a deployment was refused.
#[derive(Debug)]
pub enum DeployError {
    /// The projection failed (wiring or table capacity).
    Projection(ProjectionError),
    /// The routing step refused: an unknown strategy name, or a cyclic
    /// channel dependency graph the Deadlock Avoidance module vetoed.
    Routing(RouteError),
    /// The static data-plane verifier found a loop, blackhole or leak in
    /// the synthesized tables, so nothing was installed.
    StaticVerification(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Projection(e) => write!(f, "projection failed: {e}"),
            DeployError::Routing(e) => write!(f, "{e}"),
            DeployError::StaticVerification(s) => {
                write!(f, "static verification rejected the tables: {s}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

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
            projector: SdtProjector { merge_entries_on_overflow: true },
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

    /// §V-1 checking function: the deploy pipeline short of programming a
    /// switch — routing under `strategy` with its deadlock gate, the
    /// projection, and the static proof of the synthesized tables. A
    /// topology checks exactly when [`SdtController::deploy_with`] would
    /// deploy it; a failed projection says which resource is short and by
    /// how much.
    pub fn check(
        &self,
        topo: &Topology,
        strategy: &str,
    ) -> Result<(RouteTable, SdtProjection), DeployError> {
        let routes =
            routes(topo, strategy, self.require_deadlock_free).map_err(DeployError::Routing)?;
        let projection = self
            .projector
            .project(topo, &self.cluster, &routes)
            .map_err(DeployError::Projection)?;
        // Static verification gate: prove the synthesized pipeline
        // loop-free, blackhole-free and isolation-correct *before* any
        // switch is programmed.
        self.static_gate(topo, &projection)?;
        Ok((routes, projection))
    }

    /// Deploy a topology with its default (Table III) strategy.
    pub fn deploy(&mut self, topo: &Topology) -> Result<Deployment, DeployError> {
        self.deploy_with(topo, "default")
    }

    /// Deploy with an explicit routing strategy name: [`SdtController::check`],
    /// then program the switches.
    pub fn deploy_with(
        &mut self,
        topo: &Topology,
        strategy_name: &str,
    ) -> Result<Deployment, DeployError> {
        let (routes, projection) = self.check(topo, strategy_name)?;
        let switches = instantiate(&self.cluster, &projection);
        let deploy_time_ns = projection.deploy_time_ns();
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
        let t = delta.report(self.cluster.num_switches() as usize).install_time_ns;
        self.reconfigurations += 1;
        Ok((new, t))
    }

    /// Failure recovery (§V + §VI-E): given the [`FailureReport`] the
    /// [`crate::recovery::FailureDetector`] produced, repair the deployment
    /// and reconcile the *live* switches — stale tables, dropped flow-mods
    /// and all — toward it over `channel` ([`sdt_openflow::reconcile`]
    /// under its fixed retry budget). Two phases:
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
                    Vec::new(),
                    false,
                );
            }
        }

        // Phase 2: graceful degradation. The surviving topology is
        // TopologyKind::Custom: its default strategy is generic
        // deadlock-free up/down routing, which keeps working per component
        // however the faults carved the graph.
        let all_dead = report.all_dead_links(&old.topology);
        let surviving = surviving_topology(&old.topology, &all_dead);
        let routes = routes(&surviving, "default", self.require_deadlock_free)
            .map_err(DeployError::Routing)?;
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
        unreachable_pairs: Vec<(HostId, HostId)>,
        degraded: bool,
    ) -> Result<RecoveryOutcome, DeployError> {
        // Pre-install epoch check: the *intended* synthesis is verified
        // statically before a single flow-mod goes out, so a repair that
        // would loop or leak leaves the live (if wounded) tables untouched.
        // The intent is built from the surviving topology, so pairs the
        // faults severed count as expected drops, not blackholes.
        self.static_gate(&topology, &projection)?;
        let target = |sw, t| synthesis_entries(&projection.synthesis, sw, t);
        let retry = reconcile(channel, &mut switches, target, 0);
        let recovery_time_ns = DETECTION_NS + retry.install_ns;
        let deploy_time_ns = projection.deploy_time_ns();
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
            recovery_time_ns,
        })
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
    /// What the reconciliation loop did: attempts, re-sends, backoff.
    pub retry: Reconciled,
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
        assert!(c.check(&chain(8), "default").is_ok());
        assert!(matches!(
            c.check(&torus(&[4, 4]), "default"),
            Err(DeployError::Projection(ProjectionError::NotEnoughInterLinks { need: 8, .. }))
        ));
    }

    #[test]
    fn deadlock_gate_vetoes_cyclic_routing() {
        // BFS on an odd ring has a cyclic CDG (all 1-VC shortest paths
        // around a cycle).
        let mut c = controller();
        let r = ring(5);
        let err = c.deploy_with(&r, "bfs").unwrap_err();
        assert!(matches!(err, DeployError::Routing(RouteError::DeadlockRisk { cycle_len: 5 })));
        // The checking function refuses it the same way.
        assert!(matches!(
            c.check(&r, "bfs"),
            Err(DeployError::Routing(RouteError::DeadlockRisk { cycle_len: 5 }))
        ));
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
            Err(DeployError::Routing(RouteError::UnknownStrategy(_)))
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
        let out = c.recover(d, &report, &mut ch).unwrap();
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
        let out = c.recover(d, &report, &mut ch).unwrap();
        assert!(out.retry.converged, "{:?}", out.retry);
        assert!(out.retry.retries > 0, "30% loss must trigger the retry path");
        assert!(out.retry.backoff_ns > 0);
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
        let out = c.recover(d, &report, &mut ch).unwrap();
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
        // The cases are the recoveries EXPERIMENTS.md quotes, on the
        // `failure_recovery` example's cluster: (cut, channel) → (sends,
        // attempts, retries, backoff ns, modeled recovery ns, converged).
        use sdt_openflow::ControlConfig;
        let lossy =
            ControlConfig { drop_prob: 0.25, reorder_prob: 0.05, delay_ns: 100_000, seed: 7 };
        let dead = ControlConfig { drop_prob: 1.0, ..ControlConfig::reliable() };
        let cases = [
            ((0, 4), ControlConfig::reliable(), (28, 1, 0, 0, 81_000_000, true)),
            // The example's phase 1.
            ((0, 1), lossy, (16, 3, 2, 6_000_000, 175_600_000, true)),
            // Every mod dropped: the budget runs out and says so; each
            // attempt pays its barrier on top of the 2+4+8+16+32 ms backoff.
            ((0, 1), dead, (60, 6, 5, 62_000_000, 425_000_000, false)),
        ];
        for ((a, b), channel, want) in cases {
            let cluster = ClusterBuilder::new(SwitchModel::openflow_128x100g(), 2)
                .hosts_per_switch(16)
                .inter_links_per_pair(10)
                .build();
            let mut c = SdtController::new(cluster);
            let d = c.deploy(&torus(&[4, 4])).unwrap();
            let full_install: usize = d.projection.synthesis.entries_per_switch.iter().sum();
            let report = FailureReport::links(vec![(SwitchId(a), SwitchId(b))]);
            let out = c.recover(d, &report, &mut ControlChannel::new(channel)).unwrap();
            assert!(!out.degraded);
            let r = out.retry;
            let got =
                (r.sends, r.attempts, r.retries, r.backoff_ns, out.recovery_time_ns, r.converged);
            assert_eq!(got, want, "cut s{a}-s{b} over {channel:?}");
            assert!(
                (r.sends as usize) < full_install / 2,
                "incremental recovery sent {} mods vs {full_install} full install",
                r.sends
            );
        }
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
            .recover(d, &FailureReport::default(), &mut ch)
            .unwrap();
        assert!(out.retry.converged);
        assert!(!out.degraded);
        assert_eq!(out.retry.sends, 1, "exactly the missing entry re-sent");
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
