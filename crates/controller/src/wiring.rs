//! Wiring planning for a topology campaign (§IV-B).
//!
//! When a testbed must host several topologies over its lifetime, the
//! paper's rule is: partition *every* target topology in advance, then
//! reserve per switch pair the **maximum** inter-switch link count any of
//! them needs ("the reserved inter-switch links usually come from the
//! maximum inter-switch links among all topologies"), and host ports / self
//! links likewise.

use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_core::sdt::ProjectionError;
use sdt_partition::{partition_topology, PartitionConfig};
use sdt_topology::{HostId, Topology};

/// A wiring plan satisfying a set of topologies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WiringPlan {
    /// Host ports to reserve per switch.
    pub hosts_per_switch: u16,
    /// Inter-switch cables per switch pair.
    pub inter_links_per_pair: u16,
    /// Self-links needed on the busiest switch (must fit in the leftover
    /// ports).
    pub max_self_links: u16,
}

impl WiringPlan {
    /// Materialize the plan as a cluster.
    pub fn build(&self, model: SwitchModel, switches: u32) -> PhysicalCluster {
        ClusterBuilder::new(model, switches)
            .hosts_per_switch(self.hosts_per_switch)
            .inter_links_per_pair(self.inter_links_per_pair)
            .build()
    }
}

/// Plan the wiring of `switches` switches of `model` so that every
/// topology in `topologies` projects. Errors with the first resource that
/// cannot fit even with an ideal split.
pub fn plan_wiring(
    topologies: &[Topology],
    model: &SwitchModel,
    switches: u32,
) -> Result<WiringPlan, ProjectionError> {
    let cfg = PartitionConfig::default();
    let mut hosts_need = 0u16;
    let mut inter_need = 0u16;
    let mut self_need = 0u16;
    for topo in topologies {
        let assignment: Vec<u32> = if switches == 1 {
            vec![0; topo.num_switches() as usize]
        } else {
            partition_topology(topo, switches, &cfg).assignment().to_vec()
        };
        // Host ports per physical switch.
        let mut hosts = vec![0u16; switches as usize];
        for h in 0..topo.num_hosts() {
            for &(s, _) in topo.attachments(HostId(h)) {
                hosts[assignment[s.idx()] as usize] += 1;
            }
        }
        hosts_need = hosts_need.max(*hosts.iter().max().unwrap_or(&0));
        // Link classes.
        let mut selfs = vec![0u16; switches as usize];
        let mut inters = std::collections::HashMap::<(u32, u32), u16>::new();
        for l in topo.fabric_links() {
            let (ea, eb) = l.switch_ends();
            let (a, b) = (assignment[ea.idx()], assignment[eb.idx()]);
            if a == b {
                selfs[a as usize] += 1;
            } else {
                *inters.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        self_need = self_need.max(*selfs.iter().max().unwrap_or(&0));
        inter_need = inter_need.max(inters.values().copied().max().unwrap_or(0));
    }
    let plan = WiringPlan {
        hosts_per_switch: hosts_need,
        inter_links_per_pair: inter_need,
        max_self_links: self_need,
    };
    // Does it fit in the port budget?
    let peers = (switches - 1) as u16;
    let used = plan.hosts_per_switch + plan.inter_links_per_pair * peers + 2 * plan.max_self_links;
    if used as u32 > model.ports {
        return Err(ProjectionError::NotEnoughSelfLinks {
            switch: 0,
            need: plan.max_self_links as usize,
            have: (model.ports as usize)
                .saturating_sub((plan.hosts_per_switch + plan.inter_links_per_pair * peers) as usize)
                / 2,
        });
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_topology::chain::chain;
    use sdt_topology::fattree::fat_tree;
    use sdt_topology::meshtorus::torus;

    #[test]
    fn campaign_plan_covers_all_targets() {
        let targets = [fat_tree(4), torus(&[4, 4]), chain(8)];
        let model = SwitchModel::openflow_128x100g();
        let plan = plan_wiring(&targets, &model, 2).unwrap();
        // Torus cut needs 8 inter links; fat-tree's cut may need more.
        assert!(plan.inter_links_per_pair >= 8);
        assert!(plan.hosts_per_switch >= 8);
        // And the resulting cluster really deploys everything.
        let cluster = plan.build(model, 2);
        let c = crate::controller::SdtController::new(cluster);
        assert!(targets.iter().all(|t| c.check(t, "default").is_ok()));
    }

    #[test]
    fn plan_rejects_impossible_budget() {
        let model = SwitchModel::h3c_64x10g(); // 64 ports
        let err = plan_wiring(&[fat_tree(8)], &model, 2);
        assert!(err.is_err(), "fat-tree k=8 cannot fit 2x64 ports");
    }

    #[test]
    fn single_switch_plan_has_no_inter_links() {
        let model = SwitchModel::openflow_128x100g();
        let plan = plan_wiring(&[chain(8)], &model, 1).unwrap();
        assert_eq!(plan.inter_links_per_pair, 0);
        assert_eq!(plan.hosts_per_switch, 8);
        assert_eq!(plan.max_self_links, 7);
    }
}
