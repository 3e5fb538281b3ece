//! The paper's concrete testbed, as a preset (§VI-A).
//!
//! The SDT cluster of the evaluation: 3× H3C S6861-54QF OpenFlow switches
//! (64 10G SFP+ ports plus 6 40G QSFP+ ports split 4-way — 88 usable 10G
//! ports per switch) and 16 HPE DL360 servers virtualized into 32 computing
//! nodes, one SR-IOV NIC port each.
//!
//! Note on scope: under the paper's own §IV-A port rule this cluster
//! carries Fat-Tree k=4, Dragonfly(4,9,2) and the 5×5 torus, but *not* the
//! 4×4×4 torus (448 ports demanded vs 264 wired) — one of the Table II/IV
//! accounting tensions recorded in EXPERIMENTS.md. The presets therefore
//! plan wiring for the topologies that fit.

use crate::controller::SdtController;
use crate::wiring::plan_wiring;
use sdt_core::methods::SwitchModel;
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::fattree::fat_tree;
use sdt_topology::meshtorus::torus;
use sdt_topology::Topology;

/// The H3C S6861-54QF as deployed: 88 usable 10G ports.
pub fn h3c_s6861_54qf() -> SwitchModel {
    SwitchModel {
        name: "H3C S6861-54QF (64x10G SFP+ + 6x40G split)",
        ports: 88,
        gbps: 10,
        price_usd: 4_000,
        table_capacity: 4096,
        p4: false,
    }
}

/// The evaluation topologies this cluster hosts (§VI-D minus the 4×4×4
/// torus, which exceeds the port budget under the §IV-A rule). The
/// Dragonfly carries one node per router (36 ports) — the paper attaches at
/// most 32 of its virtualized nodes to any topology, so two terminals per
/// router would never be populated anyway.
pub fn paper_topologies() -> Vec<Topology> {
    vec![fat_tree(4), dragonfly(4, 9, 2, 1), torus(&[5, 5])]
}

/// A controller over the paper's 3-switch cluster, wired for the whole
/// evaluation campaign.
pub fn paper_testbed() -> SdtController {
    let topos = paper_topologies();
    let model = h3c_s6861_54qf();
    let plan = match plan_wiring(&topos, &model, 3) {
        Ok(p) => p,
        Err(e) => unreachable!("the paper's topologies fit its own cluster: {e}"),
    };
    SdtController::new(plan.build(model, 3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_core::walk::IsolationReport;

    #[test]
    fn paper_cluster_hosts_every_campaign_topology() {
        let ctl = paper_testbed();
        for topo in paper_topologies() {
            if let Err(e) = ctl.check(&topo, "default") {
                panic!("{}: {e}", topo.name());
            }
        }
        // 3 switches x 88 ports, ~$12k of hardware.
        assert_eq!(ctl.cluster().num_switches(), 3);
        assert_eq!(ctl.cluster().price_usd(), 12_000);
    }

    #[test]
    fn deploy_and_audit_each_paper_topology() {
        let mut ctl = paper_testbed();
        let mut prev = None;
        for topo in paper_topologies() {
            let d = match prev.take() {
                None => ctl.deploy(&topo).unwrap(),
                Some(p) => ctl.reconfigure(&p, &topo).unwrap().0,
            };
            let report = IsolationReport::audit(ctl.cluster(), &d.projection, &d.topology);
            assert!(report.clean(), "{}: {:?}", topo.name(), report.violations);
            prev = Some(d);
        }
        assert_eq!(ctl.reconfigurations, 2);
    }
}
