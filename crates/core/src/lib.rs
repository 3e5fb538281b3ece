//! SDT core: Topology Projection (TP) onto commodity switches.
//!
//! This crate implements the paper's contribution. **Link Projection (LP)**
//! — the SDT method — takes a logical topology and a physical cluster whose
//! cabling is *fixed* (self-links looping two ports of one switch,
//! inter-switch links joining switches, and host ports), and realizes the
//! topology purely with OpenFlow flow tables:
//!
//! 1. the logical switch graph is cut across the physical switches with the
//!    METIS-like partitioner (`sdt-partition`), minimizing inter-switch
//!    links and balancing port usage (§IV-B/C);
//! 2. every logical fabric link is mapped onto a physical self-link or
//!    inter-switch link; every host onto a host port (§IV-A);
//! 3. ports are grouped into *sub-switches* (one per logical switch) and
//!    flow tables are synthesized that (a) restrict each packet to its
//!    sub-switch's forwarding domain and (b) implement the routes handed
//!    in as a `RouteTable` (§V) — which strategy made them is the
//!    controller's decision, never this crate's;
//! 4. reconfiguring to a new topology is a flow-table rewrite — no recabling
//!    and no optical switch.
//!
//! The crate also models the cost, reconfiguration time and feasibility of
//! the three baselines the paper compares against (manual Switch
//! Projection, SP with a MEMS optical switch, and TurboNet's loopback-port
//! projection) for Tables I/II ([`methods`], [`feasibility`]), and provides
//! a pure-dataplane packet walker used to verify projection correctness and
//! hardware isolation (§VI-B).

pub mod cluster;
pub mod compare;
pub mod feasibility;
pub mod methods;
pub mod sdt;
pub mod synthesis;
pub mod walk;

pub use cluster::{ClusterBuilder, PhysLink, PhysLinkKind, PhysPort, PhysicalCluster};
pub use feasibility::{max_link_gbps, port_demand, FeasibilityReport};
pub use methods::{
    CostModel, HardwareKind, Method, ReconfigEstimate, SwitchModel, OPTICAL_PORT_USD,
};
pub use sdt::{FailedResources, ProjectOptions, ProjectionError, SdtProjection, SdtProjector};
pub use synthesis::{synthesize_flow_tables, SynthesisOutput};
pub use walk::{walk_packet, IsolationReport, WalkOutcome};

#[cfg(test)]
/// Table III's routes for `t`, as the controller's `"default"` strategy
/// builds them — the routes this crate's tests project.
pub(crate) fn default_routes(t: &sdt_topology::Topology) -> sdt_routing::RouteTable {
    sdt_routing::RouteTable::build_for_hosts(t, sdt_routing::default_strategy(t).as_ref())
}
