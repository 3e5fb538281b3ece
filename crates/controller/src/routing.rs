//! The Routing Strategy and Deadlock Avoidance modules (§V-2, §V-3,
//! Table III) as one step: [`routes`] is the only place a strategy name
//! becomes a [`RouteTable`]. Deployment, its checking function, failure
//! recovery, slice admission and snapshot restore all call it, so each
//! resolves names the same way and runs the same channel-dependency-graph
//! gate; nothing below the controller picks a strategy.

use sdt_routing::cdg::{analyze, DeadlockAnalysis};
use sdt_routing::{default_strategy, RouteTable, RoutingStrategy};
use sdt_topology::{Topology, TopologyKind};
use std::fmt;

/// Why [`routes`] refused a topology's routing.
#[derive(Debug)]
pub enum RouteError {
    /// No strategy of that config-file name applies to the topology.
    UnknownStrategy(String),
    /// The Deadlock Avoidance module vetoed the routing (cyclic CDG).
    DeadlockRisk {
        /// Length of the offending dependency cycle.
        cycle_len: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownStrategy(s) => write!(f, "unknown routing strategy `{s}`"),
            RouteError::DeadlockRisk { cycle_len } => {
                write!(f, "routing rejected: channel dependency cycle of length {cycle_len}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Routes between every pair of host-bearing switches of `topo` under the
/// strategy the config file names (`"default"` for Table III's
/// per-topology pick). When `require_deadlock_free`, routes whose channel
/// dependency graph has a cycle are refused with the cycle's length.
pub fn routes(
    topo: &Topology,
    strategy: &str,
    require_deadlock_free: bool,
) -> Result<RouteTable, RouteError> {
    let routes = RouteTable::build_for_hosts(topo, resolve_strategy(strategy, topo)?.as_ref());
    match require_deadlock_free.then(|| analyze(&routes)) {
        Some(DeadlockAnalysis::Cycle(c)) => Err(RouteError::DeadlockRisk { cycle_len: c.len() }),
        _ => Ok(routes),
    }
}

/// Resolve a routing strategy by its config-file name for a topology.
fn resolve_strategy(name: &str, topo: &Topology) -> Result<Box<dyn RoutingStrategy>, RouteError> {
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
        (other, _) => return Err(RouteError::UnknownStrategy(other.into())),
    };
    Ok(s)
}
