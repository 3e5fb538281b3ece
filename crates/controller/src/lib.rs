//! The SDT controller (§V of the paper).
//!
//! Mirrors Fig. 9's architecture: a controller wrapping four modules,
//! driven by a plain-text topology configuration file (Fig. 2):
//!
//! 1. **Topology Customization** ([`controller::SdtController::check`] /
//!    [`controller::SdtController::deploy`]) — validates user-defined
//!    topologies against the cluster's fixed wiring, reporting exactly
//!    which cables are missing, then runs the Link Projection and installs
//!    the synthesized flow tables on the (modeled) switches;
//! 2. **Routing Strategy** — Table III's per-topology algorithms from
//!    `sdt-routing`, selectable by name in the config file;
//! 3. **Deadlock Avoidance** — a channel-dependency-graph gate: deployments
//!    whose route/VC assignment is cyclic are rejected before any flow-mod
//!    is sent. Modules 2 and 3 are one function, [`routing::routes`], the
//!    only place a strategy name becomes routes;
//! 4. **Network Monitor** — [`recovery::FailureDetector`] folds OpenFlow
//!    port counters back onto logical channels and suspects the ones that
//!    froze; the loads that drive adaptive (active) routing are the
//!    simulator's own (`sdt_routing::LoadMap`, DESIGN §4 E-AR).
//!
//! The controller also plans cluster wiring from a *set* of topologies
//! (§IV-B: reserve the maximum inter-switch links any target topology
//! needs).

pub mod commands;
pub mod config;
pub mod controller;
pub mod jsonv;
pub mod output;
pub mod presets;
pub mod recovery;
pub mod routing;
pub mod slices;
pub mod wire;
pub mod wiring;

pub use config::{model_by_name, model_config_name, ConfigError, TestbedConfig};
pub use jsonv::{Json, JsonError};
pub use controller::{Deployment, DeployError, RecoveryOutcome, SdtController};
pub use routing::RouteError;
pub use slices::{SliceController, SliceOpError};
pub use recovery::{
    surviving_topology, unreachable_pairs, FailureDetector, FailureReport, DETECTION_NS,
};
pub use presets::{paper_testbed, paper_topologies};
pub use wiring::{plan_wiring, WiringPlan};
