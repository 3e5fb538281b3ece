//! # SDT — Software Defined Topology testbed
//!
//! Rust implementation of *"SDT: A Low-cost and Topology-reconfigurable
//! Testbed for Network Research"* (Chen et al., IEEE CLUSTER 2023): build a
//! user-defined network topology out of a few commodity OpenFlow switches
//! by **Link Projection**, and reconfigure it in sub-second time with
//! nothing but flow-table rewrites.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`topology`] — logical topology graphs and generators (Fat-Tree,
//!   Dragonfly, Mesh/Torus, BCube, WAN corpus);
//! * [`partition`] — the METIS-like multilevel partitioner that cuts
//!   topologies across physical switches;
//! * [`routing`] — Table III routing strategies + the channel-dependency
//!   deadlock checker;
//! * [`openflow`] — the two-table OpenFlow pipeline model;
//! * [`core`] — Topology Projection itself: SDT's Link Projection plus the
//!   feasibility, cost and reconfiguration models of the SP / SP-OS /
//!   TurboNet baselines;
//! * [`workloads`] — MPI trace generators (IMB, HPCG, HPL, miniGhost,
//!   miniFE);
//! * [`sim`] — the event-driven fabric simulator (PFC/credits, DCQCN, TCP,
//!   trace replay);
//! * [`tenancy`] — multi-tenant topology slicing: admission-controlled
//!   concurrent logical topologies on one shared cluster, with
//!   make-before-break reconfiguration and a cross-slice isolation audit;
//! * [`verify`] — static data-plane verification: symbolic loop /
//!   blackhole / isolation proofs over installed flow tables, with
//!   incremental pre-install epoch checking — no packet injection;
//! * [`estimate`] — decomposed per-link FCT estimation (Parsimon-style):
//!   fabric-scale what-if answers at fat-tree k=32/64 with millions of
//!   flows, within an error envelope pinned differentially against
//!   [`sim`];
//! * [`controller`] — the config-file-driven SDT controller.
//!
//! ## Quickstart
//!
//! ```
//! use sdt::controller::{SdtController, TestbedConfig};
//!
//! let cfg = TestbedConfig::parse(r#"
//!     [topology]
//!     kind = "fat-tree"
//!     k = 4
//!     [cluster]
//!     switches = 2
//!     hosts_per_switch = 16
//!     inter_links_per_pair = 16
//! "#).unwrap();
//! let mut ctl = SdtController::from_config(&cfg);
//! let deployment = ctl.deploy(&cfg.topology).unwrap();
//! assert!(deployment.deploy_time_ns < 1_000_000_000); // sub-second
//! ```

pub use sdt_controller as controller;
pub use sdt_core as core;
pub use sdt_estimate as estimate;
pub use sdt_openflow as openflow;
pub use sdt_partition as partition;
pub use sdt_routing as routing;
pub use sdt_sdtd as sdtd;
pub use sdt_sim as sim;
pub use sdt_tenancy as tenancy;
pub use sdt_topology as topology;
pub use sdt_verify as verify;
pub use sdt_workloads as workloads;
