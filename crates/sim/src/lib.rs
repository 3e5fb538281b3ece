//! Event-driven network simulator for the SDT evaluation.
//!
//! This is the workspace's stand-in for two different physical artifacts of
//! the paper at once:
//!
//! * the **full testbed / SDT cluster** — run in packet granularity
//!   (1500 B cells) with the projection-overhead knob
//!   ([`config::SimConfig::extra_switch_ns`]) set from the deployed
//!   projection, it produces the Application Completion Times that real
//!   hardware would deliver in real time (Figs. 11–13, Table IV's ACT
//!   columns);
//! * the authors' **BookSim/SST-derived simulator** — run in flit
//!   granularity (64 B cells), its measured *wall-clock* is the "simulator
//!   evaluation time" of Table IV and Fig. 13.
//!
//! The engine is a single-threaded discrete-event simulator over
//! *cells* (configurable unit size, so packet- and flit-level fidelity share
//! one code path):
//!
//! * per-channel egress queues with one FIFO per virtual channel and
//!   round-robin arbitration;
//! * **lossless mode**: credit-based per-(channel, VC) flow control — the
//!   same buffer-exhaustion backpressure PFC produces with its XOFF
//!   threshold, and the mode under which routing-induced deadlocks really
//!   deadlock (a watchdog reports them);
//! * **lossy mode**: bounded queues with tail drop (PFC off in Fig. 12);
//! * ECN marking + DCQCN-style source rate control for RoCE-style message
//!   flows (§VI-E);
//! * a go-back-N TCP with slow start/AIMD for the iperf3 incast of Fig. 12;
//! * an MPI replay layer executing `sdt-workloads` traces with blocking
//!   semantics;
//! * a Network Monitor that periodically folds per-channel byte counters
//!   into a [`sdt_routing::LoadMap`] and can re-run an adaptive routing
//!   strategy (the paper's active-routing experiment).
//!
//! ```
//! use sdt_sim::{SimConfig, Simulator};
//! use sdt_routing::{generic::Bfs, RouteTable};
//! use sdt_topology::{chain::chain, HostId};
//!
//! let topo = chain(4);
//! let routes = RouteTable::build(&topo, &Bfs::new(&topo));
//! let mut sim = Simulator::new(&topo, routes, SimConfig::testbed_10g());
//! let flow = sim.start_raw_flow(HostId(0), HostId(3), 1_500_000);
//! sim.run();
//! assert_eq!(sim.flow_stats(flow).bytes_delivered, 1_500_000);
//! ```

pub mod config;
pub mod engine;
pub mod faults;
pub mod mpi;
mod queue;
pub mod telemetry;

pub use config::{DcqcnConfig, Granularity, SimConfig};
pub use engine::{
    CaptureEvent, CaptureRecord, EventKind, FlowRecord, FlowStats, SimOutcome, SimStats, Simulator,
};
pub use faults::{FaultEvent, FaultSchedule, TimedFault};
pub use telemetry::{ChannelUtilization, FctSummary};
pub use mpi::{run_trace, MpiRunResult};
