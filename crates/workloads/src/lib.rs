//! MPI-style communication traces for the SDT evaluation (§VI-D).
//!
//! The paper replays traces of real HPC applications — HPCG, HPL,
//! miniGhost, miniFE, and the Intel MPI Benchmarks — through its simulator,
//! and runs the same binaries on the SDT testbed. We do not have the
//! authors' collected traces, so this crate *generates* them: each
//! generator reproduces the published communication structure of its
//! application (halo exchanges, panel broadcasts, dot-product allreduces,
//! dense alltoalls) interleaved with compute phases sized from a simple
//! roofline model. What matters for Table IV and Fig. 13 is each
//! application's communication pattern and compute/communication ratio,
//! both of which are explicit, documented parameters here.
//!
//! A trace is a per-rank program over [`MpiOp`]s with blocking-MPI
//! semantics; the `sdt-sim` crate executes it. Collectives are expanded at
//! generation time by the algorithms in [`collectives`] (pairwise exchange,
//! recursive doubling, ring, binomial tree), so the simulator only ever
//! sees point-to-point operations — exactly what a trace capture would
//! contain.

//! Datacenter *flow-level* workloads (ROADMAP item 5) live in [`spec`]:
//! empirical size distributions (websearch/hadoop) with Poisson arrivals
//! at a target load, plus the fixed host permutation — the traffic that
//! feeds `sdt-estimate` and `Simulator::schedule_raw_flow`.

pub mod apps;
pub mod collectives;
pub mod patterns;
pub mod spec;
pub mod trace;

pub use spec::{permutation_flows, poisson_flows, FlowSpec, SizeDist};
pub use trace::{select_nodes, MachineModel, MpiOp, Rank, RankTrace, Trace};
