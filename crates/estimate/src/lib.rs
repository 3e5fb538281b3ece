//! Decomposed FCT estimation: fabric-scale performance questions without
//! fabric-scale simulation.
//!
//! The exact engine in `sdt-sim` models every cell at every switch, which
//! is the right tool up to fat-tree k=8 or so — and the wrong one at
//! k=32 (8192 hosts) with millions of flows, where a single event-driven
//! pass is hours of wall time. This crate trades a *documented* amount of
//! accuracy for three to four orders of magnitude of speed, following the
//! decomposition idea of Parsimon (NSDI '23): a congested fabric is, to
//! first order, a collection of independently congested links.
//!
//! The pipeline has four stages, one module each:
//!
//! 1. **[`decompose`]** — assign every flow the path the engine would
//!    use (via [`SparseRoutes`], computed only for the switch pairs the
//!    workload touches) and project the workload onto each directed
//!    channel it crosses, in canonical shift-invariant form.
//! 2. **[`cluster`]** — deduplicate channels with *identical* canonical
//!    workloads; only one representative per equivalence class is
//!    simulated. The relation is exact equality, so clustering changes
//!    cost, never output (see [`Clustering`]).
//! 3. **[`distribute`]** — run the representative link simulations
//!    ([`linksim::link_delays`], a fair-share + parked-queue fluid model
//!    of credit-based flow control) across threads with `sdt-par`'s
//!    weighted fan-out;
//!    byte-identical at any thread count.
//! 4. **[`aggregator`]** — per flow, add the path's worst fair-share
//!    stretch and the sum of its parked-queue waits to an engine-exact
//!    uncongested FCT ([`aggregator::ideal_fct`]).
//!
//! # Error model
//!
//! Single flows are estimated *exactly* (the ideal-FCT arithmetic
//! replicates the engine's). Under load, two approximations enter: each
//! link sees the flow's *uncongested* arrival time (upstream queueing
//! does not shift downstream arrivals), and path queueing recombines
//! independent per-link terms (max of fair-share stretch, sum of parked
//! waits) rather than modeling their coupling. Both err in either
//! direction but
//! stay bounded at datacenter loads; the differential suite pins the
//! observed envelope against the exact engine at k=4/8 as
//! [`MEAN_ERROR_ENVELOPE`] / [`P99_ERROR_ENVELOPE`]. DESIGN §3.12 discusses
//! when *not* to trust the estimate (incast at extreme load, lossless
//! PFC back-pressure chains, DCQCN dynamics).
//!
//! # Example
//!
//! ```
//! use sdt_estimate::{estimate, EstimateConfig, SparseRoutes};
//! use sdt_routing::default_strategy;
//! use sdt_sim::SimConfig;
//! use sdt_topology::fattree::fat_tree;
//! use sdt_workloads::{poisson_flows, SizeDist};
//!
//! let topo = fat_tree(4);
//! let cfg = SimConfig::default();
//! let flows = poisson_flows(
//!     &SizeDist::websearch(), topo.num_hosts(), cfg.bytes_per_ns(), 0.3, 200, 7,
//! );
//! let strategy = default_strategy(&topo);
//! let routes = SparseRoutes::build(&topo, strategy.as_ref(), &flows);
//! let report = estimate(&topo, &routes, &flows, &cfg, &EstimateConfig::default());
//! assert_eq!(report.fcts.len(), flows.len());
//! assert!(report.stats.collapse_ratio >= 1.0);
//! ```

pub mod aggregator;
pub mod cluster;
pub mod decompose;
pub mod distribute;
pub mod linksim;

pub use cluster::Clustering;
pub use decompose::{hop_step_ns, Decomposition, SparseRoutes};
pub use distribute::LinkDelays;
pub use linksim::{link_delays, CanonicalWorkload, LinkDelay};

use sdt_sim::SimConfig;
use sdt_topology::Topology;
use sdt_workloads::FlowSpec;

/// Observed error envelope of the estimator against the exact engine at
/// fat-tree k=4/8, websearch and hadoop mixes, loads up to 0.3: relative
/// error of the **mean** FCT. The calibration sweep's worst case was
/// 0.238 (websearch, k=4, load 0.3); this constant adds modest margin.
/// Pinned by `tests/differential.rs`; widen only with a DESIGN §3.12 update.
pub const MEAN_ERROR_ENVELOPE: f64 = 0.25;

/// Same envelope for the **p99** FCT. The tail calibrates *tighter* than
/// the mean here (worst observed 0.185): capping the parked term at the
/// buffer is exactly what keeps tail estimates from chasing open-loop
/// backlog that the engine's flow control never lets stand.
pub const P99_ERROR_ENVELOPE: f64 = 0.30;

/// Knobs for one estimation run.
#[derive(Clone, Copy, Debug)]
pub struct EstimateConfig {
    /// Worker threads for the distribute and aggregate stages; `0` reads
    /// `SDT_ESTIMATE_THREADS` (else the machine's parallelism).
    pub threads: usize,
    /// Deduplicate identical link workloads. Exact, so this changes wall
    /// time only — outputs are byte-identical either way.
    pub cluster: bool,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig { threads: 0, cluster: true }
    }
}

/// What one run did, for reporting and gating.
#[derive(Clone, Copy, Debug)]
pub struct EstimateStats {
    /// Flows estimated (always the full input).
    pub flows: usize,
    /// Directed channels carrying at least one flow.
    pub active_channels: usize,
    /// Total (flow, channel) crossings — the decomposed work volume.
    pub crossings: usize,
    /// Link simulations actually run after clustering.
    pub representatives: usize,
    /// `active_channels / representatives` (1.0 = no collapse).
    pub collapse_ratio: f64,
    /// Worker threads the run resolved to.
    pub threads: usize,
    /// Stage wall times, ns.
    pub decompose_ns: u64,
    pub cluster_ns: u64,
    pub simulate_ns: u64,
    pub aggregate_ns: u64,
}

/// Estimated FCTs plus run accounting.
#[derive(Clone, Debug)]
pub struct EstimateReport {
    /// Estimated FCT (ns) per flow, indexed like the input `flows` slice.
    pub fcts: Vec<u64>,
    pub stats: EstimateStats,
}

/// Run the full four-stage pipeline over `flows` on `topo` with paths
/// from `routes`.
///
/// # Panics
/// When `routes` is missing a pair some flow needs, or a flow names a
/// host outside `topo` or carries zero bytes.
pub fn estimate(
    topo: &Topology,
    routes: &SparseRoutes,
    flows: &[FlowSpec],
    sim_cfg: &SimConfig,
    cfg: &EstimateConfig,
) -> EstimateReport {
    let threads = if cfg.threads == 0 {
        sdt_par::threads_from_env("SDT_ESTIMATE_THREADS")
    } else {
        cfg.threads
    };

    let t0 = std::time::Instant::now();
    let d = Decomposition::build(topo, routes, flows, sim_cfg);
    let t1 = std::time::Instant::now();
    let clustering = Clustering::build(&d.workloads, cfg.cluster);
    let t2 = std::time::Instant::now();
    // The standing-queue cap: under lossless flow control a link parks at
    // most one VC buffer; in lossy mode the egress queue is the bound.
    let park_cap = if sim_cfg.lossless {
        sim_cfg.vc_buffer_bytes as u64
    } else {
        sim_cfg.queue_cap_bytes as u64
    };
    let delays =
        LinkDelays::compute(&d.workloads, &clustering, sim_cfg.bytes_per_ns(), park_cap, threads);
    let t3 = std::time::Instant::now();
    let bytes: Vec<u64> = flows.iter().map(|f| f.bytes).collect();
    let fcts = aggregator::aggregate(&d, &delays, &bytes, sim_cfg, threads);
    let t4 = std::time::Instant::now();

    let stats = EstimateStats {
        flows: flows.len(),
        active_channels: d.channels.len(),
        crossings: d.crossings(),
        representatives: delays.num_representatives(),
        collapse_ratio: clustering.collapse_ratio(),
        threads,
        decompose_ns: (t1 - t0).as_nanos() as u64,
        cluster_ns: (t2 - t1).as_nanos() as u64,
        simulate_ns: (t3 - t2).as_nanos() as u64,
        aggregate_ns: (t4 - t3).as_nanos() as u64,
    };
    EstimateReport { fcts, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_routing::default_strategy;
    use sdt_topology::fattree::fat_tree;
    use sdt_topology::HostId;

    fn run(flows: &[FlowSpec], cfg: &EstimateConfig) -> EstimateReport {
        let topo = fat_tree(4);
        let strategy = default_strategy(&topo);
        let routes = SparseRoutes::build(&topo, strategy.as_ref(), flows);
        estimate(&topo, &routes, flows, &SimConfig::default(), cfg)
    }

    fn mixed_flows() -> Vec<FlowSpec> {
        sdt_workloads::poisson_flows(
            &sdt_workloads::SizeDist::hadoop(),
            16,
            SimConfig::default().bytes_per_ns(),
            0.3,
            300,
            11,
        )
    }

    #[test]
    fn lone_flow_is_engine_exact_by_construction() {
        let flows = [FlowSpec { src: HostId(0), dst: HostId(15), bytes: 150_000, start_ns: 0 }];
        let r = run(&flows, &EstimateConfig::default());
        // Idle fabric: no queueing anywhere, estimate == ideal.
        assert_eq!(r.fcts, vec![aggregator::ideal_fct(150_000, 6, &SimConfig::default())]);
        assert_eq!(r.stats.flows, 1);
        assert_eq!(r.stats.active_channels, 6);
    }

    #[test]
    fn cluster_toggle_is_invisible_in_the_output() {
        let flows = mixed_flows();
        let on = run(&flows, &EstimateConfig { cluster: true, ..Default::default() });
        let off = run(&flows, &EstimateConfig { cluster: false, ..Default::default() });
        assert_eq!(on.fcts, off.fcts);
        assert!(on.stats.representatives <= off.stats.representatives);
        assert_eq!(off.stats.representatives, off.stats.active_channels);
    }

    #[test]
    fn thread_count_is_unobservable() {
        let flows = mixed_flows();
        let base = run(&flows, &EstimateConfig { threads: 1, ..Default::default() });
        for t in [2usize, 4] {
            let r = run(&flows, &EstimateConfig { threads: t, ..Default::default() });
            assert_eq!(r.fcts, base.fcts, "threads={t}");
        }
    }

    #[test]
    fn permutation_traffic_collapses() {
        // Host i -> i + n/2: every flow same size, same start, symmetric
        // paths — link workloads repeat heavily across the fabric.
        let flows = sdt_workloads::permutation_flows(16, 30_000, 2, 50_000);
        let r = run(&flows, &EstimateConfig::default());
        assert!(
            r.stats.collapse_ratio > 1.5,
            "permutation should collapse, got {}",
            r.stats.collapse_ratio
        );
    }
}
