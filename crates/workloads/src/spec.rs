//! Flow-level datacenter workload specifications: empirical flow-size
//! distributions + Poisson arrivals at a target load.
//!
//! The MPI generators in this crate replay HPC applications; the traffic
//! that motivates datacenter-scale estimation (ROADMAP item 5, the
//! Parsimon evaluation methodology) is different — millions of independent
//! flows whose sizes follow published empirical CDFs and whose arrivals
//! form a Poisson process tuned to a fraction of the fabric's bisection
//! capacity. This module generates exactly that, the `spec.rs` approach:
//!
//! * [`SizeDist`] — a piecewise-linear inverse CDF over flow sizes, with
//!   the two canonical shapes baked in: [`SizeDist::websearch`] (DCTCP's
//!   web-search trace: 10 KB–30 MB, heavy-tailed) and
//!   [`SizeDist::hadoop`] (Facebook's Hadoop trace: mostly sub-MTU RPCs
//!   with a thin multi-MB tail). The control points reproduce the
//!   published curve shapes; sampling interpolates linearly between them.
//! * [`poisson_flows`] — seeded, deterministic open-loop arrivals:
//!   exponential inter-arrival gaps at the rate that drives the average
//!   host to `load` of its line rate, uniform random source, uniform
//!   random destination ≠ source.
//! * [`permutation_flows`] — the classic fixed-size host permutation
//!   (host *i* → host *i + n/2* mod *n*), the adversarial-but-symmetric
//!   pattern used to exercise clustering and bisection bandwidth.
//!
//! Everything is a pure function of its arguments (one `StdRng` seeded
//! from `seed`; sample order fixed and documented on [`poisson_flows`]),
//! so a workload is reproducible across hosts, thread counts and runs —
//! the estimator's differential tests depend on it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_topology::HostId;

/// One flow of a flow-level workload: who, how much, when. Consumed by the
/// exact engine (`Simulator::schedule_raw_flow`) and by the `sdt-estimate`
/// decomposition alike.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowSpec {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Flow size, bytes (> 0).
    pub bytes: u64,
    /// Absolute start time, ns.
    pub start_ns: u64,
}

/// An empirical flow-size distribution as a piecewise-linear CDF:
/// `points[i] = (bytes, cdf)` with `cdf` non-decreasing from the first
/// point's value to exactly 1.0. Sampling draws `u ∈ [0, 1)` and inverts
/// the CDF with linear interpolation inside the bracketing segment; mass
/// below the first point's CDF value lands on the first point (a point
/// mass, the way published CDF tables are read).
#[derive(Clone, PartialEq, Debug)]
pub struct SizeDist {
    name: String,
    points: Vec<(f64, f64)>,
}

impl SizeDist {
    /// Build a distribution from CDF control points. Panics when the
    /// points are not a valid CDF (fewer than 2 points, non-positive
    /// sizes, sizes or CDF values not non-decreasing, last CDF ≠ 1).
    pub fn from_points(name: &str, points: &[(f64, f64)]) -> SizeDist {
        assert!(points.len() >= 2, "{name}: a CDF needs at least two points");
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0, "{name}: sizes must be non-decreasing");
            assert!(w[0].1 <= w[1].1, "{name}: CDF must be non-decreasing");
        }
        let (first, last) = (points[0], points[points.len() - 1]);
        assert!(first.0 >= 1.0, "{name}: flow sizes must be >= 1 byte");
        assert!(first.1 >= 0.0 && (last.1 - 1.0).abs() < 1e-9, "{name}: CDF must end at 1.0");
        SizeDist { name: name.to_string(), points: points.to_vec() }
    }

    /// The DCTCP web-search workload (Alizadeh et al., SIGCOMM'10): flows
    /// from 10 KB to 30 MB, ~60% of flows under 200 KB but >95% of the
    /// *bytes* in the multi-MB tail. The canonical "large flow" datacenter
    /// mix.
    pub fn websearch() -> SizeDist {
        SizeDist::from_points(
            "websearch",
            &[
                (1_000.0, 0.0),
                (10_000.0, 0.15),
                (20_000.0, 0.20),
                (30_000.0, 0.30),
                (50_000.0, 0.40),
                (80_000.0, 0.53),
                (200_000.0, 0.60),
                (1_000_000.0, 0.70),
                (2_000_000.0, 0.80),
                (5_000_000.0, 0.90),
                (10_000_000.0, 0.97),
                (30_000_000.0, 1.0),
            ],
        )
    }

    /// The Facebook Hadoop workload (Roy et al., SIGCOMM'15): dominated by
    /// sub-MTU RPCs (half the flows under ~1.5 KB) with a thin tail out to
    /// 10 MB. The canonical "small flow" datacenter mix.
    pub fn hadoop() -> SizeDist {
        SizeDist::from_points(
            "hadoop",
            &[
                (130.0, 0.0),
                (360.0, 0.20),
                (880.0, 0.40),
                (1_450.0, 0.50),
                (3_000.0, 0.60),
                (10_000.0, 0.75),
                (30_000.0, 0.85),
                (100_000.0, 0.92),
                (1_000_000.0, 0.97),
                (10_000_000.0, 1.0),
            ],
        )
    }

    /// Distribution name (artifact labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Invert the CDF at `u ∈ [0, 1)` — deterministic, no RNG. Exposed so
    /// callers can sample through their own entropy source.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let pts = &self.points;
        if u <= pts[0].1 {
            return pts[0].0.max(1.0) as u64;
        }
        // Binary search for the first point with cdf >= u, then
        // interpolate linearly inside [prev, here].
        let i = pts.partition_point(|&(_, c)| c < u);
        let (x1, c1) = pts[i];
        let (x0, c0) = pts[i - 1];
        let frac = if c1 > c0 { (u - c0) / (c1 - c0) } else { 1.0 };
        (x0 + frac * (x1 - x0)).max(1.0) as u64
    }

    /// Draw one flow size.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        self.quantile(rng.random::<f64>())
    }

    /// Mean flow size in bytes under the piecewise-linear interpolation:
    /// the point mass at the first size plus a trapezoid per segment.
    /// This is what converts a target load into a Poisson arrival rate.
    pub fn mean_bytes(&self) -> f64 {
        let pts = &self.points;
        let mut mean = pts[0].0 * pts[0].1;
        for w in pts.windows(2) {
            let ((x0, c0), (x1, c1)) = (w[0], w[1]);
            mean += (c1 - c0) * (x0 + x1) / 2.0;
        }
        mean
    }
}

/// Seeded open-loop Poisson traffic: `num_flows` flows whose exponential
/// inter-arrival gaps put the *average* host at `load` of its line rate
/// (`host_bytes_per_ns`), sizes drawn from `dist`, endpoints uniform with
/// `dst != src`. Arrival rate: `λ = load · num_hosts · host_bytes_per_ns /
/// mean_size` flows per ns.
///
/// Determinism contract: one `StdRng` seeded from `seed`; per flow the
/// draw order is *gap, size, src, dst-offset*, so the same arguments
/// always produce byte-identical workloads. Output is sorted by start
/// time by construction (gaps accumulate).
///
/// # Panics
/// When `num_hosts < 2`, `load <= 0`, or `host_bytes_per_ns <= 0`.
pub fn poisson_flows(
    dist: &SizeDist,
    num_hosts: u32,
    host_bytes_per_ns: f64,
    load: f64,
    num_flows: usize,
    seed: u64,
) -> Vec<FlowSpec> {
    assert!(num_hosts >= 2, "need at least two hosts for src != dst traffic");
    assert!(load > 0.0 && host_bytes_per_ns > 0.0, "load and line rate must be positive");
    let lambda = load * num_hosts as f64 * host_bytes_per_ns / dist.mean_bytes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(num_flows);
    for _ in 0..num_flows {
        // Exponential gap via inverse transform; `1 - u ∈ (0, 1]` keeps
        // ln() finite.
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / lambda;
        let bytes = dist.sample(&mut rng);
        let src = rng.random_range(0..num_hosts);
        let dst = (src + 1 + rng.random_range(0..num_hosts - 1)) % num_hosts;
        out.push(FlowSpec {
            src: HostId(src),
            dst: HostId(dst),
            bytes,
            start_ns: t as u64,
        });
    }
    out
}

/// The fixed host permutation: in each of `rounds` rounds starting
/// `round_gap_ns` apart, every host `i` sends `bytes` to host
/// `(i + num_hosts/2) mod num_hosts`. Fully deterministic and fully
/// symmetric — every fabric link in one tier carries an identical
/// workload, which is what makes it the clustering stress pattern.
pub fn permutation_flows(num_hosts: u32, bytes: u64, rounds: u32, round_gap_ns: u64) -> Vec<FlowSpec> {
    assert!(num_hosts >= 2, "a permutation needs at least two hosts");
    let half = num_hosts / 2;
    let mut out = Vec::with_capacity(num_hosts as usize * rounds as usize);
    for r in 0..rounds {
        for i in 0..num_hosts {
            out.push(FlowSpec {
                src: HostId(i),
                dst: HostId((i + half.max(1)) % num_hosts),
                bytes,
                start_ns: r as u64 * round_gap_ns,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_inverts_the_cdf() {
        let d = SizeDist::websearch();
        assert_eq!(d.quantile(0.0), 1_000);
        assert_eq!(d.quantile(0.15), 10_000);
        // Midway through the 0.15..0.20 segment (±1 B: the interpolation
        // divides two binary-rounded CDF deltas before truncating).
        assert!((d.quantile(0.175) as i64 - 15_000).abs() <= 1, "{}", d.quantile(0.175));
        assert_eq!(d.quantile(1.0), 30_000_000);
        // Monotone.
        let mut prev = 0;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn means_separate_the_two_mixes() {
        let (ws, hd) = (SizeDist::websearch().mean_bytes(), SizeDist::hadoop().mean_bytes());
        // Websearch is the byte-heavy mix, Hadoop the RPC mix.
        assert!(ws > 1_000_000.0, "websearch mean {ws}");
        assert!(hd < 500_000.0, "hadoop mean {hd}");
        assert!(ws > 5.0 * hd);
    }

    #[test]
    fn poisson_is_deterministic_sorted_and_valid() {
        let a = poisson_flows(&SizeDist::hadoop(), 16, 1.25, 0.3, 500, 42);
        let b = poisson_flows(&SizeDist::hadoop(), 16, 1.25, 0.3, 500, 42);
        assert_eq!(a, b, "same seed, same workload");
        let c = poisson_flows(&SizeDist::hadoop(), 16, 1.25, 0.3, 500, 43);
        assert_ne!(a, c, "different seed, different workload");
        assert!(a.windows(2).all(|w| w[0].start_ns <= w[1].start_ns), "sorted by start");
        assert!(a.iter().all(|f| f.src != f.dst && f.bytes >= 1 && f.src.0 < 16 && f.dst.0 < 16));
    }

    #[test]
    fn poisson_hits_the_target_load() {
        // Offered load over the generated window should come out near the
        // requested fraction of aggregate host capacity.
        let (hosts, rate, load) = (64u32, 1.25f64, 0.4f64);
        let flows = poisson_flows(&SizeDist::websearch(), hosts, rate, load, 20_000, 7);
        let total: u64 = flows.iter().map(|f| f.bytes).sum();
        let span = flows[flows.len() - 1].start_ns.max(1) as f64;
        let offered = total as f64 / span / (hosts as f64 * rate);
        assert!(
            (offered - load).abs() / load < 0.15,
            "offered load {offered:.3} vs target {load}"
        );
    }

    #[test]
    fn permutation_is_a_permutation() {
        let flows = permutation_flows(8, 1_000_000, 2, 1_000_000);
        assert_eq!(flows.len(), 16);
        // Each round: every host sends once and receives once.
        for r in 0..2usize {
            let round = &flows[r * 8..(r + 1) * 8];
            let mut dsts: Vec<u32> = round.iter().map(|f| f.dst.0).collect();
            dsts.sort_unstable();
            assert_eq!(dsts, (0..8).collect::<Vec<_>>());
            assert!(round.iter().all(|f| f.src != f.dst && f.start_ns == r as u64 * 1_000_000));
        }
    }
}
