//! Simulator configuration.

/// Cell granularity: the simulator's unit of transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// 1500 B Ethernet-frame cells — testbed-fidelity, fast.
    Packet,
    /// 64 B flit cells — BookSim-style "simulator" fidelity, ~23x the
    /// event count per byte.
    Flit,
    /// Custom cell size in bytes.
    Custom(u32),
}

impl Granularity {
    /// Cell size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Granularity::Packet => 1500,
            Granularity::Flit => 64,
            Granularity::Custom(b) => b,
        }
    }
}

/// Switch transit latency per hop, ns (cut-through pipeline fill).
pub const SWITCH_LATENCY_NS: u64 = 500;

/// Header latch size for cut-through, bytes: a cell's head moves on after
/// this many bytes have arrived.
pub const HEADER_BYTES: u32 = 64;

/// DCQCN-style rate control (Zhu et al., SIGCOMM 2015 — simplified:
/// CNP-per-marked-cell with a minimum CNP interval, rate halving by alpha,
/// timer-driven additive recovery). The value only turns it on
/// ([`SimConfig::dcqcn`]); its parameters are the `DCQCN_*` constants.
#[derive(Clone, Copy, Debug, Default)]
pub struct DcqcnConfig {}

/// ECN marking threshold, bytes queued at the egress (Kmin).
pub const DCQCN_KMIN_BYTES: u32 = 30_000;
/// Above this queue depth every cell is marked (Kmax).
pub const DCQCN_KMAX_BYTES: u32 = 120_000;
/// Marking probability at Kmax (ramp from 0 at Kmin).
pub const DCQCN_PMAX: f64 = 0.1;
/// Minimum interval between CNPs for one flow, ns.
pub const DCQCN_CNP_INTERVAL_NS: u64 = 50_000;
/// Alpha EWMA gain.
pub const DCQCN_G: f64 = 1.0 / 16.0;
/// Additive increase step, bytes/ns.
pub const DCQCN_RATE_AI_BPNS: f64 = 0.005;
/// Rate increase / alpha decay timer, ns.
pub const DCQCN_TIMER_NS: u64 = 55_000;

/// Go-back-N TCP (the iperf3 incast of Fig. 12): initial congestion
/// window, cells.
pub const TCP_INIT_CWND: u32 = 4;
/// TCP slow-start threshold, cells.
pub const TCP_INIT_SSTHRESH: u32 = 128;
/// TCP retransmission timeout, ns.
pub const TCP_RTO_NS: u64 = 3_000_000;

/// Top-level simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Cell size.
    pub granularity: Granularity,
    /// Link rate, Gbit/s (all links uniform, as in the paper's cluster).
    pub link_gbps: f64,
    /// Link propagation delay, ns.
    pub link_latency_ns: u64,
    /// Cut-through forwarding: a cell's head moves on after
    /// [`HEADER_BYTES`] have arrived instead of the full cell (the paper
    /// enables cut-through; channel occupancy still pays full
    /// serialization).
    pub cut_through: bool,
    /// Extra per-hop transit latency from SDT crossbar sharing (0 for the
    /// full testbed, small and constant for SDT — §VI-B).
    pub extra_switch_ns: u64,
    /// Lossless fabric (PFC / credit flow control) vs. tail-drop.
    pub lossless: bool,
    /// Per-(channel, VC) buffer, bytes (the PFC XOFF headroom). Byte- (not
    /// cell-)denominated so packet- and flit-granular runs see the same
    /// physical buffering — Table IV's ACT agreement depends on it.
    pub vc_buffer_bytes: u32,
    /// Lossy-mode egress queue capacity, bytes.
    pub queue_cap_bytes: u32,
    /// NIC staging queue depth, bytes (backpressure to sources).
    pub nic_queue_bytes: u32,
    /// DCQCN for message (RoCE) flows; `None` = line-rate blast + PFC.
    pub dcqcn: Option<DcqcnConfig>,
    /// Network Monitor poll interval, ns (also the watchdog tick).
    pub monitor_interval_ns: u64,
    /// Abort as deadlocked after this long without any cell delivery while
    /// cells are in flight (lossless mode only).
    pub deadlock_timeout_ns: u64,
    /// RNG seed (ECN marking draws).
    pub seed: u64,
    /// Hard wall on simulated time (0 = unlimited).
    pub max_sim_ns: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            granularity: Granularity::Packet,
            link_gbps: 10.0,
            link_latency_ns: 100,
            cut_through: true,
            extra_switch_ns: 0,
            lossless: true,
            vc_buffer_bytes: 96_000,
            queue_cap_bytes: 384_000,
            nic_queue_bytes: 12_000,
            dcqcn: None,
            monitor_interval_ns: 1_000_000,
            deadlock_timeout_ns: 50_000_000,
            seed: 1,
            max_sim_ns: 0,
        }
    }
}

impl SimConfig {
    /// Bytes per nanosecond of one link.
    pub fn bytes_per_ns(&self) -> f64 {
        self.link_gbps / 8.0
    }

    /// The paper's testbed fabric: 10G links, packet cells, PFC on.
    pub fn testbed_10g() -> Self {
        SimConfig::default()
    }

    /// BookSim-style flit-level simulator mode.
    pub fn simulator_flit() -> Self {
        SimConfig { granularity: Granularity::Flit, ..SimConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_sizes() {
        assert_eq!(Granularity::Packet.bytes(), 1500);
        assert_eq!(Granularity::Flit.bytes(), 64);
        assert_eq!(Granularity::Custom(256).bytes(), 256);
    }

    #[test]
    fn rate_math() {
        let c = SimConfig { link_gbps: 10.0, ..SimConfig::default() };
        assert!((c.bytes_per_ns() - 1.25).abs() < 1e-9);
    }
}
