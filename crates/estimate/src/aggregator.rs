//! Stage 4: recombine per-link delays into end-to-end FCT estimates.
//!
//! A flow's estimated FCT is its *ideal* (uncongested) completion time —
//! [`ideal_fct`], which replicates the engine's cut-through pipeline
//! arithmetic exactly — plus the path combination of the two per-link
//! delay terms, each combined the way its physics compounds:
//!
//! * the **fair-share stretch** takes the *max* over the path's links —
//!   a flow's pacing is governed by its single tightest bottleneck
//!   (Parsimon's one-bottleneck assumption; summing this term overshot
//!   two-bottleneck chains by ~50% in calibration, while max tracked the
//!   engine);
//! * the **parked-queue wait** takes the *sum* — standing queues at
//!   successive hops are physically distinct buffers, and a cell
//!   transits each of them in turn, so their waits compound additively.
//!
//! DESIGN §3.12 states where these assumptions break.
//!
//! Aggregation is a flat map over flows — chunked across threads with
//! `par_map_chunked_threads`, since per-flow work is tiny and uniform.

use crate::decompose::Decomposition;
use crate::distribute::LinkDelays;
use sdt_sim::config::{HEADER_BYTES, SWITCH_LATENCY_NS};
use sdt_sim::SimConfig;

/// The exact FCT the engine gives a raw flow of `bytes` bytes over a
/// path of `path_channels` directed channels (host→…→host) on an **idle**
/// fabric. `path_channels == 0` means a same-host flow (fixed local-copy
/// latency). Replicates `try_tx`/`inject` integer arithmetic term for
/// term, so single-flow estimates are engine-exact — pinned by the
/// differential tests.
pub fn ideal_fct(bytes: u64, path_channels: usize, cfg: &SimConfig) -> u64 {
    if path_channels == 0 {
        return 1_000; // engine: same-host flows finish in a fixed 1 µs
    }
    let c = cfg.bytes_per_ns();
    let cell = cfg.granularity.bytes() as u64;
    let cells = bytes.div_ceil(cell);
    let last_bytes = bytes - (cells - 1) * cell;
    let ser_full = (cell as f64 / c).ceil() as u64;
    let ser_last = (last_bytes as f64 / c).ceil() as u64;
    // The last cell pipelines behind its predecessors, so for multi-cell
    // flows the per-hop cadence is set by *full* cells.
    let pace = if cells >= 2 { ser_full } else { ser_last };
    let latch = if cfg.cut_through {
        pace.min((HEADER_BYTES as f64 / c).ceil() as u64)
    } else {
        pace
    };
    let hop = latch + cfg.link_latency_ns + SWITCH_LATENCY_NS + cfg.extra_switch_ns;
    // NIC paces cells ser_full apart; the last cell then crosses H-1
    // switch-bound hops at the pipeline cadence and serializes fully onto
    // the destination host link.
    (cells - 1) * ser_full
        + (path_channels as u64 - 1) * hop
        + ser_last
        + cfg.link_latency_ns
}

/// Estimated FCT per flow, indexed like the decomposed workload's flow
/// order: ideal FCT + max fair-share stretch + summed parked waits along
/// the path.
pub fn aggregate(
    d: &Decomposition,
    delays: &LinkDelays,
    bytes: &[u64],
    cfg: &SimConfig,
    threads: usize,
) -> Vec<u64> {
    debug_assert_eq!(bytes.len(), d.num_flows());
    let idx: Vec<u32> = (0..d.num_flows() as u32).collect();
    // Chunked fan-out: per-flow work is a handful of array reads, far too
    // small to claim one item at a time across a million flows.
    sdt_par::par_map_chunked_threads(threads, 8_192, &idx, |&fi| {
        let fi = fi as usize;
        let mut fair = 0u64;
        let mut parked = 0u64;
        for (ch, pos) in d.path(fi) {
            let ld = delays.delay(ch, pos);
            fair = fair.max(ld.fair);
            parked += ld.parked;
        }
        ideal_fct(bytes[fi], d.path_len(fi), cfg) + fair + parked
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_fct_matches_hand_arithmetic_at_10g() {
        let cfg = SimConfig::default(); // 10G, 1500B cells, cut-through
        // Constants at 10G: ser_full = 1200, header latch = 52,
        // hop = 52 + 100 + 500 + 0 = 652.
        // Single full cell, 2-channel path (same-edge pair):
        // 0*1200 + 1*652 + 1200 + 100 = 1952.
        assert_eq!(ideal_fct(1_500, 2, &cfg), 1_952);
        // 100 cells over 6 channels (cross-pod):
        // 99*1200 + 5*652 + 1200 + 100 = 123_360.
        assert_eq!(ideal_fct(150_000, 6, &cfg), 123_360);
        // Sub-header runt: latch = ser_last = ceil(10/1.25) = 8.
        // 0 + 1*(8+100+500) + 8 + 100 = 716.
        assert_eq!(ideal_fct(10, 2, &cfg), 716);
        // Same-host.
        assert_eq!(ideal_fct(123, 0, &cfg), 1_000);
    }

    #[test]
    fn store_and_forward_uses_full_serialization_per_hop() {
        let cfg = SimConfig { cut_through: false, ..SimConfig::default() };
        // hop = 1200 + 100 + 500 = 1800; 2 cells, 2 channels:
        // 1*1200 + 1*1800 + 1200 + 100 = 4300.
        assert_eq!(ideal_fct(3_000, 2, &cfg), 4_300);
    }
}
