//! Stage 1: decompose a fabric-wide workload into independent per-link
//! workloads.
//!
//! Each flow is assigned the path the exact engine would give it (host →
//! edge switch → fabric hops → edge switch → host, one directed channel
//! per hop), and every directed channel that carries at least one flow
//! becomes one independent link-level simulation input. A flow's arrival
//! *offset* at hop `k` is the uncongested head-of-flow cadence `k ·
//! (cut-through latch + link latency + switch latency)` — the same
//! arithmetic as the engine's `try_tx`, so the per-link workloads line up
//! with what the engine would actually offer each channel when the fabric
//! is not congested. Congestion shifting downstream arrivals later is the
//! decomposition approximation (see DESIGN §3.12 for the error model).
//!
//! Routes come from a [`SparseRoutes`] store rather than the dense
//! `RouteTable`: a fat-tree k=64 has 5120 switches, so the dense `n²`
//! table is ~1.4 GB of mostly-empty slots, while the pairs a workload
//! actually uses are bounded by its flow count. `SparseRoutes` computes
//! (or copies) only those, deterministically.

use crate::linksim::CanonicalWorkload;
use sdt_routing::{Route, RouteTable, RoutingStrategy};
use sdt_sim::config::{HEADER_BYTES, SWITCH_LATENCY_NS};
use sdt_sim::SimConfig;
use sdt_topology::{SwitchId, Topology};
use sdt_workloads::FlowSpec;
use std::collections::HashMap;

/// Routes for exactly the switch pairs a workload crosses, keyed by
/// `(from, to)` switch id. Built either by running a strategy on the
/// needed pairs ([`SparseRoutes::build`]) or by copying them out of an
/// existing dense table ([`SparseRoutes::from_table`]) — the latter
/// guarantees the estimator sees byte-identical paths to an engine run
/// over that table.
#[derive(Clone, Debug)]
pub struct SparseRoutes {
    map: HashMap<(u32, u32), Route>,
}

impl SparseRoutes {
    /// The distinct `(src switch, dst switch)` pairs of a workload, sorted
    /// (deterministic build order), same-switch pairs excluded.
    fn pairs_of(topo: &Topology, flows: &[FlowSpec]) -> Vec<(SwitchId, SwitchId)> {
        let mut pairs: Vec<(u32, u32)> = flows
            .iter()
            .filter(|f| f.src != f.dst)
            .map(|f| (topo.host_switch(f.src).0, topo.host_switch(f.dst).0))
            .filter(|(a, b)| a != b)
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.into_iter().map(|(a, b)| (SwitchId(a), SwitchId(b))).collect()
    }

    /// Run `strategy` on exactly the pairs `flows` needs. For a 1M-flow
    /// fat-tree k=64 workload this computes ≤1M routes instead of the
    /// 26M-slot dense table.
    pub fn build(topo: &Topology, strategy: &dyn RoutingStrategy, flows: &[FlowSpec]) -> Self {
        let mut map = HashMap::new();
        for (a, b) in Self::pairs_of(topo, flows) {
            let r = strategy.route(topo, a, b);
            debug_assert_eq!(r.hops.first(), Some(&a));
            debug_assert_eq!(r.hops.last(), Some(&b));
            map.insert((a.0, b.0), r);
        }
        SparseRoutes { map }
    }

    /// Copy the needed pairs out of a dense table (differential-oracle
    /// mode: estimator and engine provably share paths).
    ///
    /// # Panics
    /// When the table lacks a pair the workload needs.
    pub fn from_table(topo: &Topology, table: &RouteTable, flows: &[FlowSpec]) -> Self {
        let mut map = HashMap::new();
        for (a, b) in Self::pairs_of(topo, flows) {
            let r = table
                .try_route(a, b)
                .unwrap_or_else(|| panic!("route table has no route {a:?} -> {b:?}"));
            map.insert((a.0, b.0), r.clone());
        }
        SparseRoutes { map }
    }

    /// Route between two distinct switches, if known.
    pub fn get(&self, from: SwitchId, to: SwitchId) -> Option<&Route> {
        self.map.get(&(from.0, to.0))
    }

    /// Number of stored routes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The decomposed workload: every active directed channel with its
/// canonical link workload, and per flow the `(channel, canonical
/// position)` pairs along its path. Node numbering matches the engine:
/// hosts are `0..num_hosts`, switch `s` is `num_hosts + s`.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Directed channels carrying at least one flow, in first-use order
    /// (flow order, then hop order — deterministic).
    pub channels: Vec<(u32, u32)>,
    /// Per channel: its canonical workload (see [`CanonicalWorkload`]).
    pub workloads: Vec<CanonicalWorkload>,
    /// CSR offsets into `path_ch` / `path_pos`, one slice per flow
    /// (same-host flows have empty slices).
    path_off: Vec<u32>,
    /// Channel index per (flow, hop).
    path_ch: Vec<u32>,
    /// The flow's canonical position in that channel's workload.
    path_pos: Vec<u32>,
}

/// Uncongested per-hop cadence of a multi-cell flow's tail: full-cell
/// cut-through latch + wire + switch pipeline. This is both the arrival
/// offset unit for decomposition and a term of
/// [`crate::aggregator::ideal_fct`].
pub fn hop_step_ns(cfg: &SimConfig) -> u64 {
    let c = cfg.bytes_per_ns();
    let ser_full = (cfg.granularity.bytes() as f64 / c).ceil() as u64;
    let latch = if cfg.cut_through {
        ser_full.min((HEADER_BYTES as f64 / c).ceil() as u64)
    } else {
        ser_full
    };
    latch + cfg.link_latency_ns + SWITCH_LATENCY_NS + cfg.extra_switch_ns
}

impl Decomposition {
    /// Decompose `flows` over `topo` + `routes`.
    ///
    /// # Panics
    /// When `routes` lacks a pair some flow needs (build it from the same
    /// workload), or a flow names a host outside `topo`.
    pub fn build(
        topo: &Topology,
        routes: &SparseRoutes,
        flows: &[FlowSpec],
        cfg: &SimConfig,
    ) -> Self {
        let num_hosts = topo.num_hosts();
        let sn = |s: SwitchId| num_hosts + s.0;
        let step = hop_step_ns(cfg);

        // Pass 1: intern channels, lay the path CSR down.
        let mut ch_ix: HashMap<(u32, u32), u32> = HashMap::new();
        let mut channels: Vec<(u32, u32)> = Vec::new();
        let mut path_off: Vec<u32> = Vec::with_capacity(flows.len() + 1);
        let mut path_ch: Vec<u32> = Vec::new();
        let mut intern = |key: (u32, u32), channels: &mut Vec<(u32, u32)>| -> u32 {
            *ch_ix.entry(key).or_insert_with(|| {
                channels.push(key);
                (channels.len() - 1) as u32
            })
        };
        for f in flows {
            path_off.push(path_ch.len() as u32);
            assert!(f.bytes > 0, "zero-byte flows are not modeled");
            if f.src == f.dst {
                continue; // same-host: bypasses the fabric entirely
            }
            let (sa, sb) = (topo.host_switch(f.src), topo.host_switch(f.dst));
            path_ch.push(intern((f.src.0, sn(sa)), &mut channels));
            if sa != sb {
                let r = routes
                    .get(sa, sb)
                    .unwrap_or_else(|| panic!("no route {sa:?} -> {sb:?} in SparseRoutes"));
                for w in r.hops.windows(2) {
                    path_ch.push(intern((sn(w[0]), sn(w[1])), &mut channels));
                }
            }
            path_ch.push(intern((sn(sb), f.dst.0), &mut channels));
        }
        path_off.push(path_ch.len() as u32);

        // Pass 2: per-channel arrival lists (counting sort into a flat
        // CSR, no per-channel Vec churn).
        let nch = channels.len();
        let mut counts = vec![0u32; nch];
        for &ch in &path_ch {
            counts[ch as usize] += 1;
        }
        let mut ch_off = vec![0usize; nch + 1];
        for i in 0..nch {
            ch_off[i + 1] = ch_off[i] + counts[i] as usize;
        }
        let total = ch_off[nch];
        let mut ent_arr = vec![0u64; total];
        let mut ent_flow = vec![0u32; total];
        let mut ent_dat = vec![0u32; total];
        let mut cursor = ch_off.clone();
        for (fi, f) in flows.iter().enumerate() {
            let (lo, hi) = (path_off[fi] as usize, path_off[fi + 1] as usize);
            for (hop, dat) in (lo..hi).enumerate() {
                let ch = path_ch[dat] as usize;
                let slot = cursor[ch];
                cursor[ch] += 1;
                ent_arr[slot] = f.start_ns + hop as u64 * step;
                ent_flow[slot] = fi as u32;
                ent_dat[slot] = dat as u32;
            }
        }

        // Pass 3: canonicalize each channel — shift to the first arrival,
        // sort by (relative start, bytes); write each entry's canonical
        // position back into the path CSR.
        let mut workloads = Vec::with_capacity(nch);
        let mut path_pos = vec![0u32; path_ch.len()];
        for ci in 0..nch {
            let (lo, hi) = (ch_off[ci], ch_off[ci + 1]);
            let min_arr = match ent_arr[lo..hi].iter().min() {
                Some(&m) => m,
                None => unreachable!("every interned channel has at least one entry"),
            };
            let mut order: Vec<usize> = (lo..hi).collect();
            let rel = |e: usize| ent_arr[e] - min_arr;
            order.sort_unstable_by_key(|&e| (rel(e), flows[ent_flow[e] as usize].bytes, e));
            let entries: Vec<(u64, u64)> =
                order.iter().map(|&e| (rel(e), flows[ent_flow[e] as usize].bytes)).collect();
            for (rank, &e) in order.iter().enumerate() {
                path_pos[ent_dat[e] as usize] = rank as u32;
            }
            workloads.push(CanonicalWorkload { entries });
        }

        Decomposition { channels, workloads, path_off, path_ch, path_pos }
    }

    /// Number of flows decomposed.
    pub fn num_flows(&self) -> usize {
        self.path_off.len() - 1
    }

    /// One flow's path as `(channel index, canonical position)` pairs;
    /// empty for same-host flows.
    pub fn path(&self, flow: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = (self.path_off[flow] as usize, self.path_off[flow + 1] as usize);
        (lo..hi).map(|i| (self.path_ch[i], self.path_pos[i]))
    }

    /// Channels in one flow's path (its hop count; 0 for same-host).
    pub fn path_len(&self, flow: usize) -> usize {
        (self.path_off[flow + 1] - self.path_off[flow]) as usize
    }

    /// Total (flow, channel) crossings — the decomposition's work volume.
    pub fn crossings(&self) -> usize {
        self.path_ch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_routing::default_strategy;
    use sdt_topology::fattree::fat_tree;
    use sdt_topology::HostId;

    fn flows_k4() -> Vec<FlowSpec> {
        vec![
            FlowSpec { src: HostId(0), dst: HostId(1), bytes: 1_000, start_ns: 0 }, // same edge
            FlowSpec { src: HostId(0), dst: HostId(15), bytes: 2_000, start_ns: 10 }, // cross pod
            FlowSpec { src: HostId(3), dst: HostId(3), bytes: 500, start_ns: 5 }, // same host
            FlowSpec { src: HostId(1), dst: HostId(14), bytes: 2_000, start_ns: 10 },
        ]
    }

    #[test]
    fn paths_match_topology_structure() {
        let topo = fat_tree(4);
        let strategy = default_strategy(&topo);
        let flows = flows_k4();
        let routes = SparseRoutes::build(&topo, strategy.as_ref(), &flows);
        let d = Decomposition::build(&topo, &routes, &flows, &SimConfig::default());
        // Same-edge pair: host->edge, edge->host.
        assert_eq!(d.path_len(0), 2);
        // Cross-pod in a fat-tree: host + edge-agg-core-agg-edge + host = 6.
        assert_eq!(d.path_len(1), 6);
        // Same-host: no fabric.
        assert_eq!(d.path_len(2), 0);
        assert_eq!(d.num_flows(), 4);
        // Per flow: 2 (same edge) + 6 (cross pod) + 0 (same host) + 6.
        assert_eq!(d.crossings(), 14);
        // Every channel workload entry count sums to the crossings.
        let entries: usize = d.workloads.iter().map(|w| w.entries.len()).sum();
        assert_eq!(entries, d.crossings());
    }

    #[test]
    fn sparse_routes_match_dense_table() {
        let topo = fat_tree(4);
        let strategy = default_strategy(&topo);
        let flows = flows_k4();
        let sparse = SparseRoutes::build(&topo, strategy.as_ref(), &flows);
        let dense = RouteTable::build_for_hosts(&topo, strategy.as_ref());
        let from_table = SparseRoutes::from_table(&topo, &dense, &flows);
        assert_eq!(sparse.len(), from_table.len());
        for (&(a, b), r) in &sparse.map {
            assert_eq!(Some(r), from_table.get(SwitchId(a), SwitchId(b)), "pair {a}->{b}");
        }
    }

    #[test]
    fn canonical_positions_are_consistent() {
        let topo = fat_tree(4);
        let strategy = default_strategy(&topo);
        let flows = flows_k4();
        let routes = SparseRoutes::build(&topo, strategy.as_ref(), &flows);
        let d = Decomposition::build(&topo, &routes, &flows, &SimConfig::default());
        // Each (channel, position) a flow claims must hold that flow's
        // bytes in the canonical workload.
        for (fi, f) in flows.iter().enumerate() {
            for (ch, pos) in d.path(fi) {
                let (_, bytes) = d.workloads[ch as usize].entries[pos as usize];
                assert_eq!(bytes, f.bytes, "flow {fi} channel {ch}");
            }
        }
    }
}
