//! Closed forms the engine must meet: what the right answer is, written
//! from the model's constants, not from a past run.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_routing::{generic::Bfs, RouteTable};
use sdt_sim::config::{HEADER_BYTES, SWITCH_LATENCY_NS};
use sdt_sim::{run_trace, SimConfig, SimOutcome};
use sdt_topology::chain::chain;
use sdt_topology::HostId;
use sdt_workloads::apps::imb_pingpong;

/// The Fig. 11 pingpong message lengths (IMB `-msglen` sweep).
const FIG11_SIZES: [u64; 13] = [
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
];

/// Serialization of `bytes` at 10 Gbit/s: 0.8 ns a byte, rounded up.
fn ser(bytes: u64) -> u64 {
    (8 * bytes).div_ceil(10)
}

/// One-way latency of a `bytes` message across `switches` switches in a
/// chain, host to host, with PFC and cut-through, on an idle fabric.
///
/// The cells leave the source back to back, one full-cell serialization
/// apart, and every hop passes each cell on after the same delay, so no
/// cell waits for the one ahead: the message arrives when its last cell
/// does. That cell enters each switch a header (or the whole cell, if it
/// is shorter) plus the link and the switch transit after it left the
/// previous node, and reaches the host once its tail is across the last
/// link. This holds while the last cell is at least a header long, as it
/// is for every Fig. 11 size.
fn one_way_ns(cfg: &SimConfig, switches: u64, bytes: u64) -> u64 {
    let cell = u64::from(cfg.granularity.bytes());
    let cells = bytes.div_ceil(cell);
    let last = bytes - (cells - 1) * cell;
    assert!(cells == 1 || last >= u64::from(HEADER_BYTES), "{bytes} B: last cell < a header");
    let latch = ser(bytes.min(u64::from(HEADER_BYTES)));
    (cells - 1) * ser(cell)
        + switches * (latch + cfg.link_latency_ns + SWITCH_LATENCY_NS + cfg.extra_switch_ns)
        + cfg.link_latency_ns
        + ser(last)
}

/// Fig. 11 in closed form: on the 8-switch chain (node 1 to node 8), a
/// pingpong round trip is twice the one-way latency above, so SDT's
/// crossbar sharing adds exactly `2 · hops · extra_switch_ns`.
#[test]
fn fig11_pingpong_rtt_meets_its_closed_form() {
    let topo = chain(8);
    let routes = RouteTable::build(&topo, &Bfs::new(&topo));
    let hops = 8;
    let reps = 2;
    for bytes in FIG11_SIZES {
        let rtt = |extra: u64| {
            let cfg = SimConfig { extra_switch_ns: extra, ..SimConfig::testbed_10g() };
            assert_eq!(cfg.link_gbps, 10.0, "`ser` assumes 10G links");
            let res = run_trace(
                &topo,
                routes.clone(),
                cfg.clone(),
                &imb_pingpong(bytes, reps),
                &[HostId(0), HostId(7)],
            );
            assert_eq!(res.outcome, SimOutcome::Completed, "{bytes} B, extra {extra} ns");
            let act = res.act_ns.unwrap();
            assert_eq!(act % u64::from(reps), 0, "{bytes} B: every round trip alike");
            (act / u64::from(reps), 2 * one_way_ns(&cfg, hops, bytes))
        };
        let (base, closed) = rtt(0);
        assert_eq!(base, closed, "{bytes} B: RTT(0)");
        for extra in [8, 250] {
            let (with, closed) = rtt(extra);
            assert_eq!(with, closed, "{bytes} B: RTT({extra})");
            assert_eq!(with - base, 2 * hops * extra, "{bytes} B: SDT adds 2·hops·extra");
        }
    }
}
