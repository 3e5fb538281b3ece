//! MPI trace replay on top of the fabric engine.
//!
//! Executes `sdt-workloads` traces with blocking-MPI semantics: `Compute`
//! advances simulated time, `Send` is eager (completes when the message is
//! fully injected at the NIC), `Recv` blocks until the matching message has
//! fully arrived, `SendRecv` posts both concurrently. The Application
//! Completion Time (ACT) is when the last rank retires its last operation —
//! the quantity Table IV and Fig. 13 compare across the full testbed, SDT,
//! and the flit-level simulator.

use crate::engine::{EventKind, FlowId, FlowKind, SimOutcome, Simulator, Time};
use crate::SimConfig;
use sdt_routing::RouteTable;
use sdt_topology::{HostId, Topology};
use sdt_workloads::{MpiOp, Trace};
use std::collections::HashMap;

/// Message match key: (source rank, destination rank, tag).
type Key = (u32, u32, u32);

/// Replay state for one trace.
pub struct MpiState {
    ops: Vec<Vec<MpiOp>>,
    rank_host: Vec<HostId>,
    pc: Vec<usize>,
    pending_send: Vec<Option<FlowId>>,
    pending_recv: Vec<Option<(u32, u32)>>,
    arrived: HashMap<Key, u32>,
    flow_sender: HashMap<FlowId, u32>,
    done: Vec<bool>,
    done_count: u32,
    act_ns: Option<Time>,
}

impl MpiState {
    fn new(trace: &Trace, hosts: &[HostId]) -> Self {
        assert_eq!(
            trace.num_ranks() as usize,
            hosts.len(),
            "one host per rank required"
        );
        let n = hosts.len();
        MpiState {
            ops: trace.ranks.iter().map(|r| r.ops.clone()).collect(),
            rank_host: hosts.to_vec(),
            pc: vec![0; n],
            pending_send: vec![None; n],
            pending_recv: vec![None; n],
            arrived: HashMap::new(),
            flow_sender: HashMap::new(),
            done: vec![false; n],
            done_count: 0,
            act_ns: None,
        }
    }

    /// Rank count.
    pub fn num_ranks(&self) -> u32 {
        self.rank_host.len() as u32
    }

    /// True when every rank has retired its program.
    pub fn all_done(&self) -> bool {
        self.done_count as usize == self.done.len()
    }

    /// Application completion time, once finished.
    pub fn act_ns(&self) -> Option<Time> {
        self.act_ns
    }
}

/// Outcome of one trace replay.
#[derive(Clone, Debug)]
pub struct MpiRunResult {
    /// Engine outcome.
    pub outcome: SimOutcome,
    /// Application completion time (ns), when the run completed.
    pub act_ns: Option<Time>,
    /// Wall-clock the simulation took, ns.
    pub wall_ns: u128,
    /// Events processed.
    pub events: u64,
    /// `events` split by kind, as [`crate::SimStats::events_by_kind`].
    pub events_by_kind: [u64; EventKind::ALL.len()],
    /// As [`crate::SimStats::try_tx_noops`].
    pub try_tx_noops: u64,
    /// Cells delivered.
    pub cells_delivered: u64,
    /// Per-flow (start, finish) times in flow-creation order — the
    /// per-flow FCT record the determinism tests compare bit-for-bit
    /// between sequential and parallel sweep drivers.
    pub flow_times_ns: Vec<(Time, Option<Time>)>,
}

fn flow_times(sim: &Simulator) -> Vec<(Time, Option<Time>)> {
    (0..sim.num_flows())
        .map(|f| {
            let st = sim.flow_stats(f);
            (st.start, st.finish)
        })
        .collect()
}

/// Replay `trace` over `topo`, mapping rank `i` to `hosts[i]`.
pub fn run_trace(
    topo: &Topology,
    routes: RouteTable,
    cfg: SimConfig,
    trace: &Trace,
    hosts: &[HostId],
) -> MpiRunResult {
    let mut sim = Simulator::new(topo, routes, cfg);
    sim.attach_mpi(MpiState::new(trace, hosts));
    replay(sim)
}

/// Run an MPI-attached simulator to the end and read out its result.
fn replay(mut sim: Simulator) -> MpiRunResult {
    let outcome = sim.run();
    let st = sim.stats();
    MpiRunResult {
        outcome,
        act_ns: mpi_ref(&sim).act_ns(),
        wall_ns: st.wall_ns,
        events: st.events,
        events_by_kind: st.events_by_kind,
        try_tx_noops: st.try_tx_noops,
        cells_delivered: st.cells_delivered,
        flow_times_ns: flow_times(&sim),
    }
}

/// Replay with an adaptive strategy installed (active routing, §VI-E).
pub fn run_trace_adaptive(
    topo: &Topology,
    routes: RouteTable,
    cfg: SimConfig,
    trace: &Trace,
    hosts: &[HostId],
    strategy: Box<dyn sdt_routing::RoutingStrategy>,
) -> MpiRunResult {
    let mut sim = Simulator::new(topo, routes, cfg);
    sim.set_adaptive(strategy);
    sim.attach_mpi(MpiState::new(trace, hosts));
    replay(sim)
}

/// The attached MPI state. Callbacks in this module only fire from flows
/// and wakes that attaching MPI created, so absence is an engine bug.
fn mpi_ref(sim: &Simulator) -> &MpiState {
    match sim.mpi.as_ref() {
        Some(m) => m,
        None => unreachable!("MPI callbacks only fire with MPI attached"),
    }
}

fn mpi_mut(sim: &mut Simulator) -> &mut MpiState {
    match sim.mpi.as_mut() {
        Some(m) => m,
        None => unreachable!("MPI callbacks only fire with MPI attached"),
    }
}

/// Try to retire ops for `rank` until it blocks or finishes.
fn advance(sim: &mut Simulator, rank: u32) {
    loop {
        let (op, finished) = {
            let m = mpi_ref(sim);
            if m.done[rank as usize] {
                return;
            }
            // Still waiting on an outstanding send/recv?
            if m.pending_send[rank as usize].is_some() || m.pending_recv[rank as usize].is_some()
            {
                return;
            }
            let pc = m.pc[rank as usize];
            if pc >= m.ops[rank as usize].len() {
                (None, true)
            } else {
                (Some(m.ops[rank as usize][pc]), false)
            }
        };
        if finished {
            let now = sim.now;
            let m = mpi_mut(sim);
            m.done[rank as usize] = true;
            m.done_count += 1;
            if m.all_done() {
                m.act_ns = Some(now);
            }
            return;
        }
        let op = match op {
            Some(op) => op,
            None => unreachable!("the finished branch returned above"),
        };
        match op {
            MpiOp::Compute { ns } => {
                let at = sim.now + ns;
                mpi_mut(sim).pc[rank as usize] += 1;
                sim.schedule_rank_wake(rank, at);
                return;
            }
            MpiOp::Send { to, bytes, tag } => {
                mpi_mut(sim).pc[rank as usize] += 1;
                post_send(sim, rank, to, bytes, tag);
                if mpi_ref(sim).pending_send[rank as usize].is_some() {
                    return;
                }
            }
            MpiOp::Recv { from, tag } => {
                mpi_mut(sim).pc[rank as usize] += 1;
                if !try_consume(sim, rank, from, tag) {
                    mpi_mut(sim).pending_recv[rank as usize] = Some((from, tag));
                    return;
                }
            }
            MpiOp::SendRecv { to, bytes, stag, from, rtag } => {
                mpi_mut(sim).pc[rank as usize] += 1;
                post_send(sim, rank, to, bytes, stag);
                if !try_consume(sim, rank, from, rtag) {
                    mpi_mut(sim).pending_recv[rank as usize] = Some((from, rtag));
                }
                let m = mpi_ref(sim);
                if m.pending_send[rank as usize].is_some()
                    || m.pending_recv[rank as usize].is_some()
                {
                    return;
                }
            }
        }
    }
}

/// Start the message flow for a send; records it as pending unless it
/// completed synchronously (never happens today, but kept defensive).
fn post_send(sim: &mut Simulator, rank: u32, to: u32, bytes: u64, tag: u32) {
    let (src_host, dst_host) = {
        let m = mpi_ref(sim);
        (m.rank_host[rank as usize], m.rank_host[to as usize])
    };
    let key = (rank, to, tag);
    let fid = sim.start_flow(src_host, dst_host, bytes.max(1), FlowKind::Message { key });
    let m = mpi_mut(sim);
    m.flow_sender.insert(fid, rank);
    m.pending_send[rank as usize] = Some(fid);
}

/// Consume an already-arrived message if present.
fn try_consume(sim: &mut Simulator, rank: u32, from: u32, tag: u32) -> bool {
    let m = mpi_mut(sim);
    let key = (from, rank, tag);
    match m.arrived.get_mut(&key) {
        Some(c) if *c > 0 => {
            *c -= 1;
            true
        }
        _ => false,
    }
}

/// Engine callback: a rank's compute finished (or initial kick).
pub(crate) fn on_rank_wake(sim: &mut Simulator, rank: u32) {
    if sim.mpi.is_some() {
        advance(sim, rank);
    }
}

/// Engine callback: a message flow finished injecting (eager completion).
pub(crate) fn on_send_complete(sim: &mut Simulator, fid: FlowId) {
    let rank = {
        let m = mpi_mut(sim);
        let Some(&rank) = m.flow_sender.get(&fid) else { return };
        if m.pending_send[rank as usize] == Some(fid) {
            m.pending_send[rank as usize] = None;
            Some(rank)
        } else {
            None
        }
    };
    if let Some(rank) = rank {
        advance(sim, rank);
    }
}

/// Engine callback: a message flow fully arrived at its destination.
pub(crate) fn on_delivered(sim: &mut Simulator, fid: FlowId) {
    let key = match &sim.flows[fid as usize].kind {
        FlowKind::Message { key } => *key,
        _ => return,
    };
    let dst_rank = key.1;
    let unblocked = {
        let m = mpi_mut(sim);
        *m.arrived.entry(key).or_insert(0) += 1;
        if m.pending_recv[dst_rank as usize] == Some((key.0, key.2)) {
            let c = match m.arrived.get_mut(&key) {
                Some(c) => c,
                None => unreachable!("entry inserted just above"),
            };
            *c -= 1;
            m.pending_recv[dst_rank as usize] = None;
            true
        } else {
            false
        }
    };
    if unblocked {
        advance(sim, dst_rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_routing::{generic::Bfs, RouteTable};
    use sdt_topology::chain::chain;
    use sdt_workloads::apps::{imb_alltoall, imb_pingpong};
    use sdt_workloads::{MachineModel, MpiOp, Trace};

    fn run_on_chain(n: u32, trace: &Trace) -> MpiRunResult {
        let t = chain(n);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let hosts: Vec<HostId> = (0..trace.num_ranks()).map(HostId).collect();
        run_trace(&t, routes, SimConfig::default(), trace, &hosts)
    }

    #[test]
    fn pingpong_completes_with_sane_rtt() {
        let reps = 100;
        let trace = imb_pingpong(1500, reps);
        let res = run_on_chain(2, &trace);
        assert_eq!(res.outcome, SimOutcome::Completed);
        let act = res.act_ns.unwrap();
        let rtt = act as f64 / reps as f64;
        // 1500B each way over 1 switch hop at 10G: ~2.4us serialization +
        // wire/switch latencies; must be microseconds, not ms or ns.
        assert!((2_000.0..20_000.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn pingpong_rtt_grows_with_message_size() {
        let small = run_on_chain(2, &imb_pingpong(64, 50)).act_ns.unwrap();
        let large = run_on_chain(2, &imb_pingpong(64 * 1024, 50)).act_ns.unwrap();
        assert!(large > small * 5, "small {small}, large {large}");
    }

    #[test]
    fn compute_only_trace_act_is_max_compute() {
        let mut trace = Trace::new("compute", 3);
        for (r, ns) in [(0u32, 500u64), (1, 900), (2, 100)] {
            trace.push(r, MpiOp::Compute { ns });
        }
        let res = run_on_chain(3, &trace);
        assert_eq!(res.act_ns, Some(900));
    }

    #[test]
    fn alltoall_completes_on_chain() {
        let trace = imb_alltoall(4, 6000, 2);
        let res = run_on_chain(4, &trace);
        assert_eq!(res.outcome, SimOutcome::Completed);
        assert!(res.cells_delivered >= (4 * 3 * 2 * 4) as u64);
    }

    #[test]
    fn recv_before_send_blocks_correctly() {
        let mut trace = Trace::new("late-send", 2);
        trace.push(0, MpiOp::Compute { ns: 50_000 });
        trace.push(0, MpiOp::Send { to: 1, bytes: 1000, tag: 1 });
        trace.push(1, MpiOp::Recv { from: 0, tag: 1 });
        let res = run_on_chain(2, &trace);
        assert!(res.act_ns.unwrap() > 50_000);
    }

    #[test]
    fn unexpected_message_is_buffered() {
        // Send arrives long before the Recv is posted.
        let mut trace = Trace::new("early-send", 2);
        trace.push(0, MpiOp::Send { to: 1, bytes: 1000, tag: 9 });
        trace.push(1, MpiOp::Compute { ns: 1_000_000 });
        trace.push(1, MpiOp::Recv { from: 0, tag: 9 });
        let res = run_on_chain(2, &trace);
        assert_eq!(res.outcome, SimOutcome::Completed);
        // ACT dominated by rank 1's compute, not the early message.
        let act = res.act_ns.unwrap();
        assert!((1_000_000..1_200_000).contains(&act), "act {act}");
    }

    #[test]
    fn same_host_ranks_communicate_locally() {
        let mut trace = Trace::new("local", 2);
        trace.push(0, MpiOp::Send { to: 1, bytes: 64 * 1024, tag: 0 });
        trace.push(1, MpiOp::Recv { from: 0, tag: 0 });
        let t = chain(2);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        // Both ranks on host 0.
        let res =
            run_trace(&t, routes, SimConfig::default(), &trace, &[HostId(0), HostId(0)]);
        assert_eq!(res.outcome, SimOutcome::Completed);
        assert!(res.act_ns.unwrap() < 10_000);
    }

    #[test]
    fn flit_and_packet_act_agree() {
        // Same workload, both granularities: ACT within a few percent
        // (Table IV's deviation column), but flit mode costs more events.
        let trace = imb_alltoall(4, 30_000, 1);
        let t = chain(4);
        let hosts: Vec<HostId> = (0..4).map(HostId).collect();
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let pkt = run_trace(
            &t,
            routes.clone(),
            SimConfig::default(),
            &trace,
            &hosts,
        );
        let flit = run_trace(&t, routes, SimConfig::simulator_flit(), &trace, &hosts);
        let (a, b) = (pkt.act_ns.unwrap() as f64, flit.act_ns.unwrap() as f64);
        let dev = (a - b).abs() / b;
        assert!(dev < 0.10, "packet {a} vs flit {b}: dev {dev}");
        assert!(flit.events > 4 * pkt.events, "flit {} pkt {}", flit.events, pkt.events);
    }

    #[test]
    fn hpc_apps_complete() {
        let m = MachineModel::default();
        for trace in [
            sdt_workloads::apps::hpcg(8, 16, 2, &m),
            sdt_workloads::apps::hpl(8, 2048, 256, &m),
            sdt_workloads::apps::minife(8, 12, 3, &m),
        ] {
            let res = run_on_chain(8, &trace);
            assert_eq!(res.outcome, SimOutcome::Completed, "{}", trace.name);
            assert!(res.act_ns.unwrap() > 0);
        }
    }
}
