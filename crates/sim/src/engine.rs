//! The discrete-event fabric engine.
//!
//! Nodes are hosts (`0..H`) and switches (`H..H+S`). Every logical link
//! becomes two directed *channels*; each channel owns per-VC FIFO egress
//! queues at its upstream node, arbitrated round-robin. Lossless mode uses
//! credit-based flow control per (channel, VC) — functionally the PFC
//! XOFF/XON backpressure of the paper's RoCEv2 fabric — and cells hold
//! their upstream buffer slot until they depart the downstream node, so
//! cyclic channel dependencies genuinely deadlock (and are caught by the
//! watchdog). Lossy mode tail-drops at a bounded queue instead.

use crate::config::{
    SimConfig, DCQCN_CNP_INTERVAL_NS, DCQCN_G, DCQCN_KMAX_BYTES, DCQCN_KMIN_BYTES, DCQCN_PMAX,
    DCQCN_RATE_AI_BPNS, DCQCN_TIMER_NS, HEADER_BYTES, SWITCH_LATENCY_NS, TCP_INIT_CWND,
    TCP_INIT_SSTHRESH, TCP_RTO_NS,
};
use crate::mpi::MpiState;
use crate::queue::EventQueue;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdt_routing::{LoadMap, RouteTable, RoutingStrategy};
use sdt_topology::{Endpoint, HostId, SwitchId, Topology};
use std::collections::VecDeque;

/// Simulation timestamp, ns.
pub type Time = u64;

/// Flow identifier.
pub type FlowId = u32;

const NO_CHANNEL: u32 = u32::MAX;

/// VC queues allocated per channel. Fixed at the maximum any Table III
/// strategy uses (Valiant/UGAL need 4), so adaptive strategies installed
/// mid-run can raise the VC count without re-building channels.
const MAX_VCS: usize = 8;

/// VC of every flow's first hop, the NIC staging queue (`push_route`).
const NIC_VC: u8 = 0;

/// One bit per VC of a channel.
type VcMask = u32;

/// One cell (packet or flit) in flight.
#[derive(Clone, Copy, Debug)]
struct Cell {
    flow: FlowId,
    bytes: u16,
    seq: u32,
    last: bool,
    /// Offset of the flow's route in [`Simulator::hops`].
    route: u32,
    /// Index into the flow's route of the channel this cell is currently
    /// queued on / traversing.
    hop: u16,
    /// VC in use on the channel the cell is currently queued on.
    vc: u8,
    /// Channel + VC the cell arrived on (for credit return).
    arr_ch: u32,
    arr_vc: u8,
    ecn: bool,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 24);

/// A directed channel and its egress state.
struct Channel {
    from: u32,
    to: u32,
    queues: Vec<std::collections::VecDeque<Cell>>,
    credits: Vec<u32>,
    /// Bit `vc` set iff `queues[vc]` holds a cell.
    nonempty: VcMask,
    /// Bit `vc` set iff `credits[vc] > 0`; lossy mode spends no credits.
    credited: VcMask,
    busy_until: Time,
    next_vc: usize,
    queued: u32,
    /// Monitor window byte counter.
    window_bytes: u64,
    /// Lifetime counters.
    total_bytes: u64,
    drops: u64,
    /// High-water mark of the egress queue, cells.
    peak_queued: u32,
    /// Administrative state: failed links stop transmitting (failure
    /// injection for fault experiments).
    up: bool,
    /// Serialization-rate multiplier (port degradation faults; 1.0 =
    /// nominal rate).
    rate_scale: f64,
}

impl Channel {
    fn grant(&mut self, vc: u8) {
        self.credits[vc as usize] += 1;
        self.credited |= 1 << vc;
    }
}

/// Inject chains waiting for room in one NIC staging queue.
#[derive(Default)]
struct Backlog {
    /// One entry per blocked chain, in blocking order. A flow holds several
    /// when a DCQCN timer tick or an ack re-armed it while it was blocked.
    entries: VecDeque<FlowId>,
    /// The distinct flows of `entries` with the number of entries each
    /// holds, so a wake that finds the queue full touches each flow once.
    members: Vec<(FlowId, u32)>,
}

impl Backlog {
    fn push(&mut self, f: FlowId) {
        self.entries.push_back(f);
        match self.members.iter_mut().find(|m| m.0 == f) {
            Some(m) => m.1 += 1,
            None => self.members.push((f, 1)),
        }
    }

    fn pop(&mut self) -> Option<FlowId> {
        let f = self.entries.pop_front()?;
        let Some(i) = self.members.iter().position(|m| m.0 == f) else {
            unreachable!("every backlog entry has a member")
        };
        self.members[i].1 -= 1;
        if self.members[i].1 == 0 {
            self.members.swap_remove(i);
        }
        Some(f)
    }
}

/// A host's blocked inject chains, on its one outgoing channel.
#[derive(Default)]
struct Nic {
    /// Chains that found the staging queue full since the last transmit.
    backlog: Backlog,
    /// The backlog as of the last transmit, owned by the one pending
    /// [`Ev::Wake`] (a channel is busy until its next transmit, so there is
    /// never a second one).
    parked: Backlog,
}

/// What kind of transport drives a flow.
#[derive(Clone, Debug)]
pub(crate) enum FlowKind {
    /// Bulk one-shot transfer (unit tests, latency probes).
    Raw,
    /// MPI message (eager): identified for the replay layer.
    Message {
        /// (src_rank, dst_rank, tag) key for matching.
        key: (u32, u32, u32),
    },
    /// Go-back-N TCP (iperf3-style).
    Tcp(TcpState),
}

/// TCP per-flow state.
#[derive(Clone, Debug)]
pub(crate) struct TcpState {
    cwnd: f64,
    ssthresh: f64,
    next_seq: u32,
    acked: u32,
    expected_rx: u32,
    dup: u32,
    last_progress: Time,
}

/// DCQCN per-flow state.
#[derive(Clone, Copy, Debug)]
struct Dcqcn {
    rate_bpns: f64,
    target_bpns: f64,
    alpha: f64,
    last_cnp_rx: Time,
}

/// One flow (message or connection).
pub(crate) struct Flow {
    pub(crate) src_host: u32,
    pub(crate) dst_host: u32,
    /// The flow's channels are `Simulator::hops[route..route + route_len]`.
    route: u32,
    route_len: u32,
    pub(crate) bytes_total: u64,
    pub(crate) bytes_injected: u64,
    pub(crate) bytes_delivered: u64,
    next_seq: u32,
    pub(crate) kind: FlowKind,
    dcqcn: Option<Dcqcn>,
    pub(crate) start: Time,
    pub(crate) finish: Option<Time>,
    inject_scheduled: bool,
    pub(crate) send_completed: bool,
}

impl Flow {
    fn total_cells(&self, cell_bytes: u32) -> u32 {
        (self.bytes_total.div_ceil(cell_bytes as u64)) as u32
    }

    /// Bytes the flow would hand its NIC next: 0 once it has finished, has
    /// injected everything, or (TCP) has a full window in flight — acks
    /// re-trigger injection then.
    fn sendable(&self, cell_bytes: u32) -> u64 {
        if self.finish.is_some() {
            return 0;
        }
        match &self.kind {
            FlowKind::Tcp(t) if t.next_seq.saturating_sub(t.acked) >= t.cwnd as u32 => 0,
            // Go-back-N: next_seq may rewind below injected bytes.
            FlowKind::Tcp(t) => {
                self.bytes_total.saturating_sub(t.next_seq as u64 * cell_bytes as u64)
            }
            _ => self.bytes_total - self.bytes_injected,
        }
    }
}

/// Per-flow result snapshot.
#[derive(Clone, Debug)]
pub struct FlowStats {
    /// Source host node.
    pub src_host: u32,
    /// Destination host node.
    pub dst_host: u32,
    /// Bytes handed to the application in order.
    pub bytes_delivered: u64,
    /// Injection start, ns.
    pub start: Time,
    /// Delivery completion, ns (unfinished flows: `None`).
    pub finish: Option<Time>,
}

impl FlowStats {
    /// Goodput over the flow's active life (or until `now` for unfinished
    /// flows), Gbit/s.
    pub fn goodput_gbps(&self, now: Time) -> f64 {
        let end = self.finish.unwrap_or(now);
        let dt = end.saturating_sub(self.start).max(1) as f64;
        self.bytes_delivered as f64 * 8.0 / dt
    }
}

/// One row of the bulk per-flow export ([`Simulator::flow_records`]):
/// everything a workload-level analysis needs, with the FCT already
/// computed (unfinished flows report `None`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowRecord {
    /// Source host node.
    pub src_host: u32,
    /// Destination host node.
    pub dst_host: u32,
    /// Total flow size, bytes.
    pub bytes: u64,
    /// Injection start, ns.
    pub start: Time,
    /// Flow completion time (`finish - start`), ns; `None` while in flight.
    pub fct_ns: Option<u64>,
}

/// What a dispatched event was, for [`SimStats::events_by_kind`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A channel arbiter tried to transmit.
    TryTx,
    /// A cell reached the far end of a channel.
    Arrive,
    /// A buffer credit returned upstream.
    Credit,
    /// One step of a flow's paced inject chain.
    Inject,
    /// A NIC freed a slot and woke its backlog.
    Wake,
    /// A CNP reached its sender.
    Cnp,
    /// A DCQCN rate-increase timer tick.
    DcqcnTimer,
    /// A TCP ack or retransmission timeout.
    Tcp,
    /// A Network Monitor / watchdog tick.
    Monitor,
    /// An injected fault or recovery.
    Fault,
    /// An MPI rank resumed its program.
    Mpi,
}

impl EventKind {
    /// Every kind, in [`SimStats::events_by_kind`] index order.
    pub const ALL: [EventKind; 11] = [
        EventKind::TryTx,
        EventKind::Arrive,
        EventKind::Credit,
        EventKind::Inject,
        EventKind::Wake,
        EventKind::Cnp,
        EventKind::DcqcnTimer,
        EventKind::Tcp,
        EventKind::Monitor,
        EventKind::Fault,
        EventKind::Mpi,
    ];

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TryTx => "try_tx",
            EventKind::Arrive => "arrive",
            EventKind::Credit => "credit",
            EventKind::Inject => "inject",
            EventKind::Wake => "wake",
            EventKind::Cnp => "cnp",
            EventKind::DcqcnTimer => "dcqcn_timer",
            EventKind::Tcp => "tcp",
            EventKind::Monitor => "monitor",
            EventKind::Fault => "fault",
            EventKind::Mpi => "mpi",
        }
    }
}

/// Aggregate simulation statistics.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Events processed.
    pub events: u64,
    /// `events` split by kind, indexed by `EventKind as usize`.
    pub events_by_kind: [u64; EventKind::ALL.len()],
    /// `TryTx` events that transmitted nothing: channel down or still
    /// serializing, queues empty, or no VC with both a cell and a credit.
    pub try_tx_noops: u64,
    /// Cells delivered to hosts.
    pub cells_delivered: u64,
    /// Cells dropped (lossy mode).
    pub drops: u64,
    /// Final simulated time, ns.
    pub sim_ns: Time,
    /// Wall-clock spent in `run`, ns.
    pub wall_ns: u128,
}

/// One sniffer record (the §VI-B "Wireshark" check, in-simulator).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CaptureRecord {
    /// Simulated time, ns.
    pub t: Time,
    /// Flow the cell belongs to.
    pub flow: FlowId,
    /// Cell sequence number within the flow.
    pub seq: u32,
    /// What happened.
    pub event: CaptureEvent,
}

/// Sniffer event kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CaptureEvent {
    /// Cell entered the fabric at the source NIC.
    Injected,
    /// Cell crossed a switch (node id of the switch).
    Forwarded(u32),
    /// Cell reached its destination host.
    Delivered,
    /// Cell was lost (tail drop or failed link).
    Dropped,
}

/// Why the simulation stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimOutcome {
    /// Event queue drained / workload finished.
    Completed,
    /// Lossless fabric wedged: no delivery for the watchdog period.
    Deadlock,
    /// Hit `max_sim_ns`.
    TimeLimit,
}

#[derive(Clone, Debug)]
enum Ev {
    TryTx(u32),
    Arrive(u32, Cell),
    Credit(u32, u8),
    Inject(FlowId),
    /// NIC channel `.0` transmitted while its host had a backlog.
    Wake(u32),
    RankWake(u32),
    CnpArrive(FlowId),
    DcqcnTimer(FlowId),
    TcpAck(FlowId, u32),
    TcpRto(FlowId),
    MonitorTick,
    LinkFail(u32, u32),
    LinkUp(u32, u32),
    NodeFail(u32),
    NodeRestore(u32),
    Degrade(u32, u32, f64),
}

impl Ev {
    fn kind(&self) -> EventKind {
        match self {
            Ev::TryTx(_) => EventKind::TryTx,
            Ev::Arrive(..) => EventKind::Arrive,
            Ev::Credit(..) => EventKind::Credit,
            Ev::Inject(_) => EventKind::Inject,
            Ev::Wake(_) => EventKind::Wake,
            Ev::RankWake(_) => EventKind::Mpi,
            Ev::CnpArrive(_) => EventKind::Cnp,
            Ev::DcqcnTimer(_) => EventKind::DcqcnTimer,
            Ev::TcpAck(..) | Ev::TcpRto(_) => EventKind::Tcp,
            Ev::MonitorTick => EventKind::Monitor,
            Ev::LinkFail(..)
            | Ev::LinkUp(..)
            | Ev::NodeFail(_)
            | Ev::NodeRestore(_)
            | Ev::Degrade(..) => EventKind::Fault,
        }
    }
}

/// Serialization time of `bytes` at `bytes_per_ns`, ns.
fn ser_ns(bytes: u32, bytes_per_ns: f64) -> u64 {
    (bytes as f64 / bytes_per_ns).ceil() as u64
}

/// CSR-style per-node adjacency index mapping `(from, to)` node pairs to
/// channel ids. Built once at engine construction; lookups on the
/// flow-setup and failure paths are a binary search over the node's
/// (typically single-digit-degree) neighbor slice instead of hashing the
/// pair — no hashing, no per-lookup allocation, cache-local.
struct ChannelIndex {
    /// `offsets[n]..offsets[n + 1]` delimits node `n`'s slice of `entries`.
    offsets: Vec<u32>,
    /// `(neighbor, channel id)`, sorted by neighbor within each node slice.
    entries: Vec<(u32, u32)>,
}

impl ChannelIndex {
    /// Build from the channel endpoint list; `num_nodes` spans hosts and
    /// switches.
    fn build(num_nodes: u32, channels: &[Channel]) -> Self {
        let mut degree = vec![0u32; num_nodes as usize + 1];
        for ch in channels {
            degree[ch.from as usize + 1] += 1;
        }
        for i in 1..degree.len() {
            degree[i] += degree[i - 1];
        }
        let offsets = degree;
        let mut entries = vec![(0u32, 0u32); channels.len()];
        let mut cursor: Vec<u32> = offsets[..offsets.len() - 1].to_vec();
        for (id, ch) in channels.iter().enumerate() {
            let slot = cursor[ch.from as usize];
            entries[slot as usize] = (ch.to, id as u32);
            cursor[ch.from as usize] += 1;
        }
        for n in 0..num_nodes as usize {
            entries[offsets[n] as usize..offsets[n + 1] as usize]
                .sort_unstable_by_key(|&(to, _)| to);
        }
        ChannelIndex { offsets, entries }
    }

    /// Channel id of the directed link `from -> to`.
    #[inline]
    fn get(&self, from: u32, to: u32) -> u32 {
        let slice = &self.entries
            [self.offsets[from as usize] as usize..self.offsets[from as usize + 1] as usize];
        match slice.binary_search_by_key(&to, |&(n, _)| n) {
            Ok(i) => slice[i].1,
            Err(_) => panic!("no channel {from} -> {to}"),
        }
    }
}

/// The simulator.
pub struct Simulator {
    cfg: SimConfig,
    cell_bytes: u32,
    /// Nominal serialization of a full cell and of [`HEADER_BYTES`], ns.
    ser_cell_ns: u64,
    ser_header_ns: u64,
    /// Buffer limits converted from bytes to cells at this granularity.
    queue_cap_cells: u32,
    nic_queue_cells: u32,
    num_hosts: u32,
    channels: Vec<Channel>,
    channel_ix: ChannelIndex,
    /// Indexed by host node; switches have none.
    nics: Vec<Nic>,
    pub(crate) flows: Vec<Flow>,
    /// Every flow's route, as (channel, VC) per hop, back to back.
    hops: Vec<(u32, u8)>,
    /// Future events, dispatched in `(t, push order)`.
    events: EventQueue<Ev>,
    pub(crate) now: Time,
    rng: StdRng,
    stats: SimStats,
    last_delivery: Time,
    /// Cells currently inside the fabric (enqueued, not yet delivered or
    /// dropped). Drives termination and the deadlock watchdog.
    cells_in_net: u64,
    pub(crate) mpi: Option<MpiState>,
    routes: RouteTable,
    topo: Topology,
    /// Adaptive routing: strategy re-run on every monitor tick.
    adaptive: Option<Box<dyn RoutingStrategy>>,
    /// Latest monitor snapshot.
    pub last_loads: LoadMap,
    monitor_active: bool,
    outcome: Option<SimOutcome>,
    /// Sniffer: capture cells of flows touching this host.
    capture_host: Option<u32>,
    capture: Vec<CaptureRecord>,
}

impl Simulator {
    /// Build a simulator over a topology and its route table.
    pub fn new(topo: &Topology, routes: RouteTable, cfg: SimConfig) -> Self {
        let num_hosts = topo.num_hosts();
        let node_of = |e: Endpoint| -> u32 {
            match e {
                Endpoint::Host(h) => h.0,
                Endpoint::Switch(s) => num_hosts + s.0,
            }
        };
        let num_vcs = MAX_VCS.max(routes.num_vcs() as usize);
        assert!(num_vcs as u32 <= VcMask::BITS, "too many VCs: {num_vcs}");
        let cell_bytes = cfg.granularity.bytes();
        assert!(cell_bytes <= u16::MAX as u32, "{cell_bytes} B cells > u16");
        let init_credits = (cfg.vc_buffer_bytes / cell_bytes).max(1);
        let mut channels = Vec::new();
        for l in topo.links() {
            let (a, b) = (node_of(l.a), node_of(l.b));
            for (x, y) in [(a, b), (b, a)] {
                channels.push(Channel {
                    from: x,
                    to: y,
                    queues: vec![VecDeque::new(); num_vcs],
                    credits: vec![init_credits; num_vcs],
                    nonempty: 0,
                    credited: VcMask::MAX >> (VcMask::BITS as usize - num_vcs),
                    busy_until: 0,
                    next_vc: 0,
                    queued: 0,
                    window_bytes: 0,
                    total_bytes: 0,
                    drops: 0,
                    peak_queued: 0,
                    up: true,
                    rate_scale: 1.0,
                });
            }
        }
        let channel_ix =
            ChannelIndex::build(num_hosts + topo.num_switches(), &channels);
        let seed = cfg.seed;
        let queue_cap_cells = (cfg.queue_cap_bytes / cell_bytes).max(1);
        let nic_queue_cells = (cfg.nic_queue_bytes / cell_bytes).max(1);
        let ser_cell_ns = ser_ns(cell_bytes, cfg.bytes_per_ns());
        let ser_header_ns = ser_ns(HEADER_BYTES, cfg.bytes_per_ns());
        // Twice one nominal hop, so a transmit's Arrive and TryTx land on the
        // wheel; the cap only bounds memory for extreme configs.
        let hop_ns =
            ser_cell_ns + cfg.link_latency_ns + SWITCH_LATENCY_NS + cfg.extra_switch_ns;
        let span = (2 * hop_ns).next_power_of_two().clamp(64, 1 << 16);
        Simulator {
            cfg,
            cell_bytes,
            ser_cell_ns,
            ser_header_ns,
            queue_cap_cells,
            nic_queue_cells,
            num_hosts,
            channels,
            channel_ix,
            nics: (0..num_hosts).map(|_| Nic::default()).collect(),
            flows: Vec::new(),
            hops: Vec::new(),
            events: EventQueue::new(span),
            now: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
            last_delivery: 0,
            cells_in_net: 0,
            mpi: None,
            routes,
            topo: topo.clone(),
            adaptive: None,
            last_loads: LoadMap::new(),
            monitor_active: false,
            outcome: None,
            capture_host: None,
            capture: Vec::new(),
        }
    }

    /// Attach the sniffer to a host: every cell of every flow that sources
    /// or sinks there is recorded (§VI-B's client-side Wireshark).
    pub fn attach_sniffer(&mut self, host: HostId) {
        self.capture_host = Some(host.0);
    }

    /// Records captured so far.
    pub fn capture(&self) -> &[CaptureRecord] {
        &self.capture
    }

    #[inline]
    fn sniff(&mut self, flow: FlowId, seq: u32, event: CaptureEvent) {
        if let Some(h) = self.capture_host {
            let f = &self.flows[flow as usize];
            if f.src_host == h || f.dst_host == h {
                self.capture.push(CaptureRecord { t: self.now, flow, seq, event });
            }
        }
    }

    /// Install an adaptive strategy: on every monitor tick, routes are
    /// rebuilt from the live load map (the §VI-E active-routing loop).
    pub fn set_adaptive(&mut self, strategy: Box<dyn RoutingStrategy>) {
        self.adaptive = Some(strategy);
    }

    /// Configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    #[inline]
    fn channel(&self, from: u32, to: u32) -> u32 {
        self.channel_ix.get(from, to)
    }

    /// Append the channel/VC route between two hosts under the current
    /// route table to `hops`.
    fn push_route(&mut self, src: HostId, dst: HostId) {
        let sa = self.topo.host_switch(src);
        let sb = self.topo.host_switch(dst);
        let nh = self.num_hosts;
        let (ix, hops) = (&self.channel_ix, &mut self.hops);
        hops.push((ix.get(src.0, nh + sa.0), NIC_VC));
        if sa != sb {
            let r = self
                .routes
                .try_route(sa, sb)
                .unwrap_or_else(|| panic!("no route {sa:?} -> {sb:?}"));
            for (w, &vc) in r.hops.windows(2).zip(&r.vcs) {
                hops.push((ix.get(nh + w[0].0, nh + w[1].0), vc));
            }
        }
        hops.push((ix.get(nh + sb.0, dst.0), 0));
    }

    /// Start a raw bulk flow; returns its id.
    pub fn start_raw_flow(&mut self, src: HostId, dst: HostId, bytes: u64) -> FlowId {
        self.start_flow(src, dst, bytes, FlowKind::Raw)
    }

    /// Schedule a raw bulk flow to start at absolute simulated time
    /// `at_ns >= now`; returns its id immediately. The route is resolved
    /// against the route table as of this call, and the flow's FCT clock
    /// starts at `at_ns`, exactly as if [`Self::start_raw_flow`] had been
    /// called then. Workload replays with timed arrival processes (e.g.
    /// [`sdt_workloads::spec`] Poisson traffic) create every flow up front
    /// and let the event queue pace the injections.
    pub fn schedule_raw_flow(&mut self, src: HostId, dst: HostId, bytes: u64, at_ns: Time) -> FlowId {
        self.start_flow_at(src, dst, bytes, FlowKind::Raw, at_ns)
    }

    /// Start an "iperf3" TCP flow (`bytes = u64::MAX` for open-ended).
    pub fn start_tcp_flow(&mut self, src: HostId, dst: HostId, bytes: u64) -> FlowId {
        let tcp = TcpState {
            cwnd: TCP_INIT_CWND as f64,
            ssthresh: TCP_INIT_SSTHRESH as f64,
            next_seq: 0,
            acked: 0,
            expected_rx: 0,
            dup: 0,
            last_progress: self.now,
        };
        let id = self.start_flow(src, dst, bytes, FlowKind::Tcp(tcp));
        self.events.push(self.now + TCP_RTO_NS, Ev::TcpRto(id));
        id
    }

    pub(crate) fn start_flow(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: u64,
        kind: FlowKind,
    ) -> FlowId {
        let now = self.now;
        self.start_flow_at(src, dst, bytes, kind, now)
    }

    fn start_flow_at(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: u64,
        kind: FlowKind,
        at: Time,
    ) -> FlowId {
        assert!(bytes > 0, "zero-byte flows are not modeled");
        assert!(at >= self.now, "flows cannot start in the past ({at} < {})", self.now);
        let Ok(route) = u32::try_from(self.hops.len()) else {
            panic!("the route arena outgrew u32 offsets")
        };
        if src != dst {
            self.push_route(src, dst);
        }
        let route_len = (self.hops.len() - route as usize) as u32;
        assert!(route_len <= 1 << 16, "{route_len}-channel route > u16 hop");
        let dcqcn = match (&kind, &self.cfg.dcqcn) {
            (FlowKind::Tcp(_), _) | (_, None) => None,
            (_, Some(_)) => Some(Dcqcn {
                rate_bpns: self.cfg.bytes_per_ns(),
                target_bpns: self.cfg.bytes_per_ns(),
                alpha: 1.0,
                last_cnp_rx: 0,
            }),
        };
        let id = self.flows.len() as FlowId;
        self.flows.push(Flow {
            src_host: src.0,
            dst_host: dst.0,
            route,
            route_len,
            bytes_total: bytes,
            bytes_injected: 0,
            bytes_delivered: 0,
            next_seq: 0,
            kind,
            dcqcn,
            start: at,
            finish: None,
            inject_scheduled: true,
            send_completed: false,
        });
        self.events.push(at, Ev::Inject(id));
        if dcqcn.is_some() {
            self.events.push(at + DCQCN_TIMER_NS, Ev::DcqcnTimer(id));
        }
        id
    }

    /// Attach an MPI replay (see [`crate::mpi`]).
    pub(crate) fn attach_mpi(&mut self, mpi: MpiState) {
        let n = mpi.num_ranks();
        self.mpi = Some(mpi);
        for r in 0..n {
            self.events.push(0, Ev::RankWake(r));
        }
    }

    /// Run until completion, deadlock, or the time limit. Returns the
    /// outcome; inspect [`Simulator::stats`] and flow stats afterwards.
    pub fn run(&mut self) -> SimOutcome {
        let wall_start = std::time::Instant::now();
        if !self.monitor_active {
            self.monitor_active = true;
            self.events.push(self.now + self.cfg.monitor_interval_ns, Ev::MonitorTick);
        }
        loop {
            // Stop as soon as an outcome is decided.
            if self.outcome.is_some() {
                break;
            }
            let Some(next_t) = self.events.next_time() else { break };
            // Respect the time limit without consuming the event beyond it,
            // so a run can resume after `set_time_limit`.
            if self.cfg.max_sim_ns > 0 && next_t > self.cfg.max_sim_ns {
                self.outcome = Some(SimOutcome::TimeLimit);
                self.now = self.cfg.max_sim_ns;
                break;
            }
            let Some((t, ev)) = self.events.pop() else {
                unreachable!("next_time saw an event")
            };
            self.now = t;
            self.stats.events += 1;
            self.stats.events_by_kind[ev.kind() as usize] += 1;
            match ev {
                Ev::TryTx(c) => self.try_tx(c),
                Ev::Arrive(c, cell) => self.arrive(c, cell),
                Ev::Credit(c, vc) => self.credit(c, vc),
                Ev::Inject(f) => self.inject(f),
                Ev::Wake(c) => self.wake(c),
                Ev::RankWake(r) => self.rank_wake(r),
                Ev::CnpArrive(f) => self.cnp(f),
                Ev::DcqcnTimer(f) => self.dcqcn_timer(f),
                Ev::TcpAck(f, ack) => self.tcp_ack(f, ack),
                Ev::TcpRto(f) => self.tcp_rto(f),
                Ev::MonitorTick => self.monitor_tick(),
                Ev::LinkFail(a, b) => self.link_fail(a, b),
                Ev::LinkUp(a, b) => self.link_up(a, b),
                Ev::NodeFail(n) => self.node_fail(n),
                Ev::NodeRestore(n) => self.node_restore(n),
                Ev::Degrade(a, b, f) => self.degrade(a, b, f),
            }
        }
        self.stats.sim_ns = self.now;
        self.stats.wall_ns += wall_start.elapsed().as_nanos();
        self.outcome.unwrap_or(SimOutcome::Completed)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current simulated time, ns.
    pub fn now_ns(&self) -> Time {
        self.now
    }

    /// Raise (or clear, with 0) the simulated-time limit and make the
    /// simulator resumable after a [`SimOutcome::TimeLimit`] stop.
    pub fn set_time_limit(&mut self, max_sim_ns: Time) {
        self.cfg.max_sim_ns = max_sim_ns;
        if self.outcome == Some(SimOutcome::TimeLimit) {
            self.outcome = None;
        }
    }

    /// Snapshot of one flow.
    pub fn flow_stats(&self, id: FlowId) -> FlowStats {
        let f = &self.flows[id as usize];
        FlowStats {
            src_host: f.src_host,
            dst_host: f.dst_host,
            bytes_delivered: f.bytes_delivered,
            start: f.start,
            finish: f.finish,
        }
    }

    /// All flows' records in creation order: one linear pass over the flow
    /// table instead of a [`Self::flow_stats`] query per id. This is the
    /// bulk-export path the estimator's differential oracle and workload
    /// replays use — at millions of flows, per-id snapshots (and their
    /// `Vec` clones) are the bottleneck, not the data.
    pub fn flow_records(&self) -> Vec<FlowRecord> {
        self.flows
            .iter()
            .map(|f| FlowRecord {
                src_host: f.src_host,
                dst_host: f.dst_host,
                bytes: f.bytes_total,
                start: f.start,
                fct_ns: f.finish.map(|t| t.saturating_sub(f.start)),
            })
            .collect()
    }

    /// Number of flows created.
    pub fn num_flows(&self) -> u32 {
        self.flows.len() as u32
    }

    // ---- event handlers ----

    /// Serialization time on a (possibly degraded) channel. `scale == 1.0`
    /// is the nominal line rate, so fault-free runs are bit-identical to
    /// the pre-degradation engine; full cells and headers at that rate are
    /// precomputed.
    fn ser_ns_scaled(&self, bytes: u32, scale: f64) -> u64 {
        if scale == 1.0 {
            if bytes == self.cell_bytes {
                return self.ser_cell_ns;
            }
            if bytes == HEADER_BYTES {
                return self.ser_header_ns;
            }
        }
        ser_ns(bytes, self.cfg.bytes_per_ns() * scale)
    }

    fn try_tx(&mut self, c: u32) {
        let lossless = self.cfg.lossless;
        let ch = &mut self.channels[c as usize];
        let ready = ch.nonempty & ch.credited;
        if !ch.up || self.now < ch.busy_until || ready == 0 {
            self.stats.try_tx_noops += 1;
            return;
        }
        // Round-robin: the first ready VC at or after `next_vc`, wrapping.
        let later = ready & (VcMask::MAX << ch.next_vc);
        let vc = if later != 0 { later } else { ready }.trailing_zeros() as usize;
        ch.next_vc = if vc + 1 == ch.queues.len() { 0 } else { vc + 1 };
        let Some(cell) = ch.queues[vc].pop_front() else {
            unreachable!("the arbiter picked a non-empty VC")
        };
        if ch.queues[vc].is_empty() {
            ch.nonempty &= !(1 << vc);
        }
        ch.queued -= 1;
        if lossless {
            ch.credits[vc] -= 1;
            if ch.credits[vc] == 0 {
                ch.credited &= !(1 << vc);
            }
        }
        ch.window_bytes += u64::from(cell.bytes);
        ch.total_bytes += u64::from(cell.bytes);
        let scale = ch.rate_scale;
        let ser = self.ser_ns_scaled(cell.bytes.into(), scale);
        let busy = self.now + ser;
        self.channels[c as usize].busy_until = busy;
        // Return the credit of the channel this cell arrived on: it has now
        // left this node's buffer.
        if lossless && cell.arr_ch != NO_CHANNEL {
            self.return_credit(cell.arr_ch, cell.arr_vc);
        }
        // A NIC slot came free: park the backlog for one wake.
        let from = self.channels[c as usize].from as usize;
        if let Some(nic) = self.nics.get_mut(from) {
            if !nic.backlog.entries.is_empty() {
                debug_assert!(nic.parked.entries.is_empty(), "one wake per transmit");
                std::mem::swap(&mut nic.backlog, &mut nic.parked);
                self.events.push(self.now, Ev::Wake(c));
            }
        }
        // Transit: wire + (switch pipeline if entering a switch, including
        // the SDT crossbar-sharing overhead). With cut-through the head
        // latches after `HEADER_BYTES`; the channel stays busy for the full
        // serialization either way.
        let to = self.channels[c as usize].to;
        // Cut-through latches the head onward after `HEADER_BYTES`; the
        // final hop to a host completes only when the tail arrives.
        let latch = if self.cfg.cut_through && to >= self.num_hosts {
            ser.min(self.ser_ns_scaled(HEADER_BYTES, scale))
        } else {
            ser
        };
        let mut arr = self.now + latch + self.cfg.link_latency_ns;
        if to >= self.num_hosts {
            arr += SWITCH_LATENCY_NS + self.cfg.extra_switch_ns;
        }
        self.events.push(arr, Ev::Arrive(c, cell));
        self.events.push(busy, Ev::TryTx(c));
    }

    fn arrive(&mut self, c: u32, mut cell: Cell) {
        let to = self.channels[c as usize].to;
        if to < self.num_hosts {
            // Delivery to a host NIC: buffer frees instantly.
            if self.cfg.lossless {
                self.return_credit(c, cell.vc);
            }
            self.stats.cells_delivered += 1;
            self.last_delivery = self.now;
            self.cells_in_net -= 1;
            self.sniff(cell.flow, cell.seq, CaptureEvent::Delivered);
            self.deliver(cell);
            return;
        }
        // Forward within the fabric.
        self.sniff(cell.flow, cell.seq, CaptureEvent::Forwarded(to));
        let (d, vc) = self.hops[cell.route as usize + cell.hop as usize + 1];
        cell.arr_ch = c;
        cell.arr_vc = cell.vc;
        cell.hop += 1;
        cell.vc = vc;
        self.enqueue(d, cell);
    }

    fn enqueue(&mut self, d: u32, mut cell: Cell) {
        if !self.channels[d as usize].up {
            // A failed link loses every frame handed to it. The cell still
            // occupied an upstream buffer slot: return that credit, or the
            // upstream (channel, VC) leaks a slot and PFC starves after the
            // link recovers.
            self.channels[d as usize].drops += 1;
            self.stats.drops += 1;
            if cell.hop > 0 {
                self.cells_in_net -= 1;
            }
            if self.cfg.lossless && cell.arr_ch != NO_CHANNEL {
                self.return_credit(cell.arr_ch, cell.arr_vc);
            }
            self.sniff(cell.flow, cell.seq, CaptureEvent::Dropped);
            return;
        }
        if !self.cfg.lossless {
            let ch = &self.channels[d as usize];
            if ch.queued >= self.queue_cap_cells {
                // Tail drop; in lossy mode there are no credits to return.
                self.channels[d as usize].drops += 1;
                self.stats.drops += 1;
                if cell.hop > 0 {
                    // Cells past the NIC were counted in the fabric.
                    self.cells_in_net -= 1;
                }
                self.sniff(cell.flow, cell.seq, CaptureEvent::Dropped);
                return;
            }
        }
        // ECN marking (only meaningful for DCQCN flows).
        if self.cfg.dcqcn.is_some() {
            let depth_bytes = self.channels[d as usize].queued * self.cell_bytes;
            if depth_bytes >= DCQCN_KMIN_BYTES {
                let p = if depth_bytes >= DCQCN_KMAX_BYTES {
                    1.0
                } else {
                    DCQCN_PMAX * (depth_bytes - DCQCN_KMIN_BYTES) as f64
                        / (DCQCN_KMAX_BYTES - DCQCN_KMIN_BYTES) as f64
                };
                if self.rng.random::<f64>() < p {
                    cell.ecn = true;
                }
            }
        }
        if cell.hop == 0 {
            // Fresh injection into the fabric.
            self.cells_in_net += 1;
            self.sniff(cell.flow, cell.seq, CaptureEvent::Injected);
        }
        let ch = &mut self.channels[d as usize];
        ch.queues[cell.vc as usize].push_back(cell);
        ch.nonempty |= 1 << cell.vc;
        ch.queued += 1;
        ch.peak_queued = ch.peak_queued.max(ch.queued);
        self.kick(d);
    }

    fn credit(&mut self, c: u32, vc: u8) {
        self.channels[c as usize].grant(vc);
        self.kick(c);
    }

    /// Try channel `c` now — unless it is serializing: only a transmit
    /// moves `busy_until` and a transmit needs `now >= busy_until`, so the
    /// `TryTx` its last transmit pushed for `busy_until` is the first that
    /// can send.
    fn kick(&mut self, c: u32) {
        if self.now >= self.channels[c as usize].busy_until {
            self.events.push(self.now, Ev::TryTx(c));
        }
    }

    /// Give back one `vc` buffer slot of channel `c`, due upstream after
    /// one link latency. Only `try_tx(c)` reads credits, and a channel busy
    /// past that instant reads none before its busy-end `TryTx` — strictly
    /// past, since a `Credit` landing at `busy_until` dispatches after that
    /// earlier-pushed `TryTx`, which must not see it — so such a channel
    /// gets it now, eventless.
    fn return_credit(&mut self, c: u32, vc: u8) {
        let due = self.now + self.cfg.link_latency_ns;
        let ch = &mut self.channels[c as usize];
        if ch.busy_until > due {
            ch.grant(vc);
        } else {
            self.events.push(due, Ev::Credit(c, vc));
        }
    }

    fn nic_full(&self, nic_ch: u32) -> bool {
        self.channels[nic_ch as usize].queues[NIC_VC as usize].len()
            >= self.nic_queue_cells as usize
    }

    /// The NIC on channel `c` freed a slot. Does, in list order, what one
    /// `Inject` event per parked entry would: those events would carry
    /// contiguous sequence numbers and so run back to back, and `(t, seq)`
    /// dispatch sees nothing else of them.
    fn wake(&mut self, c: u32) {
        let host = self.channels[c as usize].from as usize;
        let mut parked = std::mem::take(&mut self.nics[host].parked);
        while !self.nic_full(c) {
            let Some(f) = parked.pop() else { break };
            self.inject(f);
        }
        // The queue is full and nothing dequeues inside one event, so every
        // remaining entry would clear its flow's flag and then drop out or
        // re-block in place — which the flow alone decides, once.
        let cell_bytes = self.cell_bytes;
        let mut died = false;
        for &(f, _) in &parked.members {
            let flow = &mut self.flows[f as usize];
            flow.inject_scheduled = false;
            died |= flow.sendable(cell_bytes) == 0;
        }
        if died {
            let alive = |f: FlowId| self.flows[f as usize].sendable(cell_bytes) != 0;
            parked.entries.retain(|&f| alive(f));
            parked.members.retain(|&(f, _)| alive(f));
        }
        // Chains that blocked between the transmit and this wake did so
        // before any parked entry would have re-blocked.
        let backlog = &mut self.nics[host].backlog;
        if backlog.entries.is_empty() {
            *backlog = parked;
        } else {
            for f in parked.entries {
                backlog.push(f);
            }
        }
    }

    /// NIC injection: one cell per event, paced by DCQCN rate or TCP window.
    fn inject(&mut self, fid: FlowId) {
        let cell_bytes = self.cell_bytes;
        let f = &mut self.flows[fid as usize];
        f.inject_scheduled = false;
        if f.finish.is_some() {
            return;
        }
        // Local (same-host) messages bypass the fabric.
        if f.src_host == f.dst_host {
            f.bytes_injected = f.bytes_total;
            f.bytes_delivered = f.bytes_total;
            f.finish = Some(self.now + 1_000);
            f.send_completed = true;
            let done_t = self.now + 1_000;
            self.events.push(done_t, Ev::TcpAck(fid, u32::MAX)); // reuse as completion tick
            return;
        }

        let remaining = f.sendable(cell_bytes);
        if remaining == 0 {
            return;
        }
        let (route, host) = (f.route, f.src_host as usize);
        let nic_ch = self.hops[route as usize].0;
        if self.nic_full(nic_ch) {
            self.nics[host].backlog.push(fid);
            return;
        }
        let f = &mut self.flows[fid as usize];
        let bytes = remaining.min(cell_bytes as u64) as u16;
        let seq = match &mut f.kind {
            FlowKind::Tcp(t) => {
                let s = t.next_seq;
                t.next_seq += 1;
                s
            }
            _ => {
                let s = f.next_seq;
                f.next_seq += 1;
                s
            }
        };
        let last = remaining <= cell_bytes as u64;
        let cell = Cell {
            flow: fid,
            bytes,
            seq,
            last,
            route,
            hop: 0,
            vc: NIC_VC,
            arr_ch: NO_CHANNEL,
            arr_vc: 0,
            ecn: false,
        };
        if !matches!(f.kind, FlowKind::Tcp(_)) {
            f.bytes_injected += bytes as u64;
        } else {
            f.bytes_injected = f.bytes_injected.max(seq as u64 * cell_bytes as u64 + bytes as u64);
        }
        let eager_done = !matches!(f.kind, FlowKind::Tcp(_)) && f.bytes_injected >= f.bytes_total;
        // Pace the next injection.
        let ser = self.ser_ns_scaled(u32::from(bytes), 1.0);
        let f = &mut self.flows[fid as usize];
        let gap = match (&f.kind, &f.dcqcn) {
            (FlowKind::Tcp(_), _) => ser,
            (_, Some(d)) => (bytes as f64 / d.rate_bpns.max(1e-9)).ceil() as u64,
            (_, None) => ser,
        };
        let more = match &f.kind {
            FlowKind::Tcp(t) => {
                (t.next_seq.saturating_sub(t.acked)) < t.cwnd as u32
                    && (t.next_seq as u64 * cell_bytes as u64) < f.bytes_total
            }
            _ => f.bytes_injected < f.bytes_total,
        };
        if more {
            f.inject_scheduled = true;
        }
        self.enqueue(nic_ch, cell);
        if more {
            self.events.push(self.now + gap, Ev::Inject(fid));
        }
        if eager_done {
            self.flows[fid as usize].send_completed = true;
            self.mpi_send_complete(fid);
        }
    }

    fn deliver(&mut self, cell: Cell) {
        let fid = cell.flow;
        let (is_tcp, ecn) = {
            let f = &self.flows[fid as usize];
            (matches!(f.kind, FlowKind::Tcp(_)), cell.ecn)
        };
        if is_tcp {
            // Receiver side of go-back-N: cumulative ack of in-order cells.
            let ack = {
                let f = &mut self.flows[fid as usize];
                if let FlowKind::Tcp(t) = &mut f.kind {
                    if cell.seq == t.expected_rx {
                        t.expected_rx += 1;
                    }
                    t.expected_rx
                } else {
                    unreachable!()
                }
            };
            let delay = self.reverse_delay(fid);
            self.events.push(self.now + delay, Ev::TcpAck(fid, ack));
            return;
        }
        // Message / raw flow.
        if ecn {
            // Receiver NIC returns a CNP, rate-limited per flow.
            let ok = {
                let f = &mut self.flows[fid as usize];
                match &mut f.dcqcn {
                    Some(st) if self.now - st.last_cnp_rx >= DCQCN_CNP_INTERVAL_NS => {
                        st.last_cnp_rx = self.now;
                        true
                    }
                    _ => false,
                }
            };
            if ok {
                let d = self.reverse_delay(fid);
                self.events.push(self.now + d, Ev::CnpArrive(fid));
            }
        }
        let done = {
            let f = &mut self.flows[fid as usize];
            f.bytes_delivered += cell.bytes as u64;
            cell.last && f.bytes_delivered >= f.bytes_total
        };
        if done {
            self.flows[fid as usize].finish = Some(self.now);
            self.mpi_delivered(fid);
        }
    }

    /// Latency of a control message on the reverse path (acks, CNPs):
    /// propagation + switch transit per hop, no queueing.
    fn reverse_delay(&self, fid: FlowId) -> u64 {
        let hops = self.flows[fid as usize].route_len as u64;
        hops * self.cfg.link_latency_ns
            + hops.saturating_sub(1) * (SWITCH_LATENCY_NS + self.cfg.extra_switch_ns)
    }

    fn cnp(&mut self, fid: FlowId) {
        let f = &mut self.flows[fid as usize];
        if let Some(st) = &mut f.dcqcn {
            st.target_bpns = st.rate_bpns;
            st.alpha = (1.0 - DCQCN_G) * st.alpha + DCQCN_G;
            st.rate_bpns *= 1.0 - st.alpha / 2.0;
            st.rate_bpns = st.rate_bpns.max(self.cfg.bytes_per_ns() / 1000.0);
        }
    }

    fn dcqcn_timer(&mut self, fid: FlowId) {
        let line = self.cfg.bytes_per_ns();
        let f = &mut self.flows[fid as usize];
        if f.finish.is_some() || f.send_completed {
            return;
        }
        if let Some(st) = &mut f.dcqcn {
            st.alpha *= 1.0 - DCQCN_G;
            st.rate_bpns = ((st.rate_bpns + st.target_bpns) / 2.0 + DCQCN_RATE_AI_BPNS).min(line);
            st.target_bpns = (st.target_bpns + DCQCN_RATE_AI_BPNS).min(line);
        }
        let resched = !f.inject_scheduled && f.bytes_injected < f.bytes_total;
        self.events.push(self.now + DCQCN_TIMER_NS, Ev::DcqcnTimer(fid));
        if resched {
            self.flows[fid as usize].inject_scheduled = true;
            self.events.push(self.now, Ev::Inject(fid));
        }
    }

    fn tcp_ack(&mut self, fid: FlowId, ack: u32) {
        // Completion tick reuse for local flows.
        if ack == u32::MAX {
            self.mpi_send_complete(fid);
            self.mpi_delivered(fid);
            return;
        }
        let cell_bytes = self.cell_bytes as u64;
        let total_cells = self.flows[fid as usize].total_cells(self.cell_bytes);
        let mut reinject = false;
        {
            let f = &mut self.flows[fid as usize];
            let FlowKind::Tcp(t) = &mut f.kind else { return };
            if ack > t.acked {
                // New data acked.
                t.acked = ack;
                t.dup = 0;
                t.last_progress = self.now;
                f.bytes_delivered = (ack as u64 * cell_bytes).min(f.bytes_total);
                if t.cwnd < t.ssthresh {
                    t.cwnd += (ack - t.acked.min(ack)) as f64 + 1.0; // slow start
                } else {
                    t.cwnd += 1.0 / t.cwnd; // congestion avoidance
                }
                t.cwnd = t.cwnd.min(512.0);
                if ack >= total_cells {
                    f.finish = Some(self.now);
                    f.send_completed = true;
                } else {
                    reinject = true;
                }
            } else {
                t.dup += 1;
                if t.dup == 3 {
                    // Fast retransmit, go-back-N.
                    t.ssthresh = (t.cwnd / 2.0).max(2.0);
                    t.cwnd = t.ssthresh;
                    t.next_seq = t.acked;
                    t.dup = 0;
                    reinject = true;
                }
            }
        }
        if reinject && !self.flows[fid as usize].inject_scheduled {
            self.flows[fid as usize].inject_scheduled = true;
            self.events.push(self.now, Ev::Inject(fid));
        }
    }

    fn tcp_rto(&mut self, fid: FlowId) {
        let mut reinject = false;
        let mut resched = false;
        {
            let f = &mut self.flows[fid as usize];
            if f.finish.is_none() {
                resched = true;
                if let FlowKind::Tcp(t) = &mut f.kind {
                    if self.now.saturating_sub(t.last_progress) >= TCP_RTO_NS {
                        t.ssthresh = (t.cwnd / 2.0).max(2.0);
                        t.cwnd = TCP_INIT_CWND as f64;
                        t.next_seq = t.acked;
                        t.last_progress = self.now;
                        reinject = true;
                    }
                }
            }
        }
        if resched {
            self.events.push(self.now + TCP_RTO_NS, Ev::TcpRto(fid));
        }
        if reinject && !self.flows[fid as usize].inject_scheduled {
            self.flows[fid as usize].inject_scheduled = true;
            self.events.push(self.now, Ev::Inject(fid));
        }
    }

    fn monitor_tick(&mut self) {
        // Fold window counters into a switch-level load map.
        let window = self.cfg.monitor_interval_ns as f64;
        let cap = self.cfg.bytes_per_ns() * window;
        let mut loads = LoadMap::new();
        let nh = self.num_hosts;
        for ch in &mut self.channels {
            if ch.from >= nh && ch.to >= nh {
                let load = if ch.up {
                    ch.window_bytes as f64 / cap
                } else {
                    // A failed link looks infinitely congested to UGAL.
                    1e6
                };
                loads.set(SwitchId(ch.from - nh), SwitchId(ch.to - nh), load);
            }
            ch.window_bytes = 0;
        }
        self.last_loads = loads;
        // Active routing: refresh routes for future flows.
        if let Some(strategy) = self.adaptive.take() {
            self.routes =
                RouteTable::build_adaptive(&self.topo, strategy.as_ref(), Some(&self.last_loads));
            self.adaptive = Some(strategy);
        }
        // Deadlock watchdog: cells stuck in the fabric with no delivery.
        if self.cfg.lossless
            && self.cells_in_net > 0
            && self.now.saturating_sub(self.last_delivery) >= self.cfg.deadlock_timeout_ns
        {
            self.outcome = Some(SimOutcome::Deadlock);
            return;
        }
        // Keep ticking while anything can still make progress.
        let mpi_active = self.mpi.as_ref().is_some_and(|m| !m.all_done());
        let injecting = self.flows.iter().any(|f| f.inject_scheduled);
        if self.cells_in_net > 0 || injecting || mpi_active {
            self.events.push(self.now + self.cfg.monitor_interval_ns, Ev::MonitorTick);
        } else {
            self.monitor_active = false;
        }
    }

    // ---- MPI plumbing (delegates to crate::mpi) ----

    fn rank_wake(&mut self, rank: u32) {
        crate::mpi::on_rank_wake(self, rank);
    }

    fn mpi_send_complete(&mut self, fid: FlowId) {
        if self.mpi.is_some() {
            crate::mpi::on_send_complete(self, fid);
        }
    }

    fn mpi_delivered(&mut self, fid: FlowId) {
        if self.mpi.is_some() {
            crate::mpi::on_delivered(self, fid);
        }
    }

    pub(crate) fn schedule_rank_wake(&mut self, rank: u32, at: Time) {
        self.events.push(at, Ev::RankWake(rank));
    }

    /// Iterate over switch-to-switch channels as (from, to, total bytes).
    pub(crate) fn fabric_channels(
        &self,
    ) -> impl Iterator<Item = (SwitchId, SwitchId, u64)> + '_ {
        let nh = self.num_hosts;
        self.channels.iter().filter(move |ch| ch.from >= nh && ch.to >= nh).map(
            move |ch| (SwitchId(ch.from - nh), SwitchId(ch.to - nh), ch.total_bytes),
        )
    }

    /// Peak egress-queue depth, in bytes, over all channels (congestion
    /// observable for the DCQCN experiments).
    pub fn peak_queue_bytes(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.peak_queued as u64 * self.cell_bytes as u64)
            .max()
            .unwrap_or(0)
    }

    /// Credit-conservation invariant: after a fully drained lossless run,
    /// every (channel, VC) must hold exactly its initial credit allotment —
    /// no slot leaked, none minted. A run stopped at a time limit may
    /// already count credits still in flight: a channel serializing past a
    /// credit's arrival is granted it when it is returned.
    pub fn credits_intact(&self) -> bool {
        let init = (self.cfg.vc_buffer_bytes / self.cell_bytes).max(1);
        self.channels
            .iter()
            .all(|ch| ch.credits.iter().all(|&c| c == init))
    }

    /// DCQCN current sending rate of a flow, bytes/ns (None when the flow
    /// has no rate-control state).
    pub fn flow_rate_bpns(&self, id: FlowId) -> Option<f64> {
        self.flows[id as usize].dcqcn.as_ref().map(|d| d.rate_bpns)
    }

    /// Queue every fault of a [`crate::faults::FaultSchedule`] into the
    /// event queue — the one way a fault enters a run. Faults in the
    /// simulated past fire immediately.
    ///
    /// A link fault takes both directions of the fabric link: a dead link
    /// loses what is queued and in flight on it, and the Network Monitor
    /// reports it saturated so adaptive strategies route around it. A
    /// switch crash takes every incident channel, host attachments
    /// included. A degraded link serializes at `factor` of its nominal rate
    /// in both directions (`1.0` restores it).
    pub fn apply_fault_schedule(&mut self, schedule: &crate::faults::FaultSchedule) {
        use crate::faults::FaultEvent;
        let nh = self.num_hosts;
        for f in schedule.events() {
            let at = f.at_ns.max(self.now);
            let ev = match f.event {
                FaultEvent::LinkDown { a, b } => Ev::LinkFail(nh + a.0, nh + b.0),
                FaultEvent::LinkUp { a, b } => Ev::LinkUp(nh + a.0, nh + b.0),
                FaultEvent::SwitchCrash { s } => Ev::NodeFail(nh + s.0),
                FaultEvent::SwitchRestart { s } => Ev::NodeRestore(nh + s.0),
                FaultEvent::PortDegrade { a, b, factor } => {
                    Ev::Degrade(nh + a.0, nh + b.0, factor)
                }
            };
            self.events.push(at, ev);
        }
    }

    /// Is the fabric link between two switches currently up (both
    /// directions)?
    pub fn link_is_up(&self, a: SwitchId, b: SwitchId) -> bool {
        let x = self.num_hosts + a.0;
        let y = self.num_hosts + b.0;
        [(x, y), (y, x)]
            .iter()
            .all(|&(f, t)| self.channels[self.channel(f, t) as usize].up)
    }

    /// Take one directed channel down, losing everything queued on it. In
    /// lossless mode the queued cells' upstream credits are returned —
    /// frames are lost, buffer slots are not.
    fn fail_channel(&mut self, c: u32) {
        let lossless = self.cfg.lossless;
        let ch = &mut self.channels[c as usize];
        if !ch.up {
            return;
        }
        ch.up = false;
        let mut lost = 0u64;
        let mut credits_due: Vec<(u32, u8)> = Vec::new();
        for q in &mut ch.queues {
            for cell in q.drain(..) {
                lost += 1;
                if lossless && cell.arr_ch != NO_CHANNEL {
                    credits_due.push((cell.arr_ch, cell.arr_vc));
                }
            }
        }
        ch.queued = 0;
        ch.nonempty = 0;
        ch.drops += lost;
        self.stats.drops += lost;
        self.cells_in_net -= lost;
        for (arr_ch, arr_vc) in credits_due {
            self.return_credit(arr_ch, arr_vc);
        }
    }

    /// Bring one directed channel back and restart its arbiter.
    fn restore_channel(&mut self, c: u32) {
        let ch = &mut self.channels[c as usize];
        if ch.up {
            return;
        }
        ch.up = true;
        self.events.push(self.now, Ev::TryTx(c));
    }

    fn link_fail(&mut self, x: u32, y: u32) {
        for (from, to) in [(x, y), (y, x)] {
            let c = self.channel(from, to);
            self.fail_channel(c);
        }
    }

    fn link_up(&mut self, x: u32, y: u32) {
        for (from, to) in [(x, y), (y, x)] {
            let c = self.channel(from, to);
            self.restore_channel(c);
        }
    }

    /// Channels incident to a node, both directions.
    fn incident_channels(&self, n: u32) -> Vec<u32> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.from == n || ch.to == n)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn node_fail(&mut self, n: u32) {
        for c in self.incident_channels(n) {
            self.fail_channel(c);
        }
    }

    fn node_restore(&mut self, n: u32) {
        for c in self.incident_channels(n) {
            self.restore_channel(c);
        }
    }

    fn degrade(&mut self, x: u32, y: u32, factor: f64) {
        for (from, to) in [(x, y), (y, x)] {
            let c = self.channel(from, to);
            self.channels[c as usize].rate_scale = factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt_routing::{generic::Bfs, RouteTable};
    use sdt_topology::chain::chain;

    fn sim(cfg: SimConfig) -> Simulator {
        let t = chain(4);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        Simulator::new(&t, routes, cfg)
    }

    #[test]
    fn raw_flow_delivers_all_bytes() {
        let mut s = sim(SimConfig::default());
        let f = s.start_raw_flow(HostId(0), HostId(3), 150_000);
        assert_eq!(s.run(), SimOutcome::Completed);
        let st = s.flow_stats(f);
        assert_eq!(st.bytes_delivered, 150_000);
        assert!(st.finish.is_some());
    }

    #[test]
    fn throughput_close_to_line_rate() {
        // 1.5 MB over an uncongested path at 10G should take ~1.2 ms.
        let mut s = sim(SimConfig::default());
        let f = s.start_raw_flow(HostId(0), HostId(3), 1_500_000);
        s.run();
        let st = s.flow_stats(f);
        let gbps = st.goodput_gbps(s.now);
        assert!((8.0..=10.0).contains(&gbps), "goodput {gbps}");
    }

    #[test]
    fn two_flows_share_a_bottleneck() {
        let mut s = sim(SimConfig::default());
        let a = s.start_raw_flow(HostId(0), HostId(3), 600_000);
        let b = s.start_raw_flow(HostId(1), HostId(3), 600_000);
        s.run();
        let (sa, sb) = (s.flow_stats(a), s.flow_stats(b));
        assert_eq!(sa.bytes_delivered, 600_000);
        assert_eq!(sb.bytes_delivered, 600_000);
        // Shared final link: each gets about half line rate.
        for st in [&sa, &sb] {
            let g = st.goodput_gbps(s.now);
            assert!((3.5..=6.5).contains(&g), "goodput {g}");
        }
    }

    #[test]
    fn lossless_never_drops() {
        let mut s = sim(SimConfig { lossless: true, ..SimConfig::default() });
        for src in 0..3 {
            s.start_raw_flow(HostId(src), HostId(3), 300_000);
        }
        s.run();
        assert_eq!(s.stats().drops, 0);
    }

    #[test]
    fn lossy_overload_drops() {
        let mut s = sim(SimConfig {
            lossless: false,
            queue_cap_bytes: 8 * 1500,
            ..SimConfig::default()
        });
        for src in 0..3 {
            s.start_raw_flow(HostId(src), HostId(3), 600_000);
        }
        s.run();
        assert!(s.stats().drops > 0, "tiny queues + 3:1 incast must drop");
    }

    #[test]
    fn tcp_flow_completes_despite_loss() {
        let mut s = sim(SimConfig {
            lossless: false,
            queue_cap_bytes: 16 * 1500,
            ..SimConfig::default()
        });
        let a = s.start_tcp_flow(HostId(0), HostId(3), 300_000);
        let b = s.start_tcp_flow(HostId(1), HostId(3), 300_000);
        let out = s.run();
        assert_eq!(out, SimOutcome::Completed);
        for f in [a, b] {
            let st = s.flow_stats(f);
            assert_eq!(st.bytes_delivered, 300_000, "flow {f}");
            assert!(st.finish.is_some());
        }
    }

    #[test]
    fn time_limit_respected() {
        let mut s = sim(SimConfig { max_sim_ns: 10_000, ..SimConfig::default() });
        s.start_raw_flow(HostId(0), HostId(3), u32::MAX as u64);
        assert_eq!(s.run(), SimOutcome::TimeLimit);
        assert!(s.now <= 10_000);
    }

    #[test]
    fn extra_switch_latency_slows_delivery() {
        let run_with = |extra: u64| {
            let mut s = sim(SimConfig { extra_switch_ns: extra, ..SimConfig::default() });
            let f = s.start_raw_flow(HostId(0), HostId(3), 1500);
            s.run();
            s.flow_stats(f).finish.unwrap()
        };
        let base = run_with(0);
        let slow = run_with(100);
        // 4 switch transits x 100 ns.
        assert_eq!(slow - base, 400);
    }

    #[test]
    fn a_flow_blocked_twice_holds_two_entries_and_one_member() {
        // One-cell NIC queue; DCQCN so a timer tick can re-arm a blocked flow.
        let mut s = sim(SimConfig {
            nic_queue_bytes: 1500,
            dcqcn: Some(crate::config::DcqcnConfig::default()),
            ..SimConfig::default()
        });
        let a = s.start_raw_flow(HostId(0), HostId(3), 150_000);
        let b = s.start_raw_flow(HostId(0), HostId(2), 150_000);
        s.inject(a); // takes the only slot
        for f in [a, b, a] {
            s.inject(f);
        }
        let mut backlog = std::mem::take(&mut s.nics[0].backlog);
        assert_eq!(backlog.entries, [a, b, a]);
        assert_eq!(backlog.members, [(a, 2), (b, 1)]);
        // Entries leave in blocking order; a member leaves with its last one.
        assert_eq!(backlog.pop(), Some(a));
        assert_eq!(backlog.members, [(a, 1), (b, 1)]);
        assert_eq!(backlog.pop(), Some(b));
        assert_eq!(backlog.pop(), Some(a));
        assert!(backlog.members.is_empty());
        assert_eq!(backlog.pop(), None);
    }

    #[test]
    fn monitor_reports_loads() {
        let mut s = sim(SimConfig::default());
        s.start_raw_flow(HostId(0), HostId(3), 3_000_000);
        s.run();
        // The chain's s1->s2 channel carried everything.
        let s1_s2 = s.fabric_channels().find(|&(a, b, _)| (a, b) == (SwitchId(1), SwitchId(2)));
        assert!(s1_s2.is_some_and(|(_, _, bytes)| bytes >= 3_000_000));
    }
}
