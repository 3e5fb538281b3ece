//! Golden digests: the engine's simulated results, bit for bit.
//!
//! Every constant in [`GOLDEN`] was recorded at commit c3a69e7 (PR 14), the
//! parent of the PR that replaced `try_tx`'s per-entry `Ev::Inject` fan-out
//! with one `Ev::Wake` per freed NIC slot — before `engine.rs` was touched —
//! and the file passes unmodified on both engines. A digest folds
//! everything a caller can observe of a run *except* `SimStats::events` and
//! wall time: per-flow records, `bytes_delivered` and DCQCN rate bits, the
//! delivered/dropped cell counts, the final simulated time, the peak queue
//! depth and the credit invariant. An engine change that claims to be a
//! pure event-count optimisation has to leave every line here alone.
//!
//! On a mismatch the panic message is the full recomputed table, ready to
//! paste — but re-recording is a `benchmark`-archetype decision (it means
//! simulated results moved), never part of a perf PR.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_routing::{default_strategy, RouteTable};
use sdt_sim::faults::FaultSchedule;
use sdt_sim::{run_trace, DcqcnConfig, Granularity, SimConfig, SimOutcome, Simulator};
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::fattree::fat_tree;
use sdt_topology::{Endpoint, HostId, Topology};
use sdt_workloads::apps::imb_alltoall;
use sdt_workloads::{poisson_flows, select_nodes, SizeDist};

const SEEDS: [u64; 5] = [1, 2, 3, 7, 2023];

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn outcome_word(o: SimOutcome) -> u64 {
    match o {
        SimOutcome::Completed => 0,
        SimOutcome::Deadlock => 1,
        SimOutcome::TimeLimit => 2,
    }
}

/// Everything observable of a finished [`Simulator`] run but the event count.
fn digest(sim: &Simulator, outcome: SimOutcome) -> u64 {
    let mut h = Fnv::new();
    h.word(outcome_word(outcome));
    for (id, r) in sim.flow_records().iter().enumerate() {
        h.word(r.src_host as u64);
        h.word(r.dst_host as u64);
        h.word(r.bytes);
        h.word(r.start);
        h.word(r.fct_ns.unwrap_or(u64::MAX));
        h.word(sim.flow_stats(id as u32).bytes_delivered);
        h.word(sim.flow_rate_bpns(id as u32).map_or(u64::MAX, f64::to_bits));
    }
    let st = sim.stats();
    h.word(st.cells_delivered);
    h.word(st.drops);
    h.word(st.sim_ns);
    h.word(sim.peak_queue_bytes());
    h.word(sim.credits_intact() as u64);
    h.0
}

fn fabric(topo: &Topology, cfg: SimConfig) -> Simulator {
    let routes = RouteTable::build_for_hosts(topo, default_strategy(topo).as_ref());
    Simulator::new(topo, routes, cfg)
}

fn fixed(bytes: f64) -> SizeDist {
    SizeDist::from_points("fixed", &[(bytes, 0.0), (bytes + 1.0, 1.0)])
}

/// Seeded Poisson raw flows on a fat-tree, run to the end.
fn poisson(k: u32, cfg: SimConfig, dist: &SizeDist, flows: usize, load: f64, seed: u64) -> u64 {
    let topo = fat_tree(k);
    let mut sim = fabric(&topo, SimConfig { seed, ..cfg });
    let line = sim.config().bytes_per_ns();
    for f in poisson_flows(dist, topo.num_hosts(), line, load, flows, seed) {
        sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
    }
    let out = sim.run();
    digest(&sim, out)
}

fn dcqcn(cfg: SimConfig) -> SimConfig {
    SimConfig {
        dcqcn: Some(DcqcnConfig::default()),
        ..cfg
    }
}

/// An IMB Alltoall replay on the paper's dragonfly, two ranks per host so
/// that sends share a NIC (and some pairs are host-local); the seed picks
/// the hosts.
fn alltoall(cfg: SimConfig, ranks: u32, bytes: u64, seed: u64) -> u64 {
    let topo = dragonfly(4, 9, 2, 2);
    let routes = RouteTable::build_for_hosts(&topo, default_strategy(&topo).as_ref());
    let nodes = select_nodes(&topo, ranks / 2, seed);
    let hosts: Vec<HostId> = (0..ranks as usize)
        .map(|r| nodes[r % nodes.len()])
        .collect();
    let r = run_trace(
        &topo,
        routes,
        SimConfig { seed, ..cfg },
        &imb_alltoall(ranks, bytes, 1),
        &hosts,
    );
    let mut h = Fnv::new();
    h.word(outcome_word(r.outcome));
    h.word(r.act_ns.unwrap_or(u64::MAX));
    h.word(r.cells_delivered);
    for (start, finish) in r.flow_times_ns {
        h.word(start);
        h.word(finish.unwrap_or(u64::MAX));
    }
    h.0
}

/// Two TCP connections per sender into host 0, DCQCN raw cross-traffic, and
/// a fabric link that flaps mid-run — with a NIC staging queue of `nic_cells`
/// packets, so several inject chains share (and block on) one NIC.
fn tcp_incast_raw_flap(nic_cells: u32, seed: u64) -> u64 {
    let topo = fat_tree(4);
    let mut sim = fabric(
        &topo,
        dcqcn(SimConfig {
            nic_queue_bytes: nic_cells * 1500,
            seed,
            max_sim_ns: 200_000_000,
            ..SimConfig::default()
        }),
    );
    let link = topo
        .links()
        .iter()
        .find_map(|l| match (l.a, l.b) {
            (Endpoint::Switch(a), Endpoint::Switch(b)) => Some((a, b)),
            _ => None,
        })
        .expect("a fat-tree has fabric links");
    let mut faults = FaultSchedule::new();
    faults.link_flap(link.0, link.1, 150_000, 250_000);
    sim.apply_fault_schedule(&faults);
    for src in 1..5u32 {
        sim.start_tcp_flow(HostId(src), HostId(0), 120_000);
        sim.start_tcp_flow(HostId(src), HostId(0), 90_000);
    }
    let line = sim.config().bytes_per_ns();
    for f in poisson_flows(&fixed(60_000.0), topo.num_hosts(), line, 0.9, 40, seed) {
        sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
    }
    let out = sim.run();
    digest(&sim, out)
}

/// A DCQCN run cut by the time limit while NIC backlogs are populated, then
/// resumed to the end.
fn resumed(seed: u64) -> u64 {
    let topo = fat_tree(4);
    let mut sim = fabric(
        &topo,
        dcqcn(SimConfig {
            seed,
            max_sim_ns: 400_000,
            ..SimConfig::default()
        }),
    );
    let line = sim.config().bytes_per_ns();
    for f in poisson_flows(&fixed(150_000.0), topo.num_hosts(), line, 0.8, 60, seed) {
        sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
    }
    assert_eq!(sim.run(), SimOutcome::TimeLimit);
    sim.set_time_limit(0);
    let out = sim.run();
    digest(&sim, out)
}

fn grid() -> Vec<(String, u64)> {
    let base = SimConfig::default;
    let mut rows = Vec::new();
    for seed in SEEDS {
        let mut row = |name: &str, d: u64| rows.push((format!("{name}/seed{seed}"), d));
        row(
            "dcqcn-k4-fixed150k",
            poisson(4, dcqcn(base()), &fixed(150_000.0), 500, 0.8, seed),
        );
        row(
            "dcqcn-k4-hadoop",
            poisson(4, dcqcn(base()), &SizeDist::hadoop(), 400, 0.8, seed),
        );
        row(
            "pfc-k8-hadoop",
            poisson(8, base(), &SizeDist::hadoop(), 600, 0.3, seed),
        );
        row(
            "lossy-dcqcn-k4",
            poisson(
                4,
                dcqcn(SimConfig {
                    lossless: false,
                    queue_cap_bytes: 45_000,
                    ..base()
                }),
                &fixed(90_000.0),
                100,
                0.9,
                seed,
            ),
        );
        row(
            "flit-dcqcn-nic1k-k4",
            poisson(
                4,
                dcqcn(SimConfig {
                    granularity: Granularity::Flit,
                    nic_queue_bytes: 1024,
                    ..base()
                }),
                &fixed(12_000.0),
                80,
                0.8,
                seed,
            ),
        );
        row(
            "mpi-alltoall-flit-dragonfly",
            alltoall(SimConfig::simulator_flit(), 8, 16_384, seed),
        );
        row(
            "mpi-alltoall-dcqcn-dragonfly",
            alltoall(dcqcn(base()), 16, 65_536, seed),
        );
        for nic_cells in [1, 2, 8] {
            row(
                &format!("tcp-incast-raw-flap-nic{nic_cells}"),
                tcp_incast_raw_flap(nic_cells, seed),
            );
        }
    }
    rows.push(("dcqcn-k4-resumed/seed1".to_string(), resumed(1)));
    rows
}

/// Recorded at the parent commit (see the file header).
const GOLDEN: &[(&str, u64)] = &[
    ("dcqcn-k4-fixed150k/seed1", 0x39cee23b3aacb22c),
    ("dcqcn-k4-hadoop/seed1", 0x24b17e11b41f6cb0),
    ("pfc-k8-hadoop/seed1", 0xe3446d66f2b83ef8),
    ("lossy-dcqcn-k4/seed1", 0xd5afdcca43d965d9),
    ("flit-dcqcn-nic1k-k4/seed1", 0xbfc64569642ab1d9),
    ("mpi-alltoall-flit-dragonfly/seed1", 0x5fac25fc7422a9ae),
    ("mpi-alltoall-dcqcn-dragonfly/seed1", 0x7dfdb045792b8de8),
    ("tcp-incast-raw-flap-nic1/seed1", 0x2b7e3ce29cfc6c10),
    ("tcp-incast-raw-flap-nic2/seed1", 0x79757e23187b29d1),
    ("tcp-incast-raw-flap-nic8/seed1", 0xb20d87670352dbde),
    ("dcqcn-k4-fixed150k/seed2", 0xe6d8e58222483d04),
    ("dcqcn-k4-hadoop/seed2", 0x30635df41b22a296),
    ("pfc-k8-hadoop/seed2", 0x863860f6cee671fd),
    ("lossy-dcqcn-k4/seed2", 0x237bc35a0753d745),
    ("flit-dcqcn-nic1k-k4/seed2", 0xd20cdea9ee272828),
    ("mpi-alltoall-flit-dragonfly/seed2", 0xd85bd7508321e549),
    ("mpi-alltoall-dcqcn-dragonfly/seed2", 0xf23d99ef36fd6f64),
    ("tcp-incast-raw-flap-nic1/seed2", 0xc9e95f7228944688),
    ("tcp-incast-raw-flap-nic2/seed2", 0x124e0d74f8d67521),
    ("tcp-incast-raw-flap-nic8/seed2", 0xf58f611d757257b5),
    ("dcqcn-k4-fixed150k/seed3", 0x06811c383c09202e),
    ("dcqcn-k4-hadoop/seed3", 0x08baa8ef7b3c3078),
    ("pfc-k8-hadoop/seed3", 0xb6ee79a2f07ea31f),
    ("lossy-dcqcn-k4/seed3", 0x9fa32e6a59f73200),
    ("flit-dcqcn-nic1k-k4/seed3", 0xb91a7e049991dd52),
    ("mpi-alltoall-flit-dragonfly/seed3", 0x6a20d3464a0579df),
    ("mpi-alltoall-dcqcn-dragonfly/seed3", 0x06b5806c5296f95e),
    ("tcp-incast-raw-flap-nic1/seed3", 0x4c39cd444b68a349),
    ("tcp-incast-raw-flap-nic2/seed3", 0x3dd45326796bcefb),
    ("tcp-incast-raw-flap-nic8/seed3", 0xc28fb6cf5ffd57d1),
    ("dcqcn-k4-fixed150k/seed7", 0xe9d14cda57ff07d6),
    ("dcqcn-k4-hadoop/seed7", 0xb3e074a429d148ce),
    ("pfc-k8-hadoop/seed7", 0xfa0ef501f28196eb),
    ("lossy-dcqcn-k4/seed7", 0xca47df0166678567),
    ("flit-dcqcn-nic1k-k4/seed7", 0xa0606bd6357f9040),
    ("mpi-alltoall-flit-dragonfly/seed7", 0x72201e895ac6f0b3),
    ("mpi-alltoall-dcqcn-dragonfly/seed7", 0x0dee4778525b1af6),
    ("tcp-incast-raw-flap-nic1/seed7", 0x5b1d3c2b988e3271),
    ("tcp-incast-raw-flap-nic2/seed7", 0x7db19e9d6eceda6d),
    ("tcp-incast-raw-flap-nic8/seed7", 0x7ad6553a1fe0476d),
    ("dcqcn-k4-fixed150k/seed2023", 0xb923eb0fc5f87538),
    ("dcqcn-k4-hadoop/seed2023", 0xbc2d051f4b4aec52),
    ("pfc-k8-hadoop/seed2023", 0x4b41bdbaf4799597),
    ("lossy-dcqcn-k4/seed2023", 0xaf25f16419d625ba),
    ("flit-dcqcn-nic1k-k4/seed2023", 0xadfb86e99252abb1),
    ("mpi-alltoall-flit-dragonfly/seed2023", 0x0c31335bc119084b),
    ("mpi-alltoall-dcqcn-dragonfly/seed2023", 0xc79480385130f873),
    ("tcp-incast-raw-flap-nic1/seed2023", 0xdb0d96efa80443a0),
    ("tcp-incast-raw-flap-nic2/seed2023", 0xa76fadd466e26bd7),
    ("tcp-incast-raw-flap-nic8/seed2023", 0xb8b233ddb6d04721),
    ("dcqcn-k4-resumed/seed1", 0xf023b505a9e55305),
];

#[test]
fn simulated_results_match_the_recorded_engine() {
    let got = grid();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((n, d), (gn, gd))| n == gn && d == gd);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        panic!("engine digests differ from the recorded table; recomputed:\n{table}");
    }
}
