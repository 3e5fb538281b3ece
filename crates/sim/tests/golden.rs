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
//! pure event-count optimisation has to leave every line here alone. The
//! second table, [`WORK`], pins the events themselves, by kind; the third,
//! [`WORK_A25C5E1`], holds them as they were before any event was elided,
//! and the elisions may only undercut it in `TryTx` and `Credit` events.
//!
//! On a mismatch the panic message is the full recomputed table, ready to
//! paste — but re-recording is a `benchmark`-archetype decision (it means
//! simulated results moved), never part of a perf PR.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_routing::{default_strategy, RouteTable};
use sdt_sim::faults::FaultSchedule;
use sdt_sim::{run_trace, DcqcnConfig, EventKind, Granularity, SimConfig, SimOutcome, Simulator};
use sdt_topology::dragonfly::dragonfly;
use sdt_topology::fattree::fat_tree;
use sdt_topology::{Endpoint, HostId, Topology};
use sdt_workloads::apps::imb_alltoall;
use sdt_workloads::{poisson_flows, select_nodes, SizeDist};
use std::sync::OnceLock;

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

/// The dispatch work of one run: `SimStats::events_by_kind`, then
/// `SimStats::try_tx_noops`.
type Work = ([u64; EventKind::ALL.len()], u64);

/// Everything observable of a finished [`Simulator`] run but the event
/// count, and the run's work.
fn digest(sim: &Simulator, outcome: SimOutcome) -> (u64, Work) {
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
    (h.0, (st.events_by_kind, st.try_tx_noops))
}

fn fabric(topo: &Topology, cfg: SimConfig) -> Simulator {
    let routes = RouteTable::build_for_hosts(topo, default_strategy(topo).as_ref());
    Simulator::new(topo, routes, cfg)
}

fn fixed(bytes: f64) -> SizeDist {
    SizeDist::from_points("fixed", &[(bytes, 0.0), (bytes + 1.0, 1.0)])
}

/// Seeded Poisson raw flows on a fat-tree, run to the end.
fn poisson(
    k: u32,
    cfg: SimConfig,
    dist: &SizeDist,
    flows: usize,
    load: f64,
    seed: u64,
) -> (u64, Work) {
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
fn alltoall(cfg: SimConfig, ranks: u32, bytes: u64, seed: u64) -> (u64, Work) {
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
    (h.0, (r.events_by_kind, r.try_tx_noops))
}

/// Two TCP connections per sender into host 0, DCQCN raw cross-traffic, and
/// a fabric link that flaps mid-run — with a NIC staging queue of `nic_cells`
/// packets, so several inject chains share (and block on) one NIC.
fn tcp_incast_raw_flap(nic_cells: u32, seed: u64) -> (u64, Work) {
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
fn resumed(seed: u64) -> (u64, Work) {
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

/// Every scenario's name, digest and work, computed once per test binary.
fn grid() -> &'static [(String, u64, Work)] {
    static GRID: OnceLock<Vec<(String, u64, Work)>> = OnceLock::new();
    GRID.get_or_init(compute_grid)
}

fn compute_grid() -> Vec<(String, u64, Work)> {
    let base = SimConfig::default;
    let mut rows = Vec::new();
    for seed in SEEDS {
        let mut row = |name: &str, (d, w): (u64, Work)| {
            rows.push((format!("{name}/seed{seed}"), d, w))
        };
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
    let (d, w) = resumed(1);
    rows.push(("dcqcn-k4-resumed/seed1".to_string(), d, w));
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
            .all(|((n, d, _), (gn, gd))| n == gn && d == gd);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, d, _)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        panic!("engine digests differ from the recorded table; recomputed:\n{table}");
    }
}

/// Recorded on the child of 19a81ce, the engine that stopped queueing
/// `TryTx` for a busy channel and `Credit` events a busy channel cannot read
/// yet: per scenario, `events_by_kind` (in `EventKind::ALL` order) and
/// `try_tx_noops`.
const WORK: &[(&str, [u64; EventKind::ALL.len()], u64)] = &[
    ("dcqcn-k4-fixed150k/seed1", [478716, 276800, 116368, 72661, 47031, 10029, 23250, 0, 10, 0, 0], 201916),
    ("dcqcn-k4-hadoop/seed1", [635760, 370754, 136744, 66527, 51303, 2608, 3649, 0, 24, 0, 0], 265006),
    ("pfc-k8-hadoop/seed1", [877129, 496262, 179245, 84542, 50332, 0, 0, 0, 14, 0, 0], 380867),
    ("lossy-dcqcn-k4/seed1", [41356, 27625, 0, 6204, 4514, 44, 350, 0, 1, 0, 0], 13731),
    ("flit-dcqcn-nic1k-k4/seed1", [149652, 86480, 86480, 15043, 9363, 13, 85, 0, 1, 0, 0], 63172),
    ("mpi-alltoall-flit-dragonfly/seed1", [105531, 57344, 57344, 12296, 1446, 0, 0, 8, 1, 0, 8], 48187),
    ("mpi-alltoall-dcqcn-dragonfly/seed1", [76415, 44000, 3490, 9924, 4146, 67, 349, 16, 2, 0, 16], 32415),
    ("tcp-incast-raw-flap-nic1/seed1", [19678, 11980, 1706, 2604, 1548, 27, 85, 661, 1, 2, 0], 7698),
    ("tcp-incast-raw-flap-nic2/seed1", [18902, 11552, 1686, 2585, 1567, 29, 87, 580, 1, 2, 0], 7350),
    ("tcp-incast-raw-flap-nic8/seed1", [19085, 11573, 1815, 2566, 1422, 30, 83, 580, 1, 2, 0], 7512),
    ("dcqcn-k4-fixed150k/seed2", [473915, 277200, 111763, 75626, 46817, 9076, 26220, 0, 11, 0, 0], 196715),
    ("dcqcn-k4-hadoop/seed2", [368933, 208340, 36364, 36833, 23548, 929, 1989, 0, 16, 0, 0], 160593),
    ("pfc-k8-hadoop/seed2", [594840, 343136, 75733, 57480, 26934, 0, 0, 0, 11, 0, 0], 251704),
    ("lossy-dcqcn-k4/seed2", [35361, 25277, 0, 6142, 4306, 47, 306, 0, 1, 0, 0], 10084),
    ("flit-dcqcn-nic1k-k4/seed2", [145074, 86104, 86104, 15040, 8175, 20, 82, 0, 1, 0, 0], 58970),
    ("mpi-alltoall-flit-dragonfly/seed2", [99351, 53248, 53248, 12296, 1876, 0, 0, 8, 1, 0, 8], 46103),
    ("mpi-alltoall-dcqcn-dragonfly/seed2", [76669, 44000, 3527, 9914, 3817, 48, 344, 16, 2, 0, 16], 32669),
    ("tcp-incast-raw-flap-nic1/seed2", [18731, 11316, 2162, 2516, 1279, 45, 69, 580, 1, 2, 0], 7415),
    ("tcp-incast-raw-flap-nic2/seed2", [18834, 11316, 2143, 2499, 1180, 44, 69, 580, 1, 2, 0], 7518),
    ("tcp-incast-raw-flap-nic8/seed2", [18687, 11320, 2070, 2481, 915, 40, 67, 580, 1, 2, 0], 7367),
    ("dcqcn-k4-fixed150k/seed3", [453700, 271400, 105831, 68416, 46821, 6988, 19026, 0, 9, 0, 0], 182300),
    ("dcqcn-k4-hadoop/seed3", [283329, 169352, 27966, 36073, 23794, 816, 2182, 0, 15, 0, 0], 113977),
    ("pfc-k8-hadoop/seed3", [449928, 249322, 95121, 46799, 28140, 0, 0, 0, 12, 0, 0], 200606),
    ("lossy-dcqcn-k4/seed3", [37098, 25555, 0, 6155, 3965, 42, 315, 0, 1, 0, 0], 11543),
    ("flit-dcqcn-nic1k-k4/seed3", [145439, 83096, 83096, 15041, 6948, 11, 81, 0, 1, 0, 0], 62343),
    ("mpi-alltoall-flit-dragonfly/seed3", [101529, 55296, 55296, 12296, 1786, 0, 0, 8, 1, 0, 8], 46233),
    ("mpi-alltoall-dcqcn-dragonfly/seed3", [77524, 44704, 3224, 9922, 4291, 70, 355, 16, 3, 0, 16], 32820),
    ("tcp-incast-raw-flap-nic1/seed3", [18810, 11179, 1818, 2508, 1130, 27, 64, 580, 1, 2, 0], 7631),
    ("tcp-incast-raw-flap-nic2/seed3", [18907, 11193, 1734, 2514, 1095, 28, 64, 580, 1, 2, 0], 7714),
    ("tcp-incast-raw-flap-nic8/seed3", [18925, 11211, 1692, 2487, 826, 28, 64, 580, 1, 2, 0], 7714),
    ("dcqcn-k4-fixed150k/seed7", [452545, 270200, 113548, 72347, 47393, 9757, 22928, 0, 10, 0, 0], 182345),
    ("dcqcn-k4-hadoop/seed7", [524237, 294278, 66170, 58794, 49978, 1199, 3754, 0, 22, 0, 0], 229959),
    ("pfc-k8-hadoop/seed7", [981546, 547598, 154058, 94399, 71084, 0, 0, 0, 16, 0, 0], 433948),
    ("lossy-dcqcn-k4/seed7", [34879, 25040, 0, 6187, 4439, 40, 340, 0, 1, 0, 0], 9839),
    ("flit-dcqcn-nic1k-k4/seed7", [137697, 82720, 82720, 15041, 8793, 10, 85, 0, 1, 0, 0], 54977),
    ("mpi-alltoall-flit-dragonfly/seed7", [102123, 55296, 55296, 12296, 1717, 0, 0, 8, 1, 0, 8], 46827),
    ("mpi-alltoall-dcqcn-dragonfly/seed7", [72609, 42240, 3311, 9926, 4248, 36, 349, 16, 2, 0, 16], 30369),
    ("tcp-incast-raw-flap-nic1/seed7", [18568, 11127, 1918, 2540, 1378, 33, 74, 580, 1, 2, 0], 7441),
    ("tcp-incast-raw-flap-nic2/seed7", [18639, 11189, 2071, 2529, 1294, 34, 75, 580, 1, 2, 0], 7450),
    ("tcp-incast-raw-flap-nic8/seed7", [18511, 11210, 2030, 2511, 1057, 29, 74, 580, 1, 2, 0], 7301),
    ("dcqcn-k4-fixed150k/seed2023", [467659, 276000, 109182, 75674, 46901, 9931, 26270, 0, 11, 0, 0], 191659),
    ("dcqcn-k4-hadoop/seed2023", [565717, 323774, 84060, 65720, 54408, 2046, 4081, 0, 22, 0, 0], 241943),
    ("pfc-k8-hadoop/seed2023", [1036861, 567334, 231736, 99802, 74160, 0, 0, 0, 18, 0, 0], 469527),
    ("lossy-dcqcn-k4/seed2023", [37437, 25759, 0, 6159, 3588, 46, 325, 0, 1, 0, 0], 11678),
    ("flit-dcqcn-nic1k-k4/seed2023", [144714, 83472, 83472, 15040, 7497, 9, 81, 0, 1, 0, 0], 61242),
    ("mpi-alltoall-flit-dragonfly/seed2023", [106516, 57344, 57344, 12296, 1740, 0, 0, 8, 1, 0, 8], 49172),
    ("mpi-alltoall-dcqcn-dragonfly/seed2023", [73658, 42944, 3499, 9918, 4124, 43, 349, 16, 2, 0, 16], 30714),
    ("tcp-incast-raw-flap-nic1/seed2023", [17804, 10618, 1572, 2478, 1003, 20, 64, 580, 1, 2, 0], 7186),
    ("tcp-incast-raw-flap-nic2/seed2023", [17895, 10620, 1577, 2480, 978, 20, 64, 580, 1, 2, 0], 7275),
    ("tcp-incast-raw-flap-nic8/seed2023", [17924, 10624, 1615, 2458, 812, 22, 63, 580, 1, 2, 0], 7300),
    ("dcqcn-k4-resumed/seed1", [60602, 34800, 8204, 6422, 4735, 294, 521, 0, 4, 0, 0], 25802),
];

/// Recorded at commit a25c5e1, the parent of the timing-wheel event queue:
/// per scenario, `events_by_kind` (in `EventKind::ALL` order) and
/// `try_tx_noops`.
const WORK_A25C5E1: &[(&str, [u64; EventKind::ALL.len()], u64)] = &[
    ("dcqcn-k4-fixed150k/seed1", [830400, 276800, 276800, 72661, 47031, 10029, 23250, 0, 10, 0, 0], 553600),
    ("dcqcn-k4-hadoop/seed1", [1112262, 370754, 370754, 66527, 51303, 2608, 3649, 0, 24, 0, 0], 741508),
    ("pfc-k8-hadoop/seed1", [1488786, 496262, 496262, 84542, 50332, 0, 0, 0, 14, 0, 0], 992524),
    ("lossy-dcqcn-k4/seed1", [55250, 27625, 0, 6204, 4514, 44, 350, 0, 1, 0, 0], 27625),
    ("flit-dcqcn-nic1k-k4/seed1", [259440, 86480, 86480, 15043, 9363, 13, 85, 0, 1, 0, 0], 172960),
    ("mpi-alltoall-flit-dragonfly/seed1", [172032, 57344, 57344, 12296, 1446, 0, 0, 8, 1, 0, 8], 114688),
    ("mpi-alltoall-dcqcn-dragonfly/seed1", [132000, 44000, 44000, 9924, 4146, 67, 349, 16, 2, 0, 16], 88000),
    ("tcp-incast-raw-flap-nic1/seed1", [35957, 11980, 11980, 2604, 1548, 27, 85, 661, 1, 2, 0], 23977),
    ("tcp-incast-raw-flap-nic2/seed1", [34704, 11552, 11552, 2585, 1567, 29, 87, 580, 1, 2, 0], 23152),
    ("tcp-incast-raw-flap-nic8/seed1", [34771, 11573, 11573, 2566, 1422, 30, 83, 580, 1, 2, 0], 23198),
    ("dcqcn-k4-fixed150k/seed2", [831600, 277200, 277200, 75626, 46817, 9076, 26220, 0, 11, 0, 0], 554400),
    ("dcqcn-k4-hadoop/seed2", [625020, 208340, 208340, 36833, 23548, 929, 1989, 0, 16, 0, 0], 416680),
    ("pfc-k8-hadoop/seed2", [1029408, 343136, 343136, 57480, 26934, 0, 0, 0, 11, 0, 0], 686272),
    ("lossy-dcqcn-k4/seed2", [50554, 25277, 0, 6142, 4306, 47, 306, 0, 1, 0, 0], 25277),
    ("flit-dcqcn-nic1k-k4/seed2", [258312, 86104, 86104, 15040, 8175, 20, 82, 0, 1, 0, 0], 172208),
    ("mpi-alltoall-flit-dragonfly/seed2", [159744, 53248, 53248, 12296, 1876, 0, 0, 8, 1, 0, 8], 106496),
    ("mpi-alltoall-dcqcn-dragonfly/seed2", [132000, 44000, 44000, 9914, 3817, 48, 344, 16, 2, 0, 16], 88000),
    ("tcp-incast-raw-flap-nic1/seed2", [33972, 11316, 11316, 2516, 1279, 45, 69, 580, 1, 2, 0], 22656),
    ("tcp-incast-raw-flap-nic2/seed2", [33975, 11316, 11316, 2499, 1180, 44, 69, 580, 1, 2, 0], 22659),
    ("tcp-incast-raw-flap-nic8/seed2", [33992, 11320, 11320, 2481, 915, 40, 67, 580, 1, 2, 0], 22672),
    ("dcqcn-k4-fixed150k/seed3", [814200, 271400, 271400, 68416, 46821, 6988, 19026, 0, 9, 0, 0], 542800),
    ("dcqcn-k4-hadoop/seed3", [508056, 169352, 169352, 36073, 23794, 816, 2182, 0, 15, 0, 0], 338704),
    ("pfc-k8-hadoop/seed3", [747966, 249322, 249322, 46799, 28140, 0, 0, 0, 12, 0, 0], 498644),
    ("lossy-dcqcn-k4/seed3", [51110, 25555, 0, 6155, 3965, 42, 315, 0, 1, 0, 0], 25555),
    ("flit-dcqcn-nic1k-k4/seed3", [249288, 83096, 83096, 15041, 6948, 11, 81, 0, 1, 0, 0], 166192),
    ("mpi-alltoall-flit-dragonfly/seed3", [165888, 55296, 55296, 12296, 1786, 0, 0, 8, 1, 0, 8], 110592),
    ("mpi-alltoall-dcqcn-dragonfly/seed3", [134112, 44704, 44704, 9922, 4291, 70, 355, 16, 3, 0, 16], 89408),
    ("tcp-incast-raw-flap-nic1/seed3", [33590, 11179, 11179, 2508, 1130, 27, 64, 580, 1, 2, 0], 22411),
    ("tcp-incast-raw-flap-nic2/seed3", [33626, 11193, 11193, 2514, 1095, 28, 64, 580, 1, 2, 0], 22433),
    ("tcp-incast-raw-flap-nic8/seed3", [33642, 11211, 11211, 2487, 826, 28, 64, 580, 1, 2, 0], 22431),
    ("dcqcn-k4-fixed150k/seed7", [810600, 270200, 270200, 72347, 47393, 9757, 22928, 0, 10, 0, 0], 540400),
    ("dcqcn-k4-hadoop/seed7", [882834, 294278, 294278, 58794, 49978, 1199, 3754, 0, 22, 0, 0], 588556),
    ("pfc-k8-hadoop/seed7", [1642794, 547598, 547598, 94399, 71084, 0, 0, 0, 16, 0, 0], 1095196),
    ("lossy-dcqcn-k4/seed7", [50080, 25040, 0, 6187, 4439, 40, 340, 0, 1, 0, 0], 25040),
    ("flit-dcqcn-nic1k-k4/seed7", [248160, 82720, 82720, 15041, 8793, 10, 85, 0, 1, 0, 0], 165440),
    ("mpi-alltoall-flit-dragonfly/seed7", [165888, 55296, 55296, 12296, 1717, 0, 0, 8, 1, 0, 8], 110592),
    ("mpi-alltoall-dcqcn-dragonfly/seed7", [126720, 42240, 42240, 9926, 4248, 36, 349, 16, 2, 0, 16], 84480),
    ("tcp-incast-raw-flap-nic1/seed7", [33463, 11127, 11127, 2540, 1378, 33, 74, 580, 1, 2, 0], 22336),
    ("tcp-incast-raw-flap-nic2/seed7", [33650, 11189, 11189, 2529, 1294, 34, 75, 580, 1, 2, 0], 22461),
    ("tcp-incast-raw-flap-nic8/seed7", [33687, 11210, 11210, 2511, 1057, 29, 74, 580, 1, 2, 0], 22477),
    ("dcqcn-k4-fixed150k/seed2023", [828000, 276000, 276000, 75674, 46901, 9931, 26270, 0, 11, 0, 0], 552000),
    ("dcqcn-k4-hadoop/seed2023", [971322, 323774, 323774, 65720, 54408, 2046, 4081, 0, 22, 0, 0], 647548),
    ("pfc-k8-hadoop/seed2023", [1702002, 567334, 567334, 99802, 74160, 0, 0, 0, 18, 0, 0], 1134668),
    ("lossy-dcqcn-k4/seed2023", [51518, 25759, 0, 6159, 3588, 46, 325, 0, 1, 0, 0], 25759),
    ("flit-dcqcn-nic1k-k4/seed2023", [250416, 83472, 83472, 15040, 7497, 9, 81, 0, 1, 0, 0], 166944),
    ("mpi-alltoall-flit-dragonfly/seed2023", [172032, 57344, 57344, 12296, 1740, 0, 0, 8, 1, 0, 8], 114688),
    ("mpi-alltoall-dcqcn-dragonfly/seed2023", [128832, 42944, 42944, 9918, 4124, 43, 349, 16, 2, 0, 16], 85888),
    ("tcp-incast-raw-flap-nic1/seed2023", [31926, 10618, 10618, 2478, 1003, 20, 64, 580, 1, 2, 0], 21308),
    ("tcp-incast-raw-flap-nic2/seed2023", [31932, 10620, 10620, 2480, 978, 20, 64, 580, 1, 2, 0], 21312),
    ("tcp-incast-raw-flap-nic8/seed2023", [31954, 10624, 10624, 2458, 812, 22, 63, 580, 1, 2, 0], 21330),
    ("dcqcn-k4-resumed/seed1", [104400, 34800, 34800, 6422, 4735, 294, 521, 0, 4, 0, 0], 69600),
];

/// Pins the work, not the results: how many events of each kind every
/// golden scenario dispatches, and how many `TryTx` found nothing to send.
/// A change to the event queue or the dispatcher alone leaves every count
/// where it is; a change that drops redundant events (an elision) moves
/// these and must leave [`GOLDEN`] alone. Unlike the digests, re-recording
/// this table is not a fidelity decision — but say which counts moved and
/// why.
#[test]
fn dispatch_work_matches_the_recorded_engine() {
    let got = grid();
    let same = got.len() == WORK.len()
        && got
            .iter()
            .zip(WORK)
            .all(|((n, _, (k, t)), (wn, wk, wt))| n == wn && k == wk && t == wt);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, _, (k, t))| format!("    (\"{n}\", {k:?}, {t}),\n"))
            .collect();
        panic!("dispatch work differs from the recorded table; recomputed:\n{table}");
    }
}

/// What the elisions of unobservable events may do to the work of
/// [`WORK_A25C5E1`], scenario by scenario: drop `TryTx` events that find
/// their channel still serializing and `Credit` events granted on the spot,
/// and nothing else. Every other kind is dispatched as often, and every
/// transmit (`TryTx` that sent a cell) still happens.
#[test]
fn dispatch_work_only_drops_unobservable_events() {
    let (try_tx, credit) = (EventKind::TryTx as usize, EventKind::Credit as usize);
    let got = grid();
    assert_eq!(got.len(), WORK_A25C5E1.len());
    for ((n, _, (k, t)), (pn, pk, pt)) in got.iter().zip(WORK_A25C5E1) {
        assert_eq!(n, pn);
        for i in (0..k.len()).filter(|&i| i != try_tx && i != credit) {
            assert_eq!(k[i], pk[i], "{n}: {} events", EventKind::ALL[i].name());
        }
        assert_eq!(k[try_tx] - t, pk[try_tx] - pt, "{n}: transmits");
        let (tx, ptx, cr, pcr) = (k[try_tx], pk[try_tx], k[credit], pk[credit]);
        assert!(tx <= ptx, "{n}: try_tx {tx} > {ptx}");
        assert!(cr <= pcr, "{n}: credit {cr} > {pcr}");
        assert!(t <= pt, "{n}: try_tx_noops {t} > {pt}");
    }
}
