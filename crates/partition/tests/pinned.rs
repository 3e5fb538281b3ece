//! Pinned assignments: FNV-1a digests of `partition_topology(..).assignment()`
//! recorded at commit e636729 (the lazy-deletion-heap `fm_pass`, the
//! `Vec<Vec<_>>` graph). A partitioner change that is pure speed leaves every
//! digest where it is; one that moves an assignment moves every flow table
//! downstream and is a different kind of change. Each test checks all its
//! cases before it fails and prints every digest it got, so a deliberate
//! quality change re-records from one run.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_partition::{partition, partition_topology, Graph, PartitionConfig};
use sdt_topology::{dragonfly::dragonfly, fattree::fat_tree, meshtorus::torus, Topology};

/// FNV-1a over the assignment's little-endian words.
fn digest(assignment: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in assignment.iter().flat_map(|a| a.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Mismatches of one test, reported together.
#[derive(Default)]
struct Moved(Vec<String>);

impl Moved {
    fn pin(&mut self, case: &str, assignment: &[u32], want: u64) {
        let got = digest(assignment);
        if got != want {
            self.0
                .push(format!("{case}: digest {got:#018x}, pinned {want:#018x}"));
        }
    }

    fn assert_none(self) {
        assert!(
            self.0.is_empty(),
            "assignments moved:\n{}",
            self.0.join("\n")
        );
    }
}

const PARTS: [u32; 4] = [2, 3, 4, 19];

fn pin_topology(moved: &mut Moved, name: &str, topo: &Topology, wants: [u64; 4]) {
    for (parts, want) in PARTS.into_iter().zip(wants) {
        let p = partition_topology(topo, parts, &PartitionConfig::default());
        moved.pin(&format!("{name} / {parts} parts"), p.assignment(), want);
    }
}

#[test]
fn fat_tree_assignments_are_the_parents() {
    const PINS: [(u32, [u64; 4]); 3] = [
        (
            4,
            [
                0x6b73222af817b504,
                0x458e9c89e655c4c4,
                0xd2b1eaafa707eb05,
                0xe27d1c3858839bd4,
            ],
        ),
        (
            8,
            [
                0xd29a3485dace7ff4,
                0xd9800038ea3ba0f4,
                0x9405468a1aafc696,
                0x662809391dc88c64,
            ],
        ),
        (
            16,
            [
                0xb9ca34ed85b07c35,
                0x95db37495c78cd57,
                0x70082b88cfa030e5,
                0x883e11a8934ad904,
            ],
        ),
    ];
    let mut moved = Moved::default();
    for (k, wants) in PINS {
        pin_topology(&mut moved, &format!("fat-tree k={k}"), &fat_tree(k), wants);
    }
    moved.assert_none();
}

#[test]
fn torus_and_dragonfly_assignments_are_the_parents() {
    let cases: [(&str, Topology, [u64; 4]); 4] = [
        (
            "torus 4x4",
            torus(&[4, 4]),
            [
                0xb52b97ec549d79e5,
                0x204152f4faa89116,
                0x6c45ed3e428b7025,
                0x2135120b48416d25,
            ],
        ),
        (
            "torus 8x8",
            torus(&[8, 8]),
            [
                0xef0edcf4b96d6e25,
                0x7edc7e438db7f725,
                0x23c73060aaa4c825,
                0x4818e8225a8e82be,
            ],
        ),
        (
            "torus 4x4x4",
            torus(&[4, 4, 4]),
            [
                0x4889d42f92ab5c25,
                0xed496750ae8a1f34,
                0x50aa75acb5751725,
                0x19544ca2c8c61468,
            ],
        ),
        (
            "dragonfly 4/9/2/2",
            dragonfly(4, 9, 2, 2),
            [
                0x5e5c98b818a454c5,
                0x8f8f87c586bd1dc5,
                0xd829defeb41e5334,
                0x39311a8b721d6f01,
            ],
        ),
    ];
    let mut moved = Moved::default();
    for (name, topo, wants) in cases {
        pin_topology(&mut moved, name, &topo, wants);
    }
    moved.assert_none();
}

/// A seeded random weighted graph (xorshift; no `rand`, so the graph is
/// this file's and cannot move under a generator change): 150 vertices of
/// weight 1..=8, a ring for connectivity plus 450 chords of weight 1..=5.
fn random_graph() -> Graph {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let n = 150u32;
    let mut edges: Vec<(u32, u32, u64)> = (0..n).map(|u| (u, (u + 1) % n, 1)).collect();
    while edges.len() < 600 {
        let (u, v) = (next(u64::from(n)) as u32, next(u64::from(n)) as u32);
        if u != v {
            edges.push((u, v, 1 + next(5)));
        }
    }
    let vwgt = (0..n).map(|_| 1 + next(8)).collect();
    Graph::from_edges(n, &edges, vwgt)
}

#[test]
fn random_graph_assignments_are_the_parents_at_three_seeds() {
    const PINS: [(u64, f64, [u64; 3]); 3] = [
        (
            42,
            0.10,
            [0x31289e3cc53fac54, 0xcb5ad74722f83833, 0x3f97f810d9c2d6e3],
        ),
        (
            7,
            0.03,
            [0x47b1ed35777d4525, 0xb774c76503ef5cf7, 0x08ec1980a4a67203],
        ),
        (
            0xdead_beef,
            0.25,
            [0xb025835607fd7335, 0xd77f8928455395c4, 0xd7c55b2cf1601202],
        ),
    ];
    let g = random_graph();
    let mut moved = Moved::default();
    for (seed, epsilon, wants) in PINS {
        let cfg = PartitionConfig {
            seed,
            epsilon,
            ..PartitionConfig::default()
        };
        for (parts, want) in [2, 5, 11].into_iter().zip(wants) {
            let case = format!("random graph, seed {seed}, eps {epsilon} / {parts} parts");
            moved.pin(&case, partition(&g, parts, &cfg).assignment(), want);
        }
    }
    moved.assert_none();
}

/// The defect the pins above preserve (DESIGN §5 "Known deviations",
/// ROADMAP item 2): `kway_refine` hands every pair of parts `[ideal, ideal]`
/// targets whatever the pair's total load, so FM's `eligible` has no lower
/// bound and a small part can be drained. On fat-tree k=16 over 19 physical
/// switches the winning assignment leaves switch 0 with no logical switch
/// at all. Fixing it moves every table and `benchmark/expected.json`.
#[test]
#[ignore = "known defect: kway_refine drains part 0 on fat-tree k=16 / 19 parts"]
fn kway_refine_drains_no_part_empty() {
    let topo = fat_tree(16);
    let p = partition_topology(&topo, 19, &PartitionConfig::default());
    let (adj, vwgt) = topo.switch_graph();
    let loads = p.part_vertex_loads(&Graph::from_adj(adj, vwgt));
    assert!(
        loads.iter().all(|&l| l > 0),
        "a part is empty: loads {loads:?}"
    );
}
