//! Multilevel bisection and recursive k-way partitioning.

use crate::fm::{cut_weight, fm_pass, FmScratch};
use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Stop coarsening below this many vertices.
const COARSEN_TO: usize = 12;
/// Initial-bisection seeds tried on the coarsest graph.
const INIT_TRIES: usize = 12;
/// Whole-partition restarts with derived seeds; the best result by (cut,
/// max part load) wins. Raises quality on irregular graphs like Dragonfly
/// at small k.
const GLOBAL_TRIES: u64 = 4;

/// Tuning knobs for the partitioner.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Allowed relative imbalance per side (METIS-style ubfactor).
    pub epsilon: f64,
    /// RNG seed for matching order and growing seeds.
    pub seed: u64,
    /// FM refinement passes per uncoarsening level.
    pub fm_passes: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { epsilon: 0.10, seed: 42, fm_passes: 8 }
    }
}

/// Result of a k-way partition: `assignment[v]` is the part (`0..k`) of
/// vertex `v`.
#[derive(Clone, Debug)]
pub struct Partitioning {
    assignment: Vec<u32>,
    k: u32,
}

impl Partitioning {
    /// Per-vertex part assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of parts.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of cut edges (weight 1 each edge counts its weight).
    pub fn cut_edges(&self, g: &Graph) -> u64 {
        let mut cut = 0;
        for u in 0..g.len() as u32 {
            for &(v, w) in g.neighbors(u) {
                if v > u && self.assignment[u as usize] != self.assignment[v as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Total vertex weight per part.
    pub fn part_vertex_loads(&self, g: &Graph) -> Vec<u64> {
        let mut loads = vec![0u64; self.k as usize];
        for u in 0..g.len() as u32 {
            loads[self.assignment[u as usize] as usize] += g.vwgt(u);
        }
        loads
    }

    /// Internal (non-cut) edge weight per part — the `|E_A|`, `|E_B|` terms
    /// of the paper's balancing objective.
    pub fn part_edge_loads(&self, g: &Graph) -> Vec<u64> {
        let mut loads = vec![0u64; self.k as usize];
        for u in 0..g.len() as u32 {
            for &(v, w) in g.neighbors(u) {
                if v > u && self.assignment[u as usize] == self.assignment[v as usize] {
                    loads[self.assignment[u as usize] as usize] += w;
                }
            }
        }
        loads
    }

    /// Maximum relative deviation of any part's vertex load from the mean.
    pub fn imbalance(&self, g: &Graph) -> f64 {
        let loads = self.part_vertex_loads(g);
        let mean = g.total_vwgt() as f64 / self.k as f64;
        loads
            .iter()
            .map(|&l| (l as f64 - mean).abs() / mean.max(1.0))
            .fold(0.0, f64::max)
    }

    /// The paper's §IV-C objective `α·cut + β·Σ 1/|E_i|` (lower is better).
    /// Parts with zero internal edges contribute `β` (their `1/|E_i|` term is
    /// clamped at 1).
    pub fn objective(&self, g: &Graph, alpha: f64, beta: f64) -> f64 {
        let cut = self.cut_edges(g) as f64;
        let balance: f64 = self
            .part_edge_loads(g)
            .iter()
            .map(|&e| 1.0 / (e.max(1) as f64))
            .sum();
        alpha * cut + beta * balance
    }
}

/// Multilevel bisection. Returns `side[v] ∈ {0,1}` with side 0 targeting the
/// fraction `frac0` of total vertex weight.
pub fn bisect(g: &Graph, frac0: f64, cfg: &PartitionConfig) -> Vec<u8> {
    bisect_with(g, frac0, cfg, &mut FmScratch::default())
}

fn bisect_with(g: &Graph, frac0: f64, cfg: &PartitionConfig, fm: &mut FmScratch) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    bisect_inner(g, frac0, cfg, &mut rng, 0, fm)
}

/// FM passes over one bisection until a pass gains nothing (at most
/// `cfg.fm_passes`).
fn refine(g: &Graph, side: &mut [u8], targets: [u64; 2], cfg: &PartitionConfig, fm: &mut FmScratch) {
    for _ in 0..cfg.fm_passes {
        if fm_pass(g, side, targets, cfg.epsilon, fm) == 0 {
            break;
        }
    }
}

fn bisect_inner(
    g: &Graph,
    frac0: f64,
    cfg: &PartitionConfig,
    rng: &mut StdRng,
    depth: usize,
    fm: &mut FmScratch,
) -> Vec<u8> {
    let target0 = (g.total_vwgt() as f64 * frac0).round() as u64;
    let targets = [target0, g.total_vwgt() - target0];

    if g.len() <= COARSEN_TO || depth > 64 {
        let mut best: Option<(u64, Vec<u8>)> = None;
        for _ in 0..INIT_TRIES {
            let mut side = grow_bisection(g, target0, rng);
            refine(g, &mut side, targets, cfg, fm);
            let cut = cut_weight(g, &side);
            if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                best = Some((cut, side));
            }
        }
        return match best {
            Some((_, side)) => side,
            None => unreachable!("the init loop runs at least once"),
        };
    }

    // Coarsen by heavy-edge matching; bail to direct bisection if matching
    // cannot shrink the graph (e.g. no edges).
    let matched = heavy_edge_matching(g, rng);
    let (coarse, coarse_of) = g.contract(&matched);
    if coarse.len() == g.len() {
        let mut side = grow_bisection(g, target0, rng);
        refine(g, &mut side, targets, cfg, fm);
        return side;
    }

    let coarse_side = bisect_inner(&coarse, frac0, cfg, rng, depth + 1, fm);
    // Project up and refine at this level.
    let mut side: Vec<u8> = (0..g.len())
        .map(|u| coarse_side[coarse_of[u] as usize])
        .collect();
    refine(g, &mut side, targets, cfg, fm);
    side
}

/// Heavy-edge matching in random vertex order.
fn heavy_edge_matching(g: &Graph, rng: &mut StdRng) -> Vec<u32> {
    let n = g.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut matched: Vec<u32> = (0..n as u32).collect();
    let mut taken = vec![false; n];
    for &u in &order {
        if taken[u as usize] {
            continue;
        }
        let mut best: Option<(u64, u32)> = None;
        for &(v, w) in g.neighbors(u) {
            if !taken[v as usize] && v != u && best.as_ref().is_none_or(|&(bw, _)| w > bw) {
                best = Some((w, v));
            }
        }
        if let Some((_, v)) = best {
            matched[u as usize] = v;
            matched[v as usize] = u;
            taken[u as usize] = true;
            taken[v as usize] = true;
        }
    }
    matched
}

/// Greedy region growing: BFS from a random seed, pulling vertices into side
/// 0 until its weight reaches `target0`. Disconnected remainders keep
/// growing from fresh seeds.
fn grow_bisection(g: &Graph, target0: u64, rng: &mut StdRng) -> Vec<u8> {
    let n = g.len();
    let mut side = vec![1u8; n];
    if n == 0 || target0 == 0 {
        return side;
    }
    let mut load0 = 0u64;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let seed = rng.random_range(0..n as u32);
    queue.push_back(seed);
    visited[seed as usize] = true;
    while load0 < target0 {
        let u = match queue.pop_front() {
            Some(u) => u,
            None => {
                // Disconnected: restart from any unvisited vertex.
                match (0..n as u32).find(|&v| !visited[v as usize]) {
                    Some(v) => {
                        visited[v as usize] = true;
                        v
                    }
                    None => break,
                }
            }
        };
        // Take `u` only while the overshoot it causes stays below the
        // remaining deficit (the seed vertex is always taken so side 0 is
        // never empty). Overshooting here poisons FM refinement: an
        // imbalanced start widens its "no worse than the start" fallback,
        // which can walk the small side far below target.
        if load0 > 0 && (load0 + g.vwgt(u)).saturating_sub(target0) >= target0 - load0 {
            continue;
        }
        side[u as usize] = 0;
        load0 += g.vwgt(u);
        for &(v, _) in g.neighbors(u) {
            if !visited[v as usize] {
                visited[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    side
}

/// k-way partition by recursive bisection with proportional targets,
/// restarted `GLOBAL_TRIES` times with derived seeds; the lowest
/// (cut, max-part-load) result wins.
pub fn partition(g: &Graph, k: u32, cfg: &PartitionConfig) -> Partitioning {
    assert!(k >= 1);
    let n = g.len();
    if k == 1 {
        return Partitioning { assignment: vec![0; n], k };
    }
    if k as usize >= n {
        // Each vertex its own part (extra parts stay empty only if k > n;
        // callers should avoid that, but we keep it total).
        let assignment = (0..n as u32).collect();
        return Partitioning { assignment, k };
    }
    let mut best: Option<(u64, u64, Partitioning)> = None;
    let mut fm = FmScratch::default();
    for t in 0..GLOBAL_TRIES {
        let cfg_t = PartitionConfig {
            seed: cfg.seed.wrapping_add(t.wrapping_mul(0x9E37_79B9)),
            ..cfg.clone()
        };
        let p = partition_once(g, k, &cfg_t, &mut fm);
        let key = (p.cut_edges(g), p.part_vertex_loads(g).into_iter().max().unwrap_or(0));
        if best.as_ref().is_none_or(|(c, l, _)| key < (*c, *l)) {
            best = Some((key.0, key.1, p));
        }
    }
    match best {
        Some((_, _, p)) => p,
        None => unreachable!("the retry loop runs at least once"),
    }
}

fn partition_once(g: &Graph, k: u32, cfg: &PartitionConfig, fm: &mut FmScratch) -> Partitioning {
    let n = g.len();
    let mut assignment = vec![0u32; n];
    let verts: Vec<u32> = (0..n as u32).collect();
    recurse(g, &verts, 0, k, cfg, &mut assignment, fm);
    let mut p = Partitioning { assignment, k };
    if k > 2 {
        kway_refine(g, &mut p, cfg, fm);
    }
    p
}

/// Direct k-way refinement: pairwise FM sweeps over every part pair until a
/// whole round yields no cut improvement (bounded rounds). Recursive
/// bisection fixes early cuts before later parts exist; this pass lets
/// vertices migrate across any pair of parts afterwards.
fn kway_refine(g: &Graph, p: &mut Partitioning, cfg: &PartitionConfig, fm: &mut FmScratch) {
    let k = p.k as usize;
    let ideal = g.total_vwgt() / k as u64;
    // The vertices of each part, ascending; rewritten for the two parts of
    // a pair after its sweep, so no pair scans the whole graph.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (v, &a) in p.assignment.iter().enumerate() {
        members[a as usize].push(v as u32);
    }
    let mut verts: Vec<u32> = Vec::new();
    let mut side: Vec<u8> = Vec::new();
    // What a sweep does depends only on which vertices its two parts hold.
    // Once one has ended on a pass that gained nothing, sweeping the pair
    // again is that same pass on the same input, until a sweep with a third
    // part moves a vertex into or out of either. `changed[i]` numbers the
    // last sweep that moved a vertex of part i, `settled[i * k + j]` the
    // pair's last sweep that ended on such a pass.
    let mut sweep = 1u32;
    let mut changed = vec![sweep; k];
    let mut settled = vec![0u32; k * k];
    for _round in 0..4 {
        let mut improved = 0u64;
        for i in 0..k {
            for j in (i + 1)..k {
                if settled[i * k + j] >= changed[i].max(changed[j]) {
                    continue;
                }
                // FM keeps a move prefix only for a positive total gain, and
                // the cut between two parts with no edge between them is
                // already 0: nothing to extract, nothing to move.
                if !adjacent(g, &p.assignment, &members[i], j as u32) {
                    continue;
                }
                // Extract the i∪j subgraph, vertices ascending.
                merge_ascending(&members[i], &members[j], &mut verts, &mut side);
                let sub = g.subgraph(&verts);
                sweep += 1;
                let mut gained = 0u64;
                for _ in 0..cfg.fm_passes.max(1) {
                    let gain = fm_pass(&sub, &mut side, [ideal, ideal], cfg.epsilon, fm);
                    if gain == 0 {
                        settled[i * k + j] = sweep;
                        break;
                    }
                    gained += gain;
                }
                if gained == 0 {
                    continue;
                }
                improved += gained;
                changed[i] = sweep;
                changed[j] = sweep;
                members[i].clear();
                members[j].clear();
                for (&v, &s) in verts.iter().zip(&side) {
                    let part = if s == 0 { i } else { j };
                    p.assignment[v as usize] = part as u32;
                    members[part].push(v);
                }
            }
        }
        if improved == 0 {
            break;
        }
    }
}

/// True if some vertex of `part` has a neighbour assigned to `other`.
fn adjacent(g: &Graph, assignment: &[u32], part: &[u32], other: u32) -> bool {
    part.iter().any(|&v| g.neighbors(v).iter().any(|&(n, _)| assignment[n as usize] == other))
}

/// Merge two ascending vertex lists into `verts` (ascending), with
/// `side[x]` = 0 where `verts[x]` came from `zeros` and 1 where from `ones`.
fn merge_ascending(zeros: &[u32], ones: &[u32], verts: &mut Vec<u32>, side: &mut Vec<u8>) {
    verts.clear();
    side.clear();
    let (mut a, mut b) = (0, 0);
    while a < zeros.len() || b < ones.len() {
        let from_ones = a == zeros.len() || (b < ones.len() && ones[b] < zeros[a]);
        if from_ones {
            verts.push(ones[b]);
            b += 1;
        } else {
            verts.push(zeros[a]);
            a += 1;
        }
        side.push(u8::from(from_ones));
    }
}

fn recurse(
    orig: &Graph,
    verts: &[u32],
    base: u32,
    k: u32,
    cfg: &PartitionConfig,
    assignment: &mut [u32],
    fm: &mut FmScratch,
) {
    if k == 1 {
        for &v in verts {
            assignment[v as usize] = base;
        }
        return;
    }
    let sub = orig.subgraph(verts);
    let k0 = k / 2;
    let k1 = k - k0;
    // Derive a distinct seed per recursion branch for diversity.
    let cfg_here = PartitionConfig {
        seed: cfg.seed.wrapping_add((base as u64) << 32 | k as u64),
        ..cfg.clone()
    };
    let side = bisect_with(&sub, k0 as f64 / k as f64, &cfg_here, fm);
    let on = |s: u8| -> Vec<u32> {
        verts.iter().zip(&side).filter(|&(_, &x)| x == s).map(|(&v, _)| v).collect()
    };
    recurse(orig, &on(0), base, k0, cfg, assignment, fm);
    recurse(orig, &on(1), base + k0, k1, cfg, assignment, fm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::{fm_pass_reference, tests::graphs};
    use proptest::prelude::*;

    /// The refinement [`kway_refine`] replaced, kept as its oracle: every
    /// pair of every round is swept — no skip for a pair with no edge
    /// between its parts, none for one that has settled — over a vertex list
    /// filtered out of the whole graph, with the reference FM pass.
    fn kway_refine_reference(g: &Graph, p: &mut Partitioning, cfg: &PartitionConfig) {
        let k = p.k;
        let ideal = g.total_vwgt() / k as u64;
        for _round in 0..4 {
            let mut improved = 0u64;
            for i in 0..k {
                for j in (i + 1)..k {
                    let verts: Vec<u32> = (0..g.len() as u32)
                        .filter(|&v| {
                            let a = p.assignment[v as usize];
                            a == i || a == j
                        })
                        .collect();
                    if verts.len() < 2 {
                        continue;
                    }
                    let sub = g.subgraph(&verts);
                    let mut side: Vec<u8> = verts
                        .iter()
                        .map(|&v| u8::from(p.assignment[v as usize] == j))
                        .collect();
                    for _ in 0..cfg.fm_passes.max(1) {
                        let gain = fm_pass_reference(&sub, &mut side, [ideal, ideal], cfg.epsilon);
                        improved += gain;
                        if gain == 0 {
                            break;
                        }
                    }
                    for (x, &v) in verts.iter().enumerate() {
                        p.assignment[v as usize] = if side[x] == 0 { i } else { j };
                    }
                }
            }
            if improved == 0 {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Member lists, the zero-cut skip and the settled-pair skip against
        /// the sweep-everything refinement, from arbitrary (unbalanced,
        /// disconnected, some-parts-empty) starting assignments.
        #[test]
        fn kway_refine_equals_reference(
            g in graphs(60),
            raw_parts in proptest::collection::vec(any::<u32>(), 60..61),
            (k, spread) in (2u32..9, 1u32..9),
            fm_passes in 1usize..9,
            epsilon in 0usize..3,
        ) {
            // `spread` < k leaves the top parts empty at the start.
            let assignment: Vec<u32> =
                raw_parts[..g.len()].iter().map(|r| r % k.min(spread)).collect();
            let cfg = PartitionConfig {
                fm_passes,
                epsilon: [0.0, 0.1, 0.6][epsilon],
                ..PartitionConfig::default()
            };
            let mut p = Partitioning { assignment: assignment.clone(), k };
            let mut p_ref = Partitioning { assignment, k };
            kway_refine(&g, &mut p, &cfg, &mut FmScratch::default());
            kway_refine_reference(&g, &mut p_ref, &cfg);
            prop_assert_eq!(p.assignment, p_ref.assignment);
        }
    }

    fn grid(w: u32, h: u32) -> Graph {
        let mut edges = Vec::new();
        let id = |x: u32, y: u32| y * w + x;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y), 1));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1), 1));
                }
            }
        }
        Graph::from_edges(w * h, &edges, vec![1; (w * h) as usize])
    }

    #[test]
    fn bisect_grid_near_optimal() {
        let g = grid(8, 8);
        let side = bisect(&g, 0.5, &PartitionConfig::default());
        let cut = cut_weight(&g, &side);
        // Optimal straight cut = 8; accept small slack.
        assert!(cut <= 10, "cut {cut}");
        let load0 = side.iter().filter(|&&s| s == 0).count();
        assert!((24..=40).contains(&load0), "load0 {load0}");
    }

    #[test]
    fn asymmetric_target_respected() {
        let g = grid(10, 4);
        let side = bisect(&g, 0.25, &PartitionConfig::default());
        let load0 = side.iter().filter(|&&s| s == 0).count();
        assert!((6..=14).contains(&load0), "load0 {load0}");
    }

    #[test]
    fn kway_refinement_never_worsens() {
        let g = grid(8, 8);
        // Baseline: recursive bisection only (refinement disabled via a
        // directly constructed run with fm off would change bisection too;
        // instead check the refined result against the known-good straight
        // cuts: 3 parts of a grid cut at most ~2 columns = 16 edges).
        let p = partition(&g, 4, &PartitionConfig::default());
        assert!(p.cut_edges(&g) <= 28, "cut {}", p.cut_edges(&g));
        assert!(p.imbalance(&g) <= 0.30, "imbalance {}", p.imbalance(&g));
    }

    #[test]
    fn kway_three_parts() {
        let g = grid(6, 6);
        let p = partition(&g, 3, &PartitionConfig::default());
        let loads = p.part_vertex_loads(&g);
        assert_eq!(loads.iter().sum::<u64>(), 36);
        for l in &loads {
            assert!((8..=16).contains(l), "loads {loads:?}");
        }
        assert!(p.imbalance(&g) < 0.35);
    }

    #[test]
    fn k_equals_one() {
        let g = grid(3, 3);
        let p = partition(&g, 1, &PartitionConfig::default());
        assert!(p.assignment().iter().all(|&a| a == 0));
        assert_eq!(p.cut_edges(&g), 0);
    }

    #[test]
    fn k_at_least_n() {
        let g = grid(2, 2);
        let p = partition(&g, 4, &PartitionConfig::default());
        let mut parts: Vec<u32> = p.assignment().to_vec();
        parts.sort_unstable();
        assert_eq!(parts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edgeless_graph() {
        let g = Graph::from_edges(6, &[], vec![1; 6]);
        let p = partition(&g, 2, &PartitionConfig::default());
        let loads = p.part_vertex_loads(&g);
        assert_eq!(loads.iter().sum::<u64>(), 6);
        assert!(loads[0] >= 2 && loads[1] >= 2, "{loads:?}");
    }

    #[test]
    fn objective_prefers_balanced_cut() {
        let g = grid(8, 2);
        let good = partition(&g, 2, &PartitionConfig::default());
        // Degenerate partition: everything in part 0 except one corner.
        let mut bad_assign = vec![0u32; 16];
        bad_assign[0] = 1;
        let bad = Partitioning { assignment: bad_assign, k: 2 };
        assert!(
            good.objective(&g, 1.0, 1.0) < bad.objective(&g, 1.0, 1.0),
            "balanced min-cut should beat corner chop"
        );
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // Vertex 0 is heavy; balancing by weight puts it alone-ish.
        let g = Graph::from_edges(
            5,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            vec![10, 1, 1, 1, 1],
        );
        let p = partition(&g, 2, &PartitionConfig::default());
        let loads = p.part_vertex_loads(&g);
        let max = *loads.iter().max().unwrap();
        assert!(max <= 11, "loads {loads:?}");
    }
}
