//! Fiduccia–Mattheyses bisection refinement.
//!
//! Classic FM: repeatedly move the boundary vertex with the highest gain
//! (cut-weight reduction) to the other side, lock it, and remember the best
//! prefix of the move sequence; roll back to that prefix at the end of the
//! pass.
//!
//! Balance is handled with two different rules, as in the original
//! algorithm: a *move* may overshoot a side's target by up to the moving
//! vertex's weight (so swap-style improvements are reachable through a
//! transiently unbalanced state), but the *chosen prefix* must land in a
//! balanced state — within `1 + epsilon` of the targets — or at least not be
//! more unbalanced than the starting state was.

use crate::graph::Graph;

/// What one [`fm_pass`] works in, kept by the caller across passes so a
/// pass allocates nothing: a k-way partition of a few hundred vertices runs
/// thousands of passes over graphs of a few dozen.
#[derive(Default)]
pub struct FmScratch {
    /// `gain[u]` = external minus internal edge weight of `u`.
    gain: Vec<i64>,
    locked: Vec<bool>,
    moves: Vec<u32>,
    queue: GainQueue,
}

/// The movable vertices, as an indexed binary max-heap of `(gain, vertex)`
/// keys: the root is exactly the vertex FM moves next, a gain update
/// re-sifts the one vertex it touches, and a vertex can leave without being
/// moved.
#[derive(Default)]
struct GainQueue {
    heap: Vec<(i64, u32)>,
    /// `pos[v]` = index of `v`'s key in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl GainQueue {
    /// Hold every vertex `0..gain.len()` under its gain.
    fn fill(&mut self, gain: &[i64]) {
        let n = gain.len();
        self.heap.clear();
        self.heap.extend(gain.iter().copied().zip(0..n as u32));
        self.pos.clear();
        self.pos.extend(0..n as u32);
        for at in (0..n / 2).rev() {
            self.sift_down(at);
        }
    }

    /// Remove and return the greatest `(gain, vertex)`.
    fn pop(&mut self) -> Option<(i64, u32)> {
        let last = self.heap.pop()?;
        let Some(top) = self.heap.first().copied() else {
            self.pos[last.1 as usize] = ABSENT;
            return Some(last);
        };
        self.pos[top.1 as usize] = ABSENT;
        self.heap[0] = last;
        self.sift_down(0);
        Some(top)
    }

    /// `v`'s gain is now `gain`: move its key to where it belongs, entering
    /// `v` if it had left.
    fn update(&mut self, v: u32, gain: i64) {
        let at = self.pos[v as usize] as usize;
        if at == ABSENT as usize {
            self.heap.push((gain, v));
            self.sift_up(self.heap.len() - 1);
            return;
        }
        let old = std::mem::replace(&mut self.heap[at].0, gain);
        match gain.cmp(&old) {
            std::cmp::Ordering::Greater => self.sift_up(at),
            std::cmp::Ordering::Less => self.sift_down(at),
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Carry the key at `at` toward the root until its parent is no less.
    fn sift_up(&mut self, mut at: usize) {
        let key = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            let above = self.heap[parent];
            if above >= key {
                break;
            }
            self.heap[at] = above;
            self.pos[above.1 as usize] = at as u32;
            at = parent;
        }
        self.heap[at] = key;
        self.pos[key.1 as usize] = at as u32;
    }

    /// Carry the key at `at` toward the leaves until no child is greater.
    fn sift_down(&mut self, mut at: usize) {
        let key = self.heap[at];
        loop {
            let left = 2 * at + 1;
            let Some(&l) = self.heap.get(left) else { break };
            let (child, below) = match self.heap.get(left + 1) {
                Some(&r) if r > l => (left + 1, r),
                _ => (left, l),
            };
            if key >= below {
                break;
            }
            self.heap[at] = below;
            self.pos[below.1 as usize] = at as u32;
            at = child;
        }
        self.heap[at] = key;
        self.pos[key.1 as usize] = at as u32;
    }
}

/// One refinement pass over a bisection. `side[u] ∈ {0,1}`; `targets` are
/// the desired per-side vertex-weight totals. Returns the cut improvement.
pub fn fm_pass(
    g: &Graph,
    side: &mut [u8],
    targets: [u64; 2],
    epsilon: f64,
    scratch: &mut FmScratch,
) -> u64 {
    let n = g.len();
    let FmScratch { gain, locked, moves, queue } = scratch;
    let mut loads = [0u64; 2];
    for u in 0..n {
        loads[side[u] as usize] += g.vwgt(u as u32);
    }
    let strict_cap = [cap(targets[0], epsilon), cap(targets[1], epsilon)];
    // Imbalance is the absolute deviation from target, which is identical
    // for both sides (loads and targets share a total). A per-side ratio is
    // the wrong yardstick here: with targets [10, 30], the states [12, 28]
    // and [4, 36] have the same worst ratio (1.2), so a ratio-based "no
    // worse than start" fallback lets FM drain the small side whenever that
    // lowers the cut.
    let worst_start = deviation(loads, targets);
    let eligible = |loads: [u64; 2]| -> bool {
        (loads[0] <= strict_cap[0] && loads[1] <= strict_cap[1])
            || deviation(loads, targets) <= worst_start
    };

    gain.clear();
    gain.extend((0..n as u32).map(|u| vertex_gain(g, side, u)));
    queue.fill(gain);
    locked.clear();
    locked.resize(n, false);
    moves.clear();
    let mut cur: i64 = 0;
    let mut best: i64 = 0;
    let mut best_len = 0usize;

    // Highest (gain, vertex id) first. A vertex the balance rule refuses
    // leaves the queue and is considered again only after one of its
    // neighbours moves (its next gain update re-enters it).
    while let Some((gn, u)) = queue.pop() {
        let from = side[u as usize] as usize;
        let to = 1 - from;
        let w = g.vwgt(u);
        // Transient overshoot of up to one vertex is allowed.
        if loads[to] + w > strict_cap[to].max(targets[to] + w) {
            continue;
        }
        // Apply the move.
        locked[u as usize] = true;
        side[u as usize] = to as u8;
        loads[from] -= w;
        loads[to] += w;
        cur += gn;
        moves.push(u);
        if cur > best && eligible(loads) {
            best = cur;
            best_len = moves.len();
        }
        // Update neighbor gains.
        for &(v, vw) in g.neighbors(u) {
            if locked[v as usize] {
                continue;
            }
            // v's edge to u flipped internal<->external.
            if side[v as usize] == side[u as usize] {
                gain[v as usize] -= 2 * (vw as i64); // became internal
            } else {
                gain[v as usize] += 2 * (vw as i64); // became external
            }
            queue.update(v, gain[v as usize]);
        }
    }

    // Roll back moves past the best eligible prefix (possibly all of them).
    for &u in &moves[best_len..] {
        side[u as usize] ^= 1;
    }
    best as u64
}

/// The pass [`fm_pass`] replaced, kept as its oracle: a lazy-deletion
/// `BinaryHeap` of `(gain, vertex)` that is pushed to on every gain update
/// and skips stale entries on pop, allocating its working vectors per call.
/// The differential tests hold the two to the same `side` and the same
/// returned gain.
#[cfg(test)]
pub(crate) fn fm_pass_reference(
    g: &Graph,
    side: &mut [u8],
    targets: [u64; 2],
    epsilon: f64,
) -> u64 {
    use std::collections::BinaryHeap;
    let n = g.len();
    let mut loads = [0u64; 2];
    for u in 0..n {
        loads[side[u] as usize] += g.vwgt(u as u32);
    }
    let strict_cap =
        [cap(targets[0], epsilon), cap(targets[1], epsilon)];
    // Imbalance is the absolute deviation from target, which is identical
    // for both sides (loads and targets share a total). A per-side ratio is
    // the wrong yardstick here: with targets [10, 30], the states [12, 28]
    // and [4, 36] have the same worst ratio (1.2), so a ratio-based "no
    // worse than start" fallback lets FM drain the small side whenever that
    // lowers the cut.
    let eligible = |loads: [u64; 2], worst_start: u64| -> bool {
        (loads[0] <= strict_cap[0] && loads[1] <= strict_cap[1])
            || deviation(loads, targets) <= worst_start
    };
    let worst_start = deviation(loads, targets);

    // gain[u] = external - internal edge weight.
    let mut gain = vec![0i64; n];
    for u in 0..n as u32 {
        gain[u as usize] = vertex_gain(g, side, u);
    }

    let mut heap: BinaryHeap<(i64, u32)> = (0..n as u32).map(|u| (gain[u as usize], u)).collect();
    let mut locked = vec![false; n];
    let mut moves: Vec<u32> = Vec::new();
    let mut cur: i64 = 0;
    let mut best: i64 = 0;
    let mut best_len = 0usize;
    let mut any_eligible = false;

    while let Some((gn, u)) = heap.pop() {
        if locked[u as usize] || gn != gain[u as usize] {
            continue; // stale heap entry
        }
        let from = side[u as usize] as usize;
        let to = 1 - from;
        let w = g.vwgt(u);
        // Transient overshoot of up to one vertex is allowed.
        if loads[to] + w > strict_cap[to].max(targets[to] + w) {
            continue;
        }
        // Apply the move.
        locked[u as usize] = true;
        side[u as usize] = to as u8;
        loads[from] -= w;
        loads[to] += w;
        cur += gn;
        moves.push(u);
        if eligible(loads, worst_start) && cur > best {
            best = cur;
            best_len = moves.len();
            any_eligible = true;
        }
        // Update neighbor gains.
        for &(v, vw) in g.neighbors(u) {
            if locked[v as usize] {
                continue;
            }
            // v's edge to u flipped internal<->external.
            let delta = if side[v as usize] == side[u as usize] {
                -2 * (vw as i64) // became internal
            } else {
                2 * (vw as i64) // became external
            };
            gain[v as usize] += delta;
            heap.push((gain[v as usize], v));
        }
    }

    // Roll back moves past the best eligible prefix (possibly all of them).
    if !any_eligible {
        best_len = 0;
        best = 0;
    }
    for &u in &moves[best_len..] {
        side[u as usize] ^= 1;
    }
    best.max(0) as u64
}

fn cap(target: u64, epsilon: f64) -> u64 {
    ((target as f64) * (1.0 + epsilon)).ceil() as u64
}

/// Absolute deviation from the per-side targets (equal on both sides since
/// loads and targets share the same total).
fn deviation(loads: [u64; 2], targets: [u64; 2]) -> u64 {
    loads[0].abs_diff(targets[0])
}

/// Gain of moving `u` to the other side: external minus internal edge weight.
fn vertex_gain(g: &Graph, side: &[u8], u: u32) -> i64 {
    let mut gain = 0i64;
    for &(v, w) in g.neighbors(u) {
        if side[v as usize] == side[u as usize] {
            gain -= w as i64;
        } else {
            gain += w as i64;
        }
    }
    gain
}

/// Cut weight of a bisection.
pub fn cut_weight(g: &Graph, side: &[u8]) -> u64 {
    let mut cut = 0;
    for u in 0..g.len() as u32 {
        for &(v, w) in g.neighbors(u) {
            if v > u && side[u as usize] != side[v as usize] {
                cut += w;
            }
        }
    }
    cut
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A random graph of 2..`max_n` vertices of weight 1..=6, up to
    /// 3 × `max_n` edges of weight 0..=3 (a weight-0 edge changes no gain
    /// but still re-enters a refused neighbour); repeats are merged.
    pub(crate) fn graphs(max_n: u32) -> impl Strategy<Value = Graph> {
        let edges = proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 0u64..4),
            0..3 * max_n as usize,
        );
        let vwgt = proptest::collection::vec(1u64..7, max_n as usize..max_n as usize + 1);
        (2..max_n, edges, vwgt).prop_map(|(n, edges, vwgt)| {
            let edges: Vec<(u32, u32, u64)> = edges
                .into_iter()
                .map(|(u, v, w)| (u % n, v % n, w))
                .filter(|&(u, v, _)| u != v)
                .collect();
            Graph::from_edges(n, &edges, vwgt[..n as usize].to_vec())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed queue against the lazy-deletion heap it replaced:
        /// same `side`, same returned gain, pass after pass (a pass starts
        /// where the last one ended), with one scratch carried across
        /// graphs of every size.
        #[test]
        fn fm_pass_equals_reference(
            g in graphs(48),
            raw_side in proptest::collection::vec(0u8..2, 48..49),
            target_permille in 0u64..=1000,
            over in 0u64..3,
            epsilon in 0usize..5,
        ) {
            // Side 0's target anywhere in 0..=total; `over` > 0 makes the two
            // targets sum past the total, as `kway_refine`'s do.
            let target0 = g.total_vwgt() * target_permille / 1000;
            let targets = [target0, g.total_vwgt() - target0 + over * g.total_vwgt() / 4];
            let epsilon = [0.0, 0.03, 0.1, 0.5, 2.0][epsilon];
            let mut side = raw_side[..g.len()].to_vec();
            let mut side_ref = side.clone();
            let mut scratch = FmScratch::default();
            // Warm the scratch on a bigger graph: a pass must not read what
            // an earlier one left behind.
            let ring: Vec<(u32, u32, u64)> = (0..64).map(|u| (u, (u + 1) % 64, 1)).collect();
            let ring = Graph::from_edges(64, &ring, vec![1; 64]);
            fm_pass(&ring, &mut [0, 1].repeat(32), [32, 32], 0.1, &mut scratch);
            for pass in 0..4 {
                let gain = fm_pass(&g, &mut side, targets, epsilon, &mut scratch);
                let gain_ref = fm_pass_reference(&g, &mut side_ref, targets, epsilon);
                prop_assert_eq!(gain, gain_ref, "returned gain, pass {}", pass);
                prop_assert_eq!(&side, &side_ref, "side after pass {}", pass);
            }
        }
    }

    #[test]
    fn fm_fixes_a_bad_bisection() {
        // Two triangles joined by one edge; optimal cut = 1.
        let g = Graph::from_edges(
            6,
            &[(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)],
            vec![1; 6],
        );
        // Bad start: split each triangle (cuts 1-2, 0-2, 3-4, 3-5, 2-3).
        let mut side = vec![0u8, 0, 1, 0, 1, 1];
        assert_eq!(cut_weight(&g, &side), 5);
        let improved = fm_pass(&g, &mut side, [3, 3], 0.34, &mut FmScratch::default());
        assert!(improved >= 4, "improved {improved}");
        assert_eq!(cut_weight(&g, &side), 1);
    }

    #[test]
    fn fm_respects_balance_ceiling() {
        // Star: gathering everything on one side would zero the cut but is
        // forbidden by balance.
        let g = Graph::from_edges(5, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)], vec![1; 5]);
        let mut side = vec![0u8, 1, 1, 0, 0];
        fm_pass(&g, &mut side, [3, 2], 0.0, &mut FmScratch::default());
        let load0 = side.iter().filter(|&&s| s == 0).count();
        assert!((2..=3).contains(&load0), "load0 {load0}");
    }

    #[test]
    fn fm_never_worsens() {
        let g = Graph::from_edges(4, &[(0, 1, 5), (2, 3, 5), (1, 2, 1)], vec![1; 4]);
        let mut side = vec![0u8, 0, 1, 1];
        let before = cut_weight(&g, &side);
        fm_pass(&g, &mut side, [2, 2], 0.1, &mut FmScratch::default());
        assert!(cut_weight(&g, &side) <= before);
    }

    #[test]
    fn fm_keeps_start_when_balance_unreachable() {
        // One heavy vertex dominates; the only lower-cut states are more
        // unbalanced than the start, so FM must return the start unchanged.
        let g = Graph::from_edges(
            5,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            vec![10, 1, 1, 1, 1],
        );
        let mut side = vec![0u8, 1, 1, 1, 1];
        let before = side.clone();
        fm_pass(&g, &mut side, [7, 7], 0.1, &mut FmScratch::default());
        assert_eq!(side, before);
    }

    #[test]
    fn fm_enables_swaps_through_transient_imbalance() {
        // Equal-weight ring of 4 where improving requires a swap: start with
        // opposite corners paired (cut 4), optimal adjacent pairing (cut 2).
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], vec![1; 4]);
        let mut side = vec![0u8, 1, 0, 1];
        assert_eq!(cut_weight(&g, &side), 4);
        fm_pass(&g, &mut side, [2, 2], 0.0, &mut FmScratch::default());
        assert_eq!(cut_weight(&g, &side), 2);
        assert_eq!(side.iter().filter(|&&s| s == 0).count(), 2);
    }
}
