//! Application trace generators: IMB, HPCG, HPL, miniGhost, miniFE.
//!
//! Each generator reproduces the published communication skeleton of its
//! application; compute phases are sized with [`MachineModel`]. The
//! defaults are scaled-down instances (smaller grids / fewer iterations
//! than the paper's `264x264x264`-class runs) so simulations finish in
//! seconds, but the *communication fraction* of each app — the quantity
//! that drives Table IV's speedup spread — follows the real codes'
//! character:
//!
//! | app       | pattern                          | comm fraction |
//! |-----------|----------------------------------|---------------|
//! | HPL       | panel bcast + trailing update    | lowest (~1%)  |
//! | HPCG      | 7-pt halo + dots, memory bound   | low (~4%)     |
//! | miniGhost | 40-var halo (BSPMA)              | medium (~15%) |
//! | miniFE    | halo + 2 dots per CG iteration   | higher (~30%) |
//! | IMB       | pure communication               | 1.0           |

use crate::collectives;
use crate::trace::{MachineModel, MpiOp, Rank, Trace};

/// IMB Pingpong between ranks 0 and 1: `reps` round trips of `bytes`.
pub fn imb_pingpong(bytes: u64, reps: u32) -> Trace {
    let mut t = Trace::new(format!("imb-pingpong-{bytes}B-x{reps}"), 2);
    for rep in 0..reps {
        t.push(0, MpiOp::Send { to: 1, bytes, tag: rep });
        t.push(1, MpiOp::Recv { from: 0, tag: rep });
        t.push(1, MpiOp::Send { to: 0, bytes, tag: rep });
        t.push(0, MpiOp::Recv { from: 1, tag: rep });
    }
    t
}

/// IMB Alltoall over `n` ranks: `reps` rounds of `bytes` per pair.
pub fn imb_alltoall(n: u32, bytes: u64, reps: u32) -> Trace {
    let mut t = Trace::new(format!("imb-alltoall-{n}r-{bytes}B-x{reps}"), n);
    for rep in 0..reps {
        collectives::alltoall(&mut t, bytes, rep * (n + 1));
    }
    t
}

/// Shift-permutation traffic: for `reps` rounds, rank `r` exchanges
/// `bytes` with ranks `(r ± shift) mod n`. With ranks packed group-by-group
/// on a Dragonfly and `shift` = hosts-per-group, this is the classic
/// adversarial pattern for minimal routing: every group's whole load
/// crosses the single global link to the next group, which is what
/// adaptive (UGAL/active) routing is for (§VI-E).
pub fn permutation_shift(n: u32, shift: u32, bytes: u64, reps: u32) -> Trace {
    assert!(n >= 2 && shift % n != 0);
    let mut t = Trace::new(format!("shift-{shift}-{n}r-{bytes}B-x{reps}"), n);
    for rep in 0..reps {
        for r in 0..n {
            let to = (r + shift) % n;
            let from = (r + n - shift) % n;
            t.push(r, MpiOp::SendRecv { to, bytes, stag: rep, from, rtag: rep });
        }
    }
    t
}

/// A 3D process grid and its face-neighbor arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct RankGrid {
    /// Ranks per dimension.
    pub dims: [u32; 3],
}

impl RankGrid {
    /// Choose a near-cubic grid for `n` ranks (largest factors first).
    pub fn for_ranks(n: u32) -> Self {
        assert!(n >= 1);
        // Greedy: split n into three factors as equal as possible.
        let mut best = [n, 1, 1];
        let mut best_score = u32::MAX;
        for a in 1..=n {
            if n % a != 0 {
                continue;
            }
            let rest = n / a;
            for b in 1..=rest {
                if rest % b != 0 {
                    continue;
                }
                let c = rest / b;
                let dims = [a, b, c];
                let score =
                    dims.iter().max().copied().unwrap_or(0) - dims.iter().min().copied().unwrap_or(0);
                if score < best_score {
                    best_score = score;
                    best = dims;
                }
            }
        }
        RankGrid { dims: best }
    }

    /// Total ranks.
    pub fn len(&self) -> u32 {
        self.dims.iter().product()
    }

    /// True only for an empty grid (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinates of a rank.
    pub fn coord(&self, r: Rank) -> [u32; 3] {
        [
            r % self.dims[0],
            (r / self.dims[0]) % self.dims[1],
            r / (self.dims[0] * self.dims[1]),
        ]
    }

    /// Rank at coordinates.
    pub fn rank(&self, c: [u32; 3]) -> Rank {
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Face neighbor of `r` along `dim` in direction `dir` (+1/-1), if any
    /// (non-periodic).
    pub fn neighbor(&self, r: Rank, dim: usize, dir: i32) -> Option<Rank> {
        let mut c = self.coord(r);
        let v = c[dim] as i64 + dir as i64;
        if v < 0 || v >= self.dims[dim] as i64 {
            return None;
        }
        c[dim] = v as u32;
        Some(self.rank(c))
    }
}

/// One non-periodic 3D halo exchange: every rank swaps `face_bytes` with
/// each existing face neighbor. Eager sends make the boundary cases safe.
fn halo_exchange(t: &mut Trace, grid: &RankGrid, face_bytes: u64, tag_base: u32) {
    let n = grid.len();
    for dim in 0..3usize {
        for (di, dir) in [(0u32, 1i32), (1u32, -1i32)] {
            let tag = tag_base + (dim as u32) * 2 + di;
            for r in 0..n {
                let fwd = grid.neighbor(r, dim, dir);
                let back = grid.neighbor(r, dim, -dir);
                match (fwd, back) {
                    (Some(to), Some(from)) => t.push(
                        r,
                        MpiOp::SendRecv { to, bytes: face_bytes, stag: tag, from, rtag: tag },
                    ),
                    (Some(to), None) => t.push(r, MpiOp::Send { to, bytes: face_bytes, tag }),
                    (None, Some(from)) => t.push(r, MpiOp::Recv { from, tag }),
                    (None, None) => {}
                }
            }
        }
    }
}

/// HPCG: conjugate-gradient iterations on a 27-point stencil. Per
/// iteration: one halo exchange (face = `nx² × 8` bytes), a memory-bound
/// SpMV+MG compute phase, and two 8-byte dot-product allreduces.
pub fn hpcg(n_ranks: u32, nx: u32, iters: u32, m: &MachineModel) -> Trace {
    let grid = RankGrid::for_ranks(n_ranks);
    let mut t = Trace::new(format!("hpcg-{n_ranks}r-{nx}^3-x{iters}"), n_ranks);
    let face = (nx as u64) * (nx as u64) * 8;
    // SpMV + MG sweep streams the local cube several times (27-pt stencil
    // plus smoother): ~20 passes over nx^3 * 8 bytes.
    let compute = m.mem_ns((nx as f64).powi(3) * 8.0 * 20.0);
    let mut tag = 0;
    for _ in 0..iters {
        halo_exchange(&mut t, &grid, face, tag);
        tag += 8;
        for r in 0..n_ranks {
            t.push(r, MpiOp::Compute { ns: compute });
        }
        for _ in 0..2 {
            collectives::allreduce(&mut t, 8, tag);
            tag += 2 * n_ranks + 2;
        }
    }
    t
}

/// HPL: LU factorization. Per iteration `k`: pipelined ring broadcast of
/// the shrinking panel, a tiny pivot allreduce, and the flop-heavy trailing
/// update `2·nb·(N-k·nb)²/P`.
///
/// Real HPL hides most of the panel broadcast behind the trailing update
/// (lookahead); we model that overlap by putting only a quarter of the
/// panel bytes on the blocking path.
pub fn hpl(n_ranks: u32, matrix_n: u64, nb: u64, m: &MachineModel) -> Trace {
    let mut t = Trace::new(format!("hpl-{n_ranks}r-N{matrix_n}-nb{nb}"), n_ranks);
    let iters = (matrix_n / nb).min(24); // cap trace length
    let lookahead_divisor = 4;
    let mut tag = 0;
    for k in 0..iters {
        let remaining = matrix_n - k * nb;
        let panel_bytes = remaining * nb * 8 / lookahead_divisor;
        let root = (k % n_ranks as u64) as Rank;
        collectives::ring_bcast(&mut t, root, panel_bytes.max(1), tag);
        tag += n_ranks + 1;
        collectives::allreduce(&mut t, 16, tag);
        tag += 2 * n_ranks + 2;
        let flops = 2.0 * nb as f64 * (remaining as f64).powi(2) / n_ranks as f64;
        for r in 0..n_ranks {
            t.push(r, MpiOp::Compute { ns: m.flops_ns(flops) });
        }
    }
    t
}

/// miniGhost (BSPMA mode): `vars` variables each exchange halos every
/// timestep, followed by one memory-bound stencil sweep over all variables
/// and a grid-checksum allreduce every 5th step.
pub fn minighost(n_ranks: u32, nx: u32, vars: u32, iters: u32, m: &MachineModel) -> Trace {
    let grid = RankGrid::for_ranks(n_ranks);
    let mut t = Trace::new(format!("minighost-{n_ranks}r-{nx}^3-v{vars}-x{iters}"), n_ranks);
    let face = (nx as u64) * (nx as u64) * 8 * vars as u64;
    // One 27-pt sweep over all variables: ~4 passes of nx^3 * 8 * vars.
    let compute = m.mem_ns((nx as f64).powi(3) * 8.0 * vars as f64 * 4.0);
    let mut tag = 0;
    for it in 0..iters {
        halo_exchange(&mut t, &grid, face, tag);
        tag += 8;
        for r in 0..n_ranks {
            t.push(r, MpiOp::Compute { ns: compute });
        }
        if it % 5 == 4 {
            collectives::allreduce(&mut t, 8 * vars as u64, tag);
            tag += 2 * n_ranks + 2;
        }
    }
    t
}

/// miniFE: finite-element assembly followed by a CG solve. Per CG
/// iteration: halo exchange, one light SpMV sweep, two dot allreduces.
pub fn minife(n_ranks: u32, nx: u32, cg_iters: u32, m: &MachineModel) -> Trace {
    let grid = RankGrid::for_ranks(n_ranks);
    let mut t = Trace::new(format!("minife-{n_ranks}r-{nx}^3-x{cg_iters}"), n_ranks);
    // Assembly: one pass, amortized over the solve.
    let assembly = m.mem_ns((nx as f64).powi(3) * 8.0 * 2.0);
    for r in 0..n_ranks {
        t.push(r, MpiOp::Compute { ns: assembly });
    }
    let face = (nx as u64) * (nx as u64) * 8;
    let compute = m.mem_ns((nx as f64).powi(3) * 8.0 * 3.0);
    let mut tag = 100;
    for _ in 0..cg_iters {
        halo_exchange(&mut t, &grid, face, tag);
        tag += 8;
        for r in 0..n_ranks {
            t.push(r, MpiOp::Compute { ns: compute });
        }
        for _ in 0..2 {
            collectives::allreduce(&mut t, 8, tag);
            tag += 2 * n_ranks + 2;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_produce_valid_traces() {
        let m = MachineModel::default();
        let traces = [
            imb_pingpong(4096, 10),
            imb_alltoall(8, 4096, 3),
            hpcg(8, 32, 4, &m),
            hpl(8, 2048, 128, &m),
            minighost(8, 32, 4, 10, &m),
            minife(8, 24, 6, &m),
        ];
        for t in &traces {
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", t.name));
            assert!(t.total_bytes() > 0, "{}", t.name);
        }
    }

    #[test]
    fn rank_grid_factorization() {
        assert_eq!(RankGrid::for_ranks(8).dims, [2, 2, 2]);
        assert_eq!(RankGrid::for_ranks(12).len(), 12);
        let g = RankGrid::for_ranks(32);
        assert_eq!(g.len(), 32);
        assert!(*g.dims.iter().max().unwrap() <= 8, "{:?}", g.dims);
    }

    #[test]
    fn rank_grid_neighbors() {
        let g = RankGrid { dims: [2, 2, 2] };
        assert_eq!(g.neighbor(0, 0, 1), Some(1));
        assert_eq!(g.neighbor(0, 0, -1), None);
        assert_eq!(g.neighbor(0, 2, 1), Some(4));
        for r in 0..8 {
            let c = g.coord(r);
            assert_eq!(g.rank(c), r);
        }
    }

    /// Rough communication fraction of a trace at a given link speed: wire
    /// time of the busiest rank over (wire + compute). Sanity-checks the
    /// Table IV ordering; not a simulator.
    fn comm_fraction(t: &Trace, gbps: f64) -> f64 {
        let bytes_per_ns = gbps / 8.0;
        let wire: f64 = t
            .ranks
            .iter()
            .map(|r| r.bytes_sent() as f64 / bytes_per_ns)
            .fold(0.0, f64::max);
        let compute = t.max_compute_ns() as f64;
        wire / (wire + compute).max(1.0)
    }

    #[test]
    fn table4_comm_fraction_ordering() {
        // The speedup ordering of Table IV requires:
        // HPL < HPCG < miniGhost < miniFE < IMB (pure comm).
        let m = MachineModel::default();
        let gbps = 10.0;
        let hpl_f = comm_fraction(&hpl(8, 16384, 64, &m), gbps);
        let hpcg_f = comm_fraction(&hpcg(8, 48, 8, &m), gbps);
        let mg_f = comm_fraction(&minighost(8, 48, 40, 8, &m), gbps);
        let mf_f = comm_fraction(&minife(8, 24, 12, &m), gbps);
        let imb_f = comm_fraction(&imb_alltoall(8, 65536, 4), gbps);
        assert!(hpl_f < hpcg_f, "hpl {hpl_f} vs hpcg {hpcg_f}");
        assert!(hpcg_f < mg_f, "hpcg {hpcg_f} vs minighost {mg_f}");
        assert!(mg_f < mf_f, "minighost {mg_f} vs minife {mf_f}");
        assert!(mf_f < imb_f, "minife {mf_f} vs imb {imb_f}");
        assert!(imb_f > 0.99, "imb {imb_f}");
    }

    #[test]
    fn permutation_shift_valid_and_sized() {
        let t = permutation_shift(32, 8, 4096, 3);
        t.validate().unwrap();
        assert_eq!(t.total_bytes(), 32 * 3 * 4096);
    }

    #[test]
    fn pingpong_alternates() {
        let t = imb_pingpong(64, 3);
        assert_eq!(t.ranks[0].ops.len(), 6);
        assert!(matches!(t.ranks[0].ops[0], MpiOp::Send { to: 1, .. }));
        assert!(matches!(t.ranks[1].ops[0], MpiOp::Recv { from: 0, .. }));
    }

    #[test]
    fn hpl_panels_shrink() {
        let m = MachineModel::default();
        let t = hpl(4, 1024, 128, &m);
        t.validate().unwrap();
        // Total bcast bytes decrease over iterations; just check totals are
        // bounded by the first panel x iterations x tree fanout.
        assert!(t.total_bytes() < 8 * 1024 * 128 * 8 * 2);
    }

    #[test]
    fn halo_boundary_ranks_send_less() {
        let m = MachineModel::default();
        let t = hpcg(27, 16, 1, &m); // 3x3x3 grid
        let center = RankGrid { dims: [3, 3, 3] }.rank([1, 1, 1]);
        // The center rank swaps 6 faces, a corner only 3.
        let halo_bytes = |r: usize| {
            t.ranks[r]
                .ops
                .iter()
                .map(|op| match op {
                    MpiOp::Send { bytes, .. } | MpiOp::SendRecv { bytes, .. } if *bytes > 8 => {
                        *bytes
                    }
                    _ => 0,
                })
                .sum::<u64>()
        };
        assert_eq!(halo_bytes(center as usize), 2 * halo_bytes(0));
    }
}
