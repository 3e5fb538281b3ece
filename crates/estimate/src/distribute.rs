//! Stage 3: run the representative link simulations in parallel.
//!
//! Each representative is an independent [`link_delays`] sweep — no shared
//! state, no ordering constraints — so this is an embarrassingly parallel
//! fan-out over `sdt_par`. Link workloads are wildly uneven (a core link
//! in a loaded fat-tree carries orders of magnitude more flows than a
//! quiet edge link), so the fan-out uses the *weighted* variant with an
//! `n log n` cost model matching the sweep's heap complexity; LPT
//! assignment keeps the heaviest links from serializing the tail. The
//! result is order-preserving and byte-identical at any thread count —
//! `sdt_par`'s contract, leaned on by the thread-invariance tests.

use crate::cluster::Clustering;
use crate::linksim::{link_delays, CanonicalWorkload, LinkDelay};

/// Delay vectors for every *channel* (not just every representative):
/// representative `r`'s vector is computed once and shared by reference
/// counting into each member channel's slot index.
#[derive(Clone, Debug)]
pub struct LinkDelays {
    /// Per representative: per-canonical-entry queueing delay terms.
    rep_delays: Vec<Vec<LinkDelay>>,
    rep_of: Vec<u32>,
}

impl LinkDelays {
    /// Simulate each representative's workload on `threads` threads
    /// (`0`, like `1`, is the plain sequential map).
    /// `park_cap` is the per-link standing-queue cap in bytes (the VC
    /// buffer under lossless flow control).
    pub fn compute(
        workloads: &[CanonicalWorkload],
        clustering: &Clustering,
        bytes_per_ns: f64,
        park_cap: u64,
        threads: usize,
    ) -> Self {
        let reps: Vec<&CanonicalWorkload> =
            clustering.reps.iter().map(|&ci| &workloads[ci as usize]).collect();
        let rep_delays = sdt_par::par_map_weighted_threads(
            threads,
            &reps,
            |w| {
                // The sweep is an O(n log n) event sort; +1 keeps empty
                // and singleton workloads from weighing zero.
                let n = w.entries.len() as u64;
                n * (64 - n.leading_zeros() as u64) + 1
            },
            |w| link_delays(w, bytes_per_ns, park_cap),
        );
        LinkDelays { rep_delays, rep_of: clustering.rep_of.clone() }
    }

    /// Queueing delay terms of canonical entry `pos` on channel `ch`.
    pub fn delay(&self, ch: u32, pos: u32) -> LinkDelay {
        self.rep_delays[self.rep_of[ch as usize] as usize][pos as usize]
    }

    /// Number of simulated representatives.
    pub fn num_representatives(&self) -> usize {
        self.rep_delays.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(entries: &[(u64, u64)]) -> CanonicalWorkload {
        CanonicalWorkload { entries: entries.to_vec() }
    }

    #[test]
    fn clustered_channels_share_delay_vectors() {
        let ws = vec![w(&[(0, 1_000), (0, 1_000)]), w(&[(0, 1_000), (0, 1_000)]), w(&[(0, 5)])];
        let on = Clustering::build(&ws, true);
        let off = Clustering::build(&ws, false);
        let d_on = LinkDelays::compute(&ws, &on, 1.25, 96_000, 1);
        let d_off = LinkDelays::compute(&ws, &off, 1.25, 96_000, 1);
        assert_eq!(d_on.num_representatives(), 2);
        assert_eq!(d_off.num_representatives(), 3);
        for ch in 0..3u32 {
            for pos in 0..ws[ch as usize].entries.len() as u32 {
                assert_eq!(d_on.delay(ch, pos), d_off.delay(ch, pos), "ch {ch} pos {pos}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_delays() {
        let ws: Vec<CanonicalWorkload> = (0..40)
            .map(|i| {
                w(&(0..(i % 7 + 1)).map(|j| (j * 13 % 50, 100 + i * 37 + j)).collect::<Vec<_>>())
            })
            .collect();
        let c = Clustering::build(&ws, true);
        let base = LinkDelays::compute(&ws, &c, 1.25, 96_000, 1);
        for t in [2usize, 4, 8] {
            let d = LinkDelays::compute(&ws, &c, 1.25, 96_000, t);
            assert_eq!(d.rep_delays, base.rep_delays, "threads={t}");
        }
    }
}
