//! The benchmark's own seeded generator (SplitMix64): request schedules,
//! tenant orders and the per-unit sub-seeds all come from here, so one
//! `--seed` fixes every input. The library crates keep their own seeded
//! generators (`poisson_flows`, `select_nodes`) and receive sub-seeds.

/// SplitMix64 — tiny, stateless to seed, and good enough to order requests.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here (n ≤ a few thousand against 2^64).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The input seed of timed unit `unit` (unit 0 is the warm-up, whose
/// simulated counts are the pinned ones). Every unit draws a fresh input so
/// one run averages over inputs instead of re-measuring a single draw.
pub fn sub_seed(seed: u64, unit: usize) -> u64 {
    Rng::new(seed ^ (unit as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(2023), draw(2023));
        assert_ne!(draw(2023), draw(7));
        assert_ne!(sub_seed(2023, 0), sub_seed(2023, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..32).collect();
        Rng::new(1).shuffle(&mut v);
        assert_ne!(v, (0..32).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..32).collect::<Vec<_>>());
    }
}
