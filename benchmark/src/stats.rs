//! Order statistics for the benchmark's own reporting: fast deciles,
//! medians and quartiles of per-unit measurements, and the tail rule for
//! per-request latencies.

use sdt_par::stats::percentile_sorted;

/// Sort a copy ascending. Measurements are finite by construction.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count). `NaN` when empty, so
/// a workload that produced no samples cannot pass for a measurement.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which end of a sample is the fast one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fast {
    /// Times: smaller is faster.
    Low,
    /// Rates: larger is faster.
    High,
}

/// The fast decile of per-unit measurements (nearest rank: the
/// `ceil(n / 10)`-th fastest; the fastest itself up to ten samples). What a
/// shared host does to a timing is one-sided — a neighbour only ever adds
/// time — so the fast end of many repeats of equal work estimates what the
/// program costs, where their median follows the host's load (the README
/// has the measurements). `NaN` when empty.
pub fn fast_decile(values: &[f64], end: Fast) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = v.len().div_ceil(10) - 1;
    match end {
        Fast::Low => v[rank],
        Fast::High => v[last - rank],
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` — the rule the acceptance check
/// applies across runs — so in-run and across-run spreads mean the same
/// thing. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const BEYOND: usize = 10;

/// The highest candidate percentile with at least [`BEYOND`] samples beyond
/// its nearest-rank position, as `(percentile, value)`. `None` when even
/// p90 is unsupported (fewer than 100 samples).
pub fn tail(sorted_ns: &[u64]) -> Option<(f64, u64)> {
    let n = sorted_ns.len();
    TAILS.iter().find_map(|&p| {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + BEYOND)
            .then(|| percentile_sorted(sorted_ns, p).map(|v| (p, v)))
            .flatten()
    })
}

/// Nearest-rank median of a latency sample in ns (0 when empty).
pub fn p50_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, 0.5).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_follow_the_python_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fast_decile_is_the_fast_end_by_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(fast_decile(&v, Fast::Low), 1.0);
        assert_eq!(fast_decile(&v, Fast::High), 10.0);
        // 11 to 20 samples: the second fastest.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(fast_decile(&v, Fast::Low), 2.0);
        assert_eq!(fast_decile(&v, Fast::High), 10.0);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&v, Fast::Low), 10.0);
        assert_eq!(fast_decile(&v, Fast::High), 91.0);
        assert_eq!(fast_decile(&[7.0], Fast::Low), 7.0);
        assert!(fast_decile(&[], Fast::High).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(100));
        assert_eq!(percentile_sorted(&v, 0.99), Some(198));
        let mut unsorted = vec![9, 1, 5];
        assert_eq!(p50_ns(&mut unsorted), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 sits at rank 90, leaving 9 beyond — unsupported.
        let v: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&v), None);
        // 100 samples: rank 90 leaves exactly 10 beyond.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v), Some((0.9, 90)));
        // 1000 samples: p99 (rank 990) leaves 10; p999 (rank 999) leaves 1.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), Some((0.99, 990)));
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), Some((0.999, 9990)));
    }
}
