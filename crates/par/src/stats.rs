//! Nearest-rank order statistics, shared by every latency report in the
//! workspace.
//!
//! The simulator's FCT telemetry (PR 3), the controller benchmarks and the
//! daemon's request-latency tails all need the same thing: percentiles of
//! an unordered sample of durations. They all use the *nearest-rank*
//! definition — the `p`-th percentile of `n` sorted samples is the value at
//! 1-based rank `ceil(p·n)`, clamped into `[1, n]` — because it never
//! reports a value below the true percentile. With few samples an
//! interpolating estimator under-reports the tail badly: for two samples
//! `{10, 20}` it would claim a p99 of ~19.9, while nearest-rank honestly
//! says 20.
//!
//! The module lives in `sdt-par` (the bottom of the dependency stack) so
//! `sdt-sim`'s telemetry and the `benchmark/` workloads can share one
//! implementation.

/// Nearest-rank percentile of an **already sorted** slice: the value at
/// 1-based rank `ceil(p·n)`, clamped into `[1, n]`. `None` on an empty
/// slice. `p` outside `[0, 1]` clamps to the extremes rather than panic —
/// callers pass literals like `0.999`, and a typo should misreport, not
/// abort a long benchmark run.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Summary of a latency sample in nanoseconds: count, mean, and the
/// nearest-rank tail percentiles every artifact in this workspace reports.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Minimum, ns.
    pub min_ns: u64,
    /// Median (nearest-rank p50), ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarize an **already sorted** sample without copying or
    /// re-sorting it (callers keep their samples sorted anyway: the
    /// simulator's FCT telemetry). Sortedness is the caller's contract —
    /// checked only under `debug_assertions`, since verifying it is the
    /// O(n) scan this entry point exists to avoid.
    pub fn from_sorted_ns(sorted: &[u64]) -> LatencySummary {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted ascending");
        if sorted.is_empty() {
            return LatencySummary::default();
        }
        let n = sorted.len();
        let pct = |p: f64| match percentile_sorted(sorted, p) {
            Some(v) => v,
            None => unreachable!("sorted is non-empty"),
        };
        LatencySummary {
            count: n,
            mean_ns: sorted.iter().sum::<u64>() as f64 / n as f64,
            min_ns: sorted[0],
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            p999_ns: pct(0.999),
            max_ns: sorted[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile_sorted::<u64>(&[], 0.5), None);
        assert_eq!(LatencySummary::from_sorted_ns(&[]), LatencySummary::default());
    }

    #[test]
    fn nearest_rank_never_under_reports() {
        // Two samples: p50 is the smaller, everything above is the larger.
        assert_eq!(percentile_sorted(&[10u64, 20], 0.50), Some(10));
        assert_eq!(percentile_sorted(&[10u64, 20], 0.99), Some(20));
        // 67 samples: ceil(0.99 * 67) = 67.
        let v: Vec<u64> = (1..=67).collect();
        assert_eq!(percentile_sorted(&v, 0.99), Some(67));
        // Large n: p999 sits between p99 and max.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile_sorted(&v, 0.99), Some(9900));
        assert_eq!(percentile_sorted(&v, 0.999), Some(9990));
    }

    #[test]
    fn out_of_range_p_clamps() {
        let v = [1u64, 2, 3];
        assert_eq!(percentile_sorted(&v, -1.0), Some(1));
        assert_eq!(percentile_sorted(&v, 2.0), Some(3));
        // NaN propagates through `p·n` and `ceil`, then `as usize` maps it
        // to 0, which the rank clamp pins to 1: the minimum, not a panic.
        assert_eq!(percentile_sorted(&v, f64::NAN), Some(1));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        // With one sample every rank clamps to 1, so every percentile —
        // including p0 (rank ceil(0)=0, clamped up) and p100 — reports the
        // sample itself. Tail percentiles of a one-shot measurement must
        // be that measurement, never a synthetic value.
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(percentile_sorted(&[42u64], p), Some(42));
        }
        let s = LatencySummary::from_sorted_ns(&[42]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_ns, 42.0);
        assert_eq!(
            (s.min_ns, s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns),
            (42, 42, 42, 42, 42),
            "all order statistics of one sample are that sample"
        );
    }

    #[test]
    fn summary_orders_percentiles() {
        let s = LatencySummary::from_sorted_ns(&(1..=1000).collect::<Vec<u64>>());
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 1000);
        assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p99_ns, 990);
    }
}
