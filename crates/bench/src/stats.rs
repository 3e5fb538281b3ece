//! Latency/percentile statistics for benchmark artifacts.
//!
//! The implementation lives in [`sdt_par::stats`] — the bottom of the
//! dependency stack — so the simulator's FCT telemetry
//! (`sdt_sim::telemetry::FctSummary`) and the benchmark writers here use
//! the *same* nearest-rank arithmetic instead of three hand-rolled copies.
//! This module adds the JSON rendering the artifact binaries share.

use sdt_par::stats::LatencySummary;

/// Render a [`LatencySummary`] as the JSON object every `BENCH_*.json`
/// artifact embeds for a latency distribution (integer ns fields, mean as
/// a float).
pub fn latency_json(s: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{:.1},\"min_ns\":{},\"p50_ns\":{},\
         \"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
        s.count, s.mean_ns, s.min_ns, s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_all_tail_fields() {
        let j = latency_json(&LatencySummary::from_ns(vec![5, 1, 3]));
        for key in ["count", "mean_ns", "min_ns", "p50_ns", "p99_ns", "p999_ns", "max_ns"] {
            assert!(j.contains(key), "{key} missing from {j}");
        }
        assert!(j.contains("\"count\":3"));
        assert!(j.contains("\"min_ns\":1"));
        assert!(j.contains("\"max_ns\":5"));
    }
}
