//! Telemetry reports: the analysis layer on top of the Network Monitor's
//! raw counters (§V-3 "the collected data can be further used...").

use crate::engine::{Simulator, Time};
use sdt_topology::SwitchId;

/// Flow-completion-time distribution over finished flows.
///
/// Percentiles use the nearest-rank definition: `p`-th percentile = the
/// `ceil(p · n)`-th smallest sample. Unlike rounding an interpolated index,
/// nearest-rank never reports a value below the true percentile — with few
/// samples the tail (p99/p999) otherwise under-reports badly, e.g. for
/// n = 67 a rounded `(n-1)·p` index picks the third-largest sample as "p99".
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FctSummary {
    /// Finished flows.
    pub count: usize,
    /// Mean FCT, ns.
    pub mean_ns: f64,
    /// Median FCT, ns.
    pub p50_ns: u64,
    /// 99th percentile FCT, ns.
    pub p99_ns: u64,
    /// 99.9th percentile FCT, ns.
    pub p999_ns: u64,
    /// Maximum FCT, ns.
    pub max_ns: u64,
}

impl FctSummary {
    /// Summarize a set of completion times (ns). Order irrelevant. The
    /// percentile arithmetic is [`sdt_par::stats`] — the one nearest-rank
    /// implementation shared with the benchmark artifacts.
    pub fn from_durations(mut fcts: Vec<u64>) -> FctSummary {
        fcts.sort_unstable();
        let s = sdt_par::stats::LatencySummary::from_sorted_ns(&fcts);
        FctSummary {
            count: s.count,
            mean_ns: s.mean_ns,
            p50_ns: s.p50_ns,
            p99_ns: s.p99_ns,
            p999_ns: s.p999_ns,
            max_ns: s.max_ns,
        }
    }
}

/// Utilization of one directed fabric channel.
#[derive(Clone, Copy, Debug)]
pub struct ChannelUtilization {
    /// Upstream switch.
    pub from: SwitchId,
    /// Downstream switch.
    pub to: SwitchId,
    /// Bytes carried over the whole run.
    pub bytes: u64,
    /// Fraction of the channel's capacity used (0..1).
    pub utilization: f64,
}

impl Simulator {
    /// Flow-completion-time summary over all finished flows: one pass over
    /// the bulk [`Simulator::flow_records`] export, no per-id snapshots.
    pub fn fct_summary(&self) -> FctSummary {
        let fcts: Vec<Time> =
            self.flow_records().into_iter().filter_map(|r| r.fct_ns).collect();
        FctSummary::from_durations(fcts)
    }

    /// Per-channel utilization over the run so far, sorted hottest-first.
    /// Only switch↔switch channels are reported (host links mirror them).
    pub fn utilization_report(&self) -> Vec<ChannelUtilization> {
        let elapsed = self.now_ns().max(1) as f64;
        let cap = self.config().bytes_per_ns() * elapsed;
        let mut rows: Vec<ChannelUtilization> = self
            .fabric_channels()
            .map(|(from, to, bytes)| ChannelUtilization {
                from,
                to,
                bytes,
                utilization: bytes as f64 / cap,
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.bytes));
        rows
    }

    /// The max-link-utilization hotspot factor: hottest channel's bytes over
    /// the mean channel's bytes (1.0 = perfectly balanced fabric).
    pub fn hotspot_factor(&self) -> f64 {
        let rows = self.utilization_report();
        if rows.is_empty() {
            return 1.0;
        }
        let max = rows[0].bytes as f64;
        let mean = rows.iter().map(|r| r.bytes as f64).sum::<f64>() / rows.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{SimConfig, Simulator};
    use sdt_routing::{generic::Bfs, RouteTable};
    use sdt_topology::chain::chain;
    use sdt_topology::HostId;

    fn run_two_flows() -> Simulator {
        let t = chain(4);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let mut sim = Simulator::new(&t, routes, SimConfig::default());
        sim.start_raw_flow(HostId(0), HostId(3), 600_000);
        sim.start_raw_flow(HostId(0), HostId(1), 150_000);
        sim.run();
        sim
    }

    #[test]
    fn fct_summary_orders_percentiles() {
        let sim = run_two_flows();
        let s = sim.fct_summary();
        assert_eq!(s.count, 2);
        assert!(s.p50_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
        assert!(s.mean_ns > 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        use crate::telemetry::FctSummary;
        // n = 2: the median is the *first* sample under nearest-rank
        // (rank ceil(0.5·2) = 1), not the second.
        let s = FctSummary::from_durations(vec![20, 10]);
        assert_eq!((s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns), (10, 20, 20, 20));

        // n = 67 distinct samples 1..=67: rank ceil(0.99·67) = 67, so p99
        // is the maximum. The old rounded (n-1)·p index computed
        // round(66·0.99) = 65, reporting the third-largest sample as p99.
        let s = FctSummary::from_durations((1..=67).collect());
        assert_eq!(s.p99_ns, 67);
        assert_eq!(s.p50_ns, 34); // rank ceil(33.5) = 34
        assert_eq!(s.p999_ns, 67);

        // Large n: p999 sits between p99 and max.
        let s = FctSummary::from_durations((1..=10_000).collect());
        assert_eq!(s.p50_ns, 5_000);
        assert_eq!(s.p99_ns, 9_900);
        assert_eq!(s.p999_ns, 9_990);
        assert_eq!(s.max_ns, 10_000);

        // Single sample: every percentile is that sample.
        let s = FctSummary::from_durations(vec![42]);
        assert_eq!((s.count, s.p50_ns, s.p999_ns), (1, 42, 42));
    }

    #[test]
    fn fct_summary_empty_when_nothing_finished() {
        let t = chain(3);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let sim = Simulator::new(&t, routes, SimConfig::default());
        assert_eq!(sim.fct_summary().count, 0);
    }

    #[test]
    fn flow_records_match_per_id_stats() {
        let sim = run_two_flows();
        let records = sim.flow_records();
        assert_eq!(records.len(), sim.num_flows() as usize);
        for (id, r) in records.iter().enumerate() {
            let st = sim.flow_stats(id as u32);
            assert_eq!((r.src_host, r.dst_host, r.start), (st.src_host, st.dst_host, st.start));
            assert_eq!(r.fct_ns, st.finish.map(|t| t - st.start));
        }
        assert_eq!((records[0].bytes, records[1].bytes), (600_000, 150_000));
    }

    #[test]
    fn scheduled_flow_starts_at_its_time() {
        // A flow scheduled at t must behave exactly like one started by a
        // caller at t: same start stamp, same FCT as an immediate start of
        // an otherwise idle fabric.
        let t = chain(4);
        let routes = RouteTable::build(&t, &Bfs::new(&t));
        let mut immediate = Simulator::new(&t, routes.clone(), SimConfig::default());
        immediate.start_raw_flow(HostId(0), HostId(3), 150_000);
        immediate.run();
        let base = match immediate.flow_records()[0].fct_ns {
            Some(f) => f,
            None => unreachable!("flow finished"),
        };

        let mut sim = Simulator::new(&t, routes, SimConfig::default());
        sim.schedule_raw_flow(HostId(0), HostId(3), 150_000, 5_000_000);
        // Same-host scheduled flow: fixed engine constant, at its own time.
        sim.schedule_raw_flow(HostId(2), HostId(2), 1_000, 7_000_000);
        assert_eq!(sim.run(), crate::SimOutcome::Completed);
        let recs = sim.flow_records();
        assert_eq!(recs[0].start, 5_000_000);
        assert_eq!(recs[0].fct_ns, Some(base));
        assert_eq!((recs[1].start, recs[1].fct_ns), (7_000_000, Some(1_000)));
    }

    #[test]
    fn utilization_hottest_channel_first() {
        let sim = run_two_flows();
        let rows = sim.utilization_report();
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].bytes >= w[1].bytes);
        }
        // The s0->s1 channel carried both flows' bytes.
        let top = &rows[0];
        assert_eq!((top.from.0, top.to.0), (0, 1));
        assert!(top.bytes >= 750_000);
        assert!(top.utilization > 0.0 && top.utilization <= 1.0);
    }

    #[test]
    fn hotspot_factor_reflects_skew() {
        let sim = run_two_flows();
        // Traffic concentrated near switch 0: clearly unbalanced.
        assert!(sim.hotspot_factor() > 1.5, "{}", sim.hotspot_factor());
    }
}
