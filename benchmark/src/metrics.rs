//! The metric catalogue — the one place a metric's name, unit, direction
//! and bound are written down — and the container a run fills.
//!
//! `BENCHMARK.json` repeats this catalogue for the driver; a test keeps the
//! two identical. Every workload emits every metric of the list its run
//! mode selects (the driver's contract): a layer the workload never enters
//! reports 0 busy time and 0 work, which is what it did.

use crate::stats::{self, Fast};
use sdt::controller::Json;

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue row. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Each applies to every workload — see the
/// README for what `work` is on each. Timings are fast deciles over a run's
/// repeats ([`stats::fast_decile`]), not medians.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single layers, from the traced run. Counts (unit `count`) repeat exactly
/// for a given seed; tallies that grow with the number of units a run fits
/// into its time budget carry the unit `n` instead.
pub const PER_LAYER: &[MetricDef] = &[
    layer("unit_wall_s", "s", Lower),
    layer("units", "n", Higher),
    layer("trace_overhead_share", "ratio", Lower),
    layer("par.threads", "count", Higher),
    layer("verify.threads", "count", Higher),
    // controller
    layer("controller.jsonv.parse_us", "us", Lower),
    layer("controller.jsonv.emit_us", "us", Lower),
    layer("controller.config.parse_us", "us", Lower),
    layer("controller.output.render_us", "us", Lower),
    // sdtd
    layer("sdtd.wire.ping_p50_us", "us", Lower),
    layer("sdtd.wire.rtt_tail_ms", "ms", Lower),
    layer("sdtd.wire.rtt_tail_pct", "%", Higher),
    layer("sdtd.wire.queue_us", "us", Lower),
    layer("sdtd.write_p50_ms", "ms", Lower),
    layer("sdtd.read_p50_ms", "ms", Lower),
    layer("sdtd.rejections", "count", Lower),
    layer("sdtd.batch.count", "n", Higher),
    layer("sdtd.batch.largest", "n", Higher),
    layer("sdtd.batch.mean_ops", "n", Higher),
    layer("sdtd.snapshot.writes", "n", Lower),
    layer("sdtd.snapshot.bytes", "bytes", Lower),
    layer("sdtd.snapshot.encode_us", "us", Lower),
    layer("sdtd.snapshot.write_us", "us", Lower),
    layer("sdtd.snapshot.restore_ms", "ms", Lower),
    // tenancy
    layer("tenancy.admit_us", "us", Lower),
    layer("tenancy.migrate_us", "us", Lower),
    layer("tenancy.destroy_us", "us", Lower),
    layer("tenancy.batch_us_per_op", "us", Lower),
    layer("tenancy.schedule.compile_ms", "ms", Lower),
    layer("tenancy.schedule.rounds", "count", Lower),
    layer("tenancy.epoch.mods", "count", Lower),
    // routing
    layer("routing.build_ms", "ms", Lower),
    layer("routing.sparse_build_ms", "ms", Lower),
    layer("routing.lookup_ns", "ns", Lower),
    // core
    layer("core.project_ms", "ms", Lower),
    layer("core.synthesize_ms", "ms", Lower),
    layer("core.instantiate_ms", "ms", Lower),
    // verify
    layer("verify.cold_ms", "ms", Lower),
    layer("verify.cached_cold_ms", "ms", Lower),
    layer("verify.cached_warm_ms", "ms", Lower),
    layer("verify.delta_ms", "ms", Lower),
    layer("verify.empty_delta_us", "us", Lower),
    layer("verify.pairs_checked", "count", Higher),
    layer("verify.pairs_walked_full", "count", Lower),
    layer("verify.pairs_replayed", "count", Higher),
    layer("verify.cache_hits", "count", Higher),
    layer("verify.cache_misses", "count", Lower),
    layer("verify.walk_ratio", "ratio", Lower),
    // openflow
    layer("openflow.diff_ms", "ms", Lower),
    layer("openflow.apply_mods_per_s", "1/s", Higher),
    layer("openflow.lookup_ns", "ns", Lower),
    layer("openflow.table_entries", "count", Lower),
    // sim
    layer("sim.new_ms", "ms", Lower),
    layer("sim.schedule_ms", "ms", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.telemetry_ms", "ms", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.cells_delivered", "count", Higher),
    layer("sim.events_per_cell", "ratio", Lower),
    layer("sim.sim_ns", "ns", Lower),
    layer("sim.fct_p50_ns", "ns", Lower),
    layer("sim.fct_p99_ns", "ns", Lower),
    layer("sim.peak_queue_bytes", "count", Lower),
    layer("sim.drops", "count", Lower),
    layer("sim.mpi.act_ns", "ns", Lower),
    // workloads
    layer("workloads.generate_ms", "ms", Lower),
    // estimate
    layer("estimate.decompose_ms", "ms", Lower),
    layer("estimate.cluster_ms", "ms", Lower),
    layer("estimate.simulate_ms", "ms", Lower),
    layer("estimate.aggregate_ms", "ms", Lower),
    layer("estimate.crossings", "count", Lower),
    layer("estimate.channels", "count", Lower),
    layer("estimate.representatives", "count", Lower),
    layer("estimate.collapse_ratio", "ratio", Higher),
    layer("estimate.mean_err", "ratio", Lower),
    layer("estimate.p99_err", "ratio", Lower),
];

/// One reported value, with the in-run distribution behind it when the
/// value is taken from several samples.
#[derive(Clone, Debug)]
pub struct Value {
    pub def: MetricDef,
    pub value: f64,
    /// `(q1, median, q3, n)` of the samples the value is taken from.
    pub dist: Option<(f64, f64, f64, usize)>,
}

/// The metrics of one run: exactly one catalogue list, every entry present.
#[derive(Clone, Debug)]
pub struct Metrics {
    values: Vec<Value>,
}

impl Metrics {
    /// All of `defs`, each at 0 until set.
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            values: defs
                .iter()
                .map(|&def| Value {
                    def,
                    value: 0.0,
                    dist: None,
                })
                .collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut Value {
        match self.values.iter_mut().find(|v| v.def.name == name) {
            Some(v) => v,
            None => panic!("metric `{name}` is not in this run's catalogue"),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.slot(name).value = value;
    }

    /// Report the fast decile of `samples` — the low one of times, the high
    /// one of rates — keeping their median, quartiles and count.
    pub fn set_fast(&mut self, name: &str, samples: &[f64]) {
        let slot = self.slot(name);
        let end = match slot.def.better {
            Lower => Fast::Low,
            Higher => Fast::High,
        };
        slot.value = stats::fast_decile(samples, end);
        slot.dist = stats::quartiles(samples)
            .map(|(q1, q3)| (q1, stats::median(samples), q3, samples.len()));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        match self.values.iter().find(|v| v.def.name == name) {
            Some(v) => v.value,
            None => panic!("metric `{name}` is not in this run's catalogue"),
        }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the driver's form — with
    /// `q1`/`median`/`q3`/`n` added when `detail` is set (the `--out` file).
    pub fn to_json(&self, detail: bool) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|v| {
                    let mut obj = vec![
                        ("value".to_string(), Json::f64(v.value)),
                        ("unit".to_string(), Json::str(v.def.unit)),
                    ];
                    if let (true, Some((q1, median, q3, n))) = (detail, v.dist) {
                        obj.push(("q1".into(), Json::f64(q1)));
                        obj.push(("median".into(), Json::f64(median)));
                        obj.push(("q3".into(), Json::f64(q3)));
                        obj.push(("n".into(), Json::u64(n as u64)));
                    }
                    (v.def.name.to_string(), Json::Obj(obj))
                })
                .collect(),
        )
    }
}

/// The end-to-end catalogue row called `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name, 64), "bad metric name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {}",
                d.unit
            );
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` must list exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}: length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.as_str())
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound);
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        // The three whose spread across runs stays inside the largest bound
        // the driver allows, at the run length its time limit leaves for
        // three. The other four run the same way by hand (see the README).
        assert_eq!(names, ["reconfig-k16", "engine-flows", "engine-dcqcn"]);
        assert!(names.iter().all(|n| crate::workloads::NAMES.contains(n)));
        assert!(workloads.iter().all(|w| w
            .get("why")
            .and_then(Json::as_str)
            .is_some_and(|s| s.len() <= 200)));
    }

    #[test]
    fn unset_metrics_read_zero_and_fast_deciles_keep_the_distribution() {
        let mut m = Metrics::new(END_TO_END);
        assert_eq!(m.get("work_per_s"), 0.0);
        // The fast end of a rate is the high one, of a time the low one.
        m.set_fast("work_per_s", &[1.0, 2.0, 4.0]);
        assert_eq!(m.get("work_per_s"), 4.0);
        m.set_fast("setup_s", &[1.0, 2.0, 4.0]);
        assert_eq!(m.get("setup_s"), 1.0);
        let j = m.to_json(true);
        let w = j.get("work_per_s").expect("present");
        assert_eq!(w.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(w.get("median").and_then(Json::as_f64), Some(2.0));
        assert!(m
            .to_json(false)
            .get("work_per_s")
            .and_then(|w| w.get("n"))
            .is_none());
    }
}
