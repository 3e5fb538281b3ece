//! The seven workloads. Names are fixed: `BENCHMARK.json`, the README and
//! `expected.json` refer to them.

use crate::harness::{Ctx, Outcome};
use sdt::controller::Json;

mod engine;
mod estimate;
mod intent;
mod reconfig;

pub const NAMES: [&str; 7] = [
    "intent-batched",
    "intent-serial",
    "reconfig-k16",
    "engine-flows",
    "engine-alltoall-flit",
    "engine-dcqcn",
    "estimate-k32",
];

/// The seed whose simulated counts `expected.json` pins.
pub const PINNED_SEED: u64 = 2023;

/// Run workload `name`; `None` when there is no such workload.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "intent-batched" => intent::run(intent::Mode::Batched, ctx),
        "intent-serial" => intent::run(intent::Mode::Serial, ctx),
        "reconfig-k16" => reconfig::run(ctx),
        "engine-flows" => engine::run(engine::Kind::Flows, ctx),
        "engine-alltoall-flit" => engine::run(engine::Kind::AlltoallFlit, ctx),
        "engine-dcqcn" => engine::run(engine::Kind::Dcqcn, ctx),
        "estimate-k32" => estimate::run(ctx),
        _ => return None,
    })
}

/// Compare `counts` — deterministic outputs of `workload`'s unit 0 — with
/// the values `expected.json` pins for [`PINNED_SEED`]. Returns one message
/// per mismatch; other seeds and quick runs have nothing pinned.
pub fn check_pinned(workload: &str, ctx: &Ctx, counts: &[(&str, u64)]) -> Vec<String> {
    if ctx.seed != PINNED_SEED || ctx.quick {
        return Vec::new();
    }
    let doc = match Json::parse(include_str!("../../expected.json")) {
        Ok(d) => d,
        Err(e) => return vec![format!("expected.json: {e}")],
    };
    let Some(pinned) = doc.get(workload) else {
        return vec![format!("expected.json pins nothing for {workload}")];
    };
    counts
        .iter()
        .filter_map(
            |&(name, got)| match pinned.get(name).and_then(Json::as_u64) {
                Some(want) if want == got => None,
                Some(want) => Some(format!(
                    "{workload}: {name} = {got}, expected.json pins {want}"
                )),
                None => Some(format!(
                    "{workload}: {name} = {got} is not pinned in expected.json"
                )),
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use std::collections::BTreeSet;

    fn quick_ctx(trace: bool, tag: &str) -> Ctx {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!(".run/test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Ctx {
            seed: 7,
            seconds: 1.0,
            trace,
            quick: true,
            dir,
            cores: crate::harness::cores(),
        }
    }

    /// Every workload passes its own output checks on small inputs, and
    /// every end-to-end metric it reports is a real, non-zero measurement.
    #[test]
    fn every_workload_is_correct_and_reports_every_end_to_end_metric() {
        let ctx = quick_ctx(false, "e2e");
        for name in NAMES {
            let o = run(name, &ctx).expect("known workload");
            assert!(
                o.errors.is_empty() && o.failed == 0,
                "{name}: {:?}",
                o.errors
            );
            assert!(o.attempted >= 1, "{name}");
            let values = o.metrics.values();
            assert_eq!(values.len(), END_TO_END.len());
            for v in values {
                assert!(
                    v.value.is_finite() && v.value > 0.0,
                    "{name}: {} = {}",
                    v.def.name,
                    v.value
                );
            }
        }
        let _ = std::fs::remove_dir_all(&ctx.dir);
        assert!(run("no-such-workload", &ctx).is_none());
    }

    /// Every per-layer metric of the catalogue is measured by some workload:
    /// a name nobody sets would read 0 forever. The exceptions are zero when
    /// all is well, or need more samples than a quick run takes.
    #[test]
    fn every_per_layer_metric_is_emitted_by_some_workload() {
        let ctx = quick_ctx(true, "layers");
        let mut measured = BTreeSet::new();
        for name in NAMES {
            let o = run(name, &ctx).expect("known workload");
            assert!(
                o.errors.is_empty() && o.failed == 0,
                "{name}: {:?}",
                o.errors
            );
            assert_eq!(o.metrics.values().len(), PER_LAYER.len());
            measured.extend(
                o.metrics
                    .values()
                    .iter()
                    .filter(|v| v.value != 0.0)
                    .map(|v| v.def.name),
            );
        }
        let _ = std::fs::remove_dir_all(&ctx.dir);
        let unmeasured: Vec<&str> = PER_LAYER
            .iter()
            .map(|d| d.name)
            .filter(|n| !measured.contains(n))
            .collect();
        assert_eq!(
            unmeasured,
            [
                "sdtd.wire.rtt_tail_ms",
                "sdtd.wire.rtt_tail_pct",
                "sdtd.rejections",
                "sim.drops"
            ]
        );
    }

    #[test]
    fn pinned_counts_apply_to_the_pinned_seed_only() {
        let mut ctx = quick_ctx(false, "pins");
        let _ = std::fs::remove_dir_all(&ctx.dir);
        assert!(check_pinned("engine-flows", &ctx, &[("sim.cells_delivered", 1)]).is_empty());
        ctx.seed = PINNED_SEED;
        ctx.quick = false;
        let wrong = check_pinned("engine-flows", &ctx, &[("sim.cells_delivered", 1)]);
        assert_eq!(wrong.len(), 1, "{wrong:?}");
        assert_eq!(
            check_pinned("engine-flows", &ctx, &[("sim.unknown", 1)]).len(),
            1
        );
    }
}
