//! `compare A.json B.json`: did B get worse than A by more than a metric's
//! bound? One row per (workload, end-to-end metric); a metric whose reading
//! is itself uncertain by more than its bound (see [`Cell::spread`]) is
//! *unresolved*, not unchanged. Count metrics of traced runs are listed when
//! they differ (they compare exactly).

use crate::metrics::{end_to_end, Better};
use sdt::controller::Json;
use std::path::Path;

/// One metric of one run, as stored by `--out`.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    value: f64,
    unit: String,
    /// How far the reported value is expected to move between runs, as a
    /// share of it: the in-run samples' inter-quartile distance over the
    /// root of their count — a ceiling for a fast decile, which moves less
    /// than the samples' middle. 0 when no samples were recorded.
    spread: f64,
}

/// One workload run read back from a file.
#[derive(Clone, Debug)]
struct Run {
    workload: String,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Cell)>,
}

fn runs_of(doc: &Json, origin: &str) -> Result<Vec<Run>, String> {
    let list: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    list.into_iter()
        .map(|r| {
            let field = |k: &str| r.get(k).ok_or_else(|| format!("{origin}: run lacks `{k}`"));
            if field("quick")?.as_bool() != Some(false) {
                return Err(format!(
                    "{origin}: --quick output is for smoke use, not comparison"
                ));
            }
            let Json::Obj(members) = field("metrics")? else {
                return Err(format!("{origin}: `metrics` is not an object"));
            };
            let metrics = members
                .iter()
                .map(|(name, m)| {
                    let num = |k: &str| m.get(k).and_then(Json::as_f64);
                    let value =
                        num("value").ok_or_else(|| format!("{origin}: {name}: no value"))?;
                    let spread = match (num("q1"), num("q3"), num("n")) {
                        (Some(q1), Some(q3), Some(n)) if value != 0.0 && n >= 1.0 => {
                            (q3 - q1) / value.abs() / n.sqrt()
                        }
                        _ => 0.0,
                    };
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    Ok((
                        name.clone(),
                        Cell {
                            value,
                            unit,
                            spread,
                        },
                    ))
                })
                .collect::<Result<_, String>>()?;
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or("").to_string(),
                trace: field("trace")?.as_u64() == Some(1),
                attempted: field("attempted")?.as_u64().unwrap_or(0),
                failed: field("failed")?.as_u64().unwrap_or(0),
                metrics,
            })
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn judge(a: &Cell, b: &Cell, better: Better, bound: f64) -> (f64, Verdict) {
    let worse = worsening(a.value, b.value, better);
    let verdict = if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Print the comparison; `Ok(false)` on a regression or a higher failed share.
fn compare(a: &[Run], b: &[Run]) -> bool {
    let mut pass = true;
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse%", "bound%"
    );
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            println!("{:<22} missing from b", ra.workload);
            pass = false;
            continue;
        };
        let share = |r: &Run| r.failed as f64 / r.attempted.max(1) as f64;
        if share(rb) > share(ra) {
            println!(
                "{:<22} failed share rose: {}/{} -> {}/{}  REGRESSION",
                ra.workload, ra.failed, ra.attempted, rb.failed, rb.attempted
            );
            pass = false;
        }
        for (name, ca) in &ra.metrics {
            let Some((_, cb)) = rb.metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            match end_to_end(name).filter(|_| !ra.trace) {
                Some(def) => {
                    let bound = def.bound.unwrap_or(0.0);
                    let (worse, verdict) = judge(ca, cb, def.better, bound);
                    pass &= verdict != Verdict::Regression;
                    println!(
                        "{:<22} {:<14} {:>14.4} {:>14.4} {:>8.2} {:>6.0}  {}",
                        ra.workload,
                        name,
                        ca.value,
                        cb.value,
                        worse * 100.0,
                        bound * 100.0,
                        match verdict {
                            Verdict::Ok => "ok",
                            Verdict::Unresolved => "unresolved (spread > bound)",
                            Verdict::Regression => "REGRESSION",
                        }
                    );
                }
                None if ca.unit == "count" && ca.value != cb.value => println!(
                    "{:<22} {:<30} {} -> {}  count changed",
                    ra.workload, name, ca.value, cb.value
                ),
                None => {}
            }
        }
    }
    pass
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Vec<Run>, String> {
        let origin = p.display().to_string();
        let text = std::fs::read_to_string(p).map_err(|e| format!("{origin}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{origin}: {e}"))?;
        runs_of(&doc, &origin)
    };
    Ok(compare(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(value: f64, spread: f64) -> Cell {
        Cell {
            value,
            unit: "ms".into(),
            spread,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        // Lower is better: +20 % is a regression at bound 0.15, -20 % is not.
        assert_eq!(
            judge(&cell(10.0, 0.0), &cell(12.0, 0.0), Better::Lower, 0.15).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(&cell(10.0, 0.0), &cell(8.0, 0.0), Better::Lower, 0.15).1,
            Verdict::Ok
        );
        // Higher is better: a drop of 20 % is the regression.
        assert_eq!(
            judge(&cell(10.0, 0.0), &cell(8.0, 0.0), Better::Higher, 0.15).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(&cell(10.0, 0.0), &cell(11.0, 0.0), Better::Higher, 0.15).1,
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let (_, v) = judge(&cell(10.0, 0.3), &cell(10.1, 0.0), Better::Lower, 0.15);
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn quick_files_are_refused_and_sets_are_read() {
        let run = |quick: bool| {
            format!(
                "{{\"workload\":\"engine-flows\",\"trace\":0,\"quick\":{quick},\"attempted\":5,\
                 \"failed\":0,\"metrics\":{{\"work_per_s\":{{\"value\":4.0,\"unit\":\"1/s\",\
                 \"q1\":3.0,\"q3\":5.0,\"n\":4}}}}}}"
            )
        };
        let quick = Json::parse(&run(true)).expect("parses");
        assert!(runs_of(&quick, "q").is_err());
        let set = Json::parse(&format!("{{\"runs\":[{}]}}", run(false))).expect("parses");
        let runs = runs_of(&set, "s").expect("reads");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].metrics[0].1,
            Cell {
                value: 4.0,
                unit: "1/s".into(),
                spread: 0.25
            }
        );
        assert!(compare(&runs, &runs));
    }
}
