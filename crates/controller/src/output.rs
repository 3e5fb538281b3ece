//! Shared report renderers for `sdtctl` and `sdtd`.
//!
//! The daemon promise is that `sdtctl --daemon <socket> slices ...` prints
//! **byte-for-byte** what local `sdtctl slices ...` prints, JSON and human
//! mode alike. The only way to keep that true under maintenance is to have
//! exactly one implementation of each report — these functions — and of
//! each command that fills one in ([`crate::commands`], which local mode
//! and the daemon both call): the finished text comes back, local mode
//! prints it, and the daemon ships it over the wire for the client to
//! print verbatim. Every renderer returns its text *without* a trailing
//! newline; the caller adds the final `\n`. The JSON forms are [`Json`]
//! trees written by [`Json::emit`] — the one JSON writer — so a report
//! never spells a brace or an escape of its own.

use crate::jsonv::Json;
use sdt_tenancy::epoch::EpochReport;
use sdt_tenancy::{ManagerStatus, ScheduleReport, Slice};
use sdt_verify::VerifyReport;
use std::fmt::Write as _;

/// One admission attempt: the config path, the slice name, and either the
/// admitted slice's resource bill or the named rejection.
pub struct AdmitRow {
    /// Config path (or request tag in daemon mode).
    pub path: String,
    /// Slice name (topology name by convention).
    pub slice: String,
    /// Admission outcome.
    pub result: Result<AdmitInfo, String>,
}

/// Resource bill of an admitted slice.
pub struct AdmitInfo {
    /// Assigned slice id.
    pub id: u32,
    /// Host ports consumed.
    pub host_ports: usize,
    /// Physical cables consumed.
    pub cables: usize,
    /// Flow entries installed across the bank.
    pub entries: usize,
}

impl AdmitInfo {
    /// The bill of an admitted slice.
    pub fn of(s: &Slice) -> AdmitInfo {
        AdmitInfo {
            id: s.id.0,
            host_ports: s.projection.host_port.len(),
            cables: s.projection.link_real.len(),
            entries: s.entries(),
        }
    }
}

/// One admission row, JSON form.
pub fn admit_row_json(row: &AdmitRow) -> Json {
    let mut obj = vec![
        ("path", Json::str(row.path.as_str())),
        ("slice", Json::str(row.slice.as_str())),
        ("admitted", Json::Bool(row.result.is_ok())),
    ];
    match &row.result {
        Ok(i) => obj.extend([
            ("id", Json::u64(i.id.into())),
            ("host_ports", Json::usize(i.host_ports)),
            ("cables", Json::usize(i.cables)),
            ("entries", Json::usize(i.entries)),
        ]),
        Err(e) => obj.push(("error", Json::str(e.as_str()))),
    }
    Json::obj(obj)
}

/// One admission row, human form.
pub fn admit_row_human(row: &AdmitRow) -> String {
    match &row.result {
        Ok(i) => format!(
            "{}: admitted {} as slice-{} ({} host ports, {} cables, {} entries)",
            row.path, row.slice, i.id, i.host_ports, i.cables, i.entries,
        ),
        Err(e) => format!("{}: REJECTED {} — {e}", row.path, row.slice),
    }
}

/// The `slices` report, JSON: admissions, occupancy, and the static proof
/// of the shared tables as the object `sdtctl verify --json` prints.
pub fn slices_json(rows: &[AdmitRow], status: &ManagerStatus, verify: &VerifyReport) -> String {
    let switches = status.switches.iter().map(|s| {
        Json::obj([
            ("switch", Json::u64(s.switch.into())),
            ("capacity", Json::usize(s.capacity)),
            ("used", Json::usize(s.used)),
            ("free", Json::usize(s.free)),
        ])
    });
    Json::obj([
        ("admissions", Json::Arr(rows.iter().map(admit_row_json).collect())),
        (
            "status",
            Json::obj([
                ("switches", Json::Arr(switches.collect())),
                ("host_ports_used", Json::usize(status.host_ports_used)),
                ("host_ports_total", Json::usize(status.host_ports_total)),
                ("cables_used", Json::usize(status.cables_used)),
                ("cables_total", Json::usize(status.cables_total)),
                ("orphan_entries", Json::usize(status.orphan_entries)),
            ]),
        ),
        ("verify", verify_tree("slices", verify, None)),
    ])
    .emit()
}

/// The `slices` report, human form: admission lines, occupancy, and the
/// `sdtctl verify` lines for the shared tables.
pub fn slices_human(rows: &[AdmitRow], status: &ManagerStatus, verify: &VerifyReport) -> String {
    let mut out = String::new();
    for row in rows {
        let _ = writeln!(out, "{}", admit_row_human(row));
    }
    let _ = writeln!(
        out,
        "cluster: {}/{} host ports, {}/{} cables in use, {} orphan entries",
        status.host_ports_used,
        status.host_ports_total,
        status.cables_used,
        status.cables_total,
        status.orphan_entries,
    );
    for s in &status.switches {
        let _ = writeln!(out, "  switch {}: {}/{} table entries", s.switch, s.used, s.capacity);
    }
    out.push_str(&verify_human("slices", verify, None));
    out
}

/// The `--stats` sidecar of one verification: wall clocks plus the fast
/// path's collapse counters.
pub struct StatsBlock {
    /// Wall-clock of the full pass, seconds.
    pub wall_s: f64,
    /// Wall-clock of a warm empty-delta re-verify, when one was run.
    pub warm_s: Option<f64>,
    /// Fast-path statistics of the full pass.
    pub stats: sdt_verify::VerifyStats,
}

/// Verification report, JSON form. `block` adds the `"stats"` member.
pub fn verify_json(scope: &str, r: &VerifyReport, block: Option<&StatsBlock>) -> String {
    verify_tree(scope, r, block).emit()
}

/// [`verify_json`] before it is written out — the `slices` report embeds it.
fn verify_tree(scope: &str, r: &VerifyReport, block: Option<&StatsBlock>) -> Json {
    fn findings<T: std::fmt::Display>(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|f| Json::str(f.to_string())).collect())
    }
    let mut obj = vec![
        ("scope", Json::str(scope)),
        ("holds", Json::Bool(r.holds())),
        ("delivered_pairs", Json::usize(r.delivered_pairs)),
        ("isolated_pairs", Json::usize(r.isolated_pairs)),
        ("pairs_checked", Json::usize(r.pairs_checked)),
        ("pairs_walked", Json::usize(r.pairs_walked)),
        ("switches_scanned", Json::usize(r.switches_scanned)),
        ("loops", findings(&r.loops)),
        ("blackholes", findings(&r.blackholes)),
        ("leaks", findings(&r.leaks)),
        ("shadowed", findings(&r.shadowed)),
        ("nondeterminism", findings(&r.nondeterminism)),
    ];
    if let Some(b) = block {
        let mut stats = vec![
            ("header_classes", Json::usize(r.header_classes)),
            ("pairs_walked", Json::usize(r.pairs_walked)),
            ("pairs_walked_full", Json::usize(b.stats.pairs_walked_full)),
            ("pairs_replayed", Json::usize(b.stats.pairs_replayed)),
            ("states_resolved", Json::usize(b.stats.cache_misses)),
            ("symmetric", Json::Bool(b.stats.symmetric)),
            ("wall_s", Json::fixed(b.wall_s, 6)),
        ];
        stats.extend(b.warm_s.map(|w| ("warm_reverify_s", Json::fixed(w, 6))));
        obj.push(("stats", Json::obj(stats)));
    }
    Json::obj(obj)
}

/// Verification report, human form.
pub fn verify_human(scope: &str, r: &VerifyReport, block: Option<&StatsBlock>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "static verification ({scope}): {}", r.summary());
    let _ = writeln!(
        out,
        "  closure: {} delivered, {} isolated ({} pairs checked, {} walked, {} switches scanned)",
        r.delivered_pairs, r.isolated_pairs, r.pairs_checked, r.pairs_walked, r.switches_scanned
    );
    if let Some(b) = block {
        let _ = writeln!(
            out,
            "  stats: {} header classes, {} symbolic walks ({} full, {} replayed), {:.1} ms wall{}",
            r.header_classes,
            r.pairs_walked,
            b.stats.pairs_walked_full,
            b.stats.pairs_replayed,
            b.wall_s * 1e3,
            match b.warm_s {
                Some(w) => format!(", warm re-verify {:.2} ms", w * 1e3),
                None => String::new(),
            }
        );
    }
    dump_findings(&mut out, &r.loops);
    dump_findings(&mut out, &r.blackholes);
    dump_findings(&mut out, &r.leaks);
    if !r.shadowed.is_empty() || !r.nondeterminism.is_empty() {
        let _ = writeln!(
            out,
            "  warnings: {} shadowed entries, {} equal-priority overlaps",
            r.shadowed.len(),
            r.nondeterminism.len()
        );
        dump_findings(&mut out, &r.shadowed);
        dump_findings(&mut out, &r.nondeterminism);
    }
    out.truncate(out.trim_end_matches('\n').len());
    out
}

/// Append findings indented, capped so a badly broken table stays readable.
fn dump_findings<T: std::fmt::Display>(out: &mut String, items: &[T]) {
    const CAP: usize = 8;
    for item in items.iter().take(CAP) {
        let _ = writeln!(out, "  {item}");
    }
    if items.len() > CAP {
        let _ = writeln!(out, "  ... and {} more", items.len() - CAP);
    }
}

/// Reconfiguration report, JSON form. `sched` is the `--scheduled` round
/// breakdown when that path ran.
pub fn reconfigure_json(
    from: &str,
    to: &str,
    scheduled: bool,
    report: &EpochReport,
    sched: Option<&ScheduleReport>,
    audit_clean: bool,
) -> String {
    let ms = |ns: u64| Json::fixed(ns as f64 / 1e6, 3);
    let mut obj = vec![
        ("from", Json::str(from)),
        ("to", Json::str(to)),
        ("scheduled", Json::Bool(scheduled)),
        (
            "epoch",
            Json::obj([
                ("adds", Json::usize(report.adds)),
                ("deletes", Json::usize(report.deletes)),
                ("flow_mods", Json::usize(report.flow_mods())),
                ("install_time_ms", ms(report.install_time_ns)),
            ]),
        ),
    ];
    if let Some(s) = sched {
        let rounds = s.rounds.iter().map(|r| {
            Json::obj([
                ("round", Json::usize(r.round)),
                ("phase", Json::str(r.phase.to_string())),
                ("mods", Json::usize(r.mods)),
                ("units", Json::usize(r.units)),
                ("merged_from", Json::usize(r.merged_from)),
                ("proof_wall_ms", ms(r.proof_wall_ns)),
                ("pairs_walked", Json::usize(r.pairs_walked)),
                ("install_ms", ms(r.install_ns)),
                ("sends", Json::u64(r.sends)),
                ("retries", Json::u64(r.retries.into())),
                ("converged", Json::Bool(r.converged)),
                ("reverified", Json::Bool(r.reverified)),
            ])
        });
        obj.push((
            "schedule",
            Json::obj([
                ("rounds", Json::Arr(rounds.collect())),
                ("total_mods", Json::usize(s.total_mods)),
                ("merges", Json::usize(s.merges)),
                ("reverifications", Json::usize(s.reverifications)),
                ("violations", Json::usize(s.violations)),
                ("converged", Json::Bool(s.converged)),
                ("proof_wall_ms_total", ms(s.proof_wall_ns_total)),
                ("install_ms_total", ms(s.install_ns_total)),
            ]),
        ));
    }
    obj.push(("audit_clean", Json::Bool(audit_clean)));
    Json::obj(obj).emit()
}

/// Reconfiguration report, human form.
pub fn reconfigure_human(
    from: &str,
    to: &str,
    report: &EpochReport,
    sched: Option<&ScheduleReport>,
    audit_clean: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "reconfigured {from} -> {to} ({} adds, {} deletes, {:.1} ms modeled install)",
        report.adds,
        report.deletes,
        report.install_time_ns as f64 / 1e6,
    );
    if let Some(s) = sched {
        let _ = writeln!(
            out,
            "schedule: {} rounds, {} merges, {} re-verifications, {} violations{}",
            s.rounds.len(),
            s.merges,
            s.reverifications,
            s.violations,
            if s.converged { "" } else { " (NOT converged)" },
        );
        for r in &s.rounds {
            let _ = writeln!(
                out,
                "  round {} [{}] {} mods in {} units — proof {:.2} ms ({} pairs), \
                 install {:.2} ms, {} sends, {} retries{}{}",
                r.round,
                r.phase,
                r.mods,
                r.units,
                r.proof_wall_ns as f64 / 1e6,
                r.pairs_walked,
                r.install_ns as f64 / 1e6,
                r.sends,
                r.retries,
                if r.reverified { ", re-verified live state" } else { "" },
                if r.converged { "" } else { ", NOT converged" },
            );
        }
    }
    let _ = writeln!(out, "audit: {}", if audit_clean { "CLEAN" } else { "VIOLATIONS" });
    out.truncate(out.trim_end_matches('\n').len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_rows_render_both_outcomes() {
        let ok = AdmitRow {
            path: "a.toml".into(),
            slice: "fat-tree-k4".into(),
            result: Ok(AdmitInfo { id: 1, host_ports: 16, cables: 8, entries: 300 }),
        };
        let bad = AdmitRow {
            path: "b.toml".into(),
            slice: "mesh-9".into(),
            result: Err("insufficient host ports".into()),
        };
        assert_eq!(
            admit_row_json(&ok).emit(),
            "{\"path\":\"a.toml\",\"slice\":\"fat-tree-k4\",\"admitted\":true,\
             \"id\":1,\"host_ports\":16,\"cables\":8,\"entries\":300}"
        );
        assert!(admit_row_json(&bad).emit().contains("\"admitted\":false"));
        assert!(admit_row_human(&bad).contains("REJECTED"));
    }

    #[test]
    fn renderers_have_no_trailing_newline() {
        let row = AdmitRow {
            path: "p".into(),
            slice: "s".into(),
            result: Err("nope".into()),
        };
        let status = ManagerStatus {
            switches: vec![],
            host_ports_used: 0,
            host_ports_total: 4,
            cables_used: 0,
            cables_total: 2,
            orphan_entries: 0,
            slices: vec![],
        };
        let verify = VerifyReport::default();
        let text = slices_human(&[row], &status, &verify);
        assert!(!text.ends_with('\n'));
        assert!(text.contains("cluster: 0/4 host ports"));
        assert!(text.ends_with(&verify_human("slices", &verify, None)));
        let json = slices_json(&[], &status, &verify);
        assert!(json.ends_with(&format!(",\"verify\":{}}}", verify_json("slices", &verify, None))));
    }
}
