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
//! newline; the caller adds the final `\n`.

use sdt_tenancy::epoch::EpochReport;
use sdt_tenancy::{ManagerStatus, ScheduleReport, Slice};
use sdt_verify::VerifyReport;
use std::fmt::Write as _;

/// JSON string literal, escaped by the one escaper the `jsonv` emitter
/// uses.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::jsonv::escape_into(s, &mut out);
    out
}

/// `[f(x), f(y), ...]` — JSON array from a slice.
pub fn jlist<T, F: FnMut(&T) -> String>(items: &[T], f: F) -> String {
    let inner: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", inner.join(","))
}

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
pub fn admit_row_json(row: &AdmitRow) -> String {
    match &row.result {
        Ok(i) => format!(
            "{{\"path\":{},\"slice\":{},\"admitted\":true,\"id\":{},\
             \"host_ports\":{},\"cables\":{},\"entries\":{}}}",
            jstr(&row.path),
            jstr(&row.slice),
            i.id,
            i.host_ports,
            i.cables,
            i.entries,
        ),
        Err(e) => format!(
            "{{\"path\":{},\"slice\":{},\"admitted\":false,\"error\":{}}}",
            jstr(&row.path),
            jstr(&row.slice),
            jstr(e)
        ),
    }
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
    let admissions: Vec<String> = rows.iter().map(admit_row_json).collect();
    let switches = jlist(&status.switches, |s| {
        format!(
            "{{\"switch\":{},\"capacity\":{},\"used\":{},\"free\":{}}}",
            s.switch, s.capacity, s.used, s.free
        )
    });
    format!(
        "{{\"admissions\":[{}],\"status\":{{\"switches\":{},\
         \"host_ports_used\":{},\"host_ports_total\":{},\
         \"cables_used\":{},\"cables_total\":{},\"orphan_entries\":{}}},\
         \"verify\":{}}}",
        admissions.join(","),
        switches,
        status.host_ports_used,
        status.host_ports_total,
        status.cables_used,
        status.cables_total,
        status.orphan_entries,
        verify_json("slices", verify, None),
    )
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
    let threads = sdt_verify::verify_threads();
    let stats = match block {
        Some(b) => {
            let warm = match b.warm_s {
                Some(w) => format!(",\"warm_reverify_s\":{w:.6}"),
                None => String::new(),
            };
            format!(
                ",\"stats\":{{\"header_classes\":{},\"pairs_walked\":{},\
                 \"pairs_walked_full\":{},\"pairs_replayed\":{},\
                 \"states_resolved\":{},\
                 \"symmetric\":{},\"wall_s\":{:.6}{warm},\"threads\":{threads}}}",
                r.header_classes,
                r.pairs_walked,
                b.stats.pairs_walked_full,
                b.stats.pairs_replayed,
                b.stats.cache_misses,
                b.stats.symmetric,
                b.wall_s,
            )
        }
        None => String::new(),
    };
    format!(
        "{{\"scope\":{},\"holds\":{},\"delivered_pairs\":{},\"isolated_pairs\":{},\
         \"pairs_checked\":{},\"pairs_walked\":{},\"switches_scanned\":{},\
         \"loops\":{},\"blackholes\":{},\"leaks\":{},\"shadowed\":{},\
         \"nondeterminism\":{}{stats}}}",
        jstr(scope),
        r.holds(),
        r.delivered_pairs,
        r.isolated_pairs,
        r.pairs_checked,
        r.pairs_walked,
        r.switches_scanned,
        jlist(&r.loops, |l| jstr(&l.to_string())),
        jlist(&r.blackholes, |b| jstr(&b.to_string())),
        jlist(&r.leaks, |l| jstr(&l.to_string())),
        jlist(&r.shadowed, |s| jstr(&s.to_string())),
        jlist(&r.nondeterminism, |n| jstr(&n.to_string())),
    )
}

/// Verification report, human form.
pub fn verify_human(scope: &str, r: &VerifyReport, block: Option<&StatsBlock>) -> String {
    let threads = sdt_verify::verify_threads();
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
            "  stats: {} header classes, {} symbolic walks ({} full, {} replayed), {threads} worker(s), {:.1} ms wall{}",
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
    let schedule = match sched {
        Some(s) => {
            let rounds = jlist(&s.rounds, |r| {
                format!(
                    "{{\"round\":{},\"phase\":{},\"mods\":{},\"units\":{},\
                     \"merged_from\":{},\"proof_wall_ms\":{:.3},\"pairs_walked\":{},\
                     \"install_ms\":{:.3},\"sends\":{},\"retries\":{},\
                     \"converged\":{},\"reverified\":{}}}",
                    r.round,
                    jstr(&r.phase.to_string()),
                    r.mods,
                    r.units,
                    r.merged_from,
                    r.proof_wall_ns as f64 / 1e6,
                    r.pairs_walked,
                    r.install_ns as f64 / 1e6,
                    r.sends,
                    r.retries,
                    r.converged,
                    r.reverified,
                )
            });
            format!(
                ",\"schedule\":{{\"rounds\":{rounds},\"total_mods\":{},\"merges\":{},\
                 \"reverifications\":{},\"violations\":{},\"converged\":{},\
                 \"proof_wall_ms_total\":{:.3},\"install_ms_total\":{:.3}}}",
                s.total_mods,
                s.merges,
                s.reverifications,
                s.violations,
                s.converged,
                s.proof_wall_ns_total as f64 / 1e6,
                s.install_ns_total as f64 / 1e6,
            )
        }
        None => String::new(),
    };
    format!(
        "{{\"from\":{},\"to\":{},\"scheduled\":{scheduled},\
         \"epoch\":{{\"adds\":{},\"deletes\":{},\"flow_mods\":{},\
         \"install_time_ms\":{:.3}}}{schedule},\"audit_clean\":{}}}",
        jstr(from),
        jstr(to),
        report.adds,
        report.deletes,
        report.flow_mods(),
        report.install_time_ns as f64 / 1e6,
        audit_clean,
    )
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
    fn jstr_escapes_controls() {
        assert_eq!(
            jstr("a\"b\\c\nd\te\u{7}f\rg"),
            "\"a\\\"b\\\\c\\nd\\te\\u0007f\\rg\""
        );
    }

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
            admit_row_json(&ok),
            "{\"path\":\"a.toml\",\"slice\":\"fat-tree-k4\",\"admitted\":true,\
             \"id\":1,\"host_ports\":16,\"cables\":8,\"entries\":300}"
        );
        assert!(admit_row_json(&bad).contains("\"admitted\":false"));
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
