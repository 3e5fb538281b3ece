//! `sdtctl` run as a process: what it prints must not depend on the
//! process it runs in. std's `HashMap` seeds its hasher per process, so an
//! iteration-order dependence that every in-process test agrees with itself
//! about shows up only here. A reader that goes away early is also only
//! seen from outside.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

const FT4: &str = r#"
[topology]
kind = "fat-tree"
k = 4

[cluster]
switches = 2
model = "openflow-128x100g"
hosts_per_switch = 16
inter_links_per_pair = 16
"#;

/// Stdout and exit code of one `sdtctl` process.
fn sdtctl(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdtctl")).args(args).output().unwrap();
    (String::from_utf8(out.stdout).unwrap(), out.status.code())
}

#[test]
fn corrupt_loop_seeds_the_same_cable_in_every_process() {
    // 32 cables carry the fat-tree; the defect goes under logical link 0 in
    // every process, so the loop finding names the same ports and rules.
    let config = std::env::temp_dir().join(format!("sdtctl-ft4-{}.toml", std::process::id()));
    std::fs::write(&config, FT4).unwrap();
    let path = config.to_str().unwrap();
    let runs: Vec<_> =
        (0..4).map(|_| sdtctl(&["verify", "--corrupt", "loop", "--json", path])).collect();
    std::fs::remove_file(&config).unwrap();
    let (report, code) = &runs[0];
    assert!(report.contains("forwarding loop") && *code == Some(1), "{code:?}: {report}");
    for (nth, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "process {nth} seeded a different defect");
    }
}

#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    let config = std::env::temp_dir().join(format!("sdtctl-epipe-{}.toml", std::process::id()));
    std::fs::write(&config, FT4).unwrap();
    // The read end goes before the process starts: its first line meets
    // a broken pipe, as under `sdtctl tables ft4.toml | head -c 100`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_sdtctl"))
        .args(["tables", config.to_str().unwrap()])
        .stdout(writer)
        .output()
        .unwrap();
    std::fs::remove_file(&config).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn control_channel_probabilities_outside_0_1_are_refused_by_flag() {
    let config = std::env::temp_dir().join(format!("sdtctl-prob-{}.toml", std::process::id()));
    std::fs::write(&config, FT4).unwrap();
    let path = config.to_str().unwrap();
    let runs: Vec<_> = [("--drop", "2"), ("--drop", "NaN"), ("--reorder", "-1")]
        .into_iter()
        .map(|(flag, value)| {
            let out = Command::new(env!("CARGO_BIN_EXE_sdtctl"))
                .args(["reconfigure", "--scheduled", flag, value, path, path])
                .output()
                .unwrap();
            (flag, out)
        })
        .collect();
    std::fs::remove_file(&config).unwrap();
    for (flag, out) in runs {
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("sdtctl: reconfigure: {flag}: ")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("not a probability"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: nothing ran");
    }
}

/// `check` is `deploy` short of programming a switch: over a config that
/// fits, a cable shortage, a routing the deadlock gate vetoes and an
/// unknown strategy, both exit alike and refuse for the same reason —
/// `deploy` names it on stderr, `check` in its verdict line and on stderr.
#[test]
fn check_succeeds_exactly_when_deploy_would_and_names_the_same_reason() {
    let short = FT4
        .replace("switches = 2", "switches = 3")
        .replace("inter_links_per_pair = 16", "inter_links_per_pair = 1");
    let ring5 = FT4.replace("\"fat-tree\"", "\"ring\"").replace("k = 4", "n = 5");
    let bfs = format!("{ring5}\n[routing]\nstrategy = \"bfs\"\n");
    let warp = format!("{ring5}\n[routing]\nstrategy = \"warp-drive\"\n");
    let cases = [
        ("fits", FT4.to_string(), None),
        ("short", short, Some("switch pair (0, 1): 4 inter-switch links needed, 1 wired — add 3")),
        ("bfs", bfs, Some("routing rejected: channel dependency cycle of length 5")),
        ("warp", warp, Some("unknown routing strategy `warp-drive`")),
    ];
    for (name, text, reason) in cases {
        let config =
            std::env::temp_dir().join(format!("sdtctl-check-{name}-{}.toml", std::process::id()));
        std::fs::write(&config, text).unwrap();
        let path = config.to_str().unwrap();
        let run = |cmd: &str| {
            Command::new(env!("CARGO_BIN_EXE_sdtctl")).args([cmd, path]).output().unwrap()
        };
        let (check, deploy) = (run("check"), run("deploy"));
        std::fs::remove_file(&config).unwrap();
        let text = |b: &[u8]| String::from_utf8(b.to_vec()).unwrap();
        let (check_out, check_err) = (text(&check.stdout), text(&check.stderr));
        let deploy_err = text(&deploy.stderr).trim_end().to_string();
        assert_eq!(check.status.code(), deploy.status.code(), "{name}: {check_err} / {deploy_err}");
        match reason {
            None => {
                assert_eq!(check.status.code(), Some(0), "{name}: {check_err}");
                assert_eq!(check_out, format!("{path}: OK — fat-tree-k4 deployable\n"));
            }
            Some(reason) => {
                assert_eq!(check.status.code(), Some(1), "{name}");
                assert_eq!(check_out, format!("{path}: NOT deployable — {reason}\n"));
                assert_eq!(check_err, format!("sdtctl: {path}: {reason}\n"));
                let same = deploy_err.starts_with("sdtctl: ") && deploy_err.ends_with(reason);
                assert!(same, "{name}: deploy says {deploy_err}");
            }
        }
    }
}
