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
