//! `sdtctl` run as a process: what it prints must not depend on the
//! process it runs in. std's `HashMap` seeds its hasher per process, so an
//! iteration-order dependence that every in-process test agrees with itself
//! about shows up only here.

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
