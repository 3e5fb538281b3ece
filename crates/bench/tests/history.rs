//! `results/history.jsonl` is the repo's performance trajectory: one JSON
//! object per PR that measured something, appended by hand. Nothing reads
//! it back but people and `compare`-style scripts, so this is the only
//! thing that notices a malformed line.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt::controller::Json;

#[test]
fn every_history_line_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/history.jsonl");
    let text = std::fs::read_to_string(path).expect("results/history.jsonl exists");
    assert!(!text.trim().is_empty(), "history has at least one line");
    for (i, line) in text.lines().enumerate() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        for key in ["pr", "parent", "nproc", "workloads"] {
            assert!(doc.get(key).is_some(), "line {}: no \"{key}\"", i + 1);
        }
    }
}
