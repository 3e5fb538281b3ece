//! The deterministic artifacts under `results/` are what the render
//! functions print now. Every number in them is simulated or computed, none
//! is measured wall clock; `table4`, `fig13` and `ablations` carry
//! wall-clock columns and are not compared.

#![allow(clippy::unwrap_used, clippy::expect_used)]
use sdt_bench::render::ARTIFACTS;

fn assert_current(name: &str) {
    let Some((_, render)) = ARTIFACTS.iter().find(|(n, _)| *n == name) else {
        panic!("no artifact named {name}");
    };
    let mut rendered = String::new();
    render(&mut rendered).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/").to_owned() + name + ".txt";
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if rendered != committed {
        let line = rendered.lines().zip(committed.lines()).take_while(|(a, b)| a == b).count() + 1;
        panic!(
            "results/{name}.txt differs from what `{name}` renders now (first at line {line}): \
             run `cargo run --release -p sdt-bench` and commit results/{name}.txt"
        );
    }
}

#[test]
fn table1_is_current() {
    assert_current("table1");
}

#[test]
fn table2_is_current() {
    assert_current("table2");
}

#[test]
fn table3_is_current() {
    assert_current("table3");
}

#[test]
fn fig11_is_current() {
    assert_current("fig11");
}

#[test]
fn fig12_is_current() {
    assert_current("fig12");
}

#[test]
fn active_routing_is_current() {
    assert_current("active_routing");
}
