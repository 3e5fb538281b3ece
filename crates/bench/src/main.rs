//! Regenerates every table and figure of the paper's evaluation, one after
//! another in this process, into `results/<name>.txt` under the current
//! directory.
//!
//! Run with: `cargo run --release -p sdt-bench`

use sdt_bench::render::ARTIFACTS;
use std::path::Path;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir)?;
    let started = Instant::now();
    for (name, render) in ARTIFACTS {
        let t0 = Instant::now();
        let mut text = String::new();
        render(&mut text)?;
        let path = out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, text)?;
        println!("{name:<16}ok ({:.1} s) -> {}", t0.elapsed().as_secs_f64(), path.display());
    }
    println!(
        "\nall artifacts regenerated under results/ in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
