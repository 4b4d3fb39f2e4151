//! repro — regenerate every experiment's artifacts (`repro [name...]`).
//!
//! Writes `results/<name>.txt` per experiment plus its named files at the
//! repository root and prints each path relative to it; `git diff` shows
//! what moved. Exits 1 naming every failed experiment, 2 on an unknown
//! name.

use bench::{experiments, repo_root, repro};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = repro::select(experiments::ALL, &names).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let failures = repro::run(&selected, &repo_root()).expect("write artifacts");
    for (name, err) in &failures {
        eprintln!("repro: FAIL {name}: {err}");
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}
