//! benchdiff — the bench-regression gate.
//!
//! Compares every `BENCH_*.json` at the repository root
//! against its committed copy (`git show HEAD:<file>`) and fails when
//! any gated metric regresses past the threshold. Because every bench
//! number is virtual-time, an unchanged tree always passes; a failure
//! means the code actually changed behaviour.
//!
//! Usage:
//!   benchdiff [--threshold 0.2]            # gate the working tree vs HEAD
//!   benchdiff --baseline a.json --current b.json [--threshold 0.2]
//!   benchdiff --self-test                  # prove the gate trips on a
//!                                          # synthetic 25% regression

use bench::{compare, repo_root};
use pedal_obs::{parse_json, Json};
use std::process::Command;

const DEFAULT_THRESHOLD: f64 = 0.2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v: &f64| *v > 0.0)
                    .unwrap_or_else(|| die("--threshold needs a positive number"));
            }
            "--baseline" => baseline = it.next().cloned(),
            "--current" => current = it.next().cloned(),
            "--self-test" => self_test = true,
            other => die(&format!("unknown argument {other}")),
        }
    }

    if self_test {
        run_self_test(threshold);
        return;
    }

    if let (Some(b), Some(c)) = (&baseline, &current) {
        let base = load_file(b);
        let cur = load_file(c);
        let failed = report_one(c, &base, &cur, threshold);
        std::process::exit(if failed { 1 } else { 0 });
    }
    if baseline.is_some() || current.is_some() {
        die("--baseline and --current must be given together");
    }

    // Default mode: every root BENCH_*.json vs its HEAD copy.
    let root = repo_root();
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .expect("read repo root")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        die("no BENCH_*.json at the repo root");
    }
    let mut failed = false;
    let mut gated = 0usize;
    for name in &names {
        let cur = load_file(root.join(name).to_str().unwrap());
        let show = Command::new("git")
            .current_dir(&root)
            .args(["show", &format!("HEAD:{name}")])
            .output()
            .expect("run git show");
        if !show.status.success() {
            println!("[benchdiff] {name}: not committed yet, skipping");
            continue;
        }
        let text = String::from_utf8(show.stdout).expect("utf8 baseline");
        let base =
            parse_json(&text).unwrap_or_else(|e| die(&format!("HEAD:{name} does not parse: {e}")));
        gated += 1;
        failed |= report_one(name, &base, &cur, threshold);
    }
    if gated == 0 {
        println!("[benchdiff] nothing committed to gate against");
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn report_one(name: &str, base: &Json, cur: &Json, threshold: f64) -> bool {
    let res = compare(base, cur, threshold);
    if res.passed() {
        println!(
            "[benchdiff] {name}: OK ({} gated metrics within {:.0}%)",
            res.compared,
            threshold * 100.0
        );
        return false;
    }
    println!("[benchdiff] {name}: FAIL — {} regression(s):", res.regressions.len());
    for d in &res.regressions {
        println!(
            "  {:<50} {:>14.3} -> {:>14.3}  ({:.1}% worse)",
            d.path,
            d.base,
            d.current,
            d.worse_by * 100.0
        );
    }
    true
}

/// Prove the gate works: an identical pair passes, a synthetic 25%
/// regression fails. Exits nonzero if either expectation breaks.
fn run_self_test(threshold: f64) {
    let base = parse_json(
        r#"{"throughput_mbps": 100.0, "latency_p99_ns": 1000,
            "rows": [{"ratio": 3.0, "makespan_ns": 500}]}"#,
    )
    .unwrap();
    let same = compare(&base, &base, threshold);
    let worse = parse_json(
        r#"{"throughput_mbps": 75.0, "latency_p99_ns": 1300,
            "rows": [{"ratio": 2.0, "makespan_ns": 800}]}"#,
    )
    .unwrap();
    let res = compare(&base, &worse, threshold);
    if same.passed() && same.compared == 4 && res.regressions.len() == 4 {
        println!(
            "[benchdiff] self-test OK: identical pass, synthetic 25% regression trips {} metrics",
            res.regressions.len()
        );
    } else {
        eprintln!(
            "[benchdiff] self-test FAILED: same.passed={} same.compared={} regressions={}",
            same.passed(),
            same.compared,
            res.regressions.len()
        );
        std::process::exit(1);
    }
}

fn load_file(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    parse_json(&text).unwrap_or_else(|e| die(&format!("{path} does not parse: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("[benchdiff] error: {msg}");
    std::process::exit(2);
}
