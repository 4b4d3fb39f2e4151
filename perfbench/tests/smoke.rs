//! Tiny-scale runs of every workload with all output checks on, and the
//! name rules `BENCHMARK.json` depends on.

use perfbench::stats::valid_name;
use perfbench::{run, Report, RunConfig, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Report {
    let cfg = RunConfig { workload, seed: 7, seconds: 1.0, trace, tiny: true, trace_file: None };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
    report
}

fn assert_metrics(report: &Report, want: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, want, "{what}");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_runs_clean_untraced() {
    for w in Workload::ALL {
        let report = tiny(w, false);
        assert_metrics(&report, &END_TO_END, w.name());
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} must be positive", w.name(), m.name);
        }
        let json = report.to_json();
        let doc = pedal_obs::parse_json(&json).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&pedal_obs::Json::Bool(true)));
    }
}

#[test]
fn every_workload_reports_every_layer_traced() {
    for w in Workload::ALL {
        let report = tiny(w, true);
        assert_metrics(&report, &PER_LAYER, w.name());
    }
}

#[test]
fn same_seed_same_ratio() {
    // The ratio depends only on the seeded inputs, never on timing.
    for w in Workload::ALL {
        let a = tiny(w, false).get("ratio");
        let b = tiny(w, false).get("ratio");
        assert_eq!(a, b, "{}", w.name());
    }
}

#[test]
fn names_and_units_use_the_allowed_characters() {
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "{}", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "{name}");
        assert!(unit_ok(unit), "{name}: unit {unit}");
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names must be unique");
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = pedal_obs::parse_json(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(list("end_to_end"), own(&END_TO_END));
    assert_eq!(list("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
