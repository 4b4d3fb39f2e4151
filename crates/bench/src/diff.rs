//! Bench-regression gate: compare a current `BENCH_*.json` against a
//! committed baseline and flag threshold-crossing regressions.
//!
//! Every experiment writes virtual-time numbers, so run-to-run noise is
//! zero on an unchanged tree — any delta is a real behaviour change.
//! The gate still uses a relative threshold (default 20%) so small
//! intentional cost-model recalibrations don't demand a lockstep
//! baseline refresh for every key.
//!
//! Keys are classified by name: throughput/speedup/ratio-style keys
//! regress when they *drop*, latency/duration keys when they *rise*.
//! Unclassified keys (counts, ids, configuration echoes) are ignored —
//! a gate that guesses wrong on direction is worse than one that
//! abstains.

use pedal_obs::Json;

/// Which direction is an improvement for a metric key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Classify a JSON key by its name; `None` means "not a gated metric".
pub fn classify(key: &str) -> Option<Better> {
    // `mbps` generalizes throughput_mbps to the fleet tier's
    // goodput_mbps and the live plane's mbps_in; `met_slo` and the
    // rate suffix cover the fleet/service serving metrics.
    // `ratio_cost` measures ratio *given up* (adaptive vs best static) —
    // check before the generic ratio rules so it gates downward.
    if key.contains("ratio_cost") {
        return Some(Better::Lower);
    }
    if key.contains("mbps")
        || key.contains("goodput")
        || key.contains("speedup")
        || key.contains("attainment")
        || key.contains("overlap_efficiency")
        || key.contains("met_slo")
        || key.contains("gain_pct")
        || key.ends_with("_per_sec")
        || key == "ratio"
        || key.ends_with("_ratio")
        || key.starts_with("ratio_vs")
    {
        return Some(Better::Higher);
    }
    // On a fixed open-loop trace, shedding more means serving less —
    // shed counts regress upward, like latencies.
    if key.contains("slowdown")
        || key.contains("shed")
        || key.ends_with("_ns")
        || key.ends_with("_us")
        || key.ends_with("_ms")
    {
        return Some(Better::Lower);
    }
    None
}

/// One threshold-crossing metric.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path into the report (`sections[2].latency_p99_ns`).
    pub path: String,
    pub base: f64,
    pub current: f64,
    /// Relative change in the *bad* direction (0.25 = 25% worse).
    pub worse_by: f64,
}

/// Outcome of one baseline/current comparison.
#[derive(Debug, Default)]
pub struct DiffResult {
    /// Gated numeric keys present in both documents.
    pub compared: usize,
    pub regressions: Vec<Delta>,
}

impl DiffResult {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare two parsed reports. Keys present in only one document are
/// skipped (new metrics don't fail the gate; removing one stops gating
/// it). Zero or non-finite baselines are skipped — a relative threshold
/// against zero is meaningless.
pub fn compare(base: &Json, current: &Json, threshold: f64) -> DiffResult {
    let mut out = DiffResult::default();
    walk("", "", base, current, threshold, &mut out);
    out
}

fn walk(path: &str, key: &str, base: &Json, current: &Json, th: f64, out: &mut DiffResult) {
    match (base, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (k, bv) in b {
                if let Some(cv) = c.iter().find(|(ck, _)| ck == k).map(|(_, v)| v) {
                    let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    walk(&sub, k, bv, cv, th, out);
                }
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                walk(&format!("{path}[{i}]"), key, bv, cv, th, out);
            }
        }
        (Json::Num(b), Json::Num(c)) => {
            let Some(dir) = classify(key) else { return };
            if !b.is_finite() || !c.is_finite() || *b == 0.0 {
                return;
            }
            out.compared += 1;
            let worse_by = match dir {
                Better::Higher => (b - c) / b,
                Better::Lower => (c - b) / b,
            };
            if worse_by > th {
                out.regressions.push(Delta {
                    path: path.to_string(),
                    base: *b,
                    current: *c,
                    worse_by,
                });
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_obs::parse_json;

    #[test]
    fn key_classification_by_name() {
        assert_eq!(classify("throughput_mbps"), Some(Better::Higher));
        assert_eq!(classify("ratio"), Some(Better::Higher));
        assert_eq!(classify("wire_ratio"), Some(Better::Higher));
        assert_eq!(classify("speedup_vs_1ch"), Some(Better::Higher));
        assert_eq!(classify("attainment"), Some(Better::Higher));
        assert_eq!(classify("overlap_efficiency"), Some(Better::Higher));
        assert_eq!(classify("latency_p99_ns"), Some(Better::Lower));
        assert_eq!(classify("makespan_ns"), Some(Better::Lower));
        assert_eq!(classify("slowdown"), Some(Better::Lower));
        assert_eq!(classify("jobs_completed"), None);
        assert_eq!(classify("queue_depth"), None);
    }

    /// The fleet tier's metric names must not abstain silently.
    #[test]
    fn fleet_keys_are_classified() {
        assert_eq!(classify("goodput_mbps"), Some(Better::Higher));
        assert_eq!(classify("mbps_in"), Some(Better::Higher));
        assert_eq!(classify("paying_attainment"), Some(Better::Higher));
        assert_eq!(classify("met_slo"), Some(Better::Higher));
        assert_eq!(classify("completed_per_sec"), Some(Better::Higher));
        assert_eq!(classify("shed"), Some(Better::Lower));
        assert_eq!(classify("best_effort_shed_total"), Some(Better::Lower));
        assert_eq!(classify("shed_bucket"), Some(Better::Lower));
        assert_eq!(classify("latency_p99_ns"), Some(Better::Lower));
        // Still-unclassified names keep abstaining (counts, echoes).
        assert_eq!(classify("stored"), None);
        assert_eq!(classify("placement_records"), None);
    }

    /// The adaptive-policy tier's metric names must not abstain silently.
    #[test]
    fn adaptive_keys_are_classified() {
        assert_eq!(classify("adaptive_goodput_mbps"), Some(Better::Higher));
        assert_eq!(classify("best_static_goodput_mbps"), Some(Better::Higher));
        assert_eq!(classify("goodput_gain_pct"), Some(Better::Higher));
        assert_eq!(classify("adaptive_ratio"), Some(Better::Higher));
        assert_eq!(classify("best_static_ratio"), Some(Better::Higher));
        // How much of the best static ratio adaptive keeps: dropping is
        // the regression.
        assert_eq!(classify("ratio_vs_best_static"), Some(Better::Higher));
        // Ratio *given up* gates in the opposite direction.
        assert_eq!(classify("ratio_cost_pct"), Some(Better::Lower));
        // Counts and digests keep abstaining.
        assert_eq!(classify("policy_decisions"), None);
        assert_eq!(classify("policy_digest"), None);
        assert_eq!(classify("stored_round_trips_checked"), None);
    }

    #[test]
    fn identical_documents_pass() {
        let doc = parse_json(
            r#"{"throughput_mbps": 120.5, "latency_p99_ns": 40000, "jobs": 100,
                "rows": [{"ratio": 3.1}, {"ratio": 2.2}]}"#,
        )
        .unwrap();
        let res = compare(&doc, &doc, 0.2);
        assert!(res.passed());
        assert_eq!(res.compared, 4);
    }

    /// The acceptance fixture: a synthetic ≥20% regression must fail.
    #[test]
    fn twenty_percent_regression_fails_the_gate() {
        let base = parse_json(r#"{"throughput_mbps": 100.0, "latency_p99_ns": 1000}"#).unwrap();
        let worse = parse_json(r#"{"throughput_mbps": 75.0, "latency_p99_ns": 1300}"#).unwrap();
        let res = compare(&base, &worse, 0.2);
        assert_eq!(res.regressions.len(), 2);
        let tp = &res.regressions[0];
        assert_eq!(tp.path, "throughput_mbps");
        assert!((tp.worse_by - 0.25).abs() < 1e-9);
        // Within threshold: a 10% drift passes.
        let drift = parse_json(r#"{"throughput_mbps": 90.0, "latency_p99_ns": 1100}"#).unwrap();
        assert!(compare(&base, &drift, 0.2).passed());
    }

    #[test]
    fn improvements_never_flag() {
        let base = parse_json(r#"{"throughput_mbps": 100.0, "latency_p99_ns": 1000}"#).unwrap();
        let better = parse_json(r#"{"throughput_mbps": 400.0, "latency_p99_ns": 10}"#).unwrap();
        assert!(compare(&base, &better, 0.2).passed());
    }

    #[test]
    fn zero_baselines_and_missing_keys_are_skipped() {
        let base = parse_json(r#"{"throughput_mbps": 0.0, "old_ns": 5}"#).unwrap();
        let cur = parse_json(r#"{"throughput_mbps": 50.0, "new_ns": 9}"#).unwrap();
        let res = compare(&base, &cur, 0.2);
        assert!(res.passed());
        assert_eq!(res.compared, 0);
    }

    #[test]
    fn nested_paths_name_the_offending_key() {
        let base = parse_json(r#"{"rows": [{"makespan_ns": 100}, {"makespan_ns": 100}]}"#).unwrap();
        let cur = parse_json(r#"{"rows": [{"makespan_ns": 100}, {"makespan_ns": 200}]}"#).unwrap();
        let res = compare(&base, &cur, 0.2);
        assert_eq!(res.regressions.len(), 1);
        assert_eq!(res.regressions[0].path, "rows[1].makespan_ns");
    }
}
