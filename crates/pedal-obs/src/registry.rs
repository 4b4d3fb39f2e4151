//! Metrics series summaries: a frozen [`HistSummary`] of one
//! [`LogHistogram`], and a [`MetricsSnapshot`] of named counters and
//! histograms with its JSONL export. The recorder that owns the live
//! series (the service's completion ledger) builds the snapshot.

use crate::hist::LogHistogram;
use crate::json::{Json, ToJson};
use std::collections::BTreeMap;

/// A frozen summary of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub min: Option<u64>,
    pub max: Option<u64>,
    pub mean: Option<f64>,
    pub p50: Option<u64>,
    pub p90: Option<u64>,
    pub p99: Option<u64>,
}

impl HistSummary {
    pub fn of(h: &LogHistogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
        }
    }
}

impl ToJson for HistSummary {
    fn to_json(&self) -> Json {
        fn opt(v: Option<u64>) -> Json {
            v.map(Json::u64).unwrap_or(Json::Null)
        }
        Json::obj(vec![
            ("count", Json::u64(self.count)),
            ("sum", Json::u64(self.sum)),
            ("min", opt(self.min)),
            ("max", opt(self.max)),
            ("mean", self.mean.map(Json::Num).unwrap_or(Json::Null)),
            ("p50", opt(self.p50)),
            ("p90", opt(self.p90)),
            ("p99", opt(self.p99)),
        ])
    }
}

/// Schema tag emitted by [`MetricsSnapshot::to_jsonl_versioned`].
/// Consumers key parsers off this line; the tag only changes when the
/// per-series line shape changes.
pub const METRICS_SCHEMA: &str = "pedal.metrics.v2";

/// A frozen copy of all series at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistSummary>,
}

impl MetricsSnapshot {
    /// Render as JSONL: one line per series, `{"series": name, ...}`.
    /// Counters carry `value`; histograms carry the summary fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let line = Json::obj(vec![
                ("series", Json::str(name.as_str())),
                ("type", Json::str("counter")),
                ("value", Json::u64(*value)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let mut fields = vec![
                ("series".to_string(), Json::str(name.as_str())),
                ("type".to_string(), Json::str("histogram")),
            ];
            if let Json::Obj(hf) = h.to_json() {
                fields.extend(hf);
            }
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// Versioned JSONL: a schema header line (`{"schema": ..}` with
    /// series counts) followed by the [`to_jsonl`](Self::to_jsonl)
    /// body. The header lets a consumer reject a shape it does not
    /// understand before touching any series line.
    pub fn to_jsonl_versioned(&self) -> String {
        let header = Json::obj(vec![
            ("schema", Json::str(METRICS_SCHEMA)),
            ("counters", Json::u64(self.counters.len() as u64)),
            ("histograms", Json::u64(self.histograms.len() as u64)),
        ]);
        format!("{header}\n{}", self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// One counter `c1` = 9 and one histogram `h1` holding a single 42.
    fn one_of_each() -> MetricsSnapshot {
        let mut h = LogHistogram::new();
        h.record(42);
        MetricsSnapshot {
            counters: [("c1".to_string(), 9)].into(),
            histograms: [("h1".to_string(), HistSummary::of(&h))].into(),
        }
    }

    #[test]
    fn histogram_series_summarize() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let s = HistSummary::of(&h);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Some(100));
        assert_eq!(s.max, Some(300));
        assert_eq!(s.mean, Some(200.0));
        assert!(s.p50.is_some() && s.p99.is_some());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_series_names() {
        let jsonl = one_of_each().to_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = parse(line).expect("line parses");
            assert!(v.get("series").is_some());
        }
        let h = parse(lines[1]).unwrap();
        assert_eq!(h.get("p50").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn versioned_jsonl_leads_with_schema_header() {
        let snap = one_of_each();
        let jsonl = snap.to_jsonl_versioned();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(header.get("counters").unwrap().as_f64(), Some(1.0));
        assert_eq!(header.get("histograms").unwrap().as_f64(), Some(1.0));
        // Body lines are unchanged from to_jsonl().
        assert_eq!(jsonl.split_once('\n').unwrap().1, snap.to_jsonl());
    }

    #[test]
    fn empty_histogram_summary_is_explicit_none() {
        let h = HistSummary::of(&LogHistogram::new());
        assert_eq!(h.count, 0);
        assert_eq!(h.p50, None);
        assert_eq!(h.min, None);
    }
}
