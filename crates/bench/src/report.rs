//! Machine-readable result emission for the experiments.
//!
//! Besides its table text, an experiment may record a `BENCH_<name>.json`
//! document (written at the repository root), one value per line, so
//! scripts can read the numbers without scraping table text and the
//! `git diff` of a refresh reads metric by metric. All serialization goes
//! through `pedal_obs::Json` — the repo carries no external serde dependency.

use std::path::PathBuf;

use pedal_dpu::SimDuration;
use pedal_obs::Json;

use crate::Artifacts;

/// Accumulates one experiment's machine-readable output, recorded as
/// `BENCH_<name>.json`.
pub struct BenchReport {
    name: String,
    fields: Vec<(String, Json)>,
}

impl BenchReport {
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let fields = vec![
            ("artifact".to_string(), Json::str(&name)),
            ("time_base".into(), Json::str("virtual-ns")),
        ];
        Self { name, fields }
    }

    /// Attach one top-level section (scalar, array, or object).
    pub fn set(&mut self, key: impl Into<String>, value: Json) -> &mut Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Record the document as `BENCH_<name>.json` in `out`.
    pub fn write(self, out: &mut Artifacts) {
        out.file(format!("BENCH_{}.json", self.name), Json::Obj(self.fields).to_pretty_string());
    }
}

/// The repository root (two levels above the bench crate).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives two levels under the repo root")
        .to_path_buf()
}

/// `Option<SimDuration>` as microseconds for table cells: `-` when the
/// percentile has no samples.
pub fn fmt_us_opt(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.1}", d.as_micros_f64()),
        None => "-".to_string(),
    }
}

/// `Option<SimDuration>` as JSON nanoseconds (`null` when empty).
pub fn json_ns_opt(d: Option<SimDuration>) -> Json {
    match d {
        Some(d) => Json::u64(d.as_nanos()),
        None => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_strict_parser() {
        let mut r = BenchReport::new("unit_test");
        r.set("rows", Json::Arr(vec![Json::obj(vec![("x", Json::u64(1))])]));
        let doc = Json::Obj(r.fields.clone());
        let parsed = pedal_obs::parse_json(&doc.to_pretty_string()).expect("valid json");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("artifact").and_then(Json::as_str), Some("unit_test"));
    }

    /// The report is recorded at the repository root, the one copy the
    /// verify gate checks, and adds no table text.
    #[test]
    fn write_mirrors_report_at_repo_root() {
        let mut r = BenchReport::new("report_unit_test");
        r.set("ok", Json::u64(1));
        let doc = "{\n  \"artifact\": \"report_unit_test\",\n  \"time_base\": \"virtual-ns\",\n  \
                   \"ok\": 1\n}\n";
        let mut out = Artifacts::default();
        r.write(&mut out);
        assert_eq!(out.text, "");
        assert_eq!(out.files, [("BENCH_report_unit_test.json".to_string(), doc.to_string())]);
    }

    #[test]
    fn optional_durations_format_and_serialize() {
        assert_eq!(fmt_us_opt(None), "-");
        assert_eq!(fmt_us_opt(Some(SimDuration::from_micros(12))), "12.0");
        assert_eq!(json_ns_opt(None), Json::Null);
    }
}
