//! Machine-readable result emission for the harness binaries.
//!
//! Every harness prints its human-facing tables to stdout as before, and
//! additionally writes a `BENCH_<name>.json` document at the repository
//! root so scripts (and the verify gate) can consume the same numbers
//! without scraping table text. Traced runs drop their Chrome trace /
//! metrics JSONL under `results/`. All serialization goes through
//! `pedal_obs::Json` — the repo carries no external serde dependency.

use std::path::PathBuf;

use pedal_dpu::SimDuration;
use pedal_obs::Json;

/// The shared `results/` directory at the repository root, independent
/// of the invoking working directory. Created on first use.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives two levels under the repo root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Write `contents` to `results/<filename>`, returning the full path.
pub fn write_results_file(filename: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(filename);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Accumulates one harness run's machine-readable output and writes it
/// as `BENCH_<name>.json` at the repository root.
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

    /// Write `BENCH_<name>.json` at the repository root and report
    /// where it went.
    pub fn write(&self) -> PathBuf {
        let doc = Json::Obj(self.fields.clone()).to_string();
        let path = repo_root().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("\n[report] {}", path.display());
        path
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
        let doc = Json::Obj(r.fields.clone()).to_string();
        let parsed = pedal_obs::parse_json(&doc).expect("valid json");
        assert_eq!(parsed.get("artifact").and_then(Json::as_str), Some("unit_test"));
    }

    /// The report lands at the repository root, the one copy the verify
    /// gate checks, and nowhere under `results/`.
    #[test]
    fn write_mirrors_report_at_repo_root() {
        let mut r = BenchReport::new("report_unit_test");
        r.set("ok", Json::u64(1));
        let path = r.write();
        assert_eq!(path, repo_root().join("BENCH_report_unit_test.json"));
        let doc = std::fs::read_to_string(&path).expect("report written");
        assert_eq!(doc, Json::Obj(r.fields.clone()).to_string());
        assert!(!results_dir().join("BENCH_report_unit_test.json").exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn optional_durations_format_and_serialize() {
        assert_eq!(fmt_us_opt(None), "-");
        assert_eq!(fmt_us_opt(Some(SimDuration::from_micros(12))), "12.0");
        assert_eq!(json_ns_opt(None), Json::Null);
    }
}
