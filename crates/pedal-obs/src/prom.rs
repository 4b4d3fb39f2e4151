//! Prometheus-style text exposition: a writer that produces well-formed
//! `# HELP`/`# TYPE`/sample lines, and a strict validator used by the
//! verify pipeline to prove exported output actually parses (metric-name
//! and label syntax, finite values, non-negative counters) and that
//! counters move monotonically between two scrapes.

use std::collections::BTreeMap;

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Builds a text exposition. Families are announced with
/// [`family`](Self::family); samples reference any announced or ad-hoc
/// name. Names are validated eagerly (debug assert).
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Announce a metric family: `# HELP` + `# TYPE` comment lines.
    /// `kind` is one of `counter`, `gauge`, `summary`, `histogram`,
    /// `untyped`.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_metric_name(name), "bad metric name {name:?}");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&help.replace('\n', " "));
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Emit one sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        debug_assert!(valid_metric_name(name), "bad metric name {name:?}");
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                debug_assert!(valid_label_name(k), "bad label name {k:?}");
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label_value(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// What a successful validation saw.
#[derive(Debug, Clone, Default)]
pub struct PromCheck {
    /// Total sample lines.
    pub samples: usize,
    /// Family name → declared type.
    pub families: BTreeMap<String, String>,
    /// Full sample key (`name{labels}`) → value, for every sample whose
    /// family is a `counter`. Feed two of these to
    /// [`counters_monotone`].
    pub counters: BTreeMap<String, f64>,
}

/// Strictly parse a text exposition. Checks metric-name and label-name
/// syntax, label-value escaping, numeric values, `# TYPE` declarations,
/// and that counter samples are finite and non-negative.
pub fn validate_exposition(text: &str) -> Result<PromCheck, String> {
    let mut check = PromCheck::default();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or(format!("line {n}: TYPE without name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name {name:?}"));
                    }
                    let kind = parts.next().unwrap_or("").trim();
                    if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind) {
                        return Err(format!("line {n}: unknown type {kind:?}"));
                    }
                    check.families.insert(name.to_string(), kind.to_string());
                }
                Some("HELP") => {
                    let name = parts.next().ok_or(format!("line {n}: HELP without name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name {name:?}"));
                    }
                }
                _ => {} // other comments are legal
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        if !valid_metric_name(&name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        for (k, _) in &labels {
            if !valid_label_name(k) {
                return Err(format!("line {n}: bad label name {k:?}"));
            }
        }
        check.samples += 1;
        // A summary's `x_sum`/`x_count` samples belong to family `x`.
        let family = check
            .families
            .get(&name)
            .map(|_| name.clone())
            .or_else(|| {
                name.strip_suffix("_sum")
                    .or_else(|| name.strip_suffix("_count"))
                    .or_else(|| name.strip_suffix("_bucket"))
                    .filter(|base| check.families.contains_key(*base))
                    .map(str::to_string)
            })
            .unwrap_or_else(|| name.clone());
        if check.families.get(&family).map(String::as_str) == Some("counter") {
            if !value.is_finite() || value < 0.0 {
                return Err(format!("line {n}: counter {name} has value {value}"));
            }
            let key = sample_key(&name, &labels);
            check.counters.insert(key, value);
        }
    }
    Ok(check)
}

fn sample_key(name: &str, labels: &[(String, String)]) -> String {
    let mut key = name.to_string();
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

type Sample = (String, Vec<(String, String)>, f64);

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            i += 1;
        } else {
            break;
        }
    }
    if i == 0 {
        return Err("missing metric name".into());
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            if i >= bytes.len() {
                return Err("unterminated label set".into());
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            let start = i;
            while i < bytes.len() && bytes[i] != b'=' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err("label without '='".into());
            }
            let key = line[start..i].to_string();
            i += 1; // '='
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("label value must be quoted".into());
            }
            i += 1;
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return Err("unterminated label value".into());
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err("bad escape in label value".into()),
                        }
                        i += 1;
                    }
                    b => {
                        value.push(b as char);
                        i += 1;
                    }
                }
            }
            labels.push((key, value));
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
            }
        }
    }
    let rest = line[i..].trim();
    let mut parts = rest.split_whitespace();
    let value_str = parts.next().ok_or("missing value")?;
    let value = match value_str {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s.parse::<f64>().map_err(|_| format!("bad value {s:?}"))?,
    };
    // Optional timestamp.
    if let Some(ts) = parts.next() {
        ts.parse::<i64>().map_err(|_| format!("bad timestamp {ts:?}"))?;
    }
    if parts.next().is_some() {
        return Err("trailing tokens after sample".into());
    }
    Ok((name, labels, value))
}

/// Check that every counter present in `before` is present in `after`
/// with a value at least as large — the monotonicity law counters must
/// obey between two scrapes of the same process.
pub fn counters_monotone(before: &PromCheck, after: &PromCheck) -> Result<(), String> {
    for (key, b) in &before.counters {
        match after.counters.get(key) {
            None => return Err(format!("counter {key} disappeared")),
            Some(a) if a < b => {
                return Err(format!("counter {key} went backwards: {b} -> {a}"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbl(k: &'static str, v: &str) -> (&'static str, String) {
        (k, v.to_string())
    }

    #[test]
    fn writer_output_validates() {
        let mut w = PromWriter::new();
        w.family("pedal_jobs_completed_total", "Jobs completed.", "counter");
        w.sample("pedal_jobs_completed_total", &[lbl("tenant", "3")], 42.0);
        w.family("pedal_latency_ns", "End-to-end latency.", "summary");
        w.sample("pedal_latency_ns", &[lbl("quantile", "0.99")], 123456.0);
        w.sample("pedal_latency_ns_sum", &[], 999999.0);
        w.sample("pedal_latency_ns_count", &[], 10.0);
        w.family("pedal_queue_depth", "Current depth.", "gauge");
        w.sample("pedal_queue_depth", &[], 0.0);
        let text = w.finish();
        let check = validate_exposition(&text).expect("validates");
        assert_eq!(check.samples, 5);
        assert_eq!(check.families["pedal_latency_ns"], "summary");
        assert_eq!(check.counters["pedal_jobs_completed_total{tenant=3}"], 42.0);
    }

    #[test]
    fn bad_expositions_are_rejected() {
        for (text, why) in [
            ("9bad_name 1\n", "leading digit"),
            ("name{2bad=\"x\"} 1\n", "bad label"),
            ("name{l=\"unterminated} 1\n", "unterminated"),
            ("name notanumber\n", "bad value"),
            ("# TYPE name wat\n", "bad type"),
            ("name{l=\"v\"} 1 2 3\n", "trailing"),
        ] {
            assert!(validate_exposition(text).is_err(), "{why}");
        }
    }

    #[test]
    fn negative_counters_are_rejected() {
        let text = "# TYPE c_total counter\nc_total -1\n";
        assert!(validate_exposition(text).is_err());
        let gauge = "# TYPE g gauge\ng -1\n";
        assert!(validate_exposition(gauge).is_ok(), "gauges may be negative");
    }

    #[test]
    fn escaped_label_values_roundtrip() {
        let mut w = PromWriter::new();
        w.sample("m", &[lbl("l", "a\"b\\c")], 1.0);
        let text = w.finish();
        let check = validate_exposition(&text).expect("validates");
        assert_eq!(check.samples, 1);
    }

    #[test]
    fn monotone_check_catches_regressions() {
        let a = validate_exposition("# TYPE c_total counter\nc_total 5\n").unwrap();
        let b = validate_exposition("# TYPE c_total counter\nc_total 9\n").unwrap();
        assert!(counters_monotone(&a, &b).is_ok());
        assert!(counters_monotone(&b, &a).is_err(), "going backwards fails");
        let gone = validate_exposition("# TYPE c_total counter\n").unwrap();
        assert!(counters_monotone(&a, &gone).is_err(), "disappearing fails");
    }
}
