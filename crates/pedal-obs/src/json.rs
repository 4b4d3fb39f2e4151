//! Minimal JSON: a value model, a writer, and a strict parser.
//!
//! The workspace builds fully offline with no external registry crates
//! (DESIGN.md §4), so `serde`/`serde_json` are unavailable; this module
//! is the in-tree substitute. [`ToJson`] plays the role of
//! `serde::Serialize` for the stats/export types, and [`parse`] exists
//! so the verify gate can validate exported traces without shelling out
//! to an external tool.

use std::collections::BTreeMap;

/// A JSON document. Objects preserve insertion order via a key list so
/// exports are deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object builder preserving field order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Lossless for integers up to 2^53, which covers every count and
    /// nanosecond figure the exporters emit.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Multi-line serialization for committed files: each scalar, member
    /// and closing bracket on its own line, indented two spaces per level,
    /// in insertion order, so a `git diff` of two documents reads value by
    /// value. Scalars are written exactly as [`Json::write`] writes them.
    /// Ends with a newline, as a text file does.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(0, &mut out);
        out.push('\n');
        out
    }

    fn write_pretty(&self, depth: usize, out: &mut String) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
            scalar => return scalar.write(out),
        };
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(": ");
            }
            value.write_pretty(depth + 1, out);
        }
        if !entries.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// Compact single-line serialization (`Json::to_string` comes from
/// this impl).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; exporters only emit finite figures, but a
        // null is a safer degradation than invalid output.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The in-tree stand-in for `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parse failure with a byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Strict parser: exactly one JSON value plus trailing whitespace.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(JsonError { offset: pos, what: "trailing data" });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(JsonError { offset: *pos, what: "unexpected end of input" });
    };
    match c {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => parse_str(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_num(b, pos),
        _ => Err(JsonError { offset: *pos, what: "unexpected character" }),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &'static str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonError { offset: *pos, what: "bad literal" })
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or(JsonError { offset: start, what: "bad number" })
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut s = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err(JsonError { offset: *pos, what: "unterminated string" });
        };
        *pos += 1;
        match c {
            b'"' => return Ok(s),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err(JsonError { offset: *pos, what: "bad escape" });
                };
                *pos += 1;
                match e {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError { offset: *pos, what: "bad \\u escape" })?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our exporters;
                        // map lone surrogates to the replacement char.
                        s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(JsonError { offset: *pos - 1, what: "bad escape" }),
                }
            }
            c if c < 0x20 => return Err(JsonError { offset: *pos - 1, what: "raw control char" }),
            c if c < 0x80 => s.push(c as char),
            _ => {
                // Re-decode the UTF-8 sequence starting at pos-1.
                let start = *pos - 1;
                let len = utf8_len(c);
                let chunk = b
                    .get(start..start + len)
                    .and_then(|ch| std::str::from_utf8(ch).ok())
                    .ok_or(JsonError { offset: start, what: "bad utf-8" })?;
                s.push_str(chunk);
                *pos = start + len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError { offset: *pos, what: "expected , or ]" }),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(JsonError { offset: *pos, what: "expected object key" });
        }
        let key = parse_str(b, pos)?;
        if seen.insert(key.clone(), ()).is_some() {
            return Err(JsonError { offset: *pos, what: "duplicate key" });
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(JsonError { offset: *pos, what: "expected :" });
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        fields.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(JsonError { offset: *pos, what: "expected , or }" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("queue-wait \"x\"\n")),
            ("count", Json::u64(12345678901234)),
            ("ratio", Json::Num(2.75)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::u64(1), Json::str("two"), Json::Num(-3.5)])),
            ("unicode", Json::str("µs → ms")),
        ]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn integers_are_written_without_exponent() {
        assert_eq!(Json::u64(60_000).to_string(), "60000");
        assert_eq!(Json::u64(9_007_199_254_740_992).to_string(), "9007199254740992");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn pretty_output_parses_back_and_leaves_compact_output_alone() {
        let doc = Json::obj(vec![
            ("name", Json::str("tab\t \"q\" \\ \u{1}")),
            ("whole", Json::u64(60_000)),
            ("frac", Json::Num(-2.75)),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("rows", Json::Arr(vec![Json::obj(vec![("x", Json::Null)]), Json::Bool(true)])),
        ]);
        let pretty = doc.to_pretty_string();
        assert_eq!(parse(&pretty).unwrap(), doc);
        assert_eq!(
            pretty,
            "{\n  \"name\": \"tab\\t \\\"q\\\" \\\\ \\u0001\",\n  \"whole\": 60000,\n  \
             \"frac\": -2.75,\n  \"empty_arr\": [],\n  \"empty_obj\": {},\n  \"rows\": [\n    \
             {\n      \"x\": null\n    },\n    true\n  ]\n}\n"
        );
        assert_eq!(
            doc.to_string(),
            "{\"name\":\"tab\\t \\\"q\\\" \\\\ \\u0001\",\"whole\":60000,\"frac\":-2.75,\
             \"empty_arr\":[],\"empty_obj\":{},\"rows\":[{\"x\":null},true]}"
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "{\"a\":1,\"a\":2}", "tru", "1 2", "\"\\x\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"a\\u0041\\n\" , null ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap()[1].as_str(), Some("aA\n"));
    }

    #[test]
    fn get_and_accessors() {
        let v = parse("{\"a\": 3, \"b\": \"s\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("s"));
        assert_eq!(v.get("c"), None);
        assert_eq!(v.as_arr(), None);
    }
}
