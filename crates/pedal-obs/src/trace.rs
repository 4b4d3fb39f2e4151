//! Trace collection and export.
//!
//! Lanes record into private rings ([`crate::ring::LaneRecorder`]) and
//! hand their finished [`Track`]s to a shared [`Collector`] when they
//! exit; the merged [`TraceLog`] is then exported as Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto) or
//! inspected programmatically. Because span records are self-contained
//! (begin *and* end in one event), a dropped event can never orphan a
//! `B` — exported traces are balanced by construction, and
//! [`validate_chrome_trace`] proves it for the verify gate.

use crate::event::{Event, EventKind, SpanKind};
use crate::json::{parse, Json, JsonError};
use std::sync::{Arc, Mutex};

/// A merged multi-lane trace: one [`Track`] per recording thread plus
/// the total number of events lost to ring overflow.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    pub tracks: Vec<Track>,
    pub dropped: u64,
}

pub use crate::ring::Track;

impl TraceLog {
    pub fn is_empty(&self) -> bool {
        self.tracks.iter().all(|t| t.events.is_empty())
    }

    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// All span events of `kind`, across every track.
    pub fn spans(&self, kind: SpanKind) -> Vec<Event> {
        self.tracks
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.kind == EventKind::Span && e.span == kind)
            .copied()
            .collect()
    }

    /// Total virtual time across all tracks spent in spans of `kind`.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.tracks.iter().map(|t| t.total_ns(kind)).sum()
    }

    /// Per-stage aggregate: (kind, span count, total ns), only kinds
    /// that actually occurred, ordered by the stable kind code.
    pub fn stage_breakdown(&self) -> Vec<(SpanKind, u64, u64)> {
        SpanKind::ALL
            .iter()
            .filter_map(|&k| {
                let count = self
                    .tracks
                    .iter()
                    .flat_map(|t| t.events.iter())
                    .filter(|e| e.kind == EventKind::Span && e.span == k)
                    .count() as u64;
                (count > 0).then(|| (k, count, self.total_ns(k)))
            })
            .collect()
    }
}

/// Thread-safe sink the lanes push their finished tracks into. Lanes
/// touch it exactly once, at exit — the hot path never sees the lock.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<TraceLog>>,
}

impl Collector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&self, track: Track) {
        let mut log = self.inner.lock().unwrap();
        log.dropped += track.dropped;
        log.tracks.push(track);
    }

    /// Take the collected log, leaving the collector empty.
    pub fn take(&self) -> TraceLog {
        let mut log = self.inner.lock().unwrap();
        let mut out = TraceLog::default();
        std::mem::swap(&mut *log, &mut out);
        // Stable ordering regardless of lane exit interleaving.
        out.tracks.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// Export a [`TraceLog`] as Chrome `trace_event` JSON.
///
/// Spans become `B`/`E` pairs, counters become `C` events, markers
/// become `i` events; each track gets its own `tid` plus a
/// `thread_name` metadata record. `ts`/`dur` are microseconds (the
/// format's unit), derived from virtual nanoseconds. Overlapping spans
/// on one track are clamped into proper nesting — the serial-lane model
/// never produces them, but a malformed input must not produce an
/// unbalanced file.
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let mut events: Vec<Json> = Vec::new();
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);

    events.push(Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(1)),
        ("tid", Json::u64(0)),
        ("args", Json::obj(vec![("name", Json::str("pedal (virtual time)"))])),
    ]));

    for (idx, track) in log.tracks.iter().enumerate() {
        let tid = idx as u64 + 1;
        events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(1)),
            ("tid", Json::u64(tid)),
            ("args", Json::obj(vec![("name", Json::str(track.name.as_str()))])),
        ]));

        // Sort spans for nesting: earlier start first; at equal starts
        // the longer (outer) span first.
        let mut spans: Vec<&Event> =
            track.events.iter().filter(|e| e.kind == EventKind::Span).collect();
        spans.sort_by(|a, b| a.t0.cmp(&b.t0).then(b.t1.cmp(&a.t1)));

        // Stack of open span ends; close anything that finishes before
        // the next span begins, and clamp children into their parent.
        let mut open: Vec<(SpanKind, u64)> = Vec::new();
        for e in &spans {
            while let Some(&(k, end)) = open.last() {
                if end <= e.t0 {
                    events.push(end_event(k, end, tid, &us));
                    open.pop();
                } else {
                    break;
                }
            }
            let clamped_end = match open.last() {
                Some(&(_, parent_end)) => e.t1.min(parent_end),
                None => e.t1,
            };
            let mut args = vec![("arg", Json::u64(e.arg))];
            if e.tenant != 0 {
                args.push(("tenant", Json::u64(e.tenant as u64)));
            }
            events.push(Json::obj(vec![
                ("name", Json::str(e.span.name())),
                ("cat", Json::str(e.span.category())),
                ("ph", Json::str("B")),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(tid)),
                ("ts", us(e.t0)),
                ("args", Json::obj(args)),
            ]));
            open.push((e.span, clamped_end));
        }
        while let Some((k, end)) = open.pop() {
            events.push(end_event(k, end, tid, &us));
        }

        for e in track.events.iter().filter(|e| e.kind != EventKind::Span) {
            match e.kind {
                EventKind::Counter => events.push(Json::obj(vec![
                    ("name", Json::str(e.span.name())),
                    ("cat", Json::str(e.span.category())),
                    ("ph", Json::str("C")),
                    ("pid", Json::u64(1)),
                    ("tid", Json::u64(tid)),
                    ("ts", us(e.t0)),
                    ("args", Json::obj(vec![("value", Json::u64(e.arg))])),
                ])),
                EventKind::Instant => events.push(Json::obj(vec![
                    ("name", Json::str(e.span.name())),
                    ("cat", Json::str(e.span.category())),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("pid", Json::u64(1)),
                    ("tid", Json::u64(tid)),
                    ("ts", us(e.t0)),
                ])),
                EventKind::Span => unreachable!(),
            }
        }
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", Json::obj(vec![("droppedEvents", Json::u64(log.dropped))])),
    ])
    .to_string()
}

fn end_event(k: SpanKind, end_ns: u64, tid: u64, us: &dyn Fn(u64) -> Json) -> Json {
    Json::obj(vec![
        ("name", Json::str(k.name())),
        ("cat", Json::str(k.category())),
        ("ph", Json::str("E")),
        ("pid", Json::u64(1)),
        ("tid", Json::u64(tid)),
        ("ts", us(end_ns)),
    ])
}

/// Structural validation of an exported Chrome trace, used by the
/// verify gate's obs smoke stage.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheck {
    /// `B` events seen (== `E` events when balanced).
    pub spans: usize,
    /// Distinct span names seen across all threads.
    pub names: Vec<String>,
}

/// Error type for [`validate_chrome_trace`].
#[derive(Debug)]
pub enum TraceValidateError {
    Parse(JsonError),
    Structure(String),
}

impl std::fmt::Display for TraceValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceValidateError::Parse(e) => write!(f, "{e}"),
            TraceValidateError::Structure(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for TraceValidateError {}

/// Parse `text` as Chrome trace JSON and check that every thread's
/// `B`/`E` events pair up name-for-name with strict nesting. Returns
/// the span count and distinct names on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, TraceValidateError> {
    let doc = parse(text).map_err(TraceValidateError::Parse)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| TraceValidateError::Structure("missing traceEvents array".into()))?;

    let mut stacks: std::collections::BTreeMap<String, Vec<(String, f64)>> = Default::default();
    let mut spans = 0usize;
    let mut names: std::collections::BTreeSet<String> = Default::default();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "B" && ph != "E" {
            continue;
        }
        let tid = ev
            .get("tid")
            .map(|t| t.to_string())
            .ok_or_else(|| TraceValidateError::Structure(format!("event {i}: missing tid")))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| TraceValidateError::Structure(format!("event {i}: missing name")))?
            .to_string();
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| TraceValidateError::Structure(format!("event {i}: missing ts")))?;
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            if let Some((_, open_ts)) = stack.last() {
                if ts < *open_ts {
                    return Err(TraceValidateError::Structure(format!(
                        "event {i}: B '{name}' at {ts} precedes its parent"
                    )));
                }
            }
            stack.push((name.clone(), ts));
            names.insert(name);
            spans += 1;
        } else {
            let Some((open_name, open_ts)) = stack.pop() else {
                return Err(TraceValidateError::Structure(format!(
                    "event {i}: E '{name}' with no open span"
                )));
            };
            if open_name != name {
                return Err(TraceValidateError::Structure(format!(
                    "event {i}: E '{name}' closes open span '{open_name}'"
                )));
            }
            if ts < open_ts {
                return Err(TraceValidateError::Structure(format!(
                    "event {i}: E '{name}' at {ts} ends before its B at {open_ts}"
                )));
            }
        }
    }

    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(TraceValidateError::Structure(format!(
                "tid {tid}: span '{name}' never closed"
            )));
        }
    }

    Ok(TraceCheck { spans, names: names.into_iter().collect() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::LaneRecorder;
    use pedal_dpu::SimInstant;

    fn sample_log() -> TraceLog {
        let collector = Collector::new();
        let mut lane = LaneRecorder::new("soc-0", 64);
        lane.span(SpanKind::QueueWait, SimInstant(0), SimInstant(100), 1);
        lane.span(SpanKind::Job, SimInstant(100), SimInstant(500), 1);
        lane.span(SpanKind::PoolAcquire, SimInstant(100), SimInstant(120), 0);
        lane.span(SpanKind::SocExecute, SimInstant(120), SimInstant(480), 4096);
        lane.counter(SpanKind::Job, SimInstant(500), 1);
        collector.push(lane.into_track());

        let mut chan = LaneRecorder::new("ce-0", 64);
        chan.span(SpanKind::Batch, SimInstant(50), SimInstant(400), 4);
        chan.span(SpanKind::WorkqQueue, SimInstant(50), SimInstant(90), 0);
        chan.span(SpanKind::EngineExecute, SimInstant(90), SimInstant(400), 16384);
        collector.push(chan.into_track());
        collector.take()
    }

    #[test]
    fn collector_merges_and_orders_tracks() {
        let log = sample_log();
        assert_eq!(log.tracks.len(), 2);
        assert_eq!(log.tracks[0].name, "ce-0");
        assert_eq!(log.tracks[1].name, "soc-0");
        assert_eq!(log.event_count(), 8);
        // take() leaves it empty.
        let c = Collector::new();
        c.push(Track { name: "x".into(), events: vec![], dropped: 3 });
        assert_eq!(c.take().dropped, 3);
        assert_eq!(c.take().dropped, 0);
    }

    #[test]
    fn stage_breakdown_counts_only_present_kinds() {
        let log = sample_log();
        let stages = log.stage_breakdown();
        let get = |k: SpanKind| stages.iter().find(|(s, _, _)| *s == k);
        assert_eq!(get(SpanKind::QueueWait), Some(&(SpanKind::QueueWait, 1, 100)));
        assert_eq!(get(SpanKind::EngineExecute), Some(&(SpanKind::EngineExecute, 1, 310)));
        assert_eq!(get(SpanKind::Sz3Predict), None);
        assert_eq!(log.total_ns(SpanKind::Job), 400);
    }

    #[test]
    fn chrome_export_is_valid_and_balanced() {
        let log = sample_log();
        let text = chrome_trace_json(&log);
        let check = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.spans, 7);
        assert!(check.names.iter().any(|n| n == "queue-wait"));
        assert!(check.names.iter().any(|n| n == "engine-execute"));
        // dropped count surfaces in otherData.
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("otherData").unwrap().get("droppedEvents").unwrap().as_f64(), Some(0.0));
    }

    /// A tiny ring must drop newest events and count them — never
    /// corrupt the journal or unbalance the exported trace.
    #[test]
    fn full_ring_drops_and_counts_never_corrupts() {
        let collector = Collector::new();
        for name in ["soc-0", "ce-0"] {
            let mut lane = LaneRecorder::new(name, 16);
            for i in 0..20u64 {
                let t = i * 1_000;
                lane.span(SpanKind::QueueWait, SimInstant(t), SimInstant(t + 100), i);
                lane.span(SpanKind::Job, SimInstant(t + 100), SimInstant(t + 900), i);
                lane.span(SpanKind::EngineExecute, SimInstant(t + 200), SimInstant(t + 800), i);
            }
            collector.push(lane.into_track());
        }
        let log = collector.take();
        assert_eq!(log.dropped, 2 * (60 - 16), "every event past the ring is counted");
        for track in &log.tracks {
            assert_eq!(track.events.len(), 16, "track {} overflowed its ring", track.name);
            // The retained events are the recorded prefix, untouched.
            assert_eq!(track.events[15].arg, 5);
        }
        // The surviving prefix still exports to a structurally valid
        // trace, and the drop count is declared in the export.
        let json = chrome_trace_json(&log);
        let check = validate_chrome_trace(&json).expect("overflowed trace must stay well-formed");
        assert_eq!(check.spans, 32);
        let doc = parse(&json).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().get("droppedEvents").unwrap().as_f64(),
            Some(88.0)
        );
    }

    #[test]
    fn export_nests_contained_spans() {
        let text = chrome_trace_json(&sample_log());
        let doc = parse(&text).unwrap();
        // On the soc track, pool-acquire must open while job is open.
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let seq: Vec<(&str, &str)> = evs
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) != Some("M")
                    && e.get("tid").and_then(Json::as_f64) == Some(2.0)
            })
            .filter_map(|e| Some((e.get("ph")?.as_str()?, e.get("name")?.as_str()?)))
            .collect();
        let job_b = seq.iter().position(|&(ph, n)| ph == "B" && n == "job").unwrap();
        let pool_b = seq.iter().position(|&(ph, n)| ph == "B" && n == "pool-acquire").unwrap();
        let job_e = seq.iter().position(|&(ph, n)| ph == "E" && n == "job").unwrap();
        assert!(job_b < pool_b && pool_b < job_e, "sequence {seq:?}");
    }

    #[test]
    fn tenant_label_surfaces_in_span_args() {
        let mut lane = LaneRecorder::new("lane", 8);
        lane.span_for(SpanKind::Job, SimInstant(0), SimInstant(10), 1, 7);
        lane.span(SpanKind::QueueWait, SimInstant(20), SimInstant(30), 2);
        let c = Collector::new();
        c.push(lane.into_track());
        let text = chrome_trace_json(&c.take());
        let doc = parse(&text).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tenant_of = |name: &str| {
            evs.iter()
                .find(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("B")
                        && e.get("name").and_then(Json::as_str) == Some(name)
                })
                .and_then(|e| e.get("args").unwrap().get("tenant").and_then(Json::as_f64))
        };
        assert_eq!(tenant_of("job"), Some(7.0));
        assert_eq!(tenant_of("queue-wait"), None, "anonymous spans carry no label");
    }

    #[test]
    fn export_clamps_overlapping_spans_into_nesting() {
        // Hand-build a malformed overlap: [0,100] and [50,150].
        let mut lane = LaneRecorder::new("bad", 8);
        lane.span(SpanKind::Job, SimInstant(0), SimInstant(100), 0);
        lane.span(SpanKind::Batch, SimInstant(50), SimInstant(150), 0);
        let c = Collector::new();
        c.push(lane.into_track());
        let text = chrome_trace_json(&c.take());
        validate_chrome_trace(&text).expect("clamped trace still balanced");
    }

    #[test]
    fn validator_rejects_broken_traces() {
        let unbalanced = r#"{"traceEvents":[{"ph":"B","name":"x","tid":1,"ts":0}]}"#;
        assert!(validate_chrome_trace(unbalanced).is_err());
        let crossed = r#"{"traceEvents":[
            {"ph":"B","name":"a","tid":1,"ts":0},
            {"ph":"B","name":"b","tid":1,"ts":1},
            {"ph":"E","name":"a","tid":1,"ts":2},
            {"ph":"E","name":"b","tid":1,"ts":3}]}"#;
        assert!(validate_chrome_trace(crossed).is_err());
        let stray_end = r#"{"traceEvents":[{"ph":"E","name":"x","tid":1,"ts":0}]}"#;
        assert!(validate_chrome_trace(stray_end).is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
