//! In-memory span recording for the traced run.
//!
//! Spans are taken from the benchmark's side of each layer boundary: the
//! benchmark opens a span, calls the crate's public function, and closes
//! it. Nothing inside the crates is instrumented. Spans nest by a stack,
//! so each records its parent; spans of one request share its id.

use pedal_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request (or message) the span served.
    pub req: u64,
    /// Bytes the call processed, for rate metrics.
    pub bytes: u64,
    /// Thread the span ran on (Chrome trace `tid`).
    pub track: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. Disabled tracers record nothing and
/// cost one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    track: u32,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool, track: u32) -> Self {
        Self { epoch, enabled, track, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span for request `req`; it nests under the innermost open
    /// span. Its slot is taken now, so a span's index is below its
    /// children's.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if self.enabled {
            let start_ns = self.now_ns();
            let parent = self.open.last().copied();
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
                bytes: 0,
                track: self.track,
            });
        }
    }

    /// Close the innermost open span, recording `bytes` processed.
    pub fn exit(&mut self, bytes: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[self.open.pop().expect("exit without enter")];
        span.end_ns = end_ns;
        span.bytes = bytes;
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, req);
        let r = f();
        self.exit(bytes);
        r
    }

    /// Move another tracer's spans into this one (e.g. a second rank's).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
    pub bytes: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }

    /// Bytes per microsecond is MB/s.
    pub fn mbps(&self) -> f64 {
        self.bytes as f64 / (self.total_ns.max(1) as f64 / 1e3)
    }
}

/// Aggregate spans by name, computing each span's self time as its
/// duration minus its direct children's durations.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(c);
        a.bytes += s.bytes;
    }
    out
}

/// Chrome `trace_event` JSON with one balanced `B`/`E` pair per span,
/// laid out the way `pedal_obs::chrome_trace_json` lays out lane tracks
/// (so `pedal_obs::validate_chrome_trace` accepts it). Timestamps are
/// wall-clock microseconds since the run's epoch.
pub fn chrome_json(spans: &[Span]) -> String {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    let mut events = vec![Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::u64(1)),
        ("args", Json::obj(vec![("name", Json::str("perfbench (wall clock)"))])),
    ])];
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].track, spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
    let mut open: Vec<usize> = Vec::new();
    let close = |i: usize, events: &mut Vec<Json>| {
        let s = &spans[i];
        events.push(Json::obj(vec![
            ("name", Json::str(s.name)),
            ("ph", Json::str("E")),
            ("pid", Json::u64(1)),
            ("tid", Json::u64(s.track as u64)),
            ("ts", us(s.end_ns)),
        ]));
    };
    for i in order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.track != s.track || t.end_ns <= s.start_ns {
                close(top, &mut events);
                open.pop();
            } else {
                break;
            }
        }
        let parent = s.parent.map_or(Json::Null, |p| Json::u64(p as u64));
        events.push(Json::obj(vec![
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
            ("ph", Json::str("B")),
            ("pid", Json::u64(1)),
            ("tid", Json::u64(s.track as u64)),
            ("ts", us(s.start_ns)),
            (
                "args",
                Json::obj(vec![
                    ("id", Json::u64(i as u64)),
                    ("parent", parent),
                    ("req", Json::u64(s.req)),
                    ("bytes", Json::u64(s.bytes)),
                ]),
            ),
        ]));
        open.push(i);
    }
    while let Some(top) = open.pop() {
        close(top, &mut events);
    }
    Json::obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut t = Tracer::new(Instant::now(), true, 0);
        t.enter("outer", 7);
        t.span("inner", 7, 100, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("inner", 7, 100, || ());
        t.exit(200);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let agg = aggregate(spans);
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.bytes, 200);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        t.enter("a", 0);
        t.span("b", 0, 1, || ());
        t.exit(0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_balanced() {
        let mut a = Tracer::new(Instant::now(), true, 0);
        let mut b = Tracer::new(Instant::now(), true, 1);
        for req in 0..3 {
            a.enter("p2p.message", req);
            a.span("codesign.send", req, 10, || ());
            a.exit(10);
            b.span("codesign.recv", req, 10, || ());
        }
        a.absorb(b);
        let text = chrome_json(a.spans());
        let check = pedal_obs::validate_chrome_trace(&text).expect("balanced trace");
        assert_eq!(check.spans, 9);
        assert_eq!(check.names, vec!["codesign.recv", "codesign.send", "p2p.message"]);
    }
}
