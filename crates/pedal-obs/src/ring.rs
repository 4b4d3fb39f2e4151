//! Per-lane event journal: a bounded ring owned by exactly one thread.
//!
//! Recording is lock-free by construction — each lane (worker thread,
//! channel thread, scheduler) owns its ring outright and the hot path is
//! an index bump plus one struct store. When the ring is full, *new*
//! events are dropped and counted; nothing already recorded is ever
//! overwritten or torn, so an overflowing journal degrades to a truthful
//! prefix plus an explicit loss count — never silent corruption.

use crate::event::{Event, EventKind, SpanKind};
use pedal_dpu::SimInstant;

/// Default per-lane ring capacity (events, not bytes). At 40 bytes per
/// event this is ~2.6 MB per lane — cheap enough to leave on in every
/// bench run, the design requirement.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A bounded event journal owned by one lane.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { buf: Vec::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Record an event; returns `false` (and counts the loss) when full.
    #[inline]
    pub fn push(&mut self, ev: Event) -> bool {
        if self.buf.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.buf.push(ev);
        true
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events lost to overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn events(&self) -> &[Event] {
        &self.buf
    }

    pub fn into_events(self) -> (Vec<Event>, u64) {
        (self.buf, self.dropped)
    }
}

/// A lane's recording handle: an [`EventRing`] plus a track identity.
/// Construct one per thread; disabled recorders compile every call down
/// to a branch on a bool, which is what makes tracing safe to leave
/// plumbed through release paths.
#[derive(Debug)]
pub struct LaneRecorder {
    track: String,
    ring: EventRing,
    enabled: bool,
}

impl LaneRecorder {
    pub fn new(track: impl Into<String>, capacity: usize) -> Self {
        Self { track: track.into(), ring: EventRing::new(capacity), enabled: true }
    }

    /// A recorder that records nothing (tracing off).
    pub fn disabled() -> Self {
        Self { track: String::new(), ring: EventRing::new(1), enabled: false }
    }

    pub fn track(&self) -> &str {
        &self.track
    }

    #[inline]
    pub fn span(&mut self, kind: SpanKind, begin: SimInstant, end: SimInstant, arg: u64) {
        if self.enabled {
            self.ring.push(Event::span(kind, begin, end, arg));
        }
    }

    /// Record a span labelled with the tenant it serves.
    #[inline]
    pub fn span_for(
        &mut self,
        kind: SpanKind,
        begin: SimInstant,
        end: SimInstant,
        arg: u64,
        tenant: u32,
    ) {
        if self.enabled {
            self.ring.push(Event::span_for(kind, begin, end, arg, tenant));
        }
    }

    #[inline]
    pub fn counter(&mut self, kind: SpanKind, at: SimInstant, value: u64) {
        if self.enabled {
            self.ring.push(Event::counter(kind, at, value));
        }
    }

    #[inline]
    pub fn instant(&mut self, kind: SpanKind, at: SimInstant) {
        if self.enabled {
            self.ring.push(Event::instant(kind, at));
        }
    }

    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Consume the recorder into a finished track for collection.
    pub fn into_track(self) -> Track {
        let (events, dropped) = self.ring.into_events();
        Track { name: self.track, events, dropped }
    }
}

/// A finished lane journal, ready for aggregation/export.
#[derive(Debug, Clone)]
pub struct Track {
    pub name: String,
    pub events: Vec<Event>,
    pub dropped: u64,
}

impl Track {
    /// Total virtual time spent in spans of `kind` on this track.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.span == kind)
            .map(Event::dur)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_until_full_then_counts_drops() {
        let mut ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(Event::counter(SpanKind::Job, SimInstant(i), i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        // The retained prefix is intact — no overwrite, no tearing.
        let (events, dropped) = ring.into_events();
        assert_eq!(dropped, 2);
        assert_eq!(events.iter().map(|e| e.arg).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = LaneRecorder::disabled();
        r.span(SpanKind::Job, SimInstant(0), SimInstant(10), 0);
        r.counter(SpanKind::Job, SimInstant(0), 1);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn track_total_sums_one_kind_only() {
        let mut r = LaneRecorder::new("lane", 16);
        r.span(SpanKind::EngineExecute, SimInstant(0), SimInstant(10), 0);
        r.span(SpanKind::EngineExecute, SimInstant(20), SimInstant(25), 0);
        r.span(SpanKind::QueueWait, SimInstant(0), SimInstant(100), 0);
        let t = r.into_track();
        assert_eq!(t.total_ns(SpanKind::EngineExecute), 15);
        assert_eq!(t.total_ns(SpanKind::QueueWait), 100);
        assert_eq!(t.total_ns(SpanKind::Batch), 0);
    }
}
