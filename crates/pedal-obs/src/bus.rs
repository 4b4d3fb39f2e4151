//! `ObsBus`: an in-process stream of [`MetricsFrame`] updates for live
//! consumers (schedulers, dashboards, adaptive policies).
//!
//! The bus itself is plain data with one writer: the service's
//! completion ledger owns it behind one lock, so `subscribe` and
//! `publish` take `&mut self`. Only a subscriber's queue is shared, with
//! the thread that polls it. The contract the hot path needs:
//! **publishing never blocks**. Every subscriber owns a bounded queue; a
//! publish that cannot take a subscriber's lock immediately, or finds
//! the queue full, increments that subscriber's drop counter and moves
//! on. Slow consumers lose frames (and can see exactly how many via
//! [`BusSubscription::dropped`]); they never slow the service down —
//! the same drop-newest-and-count discipline as the event ring.

use crate::json::{Json, ToJson};
use pedal_dpu::SimInstant;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What kind of job outcome a frame reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Completed,
    Failed,
    Shed,
    Rejected,
}

impl FrameKind {
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Completed => "completed",
            FrameKind::Failed => "failed",
            FrameKind::Shed => "shed",
            FrameKind::Rejected => "rejected",
        }
    }
}

/// One live metrics update. `seq` is assigned by the bus and increases
/// by one per publish, so a consumer can detect its own gaps even
/// without reading the drop counter. Latency/service/byte fields are
/// zero for outcomes that never ran (shed, rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsFrame {
    pub seq: u64,
    pub at: SimInstant,
    pub tenant: u32,
    pub kind: FrameKind,
    pub latency_ns: u64,
    pub service_ns: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub queue_depth: u64,
}

impl ToJson for MetricsFrame {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::u64(self.seq)),
            ("at_ns", Json::u64(self.at.0)),
            ("tenant", Json::u64(self.tenant as u64)),
            ("kind", Json::str(self.kind.name())),
            ("latency_ns", Json::u64(self.latency_ns)),
            ("service_ns", Json::u64(self.service_ns)),
            ("bytes_in", Json::u64(self.bytes_in)),
            ("bytes_out", Json::u64(self.bytes_out)),
            ("queue_depth", Json::u64(self.queue_depth)),
        ])
    }
}

struct SubState {
    cap: usize,
    queue: Mutex<VecDeque<MetricsFrame>>,
    dropped: AtomicU64,
    closed: AtomicBool,
}

/// The publish side. `publish` is called from the service completion
/// path and must never block it.
#[derive(Default)]
pub struct ObsBus {
    subs: Vec<Arc<SubState>>,
    seq: u64,
}

impl ObsBus {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a consumer with a queue bounded at `capacity` frames
    /// (minimum 1). Dropping the subscription detaches it.
    pub fn subscribe(&mut self, capacity: usize) -> BusSubscription {
        let state = Arc::new(SubState {
            cap: capacity.max(1),
            queue: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        self.subs.retain(|s| !s.closed.load(Ordering::Relaxed));
        self.subs.push(state.clone());
        BusSubscription { state }
    }

    /// Broadcast `frame` to every live subscriber, assigning its `seq`.
    /// Non-blocking by construction: a busy or full subscriber queue
    /// counts a drop instead of waiting.
    pub fn publish(&mut self, mut frame: MetricsFrame) -> u64 {
        frame.seq = self.seq;
        self.seq += 1;
        for s in &self.subs {
            if s.closed.load(Ordering::Relaxed) {
                continue;
            }
            match s.queue.try_lock() {
                Ok(mut q) if q.len() < s.cap => q.push_back(frame),
                Ok(_) | Err(_) => {
                    s.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        frame.seq
    }

    /// Frames published so far (the next frame's `seq`).
    pub fn published(&self) -> u64 {
        self.seq
    }

    /// Live (non-closed) subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.subs.iter().filter(|s| !s.closed.load(Ordering::Relaxed)).count()
    }
}

/// The consume side: poll frames out, read the drop counter. Polling
/// holds the queue lock briefly, during which concurrent publishes to
/// *this* subscriber count as drops — the cost of slowness lands on the
/// slow consumer, never the publisher.
pub struct BusSubscription {
    state: Arc<SubState>,
}

impl BusSubscription {
    /// Drain everything queued.
    pub fn poll(&self) -> Vec<MetricsFrame> {
        self.state.queue.lock().unwrap().drain(..).collect()
    }

    /// Frames this subscriber lost to a full or busy queue.
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Relaxed)
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.state.queue.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for BusSubscription {
    fn drop(&mut self) {
        self.state.closed.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tenant: u32) -> MetricsFrame {
        MetricsFrame {
            seq: 0,
            at: SimInstant(42),
            tenant,
            kind: FrameKind::Completed,
            latency_ns: 1_000,
            service_ns: 700,
            bytes_in: 4096,
            bytes_out: 1024,
            queue_depth: 3,
        }
    }

    #[test]
    fn frames_arrive_in_order_with_dense_seq() {
        let mut bus = ObsBus::new();
        let sub = bus.subscribe(16);
        for t in 0..5 {
            bus.publish(frame(t));
        }
        let got = sub.poll();
        assert_eq!(got.len(), 5);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.tenant, i as u32);
        }
        assert_eq!(sub.dropped(), 0);
        assert_eq!(bus.published(), 5);
    }

    #[test]
    fn slow_subscriber_drops_and_counts_never_blocks() {
        let mut bus = ObsBus::new();
        let sub = bus.subscribe(2);
        for t in 0..7 {
            bus.publish(frame(t));
        }
        // Queue bounded at 2: the first two frames survive, five drop.
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.dropped(), 5);
        let got = sub.poll();
        assert_eq!((got[0].tenant, got[1].tenant), (0, 1));
        // seq still reveals the gap to the consumer.
        assert_eq!(bus.published(), 7);
        // After draining, delivery resumes.
        bus.publish(frame(9));
        assert_eq!(sub.poll().len(), 1);
        assert_eq!(sub.dropped(), 5);
    }

    #[test]
    fn dropped_subscription_detaches() {
        let mut bus = ObsBus::new();
        let sub = bus.subscribe(4);
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        assert_eq!(bus.subscriber_count(), 0);
        // Publishing to nobody is fine and still advances seq.
        assert_eq!(bus.publish(frame(0)), 0);
        assert_eq!(bus.publish(frame(0)), 1);
    }

    #[test]
    fn publish_while_subscriber_holds_lock_counts_a_drop() {
        let mut bus = ObsBus::new();
        let sub = bus.subscribe(1024);
        let guard = sub.state.queue.lock().unwrap();
        bus.publish(frame(1));
        drop(guard);
        assert_eq!(sub.dropped(), 1);
        assert!(sub.is_empty());
    }

    #[test]
    fn frame_json_carries_all_fields() {
        let mut f = frame(3);
        f.seq = 11;
        let j = f.to_json();
        assert_eq!(j.get("seq").unwrap().as_f64(), Some(11.0));
        assert_eq!(j.get("kind").unwrap().as_str(), Some("completed"));
        assert_eq!(j.get("queue_depth").unwrap().as_f64(), Some(3.0));
    }
}
