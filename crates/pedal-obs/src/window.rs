//! Rolling virtual-time windows: histograms, counters, and high-watermark
//! gauges.
//!
//! Everything here is keyed on **virtual** time ([`SimInstant`]), so a
//! "rolling p99 over the last 80 ms" is deterministic across hosts and
//! reruns — the same property the bench suite relies on everywhere else.
//!
//! The windowed structures share one design: a fixed ring of slots, each
//! covering one `slot` of virtual time. A slot is tagged with the epoch
//! (`t / slot_ns`) it currently holds; recording into a newer epoch CAS-
//! advances the tag and the winner resets the slot, making rotation O(1)
//! (one slot's worth of work, never a scan of history). A summary merges
//! only the slots whose epoch lies inside the window ending at `now`, so
//! expired or freshly-rotated slots contribute nothing — an empty window
//! reports `None` quantiles, never a stale or zero value.

use crate::hist::LogHistogram;
use crate::registry::HistSummary;
use pedal_dpu::{SimDuration, SimInstant};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shape of a rolling window: `slots` ring slots of `slot` virtual time
/// each; the rolling view covers `slot * slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    pub slot: SimDuration,
    pub slots: usize,
}

impl WindowConfig {
    /// Clamped to at least 1 ns slots and 2 slots, so a window always
    /// survives one rotation without losing the current slot.
    pub fn new(slot: SimDuration, slots: usize) -> Self {
        Self { slot: SimDuration(slot.as_nanos().max(1)), slots: slots.max(2) }
    }

    /// Total virtual time the window covers.
    pub fn span(&self) -> SimDuration {
        SimDuration(self.slot.as_nanos().saturating_mul(self.slots as u64))
    }
}

impl Default for WindowConfig {
    /// 10 ms slots × 8 — an 80 ms rolling view, generous enough that
    /// short deterministic tests keep every sample "recent".
    fn default() -> Self {
        Self::new(SimDuration::from_millis(10), 8)
    }
}

/// Slot epoch tags store `epoch + 1` so 0 can mean "never used".
const EMPTY_TAG: u64 = 0;

struct HistSlot {
    tag: AtomicU64,
    hist: LogHistogram,
}

/// A rolling-window HDR histogram: `record_at` lands each sample in the
/// slot covering its virtual timestamp, `summary_at` merges the live
/// slots into one [`HistSummary`]. Rotation is O(1) and samples that
/// arrive after their slot has already been recycled are dropped and
/// counted, never smeared into the wrong window.
pub struct WindowedHistogram {
    slot_ns: u64,
    slots: Vec<HistSlot>,
    late_dropped: AtomicU64,
}

/// Every windowed structure divides sample timestamps by the slot width,
/// so a zero-width slot is not a degenerate window — it is a guaranteed
/// divide-by-zero at the first `record_at`/`summary_at`. `WindowConfig`'s
/// fields are public (struct-literal construction bypasses the clamp in
/// [`WindowConfig::new`]), so the constructors themselves must refuse it.
fn checked_slot_ns(cfg: &WindowConfig) -> u64 {
    assert!(
        cfg.slot.as_nanos() > 0,
        "rolling window slot width must be > 0 ns (got 0); \
         use WindowConfig::new, which clamps, or pass a non-zero slot"
    );
    assert!(
        cfg.slots >= 2,
        "rolling window needs at least 2 slots (got {}); \
         a single slot cannot survive rotation",
        cfg.slots
    );
    cfg.slot.as_nanos()
}

impl WindowedHistogram {
    pub fn new(cfg: WindowConfig) -> Self {
        Self {
            slot_ns: checked_slot_ns(&cfg),
            slots: (0..cfg.slots)
                .map(|_| HistSlot { tag: AtomicU64::new(EMPTY_TAG), hist: LogHistogram::new() })
                .collect(),
            late_dropped: AtomicU64::new(0),
        }
    }

    /// Virtual time covered by the full window.
    pub fn span(&self) -> SimDuration {
        SimDuration(self.slot_ns.saturating_mul(self.slots.len() as u64))
    }

    /// Record `v` at virtual instant `at`.
    pub fn record_at(&self, at: SimInstant, v: u64) {
        let epoch = at.0 / self.slot_ns;
        let tag = epoch + 1;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let cur = slot.tag.load(Ordering::Acquire);
        if cur > tag {
            // The ring already wrapped past this sample's slice.
            self.late_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if cur < tag {
            if slot.tag.compare_exchange(cur, tag, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                slot.hist.reset();
            } else if slot.tag.load(Ordering::Acquire) != tag {
                // Lost the race to an even newer epoch.
                self.late_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        slot.hist.record(v);
    }

    /// Merge the slots still live at `now` — epochs in
    /// `(now_epoch - slots, now_epoch]` — into one summary. A window
    /// with no live samples reports `count == 0` and `None` quantiles.
    pub fn summary_at(&self, now: SimInstant) -> HistSummary {
        let merged = LogHistogram::new();
        let now_epoch = now.0 / self.slot_ns;
        let k = self.slots.len() as u64;
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == EMPTY_TAG {
                continue;
            }
            let epoch = tag - 1;
            if epoch <= now_epoch && epoch + k > now_epoch {
                merged.merge_from(&slot.hist);
            }
        }
        HistSummary::of(&merged)
    }

    /// Samples dropped because their slot had already been recycled.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped.load(Ordering::Relaxed)
    }
}

struct CountSlot {
    tag: AtomicU64,
    value: AtomicU64,
}

/// A rolling-window counter with the same slot-epoch rotation as
/// [`WindowedHistogram`]; `sum_at` is the exact total of live slots.
pub struct WindowedCounter {
    slot_ns: u64,
    slots: Vec<CountSlot>,
}

impl WindowedCounter {
    pub fn new(cfg: WindowConfig) -> Self {
        Self {
            slot_ns: checked_slot_ns(&cfg),
            slots: (0..cfg.slots)
                .map(|_| CountSlot { tag: AtomicU64::new(EMPTY_TAG), value: AtomicU64::new(0) })
                .collect(),
        }
    }

    pub fn add_at(&self, at: SimInstant, delta: u64) {
        let epoch = at.0 / self.slot_ns;
        let tag = epoch + 1;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let cur = slot.tag.load(Ordering::Acquire);
        if cur > tag {
            return;
        }
        if cur < tag {
            if slot.tag.compare_exchange(cur, tag, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                slot.value.store(0, Ordering::Relaxed);
            } else if slot.tag.load(Ordering::Acquire) != tag {
                return;
            }
        }
        slot.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sum over the slots live at `now`.
    pub fn sum_at(&self, now: SimInstant) -> u64 {
        let now_epoch = now.0 / self.slot_ns;
        let k = self.slots.len() as u64;
        let mut total = 0u64;
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == EMPTY_TAG {
                continue;
            }
            let epoch = tag - 1;
            if epoch <= now_epoch && epoch + k > now_epoch {
                total += slot.value.load(Ordering::Relaxed);
            }
        }
        total
    }
}

/// A monotone high-watermark gauge (e.g. peak queue depth).
#[derive(Debug, Default)]
pub struct HighWatermark(AtomicU64);

impl HighWatermark {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(slot_ns: u64, slots: usize) -> WindowConfig {
        WindowConfig::new(SimDuration(slot_ns), slots)
    }

    fn at(ns: u64) -> SimInstant {
        SimInstant(ns)
    }

    #[test]
    fn merge_empty_is_identity() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [3u64, 900, 123_456] {
            b.record(v);
        }
        // merge(x, empty) leaves x unchanged…
        b.merge_from(&a);
        assert_eq!(b.count(), 3);
        // …and merge(empty, x) == x: counts, bounds, quantiles.
        a.merge_from(&b);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
    }

    #[test]
    fn single_sample_window_is_exact() {
        let w = WindowedHistogram::new(cfg(1_000, 4));
        w.record_at(at(2_500), 777);
        let s = w.summary_at(at(2_999));
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Some(777));
        assert_eq!(s.p99, Some(777));
        assert_eq!(s.min, Some(777));
        assert_eq!(s.max, Some(777));
    }

    #[test]
    fn freshly_rotated_empty_window_reports_none() {
        let w = WindowedHistogram::new(cfg(1_000, 4));
        for i in 0..10 {
            w.record_at(at(i * 100), 50 + i);
        }
        assert_eq!(w.summary_at(at(999)).count, 10);
        // Far in the future: every slot expired. Quantiles must be None —
        // never a stale value from the old samples, never zero.
        let s = w.summary_at(at(1_000_000));
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, None);
        assert_eq!(s.p99, None);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.mean, None);
    }

    #[test]
    fn rotation_wraps_at_window_boundaries() {
        // 4 slots of 1000 ns. Epoch e and e+4 share a slot index, so
        // recording at t and t + 4*slot must evict, not mix.
        let w = WindowedHistogram::new(cfg(1_000, 4));
        w.record_at(at(500), 1); // epoch 0
        w.record_at(at(1_500), 2); // epoch 1
        assert_eq!(w.summary_at(at(1_999)).count, 2);

        w.record_at(at(4_500), 3); // epoch 4 — recycles epoch 0's slot
        let s = w.summary_at(at(4_999));
        // Live epochs at t=4999 are 1..=4: the epoch-0 sample is gone,
        // epoch-1 and epoch-4 samples remain.
        assert_eq!(s.count, 2);
        assert_eq!(s.min, Some(2));
        assert_eq!(s.max, Some(3));

        // A sample whose slice was already recycled is dropped + counted.
        assert_eq!(w.late_dropped(), 0);
        w.record_at(at(600), 99); // epoch 0 again, slot now owned by epoch 4
        assert_eq!(w.late_dropped(), 1);
        assert_eq!(w.summary_at(at(4_999)).count, 2, "late sample must not resurface");
    }

    #[test]
    fn boundary_instants_land_in_their_own_slot() {
        let w = WindowedHistogram::new(cfg(1_000, 4));
        w.record_at(at(999), 10); // last ns of epoch 0
        w.record_at(at(1_000), 20); // first ns of epoch 1
                                    // At now=3999 epochs 0..=3 are live; at now=4000 epoch 0 expires.
        assert_eq!(w.summary_at(at(3_999)).count, 2);
        let s = w.summary_at(at(4_000));
        assert_eq!(s.count, 1);
        assert_eq!(s.min, Some(20));
    }

    #[test]
    fn windowed_counter_sums_live_slots_only() {
        let c = WindowedCounter::new(cfg(1_000, 4));
        c.add_at(at(100), 5);
        c.add_at(at(1_100), 7);
        assert_eq!(c.sum_at(at(1_500)), 12);
        assert_eq!(c.sum_at(at(4_500)), 7, "epoch 0 expired at 4000");
        assert_eq!(c.sum_at(at(50_000)), 0);
    }

    #[test]
    fn high_watermark_is_monotone() {
        let hw = HighWatermark::new();
        hw.observe(3);
        hw.observe(9);
        hw.observe(4);
        assert_eq!(hw.get(), 9);
        hw.reset();
        assert_eq!(hw.get(), 0);
    }

    #[test]
    fn window_config_span_and_clamps() {
        let c = WindowConfig::new(SimDuration(0), 0);
        assert_eq!(c.slot.as_nanos(), 1);
        assert_eq!(c.slots, 2);
        assert_eq!(cfg(250, 8).span(), SimDuration(2_000));
    }

    // Regression: `WindowConfig`'s fields are pub, so a struct literal can
    // smuggle a zero-width slot past `WindowConfig::new`'s clamp. Before
    // the construction-time check this compiled fine and div-by-zero
    // panicked at the first `record_at` — now it fails fast with a clear
    // message at construction.
    #[test]
    #[should_panic(expected = "slot width must be > 0 ns")]
    fn zero_slot_histogram_rejected_at_construction() {
        let _ = WindowedHistogram::new(WindowConfig { slot: SimDuration(0), slots: 4 });
    }

    #[test]
    #[should_panic(expected = "slot width must be > 0 ns")]
    fn zero_slot_counter_rejected_at_construction() {
        let _ = WindowedCounter::new(WindowConfig { slot: SimDuration(0), slots: 4 });
    }

    #[test]
    #[should_panic(expected = "at least 2 slots")]
    fn single_slot_ring_rejected_at_construction() {
        let _ = WindowedHistogram::new(WindowConfig { slot: SimDuration(1_000), slots: 1 });
    }

    // Audit of the liveness bound `epoch <= now_epoch && epoch + k >
    // now_epoch`: with `now = q*slot + r`, a sample at exactly
    // `now - span` lands in epoch `q - k` and is *always* excluded
    // (correct — it is one full window old), while `now - span + 1` is
    // included exactly when it still falls in epoch `q - k + 1`, i.e.
    // when `now` sits on the last nanosecond of its slot (`r == slot-1`).
    // The alternative bound `epoch + k >= now_epoch` would instead admit
    // samples up to a full slot *older* than the window span. So: not an
    // off-by-one; pin the audited behaviour across slot shapes.
    #[test]
    fn liveness_bound_excludes_exactly_one_window_old() {
        for (slot_ns, k) in [(1_000u64, 4usize), (250, 8), (7, 3), (1, 2)] {
            let span = slot_ns * k as u64;
            for q in [k as u64, k as u64 + 3, 100] {
                for r in [0, slot_ns / 2, slot_ns - 1] {
                    let now = q * slot_ns + r;
                    // A sample exactly one full window old must be gone.
                    let w = WindowedHistogram::new(cfg(slot_ns, k));
                    w.record_at(at(now - span), 1);
                    assert_eq!(
                        w.summary_at(at(now)).count,
                        0,
                        "sample at now-span leaked (slot={slot_ns} k={k} now={now})"
                    );
                    let c = WindowedCounter::new(cfg(slot_ns, k));
                    c.add_at(at(now - span), 5);
                    assert_eq!(c.sum_at(at(now)), 0, "counter at now-span leaked");

                    // One nanosecond younger: included iff it is in a
                    // strictly newer epoch than `now_epoch - k`, which
                    // happens exactly when now is the last ns of its slot.
                    let w2 = WindowedHistogram::new(cfg(slot_ns, k));
                    w2.record_at(at(now - span + 1), 1);
                    let included = w2.summary_at(at(now)).count == 1;
                    let expect = (now - span + 1) / slot_ns > q - k as u64;
                    assert_eq!(
                        included, expect,
                        "now-span+1 inclusion wrong (slot={slot_ns} k={k} now={now})"
                    );
                    if r == slot_ns - 1 {
                        assert!(included, "last-ns now must include now-span+1");
                    }
                }
            }
        }
    }
}
