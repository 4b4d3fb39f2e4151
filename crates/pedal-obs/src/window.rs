//! Rolling virtual-time windows: histograms and counters.
//!
//! Everything here is keyed on **virtual** time ([`SimInstant`]), so a
//! "rolling p99 over the last 80 ms" is deterministic across hosts and
//! reruns — the same property the bench suite relies on everywhere else.
//!
//! Both windowed types are one ring, [`Windowed`]: a fixed ring of
//! slots, each covering one `slot` of virtual time. A slot is tagged
//! with the epoch (`t / slot_ns`) it currently holds; recording into a
//! newer epoch advances the tag and empties the slot, making rotation
//! O(1) (one slot's worth of work, never a scan of history). A summary
//! merges only the slots whose epoch lies inside the window ending at
//! `now`, so expired or freshly-rotated slots contribute nothing — an
//! empty window reports `None` quantiles, never a stale or zero value.
//! A window is plain data with one writer (`&mut self`): the service's
//! completion ledger owns its windows behind one lock.

use crate::hist::LogHistogram;
use crate::registry::HistSummary;
use pedal_dpu::{SimDuration, SimInstant};

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

/// What one window slot accumulates: samples are added into it, live
/// slots are merged into one total, and a recycled slot is emptied.
pub trait SlotValue: Default {
    fn add(&mut self, sample: u64);
    fn merge(&mut self, other: &Self);
    fn clear(&mut self);
}

impl SlotValue for LogHistogram {
    fn add(&mut self, sample: u64) {
        self.record(sample);
    }
    fn merge(&mut self, other: &Self) {
        self.merge_from(other);
    }
    fn clear(&mut self) {
        self.reset();
    }
}

impl SlotValue for u64 {
    fn add(&mut self, sample: u64) {
        *self = self.wrapping_add(sample);
    }
    fn merge(&mut self, other: &Self) {
        *self = self.wrapping_add(*other);
    }
    fn clear(&mut self) {
        *self = 0;
    }
}

/// Slot epoch tags store `epoch + 1` so 0 can mean "never used".
const EMPTY_TAG: u64 = 0;

struct Slot<S> {
    tag: u64,
    value: S,
}

/// A rolling window over [`SlotValue`]s: `record_at` lands each sample
/// in the slot covering its virtual timestamp, `total_at` merges the
/// live slots. Rotation is O(1) and samples that arrive after their
/// slot has already been recycled are dropped and counted, never
/// smeared into the wrong window.
pub struct Windowed<S> {
    slot_ns: u64,
    slots: Vec<Slot<S>>,
    late_dropped: u64,
}

/// A rolling-window HDR histogram; `summary_at` summarizes the live slots.
pub type WindowedHistogram = Windowed<LogHistogram>;

/// A rolling-window counter; `total_at` is the exact sum of live slots.
pub type WindowedCounter = Windowed<u64>;

impl<S: SlotValue> Windowed<S> {
    /// Every window divides sample timestamps by the slot width, so a
    /// zero-width slot is not a degenerate window — it is a guaranteed
    /// divide-by-zero at the first `record_at`/`total_at`. `WindowConfig`'s
    /// fields are public (struct-literal construction bypasses the clamp
    /// in [`WindowConfig::new`]), so the constructor itself refuses it.
    pub fn new(cfg: WindowConfig) -> Self {
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
        Self {
            slot_ns: cfg.slot.as_nanos(),
            slots: (0..cfg.slots).map(|_| Slot { tag: EMPTY_TAG, value: S::default() }).collect(),
            late_dropped: 0,
        }
    }

    /// Add `sample` at virtual instant `at`.
    pub fn record_at(&mut self, at: SimInstant, sample: u64) {
        let epoch = at.0 / self.slot_ns;
        let tag = epoch + 1;
        let k = self.slots.len() as u64;
        let slot = &mut self.slots[(epoch % k) as usize];
        if slot.tag > tag {
            // The ring already wrapped past this sample's slice.
            self.late_dropped += 1;
            return;
        }
        if slot.tag < tag {
            slot.tag = tag;
            slot.value.clear();
        }
        slot.value.add(sample);
    }

    /// Merge the slots still live at `now` — epochs in
    /// `(now_epoch - slots, now_epoch]` — into one total.
    pub fn total_at(&self, now: SimInstant) -> S {
        let now_epoch = now.0 / self.slot_ns;
        let k = self.slots.len() as u64;
        let mut total = S::default();
        for slot in &self.slots {
            if slot.tag == EMPTY_TAG {
                continue;
            }
            let epoch = slot.tag - 1;
            if epoch <= now_epoch && epoch + k > now_epoch {
                total.merge(&slot.value);
            }
        }
        total
    }

    /// Samples dropped because their slot had already been recycled.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }
}

impl WindowedHistogram {
    /// The live slots as one summary. A window with no live samples
    /// reports `count == 0` and `None` quantiles.
    pub fn summary_at(&self, now: SimInstant) -> HistSummary {
        HistSummary::of(&self.total_at(now))
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
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
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
        let mut w = WindowedHistogram::new(cfg(1_000, 4));
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
        let mut w = WindowedHistogram::new(cfg(1_000, 4));
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
        let mut w = WindowedHistogram::new(cfg(1_000, 4));
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

        // The counter shares the ring: wrap evicts, a late add is dropped
        // and counted.
        let mut c = WindowedCounter::new(cfg(1_000, 4));
        c.record_at(at(500), 1); // epoch 0
        c.record_at(at(1_500), 2); // epoch 1
        assert_eq!(c.total_at(at(1_999)), 3);
        c.record_at(at(4_500), 4); // epoch 4 — recycles epoch 0's slot
        assert_eq!(c.total_at(at(4_999)), 6);
        assert_eq!(c.late_dropped(), 0);
        c.record_at(at(600), 99);
        assert_eq!(c.late_dropped(), 1);
        assert_eq!(c.total_at(at(4_999)), 6, "late add must not resurface");
    }

    #[test]
    fn boundary_instants_land_in_their_own_slot() {
        let mut w = WindowedHistogram::new(cfg(1_000, 4));
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
        let mut c = WindowedCounter::new(cfg(1_000, 4));
        c.record_at(at(100), 5);
        c.record_at(at(1_100), 7);
        assert_eq!(c.total_at(at(1_500)), 12);
        assert_eq!(c.total_at(at(4_500)), 7, "epoch 0 expired at 4000");
        assert_eq!(c.total_at(at(50_000)), 0);
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
                    let mut w = WindowedHistogram::new(cfg(slot_ns, k));
                    w.record_at(at(now - span), 1);
                    assert_eq!(
                        w.summary_at(at(now)).count,
                        0,
                        "sample at now-span leaked (slot={slot_ns} k={k} now={now})"
                    );
                    let mut c = WindowedCounter::new(cfg(slot_ns, k));
                    c.record_at(at(now - span), 5);
                    assert_eq!(c.total_at(at(now)), 0, "counter at now-span leaked");

                    // One nanosecond younger: included iff it is in a
                    // strictly newer epoch than `now_epoch - k`, which
                    // happens exactly when now is the last ns of its slot.
                    let mut w2 = WindowedHistogram::new(cfg(slot_ns, k));
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
