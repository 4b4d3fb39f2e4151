//! Log-bucketed (HDR-style) histograms.
//!
//! Values are bucketed by exponent plus three mantissa bits, giving a
//! worst-case quantile error of ~6% across the full u64 range — plenty
//! for p50/p99 latency reporting — while `record` is a few integer adds.
//! Exact min/max are kept so degenerate distributions (one sample)
//! report exact quantiles. A histogram is plain data with one writer:
//! the service's completion ledger owns its series behind one lock.

/// Mantissa bits per octave (8 sub-buckets).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Buckets 0..8 are exact; octaves 3..=63 contribute 8 buckets each.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS
    let m = ((v >> (e - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    ((e - SUB_BITS + 1) as usize) * SUBS + m
}

/// Representative (midpoint) value of a bucket.
fn value_of(bucket: usize) -> u64 {
    if bucket < SUBS {
        return bucket as u64;
    }
    let e = (bucket / SUBS) as u32 + SUB_BITS - 1;
    let m = (bucket % SUBS) as u64;
    let lo = (1u64 << e) | (m << (e - SUB_BITS));
    let width = 1u64 << (e - SUB_BITS);
    lo + width / 2
}

/// A log-bucketed histogram. Writers take `&mut self`.
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        // Wraps on overflow, as the sum of a long-running series may.
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile (`q` in `[0, 1]`), or `None` when empty.
    /// Results are clamped into `[min, max]`, so a single-sample
    /// histogram reports that sample exactly at every quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        // Nearest-rank over the bucketed distribution.
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        let mut result = value_of(BUCKETS - 1);
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                result = value_of(b);
                break;
            }
        }
        Some(result.clamp(self.min, self.max))
    }

    /// Merge another histogram's samples into this one. Merging an
    /// empty histogram is a no-op, and merging into an empty one
    /// reproduces `other`'s counts, bounds, and quantiles exactly — the
    /// identity the windowed rollup relies on.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset to empty (between bench repetitions, or when a window slot
    /// is recycled).
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_continuous() {
        let mut prev = 0;
        for v in (0u64..4096).chain([1 << 20, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= prev || v < 4096, "bucket regressed at {v}");
            assert!(b < BUCKETS);
            prev = b;
        }
        // Exact low range.
        for v in 0..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(value_of(v as usize), v);
        }
    }

    #[test]
    fn representative_value_stays_within_bucket_error() {
        for v in [9u64, 100, 1_000, 123_456, 1 << 30, (1 << 50) + 12345] {
            let rep = value_of(bucket_of(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.07, "value {v} rep {rep} err {err:.3}");
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(123_457);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(123_457));
        }
        assert_eq!(h.mean(), Some(123_457.0));
    }

    #[test]
    fn quantiles_track_a_uniform_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.quantile(0.50).unwrap() as f64;
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.08, "p50 {p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.08, "p99 {p99}");
        assert_eq!(h.min(), Some(1_000));
        assert_eq!(h.max(), Some(10_000_000));
    }

    #[test]
    fn reset_empties() {
        let mut h = LogHistogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }
}
