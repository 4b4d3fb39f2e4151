//! Exact sample statistics over recorded runs.

/// Nearest-rank percentile `p` (a fraction, clamped to `[0, 1]`) of an
/// ascending-sorted slice: the smallest sample with at least `p` of the
/// samples at or below it. `None` when the sample set is empty (a zero
/// would be indistinguishable from a genuine zero-duration measurement).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_none_not_zero() {
        assert_eq!(percentile::<u64>(&[], 0.50), None);
        assert_eq!(percentile::<u64>(&[], 0.99), None);
    }

    #[test]
    fn percentile_of_single_sample_is_exact_everywhere() {
        for p in [0.0, 0.01, 0.50, 0.99, 1.0] {
            assert_eq!(percentile(&[123_456u64], p), Some(123_456), "p={p}");
        }
    }

    #[test]
    fn percentile_nearest_rank_matches_by_hand() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // Two samples: p50 is the first, p99 the second.
        assert_eq!(percentile(&[10u64, 20], 0.50), Some(10));
        assert_eq!(percentile(&[10u64, 20], 0.99), Some(20));
        // Four samples: p50 is the second (rank ceil(0.5 * 4) = 2).
        assert_eq!(percentile(&[1u64, 2, 3, 4], 0.50), Some(2));
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        assert_eq!(percentile(&[5u64, 6], -1.0), Some(5));
        assert_eq!(percentile(&[5u64, 6], 2.0), Some(6));
    }

    #[test]
    fn percentile_agrees_with_integer_ranks() {
        // The fleet and service reports used integer-percent ranks
        // `ceil(p * n / 100)`; the fraction form must pick the same
        // sample at every size they report.
        for n in 1..=2000u64 {
            let v: Vec<u64> = (1..=n).collect();
            for p in [50u64, 90, 99, 100] {
                let rank = (p * n).div_ceil(100).max(1);
                assert_eq!(percentile(&v, p as f64 / 100.0), Some(rank), "n={n} p={p}");
            }
        }
    }
}
