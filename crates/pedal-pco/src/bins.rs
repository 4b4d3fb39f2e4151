//! Adaptive equal-count binning with per-bin stride (GCD) extraction.
//!
//! The latent range is carved into at most [`MAX_BINS`] bins built from
//! equal-count slices of the sorted values. Each value is stored as its
//! bin index (entropy-coded by rANS) plus `offset_bits` raw offset bits
//! from the bin's lower edge. Adjacent slices are merged when the
//! member-weighted offset cost of the union undercuts the cost of
//! keeping them split (plus the per-bin header overhead), which shrinks
//! the header on smooth data without letting a single wide slice — a
//! quantized column's near-zero region spans many float exponents —
//! swallow its cheap neighbours.
//!
//! After merging, each bin records the GCD of its members' offsets and
//! offsets are stored in units of that stride. Quantized data — floats
//! rounded to an instrument's reporting precision, integer columns with
//! a common multiplier — has latents marching in large constant steps,
//! and dividing the stride out removes the low always-zero bits that
//! plain offset coding would waste (pcodec's "int mult" idea applied
//! per bin).
//!
//! Encoding picks the *rightmost* bin whose lower edge is <= v. The
//! offset always fits and divides exactly: bin membership at encode time
//! is "sorted values in `[lower_j, lower_{j+1})`", precisely the set the
//! stride and width were computed from.
//!
//! Offsets are packed at the width of their bin by [`crate::bits`].

use crate::latent::Latent;

pub const MAX_BINS: usize = 256;

/// Approximate header cost of one extra bin (lower edge + offset-bits
/// byte + stride varint + frequency-table entry), charged against a
/// merge's member-weighted savings.
const MERGE_SLACK_BITS: u64 = 96;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bin<L> {
    pub lower: L,
    pub offset_bits: u32,
    /// Stride the stored offsets are multiples of (>= 1). The raw offset
    /// is `stored * gcd`.
    pub gcd: u64,
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Build bins from `sorted` (ascending, non-empty). `max_bins` is
/// clamped to `1..=MAX_BINS`.
pub fn build<L: Latent>(sorted: &[L], max_bins: usize) -> Vec<Bin<L>> {
    assert!(!sorted.is_empty());
    let m = sorted.len();
    let b = max_bins.clamp(1, MAX_BINS).min(m);
    // Candidate equal-count slices as (lower, upper, stride, count).
    let mut spans: Vec<(L, L, u64, u64)> = Vec::with_capacity(b);
    for i in 0..b {
        let start = i * m / b;
        let end = (i + 1) * m / b;
        if start < end {
            let lo = sorted[start];
            let mut g = 0u64;
            for &v in &sorted[start..end] {
                g = gcd_u64(g, v.wrapping_sub(lo).to_u64());
                if g == 1 {
                    break;
                }
            }
            spans.push((lo, sorted[end - 1], g, (end - start) as u64));
        }
    }
    // Greedy left-to-right merge, costed in the stride domain by
    // member-weighted offset bits: the union charges *every* member the
    // union's width at the union's own stride, so a merge only pays off
    // when that total undercuts the split cost plus one bin's header.
    // Costing by max-width alone snowballs — once one slice is wide
    // (obs_error's near-zero region spans 31 bits of latent even after
    // stride extraction), every later slice unions "for free" and half
    // the column lands in a single 31-bit bin. A stride of 0 marks an
    // all-ties slice whose stride is unconstrained (gcd(0, x) is x, so
    // it adopts whatever its merge partner needs). Duplicate lowers —
    // a value tied across a slice boundary — always merge, keeping the
    // lower edges strictly increasing.
    let mut merged: Vec<(L, L, u64, u64)> = Vec::with_capacity(spans.len());
    for (lo, hi, g, c) in spans {
        if let Some(&mut (plo, ref mut phi, ref mut pg, ref mut pc)) = merged.last_mut() {
            let prev_bits = u64_bits(phi.wrapping_sub(plo).to_u64() / (*pg).max(1)) as u64;
            let cur_bits = u64_bits(hi.wrapping_sub(lo).to_u64() / g.max(1)) as u64;
            let ug = gcd_u64(gcd_u64(*pg, g), lo.wrapping_sub(plo).to_u64());
            let union_bits = u64_bits(hi.wrapping_sub(plo).to_u64() / ug.max(1)) as u64;
            let split = *pc * prev_bits + c * cur_bits + MERGE_SLACK_BITS;
            let joined = (*pc + c) * union_bits;
            if lo == plo || joined <= split {
                *phi = hi;
                *pg = ug;
                *pc += c;
                continue;
            }
        }
        merged.push((lo, hi, g, c));
    }
    // Per-bin stride: encode-time membership of bin j is the sorted
    // values in [lower_j, lower_{j+1}), so compute the offset GCD and
    // the true width over exactly that range. Lowers are strictly
    // increasing after the merge (duplicate lowers are always fused),
    // so every bin owns at least its own lower.
    let mut bins = Vec::with_capacity(merged.len());
    let mut pos = 0usize;
    for (j, &(lo, _, _, _)) in merged.iter().enumerate() {
        let end = match merged.get(j + 1) {
            Some(&(next_lo, _, _, _)) => sorted[pos..].partition_point(|&v| v < next_lo) + pos,
            None => m,
        };
        let mut g = 0u64;
        for &v in &sorted[pos..end] {
            g = gcd_u64(g, v.wrapping_sub(lo).to_u64());
            if g == 1 {
                break;
            }
        }
        let g = g.max(1);
        let width = sorted[end - 1].wrapping_sub(lo).to_u64() / g;
        bins.push(Bin { lower: lo, offset_bits: u64_bits(width), gcd: g });
        pos = end;
    }
    bins
}

fn u64_bits(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Index of the rightmost bin with `lower <= v`. Bins are sorted by
/// lower edge and `bins[0].lower` is the global minimum, so the result
/// always exists for values drawn from the column that built the table.
pub fn index_of<L: Latent>(bins: &[Bin<L>], v: L) -> usize {
    debug_assert!(!bins.is_empty() && bins[0].lower <= v);
    bins.partition_point(|b| b.lower <= v).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn containment_holds<L: Latent>(vals: &[L], max_bins: usize) {
        let mut sorted = vals.to_vec();
        sorted.sort_unstable();
        let bins = build(&sorted, max_bins);
        assert!(!bins.is_empty() && bins.len() <= max_bins.clamp(1, MAX_BINS));
        for w in bins.windows(2) {
            assert!(w[0].lower < w[1].lower, "lowers must be strictly increasing");
        }
        for &v in vals {
            let i = index_of(&bins, v);
            let off = v.wrapping_sub(bins[i].lower).to_u64();
            assert_eq!(off % bins[i].gcd, 0, "offset must divide the bin stride");
            assert!(
                u64_bits(off / bins[i].gcd) <= bins[i].offset_bits,
                "value {v:?} overflows bin {i} ({:?})",
                bins[i]
            );
        }
    }

    #[test]
    fn uniform_ties_and_spikes_are_contained() {
        containment_holds(&[7u32; 500], 16);
        containment_holds(&[0u32, 0, 0, 1, 1, 2, u32::MAX], 4);
        let mix: Vec<u32> =
            (0..1000).map(|i| if i % 97 == 0 { i * 1_000_000 } else { i }).collect();
        containment_holds(&mix, 64);
        containment_holds(&mix, 256);
    }

    #[test]
    fn u64_extremes_are_contained() {
        let vals: Vec<u64> = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63, 12345];
        containment_holds(&vals, 8);
        containment_holds(&vals, 1);
    }

    #[test]
    fn single_value_column_needs_zero_offset_bits() {
        let bins = build(&[42u32; 100], 256);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].offset_bits, 0);
    }

    #[test]
    fn tied_runs_merge_to_few_bins() {
        // 8 distinct values, 512 copies each: slices inside one run have
        // zero width, so their unions are free and the merge collapses
        // them to roughly one bin per run.
        let sorted: Vec<u32> = (0..4096u32).map(|i| i / 512).collect();
        let bins = build(&sorted, 256);
        assert!(bins.len() <= 16, "got {} bins", bins.len());
        containment_holds(&sorted, 256);
    }

    #[test]
    fn strided_values_shed_their_low_zero_bits() {
        // Multiples of 1024 spanning 22 bits of raw range: the stride
        // divides out, leaving ~12 offset bits instead of ~22.
        let sorted: Vec<u32> = (0..4096u32).map(|i| i * 1024).collect();
        let bins = build(&sorted, 4);
        containment_holds(&sorted, 4);
        for b in &bins {
            assert_eq!(b.gcd % 1024, 0, "stride must be a multiple of 1024: {b:?}");
            assert!(b.offset_bits <= 12, "stride not divided out: {b:?}");
        }
    }

    #[test]
    fn mixed_stride_columns_stay_exact() {
        // Strides differ per region (like quantized floats crossing an
        // exponent boundary): each bin finds its own local GCD.
        let mut vals: Vec<u32> = (0..2000u32).map(|i| i * 512).collect();
        vals.extend((0..2000u32).map(|i| 0x1000_0000 + i * 1024));
        containment_holds(&vals, 64);
    }
}
