//! Property and hostile-input tests for the pco codec: randomized
//! round-trips (all four widths, non-finite payloads included),
//! mutation fuzzing of valid streams, and crafted streams that target
//! the checked-arithmetic paths in the rANS coder and bin unpacking.

use pedal_deflate::varint::put_uvarint;
use pedal_pco::{DeltaSpec, PcoConfig, PcoError};

/// SplitMix64: tiny, deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn configs() -> Vec<PcoConfig> {
    vec![
        PcoConfig::default(),
        PcoConfig { delta: DeltaSpec::Order(0), max_bins: 16 },
        PcoConfig { delta: DeltaSpec::Order(1), max_bins: 256 },
        PcoConfig { delta: DeltaSpec::Order(2), max_bins: 4 },
        PcoConfig { delta: DeltaSpec::Auto, max_bins: 1 },
    ]
}

#[test]
fn randomized_u32_columns_roundtrip() {
    let mut rng = Rng(0x5EED_0001);
    for case in 0..60 {
        let n = rng.below(3000) as usize;
        let mode = case % 3;
        let vals: Vec<u32> = (0..n)
            .map(|i| match mode {
                0 => rng.next() as u32,
                1 => (i as u32).wrapping_mul(7).wrapping_add((rng.below(16)) as u32),
                _ => [0, 1, u32::MAX, 1 << 31][rng.below(4) as usize],
            })
            .collect();
        for cfg in configs() {
            let stream = pedal_pco::compress_u32(&vals, &cfg);
            assert_eq!(pedal_pco::decompress_u32(&stream).unwrap(), vals, "case {case} {cfg:?}");
        }
    }
}

#[test]
fn randomized_u64_columns_roundtrip() {
    let mut rng = Rng(0x5EED_0002);
    for case in 0..40 {
        let n = rng.below(2000) as usize;
        let vals: Vec<u64> = (0..n)
            .map(|i| match case % 3 {
                0 => rng.next(),
                1 => (i as u64).wrapping_mul(1_000_003).wrapping_add(rng.below(32)),
                _ => [0, u64::MAX, 1 << 63, 1][rng.below(4) as usize],
            })
            .collect();
        for cfg in configs() {
            let stream = pedal_pco::compress_u64(&vals, &cfg);
            assert_eq!(pedal_pco::decompress_u64(&stream).unwrap(), vals, "case {case} {cfg:?}");
        }
    }
}

#[test]
fn randomized_float_columns_roundtrip_bitwise() {
    let mut rng = Rng(0x5EED_0003);
    for case in 0..40 {
        let n = rng.below(2000) as usize;
        // Smooth base signal with non-finite values salted in.
        let f32s: Vec<f32> = (0..n)
            .map(|i| match rng.below(20) {
                0 => f32::NAN,
                1 => f32::NEG_INFINITY,
                2 => -0.0,
                3 => f32::from_bits(rng.next() as u32), // arbitrary bits, maybe NaN
                _ => 1e-3 * (i as f32) + (case as f32),
            })
            .collect();
        let f64s: Vec<f64> = f32s
            .iter()
            .map(|&x| match rng.below(20) {
                0 => f64::from_bits(rng.next()),
                _ => x as f64,
            })
            .collect();
        for cfg in configs() {
            let s32 = pedal_pco::compress_f32(&f32s, &cfg);
            let b32 = pedal_pco::decompress_f32(&s32).unwrap();
            assert_eq!(b32.len(), f32s.len());
            for (a, b) in f32s.iter().zip(&b32) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case} {cfg:?}");
            }
            let s64 = pedal_pco::compress_f64(&f64s, &cfg);
            let b64 = pedal_pco::decompress_f64(&s64).unwrap();
            for (a, b) in f64s.iter().zip(&b64) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case} {cfg:?}");
            }
        }
    }
}

#[test]
fn mutated_streams_never_panic_and_respect_limits() {
    let mut rng = Rng(0x5EED_0004);
    let vals: Vec<f32> = (0..4000).map(|i| (i as f32).cos() * 50.0).collect();
    let base = pedal_pco::compress_f32(&vals, &PcoConfig::default());
    let limit = vals.len() * 4;
    for _ in 0..600 {
        let mut s = base.clone();
        for _ in 0..=rng.below(4) {
            match rng.below(4) {
                0 => {
                    let i = rng.below(s.len() as u64) as usize;
                    s[i] ^= 1 << rng.below(8);
                }
                1 => {
                    let i = rng.below(s.len() as u64) as usize;
                    s[i] = rng.next() as u8;
                }
                2 => {
                    let cut = rng.below(s.len() as u64) as usize;
                    s.truncate(cut);
                }
                _ => {
                    s.push(rng.next() as u8);
                }
            }
        }
        // Must not panic; on success the limit must hold.
        if let Ok(out) = pedal_pco::decompress_bytes_with_limit(&s, limit) {
            assert!(out.len() <= limit);
        }
    }
}

/// Hand-build a u32 column stream whose single bin has `lower`,
/// `offset_bits`, and stride `gcd`, one symbol, and a raw offset of
/// all-ones.
fn crafted_stream(lower: u32, offset_bits: u8, gcd: u64) -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"PCO1");
    s.push(1); // version
    s.push(1); // tag u32
    put_uvarint(&mut s, 1); // n = 1
    s.push(0); // delta order 0
    s.push(0); // n_bins - 1
    s.extend_from_slice(&lower.to_le_bytes());
    s.push(offset_bits);
    put_uvarint(&mut s, gcd);
    s.push(12); // scale bits
    put_uvarint(&mut s, 4096); // single-symbol frequency = full scale
    put_uvarint(&mut s, 0); // no rANS words
    s.extend_from_slice(&(1u32 << 16).to_le_bytes()); // final state = L
    let off_bytes = (offset_bits as usize).div_ceil(8);
    put_uvarint(&mut s, off_bytes as u64);
    s.extend(std::iter::repeat_n(0xFFu8, off_bytes));
    s
}

#[test]
fn bin_offset_overflow_is_a_clean_error() {
    // lower + offset wraps past u32::MAX: the checked add must reject it.
    let s = crafted_stream(u32::MAX, 32, 1);
    match pedal_pco::decompress_u32(&s) {
        Err(PcoError::Corrupt(_)) => {}
        other => panic!("expected corrupt-stream error, got {other:?}"),
    }
    // Offset width beyond the element width is rejected at parse time.
    let s = crafted_stream(0, 33, 1);
    assert!(pedal_pco::decompress_u32(&s).is_err());
    // A wide stride can overflow even a narrow offset: offset 0xFF at
    // stride 2^32 blows past u32 range and must be a clean error.
    let s = crafted_stream(0, 8, 1 << 32);
    assert!(pedal_pco::decompress_u32(&s).is_err());
    // So can a stride * offset product that wraps u64 entirely.
    let s = crafted_stream(0, 8, u64::MAX);
    assert!(pedal_pco::decompress_u32(&s).is_err());
    // A zero stride is structurally invalid.
    let s = crafted_stream(0, 4, 0);
    assert!(pedal_pco::decompress_u32(&s).is_err());
    // A benign crafted stream still decodes (sanity check the builder).
    let s = crafted_stream(7, 0, 1);
    assert_eq!(pedal_pco::decompress_u32(&s).unwrap(), vec![7]);
}

#[test]
fn freq_table_inconsistencies_are_clean_errors() {
    let vals: Vec<u32> = (0..2000).map(|i| i * 3 % 701).collect();
    let stream = pedal_pco::compress_u32(&vals, &PcoConfig::default());
    // Walk every byte of the header region (bin table + freq table live
    // in the first bytes after the prelude) and flip bits; decode must
    // either fail cleanly or produce some bounded output — never panic.
    let header_end = stream.len().min(160);
    for pos in 6..header_end {
        for bit in [0, 3, 7] {
            let mut s = stream.clone();
            s[pos] ^= 1 << bit;
            let _ = pedal_pco::decompress_u32_with_limit(&s, vals.len());
        }
    }
}

#[test]
fn roundtrip_output_is_reproducible_across_calls() {
    let vals: Vec<f64> = (0..10_000).map(|i| ((i * i) as f64).ln_1p()).collect();
    let a = pedal_pco::compress_f64(&vals, &PcoConfig::default());
    let b = pedal_pco::compress_f64(&vals, &PcoConfig::default());
    assert_eq!(a, b);
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    let c = pedal_pco::compress_bytes(&bytes, &PcoConfig::default());
    let d = pedal_pco::compress_bytes(&bytes, &PcoConfig::default());
    assert_eq!(c, d);
}
