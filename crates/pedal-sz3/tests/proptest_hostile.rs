//! Hostile-input property coverage for the SZ3 pipeline, complementing
//! `proptest_error_bound.rs`: random fields through every predictor with
//! *continuously random* error bounds (not a fixed menu), non-finite data
//! salted in at random positions, and configurations the pipeline must
//! reject with a typed error rather than a panic.
//!
//! Same idiom as the rest of the repo: fixed Pcg32 seeds so every failure
//! reproduces, `--features fuzz` multiplies case counts.

use pedal_deflate::varint::put_uvarint;
use pedal_dpu::Pcg32;
use pedal_sz3::{
    compress, compress_checked, decode_core_with_limit, decompress, encode_core, huff, BackendKind,
    Dims, Field, PredictorKind, Sz3Config, Sz3Error,
};

fn cases(base: usize) -> usize {
    if cfg!(feature = "fuzz") {
        base * 16
    } else {
        base
    }
}

const PREDICTORS: [PredictorKind; 3] =
    [PredictorKind::Lorenzo, PredictorKind::Interp, PredictorKind::InterpCubic];
const BACKENDS: [BackendKind; 4] =
    [BackendKind::None, BackendKind::Zs, BackendKind::Deflate, BackendKind::Lz4];

/// Log-uniform error bound across seven decades, so the sweep exercises
/// quantizer scales a fixed menu would never hit.
fn random_eb(rng: &mut Pcg32) -> f64 {
    10f64.powf(rng.gen_range(-7.0f64..0.5))
}

#[test]
fn bound_holds_f32_all_predictors_random_eb() {
    let mut rng = Pcg32::seed_from_u64(0x5233_0010);
    for case in 0..cases(36) {
        let predictor = PREDICTORS[case % 3];
        let backend = BACKENDS[rng.gen_range(0usize..4)];
        let eb = random_eb(&mut rng);
        let scale = 10f64.powf(rng.gen_range(-3.0f64..6.0));
        let data: Vec<f32> = (0..rng.gen_range(1usize..1500))
            .map(|_| (rng.gen_range(-1.0f64..1.0) * scale) as f32)
            .collect();
        let field = Field::new(Dims::d1(data.len()), data);
        let cfg = Sz3Config { error_bound: eb, predictor, backend, ..Default::default() };
        let sealed = compress_checked(&field, &cfg).unwrap();
        let recon: Field<f32> = decompress(&sealed).unwrap();
        for (i, (&a, &b)) in field.data.iter().zip(&recon.data).enumerate() {
            assert!(
                ((a - b).abs() as f64) <= eb,
                "case {case} idx {i}: |{a} - {b}| > {eb} ({predictor:?}/{backend:?})"
            );
        }
    }
}

#[test]
fn bound_holds_f64_all_predictors_random_eb() {
    let mut rng = Pcg32::seed_from_u64(0x5233_0011);
    for case in 0..cases(24) {
        let predictor = PREDICTORS[case % 3];
        let eb = random_eb(&mut rng);
        let nx = rng.gen_range(2usize..24);
        let ny = rng.gen_range(1usize..24);
        let rough = rng.gen_range(0.0f64..1.0) < 0.5;
        let field = Field::<f64>::from_fn(Dims::d2(nx, ny), |x, y, _| {
            let smooth = (x as f64 * 0.3).sin() * 40.0 + y as f64 * 0.7;
            if rough {
                smooth + (((x * 31 + y * 17) % 13) as f64 - 6.0) * 5.0
            } else {
                smooth
            }
        });
        let cfg = Sz3Config { error_bound: eb, predictor, ..Default::default() };
        let sealed = compress_checked(&field, &cfg).unwrap();
        let recon: Field<f64> = decompress(&sealed).unwrap();
        assert!(
            field.max_abs_diff(&recon) <= eb,
            "case {case}: diff {} > {eb} ({predictor:?})",
            field.max_abs_diff(&recon)
        );
    }
}

#[test]
fn nan_and_inf_data_never_panic_and_are_bit_exact() {
    let mut rng = Pcg32::seed_from_u64(0x5233_0012);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for case in 0..cases(32) {
        let predictor = PREDICTORS[case % 3];
        let backend = BACKENDS[case % 4];
        let eb = random_eb(&mut rng);
        let mut data: Vec<f32> =
            (0..rng.gen_range(8usize..512)).map(|_| rng.gen_range(-1e4f64..1e4) as f32).collect();
        // Salt non-finite values into random positions — including runs,
        // which stress the predictors' neighbour reads hardest.
        for _ in 0..rng.gen_range(1usize..8) {
            let idx = rng.gen_range(0usize..data.len());
            data[idx] = specials[rng.gen_range(0usize..3)];
        }
        let field = Field::new(Dims::d1(data.len()), data);
        let cfg = Sz3Config { error_bound: eb, predictor, backend, ..Default::default() };
        let sealed = compress_checked(&field, &cfg).unwrap();
        let recon: Field<f32> = decompress(&sealed).unwrap();
        for (i, (&a, &b)) in field.data.iter().zip(&recon.data).enumerate() {
            if a.is_finite() {
                assert!(((a - b).abs() as f64) <= eb, "case {case} idx {i}: |{a} - {b}| > {eb}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}: non-finite at {i}");
            }
        }
    }
}

#[test]
fn all_nan_field_roundtrips_in_both_bound_modes() {
    // Degenerate input: REL mode sees a zero (or NaN) value range and must
    // still produce a decodable stream with every element preserved.
    for cfg in [Sz3Config::with_error_bound(1e-3), Sz3Config::with_relative_bound(1e-3)] {
        let field = Field::<f64>::from_fn(Dims::d1(64), |_, _, _| f64::NAN);
        let sealed = compress(&field, &cfg);
        let recon: Field<f64> = decompress(&sealed).unwrap();
        assert!(recon.data.iter().all(|v| v.is_nan()));
    }
}

#[test]
fn bad_error_bounds_are_typed_errors_not_panics() {
    let field = Field::<f32>::from_fn(Dims::d1(32), |x, _, _| x as f32);
    for eb in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, -1e300] {
        for cfg in [Sz3Config::with_error_bound(eb), Sz3Config::with_relative_bound(eb)] {
            assert!(
                matches!(compress_checked(&field, &cfg), Err(Sz3Error::BadConfig(_))),
                "eb {eb} must be rejected"
            );
        }
    }
    for radius in [i64::MIN, -1, 0, 1, (1 << 31) + 1, 1 << 32, i64::MAX] {
        let cfg = Sz3Config { radius, ..Default::default() };
        assert!(
            matches!(compress_checked(&field, &cfg), Err(Sz3Error::BadConfig(_))),
            "radius {radius} must be rejected"
        );
    }
}

#[test]
fn zero_sized_core_headers_decode_without_panic() {
    // A valid core prefix declaring a grid with no elements and carrying an
    // empty Huffman stream: there is no seed point to place.
    let seed = Field::<f32>::from_fn(Dims::d1(4), |x, _, _| x as f32);
    for predictor in PREDICTORS {
        let cfg = Sz3Config { predictor, ..Default::default() };
        let (valid, _) = encode_core(&seed, &cfg);
        for (nx, ny, nz) in [(0u64, 1u64, 1u64), (0, 7, 3), (5, 0, 1), (2, 3, 0)] {
            let mut core = valid[..7].to_vec(); // magic, version, type, predictor
            put_uvarint(&mut core, nx);
            put_uvarint(&mut core, ny);
            put_uvarint(&mut core, nz);
            core.extend_from_slice(&1e-4f64.to_le_bytes());
            put_uvarint(&mut core, 32_768); // radius
            put_uvarint(&mut core, 0); // outliers
            let empty = huff::encode(&[]);
            put_uvarint(&mut core, empty.len() as u64);
            core.extend_from_slice(&empty);
            let field = decode_core_with_limit::<f32>(&core, 1 << 20).unwrap();
            assert!(field.data.is_empty(), "{predictor:?} {nx}x{ny}x{nz}");
        }
    }
}
