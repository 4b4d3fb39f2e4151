//! Byte pins for the SZ3 core and a reference for its Huffman decoder.
//!
//! The core stream (predict, quantize, Huffman) is pinned by length and
//! FNV-1a over the float datasets, every predictor, both bound modes,
//! non-finite data, awkward sizes and 2-D / 3-D grids, so a faster core
//! cannot change a byte. `huff::encode` is pinned on its own for wide
//! alphabets (dense and sparse symbol values), long codes and a
//! single-symbol stream. Decoding each pinned core is pinned too, by
//! element count and FNV-1a over the decoded elements' bits, so a faster
//! reconstruction cannot change a value either.
//!
//! The reference decoder below reads one bit per step and matches codes
//! against per-length canonical ranges. The table-driven decoder must
//! return the same symbols, or the same `HuffStreamError` variant, on
//! valid, truncated and bit-flipped streams.

use pedal_datasets::{bytes_to_f32, DatasetId, Pcg32};
use pedal_deflate::bitio::BitReader;
use pedal_deflate::varint::{get_uvarint, put_uvarint};
use pedal_fleet::fnv1a64;
use pedal_sz3::huff::{self, HuffStreamError};
use pedal_sz3::{decode_core, encode_core, Dims, Field, Float, PredictorKind, Sz3Config};

const PREDICTORS: [(PredictorKind, &str); 3] = [
    (PredictorKind::Lorenzo, "lorenzo"),
    (PredictorKind::Interp, "interp"),
    (PredictorKind::InterpCubic, "cubic"),
];

fn cfg(predictor: PredictorKind, relative: bool) -> Sz3Config {
    let base = if relative {
        Sz3Config::with_relative_bound(1e-5)
    } else {
        Sz3Config::with_error_bound(1e-4)
    };
    Sz3Config { predictor, ..base }
}

fn floats(id: DatasetId, n: usize) -> Vec<f32> {
    bytes_to_f32(&id.generate_bytes(n * 4))
}

/// f64 values that use bits an f32 cannot hold.
fn doubles(id: DatasetId, n: usize) -> Vec<f64> {
    floats(id, n)
        .iter()
        .enumerate()
        .map(|(i, &v)| v as f64 + (i as f64 * 0.37).sin() * 1e-7)
        .collect()
}

fn core<T: Float>(dims: Dims, data: Vec<T>, cfg: &Sz3Config) -> Vec<u8> {
    encode_core(&Field::new(dims, data), cfg).0
}

/// Every pinned core, in a fixed order.
fn core_cases() -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();
    let datasets = [
        (DatasetId::Exaalt1, "exaalt-1"),
        (DatasetId::Exaalt2, "exaalt-2"),
        (DatasetId::Exaalt3, "exaalt-3"),
        (DatasetId::ObsError, "obs_error"),
    ];
    for (id, name) in datasets {
        for (p, pname) in PREDICTORS {
            for rel in [false, true] {
                let mode = if rel { "rel" } else { "abs" };
                let c = core(Dims::d1(4097), floats(id, 4097), &cfg(p, rel));
                cases.push((format!("{name}/f32/{pname}/{mode}/4097"), c));
            }
        }
    }
    // Awkward sizes; f32 at 4097 elements is covered above.
    for n in [1usize, 2, 3, 5, 4095, 4096, 4097] {
        for (p, pname) in PREDICTORS {
            if n != 4097 {
                let c = core(Dims::d1(n), floats(DatasetId::Exaalt3, n), &cfg(p, false));
                cases.push((format!("exaalt-3/f32/{pname}/abs/{n}"), c));
            }
            let c = core(Dims::d1(n), doubles(DatasetId::Exaalt3, n), &cfg(p, false));
            cases.push((format!("exaalt-3/f64/{pname}/abs/{n}"), c));
        }
    }
    // Non-finite values salted in, runs included: every one is an outlier.
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut rng = Pcg32::seed_from_u64(0x5A3D_1FF0);
    let mut salted = floats(DatasetId::ObsError, 4096);
    for i in 0..24 {
        let at = rng.gen_range(0usize..salted.len() - 3);
        let run = if i % 4 == 0 { 3 } else { 1 };
        for v in &mut salted[at..at + run] {
            *v = specials[rng.gen_range(0usize..3)];
        }
    }
    for (p, pname) in PREDICTORS {
        let c = core(Dims::d1(salted.len()), salted.clone(), &cfg(p, false));
        cases.push((format!("obs_error/f32/{pname}/abs/salted"), c));
    }
    let salted64: Vec<f64> = salted.iter().map(|&v| v as f64).collect();
    let c = core(Dims::d1(salted64.len()), salted64, &cfg(PredictorKind::Interp, true));
    cases.push(("obs_error/f64/interp/rel/salted".into(), c));
    // About 300 KiB, the scale of one bulk message.
    let big = 76_800;
    let c =
        core(Dims::d1(big), floats(DatasetId::Exaalt2, big), &cfg(PredictorKind::Interp, false));
    cases.push(("exaalt-2/f32/interp/abs/300KiB".into(), c));
    let c =
        core(Dims::d1(big), floats(DatasetId::ObsError, big), &cfg(PredictorKind::Interp, false));
    cases.push(("obs_error/f32/interp/abs/300KiB".into(), c));
    let c = core(
        Dims::d1(big / 2),
        doubles(DatasetId::Exaalt1, big / 2),
        &cfg(PredictorKind::InterpCubic, true),
    );
    cases.push(("exaalt-1/f64/cubic/rel/300KiB".into(), c));
    // Grids of rank 2 and 3.
    for p in [PredictorKind::Interp, PredictorKind::Lorenzo] {
        let c = core(Dims::d2(96, 80), floats(DatasetId::Exaalt3, 96 * 80), &cfg(p, false));
        cases.push((format!("exaalt-3/f32/{p:?}/abs/96x80"), c));
    }
    for p in [PredictorKind::InterpCubic, PredictorKind::Lorenzo] {
        let n = 20 * 18 * 14;
        let c = core(Dims::d3(20, 18, 14), doubles(DatasetId::Exaalt2, n), &cfg(p, false));
        cases.push((format!("exaalt-2/f64/{p:?}/abs/20x18x14"), c));
    }
    cases
}

/// Symbol streams for `huff::encode`, in a fixed order.
fn huff_cases() -> Vec<(&'static str, Vec<u32>)> {
    let shuffle = |mut v: Vec<u32>, seed: u64| {
        let mut rng = Pcg32::seed_from_u64(seed);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0usize..i + 1));
        }
        v
    };
    // Zipf counts over 4000 symbols: the rarest codes are about 15 bits.
    let zipf = |value: &dyn Fn(u32) -> u32| -> Vec<u32> {
        (1..=4000u32).flat_map(|i| std::iter::repeat_n(value(i), (20_000 / i) as usize)).collect()
    };
    // Fibonacci counts over 28 symbols: code lengths run 1..=27.
    let mut fib = Vec::new();
    let (mut a, mut b) = (1usize, 1usize);
    for s in 0..28u32 {
        fib.extend(std::iter::repeat_n(40_000 + s * 3, a));
        (a, b) = (b, a + b);
    }
    vec![
        // Values within a span no wider than the stream: the dense index.
        ("zipf/dense", shuffle(zipf(&|i| 32_768 - 4000 + i), 1)),
        // Values spread over the whole u32 range: the sorted fallback.
        ("zipf/sparse", shuffle(zipf(&|i| i.wrapping_mul(2_654_435_761)), 2)),
        ("fibonacci", shuffle(fib, 3)),
        ("single", vec![77_777; 5000]),
        ("empty", Vec::new()),
    ]
}

/// (case, core length, core FNV-1a), recorded from the byte-at-a-time
/// Huffman coder the table-driven one replaced.
const CORE_PINS: &[(&str, usize, u64)] = &[
    ("exaalt-1/f32/lorenzo/abs/4097", 6202, 0xcdc492792f0b9f9f),
    ("exaalt-1/f32/lorenzo/rel/4097", 13839, 0x97435ea47a6b762b),
    ("exaalt-1/f32/interp/abs/4097", 5990, 0x2130452389dc1ac8),
    ("exaalt-1/f32/interp/rel/4097", 13804, 0xda58ef87d5f485dd),
    ("exaalt-1/f32/cubic/abs/4097", 6072, 0xec31ed2dbd491cb8),
    ("exaalt-1/f32/cubic/rel/4097", 13796, 0xb089b4b93fbaaf8b),
    ("exaalt-2/f32/lorenzo/abs/4097", 3229, 0x75e38ca611d98017),
    ("exaalt-2/f32/lorenzo/rel/4097", 10503, 0xe0fa63084c249372),
    ("exaalt-2/f32/interp/abs/4097", 3427, 0x84eac9697bc50e65),
    ("exaalt-2/f32/interp/rel/4097", 10065, 0x28c473c30e0fa023),
    ("exaalt-2/f32/cubic/abs/4097", 3264, 0x32be3399cc6ab859),
    ("exaalt-2/f32/cubic/rel/4097", 9892, 0xf7177177ccf92fc7),
    ("exaalt-3/f32/lorenzo/abs/4097", 3561, 0xc0aed653619ccc55),
    ("exaalt-3/f32/lorenzo/rel/4097", 11055, 0x0fc9f56cbc6eeae2),
    ("exaalt-3/f32/interp/abs/4097", 3745, 0x83d3aadaa354eb9d),
    ("exaalt-3/f32/interp/rel/4097", 9531, 0x4b02c49f1ce8429d),
    ("exaalt-3/f32/cubic/abs/4097", 3413, 0xd8c36fac652103dd),
    ("exaalt-3/f32/cubic/rel/4097", 9035, 0x2da8ecb8e89b8d5a),
    ("obs_error/f32/lorenzo/abs/4097", 13362, 0xf8e5b9bddc20196c),
    ("obs_error/f32/lorenzo/rel/4097", 13892, 0x1881f8ab9b102616),
    ("obs_error/f32/interp/abs/4097", 13335, 0x46a8effb10ebff15),
    ("obs_error/f32/interp/rel/4097", 13855, 0xa9e32f9d23d5d011),
    ("obs_error/f32/cubic/abs/4097", 13303, 0xd1f897fc079e458e),
    ("obs_error/f32/cubic/rel/4097", 13913, 0x2402d03d5674b176),
    ("exaalt-3/f32/lorenzo/abs/1", 30, 0xa321119e9fa3de17),
    ("exaalt-3/f64/lorenzo/abs/1", 30, 0xf3ba87063165ef89),
    ("exaalt-3/f32/interp/abs/1", 30, 0x2ca108ca4317b59a),
    ("exaalt-3/f64/interp/abs/1", 30, 0x793e36d3908859b4),
    ("exaalt-3/f32/cubic/abs/1", 30, 0xdaba9aaca06f2bc1),
    ("exaalt-3/f64/cubic/abs/1", 30, 0x444ba3025209eadf),
    ("exaalt-3/f32/lorenzo/abs/2", 33, 0xb3cc9d28bfaed767),
    ("exaalt-3/f64/lorenzo/abs/2", 33, 0xbefd1f2883b47719),
    ("exaalt-3/f32/interp/abs/2", 33, 0x9d8169878d2b5108),
    ("exaalt-3/f64/interp/abs/2", 33, 0xafaa55e9daaa29d2),
    ("exaalt-3/f32/cubic/abs/2", 33, 0xcc1359f01fe9b3c1),
    ("exaalt-3/f64/cubic/abs/2", 33, 0x5da40c669614b5ff),
    ("exaalt-3/f32/lorenzo/abs/3", 35, 0xa5cd1d80ac0833be),
    ("exaalt-3/f64/lorenzo/abs/3", 35, 0xc1cbe7c2224fb12c),
    ("exaalt-3/f32/interp/abs/3", 35, 0x688095872ac33e08),
    ("exaalt-3/f64/interp/abs/3", 35, 0x0a0059dac8aeb282),
    ("exaalt-3/f32/cubic/abs/3", 35, 0x064ec07dd1947ded),
    ("exaalt-3/f64/cubic/abs/3", 35, 0x4d9fe138aea2174b),
    ("exaalt-3/f32/lorenzo/abs/5", 40, 0xe14d440318f6a5b1),
    ("exaalt-3/f64/lorenzo/abs/5", 40, 0x470826f6dac0da1b),
    ("exaalt-3/f32/interp/abs/5", 40, 0x2113f8823e82a327),
    ("exaalt-3/f64/interp/abs/5", 40, 0x712dc3552b05fc49),
    ("exaalt-3/f32/cubic/abs/5", 40, 0x6018e6fc08b77388),
    ("exaalt-3/f64/cubic/abs/5", 40, 0x085be8556891325e),
    ("exaalt-3/f32/lorenzo/abs/4095", 3559, 0x0f2285cd83ea36a6),
    ("exaalt-3/f64/lorenzo/abs/4095", 3560, 0x0e838aa7b290a706),
    ("exaalt-3/f32/interp/abs/4095", 3748, 0x46f5092e476054d6),
    ("exaalt-3/f64/interp/abs/4095", 3748, 0x858060d145f55355),
    ("exaalt-3/f32/cubic/abs/4095", 3418, 0xc7825112d01f13a1),
    ("exaalt-3/f64/cubic/abs/4095", 3418, 0xf7983dec7eef01c7),
    ("exaalt-3/f32/lorenzo/abs/4096", 3560, 0xf3f1c5dbe4be02dc),
    ("exaalt-3/f64/lorenzo/abs/4096", 3561, 0x697d98534b9f6bfd),
    ("exaalt-3/f32/interp/abs/4096", 3749, 0x3e164c3669f78f8a),
    ("exaalt-3/f64/interp/abs/4096", 3749, 0x56fc8278f40904d7),
    ("exaalt-3/f32/cubic/abs/4096", 3419, 0xe6c527c2c2381b0b),
    ("exaalt-3/f64/cubic/abs/4096", 3419, 0x3416ae6d939fc705),
    ("exaalt-3/f64/lorenzo/abs/4097", 3561, 0xf555951691ba9327),
    ("exaalt-3/f64/interp/abs/4097", 3745, 0x31935eeb2dab0ad1),
    ("exaalt-3/f64/cubic/abs/4097", 3413, 0x70f0e54c0725e6c7),
    ("obs_error/f32/lorenzo/abs/salted", 13468, 0x658b74f82d38a95f),
    ("obs_error/f32/interp/abs/salted", 13376, 0xce3ad0e5007658fd),
    ("obs_error/f32/cubic/abs/salted", 13414, 0xd2c5ea92cef640b1),
    ("obs_error/f64/interp/rel/salted", 14228, 0xa546b9e2110aa99a),
    ("exaalt-2/f32/interp/abs/300KiB", 62406, 0x640c4fd3b126a5e1),
    ("obs_error/f32/interp/abs/300KiB", 169589, 0x00b9d6f401dc9fd7),
    ("exaalt-1/f64/cubic/rel/300KiB", 46894, 0x5ef7f366cd0789b0),
    ("exaalt-3/f32/Interp/abs/96x80", 8175, 0xb8e41339e0478709),
    ("exaalt-3/f32/Lorenzo/abs/96x80", 6172, 0xa7dfd877a20c7f48),
    ("exaalt-2/f64/InterpCubic/abs/20x18x14", 7040, 0x48e9e320b9c70dc8),
    ("exaalt-2/f64/Lorenzo/abs/20x18x14", 4940, 0xc6caafa5ad5ab0a1),
];

/// (case, decoded element count, FNV-1a over the decoded elements'
/// little-endian bits), recorded from the per-point interpolation walk
/// that the per-line walk replaced.
const DECODED_PINS: &[(&str, usize, u64)] = &[
    ("exaalt-1/f32/lorenzo/abs/4097", 4097, 0x29a758cbfd7ab75d),
    ("exaalt-1/f32/lorenzo/rel/4097", 4097, 0xc72d1ccb9a85a45e),
    ("exaalt-1/f32/interp/abs/4097", 4097, 0x6a28e29db55ea348),
    ("exaalt-1/f32/interp/rel/4097", 4097, 0x1e843d1f01fa6286),
    ("exaalt-1/f32/cubic/abs/4097", 4097, 0x145207f439519142),
    ("exaalt-1/f32/cubic/rel/4097", 4097, 0xdc0c50ace3e650a8),
    ("exaalt-2/f32/lorenzo/abs/4097", 4097, 0x9fd940a865dcf8c3),
    ("exaalt-2/f32/lorenzo/rel/4097", 4097, 0x270693f4ece8bf6a),
    ("exaalt-2/f32/interp/abs/4097", 4097, 0xac21797389f21411),
    ("exaalt-2/f32/interp/rel/4097", 4097, 0xffbb7b1f106217cb),
    ("exaalt-2/f32/cubic/abs/4097", 4097, 0xd91bb25e187e1e36),
    ("exaalt-2/f32/cubic/rel/4097", 4097, 0xeeb2b143434ba035),
    ("exaalt-3/f32/lorenzo/abs/4097", 4097, 0x5d176d5b4522baa5),
    ("exaalt-3/f32/lorenzo/rel/4097", 4097, 0x96f3a65af432b923),
    ("exaalt-3/f32/interp/abs/4097", 4097, 0x943a52a90a7ed426),
    ("exaalt-3/f32/interp/rel/4097", 4097, 0xe3252757b3a26547),
    ("exaalt-3/f32/cubic/abs/4097", 4097, 0x27a00c5aa672637e),
    ("exaalt-3/f32/cubic/rel/4097", 4097, 0xa2de8b1a38754b57),
    ("obs_error/f32/lorenzo/abs/4097", 4097, 0x93c11b45ec1c7c5d),
    ("obs_error/f32/lorenzo/rel/4097", 4097, 0x3aff5ac893dcb206),
    ("obs_error/f32/interp/abs/4097", 4097, 0x9ff50d4b087a685d),
    ("obs_error/f32/interp/rel/4097", 4097, 0xcee0513b5137b48a),
    ("obs_error/f32/cubic/abs/4097", 4097, 0xd2a40da455c29549),
    ("obs_error/f32/cubic/rel/4097", 4097, 0xd6f86e11e00c3080),
    ("exaalt-3/f32/lorenzo/abs/1", 1, 0x0dab16ce718414ad),
    ("exaalt-3/f64/lorenzo/abs/1", 1, 0xb83d8a846b924b22),
    ("exaalt-3/f32/interp/abs/1", 1, 0x0dab16ce718414ad),
    ("exaalt-3/f64/interp/abs/1", 1, 0xb83d8a846b924b22),
    ("exaalt-3/f32/cubic/abs/1", 1, 0x0dab16ce718414ad),
    ("exaalt-3/f64/cubic/abs/1", 1, 0xb83d8a846b924b22),
    ("exaalt-3/f32/lorenzo/abs/2", 2, 0x2c9db2fbdebc4642),
    ("exaalt-3/f64/lorenzo/abs/2", 2, 0x1e2e3b56b1e71f79),
    ("exaalt-3/f32/interp/abs/2", 2, 0x2c9db2fbdebc4642),
    ("exaalt-3/f64/interp/abs/2", 2, 0x1e2e3b56b1e71f79),
    ("exaalt-3/f32/cubic/abs/2", 2, 0x2c9db2fbdebc4642),
    ("exaalt-3/f64/cubic/abs/2", 2, 0x1e2e3b56b1e71f79),
    ("exaalt-3/f32/lorenzo/abs/3", 3, 0x8dab8706c6a8a187),
    ("exaalt-3/f64/lorenzo/abs/3", 3, 0x5a178bf9f4da1493),
    ("exaalt-3/f32/interp/abs/3", 3, 0x115f2c33754924b1),
    ("exaalt-3/f64/interp/abs/3", 3, 0x99474a0741916719),
    ("exaalt-3/f32/cubic/abs/3", 3, 0x115f2c33754924b1),
    ("exaalt-3/f64/cubic/abs/3", 3, 0x99474a0741916719),
    ("exaalt-3/f32/lorenzo/abs/5", 5, 0xcd62a356534caebb),
    ("exaalt-3/f64/lorenzo/abs/5", 5, 0x64b167192f844107),
    ("exaalt-3/f32/interp/abs/5", 5, 0xd4cc4ea1022f1028),
    ("exaalt-3/f64/interp/abs/5", 5, 0x5405ff5a29675baf),
    ("exaalt-3/f32/cubic/abs/5", 5, 0xd4cc4ea1022f1028),
    ("exaalt-3/f64/cubic/abs/5", 5, 0x5405ff5a29675baf),
    ("exaalt-3/f32/lorenzo/abs/4095", 4095, 0x40f9694cf619fce5),
    ("exaalt-3/f64/lorenzo/abs/4095", 4095, 0xc34db86740499cb4),
    ("exaalt-3/f32/interp/abs/4095", 4095, 0x6453ed4e022f9cb2),
    ("exaalt-3/f64/interp/abs/4095", 4095, 0x7b37d709f60045e0),
    ("exaalt-3/f32/cubic/abs/4095", 4095, 0x93b083b8cc549edb),
    ("exaalt-3/f64/cubic/abs/4095", 4095, 0x47adee9539942f4c),
    ("exaalt-3/f32/lorenzo/abs/4096", 4096, 0x3cf4698c98d8560e),
    ("exaalt-3/f64/lorenzo/abs/4096", 4096, 0xad59030d7e058532),
    ("exaalt-3/f32/interp/abs/4096", 4096, 0xfcc21ac76fb8638f),
    ("exaalt-3/f64/interp/abs/4096", 4096, 0xa64e4ad0f10bb156),
    ("exaalt-3/f32/cubic/abs/4096", 4096, 0xb9fd1ec01b39f966),
    ("exaalt-3/f64/cubic/abs/4096", 4096, 0xaafee5c4a4ebc99a),
    ("exaalt-3/f64/lorenzo/abs/4097", 4097, 0x7ec81adafab90327),
    ("exaalt-3/f64/interp/abs/4097", 4097, 0x4e4dfd97160b2490),
    ("exaalt-3/f64/cubic/abs/4097", 4097, 0x2b49bfde3510fe18),
    ("obs_error/f32/lorenzo/abs/salted", 4096, 0x897312890b34baca),
    ("obs_error/f32/interp/abs/salted", 4096, 0xdfccab9519e592dd),
    ("obs_error/f32/cubic/abs/salted", 4096, 0x0296229875d9e5d0),
    ("obs_error/f64/interp/rel/salted", 4096, 0xb1540134c7b1b64f),
    ("exaalt-2/f32/interp/abs/300KiB", 76800, 0xaca5baafdb25e144),
    ("obs_error/f32/interp/abs/300KiB", 76800, 0x40297ec256d9fba6),
    ("exaalt-1/f64/cubic/rel/300KiB", 38400, 0xdc94aa4186ab1668),
    ("exaalt-3/f32/Interp/abs/96x80", 7680, 0x7148814ed4fbccf8),
    ("exaalt-3/f32/Lorenzo/abs/96x80", 7680, 0x10177899b28f6a8a),
    ("exaalt-2/f64/InterpCubic/abs/20x18x14", 5040, 0x21e6f355acc9825c),
    ("exaalt-2/f64/Lorenzo/abs/20x18x14", 5040, 0xc596d49ff2e8d5f9),
];

/// (case, blob length, blob FNV-1a), recorded like [`CORE_PINS`].
const HUFF_PINS: &[(&str, usize, u64)] = &[
    ("zipf/dense", 198916, 0x4eb754b00d448681),
    ("zipf/sparse", 206914, 0xc674cbcf49804d44),
    ("fibonacci", 272350, 0x0a8ed3b353566430),
    ("single", 8, 0x3357b9cecbb25f9c),
    ("empty", 3, 0xd94d12186c0f2fb7),
];

fn check_pins(actual: &[(String, usize, u64)], pins: &[(&str, usize, u64)]) {
    let table: String =
        actual.iter().map(|(n, len, h)| format!("    (\"{n}\", {len}, {h:#018x}),\n")).collect();
    assert_eq!(actual.len(), pins.len(), "case count changed; actual pins:\n{table}");
    for ((name, len, hash), &(pin_name, pin_len, pin_hash)) in actual.iter().zip(pins) {
        assert_eq!(name, pin_name, "case order changed; actual pins:\n{table}");
        assert_eq!(
            (*len, *hash),
            (pin_len, pin_hash),
            "{name}: bytes changed; actual pins:\n{table}"
        );
    }
}

#[test]
fn core_bytes_are_pinned() {
    let actual: Vec<(String, usize, u64)> =
        core_cases().into_iter().map(|(name, c)| (name, c.len(), fnv1a64(&c))).collect();
    check_pins(&actual, CORE_PINS);
}

/// Decode `core` as the element type its header names: (element count,
/// FNV-1a over the elements' little-endian bits).
fn decoded_digest(core: &[u8]) -> (usize, u64) {
    fn digest<T: Float>(core: &[u8]) -> (usize, u64) {
        let field: Field<T> = decode_core(core).expect("a pinned core decodes");
        let bits: Vec<u8> =
            field.data.iter().flat_map(|v| v.to_le_bytes_vec()[..T::BYTES].to_vec()).collect();
        (field.data.len(), fnv1a64(&bits))
    }
    // The type tag follows the magic and the version byte.
    if core[5] == f32::TYPE_TAG {
        digest::<f32>(core)
    } else {
        digest::<f64>(core)
    }
}

#[test]
fn decoded_fields_are_pinned() {
    let actual: Vec<(String, usize, u64)> = core_cases()
        .into_iter()
        .map(|(name, c)| {
            let (len, hash) = decoded_digest(&c);
            (name, len, hash)
        })
        .collect();
    check_pins(&actual, DECODED_PINS);
}

#[test]
fn huffman_bytes_are_pinned() {
    let actual: Vec<(String, usize, u64)> = huff_cases()
        .into_iter()
        .map(|(name, syms)| {
            let blob = huff::encode(&syms);
            assert_eq!(huff::decode(&blob).unwrap(), syms, "{name}: round trip");
            (name.to_string(), blob.len(), fnv1a64(&blob))
        })
        .collect();
    check_pins(&actual, HUFF_PINS);
}

/// Bit-by-bit canonical decoder (Moffat-Turpin): the reference the table
/// decoder is checked against.
struct CanonicalDecoder {
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    /// Dense symbol indexes in canonical order, by (length, index).
    order: Vec<u32>,
    max_len: usize,
}

impl CanonicalDecoder {
    fn new(lengths: &[u8]) -> Option<Self> {
        let max_len = lengths.iter().copied().max()? as usize;
        if max_len == 0 || max_len > 27 {
            return None;
        }
        let mut count = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let kraft: u64 = (1..=max_len).map(|l| (count[l] as u64) << (max_len - l)).sum();
        if kraft > 1u64 << max_len {
            return None;
        }
        let mut first_code = vec![0u32; max_len + 1];
        let mut first_index = vec![0u32; max_len + 1];
        let (mut code, mut index) = (0u32, 0u32);
        for l in 1..=max_len {
            code = (code + if l > 1 { count[l - 1] } else { 0 }) << 1;
            first_code[l] = code;
            first_index[l] = index;
            index += count[l];
        }
        let mut order: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        Some(Self { first_code, first_index, count, order, max_len })
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Option<usize> {
        let mut code = 0u32;
        for l in 1..=self.max_len {
            code = (code << 1) | r.read_bits(1).ok()?;
            let offset = code.wrapping_sub(self.first_code[l]);
            if offset < self.count[l] {
                return Some(self.order[(self.first_index[l] + offset) as usize] as usize);
            }
        }
        None
    }
}

/// A parsed blob header: symbol count, alphabet, code lengths, and where
/// the payload-length varint starts.
struct Header {
    n: usize,
    distinct: Vec<u32>,
    lengths: Vec<u8>,
    payload_len_at: usize,
}

/// The blob header checks, in the order the format defines them.
fn parse_header(data: &[u8], max_symbols: usize) -> Result<Header, HuffStreamError> {
    let mut i = 0usize;
    let n = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)? as usize;
    let k = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)? as usize;
    if n > max_symbols {
        return Err(HuffStreamError::LimitExceeded(max_symbols));
    }
    if n == 0 {
        return Ok(Header { n, distinct: Vec::new(), lengths: Vec::new(), payload_len_at: i });
    }
    if k == 0 || k > n || k > data.len().saturating_sub(i) {
        return Err(HuffStreamError::BadHeader);
    }
    let mut distinct = Vec::with_capacity(k);
    let mut prev = 0u64;
    for _ in 0..k {
        let d = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)?;
        prev = prev
            .checked_add(d)
            .filter(|&p| p <= u32::MAX as u64)
            .ok_or(HuffStreamError::BadHeader)?;
        distinct.push(prev as u32);
    }
    if i + k > data.len() {
        return Err(HuffStreamError::BadHeader);
    }
    let lengths = data[i..i + k].to_vec();
    Ok(Header { n, distinct, lengths, payload_len_at: i + k })
}

/// Reference for `huff::decode_with_limit`.
fn reference_decode(data: &[u8], max_symbols: usize) -> Result<Vec<u32>, HuffStreamError> {
    let h = parse_header(data, max_symbols)?;
    if h.n == 0 {
        return Ok(Vec::new());
    }
    let mut i = h.payload_len_at;
    let payload_len = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)? as usize;
    let end = i
        .checked_add(payload_len)
        .filter(|&end| end <= data.len())
        .ok_or(HuffStreamError::BadHeader)?;
    if h.distinct.len() == 1 {
        return Ok(vec![h.distinct[0]; h.n]);
    }
    if h.n > payload_len.saturating_mul(8) {
        return Err(HuffStreamError::BadStream);
    }
    let dec = CanonicalDecoder::new(&h.lengths).ok_or(HuffStreamError::BadHeader)?;
    let mut r = BitReader::new(&data[i..end]);
    (0..h.n)
        .map(|_| dec.decode(&mut r).map(|idx| h.distinct[idx]).ok_or(HuffStreamError::BadStream))
        .collect()
}

/// Blobs for the decoder comparison: small enough to mutate many times in
/// a debug build, with codes past 12 bits and both alphabet layouts.
fn reference_blobs() -> Vec<(&'static str, Vec<u8>)> {
    // A Zipf body over 200 symbols and a Fibonacci tail of 16 more, whose
    // rarest codes are about 17 bits long.
    let zipf = |value: &dyn Fn(u32) -> u32| -> Vec<u32> {
        let mut v: Vec<u32> =
            (1..=200u32).flat_map(|i| std::iter::repeat_n(value(i), (400 / i) as usize)).collect();
        let (mut a, mut b) = (1usize, 1usize);
        for i in 201..=216u32 {
            v.extend(std::iter::repeat_n(value(i), a));
            (a, b) = (b, a + b);
        }
        let mut rng = Pcg32::seed_from_u64(0xDEC0);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0usize..i + 1));
        }
        v
    };
    let quant: Vec<u32> = floats(DatasetId::ObsError, 3000)
        .windows(2)
        .map(|w| (32_768 + ((w[1] - w[0]) as f64 / 2e-4).round() as i64).clamp(0, 65_535) as u32)
        .collect();
    vec![
        ("zipf/dense", huff::encode(&zipf(&|i| 32_000 + i))),
        ("zipf/sparse", huff::encode(&zipf(&|i| i.wrapping_mul(2_654_435_761)))),
        ("obs_error-deltas", huff::encode(&quant)),
        ("two-symbol", huff::encode(&[3, 9, 9, 3, 9, 9, 9, 3])),
        ("single", huff::encode(&[5; 40])),
    ]
}

fn assert_same(name: &str, what: &str, blob: &[u8], limit: usize) {
    let expect = reference_decode(blob, limit);
    let got = huff::decode_with_limit(blob, limit);
    assert_eq!(got, expect, "{name}: {what}");
}

#[test]
fn table_decoder_matches_reference() {
    let mut rng = Pcg32::seed_from_u64(0x00C0_DEC0);
    for (name, blob) in reference_blobs() {
        assert!(reference_decode(&blob, usize::MAX).is_ok(), "{name}: reference rejects");
        assert_same(name, "valid", &blob, usize::MAX);
        // The same stream with a symbol budget one short of its count.
        let n = reference_decode(&blob, usize::MAX).unwrap().len();
        assert_same(name, "over budget", &blob, n.saturating_sub(1));

        // Truncations: the first bytes, the header end and a spread of
        // payload cuts.
        let header = parse_header(&blob, usize::MAX).unwrap().payload_len_at;
        let cuts = (0..blob.len())
            .filter(|&c| c < 16 || c.abs_diff(header) <= 4 || c % (blob.len() / 32 + 1) == 0);
        for cut in cuts {
            assert_same(name, &format!("cut at {cut}"), &blob[..cut], usize::MAX);
        }
        // Payload truncated with its length field rewritten to match, so
        // the decoder itself runs out of bits.
        let mut i = header;
        let payload_len = get_uvarint(&blob, &mut i).unwrap() as usize;
        for keep in [0, 1, 2, payload_len / 3, payload_len.saturating_sub(1)] {
            if keep >= payload_len {
                continue;
            }
            let mut short = blob[..header].to_vec();
            put_uvarint(&mut short, keep as u64);
            short.extend_from_slice(&blob[i..i + keep]);
            assert_same(name, &format!("payload kept {keep}"), &short, usize::MAX);
        }
        // Bit flips: every bit of the counts and first alphabet entries,
        // then random bits anywhere.
        let flips = (0..blob.len().min(8) * 8)
            .chain((0..120).map(|_| rng.gen_range(0usize..blob.len() * 8)));
        for bit in flips {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_same(name, &format!("bit {bit} flipped"), &bad, usize::MAX);
        }
    }
}
