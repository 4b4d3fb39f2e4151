//! Byte pins for the pco codec.
//!
//! Each case is one input seen six ways: as `u32` and `f32` columns (the
//! f32 values and their bit patterns), as `u64` and `f64` columns, and as
//! bytes through `compress_bytes` and `compress_bytes_chunked`. A case
//! pins the six output lengths and one FNV-1a over the six outputs, so a
//! change to the bit packing or the varints cannot move a byte. Inputs
//! cover the float datasets at awkward sizes, non-finite values, about
//! 300 KiB, and uniformly random bits, whose bin offsets are 33 to 64
//! bits wide. Every output also decodes back bit-exact.

use pedal_datasets::{bytes_to_f32, DatasetId, Pcg32};
use pedal_fleet::fnv1a64;
use pedal_pco::PcoConfig;

/// About 300 KiB of f32s, the scale of one bulk message.
const BIG: usize = 76_800;

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

/// NaN and ±Inf salted into `v`, runs included.
fn salt<T: Copy>(mut v: Vec<T>, specials: [T; 3], rng: &mut Pcg32) -> Vec<T> {
    for i in 0..24 {
        let at = rng.gen_range(0usize..v.len() - 3);
        let run = if i % 4 == 0 { 3 } else { 1 };
        for x in &mut v[at..at + run] {
            *x = specials[rng.gen_range(0usize..3)];
        }
    }
    v
}

/// One pinned input: f32s, f64s, and bytes with the chunk size
/// `compress_bytes_chunked` cuts them at.
struct Case {
    name: String,
    f: Vec<f32>,
    d: Vec<f64>,
    bytes: Vec<u8>,
    chunk: usize,
}

/// The six compressions of a case, each checked to decode back
/// bit-exact: (output lengths, FNV-1a over the concatenated outputs).
fn compress(c: &Case) -> ([usize; 6], u64) {
    let cfg = PcoConfig::default();
    let u32s: Vec<u32> = c.f.iter().map(|x| x.to_bits()).collect();
    let u64s: Vec<u64> = c.d.iter().map(|x| x.to_bits()).collect();
    let outs = [
        pedal_pco::compress_u32(&u32s, &cfg),
        pedal_pco::compress_f32(&c.f, &cfg),
        pedal_pco::compress_u64(&u64s, &cfg),
        pedal_pco::compress_f64(&c.d, &cfg),
        pedal_pco::compress_bytes(&c.bytes, &cfg),
        pedal_pco::compress_bytes_chunked(&c.bytes, c.chunk, &cfg),
    ];
    let name = &c.name;
    assert_eq!(pedal_pco::decompress_u32(&outs[0]).unwrap(), u32s, "{name}/u32");
    let f32_bits: Vec<u32> =
        pedal_pco::decompress_f32(&outs[1]).unwrap().iter().map(|x| x.to_bits()).collect();
    assert_eq!(f32_bits, u32s, "{name}/f32");
    assert_eq!(pedal_pco::decompress_u64(&outs[2]).unwrap(), u64s, "{name}/u64");
    let f64_bits: Vec<u64> =
        pedal_pco::decompress_f64(&outs[3]).unwrap().iter().map(|x| x.to_bits()).collect();
    assert_eq!(f64_bits, u64s, "{name}/f64");
    for out in &outs[4..] {
        assert_eq!(pedal_pco::decompress_bytes(out).unwrap(), c.bytes, "{name}/bytes");
    }
    (outs.each_ref().map(Vec::len), fnv1a64(&outs.concat()))
}

/// Every pinned case, in a fixed order.
fn cases() -> Vec<Case> {
    let datasets = [
        (DatasetId::Exaalt1, "exaalt-1"),
        (DatasetId::Exaalt2, "exaalt-2"),
        (DatasetId::Exaalt3, "exaalt-3"),
        (DatasetId::ObsError, "obs_error"),
    ];
    let mut cases = Vec::new();
    for (id, name) in datasets {
        for n in [0usize, 1, 2, 3, 4095, 4097] {
            let (f, d, bytes) = (floats(id, n), doubles(id, n), id.generate_bytes(n));
            cases.push(Case { name: format!("{name}/{n}"), f, d, bytes, chunk: 1024 });
        }
    }
    let mut rng = Pcg32::seed_from_u64(0x9C0_5A17);
    let f = salt(
        floats(DatasetId::ObsError, 4096),
        [f32::NAN, f32::INFINITY, -f32::INFINITY],
        &mut rng,
    );
    let d = salt(
        doubles(DatasetId::Exaalt1, 4096),
        [f64::NAN, f64::INFINITY, -f64::INFINITY],
        &mut rng,
    );
    let bytes = f.iter().flat_map(|x| x.to_le_bytes()).collect();
    cases.push(Case { name: "salted".into(), f, d, bytes, chunk: 4096 });
    // Uniformly random bits: offsets of 33 to 64 bits in the u64 column.
    for n in [4097usize, BIG / 2] {
        let d: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.next_u64())).collect();
        let f = d.iter().map(|x| f32::from_bits(x.to_bits() as u32)).collect();
        let bytes = d.iter().flat_map(|x| x.to_le_bytes()).collect();
        cases.push(Case { name: format!("random/{n}"), f, d, bytes, chunk: 64 << 10 });
    }
    cases.push(Case {
        name: "300KiB".into(),
        f: floats(DatasetId::Exaalt2, BIG),
        d: doubles(DatasetId::Exaalt1, BIG / 2),
        bytes: DatasetId::ObsError.generate_bytes(BIG * 4 + 3),
        chunk: 64 << 10,
    });
    cases
}

/// (case, output lengths as u32/f32/u64/f64/bytes/chunked, FNV-1a of
/// the six outputs), recorded from the codec's own bit packing and
/// varints before they moved to `pedal-deflate`.
const PINS: &[(&str, [usize; 6], u64)] = &[
    ("exaalt-1/0", [7, 7, 7, 7, 11, 11], 0xd8ee7ba6d8ee2e23),
    ("exaalt-1/1", [24, 24, 28, 28, 12, 12], 0x5234cd13ca26f071),
    ("exaalt-1/2", [28, 28, 36, 36, 13, 13], 0x108fe4896afaf895),
    ("exaalt-1/3", [32, 32, 44, 44, 14, 14], 0x8ea38414afb653eb),
    ("exaalt-1/4095", [13831, 13828, 28843, 28855, 3808, 3647], 0x370806bc1cf11e8c),
    ("exaalt-1/4097", [13853, 13821, 28876, 28856, 3811, 3651], 0x0d98616aa585e515),
    ("exaalt-2/0", [7, 7, 7, 7, 11, 11], 0xd8ee7ba6d8ee2e23),
    ("exaalt-2/1", [24, 24, 28, 28, 12, 12], 0x7b9da50bbb9f807d),
    ("exaalt-2/2", [28, 28, 36, 36, 13, 13], 0xc57e4c99ec2e64eb),
    ("exaalt-2/3", [32, 32, 44, 44, 14, 14], 0x67d2e4e8f8d90071),
    ("exaalt-2/4095", [11931, 11931, 26970, 26970, 3014, 3140], 0xfce9adf7cc41f1df),
    ("exaalt-2/4097", [11928, 11928, 26967, 26967, 3012, 3144], 0x205b1cdac390a304),
    ("exaalt-3/0", [7, 7, 7, 7, 11, 11], 0xd8ee7ba6d8ee2e23),
    ("exaalt-3/1", [24, 24, 28, 28, 12, 12], 0x269ea66eaec01355),
    ("exaalt-3/2", [28, 28, 36, 36, 13, 13], 0x73dcb699b651d123),
    ("exaalt-3/3", [32, 32, 44, 44, 14, 14], 0x9389fe116911b4f5),
    ("exaalt-3/4095", [11952, 11956, 26986, 26990, 3024, 3144], 0x1c5b2e59190c14b4),
    ("exaalt-3/4097", [11977, 11981, 27022, 27026, 3054, 3148], 0xc8f8abcf6def8f95),
    ("obs_error/0", [7, 7, 7, 7, 11, 11], 0xd8ee7ba6d8ee2e23),
    ("obs_error/1", [24, 24, 28, 28, 12, 12], 0xd1840ce966c2157d),
    ("obs_error/2", [28, 28, 36, 36, 13, 13], 0x255468b071ff206f),
    ("obs_error/3", [32, 32, 44, 44, 14, 14], 0x4edad5139fcde39a),
    ("obs_error/4095", [8264, 8311, 28916, 28956, 2300, 2303], 0xf83b25dfa6a36a8b),
    ("obs_error/4097", [8265, 8319, 28941, 28970, 2292, 2306], 0xc7858c08e25d9aa9),
    ("salted", [8268, 8288, 28968, 28790, 8277, 9286], 0x80a207ae9d0f0f96),
    ("random/4097", [16759, 16744, 33319, 33266, 33598, 33598], 0xea259e73c07eb624),
    ("random/38400", [157702, 157646, 312288, 312175, 313298, 316293], 0x9211f9775be42431),
    ("300KiB", [159128, 159128, 244546, 244602, 151977, 156881], 0x70db21b14eb90a69),
];

#[test]
fn pco_bytes_are_pinned() {
    let actual: Vec<(String, [usize; 6], u64)> = cases()
        .into_iter()
        .map(|c| {
            let (lens, hash) = compress(&c);
            (c.name, lens, hash)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, lens, h)| format!("    (\"{n}\", {lens:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), PINS.len(), "case count changed; actual pins:\n{table}");
    for ((name, lens, hash), &(pin_name, pin_lens, pin_hash)) in actual.iter().zip(PINS) {
        assert_eq!(name, pin_name, "case order changed; actual pins:\n{table}");
        assert_eq!(
            (*lens, *hash),
            (pin_lens, pin_hash),
            "{name}: bytes changed; actual pins:\n{table}"
        );
    }
}
