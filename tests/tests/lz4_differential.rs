//! Pins the LZ4 encoder's output bytes, so a faster block compressor
//! cannot change a byte.
//!
//! The inputs follow the size ladders of two wall-clock workloads: small
//! messages of 2-64 KiB cycling through the mixed classes (as the
//! service sees them), and 1-4 MiB silesia-like messages (as the
//! point-to-point transport sends them). Each case pins the length and
//! FNV-1a 64 of `compress_block(.., 1)` and of `compress_frame(..,
//! DEFAULT_BLOCK_SIZE, 1)`, and checks that both decode back.
//!
//! `compress_block` splits inputs of 1.25 MiB and up across cores; the
//! split tests force every segment count so that a 1-core host runs every
//! seam path too. The decoder tests hold `decompress_block` to the plain
//! byte-by-byte decoder on valid, truncated and bit-flipped blocks.

use pedal_datasets::DatasetId;
use pedal_fleet::fnv1a64;
use pedal_lz4::{
    compress_block, compress_block_split, compress_frame, decompress_block,
    decompress_block_bytewise, decompress_frame, DEFAULT_BLOCK_SIZE,
};

/// `count` sizes evenly spaced over `min..=max`, multiples of 4.
fn ladder(count: usize, min: usize, max: usize) -> Vec<usize> {
    (0..count).map(|i| (min + (max - min) * i / (count - 1)) / 4 * 4).collect()
}

/// (dataset, size) for every pinned case, in [`PINS`] order: the 16-step
/// 2-64 KiB ladder over log text, random bytes and float columns, then
/// three rungs (the first, middle and last) of the 15-step 1-4 MiB ladder
/// over the lossless corpus, rotating as the workload does.
fn cases() -> Vec<(DatasetId, usize)> {
    let mixed = [DatasetId::LogText, DatasetId::RandomBlob, DatasetId::FloatColumn];
    let mut cases: Vec<_> = ladder(16, 2048, 64 * 1024)
        .into_iter()
        .enumerate()
        .map(|(i, n)| (mixed[i % 3], n))
        .collect();
    let large = ladder(15, 1 << 20, 4 << 20);
    cases.extend([0, 7, 14].map(|i| (DatasetId::LOSSLESS[i % 5], large[i])));
    cases
}

/// (case, block length, its FNV-1a 64, frame length, its FNV-1a 64).
#[rustfmt::skip]
const PINS: [(&str, usize, u64, usize, u64); 19] = [
    ("mixed/log-text@2048", 967, 0xfe1912a7f22a2fcb, 995, 0xc8742f47e16086f7),
    ("mixed/random-blob@6280", 6306, 0x7d9303741cd2ac56, 6308, 0xa9d26db2a1c83ad3),
    ("mixed/float-column@10512", 10549, 0x3d08b8517665e385, 10540, 0x8d3911583f19b189),
    ("mixed/log-text@14744", 5833, 0x71305134afe1dc76, 5861, 0x778630f97541421d),
    ("mixed/random-blob@18976", 19052, 0x40b4d15b678ed45b, 19004, 0xa0eccf6c16da1228),
    ("mixed/float-column@23208", 23294, 0x528f65756a4eba87, 23236, 0x5222654a0da9f67a),
    ("mixed/log-text@27440", 10597, 0x3f39d55623ead4d4, 10625, 0x43829e5a6ae1ca2c),
    ("mixed/random-blob@31672", 31798, 0xbcf8206e857ba022, 31700, 0x8514ed537bc062ba),
    ("mixed/float-column@35908", 36044, 0x3ff7b07167263437, 35936, 0x7f18acb474a9d960),
    ("mixed/log-text@40140", 15392, 0xb0f61ec836cbae79, 15420, 0xfa2f0efc3127ebc7),
    ("mixed/random-blob@44372", 44547, 0x165c670f3dfe69ed, 44400, 0x83820baa4d40a803),
    ("mixed/float-column@48604", 48790, 0xcd01e4f9ea6b3818, 48632, 0xd61abf3d03d7da1c),
    ("mixed/log-text@52836", 20232, 0x3a222a5008c5ec93, 20260, 0xe9f3d2d25cb6f65c),
    ("mixed/random-blob@57068", 57293, 0xb0efb38928dd802b, 57096, 0x1bfe5c3168ce85ec),
    ("mixed/float-column@61300", 61536, 0xa82267a9186fec64, 61328, 0x11600df5c060ed22),
    ("mixed/log-text@65536", 25003, 0x4fba6d71f4fb4bf4, 25031, 0x3695721f55eb7506),
    ("silesia/xml@1048576", 336949, 0x9a9d56b83b612c97, 336977, 0xfb6f32d0d54a1b71),
    ("silesia/samba@2621440", 986136, 0x53ecf81281c5d17c, 986164, 0x8c18c1cfffdb1711),
    ("silesia/mozilla@4194304", 1786368, 0x7e59876c0ab32156, 1786396, 0x854cd0170d7e8915),
];

#[test]
fn encoder_output_is_pinned() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len());
    for ((id, size), &(pin_name, len, fnv, frame_len, frame_fnv)) in cases.into_iter().zip(&PINS) {
        let name = format!("{}@{size}", id.name());
        assert_eq!(name, pin_name);
        let data = id.generate_bytes(size);
        let block = compress_block(&data, 1);
        let frame = compress_frame(&data, DEFAULT_BLOCK_SIZE, 1);
        assert_eq!((block.len(), fnv1a64(&block)), (len, fnv), "{name}: compress_block");
        assert_eq!(
            (frame.len(), fnv1a64(&frame)),
            (frame_len, frame_fnv),
            "{name}: compress_frame"
        );
        assert!(
            decompress_block(&block, Some(data.len()), data.len()).unwrap() == data,
            "{name}: block roundtrip"
        );
        assert!(decompress_frame(&frame).unwrap() == data, "{name}: frame roundtrip");
    }
}

/// One FNV-1a 64 over the length and bytes of every output of
/// [`tail_outputs`], recorded before the parse loop wrote its sequences
/// with raw stores and copied short literal runs as one 16-byte move.
const TAIL_PIN: (usize, u64) = (393, 0xf98a_1f63_7431_0bc3);

/// Blocks whose end falls at every distance from the last literal run:
/// every length 0..=96 of log text, random bytes and a 300-byte period
/// (alone, and after one whole period so that a match runs into the
/// tail), then forced splits at 1..=4 segments of 1.25 MiB + 0, 1, 15,
/// 16 and 17 bytes, the sizes around a 16-byte literal copy at the end.
fn tail_outputs() -> Vec<Vec<u8>> {
    let period: Vec<u8> = (0..396usize).map(|i| (i % 300 * 7 % 251) as u8).collect();
    let sources = [
        DatasetId::LogText.generate_bytes(96),
        DatasetId::RandomBlob.generate_bytes(96),
        period[..96].to_vec(),
    ];
    let mut outputs = Vec::new();
    for n in 0..=96 {
        for src in &sources {
            outputs.push(compress_block(&src[..n], 1));
        }
        outputs.push(compress_block(&period[..300 + n], 1));
    }
    const BASE: usize = 5 << 18;
    let large = DatasetId::SilesiaSamba.generate_bytes(BASE + 17);
    for extra in [0, 1, 15, 16, 17] {
        let (sequential, _) = compress_block_split(&large[..BASE + extra], 1);
        for segments in 2..=4 {
            let (split, _) = compress_block_split(&large[..BASE + extra], segments);
            assert!(split == sequential, "+{extra}: {segments} segments changed the bytes");
        }
        outputs.push(sequential);
    }
    outputs
}

#[test]
fn block_tails_are_pinned() {
    let outputs = tail_outputs();
    let mut all = Vec::new();
    for out in &outputs {
        all.extend_from_slice(&(out.len() as u64).to_le_bytes());
        all.extend_from_slice(out);
    }
    assert_eq!((outputs.len(), fnv1a64(&all)), TAIL_PIN);
}

/// `compress_block_split` at `segments` equals the sequential parse;
/// returns how many seams resynchronised.
fn split_matches_sequential(name: &str, data: &[u8], segments: usize) -> usize {
    let (sequential, none) = compress_block_split(data, 1);
    assert_eq!(none, 0);
    let (split, resynced) = compress_block_split(data, segments);
    assert!(split == sequential, "{name}: {segments} segments changed the bytes");
    assert!(resynced < segments, "{name}: {resynced} of {} seams", segments - 1);
    resynced
}

#[test]
fn split_parse_reproduces_the_large_pins() {
    let cases = cases();
    for ((id, size), &(name, len, fnv, _, _)) in cases.iter().zip(&PINS).skip(16) {
        let data = id.generate_bytes(*size);
        for segments in 1..=4 {
            let (block, resynced) = compress_block_split(&data, segments);
            assert_eq!((block.len(), fnv1a64(&block)), (len, fnv), "{name}: {segments} segments");
            // The executable-like source never agrees past a seam: every
            // segment falls back to the calling thread's own parse.
            let fell_back = *id == DatasetId::SilesiaMozilla;
            assert_eq!(resynced, if fell_back { 0 } else { segments - 1 }, "{name}");
        }
    }
}

#[test]
fn split_parse_resyncs_on_text_and_fields() {
    let sources =
        [DatasetId::SilesiaXml, DatasetId::SilesiaMr, DatasetId::SilesiaSamba, DatasetId::ObsError];
    for id in sources {
        let data = id.generate_bytes(1 << 20);
        assert_eq!(split_matches_sequential(id.name(), &data, 2), 1, "{}", id.name());
    }
}

#[test]
fn split_parse_holds_inside_long_runs_and_at_the_threshold() {
    // `compress_block` splits from 1.25 MiB (five 256 KiB warm-ups) on.
    const THRESHOLD: usize = 5 << 18;
    let zeros = vec![0u8; 2 << 20];
    let period: Vec<u8> = (0..(2usize << 20)).map(|i| (i % 300 * 7 % 251) as u8).collect();
    let mut above = DatasetId::SilesiaSamba.generate_bytes(THRESHOLD + 4096);
    above.truncate(THRESHOLD + 1);
    for (name, data) in [("zeros", &zeros), ("period-300", &period), ("threshold + 1", &above)] {
        for segments in [2, 3] {
            split_matches_sequential(name, data, segments);
        }
    }
    // The automatic split at and above the threshold.
    for data in [&above, &above[..THRESHOLD].to_vec()] {
        assert!(compress_block(data, 1) == compress_block_split(data, 1).0);
    }
}

/// Both decoders on `block` with and without an expected length, and
/// with a limit one byte short.
fn decoders_agree(block: &[u8], len: usize, what: &str) {
    for (expected, limit) in [(Some(len), len), (None, len), (None, len.saturating_sub(1))] {
        assert_eq!(
            decompress_block(block, expected, limit),
            decompress_block_bytewise(block, expected, limit),
            "{what}: expected {expected:?}, limit {limit}"
        );
    }
}

#[test]
fn decoder_matches_the_bytewise_decoder_on_damaged_blocks() {
    // The two smallest pinned blocks: short text matches, and a block
    // of random bytes that is almost all literals.
    for (id, size) in [(DatasetId::LogText, 2048), (DatasetId::RandomBlob, 6280)] {
        let data = id.generate_bytes(size);
        let block = compress_block(&data, 1);
        decoders_agree(&block, size, "intact");
        for cut in 0..block.len() {
            decoders_agree(&block[..cut], size, &format!("{}: cut at {cut}", id.name()));
        }
        let mut flipped = block.clone();
        for bit in 0..block.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            decoders_agree(&flipped, size, &format!("{}: bit {bit} flipped", id.name()));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
    // Long runs: overlapping matches of every span, and an output that
    // outgrows the first guess at its size.
    let runs: Vec<u8> = (0..200_000u32).map(|i| (i / 4096 % 7) as u8 * (i % 5) as u8).collect();
    decoders_agree(&compress_block(&runs, 1), runs.len(), "runs");
    let zeros = compress_block(&[0u8; 100_000], 1);
    assert_eq!(
        pedal_lz4::decompress_block_with_limit(&zeros, 100_000),
        decompress_block_bytewise(&zeros, None, 100_000)
    );
}
