//! Differential tests for the LZ77 tokenizer: lazy and greedy matching
//! are different *speed/ratio* trade-offs, never different *data*. Over
//! the pedal-testkit corpora both must detokenize byte-identically, and
//! lazy evaluation at a level's chain budget must never produce a more
//! expensive token stream than greedy at the same `max_chain` — costed
//! exactly, in RFC 1951 fixed-Huffman bits.
//!
//! The matcher's candidate sources (hash chains, sorted runs, and the
//! adaptive mix of both) must emit identical tokens, a parse split into
//! segments must emit the sequential parse's tokens for every segment
//! count, and the encoder's output bytes are pinned, so a faster matcher
//! cannot change a byte.

use pedal_datasets::{DatasetId, Pcg32};
use pedal_deflate::consts::{dist_code, length_code, DIST_EXTRA, LENGTH_EXTRA};
use pedal_deflate::lz77::{
    detokenize, tokenize, tokenize_from, tokenize_split, Candidates, MatcherParams, Token,
};
use pedal_deflate::Level;
use pedal_fleet::fnv1a64;
use pedal_testkit::{build_corpus, CodecId};

/// Exact encoded size of a token stream under the fixed Huffman tables
/// (RFC 1951 §3.2.6): literals 0..=143 cost 8 bits, 144..=255 cost 9;
/// length symbols 257..=279 cost 7, 280..=287 cost 8, plus length extra
/// bits; every distance code costs 5 bits plus distance extra bits.
fn fixed_huffman_bits(tokens: &[Token]) -> u64 {
    let mut bits = 0u64;
    for t in tokens {
        bits += match *t {
            Token::Literal(b) => {
                if b < 144 {
                    8
                } else {
                    9
                }
            }
            Token::Match { len, dist } => {
                let lc = length_code(len as usize);
                let lsym = 257 + lc;
                let lbits: u64 = if lsym <= 279 { 7 } else { 8 };
                lbits + LENGTH_EXTRA[lc] as u64 + 5 + DIST_EXTRA[dist_code(dist as usize)] as u64
            }
        };
    }
    bits
}

fn collect(data: &[u8], params: MatcherParams) -> Vec<Token> {
    let mut tokens = Vec::new();
    tokenize(data, params, |t| tokens.push(t));
    tokens
}

/// Corpus inputs: the original bytes behind every deflate fuzz base.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    build_corpus(CodecId::Deflate, 24 * 1024).into_iter().map(|c| (c.dataset, c.original)).collect()
}

#[test]
fn lazy_and_greedy_detokenize_identically() {
    for (name, data) in corpus() {
        for level in 1..=9u8 {
            let lazy = MatcherParams { lazy: true, ..MatcherParams::for_level(level) };
            let greedy = MatcherParams { lazy: false, ..lazy };
            let lt = collect(&data, lazy);
            let gt = collect(&data, greedy);
            assert_eq!(detokenize(&lt), data, "{name} level {level}: lazy corrupts data");
            assert_eq!(detokenize(&gt), data, "{name} level {level}: greedy corrupts data");
        }
    }
}

#[test]
fn lazy_never_costs_more_than_greedy_at_same_chain() {
    for (name, data) in corpus() {
        // Levels 4..=9 are the lazy half of the ladder; compare each
        // against greedy matching with the identical chain budget.
        for level in 4..=9u8 {
            let lazy = MatcherParams::for_level(level);
            assert!(lazy.lazy, "levels 4..=9 are lazy");
            let greedy = MatcherParams { lazy: false, ..lazy };
            let lazy_bits = fixed_huffman_bits(&collect(&data, lazy));
            let greedy_bits = fixed_huffman_bits(&collect(&data, greedy));
            assert!(
                lazy_bits <= greedy_bits,
                "{name} level {level}: lazy {lazy_bits} bits > greedy {greedy_bits} bits"
            );
        }
    }
}

/// Level 0 sits outside the ladder: no matching at all, so its token
/// stream is pure literals regardless of content.
#[test]
fn level_zero_emits_literals_only_everywhere() {
    for (name, data) in corpus() {
        let tokens = collect(&data, MatcherParams::for_level(0));
        assert_eq!(tokens.len(), data.len(), "{name}: level 0 must not match");
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))), "{name}");
        assert_eq!(detokenize(&tokens), data, "{name}");
    }
}

/// Seeded inputs that stress the matcher: small alphabets (long chains of
/// short matches), long runs (long matches), text, incompressible bytes,
/// and a text/random/text mix whose chain density swings between
/// segments. Sizes run from empty past the 16 KiB first segment, the
/// 32 KiB window and the 96 KiB segments.
fn identity_inputs() -> Vec<(String, Vec<u8>)> {
    let mut rng = Pcg32::seed_from_u64(0x1D_E7_17);
    let mut alphabet = |len: usize, symbols: u32| -> Vec<u8> {
        (0..len).map(|_| b'a' + rng.gen_range(0..symbols) as u8).collect()
    };
    let mut cases = Vec::new();
    for len in [0, 1, 2, 3, 4, 100, 4_097, 16_385] {
        cases.push((format!("abc2@{len}"), alphabet(len, 2)));
    }
    for len in [16_383, 24_000] {
        cases.push((format!("abc4@{len}"), alphabet(len, 4)));
    }
    let mut rng = Pcg32::seed_from_u64(0x2E_E7_17);
    let mut runs = Vec::new();
    while runs.len() < 60_000 {
        let byte = rng.gen_range(0..4u32) as u8;
        runs.extend(std::iter::repeat_n(byte, rng.gen_range(1..600usize)));
    }
    cases.push(("runs".to_string(), runs));
    for (id, len) in [
        (DatasetId::LogText, 60_000),
        (DatasetId::RandomBlob, 40_000),
        (DatasetId::SilesiaMozilla, 50_000),
    ] {
        cases.push((format!("{}@{len}", id.name()), id.generate_bytes(len)));
    }
    // Dense, then sparse for most of a segment, then dense again: from
    // level 6 up the adaptive source goes chains, sorted, chains, sorted.
    let mut mix = DatasetId::LogText.generate_bytes(30_000);
    mix.extend(DatasetId::RandomBlob.generate_bytes(90_000));
    mix.extend(DatasetId::SilesiaXml.generate_bytes(180_000));
    cases.push(("text+random+text".to_string(), mix));
    cases
}

fn collect_from(data: &[u8], params: MatcherParams, source: Candidates) -> Vec<Token> {
    let mut tokens = Vec::new();
    tokenize_from(data, params, source, |t| tokens.push(t));
    tokens
}

#[test]
fn candidate_sources_emit_identical_tokens() {
    for (name, data) in identity_inputs() {
        for level in 0..=9u8 {
            let lazy = MatcherParams::for_level(level);
            for params in [lazy, MatcherParams { lazy: false, ..lazy }] {
                // Chains are the reference: zlib's walk, one link at a time.
                let chains = collect_from(&data, params, Candidates::HashChains);
                for source in [Candidates::SortedRuns, Candidates::Adaptive] {
                    assert!(
                        collect_from(&data, params, source) == chains,
                        "{name} level {level} lazy {}: {source:?} differs from hash chains",
                        params.lazy
                    );
                }
                assert_eq!(detokenize(&chains), data, "{name} level {level}");
            }
        }
    }
}

fn collect_split(data: &[u8], params: MatcherParams, segments: usize) -> Vec<Token> {
    let mut tokens = Vec::new();
    tokenize_split(data, params, segments, |t| tokens.push(t));
    tokens
}

#[test]
fn split_parse_emits_the_sequential_tokens() {
    // Half of each corpus input: up to eight 1.5 KiB segments, each with
    // a lookback reaching the start of the input.
    for (name, data) in corpus() {
        let data = &data[..data.len() / 2];
        for level in 1..=9u8 {
            let params = MatcherParams::for_level(level);
            let sequential = collect_from(data, params, Candidates::Adaptive);
            for segments in 1..=8 {
                assert!(
                    collect_split(data, params, segments) == sequential,
                    "{name} level {level}: {segments} segments"
                );
            }
        }
    }
}

/// Seams where the two parses cannot agree for longer than the resync
/// window, seams in the last bytes of the input, and inputs one byte
/// either side of the 256 KiB size at which [`tokenize`] splits.
#[test]
fn split_parse_survives_adversarial_seams() {
    // A single-byte run and a period-3 pattern over every seam of a
    // 2- to 4-way split: both parses step through them in 258-byte
    // matches, out of phase.
    let text = DatasetId::LogText.generate_bytes(20_000);
    for fill in [&b"z"[..], b"xyz"] {
        let mut data = text.clone();
        while data.len() < 280_000 {
            data.extend_from_slice(fill);
        }
        data.extend_from_slice(&text);
        for level in [1, 4, 6, 9] {
            let params = MatcherParams::for_level(level);
            let sequential = collect_from(&data, params, Candidates::Adaptive);
            for segments in 2..=4 {
                assert!(
                    collect_split(&data, params, segments) == sequential,
                    "{fill:?} level {level}: {segments} segments"
                );
            }
        }
    }
    // Every seam of up to 8 segments, some inside the last 3 bytes.
    let text = DatasetId::SilesiaXml.generate_bytes(64);
    for len in 0..=text.len() {
        for level in 1..=9 {
            let params = MatcherParams::for_level(level);
            let sequential = collect_from(&text[..len], params, Candidates::Adaptive);
            for segments in 1..=8 {
                assert_eq!(collect_split(&text[..len], params, segments), sequential, "{len}");
            }
        }
    }
    let data = DatasetId::SilesiaMozilla.generate_bytes(256 * 1024 + 1);
    for len in [256 * 1024 - 1, 256 * 1024, 256 * 1024 + 1] {
        let params = MatcherParams::for_level(6);
        let sequential = collect_from(&data[..len], params, Candidates::Adaptive);
        assert!(collect(&data[..len], params) == sequential, "{len} bytes");
    }
}

/// Level-6 inputs whose sizes straddle the 32 KiB window, a 64 Ki-token
/// block and the matcher's segment edges.
const PIN_SOURCES: [DatasetId; 6] = [
    DatasetId::SilesiaXml,
    DatasetId::SilesiaMr,
    DatasetId::SilesiaMozilla,
    DatasetId::ObsError,
    DatasetId::LogText,
    DatasetId::RandomBlob,
];
const PIN_SIZES: [usize; 4] = [32_767, 32_768, 65_536, 307_207];
/// Level-6 inputs above the size at which the tokenizer splits its parse
/// across cores, so on a multi-core host their bytes cross seams.
const LARGE_PINS: [(DatasetId, usize); 3] = [
    (DatasetId::SilesiaXml, 1 << 20),
    (DatasetId::ObsError, 1 << 20),
    (DatasetId::RandomBlob, 1 << 20),
];

/// (label, level, input) for every pinned encoder case.
fn pin_cases() -> Vec<(String, u8, Vec<u8>)> {
    let mut cases = Vec::new();
    for (name, data) in corpus() {
        for level in 0..=9u8 {
            cases.push((name.to_string(), level, data.clone()));
        }
    }
    for id in PIN_SOURCES {
        for size in PIN_SIZES {
            cases.push((format!("{}@{size}", id.name()), 6, id.generate_bytes(size)));
        }
    }
    for (id, size) in LARGE_PINS {
        cases.push((format!("{}@{size}", id.name()), 6, id.generate_bytes(size)));
    }
    cases
}

/// (case, level, `compress` length, its FNV-1a 64, `compress_fragment(..,
/// false)` length, its FNV-1a 64), recorded from the hash-chain encoder.
/// Any change to the matcher or block encoder must keep every byte.
#[rustfmt::skip]
const PINS: [(&str, u8, usize, u64, usize, u64); 107] = [
    ("silesia/xml", 0, 24581, 0x58d0b14c061d3917, 24581, 0xa242622fea7ea9e0),
    ("silesia/xml", 1, 5251, 0xb570b09e82c9a305, 5255, 0x9f1e9107f729c6c0),
    ("silesia/xml", 2, 4662, 0x1375dd2c43d7edf6, 4667, 0xf636d2a72d0d1157),
    ("silesia/xml", 3, 4233, 0x94fe4517e47577fe, 4238, 0x37a57ab5af596961),
    ("silesia/xml", 4, 4343, 0x1e90f16e983a1928, 4348, 0xaed2c3c1a40c20df),
    ("silesia/xml", 5, 4091, 0x2fdcfdfb41be4445, 4095, 0xb9fb52859bb2a8a4),
    ("silesia/xml", 6, 4028, 0xcee0d3d775a0d688, 4032, 0xc47332cdf0a3b827),
    ("silesia/xml", 7, 4023, 0xf0f14a857183f54c, 4027, 0x85c1e093715096b9),
    ("silesia/xml", 8, 4023, 0xf0f14a857183f54c, 4027, 0x85c1e093715096b9),
    ("silesia/xml", 9, 4023, 0xf0f14a857183f54c, 4027, 0x85c1e093715096b9),
    ("silesia/mr", 0, 24581, 0x1f2ea3697b56f6a9, 24581, 0x5ee38c363cbee5aa),
    ("silesia/mr", 1, 7676, 0xb375225b6ee71048, 7680, 0x73f93a0258e98e77),
    ("silesia/mr", 2, 7573, 0x835620af77589d7c, 7577, 0x7eaf52c01f9ae361),
    ("silesia/mr", 3, 7384, 0x933a1cf3840ed67f, 7389, 0xa2ec5a93ccfcc268),
    ("silesia/mr", 4, 7483, 0x24802208b1a5917c, 7488, 0x8c0a91acb6528dcb),
    ("silesia/mr", 5, 7364, 0x11a396702a685ab6, 7368, 0x064736891a8c5231),
    ("silesia/mr", 6, 7335, 0x43a7386b64b6dd6b, 7340, 0x345c644f3a4a10c2),
    ("silesia/mr", 7, 7321, 0x0de9d8c7b7bcc0d2, 7325, 0x2294d2faa2939a37),
    ("silesia/mr", 8, 7365, 0xb37450aecc549fbc, 7369, 0x64051e70ff1d4dc1),
    ("silesia/mr", 9, 7367, 0x5573dc946f31f4a3, 7371, 0x7d0d7499f8d9effa),
    ("silesia/samba", 0, 24581, 0xedea5793a140d2f6, 24581, 0xd33cb055ad74cf75),
    ("silesia/samba", 1, 6442, 0x083b7c5490abf59e, 6447, 0x9ac0ebbdd4862b3b),
    ("silesia/samba", 2, 6172, 0xb54933a15ec926b6, 6176, 0xe7a75110adacf929),
    ("silesia/samba", 3, 5813, 0xb39eac3b2b562351, 5817, 0x7b5470c183bf7cb0),
    ("silesia/samba", 4, 5992, 0x7f66f24efb447fc0, 5996, 0x7e7c5b3c83cd671b),
    ("silesia/samba", 5, 5748, 0x8504f0bb64a6a223, 5753, 0x939f1328dfc8530c),
    ("silesia/samba", 6, 5664, 0x690282b1b6600487, 5668, 0xf1301fff0d2a40f8),
    ("silesia/samba", 7, 5657, 0x40f3de44a67e289b, 5661, 0x65e3048fa1769bde),
    ("silesia/samba", 8, 5645, 0x36219420cb1baec8, 5649, 0xc07d090133b715f9),
    ("silesia/samba", 9, 5645, 0x36219420cb1baec8, 5649, 0xc07d090133b715f9),
    ("obs_error", 0, 24581, 0xb4597b4f8be3f8f4, 24581, 0xa82bb8f380f659bb),
    ("obs_error", 1, 16697, 0x2c986e92bd4e8001, 16702, 0x46f0594dc5753124),
    ("obs_error", 2, 16696, 0xdde331af9ef3c0bc, 16700, 0x5b20af79ee8199c3),
    ("obs_error", 3, 16698, 0xffdd9cbb9f9ff2f7, 16703, 0x9b400121da9a05f8),
    ("obs_error", 4, 16722, 0xb2c6dbb6f0f9e889, 16727, 0x4cef7c217bbe9c26),
    ("obs_error", 5, 16719, 0x4b42ddd57b314499, 16723, 0x675930aa0eb8710c),
    ("obs_error", 6, 16715, 0x5ee030486775eb58, 16719, 0x778c4033ea0ae505),
    ("obs_error", 7, 16715, 0x5ee030486775eb58, 16719, 0x778c4033ea0ae505),
    ("obs_error", 8, 16715, 0x5ee030486775eb58, 16719, 0x778c4033ea0ae505),
    ("obs_error", 9, 16715, 0x5ee030486775eb58, 16719, 0x778c4033ea0ae505),
    ("silesia/mozilla", 0, 24581, 0x52524c8e72414e0d, 24581, 0x985805e8d37f8136),
    ("silesia/mozilla", 1, 11349, 0x400656ef7fdf0ced, 11354, 0x9f3b8541e18cfe64),
    ("silesia/mozilla", 2, 11177, 0x63cb880b2f2f457b, 11181, 0xef3a26aa7b8adaae),
    ("silesia/mozilla", 3, 11083, 0x81657b205d577a1e, 11088, 0x624b35695bc5c22d),
    ("silesia/mozilla", 4, 11091, 0x1ab038b2c2de0b3c, 11096, 0x55f9c192be32ba73),
    ("silesia/mozilla", 5, 11005, 0x2aee363760c3fb9a, 11009, 0xde05d7f08afdff8f),
    ("silesia/mozilla", 6, 11004, 0x37c828461a537314, 11008, 0x8e2fffcb47519cbb),
    ("silesia/mozilla", 7, 11004, 0x37c828461a537314, 11008, 0x8e2fffcb47519cbb),
    ("silesia/mozilla", 8, 10998, 0xc3ae240057b71b1d, 11003, 0x43fb41eafe253796),
    ("silesia/mozilla", 9, 10998, 0xc3ae240057b71b1d, 11003, 0x43fb41eafe253796),
    ("exaalt-dataset1", 0, 24581, 0xf984ed5b05f41b94, 24581, 0x3608f8792f06c2c3),
    ("exaalt-dataset1", 1, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 2, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 3, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 4, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 5, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 6, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 7, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 8, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset1", 9, 22740, 0xa5c8bdd068a99626, 22744, 0xd8e3f987e5701385),
    ("exaalt-dataset3", 0, 24581, 0x1bb2e877440ba335, 24581, 0x6f325f303d7ca9ae),
    ("exaalt-dataset3", 1, 22248, 0xc4e36bbe781ea60d, 22252, 0xaa2961897bd13ef2),
    ("exaalt-dataset3", 2, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 3, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 4, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 5, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 6, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 7, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 8, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset3", 9, 22246, 0x6f5ae0fab490bc87, 22250, 0xc1808f8587cb76b0),
    ("exaalt-dataset2", 0, 24581, 0x59dbcb2393cf2fab, 24581, 0x925c520244f5deb8),
    ("exaalt-dataset2", 1, 22404, 0xd8800b4545321582, 22408, 0x3d375cd72ccd8fbd),
    ("exaalt-dataset2", 2, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 3, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 4, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 5, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 6, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 7, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 8, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("exaalt-dataset2", 9, 22407, 0x1f0f91912cc71100, 22411, 0xb849feee44f8ae5d),
    ("silesia/xml@32767", 6, 5129, 0x7ca4eafea71622f2, 5133, 0x64f0aa5aeaa22bef),
    ("silesia/xml@32768", 6, 5129, 0x4031397635b9eb8e, 5133, 0x9e14a1c6acab762f),
    ("silesia/xml@65536", 6, 9640, 0x60d661617cd11e33, 9644, 0x06023fedca8933c8),
    ("silesia/xml@307207", 6, 42526, 0x6c62d585dff8232b, 42530, 0x68bcba77dce4c330),
    ("silesia/mr@32767", 6, 8994, 0x3074cb55f09f0d69, 8998, 0x516a9ce15862f1be),
    ("silesia/mr@32768", 6, 8994, 0x8ad55d81ae3b13d4, 8998, 0x4465cd1c77b60fa3),
    ("silesia/mr@65536", 6, 22888, 0x70cc3a581e3e2744, 22892, 0x2e9da3a433e7b4db),
    ("silesia/mr@307207", 6, 111855, 0x91ee2fe585de1cff, 111859, 0xee1737d00e663dc1),
    ("silesia/mozilla@32767", 6, 14309, 0x39c89ef3f5b08768, 14314, 0x10285a602fcfab53),
    ("silesia/mozilla@32768", 6, 14309, 0x01bfa2bb4cd48abd, 14314, 0xe5e679274c7b4654),
    ("silesia/mozilla@65536", 6, 25285, 0x2cd6972f01f8eb1b, 25290, 0x793c79bb8532cb12),
    ("silesia/mozilla@307207", 6, 115340, 0x22f656d63fc966e4, 115344, 0x0abf07ee74e3d11a),
    ("obs_error@32767", 6, 22299, 0x47aae7363f5bd7c7, 22304, 0xb17326a3023060a6),
    ("obs_error@32768", 6, 22300, 0x7d16c12e6cc4dbe0, 22305, 0xca7ddfab8035ca95),
    ("obs_error@65536", 6, 44064, 0x48d7e5e0b22a07ac, 44068, 0x9d106f7912d916ab),
    ("obs_error@307207", 6, 203334, 0x5595ea8d9ffb8712, 203339, 0x855f8fca7ad1e4fc),
    ("mixed/log-text@32767", 6, 8018, 0x11afdf79a8565a6f, 8023, 0x81612c0c329a5838),
    ("mixed/log-text@32768", 6, 8018, 0x6231696b133c5f93, 8023, 0xf8b1f50bd3370e34),
    ("mixed/log-text@65536", 6, 15669, 0x9fc757d83c7bbdbc, 15673, 0x4d06cfeeb6f9acd9),
    ("mixed/log-text@307207", 6, 71587, 0xad6042b2f06a5a09, 71591, 0x12b811e6a669b7e4),
    ("mixed/random-blob@32767", 6, 32772, 0xddf33c32f08fbdb9, 32777, 0x48422cf983365556),
    ("mixed/random-blob@32768", 6, 32773, 0x7681d37e74121469, 32778, 0xfb3bafa9898b7e70),
    ("mixed/random-blob@65536", 6, 65546, 0x993ad1dcfbcd7c91, 65551, 0xaf787a6465c6438e),
    ("mixed/random-blob@307207", 6, 307252, 0x7cfe2dbb6a979ff2, 307257, 0x6cde1f34399fb769),
    ("silesia/xml@1048576", 6, 142624, 0xf1d0da98f09a947f, 142628, 0x014bed2595f4ac85),
    ("obs_error@1048576", 6, 694216, 0xd08497539e4d2305, 694220, 0xc6922ba4ba6e1d8b),
    ("mixed/random-blob@1048576", 6, 1048731, 0xd8bbd9778caf5234, 1048736, 0xad67d079b5addf37),
];

#[test]
fn encoder_output_is_pinned() {
    let cases = pin_cases();
    assert_eq!(cases.len(), PINS.len());
    for ((name, level, data), &(pin_name, pin_level, len, fnv, frag_len, frag_fnv)) in
        cases.iter().zip(PINS.iter())
    {
        assert_eq!((name.as_str(), *level), (pin_name, pin_level));
        let whole = pedal_deflate::compress(data, Level(*level));
        let frag = pedal_deflate::compress_fragment(data, Level(*level), false);
        assert_eq!((whole.len(), fnv1a64(&whole)), (len, fnv), "{name} level {level}: compress");
        assert_eq!(
            (frag.len(), fnv1a64(&frag)),
            (frag_len, frag_fnv),
            "{name} level {level}: compress_fragment"
        );
    }
}
