//! DEFLATE block encoding: stored, fixed-Huffman, and dynamic-Huffman blocks,
//! including the RLE-compressed code-length header of RFC 1951 §3.2.7.

use crate::bitio::BitWriter;
use crate::consts::*;
use crate::huffman::{build_code_lengths, Encoder as HuffEncoder};
use crate::lz77::{tokenize, MatcherParams, Token};
use std::sync::OnceLock;

/// Compression level: 0 = stored only, 1..=9 = increasing effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Level(pub u8);

impl Level {
    pub const STORED: Level = Level(0);
    pub const FAST: Level = Level(1);
    pub const DEFAULT: Level = Level(6);
    pub const BEST: Level = Level(9);
}

impl Default for Level {
    fn default() -> Self {
        Level::DEFAULT
    }
}

/// Tokens per encoded block. Bounded so symbol statistics stay local.
const BLOCK_TOKENS: usize = 64 * 1024;
/// Maximum bytes per stored block (RFC 1951 LEN field is 16 bits).
const STORED_MAX: usize = 65_535;

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8], level: Level) -> Vec<u8> {
    deflate_fragment(data, level, true)
}

/// Compress `data` into a DEFLATE *fragment* suitable for chunk-parallel
/// stitching (pigz-style).
///
/// With `last == true` this is byte-identical to [`deflate`]: the stream
/// ends in a block with BFINAL set. With `last == false` every block is
/// emitted non-final and the fragment is terminated with a sync flush —
/// an empty non-final stored block — so it ends on a byte boundary.
/// Concatenating any number of non-final fragments followed by one final
/// fragment yields a single valid DEFLATE stream that [`crate::inflate`]
/// (or any RFC 1951 decoder) decodes to the concatenated inputs, because
/// the decoder simply keeps reading blocks until BFINAL.
pub fn deflate_fragment(data: &[u8], level: Level, last: bool) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(data.len() / 2 + 64);
    if level.0 == 0 || data.is_empty() {
        // Stored blocks always end byte-aligned, so no sync flush is
        // needed for a non-final stored fragment.
        write_stored(&mut w, data, last);
        return w.finish();
    }

    // Encode each block as soon as it fills. A full block is held back
    // until the next token arrives, so only the true last block is final.
    let mut block: Vec<Token> = Vec::with_capacity(BLOCK_TOKENS.min(data.len()));
    let (mut block_start, mut block_end) = (0usize, 0usize);
    tokenize(data, MatcherParams::for_level(level.0), |t| {
        if block.len() == BLOCK_TOKENS {
            encode_block(&mut w, &block, &data[block_start..block_end], false);
            block.clear();
            block_start = block_end;
        }
        block_end += match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => len as usize,
        };
        block.push(t);
    });
    encode_block(&mut w, &block, &data[block_start..block_end], last);
    if !last {
        // Sync flush: the empty non-final stored block realigns the
        // fragment to a byte boundary so the next fragment can be
        // concatenated bytewise.
        write_stored(&mut w, &[], false);
    }
    w.finish()
}

/// Emit one block choosing the cheapest of stored/fixed/dynamic encoding.
pub(crate) fn encode_block(w: &mut BitWriter, tokens: &[Token], raw: &[u8], is_final: bool) {
    // Gather symbol frequencies.
    let mut lit_freq = [0u32; NUM_LITLEN];
    let mut dist_freq = [0u32; NUM_DIST];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[257 + length_code(len as usize)] += 1;
                dist_freq[dist_code(dist as usize)] += 1;
            }
        }
    }
    lit_freq[EOB as usize] += 1;

    let dyn_lit_lens = build_code_lengths(&lit_freq, MAX_CODE_LEN);
    let dyn_dist_lens = build_code_lengths(&dist_freq, MAX_CODE_LEN);
    let (clc_stream, clc_lens, hlit, hdist, hclen) = build_clc(&dyn_lit_lens, &dyn_dist_lens);

    let fixed = fixed_tables();
    let fixed_cost = block_cost(&lit_freq, &dist_freq, &fixed.0.lengths, &fixed.1.lengths);
    let dyn_body = block_cost(&lit_freq, &dist_freq, &dyn_lit_lens, &dyn_dist_lens);
    let dyn_header = dyn_header_cost(&clc_stream, &clc_lens, hclen);
    let dyn_cost = dyn_body + dyn_header;
    // Stored cost: 3 bit header + align + per-chunk 4-byte LEN/NLEN + data.
    let stored_chunks = raw.len().div_ceil(STORED_MAX).max(1);
    let stored_cost = (stored_chunks * (4 * 8) + raw.len() * 8 + 8) as u64;

    if stored_cost < fixed_cost && stored_cost < dyn_cost {
        write_stored(w, raw, is_final);
    } else if fixed_cost <= dyn_cost {
        w.write_bits(is_final as u64, 1);
        w.write_bits(0b01, 2); // fixed Huffman
        write_tokens(w, tokens, &fixed.0, &fixed.1);
    } else {
        w.write_bits(is_final as u64, 1);
        w.write_bits(0b10, 2); // dynamic Huffman
        write_dyn_header(w, &clc_stream, &clc_lens, hlit, hdist, hclen);
        let lit_enc = HuffEncoder::from_lengths(&dyn_lit_lens);
        let dist_enc = HuffEncoder::from_lengths(&dyn_dist_lens);
        write_tokens(w, tokens, &lit_enc, &dist_enc);
    }
}

/// Cost in bits of a block body with symbol counts `lit_freq` (EOB
/// included) and `dist_freq` under the given code lengths, extra bits
/// included.
fn block_cost(lit_freq: &[u32], dist_freq: &[u32], lit_lens: &[u8], dist_lens: &[u8]) -> u64 {
    let lengths = lit_freq[257..].iter().zip(&LENGTH_EXTRA);
    let coded = lit_freq.iter().zip(lit_lens).chain(dist_freq.iter().zip(dist_lens));
    let extra = lengths.chain(dist_freq.iter().zip(&DIST_EXTRA));
    coded.chain(extra).map(|(&f, &bits)| f as u64 * bits as u64).sum()
}

fn dyn_header_cost(clc_stream: &[(u8, u8)], clc_lens: &[u8], hclen: usize) -> u64 {
    let mut bits = (5 + 5 + 4 + (hclen + 4) * 3) as u64;
    for &(sym, _) in clc_stream {
        bits += clc_lens[sym as usize] as u64;
        bits += match sym {
            16 => 2,
            17 => 3,
            18 => 7,
            _ => 0,
        } as u64;
    }
    bits
}

/// Fixed literal/length and distance tables (RFC 1951 §3.2.6), built once.
pub fn fixed_tables() -> &'static (HuffEncoder, HuffEncoder) {
    static TABLES: OnceLock<(HuffEncoder, HuffEncoder)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let lit: Vec<u8> = (0..288)
            .map(|i| match i {
                0..=143 => 8,
                144..=255 => 9,
                256..=279 => 7,
                _ => 8,
            })
            .collect();
        (HuffEncoder::from_lengths(&lit), HuffEncoder::from_lengths(&[5; 30]))
    })
}

fn write_tokens(w: &mut BitWriter, tokens: &[Token], lit: &HuffEncoder, dist: &HuffEncoder) {
    // Each code goes out together with its extra bits: at most 15 + 13
    // bits per write.
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                let (c, l) = lit.code(b as usize);
                w.write_bits(c as u64, l as u32);
            }
            Token::Match { len, dist: d } => {
                let lc = length_code(len as usize);
                let (c, l) = lit.code(257 + lc);
                let extra = (len - LENGTH_BASE[lc]) as u64;
                w.write_bits(c as u64 | extra << l, (l + LENGTH_EXTRA[lc]) as u32);
                let dc = dist_code(d as usize);
                let (c, l) = dist.code(dc);
                let extra = (d - DIST_BASE[dc]) as u64;
                w.write_bits(c as u64 | extra << l, (l + DIST_EXTRA[dc]) as u32);
            }
        }
    }
    let (c, l) = lit.code(EOB as usize);
    w.write_bits(c as u64, l as u32);
}

fn write_stored(w: &mut BitWriter, data: &[u8], is_final: bool) {
    let mut chunks: Vec<&[u8]> = data.chunks(STORED_MAX).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        w.write_bits((is_final && i == last) as u64, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

/// Run-length encode the concatenated lit+dist code lengths with symbols
/// 16 (repeat prev 3-6), 17 (zeros 3-10), 18 (zeros 11-138), and build the
/// code-length-code. Returns (rle stream of (sym, extra), clc lengths, HLIT,
/// HDIST, HCLEN).
fn build_clc(lit_lens: &[u8], dist_lens: &[u8]) -> (Vec<(u8, u8)>, Vec<u8>, usize, usize, usize) {
    let hlit = trailing_trim(lit_lens, 257);
    let hdist = trailing_trim(dist_lens, 1);
    let mut all: Vec<u8> = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lens[..hlit]);
    all.extend_from_slice(&dist_lens[..hdist]);

    let mut stream: Vec<(u8, u8)> = Vec::new();
    let mut i = 0usize;
    while i < all.len() {
        let v = all[i];
        let mut run = 1usize;
        while i + run < all.len() && all[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                stream.push((18, (take - 11) as u8));
                left -= take;
            }
            if left >= 3 {
                stream.push((17, (left - 3) as u8));
                left = 0;
            }
            for _ in 0..left {
                stream.push((0, 0));
            }
        } else {
            stream.push((v, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                stream.push((16, (take - 3) as u8));
                left -= take;
            }
            for _ in 0..left {
                stream.push((v, 0));
            }
        }
        i += run;
    }

    let mut clc_freq = [0u32; NUM_CLC];
    for &(sym, _) in &stream {
        clc_freq[sym as usize] += 1;
    }
    let clc_lens = build_code_lengths(&clc_freq, MAX_CLC_LEN);
    // HCLEN: number of CLC lengths transmitted, in permuted order, >= 4.
    let mut hclen = NUM_CLC;
    while hclen > 4 && clc_lens[CLC_ORDER[hclen - 1]] == 0 {
        hclen -= 1;
    }
    (stream, clc_lens, hlit, hdist, hclen - 4)
}

/// Number of leading entries to keep (trailing zeros trimmed, min floor).
fn trailing_trim(lens: &[u8], floor: usize) -> usize {
    let mut n = lens.len();
    while n > floor && lens[n - 1] == 0 {
        n -= 1;
    }
    n
}

fn write_dyn_header(
    w: &mut BitWriter,
    stream: &[(u8, u8)],
    clc_lens: &[u8],
    hlit: usize,
    hdist: usize,
    hclen: usize,
) {
    w.write_bits((hlit - 257) as u64, 5);
    w.write_bits((hdist - 1) as u64, 5);
    w.write_bits(hclen as u64, 4);
    for &ord in CLC_ORDER.iter().take(hclen + 4) {
        w.write_bits(clc_lens[ord] as u64, 3);
    }
    let clc = HuffEncoder::from_lengths(clc_lens);
    for &(sym, extra) in stream {
        let (c, l) = clc.code(sym as usize);
        debug_assert!(l > 0, "CLC symbol {sym} unencodable");
        w.write_bits(c as u64, l as u32);
        match sym {
            16 => w.write_bits(extra as u64, 2),
            17 => w.write_bits(extra as u64, 3),
            18 => w.write_bits(extra as u64, 7),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    #[test]
    fn stored_roundtrip() {
        for data in [&b""[..], b"x", b"hello stored world"] {
            let enc = deflate(data, Level::STORED);
            assert_eq!(inflate(&enc).unwrap(), data);
        }
    }

    #[test]
    fn stored_multi_chunk() {
        let data = vec![7u8; 200_000];
        let enc = deflate(&data, Level::STORED);
        assert_eq!(inflate(&enc).unwrap(), data);
    }

    #[test]
    fn incompressible_falls_back_near_stored() {
        // Pseudo-random bytes: compressed size should not blow up.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let enc = deflate(&data, Level::DEFAULT);
        assert!(enc.len() <= data.len() + data.len() / 100 + 64);
        assert_eq!(inflate(&enc).unwrap(), data);
    }

    #[test]
    fn clc_rle_runs() {
        let lit = {
            let mut v = vec![0u8; 286];
            v[0] = 8;
            v[256] = 8;
            v
        };
        let dist = vec![0u8; 30];
        let (stream, clc_lens, hlit, hdist, _hclen) = build_clc(&lit, &dist);
        assert_eq!(hlit, 257);
        assert_eq!(hdist, 1);
        // Expect symbol 18 runs covering the 255 zero gap.
        assert!(stream.iter().any(|&(s, _)| s == 18));
        assert!(clc_lens[18] > 0);
    }

    #[test]
    fn level0_emits_only_stored_blocks() {
        // True zlib level-0 semantics: no matching, stored blocks only.
        // Every block header must be BTYPE=00, so the stream is 5 bytes of
        // framing per 65535-byte chunk plus the raw bytes.
        let data = b"abcabcabcabc".repeat(10_000); // highly compressible
        let enc = deflate(&data, Level(0));
        let chunks = data.len().div_ceil(STORED_MAX);
        assert_eq!(enc.len(), data.len() + chunks * 5);
        assert_eq!(inflate(&enc).unwrap(), data);
    }

    #[test]
    fn fragment_last_matches_deflate() {
        let data = b"fragment parity fragment parity".repeat(300);
        for level in [Level(0), Level(1), Level::DEFAULT, Level::BEST] {
            assert_eq!(deflate_fragment(&data, level, true), deflate(&data, level));
        }
    }

    #[test]
    fn fragments_stitch_into_one_valid_stream() {
        let mut data = Vec::new();
        for i in 0..200_000u32 {
            data.push((i % 7) as u8 * 31);
            if i % 11 == 0 {
                data.extend_from_slice(b"stitchable content");
            }
        }
        for level in [Level(0), Level(1), Level::DEFAULT, Level::BEST] {
            for chunk in [1_000usize, 65_536, 100_000] {
                let pieces: Vec<&[u8]> = data.chunks(chunk).collect();
                let mut stream = Vec::new();
                for (i, p) in pieces.iter().enumerate() {
                    stream.extend_from_slice(&deflate_fragment(p, level, i == pieces.len() - 1));
                }
                assert_eq!(inflate(&stream).unwrap(), data, "level {level:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn non_final_fragment_is_byte_aligned_and_resumable() {
        // An empty fragment in the middle of a stitched stream is legal.
        let a = deflate_fragment(b"first piece first piece", Level::DEFAULT, false);
        let b = deflate_fragment(b"", Level::DEFAULT, false);
        let c = deflate_fragment(b"last piece", Level::DEFAULT, true);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&c);
        assert_eq!(inflate(&stream).unwrap(), b"first piece first piecelast piece");
        // A lone non-final fragment must NOT decode as a complete stream.
        assert!(inflate(&a).is_err(), "missing BFINAL must be detected");
    }

    #[test]
    fn fixed_table_shape() {
        let (lit, dist) = fixed_tables();
        let (lit, dist) = (&lit.lengths, &dist.lengths);
        assert_eq!(lit.len(), 288);
        assert_eq!(dist.len(), 30);
        assert_eq!(lit[0], 8);
        assert_eq!(lit[144], 9);
        assert_eq!(lit[256], 7);
        assert_eq!(lit[280], 8);
        assert!(dist.iter().all(|&d| d == 5));
    }
}
