//! DEFLATE decoder (inflate), RFC 1951.

use crate::bitio::{BitReader, OutOfBits};
use crate::consts::*;
use crate::huffman::{Decoder, HuffError};
use std::sync::OnceLock;

/// Errors produced while decoding a DEFLATE stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended prematurely.
    UnexpectedEof,
    /// Reserved block type 0b11.
    InvalidBlockType,
    /// Stored block LEN/NLEN mismatch.
    StoredLenMismatch,
    /// Invalid Huffman code structure or symbol.
    Huffman(HuffError),
    /// Back-reference before the start of output.
    DistanceTooFar { dist: usize, available: usize },
    /// Length/distance symbol out of the valid range.
    InvalidSymbol(u16),
    /// The code-length code produced an invalid expansion.
    BadCodeLengths,
    /// Output would exceed the caller-provided limit.
    OutputLimitExceeded(usize),
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InflateError::UnexpectedEof => write!(f, "unexpected end of deflate stream"),
            InflateError::InvalidBlockType => write!(f, "reserved block type 11"),
            InflateError::StoredLenMismatch => write!(f, "stored block LEN != !NLEN"),
            InflateError::Huffman(e) => write!(f, "huffman error: {e}"),
            InflateError::DistanceTooFar { dist, available } => {
                write!(f, "distance {dist} exceeds {available} bytes of history")
            }
            InflateError::InvalidSymbol(s) => write!(f, "invalid symbol {s}"),
            InflateError::BadCodeLengths => write!(f, "invalid code length expansion"),
            InflateError::OutputLimitExceeded(n) => {
                write!(f, "output exceeds limit of {n} bytes")
            }
        }
    }
}

impl std::error::Error for InflateError {}

impl From<OutOfBits> for InflateError {
    fn from(_: OutOfBits) -> Self {
        InflateError::UnexpectedEof
    }
}

impl From<HuffError> for InflateError {
    fn from(e: HuffError) -> Self {
        match e {
            HuffError::OutOfBits => InflateError::UnexpectedEof,
            other => InflateError::Huffman(other),
        }
    }
}

/// Decompress a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    inflate_with_limit(data, usize::MAX)
}

/// Decompress with an output size cap (guards against decompression bombs).
pub fn inflate_with_limit(data: &[u8], limit: usize) -> Result<Vec<u8>, InflateError> {
    inflate_core(data, limit, false).map(|(out, _)| out)
}

/// Decompress a sync-flush DEFLATE fragment, as produced by
/// `compress_fragment`: a run of blocks that either ends with a BFINAL
/// block (the stream's last fragment) or stops cleanly at a byte-aligned
/// block boundary with fewer than 3 bits of padding left. Returns the
/// decoded bytes and whether a BFINAL block was seen, so a streaming
/// caller can distinguish "fragment done" from "stream done".
pub fn inflate_fragment_with_limit(
    data: &[u8],
    limit: usize,
) -> Result<(Vec<u8>, bool), InflateError> {
    inflate_core(data, limit, true)
}

fn inflate_core(
    data: &[u8],
    limit: usize,
    fragment: bool,
) -> Result<(Vec<u8>, bool), InflateError> {
    let mut r = BitReader::new(data);
    let mut out: Vec<u8> = Vec::with_capacity((data.len() * 3).min(1 << 20));
    loop {
        if fragment && r.bits_remaining() < 3 {
            // A non-final fragment ends after its sync-flush stored block;
            // anything shorter than a block header is alignment padding.
            return Ok((out, false));
        }
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0b00 => inflate_stored(&mut r, &mut out, limit)?,
            0b01 => {
                let (lit, dist) = fixed_decoders();
                inflate_block(&mut r, &mut out, lit, dist, limit)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_header(&mut r)?;
                inflate_block(&mut r, &mut out, &lit, &dist, limit)?;
            }
            _ => return Err(InflateError::InvalidBlockType),
        }
        if bfinal == 1 {
            return Ok((out, true));
        }
    }
}

fn inflate_stored(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), InflateError> {
    r.align_byte();
    let len_bytes = r.read_bytes(2)?;
    let nlen_bytes = r.read_bytes(2)?;
    let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]);
    let nlen = u16::from_le_bytes([nlen_bytes[0], nlen_bytes[1]]);
    if len != !nlen {
        return Err(InflateError::StoredLenMismatch);
    }
    if out.len() + len as usize > limit {
        return Err(InflateError::OutputLimitExceeded(limit));
    }
    let bytes = r.read_bytes(len as usize)?;
    out.extend_from_slice(&bytes);
    Ok(())
}

/// Decoders for the fixed Huffman tables (RFC 1951 §3.2.6), built once.
fn fixed_decoders() -> &'static (Decoder, Decoder) {
    static DECODERS: OnceLock<(Decoder, Decoder)> = OnceLock::new();
    DECODERS.get_or_init(|| {
        let (lit, dist) = crate::encoder::fixed_tables();
        let decoder = |lengths| Decoder::from_lengths(lengths).expect("fixed tables are complete");
        (decoder(&lit.lengths), decoder(&dist.lengths))
    })
}

fn read_dynamic_header(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > NUM_LITLEN {
        return Err(InflateError::BadCodeLengths);
    }
    let mut clc_lens = [0u8; NUM_CLC];
    for &ord in CLC_ORDER.iter().take(hclen) {
        clc_lens[ord] = r.read_bits(3)? as u8;
    }
    let clc = Decoder::from_lengths(&clc_lens)?;

    let total = hlit + hdist;
    let mut lens = vec![0u8; total];
    let mut i = 0usize;
    while i < total {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => {
                lens[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(InflateError::BadCodeLengths);
                }
                let rep = r.read_bits(2)? as usize + 3;
                if i + rep > total {
                    return Err(InflateError::BadCodeLengths);
                }
                let v = lens[i - 1];
                for _ in 0..rep {
                    lens[i] = v;
                    i += 1;
                }
            }
            17 => {
                let rep = r.read_bits(3)? as usize + 3;
                if i + rep > total {
                    return Err(InflateError::BadCodeLengths);
                }
                i += rep;
            }
            18 => {
                let rep = r.read_bits(7)? as usize + 11;
                if i + rep > total {
                    return Err(InflateError::BadCodeLengths);
                }
                i += rep;
            }
            other => return Err(InflateError::InvalidSymbol(other as u16)),
        }
    }
    let lit = Decoder::from_lengths(&lens[..hlit])?;
    let dist = Decoder::from_lengths(&lens[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
    limit: usize,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() >= limit {
                    return Err(InflateError::OutputLimitExceeded(limit));
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let lc = (sym - 257) as usize;
                let len = LENGTH_BASE[lc] as usize + r.read_bits(LENGTH_EXTRA[lc] as u32)? as usize;
                let dsym = dist.decode(r)?;
                if dsym as usize >= NUM_DIST {
                    return Err(InflateError::InvalidSymbol(dsym as u16));
                }
                let dc = dsym as usize;
                let d = DIST_BASE[dc] as usize + r.read_bits(DIST_EXTRA[dc] as u32)? as usize;
                if d > out.len() {
                    return Err(InflateError::DistanceTooFar { dist: d, available: out.len() });
                }
                if out.len() + len > limit {
                    return Err(InflateError::OutputLimitExceeded(limit));
                }
                copy_match(out, d, len);
            }
            other => return Err(InflateError::InvalidSymbol(other as u16)),
        }
    }
}

/// Copy `len` bytes from `dist` behind the end of `out`, handling overlap.
///
/// An overlapping match repeats its first `dist` bytes, so each copy takes
/// every byte from `start` on, all already written: the copied span
/// doubles until the match is complete.
#[inline]
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    let end = out.len() + len;
    while out.len() < end {
        let span = (out.len() - start).min(end - out.len());
        out.extend_from_within(start..start + span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::encoder::{deflate, Level};
    use crate::lz77::Token;

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog again!";
        for level in [Level::FAST, Level::DEFAULT, Level::BEST] {
            let enc = deflate(data, level);
            assert_eq!(inflate(&enc).unwrap(), data);
        }
    }

    #[test]
    fn decode_known_zlib_fixture() {
        // Raw deflate of "hello hello hello hello\n" produced by zlib
        // (fixed-Huffman block): cb 48 cd c9 c9 57 c8 40 27 b9 00
        let fixture: [u8; 11] = [0xcb, 0x48, 0xcd, 0xc9, 0xc9, 0x57, 0xc8, 0x40, 0x27, 0xb9, 0x00];
        assert_eq!(inflate(&fixture).unwrap(), b"hello hello hello hello\n");
    }

    #[test]
    fn decode_known_stored_fixture() {
        // Stored block: 01 | len=5 | nlen | "abcde"
        let mut fixture = vec![0x01, 0x05, 0x00, 0xFA, 0xFF];
        fixture.extend_from_slice(b"abcde");
        assert_eq!(inflate(&fixture).unwrap(), b"abcde");
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        assert_eq!(inflate(&[0b0000_0111]), Err(InflateError::InvalidBlockType));
    }

    #[test]
    fn truncated_stream_rejected() {
        let enc = deflate(b"some data to truncate, repeated repeated", Level::DEFAULT);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(inflate(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stored_len_mismatch_rejected() {
        let fixture = vec![0x01, 0x05, 0x00, 0x00, 0x00, b'a', b'b', b'c', b'd', b'e'];
        assert_eq!(inflate(&fixture), Err(InflateError::StoredLenMismatch));
    }

    #[test]
    fn distance_too_far_rejected() {
        // Craft via our encoder then ensure decoder accepts; manual tamper is
        // hard, so test the guard directly through a fixed block with a
        // reference before any output: fixed block, first symbol is a match.
        // length code 257 (len 3) is 7-bit code 0000001; dist code 0 is 00000.
        // Build bits: BFINAL=1 BTYPE=01 then code 257, then dist 0.
        use crate::bitio::reverse_bits;
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // Symbol 257 has fixed code length 7, canonical code 0000001.
        w.write_bits(reverse_bits(0b0000001, 7) as u64, 7);
        // Distance symbol 0: 5-bit code 00000.
        w.write_bits(0, 5);
        let bytes = w.finish();
        match inflate(&bytes) {
            Err(InflateError::DistanceTooFar { dist: 1, available: 0 }) => {}
            other => panic!("expected DistanceTooFar, got {other:?}"),
        }
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![0u8; 10_000];
        let enc = deflate(&data, Level::DEFAULT);
        assert_eq!(inflate_with_limit(&enc, 100), Err(InflateError::OutputLimitExceeded(100)));
        assert_eq!(inflate_with_limit(&enc, 10_000).unwrap(), data);
    }

    #[test]
    fn dynamic_block_with_15_bit_literal_codes() {
        // Literal counts halving from 2^14 down to 1, then a tail of single
        // bytes, give codes as long as DEFLATE allows, so the decoder needs
        // its subtables.
        let mut raw = Vec::new();
        for byte in 0..=40u8 {
            raw.extend(std::iter::repeat_n(byte, 1 << 14_u32.saturating_sub(byte as u32)));
        }
        let tokens: Vec<Token> = raw.iter().map(|&b| Token::Literal(b)).collect();
        let mut freqs = vec![0u32; 257];
        raw.iter().for_each(|&b| freqs[b as usize] += 1);
        freqs[256] = 1;
        let lengths = crate::huffman::build_code_lengths(&freqs, 15);
        assert_eq!(lengths.iter().copied().max(), Some(15));
        let mut w = BitWriter::new();
        crate::encoder::encode_block(&mut w, &tokens, &raw, true);
        let bytes = w.finish();
        assert_eq!(bytes[0] & 0b111, 0b101, "one final dynamic block");
        assert_eq!(inflate(&bytes).unwrap(), raw);
    }

    #[test]
    fn overlapping_copy_correct() {
        let mut out = b"ab".to_vec();
        copy_match(&mut out, 2, 6);
        assert_eq!(out, b"abababab");
        let mut out2 = b"xyz".to_vec();
        copy_match(&mut out2, 1, 4);
        assert_eq!(out2, b"xyzzzzz");
    }

    #[test]
    fn chunked_copy_matches_byte_at_a_time() {
        let history: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for dist in 1..=64 {
            for len in 3..=258 {
                let mut expected = history.clone();
                for _ in 0..len {
                    expected.push(expected[expected.len() - dist]);
                }
                let mut out = history.clone();
                copy_match(&mut out, dist, len);
                assert_eq!(out, expected, "dist {dist} len {len}");
            }
        }
    }
}
