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
    inflate_core(data, limit, false, true).map(|(out, _)| out)
}

/// [`inflate_with_limit`] with every symbol decoded by the checked
/// per-symbol step, which the fast loop hands off to near either end of
/// the stream; it returns the same result. For differential tests.
pub fn inflate_checked_with_limit(data: &[u8], limit: usize) -> Result<Vec<u8>, InflateError> {
    inflate_core(data, limit, false, false).map(|(out, _)| out)
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
    inflate_core(data, limit, true, true)
}

/// The most output one input byte can decode to: a 258-byte match in two
/// 1-bit codes.
const MAX_RATIO: usize = 4 * MAX_MATCH;

fn inflate_core(
    data: &[u8],
    limit: usize,
    fragment: bool,
    fast: bool,
) -> Result<(Vec<u8>, bool), InflateError> {
    let mut r = BitReader::new(data);
    // A finite limit is usually the expected length: allocate it once,
    // but never more than the input can decode to.
    let cap = match limit {
        usize::MAX => (data.len() * 3).min(1 << 20),
        _ => limit.min(data.len().saturating_mul(MAX_RATIO).saturating_add(FAST_ROOM)),
    };
    let mut out: Vec<u8> = Vec::with_capacity(cap);
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
                inflate_block(&mut r, &mut out, lit, dist, limit, fast)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_header(&mut r)?;
                inflate_block(&mut r, &mut out, &lit, &dist, limit, fast)?;
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
    let header = r.take_bytes(4)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(InflateError::StoredLenMismatch);
    }
    if out.len() + len as usize > limit {
        return Err(InflateError::OutputLimitExceeded(limit));
    }
    out.extend_from_slice(r.take_bytes(len as usize)?);
    Ok(())
}

/// Decoders for the fixed Huffman tables (RFC 1951 §3.2.6), built once.
fn fixed_decoders() -> &'static (Decoder, Decoder) {
    static DECODERS: OnceLock<(Decoder, Decoder)> = OnceLock::new();
    DECODERS.get_or_init(|| {
        let (lit, dist) = crate::encoder::fixed_tables();
        let complete = "fixed tables are complete";
        let lit = Decoder::from_lengths_mapped(&lit.lengths, lit_value).expect(complete);
        (lit, Decoder::from_lengths_mapped(&dist.lengths, dist_value).expect(complete))
    })
}

/// A literal/length symbol decodes to `symbol | info << 9`; a length
/// symbol's info is its base length `<< 3 |` its extra bit count, every
/// other symbol's is 0. The fast loop reads a length from one lookup.
fn lit_value(sym: usize) -> u32 {
    match sym {
        257..=285 => {
            let lc = sym - 257;
            let info = (LENGTH_BASE[lc] as u32) << 3 | LENGTH_EXTRA[lc] as u32;
            sym as u32 | info << LIT_SYM_BITS
        }
        _ => sym as u32,
    }
}

/// A distance symbol decodes to `symbol | info << 5`, with info its base
/// distance `<< 4 |` its extra bit count; 0 for the invalid 30 and 31.
fn dist_value(sym: usize) -> u32 {
    match (DIST_BASE.get(sym), DIST_EXTRA.get(sym)) {
        (Some(&base), Some(&extra)) => {
            sym as u32 | ((base as u32) << 4 | extra as u32) << DIST_SYM_BITS
        }
        _ => sym as u32,
    }
}

/// Bits of a decoded value that hold the symbol.
const LIT_SYM_BITS: u32 = 9;
const DIST_SYM_BITS: u32 = 5;

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
    let lit = Decoder::from_lengths_mapped(&lens[..hlit], lit_value)?;
    let dist = Decoder::from_lengths_mapped(&lens[hlit..], dist_value)?;
    Ok((lit, dist))
}

/// Decode one Huffman block: the fast loop while it has room, and the
/// checked step for each symbol it hands back.
fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
    limit: usize,
    fast: bool,
) -> Result<(), InflateError> {
    loop {
        if fast {
            fast_loop(r, out, lit, dist, limit);
        }
        let sym = lit.decode(r)? & ((1 << LIT_SYM_BITS) - 1);
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
                let dsym = dist.decode(r)? & ((1 << DIST_SYM_BITS) - 1);
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

/// Room the fast loop keeps in `out`, within its capacity and the limit,
/// before each step: a literal, the longest match and the at most 15
/// bytes its last 16-byte copy writes past the match.
const FAST_ROOM: usize = 1 + MAX_MATCH + 15;

/// Decode literals and matches while 8 input bytes and [`FAST_ROOM`]
/// bytes of room remain, one 8-byte refill per step, and return at the
/// first symbol the checked step must take: a code the primary tables do
/// not hold, the end of block, or anything invalid. It consumes no bits
/// of that symbol, so the checked step decodes it, or reports its error,
/// as if it had decoded every symbol before it too.
///
/// A step is two literals, or a length and a distance, after at most one
/// literal: 12 + 12 + 5 + 12 + 13 = 54 bits at most (a primary-table code
/// has at most 12), within the 56 a refill leaves.
#[inline(always)]
fn fast_loop(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
    limit: usize,
) {
    let Some(stop) = out.capacity().min(limit).checked_sub(FAST_ROOM) else { return };
    // A local copy of the reader keeps its state in registers.
    let mut b = reader.clone();
    let r = &mut b;
    let base = out.as_mut_ptr();
    let mut op = out.len();
    while op <= stop && r.bytes_left() >= 8 {
        r.refill_word();
        let Some((mut v, mut n)) = lit.leaf(r.bits()) else { break };
        if v < 256 {
            r.drop_bits(n);
            debug_assert!(op + FAST_ROOM <= out.capacity());
            // SAFETY: `op <= stop`, so `op + FAST_ROOM <= out.capacity()`:
            // room for this step's literal and what follows it.
            unsafe { base.add(op).write(v as u8) };
            op += 1;
            (v, n) = match lit.leaf(r.bits()) {
                Some(next) => next,
                None => break,
            };
            if v < 256 {
                r.drop_bits(n);
                debug_assert!(op < out.capacity());
                // SAFETY: as above, the step's second and last literal.
                unsafe { base.add(op).write(v as u8) };
                op += 1;
                continue;
            }
        }
        let info = v >> LIT_SYM_BITS;
        if info == 0 {
            break;
        }
        let mut bits = r.bits() >> n;
        let len_extra = info & 7;
        let len = (info >> 3) as usize + (bits & ((1 << len_extra) - 1)) as usize;
        bits >>= len_extra;
        let Some((dv, dn)) = dist.leaf(bits) else { break };
        let info = dv >> DIST_SYM_BITS;
        if info == 0 {
            break;
        }
        let dist_extra = info & 15;
        let d = (info >> 4) as usize + ((bits >> dn) & ((1 << dist_extra) - 1)) as usize;
        if d > op {
            break;
        }
        r.drop_bits(n + len_extra + dn + dist_extra);
        debug_assert!(d >= 1 && op + len + 15 <= out.capacity());
        // SAFETY: `1 <= d <= op`, so the source starts inside the output
        // written so far; `op <= stop` bounds every write by `op + len +
        // 15 <= op + FAST_ROOM <= out.capacity()`. Each wide copy reads
        // only bytes before the ones it writes, all already written.
        unsafe { copy_match_wide(base.add(op), d, len) };
        op += len;
    }
    debug_assert!(op <= out.capacity());
    // SAFETY: the fast loop wrote every byte up to `op` and none past
    // the capacity.
    unsafe { out.set_len(op) };
    *reader = b;
}

/// Copy a `len`-byte match from `dist` bytes behind `dst`: 16 or 8 bytes
/// at a time when the distance allows, so up to 15 bytes past the match
/// are overwritten; a distance of 1 fills, and one of 2..8 copies byte by
/// byte.
///
/// # Safety
///
/// `dst - dist .. dst` is initialised and `dst .. dst + len + 15` is
/// writable, in one allocation.
#[inline(always)]
unsafe fn copy_match_wide(dst: *mut u8, dist: usize, len: usize) {
    // SAFETY: in bounds by the caller's contract; each chunk's source
    // ends at or before its destination starts, so they never overlap.
    unsafe {
        let src = dst.sub(dist);
        if dist >= 16 {
            let mut i = 0;
            while i < len {
                std::ptr::copy_nonoverlapping(src.add(i), dst.add(i), 16);
                i += 16;
            }
        } else if dist >= 8 {
            let mut i = 0;
            while i < len {
                std::ptr::copy_nonoverlapping(src.add(i), dst.add(i), 8);
                i += 8;
            }
        } else if dist == 1 {
            std::ptr::write_bytes(dst, *src, len);
        } else {
            for i in 0..len {
                *dst.add(i) = *src.add(i);
            }
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

    /// Literal runs, matches at distances of 1, 2..8, 8..16 and beyond,
    /// long runs and text, so that a stream takes every path of the fast
    /// loop and hands off to the checked step often.
    fn mixed_input(seed: u32, n: usize) -> Vec<u8> {
        let mut x = seed;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let mut data = Vec::with_capacity(n + 300);
        while data.len() < n {
            let r = next();
            let len = (r >> 20) as usize % 300;
            match r % 6 {
                0 => data.extend((0..len).map(|_| next() as u8)),
                1 => data.extend(std::iter::repeat_n(r as u8, len)),
                2..=4 if !data.is_empty() => {
                    let span = [8, 16, 40_000][r as usize % 3];
                    let dist = 1 + (r >> 8) as usize % span.min(data.len());
                    for _ in 0..len {
                        data.push(data[data.len() - dist]);
                    }
                }
                _ => data.extend_from_slice(b"the fast loop and the checked step "),
            }
        }
        data.truncate(n);
        data
    }

    /// Both decoders give the same bytes, or the same error.
    fn agree(stream: &[u8], limit: usize) {
        let (fast, checked) =
            (inflate_with_limit(stream, limit), inflate_checked_with_limit(stream, limit));
        assert!(fast == checked, "limit {limit}, {} bytes: {fast:?} vs {checked:?}", stream.len());
    }

    #[test]
    fn fast_loop_agrees_with_the_checked_step() {
        let data = mixed_input(0x9E37_79B9, 60_000);
        let random: Vec<u8> = mixed_input(7, 70_000).iter().map(|b| b.wrapping_mul(151)).collect();
        let mut streams = Vec::new();
        for level in [Level(1), Level::DEFAULT, Level::BEST] {
            streams.push((deflate(&data, level), data.clone()));
        }
        // Stored, fixed and dynamic blocks in one stream, each after the
        // fast loop has left whole bytes buffered.
        let pieces = [&data[..20_000], &random[..], b"a short fixed block", &data[20_000..]];
        let mut stitched = Vec::new();
        for (i, piece) in pieces.iter().enumerate() {
            let level = if i == 1 { Level::STORED } else { Level::DEFAULT };
            stitched.extend(crate::encoder::deflate_fragment(piece, level, i == pieces.len() - 1));
        }
        streams.push((stitched, pieces.concat()));
        for (stream, plain) in &streams {
            let n = plain.len();
            assert!(inflate_with_limit(stream, n).as_ref() == Ok(plain));
            for limit in [n - 1, n, n + 1, usize::MAX] {
                agree(stream, limit);
            }
            for cut in stream.len().saturating_sub(64)..stream.len() {
                agree(&stream[..cut], n);
            }
            // Flipped bits: a corrupt stream decodes, or fails, the same way.
            for bit in (0..stream.len() * 8).step_by(stream.len() / 2 + 1) {
                let mut bad = stream.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                agree(&bad, n);
            }
        }
    }

    /// One final fixed-Huffman block of `tokens`.
    fn fixed_block(tokens: &[Token]) -> Vec<u8> {
        let (lit, dist) = crate::encoder::fixed_tables();
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let put = |w: &mut BitWriter, (c, l): (u32, u8)| w.write_bits(c as u64, l as u32);
        for &t in tokens {
            match t {
                Token::Literal(b) => put(&mut w, lit.code(b as usize)),
                Token::Match { len, dist: d } => {
                    let (len, d) = (len as usize, d as usize);
                    let lc = length_code(len);
                    put(&mut w, lit.code(257 + lc));
                    w.write_bits((len - LENGTH_BASE[lc] as usize) as u64, LENGTH_EXTRA[lc] as u32);
                    let dc = dist_code(d);
                    put(&mut w, dist.code(dc));
                    w.write_bits((d - DIST_BASE[dc] as usize) as u64, DIST_EXTRA[dc] as u32);
                }
            }
        }
        put(&mut w, lit.code(EOB as usize));
        w.finish()
    }

    #[test]
    fn fast_loop_hands_a_distance_too_far_to_the_checked_step() {
        // 300 literals, a match reaching back `dist`, then enough literals
        // that the fast loop is still running there.
        let block = |dist: u16| {
            let mut tokens: Vec<Token> =
                (0..300).map(|i| Token::Literal(b'a' + (i % 7) as u8)).collect();
            tokens.push(Token::Match { len: 3, dist });
            tokens.extend([Token::Literal(b'z'); 100]);
            fixed_block(&tokens)
        };
        for limit in [403, 10_000] {
            assert_eq!(inflate_with_limit(&block(300), limit).map(|d| d.len()), Ok(403));
            let too_far = Err(InflateError::DistanceTooFar { dist: 301, available: 300 });
            assert_eq!(inflate_with_limit(&block(301), limit), too_far);
            agree(&block(301), limit);
        }
    }

    #[test]
    fn fast_loop_keeps_its_room_at_every_limit() {
        // A literal and a 258-byte match after 300 literals, then enough
        // literals that the fast loop is still running there: that step
        // writes 259 bytes, and a 16-byte copy up to 15 past them, so each
        // limit around it (the output's capacity too) leaves the loop a
        // different room. A room too small trips its `debug_assert!`s.
        for dist in [1, 9, 20] {
            let mut tokens: Vec<Token> = (0..300).map(|i| Token::Literal((i * 37) as u8)).collect();
            tokens.extend([Token::Literal(b'x'), Token::Match { len: 258, dist }]);
            tokens.extend([Token::Literal(b'z'); 100]);
            let stream = fixed_block(&tokens);
            let n = 300 + 1 + 258 + 100;
            assert_eq!(inflate_with_limit(&stream, n).map(|d| d.len()), Ok(n));
            for limit in (280..=620).chain([n - 1, n, n + 1]) {
                agree(&stream, limit);
            }
        }
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
        let mut freqs = crate::encoder::Freqs::new();
        tokens.iter().for_each(|&t| _ = freqs.count(t));
        let mut w = BitWriter::new();
        crate::encoder::encode_block(&mut w, &tokens, &freqs, &raw, true);
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
