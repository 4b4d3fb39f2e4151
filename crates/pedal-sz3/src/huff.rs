//! Canonical Huffman coding for the quantization-code alphabet.
//!
//! SZ3's quantizer produces indexes over a potentially huge alphabet (up
//! to 2*radius symbols), of which a stream usually uses a small part. This
//! coder:
//!
//! * densifies the alphabet to the *observed* symbols, through a table
//!   indexed by symbol value when the values span no more than the stream
//!   is long (or 64 Ki values), and by sorting otherwise;
//! * builds length-limited canonical codes with `pedal-deflate`'s
//!   Huffman coder and writes each code MSB-first in one write;
//! * decodes with that coder's two-level table decoder, whose memory is
//!   linear in the observed alphabet.

use pedal_deflate::bitio::{BitReader, BitWriter};
use pedal_deflate::huffman::{build_code_lengths, Decoder, Encoder, MAX_BITS};

use pedal_deflate::varint::{get_uvarint, put_uvarint};

/// Symbol values may span this many values, or as many as the stream has
/// symbols, before the alphabet is found by sorting instead of a table.
const DENSE_MIN_SPAN: usize = 1 << 16;

/// Errors from Huffman stream decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffStreamError {
    /// Header truncated or malformed.
    BadHeader,
    /// Bitstream ended early or contained an unassigned code.
    BadStream,
    /// Stream declares more symbols than the caller's budget allows.
    LimitExceeded(usize),
}

impl std::fmt::Display for HuffStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffStreamError::BadHeader => write!(f, "bad huffman header"),
            HuffStreamError::BadStream => write!(f, "bad huffman bitstream"),
            HuffStreamError::LimitExceeded(n) => {
                write!(f, "huffman stream exceeds {n} symbols")
            }
        }
    }
}

impl std::error::Error for HuffStreamError {}

/// Encode a slice of u32 symbols into a self-describing blob:
/// header (symbol table + code lengths) followed by the bit-packed payload.
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    let lo = symbols.iter().copied().min().unwrap_or(0);
    let hi = symbols.iter().copied().max().unwrap_or(0);
    let span = (hi - lo) as usize + 1;
    if span <= symbols.len().max(DENSE_MIN_SPAN) {
        // Dense index: count per value, then turn each used slot into its
        // rank among the used values.
        let mut slot = vec![0u32; span];
        for &s in symbols {
            slot[(s - lo) as usize] += 1;
        }
        let (mut distinct, mut freqs) = (Vec::new(), Vec::new());
        for (v, c) in slot.iter_mut().enumerate() {
            if *c > 0 {
                freqs.push(*c);
                *c = distinct.len() as u32;
                distinct.push(lo + v as u32);
            }
        }
        encode_indexed(symbols, &distinct, &freqs, |s| slot[(s - lo) as usize] as usize)
    } else {
        let mut distinct = symbols.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let index_of = |s: u32| distinct.binary_search(&s).expect("symbol is in the alphabet");
        let mut freqs = vec![0u32; distinct.len()];
        for &s in symbols {
            freqs[index_of(s)] += 1;
        }
        encode_indexed(symbols, &distinct, &freqs, index_of)
    }
}

/// Write the blob for `symbols`, whose alphabet `distinct` is ascending,
/// `freqs` its counts, and `index_of` a symbol's position in it.
fn encode_indexed(
    symbols: &[u32],
    distinct: &[u32],
    freqs: &[u32],
    index_of: impl Fn(u32) -> usize,
) -> Vec<u8> {
    let lengths = build_code_lengths(freqs, MAX_BITS);

    // Header: n_symbols, count of distinct, then delta-varint symbol table,
    // then code lengths (one byte each).
    let mut out = Vec::with_capacity(symbols.len() / 2 + 64);
    put_uvarint(&mut out, symbols.len() as u64);
    put_uvarint(&mut out, distinct.len() as u64);
    let mut prev = 0u64;
    for &s in distinct {
        put_uvarint(&mut out, s as u64 - prev);
        prev = s as u64;
    }
    out.extend(lengths.iter().copied());

    // A single-symbol stream's payload carries nothing. Otherwise each code
    // goes out MSB-first: bit-reversed, through the LSB-first writer.
    let mut w = BitWriter::with_capacity(symbols.len() / 2);
    if distinct.len() > 1 {
        let enc = Encoder::from_lengths(&lengths);
        for &s in symbols {
            let (code, len) = enc.code(index_of(s));
            w.write_bits(code as u64, len as u32);
        }
    }
    let payload = w.finish();
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decode a blob produced by [`encode`].
///
/// The declared symbol count is untrusted; multi-symbol streams are
/// allocation-bounded by the payload size, but a single-symbol stream can
/// legitimately describe any count in O(1) bytes — callers decoding
/// hostile input must use [`decode_with_limit`].
pub fn decode(data: &[u8]) -> Result<Vec<u32>, HuffStreamError> {
    decode_with_limit(data, usize::MAX)
}

/// Like [`decode`] but rejects any stream declaring more than
/// `max_symbols` symbols *before* allocating for them, so a corrupt or
/// hostile header cannot trigger an out-of-budget allocation.
pub fn decode_with_limit(data: &[u8], max_symbols: usize) -> Result<Vec<u32>, HuffStreamError> {
    let mut i = 0usize;
    let n = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)? as usize;
    let k = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)? as usize;
    if n > max_symbols {
        return Err(HuffStreamError::LimitExceeded(max_symbols));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if k == 0 {
        return Err(HuffStreamError::BadHeader);
    }
    // Every distinct symbol appears in the stream and costs at least one
    // header byte, so both bounds cap `k` by real input bytes.
    if k > n || k > data.len().saturating_sub(i) {
        return Err(HuffStreamError::BadHeader);
    }
    let mut distinct = Vec::with_capacity(k);
    let mut prev = 0u64;
    for _ in 0..k {
        let d = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)?;
        // Checked add: a near-u64::MAX delta must not wrap the running
        // symbol value past the u32 plausibility check.
        prev = prev
            .checked_add(d)
            .filter(|&p| p <= u32::MAX as u64)
            .ok_or(HuffStreamError::BadHeader)?;
        distinct.push(prev as u32);
    }
    if i + k > data.len() {
        return Err(HuffStreamError::BadHeader);
    }
    let lengths = &data[i..i + k];
    i += k;
    let payload_len = get_uvarint(data, &mut i).map_err(|_| HuffStreamError::BadHeader)? as usize;
    // Checked add: a near-u64::MAX declared length must not wrap the
    // bounds comparison.
    let payload_end = i
        .checked_add(payload_len)
        .filter(|&end| end <= data.len())
        .ok_or(HuffStreamError::BadHeader)?;
    let payload = &data[i..payload_end];

    if k == 1 {
        return Ok(vec![distinct[0]; n]);
    }
    // With k > 1 every symbol costs at least one payload bit, so a count
    // that outruns the payload is corrupt — reject before reserving for it.
    if n > payload_len.saturating_mul(8) {
        return Err(HuffStreamError::BadStream);
    }

    // An all-zero length table, a length past the format's limit, or an
    // oversubscribed set is a bad header.
    if lengths.iter().all(|&l| l == 0) {
        return Err(HuffStreamError::BadHeader);
    }
    let dec = Decoder::from_lengths(lengths).map_err(|_| HuffStreamError::BadHeader)?;
    let mut r = BitReader::new(payload);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = dec.decode(&mut r).map_err(|_| HuffStreamError::BadStream)?;
        out.push(distinct[idx as usize]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowed_count_is_a_bad_header() {
        // The symbol count (3, one byte) as a 10-byte varint whose last
        // byte overflows 64 bits.
        let blob = encode(&[1u32, 2, 1]);
        let bad = [&[0xFFu8; 9][..], &[0x7F], &blob[1..]].concat();
        assert_eq!(decode(&bad), Err(HuffStreamError::BadHeader));
    }

    #[test]
    fn roundtrip_small() {
        let syms = vec![5u32, 5, 5, 7, 7, 100, 5, 7, 5];
        assert_eq!(decode(&encode(&syms)).unwrap(), syms);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn roundtrip_single_symbol() {
        let syms = vec![42u32; 1000];
        let blob = encode(&syms);
        // Single-symbol streams should be tiny (no payload bits).
        assert!(blob.len() < 32, "blob is {} bytes", blob.len());
        assert_eq!(decode(&blob).unwrap(), syms);
    }

    #[test]
    fn roundtrip_wide_alphabet() {
        // Alphabet spread across the u32 range, zipf-ish frequencies.
        let mut syms = Vec::new();
        for i in 0..2000u32 {
            let s = i.wrapping_mul(i).wrapping_mul(2_654_435_761) % 500_000;
            let reps = 1 + (i % 7) as usize;
            syms.extend(std::iter::repeat_n(s, reps));
        }
        assert_eq!(decode(&encode(&syms)).unwrap(), syms);
    }

    #[test]
    fn roundtrip_gaussian_like_quant_codes() {
        // Typical quantizer output: codes clustered around the radius.
        let radius = 32_768u32;
        let mut syms = Vec::new();
        let mut x = 88172645463325252u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Sum of 4 nibbles approximates a narrow distribution.
            let jitter =
                ((x & 0xF) + ((x >> 4) & 0xF) + ((x >> 8) & 0xF) + ((x >> 12) & 0xF)) as i64 - 30;
            syms.push((radius as i64 + jitter) as u32);
        }
        let blob = encode(&syms);
        // Entropy ~4-5 bits/symbol: expect real compression vs 4 bytes/sym.
        assert!(blob.len() < syms.len() * 2);
        assert_eq!(decode(&blob).unwrap(), syms);
    }

    #[test]
    fn garbage_input_does_not_panic() {
        for n in 0..64 {
            let junk: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let _ = decode(&junk);
        }
    }

    #[test]
    fn truncated_payload_detected() {
        let syms: Vec<u32> = (0..100).map(|i| i % 9).collect();
        let blob = encode(&syms);
        assert!(decode(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn symbol_limit_enforced() {
        let syms: Vec<u32> = (0..200).map(|i| i % 5).collect();
        let blob = encode(&syms);
        assert_eq!(decode_with_limit(&blob, 200).unwrap(), syms);
        assert_eq!(decode_with_limit(&blob, 199), Err(HuffStreamError::LimitExceeded(199)));
    }

    #[test]
    fn single_symbol_bomb_rejected_before_allocation() {
        // A ~10-byte blob declaring 2^40 copies of one symbol: the limited
        // decode must reject it without materializing the vector.
        let mut blob = Vec::new();
        put_uvarint(&mut blob, 1u64 << 40); // n
        put_uvarint(&mut blob, 1); // k
        put_uvarint(&mut blob, 7); // the symbol
        blob.push(1); // its code length
        put_uvarint(&mut blob, 0); // payload_len
        assert_eq!(decode_with_limit(&blob, 1 << 20), Err(HuffStreamError::LimitExceeded(1 << 20)));
    }

    #[test]
    fn absurd_alphabet_rejected_before_allocation() {
        // k far larger than the blob itself cannot be a valid symbol table.
        let mut blob = Vec::new();
        put_uvarint(&mut blob, 100); // n
        put_uvarint(&mut blob, 1u64 << 50); // k
        assert_eq!(decode(&blob), Err(HuffStreamError::BadHeader));
    }

    #[test]
    fn count_outrunning_payload_rejected() {
        // Multi-symbol stream whose declared count cannot fit in the
        // payload bits: reject before reserving the output vector.
        let syms = vec![1u32, 2, 1, 2, 1];
        let blob = encode(&syms);
        let mut i = 0usize;
        let n = get_uvarint(&blob, &mut i).unwrap();
        assert_eq!(n, 5);
        // Re-write the count as an absurd value, keeping the rest.
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 1u64 << 45);
        bad.extend_from_slice(&blob[i..]);
        assert_eq!(decode(&bad), Err(HuffStreamError::BadStream));
    }
}
