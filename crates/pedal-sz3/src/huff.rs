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
//!   Huffman coder and writes each code MSB-first in one write, sizing
//!   the blob before it writes it, so the payload is written once;
//! * decodes with that coder's two-level table decoder. When `l` symbols
//!   have codes longer than 12 bits, it holds at most `2^12 + 2^8 * l`
//!   four-byte table entries, plus four bytes per symbol whose code is
//!   longer than 20 bits (those take a canonical search): linear in the
//!   alphabet, whatever lengths a hostile header declares.

use pedal_deflate::bitio::{BitReader, BitWriter};
use pedal_deflate::huffman::{build_code_lengths, Decoder, Encoder, MAX_BITS};

use pedal_deflate::varint::{get_uvarint, put_uvarint, uvarint_len};

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
    let blob = Blob::plan(symbols);
    let mut out = Vec::with_capacity(blob.len());
    blob.append_to(&mut out);
    out
}

/// Bits of a packed code's length; the bit-reversed code sits above them.
const PACKED_LEN_BITS: u32 = 5;

/// How [`Blob`] finds a symbol's code, packed as `reversed_code <<
/// PACKED_LEN_BITS | length`.
enum Codes {
    /// Indexed by `symbol - lo`, when the values span no more than the
    /// stream is long (or 64 Ki values).
    Dense { lo: u32, slot: Vec<u32> },
    /// Per entry of the ascending alphabet, found by binary search.
    Sparse { distinct: Vec<u32>, codes: Vec<u32> },
}

/// The blob [`encode`] writes for a symbol stream, planned so that its
/// exact length is known before it is written out.
pub(crate) struct Blob<'a> {
    symbols: &'a [u32],
    /// Symbol count, alphabet and code lengths.
    header: Vec<u8>,
    codes: Codes,
    /// Payload bytes; 0 for a single-symbol stream, whose payload carries
    /// nothing.
    payload_len: usize,
}

impl<'a> Blob<'a> {
    /// Find the alphabet of `symbols`, its code lengths and the header.
    pub fn plan(symbols: &'a [u32]) -> Self {
        let (lo, hi) = symbols.iter().fold((u32::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let lo = lo.min(hi);
        let span = (hi - lo) as usize + 1;
        let dense = span <= symbols.len().max(DENSE_MIN_SPAN);
        let (mut slot, mut distinct, mut freqs) = (Vec::new(), Vec::new(), Vec::new());
        if dense {
            // Count per value, then turn each used slot into its rank among
            // the used values.
            slot = vec![0u32; span];
            for &s in symbols {
                slot[(s - lo) as usize] += 1;
            }
            for (v, c) in slot.iter_mut().enumerate() {
                if *c > 0 {
                    freqs.push(*c);
                    *c = distinct.len() as u32;
                    distinct.push(lo + v as u32);
                }
            }
        } else {
            distinct = symbols.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            freqs = vec![0u32; distinct.len()];
            for &s in symbols {
                freqs[distinct.binary_search(&s).expect("symbol is in the alphabet")] += 1;
            }
        }
        let lengths = build_code_lengths(&freqs, MAX_BITS);

        // Header: n_symbols, count of distinct, then delta-varint symbol
        // table, then code lengths (one byte each).
        let mut header = Vec::with_capacity(distinct.len() * 2 + 16);
        put_uvarint(&mut header, symbols.len() as u64);
        put_uvarint(&mut header, distinct.len() as u64);
        let mut prev = 0u64;
        for &s in &distinct {
            put_uvarint(&mut header, s as u64 - prev);
            prev = s as u64;
        }
        header.extend(lengths.iter().copied());

        let payload_bits: u64 = if distinct.len() > 1 {
            freqs.iter().zip(&lengths).map(|(&f, &l)| f as u64 * l as u64).sum()
        } else {
            0
        };
        let enc = Encoder::from_lengths(&lengths);
        let codes: Vec<u32> = enc
            .codes
            .iter()
            .zip(&lengths)
            .map(|(&c, &l)| c << PACKED_LEN_BITS | l as u32)
            .collect();
        let codes = if dense {
            // Each used slot's rank becomes its code; unused slots are
            // never read.
            for c in &mut slot {
                *c = codes.get(*c as usize).copied().unwrap_or(0);
            }
            Codes::Dense { lo, slot }
        } else {
            Codes::Sparse { distinct, codes }
        };
        Self { symbols, header, codes, payload_len: payload_bits.div_ceil(8) as usize }
    }

    /// Length of the blob in bytes.
    pub fn len(&self) -> usize {
        self.header.len() + uvarint_len(self.payload_len as u64) + self.payload_len
    }

    /// Append the blob to `out`. Each code goes out MSB-first: bit-reversed,
    /// through the LSB-first writer.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.len());
        out.extend_from_slice(&self.header);
        put_uvarint(out, self.payload_len as u64);
        if self.payload_len == 0 {
            return;
        }
        let start = out.len();
        let mut w = BitWriter::append_to(std::mem::take(out));
        let mut put = |code: u32| {
            w.write_bits((code >> PACKED_LEN_BITS) as u64, code & ((1 << PACKED_LEN_BITS) - 1))
        };
        match &self.codes {
            Codes::Dense { lo, slot } => {
                self.symbols.iter().for_each(|&s| put(slot[(s - lo) as usize]))
            }
            Codes::Sparse { distinct, codes } => self.symbols.iter().for_each(|s| {
                put(codes[distinct.binary_search(s).expect("symbol is in the alphabet")])
            }),
        }
        *out = w.finish();
        debug_assert_eq!(out.len() - start, self.payload_len);
    }
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
    fn deep_comb_header_with_short_payload_is_a_bad_stream() {
        // 4096 12-bit prefixes, each a 16-symbol comb down to 27 bits, and
        // a payload of one bits that runs out inside the deepest codes.
        let comb: Vec<u8> = (13..=MAX_BITS as u8).chain([MAX_BITS as u8]).collect();
        let k = 4096 * comb.len();
        let mut blob = Vec::new();
        put_uvarint(&mut blob, k as u64); // n
        put_uvarint(&mut blob, k as u64);
        for d in std::iter::once(0).chain(std::iter::repeat_n(1, k - 1)) {
            put_uvarint(&mut blob, d);
        }
        blob.extend(comb.iter().copied().cycle().take(k));
        put_uvarint(&mut blob, k as u64 / 8);
        blob.extend(std::iter::repeat_n(0xFF, k / 8));
        assert_eq!(decode_with_limit(&blob, k), Err(HuffStreamError::BadStream));
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
