//! Canonical Huffman coding: length-limited code construction from symbol
//! frequencies, canonical code assignment (RFC 1951 §3.2.2), and a
//! two-level table-driven decoder. DEFLATE and SZ3's quantization-code
//! stream both use it.

use crate::bitio::{reverse_bits, BitReader, OutOfBits};

/// Build length-limited Huffman code lengths from frequencies.
///
/// Returns a `Vec<u8>` of code lengths (0 for unused symbols). Uses a
/// standard Huffman tree followed by the depth-limiting adjustment used by
/// zlib/miniz: over-long codes are clamped to `max_len` and the Kraft sum is
/// repaired by demoting the shallowest eligible codes.
pub fn build_code_lengths(freqs: &[u32], max_len: usize) -> Vec<u8> {
    assert!(max_len <= 32);
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs a 1-bit code so the decoder can
            // distinguish it from garbage.
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-free O(n log n) Huffman: sort the leaves by (frequency, symbol),
    // then do the classic two-queue merge. Leaves are `weight[..leaves]`;
    // internal nodes follow in creation order, which is also the FIFO
    // order the merge takes them in.
    let mut keys: Vec<u64> = used.iter().map(|&s| (freqs[s] as u64) << 32 | s as u64).collect();
    keys.sort_unstable();
    let leaves = keys.len();
    let mut weight: Vec<u64> = keys.iter().map(|&k| k >> 32).collect();
    let mut parent = vec![0usize; 2 * leaves - 1];
    let (mut next_leaf, mut next_internal) = (0usize, leaves);
    let mut take_min = |weight: &[u64]| {
        let leaf = next_leaf < leaves
            && (next_internal == weight.len() || weight[next_leaf] <= weight[next_internal]);
        let next = if leaf { &mut next_leaf } else { &mut next_internal };
        *next += 1;
        *next - 1
    };
    for _ in 1..leaves {
        let (a, b) = (take_min(&weight), take_min(&weight));
        parent[a] = weight.len();
        parent[b] = weight.len();
        weight.push(weight[a] + weight[b]);
    }
    // Every node precedes its parent and the root comes last, so one
    // backward pass gives each node its depth.
    let mut depth = vec![0u32; weight.len()];
    for i in (0..weight.len() - 1).rev() {
        depth[i] = depth[parent[i]] + 1;
    }

    // Clamp to max_len and repair the Kraft inequality (miniz-style).
    let mut counts = vec![0u32; max_len + 1];
    for &d in &depth[..leaves] {
        counts[(d as usize).min(max_len)] += 1;
    }
    let mut total: u64 = 0;
    for (i, &c) in counts.iter().enumerate().skip(1) {
        total += (c as u64) << (max_len - i);
    }
    while total > 1u64 << max_len {
        // Demote: remove one code at max depth; promote a shallower code to
        // depth+1, gaining back capacity.
        counts[max_len] -= 1;
        for i in (1..max_len).rev() {
            if counts[i] != 0 {
                counts[i] -= 1;
                counts[i + 1] += 2;
                break;
            }
        }
        total -= 1;
    }

    // Assign the adjusted lengths to symbols ordered by descending frequency
    // (most frequent symbols get the shortest codes).
    // Ties in frequency go to the lower symbol first.
    let mut by_freq: Vec<u64> =
        used.iter().map(|&s| ((u32::MAX - freqs[s]) as u64) << 32 | s as u64).collect();
    by_freq.sort_unstable();
    let mut li = 1usize;
    for sym in by_freq.iter().map(|&k| k as u32 as usize) {
        while counts[li] == 0 {
            li += 1;
        }
        counts[li] -= 1;
        lengths[sym] = li as u8;
    }
    lengths
}

/// Longest code the coder supports. DEFLATE caps its codes at 15 bits;
/// SZ3's quantization alphabet needs up to 27.
pub const MAX_BITS: usize = 27;

/// Widest primary decode table. Codes longer than this are rare by
/// construction (a code of length `l` is used about once in `2^l`
/// symbols), and 2^11 entries (16 KiB) stay in L1 and are cheap to rebuild
/// for every DEFLATE block.
const MAX_PRIMARY_BITS: u32 = 11;

/// Canonical code values (RFC 1951 §3.2.2), MSB-first, with the first
/// code of each length; lengths must be at most [`MAX_BITS`].
fn canonical_codes(lengths: &[u8]) -> (Vec<u32>, [u32; MAX_BITS + 1]) {
    let mut count = [0u32; MAX_BITS + 1];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut first = [0u32; MAX_BITS + 1];
    let mut code = 0u32;
    for bits in 1..=MAX_BITS {
        code = (code + count[bits - 1]) << 1;
        first[bits] = code;
    }
    let mut next = first;
    let codes = lengths
        .iter()
        .map(|&len| {
            let c = next[len as usize];
            next[len as usize] += 1;
            c
        })
        .collect();
    (codes, first)
}

/// Canonical Huffman encoder table: per-symbol (code, length), with the code
/// already bit-reversed for LSB-first emission.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Bit-reversed canonical code per symbol.
    pub codes: Vec<u32>,
    /// Code length in bits per symbol (0 = unused).
    pub lengths: Vec<u8>,
}

impl Encoder {
    /// Build canonical codes from lengths of at most [`MAX_BITS`].
    pub fn from_lengths(lengths: &[u8]) -> Self {
        assert!(lengths.iter().all(|&l| l as usize <= MAX_BITS), "code longer than MAX_BITS");
        let (codes, _) = canonical_codes(lengths);
        let codes = codes
            .iter()
            .zip(lengths)
            .map(|(&c, &len)| if len == 0 { 0 } else { reverse_bits(c, len as u32) })
            .collect();
        Self { codes, lengths: lengths.to_vec() }
    }

    /// Encoded (bit-reversed code, length) pair for a symbol.
    #[inline]
    pub fn code(&self, sym: usize) -> (u32, u8) {
        (self.codes[sym], self.lengths[sym])
    }
}

/// Table-driven canonical Huffman decoder with two levels.
///
/// The primary table maps the next `primary_bits` input bits to (symbol,
/// length) for every code that short. Its width is the longest code
/// length, capped at 11 bits. Longer codes fall through to a canonical
/// second level: the next `max_len` bits, read MSB-first, are compared
/// with the first code of each longer length, and the match indexes a
/// list of those symbols in canonical order. Beyond the fixed primary
/// table, memory is linear in the alphabet: a table-per-prefix second
/// level would grow exponentially with code length, which hostile code
/// lengths could exploit.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// Indexed by the next `primary_bits` bits; `len == 0` means no code
    /// of at most `primary_bits` bits matches.
    primary: Vec<Entry>,
    primary_bits: u32,
    max_len: u32,
    /// Per length above `primary_bits`: the MSB-first first code, the
    /// number of codes, and where they start in `long_syms`.
    first_code: [u32; MAX_BITS + 1],
    count: [u32; MAX_BITS + 1],
    first_index: [u32; MAX_BITS + 1],
    /// Symbols with codes longer than `primary_bits`, by (length, symbol).
    long_syms: Vec<u32>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    sym: u32,
    len: u8,
}

/// Error for invalid Huffman table construction or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffError {
    /// Code lengths violate the Kraft inequality (over-subscribed).
    Oversubscribed,
    /// A code length exceeds [`MAX_BITS`].
    CodeTooLong,
    /// Encountered a bit pattern with no assigned code.
    InvalidCode,
    /// Ran out of input bits.
    OutOfBits,
}

impl From<OutOfBits> for HuffError {
    fn from(_: OutOfBits) -> Self {
        HuffError::OutOfBits
    }
}

impl std::fmt::Display for HuffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffError::Oversubscribed => write!(f, "huffman code lengths oversubscribed"),
            HuffError::CodeTooLong => write!(f, "huffman code longer than {MAX_BITS} bits"),
            HuffError::InvalidCode => write!(f, "invalid huffman code in stream"),
            HuffError::OutOfBits => write!(f, "unexpected end of input"),
        }
    }
}

impl std::error::Error for HuffError {}

impl Decoder {
    /// Build a decoder from canonical code lengths. An empty alphabet is
    /// accepted; decoding from it always fails.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, HuffError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as u32;
        if max_len as usize > MAX_BITS {
            return Err(HuffError::CodeTooLong);
        }
        let kraft: u64 =
            lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (max_len - l as u32)).sum();
        if kraft > 1u64 << max_len {
            return Err(HuffError::Oversubscribed);
        }
        let max_len = max_len.max(1);
        let primary_bits = max_len.min(MAX_PRIMARY_BITS);
        let (codes, first_code) = canonical_codes(lengths);
        let mut primary = vec![Entry::default(); 1 << primary_bits];
        let mut count = [0u32; MAX_BITS + 1];
        for (sym, (&code, &len)) in codes.iter().zip(lengths).enumerate() {
            let len32 = len as u32;
            if len == 0 {
                continue;
            }
            if len32 > primary_bits {
                count[len as usize] += 1;
                continue;
            }
            // Fill every slot whose low `len` bits are the reversed code.
            let entry = Entry { sym: sym as u32, len };
            for slot in
                primary.iter_mut().skip(reverse_bits(code, len32) as usize).step_by(1 << len)
            {
                *slot = entry;
            }
        }
        let mut first_index = [0u32; MAX_BITS + 1];
        let mut next = 0u32;
        for l in primary_bits as usize + 1..=max_len as usize {
            first_index[l] = next;
            next += count[l];
        }
        let mut long_syms = vec![0u32; next as usize];
        let mut fill = first_index;
        for (sym, &len) in lengths.iter().enumerate() {
            if len as u32 > primary_bits {
                long_syms[fill[len as usize] as usize] = sym as u32;
                fill[len as usize] += 1;
            }
        }
        Ok(Self { primary, primary_bits, max_len, first_code, count, first_index, long_syms })
    }

    /// Decode one symbol from the reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffError> {
        // Bits past the end of input read as zero, so a pattern can match
        // a code longer than what remains; `consume` then reports it.
        let bits = r.peek_bits(self.max_len);
        let e = self.primary[(bits & ((1 << self.primary_bits) - 1)) as usize];
        let (sym, len) = if e.len != 0 {
            (e.sym, e.len as u32)
        } else {
            match self.decode_long(bits) {
                Some(found) => found,
                None if r.bits_remaining() == 0 => return Err(HuffError::OutOfBits),
                None => return Err(HuffError::InvalidCode),
            }
        };
        r.consume(len)?;
        Ok(sym)
    }

    /// Second level: match the next `max_len` bits against the codes
    /// longer than the primary width.
    #[cold]
    fn decode_long(&self, bits: u32) -> Option<(u32, u32)> {
        let msb_first = reverse_bits(bits, self.max_len);
        for len in self.primary_bits + 1..=self.max_len {
            let l = len as usize;
            let offset = (msb_first >> (self.max_len - len)).wrapping_sub(self.first_code[l]);
            if offset < self.count[l] {
                return Some((self.long_syms[(self.first_index[l] + offset) as usize], len));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    fn roundtrip_symbols(freqs: &[u32], max_len: usize, stream: &[usize]) {
        let lengths = build_code_lengths(freqs, max_len);
        let enc = Encoder::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            let (c, l) = enc.code(s);
            assert!(l > 0, "symbol {s} has no code");
            w.write_bits(c as u64, l as u32);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn skewed_frequencies_roundtrip() {
        let freqs = [1000, 500, 100, 50, 10, 5, 1, 1];
        let stream: Vec<usize> = (0..8).cycle().take(64).collect();
        roundtrip_symbols(&freqs, 15, &stream);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let mut freqs = vec![0u32; 16];
        freqs[7] = 42;
        let lengths = build_code_lengths(&freqs, 15);
        assert_eq!(lengths[7], 1);
        assert!(lengths.iter().enumerate().all(|(i, &l)| i == 7 || l == 0));
    }

    #[test]
    fn empty_alphabet() {
        let lengths = build_code_lengths(&[0, 0, 0], 15);
        assert!(lengths.iter().all(|&l| l == 0));
    }

    #[test]
    fn length_limit_respected_for_pathological_freqs() {
        // Fibonacci-like frequencies force deep unconstrained trees.
        let mut freqs = vec![0u32; 40];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        for max in [7usize, 9, 15] {
            let lengths = build_code_lengths(&freqs, max);
            assert!(lengths.iter().all(|&l| (l as usize) <= max));
            // Kraft sum must be exactly satisfiable.
            let kraft: f64 =
                lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
            assert!(kraft <= 1.0 + 1e-9, "kraft {kraft} for max {max}");
            // And decodable.
            Decoder::from_lengths(&lengths).unwrap();
        }
    }

    #[test]
    fn canonical_codes_match_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = Encoder::from_lengths(&lengths);
        // Expected canonical codes: A=010 B=011 C=100 D=101 E=110 F=00
        // G=1110 H=1111. Our stored codes are bit-reversed.
        let expect = [
            (0b010u32, 3u32),
            (0b011, 3),
            (0b100, 3),
            (0b101, 3),
            (0b110, 3),
            (0b00, 2),
            (0b1110, 4),
            (0b1111, 4),
        ];
        for (sym, &(code, len)) in expect.iter().enumerate() {
            assert_eq!(enc.lengths[sym] as u32, len);
            assert_eq!(enc.codes[sym], reverse_bits(code, len), "sym {sym}");
        }
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three 1-bit codes cannot coexist.
        assert_eq!(Decoder::from_lengths(&[1, 1, 1]).unwrap_err(), HuffError::Oversubscribed);
    }

    #[test]
    fn decoder_rejects_unassigned_pattern() {
        // Lengths {1} for symbol 0 only: pattern `1` is unassigned when the
        // canonical code for symbol 0 is `0`.
        let dec = Decoder::from_lengths(&[1, 0]).unwrap();
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap_err(), HuffError::InvalidCode);
    }

    #[test]
    fn codes_past_the_primary_width_roundtrip() {
        // Fibonacci frequencies give one code of every length up to 27.
        let mut freqs = vec![0u32; 28];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freqs.iter_mut() {
            *f = a;
            (a, b) = (b, a + b);
        }
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        assert_eq!(lengths.iter().copied().max(), Some(MAX_BITS as u8));
        let stream: Vec<usize> = (0..28).chain((0..28).rev()).collect();
        roundtrip_symbols(&freqs, MAX_BITS, &stream);
    }

    #[test]
    fn long_code_errors_match_their_cause() {
        // Symbol 0 is `0`, symbol 1 is `1` followed by twelve zeros.
        let dec = Decoder::from_lengths(&[1, 13]).unwrap();
        let mut r = BitReader::new(&[0x01, 0x00]);
        assert_eq!(dec.decode(&mut r), Ok(1));
        // The same code cut short after eight bits.
        let mut r = BitReader::new(&[0x01]);
        assert_eq!(dec.decode(&mut r), Err(HuffError::OutOfBits));
        // `1` then a one bit within the next twelve is no code.
        let mut r = BitReader::new(&[0x03, 0x00]);
        assert_eq!(dec.decode(&mut r), Err(HuffError::InvalidCode));
        assert_eq!(Decoder::from_lengths(&[1, 28]).unwrap_err(), HuffError::CodeTooLong);
    }

    #[test]
    fn uniform_256_symbol_alphabet() {
        let freqs = vec![7u32; 256];
        let stream: Vec<usize> = (0..256).collect();
        roundtrip_symbols(&freqs, 15, &stream);
    }
}
