//! Canonical Huffman coding: length-limited code construction from symbol
//! frequencies, canonical code assignment (RFC 1951 §3.2.2), and a
//! table-driven decoder.

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

/// Canonical Huffman encoder table: per-symbol (code, length), with the code
/// already bit-reversed for LSB-first emission.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Bit-reversed canonical code per symbol.
    pub codes: Vec<u16>,
    /// Code length in bits per symbol (0 = unused).
    pub lengths: Vec<u8>,
}

impl Encoder {
    /// Build canonical codes from lengths (RFC 1951 §3.2.2 algorithm).
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        let mut bl_count = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = vec![0u32; max_len + 2];
        let mut code = 0u32;
        for bits in 1..=max_len {
            code = (code + bl_count[bits - 1]) << 1;
            next_code[bits] = code;
        }
        let mut codes = vec![0u16; lengths.len()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                let c = next_code[len as usize];
                next_code[len as usize] += 1;
                codes[sym] = reverse_bits(c, len as u32) as u16;
            }
        }
        Self { codes, lengths: lengths.to_vec() }
    }

    /// Encoded (bit-reversed code, length) pair for a symbol.
    #[inline]
    pub fn code(&self, sym: usize) -> (u16, u8) {
        (self.codes[sym], self.lengths[sym])
    }
}

/// Table-driven canonical Huffman decoder.
///
/// Uses a single-level lookup table of `2^max_len` entries mapping the next
/// `max_len` input bits to (symbol, length). DEFLATE's 15-bit cap keeps this
/// at 32 K entries.
#[derive(Debug, Clone)]
pub struct Decoder {
    table: Vec<u32>, // (sym << 4) | len, 0 = invalid
    max_len: u32,
}

/// Error for invalid Huffman table construction or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffError {
    /// Code lengths violate the Kraft inequality (over-subscribed).
    Oversubscribed,
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
            HuffError::InvalidCode => write!(f, "invalid huffman code in stream"),
            HuffError::OutOfBits => write!(f, "unexpected end of input"),
        }
    }
}

impl std::error::Error for HuffError {}

impl Decoder {
    /// Build a decoder from canonical code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, HuffError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as u32;
        if max_len == 0 {
            // Degenerate empty alphabet; decode always fails.
            return Ok(Self { table: vec![0; 2], max_len: 1 });
        }
        // Check Kraft.
        let mut kraft: u64 = 0;
        for &l in lengths {
            if l > 0 {
                kraft += 1u64 << (max_len - l as u32);
            }
        }
        if kraft > 1u64 << max_len {
            return Err(HuffError::Oversubscribed);
        }
        let enc = Encoder::from_lengths(lengths);
        let mut table = vec![0u32; 1usize << max_len];
        for (sym, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let code = enc.codes[sym] as usize; // already bit-reversed
            let entry = ((sym as u32) << 4) | len as u32;
            // Fill every table slot whose low `len` bits equal the code.
            let step = 1usize << len;
            let mut idx = code;
            while idx < table.len() {
                table[idx] = entry;
                idx += step;
            }
        }
        Ok(Self { table, max_len })
    }

    /// Decode one symbol from the reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, HuffError> {
        let bits = r.peek_bits(self.max_len);
        let entry = self.table[bits as usize];
        if entry == 0 {
            // Either an unassigned pattern or insufficient bits remain.
            return if r.bits_remaining() == 0 {
                Err(HuffError::OutOfBits)
            } else {
                Err(HuffError::InvalidCode)
            };
        }
        let len = entry & 0xF;
        r.consume(len)?;
        Ok((entry >> 4) as u16)
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
            assert_eq!(enc.codes[sym] as u32, reverse_bits(code, len), "sym {sym}");
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
    fn uniform_256_symbol_alphabet() {
        let freqs = vec![7u32; 256];
        let stream: Vec<usize> = (0..256).collect();
        roundtrip_symbols(&freqs, 15, &stream);
    }
}
