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

/// Widest primary decode table: 2^12 four-byte entries (16 KiB) stay in
/// L1 and are cheap to rebuild for every DEFLATE block.
const MAX_PRIMARY_BITS: u32 = 12;

/// Widest second-level subtable. Codes of up to `MAX_PRIMARY_BITS +
/// MAX_SUB_BITS` bits resolve in two lookups; longer ones take the
/// canonical search.
const MAX_SUB_BITS: u32 = 8;

// A table entry packs into one u32. Its low `LEN_BITS` bits are a code
// length: a leaf, with the symbol in the bits above. A zero length marks
// a link to a subtable, with its width in the next `WIDTH_BITS` bits and
// its offset in `Decoder::table` above them, or, as the whole entry 0, a
// pattern that no table code matches.
const LEN_BITS: u32 = 5;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;
const WIDTH_BITS: u32 = 4;

/// Symbols a leaf entry can hold. A larger alphabet, which only a hostile
/// length table has, decodes every code through the canonical search.
const TABLE_SYMBOLS: usize = 1 << (32 - LEN_BITS);

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
/// The primary table maps the next `primary_bits` input bits to a (symbol,
/// length) leaf for every code that short. Its width is the longest code
/// length, capped at 12 bits. Each primary prefix that starts longer codes
/// links to a subtable of its own, indexed by the bits after the primary
/// width; the subtable is as wide as the prefix's longest code needs,
/// capped at 8 bits. Codes longer than both levels reach fall through to a
/// canonical search: the next `max_len` bits, read MSB-first, are compared
/// with the first code of each such length, and the match indexes a list
/// of those symbols in canonical order.
///
/// Memory stays linear in the alphabet: only a prefix that starts a code
/// longer than `primary_bits` owns a subtable, and none exceeds 2^8
/// entries, so the tables hold at most `2^primary_bits + 2^8 * (symbols
/// longer than primary_bits)` entries, however hostile the lengths.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// The primary table (`2^primary_bits` entries), then the subtables.
    table: Vec<u32>,
    primary_bits: u32,
    max_len: u32,
    /// Shortest length the canonical search covers; codes at least this
    /// long are not in `table`.
    search_from: u32,
    /// Per length from `search_from` up: the MSB-first first code, the
    /// number of codes, and where they start in `long_syms`.
    first_code: [u32; MAX_BITS + 1],
    count: [u32; MAX_BITS + 1],
    first_index: [u32; MAX_BITS + 1],
    /// Values of the symbols with codes at least `search_from` long, by
    /// (length, symbol).
    long_syms: Vec<u32>,
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
        Self::from_lengths_mapped(lengths, |sym| sym as u32)
    }

    /// [`Self::from_lengths`], decoding each symbol to `value(symbol)`
    /// instead, which must be below 2^27: a caller can fold what it looks
    /// up per symbol into the table.
    pub(crate) fn from_lengths_mapped(
        lengths: &[u8],
        value: impl Fn(usize) -> u32,
    ) -> Result<Self, HuffError> {
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
        let search_from =
            if lengths.len() > TABLE_SYMBOLS { 1 } else { primary_bits + MAX_SUB_BITS + 1 };
        let (codes, first_code) = canonical_codes(lengths);
        let in_table = |len: u8| len != 0 && (len as u32) < search_from;
        // A longer code's primary index is its first `primary_bits` bits,
        // bit-reversed, since the reader delivers codes LSB-first.
        let primary_index =
            |code: u32, len: u32| reverse_bits(code >> (len - primary_bits), primary_bits);

        // Give each prefix that starts a longer table code a subtable as
        // wide as its longest such code needs.
        let mut table = vec![0u32; 1 << primary_bits];
        if max_len > primary_bits {
            let mut width = vec![0u8; 1 << primary_bits];
            for (&code, &len) in codes.iter().zip(lengths) {
                if in_table(len) && len as u32 > primary_bits {
                    let w = &mut width[primary_index(code, len as u32) as usize];
                    *w = (*w).max(len - primary_bits as u8);
                }
            }
            for (prefix, &w) in width.iter().enumerate() {
                if w > 0 {
                    table[prefix] = ((table.len() as u32) << WIDTH_BITS | w as u32) << LEN_BITS;
                    table.resize(table.len() + (1 << w), 0);
                }
            }
        }

        // Fill every slot whose low bits are the reversed code.
        let mut count = [0u32; MAX_BITS + 1];
        for (sym, (&code, &len)) in codes.iter().zip(lengths).enumerate() {
            if !in_table(len) {
                if len != 0 {
                    count[len as usize] += 1;
                }
                continue;
            }
            let len = len as u32;
            debug_assert!(value(sym) < 1 << (32 - LEN_BITS));
            let leaf = value(sym) << LEN_BITS | len;
            let rev = reverse_bits(code, len);
            let (slots, low, low_len) = if len <= primary_bits {
                (&mut table[..1 << primary_bits], rev, len)
            } else {
                let link = table[(rev & ((1 << primary_bits) - 1)) as usize] >> LEN_BITS;
                let offset = (link >> WIDTH_BITS) as usize;
                let width = link & ((1 << WIDTH_BITS) - 1);
                (&mut table[offset..offset + (1 << width)], rev >> primary_bits, len - primary_bits)
            };
            for slot in slots.iter_mut().skip(low as usize).step_by(1 << low_len) {
                *slot = leaf;
            }
        }

        let mut first_index = [0u32; MAX_BITS + 1];
        let mut next = 0u32;
        for l in search_from as usize..=max_len as usize {
            first_index[l] = next;
            next += count[l];
        }
        let mut long_syms = vec![0u32; next as usize];
        let mut fill = first_index;
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 && !in_table(len) {
                long_syms[fill[len as usize] as usize] = value(sym);
                fill[len as usize] += 1;
            }
        }
        Ok(Self {
            table,
            primary_bits,
            max_len,
            search_from,
            first_code,
            count,
            first_index,
            long_syms,
        })
    }

    /// Decode one symbol from the reader. Always inlined, so that the
    /// caller's decode loop keeps the reader's state in registers.
    #[inline(always)]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffError> {
        // Bits past the end of input read as zero, so a pattern can match
        // a code longer than what remains; `consume` then reports it.
        let bits = r.peek_bits(self.max_len);
        let mut e = self.table[(bits & ((1 << self.primary_bits) - 1)) as usize];
        if e & LEN_MASK == 0 {
            if e != 0 {
                let link = e >> LEN_BITS;
                let width = link & ((1 << WIDTH_BITS) - 1);
                let sub = (bits >> self.primary_bits) & ((1 << width) - 1);
                e = self.table[(link >> WIDTH_BITS) as usize + sub as usize];
            }
            if e == 0 {
                let (sym, len) = match self.decode_long(bits) {
                    Some(found) => found,
                    None if r.bits_remaining() == 0 => return Err(HuffError::OutOfBits),
                    None => return Err(HuffError::InvalidCode),
                };
                r.consume(len)?;
                return Ok(sym);
            }
        }
        r.consume(e & LEN_MASK)?;
        Ok(e >> LEN_BITS)
    }

    /// The primary table's leaf for the next input bits, as (value, code
    /// length), or None when the code needs a subtable or the canonical
    /// search, or matches nothing. [`Self::decode`] reads the same entry.
    #[inline(always)]
    pub(crate) fn leaf(&self, bits: u64) -> Option<(u32, u32)> {
        let i = bits as usize & ((1 << self.primary_bits) - 1);
        debug_assert!(i < self.table.len());
        // SAFETY: the primary table fills the first `2^primary_bits`
        // entries, and `i` is below that.
        let e = unsafe { *self.table.get_unchecked(i) };
        let len = e & LEN_MASK;
        (len != 0).then_some((e >> LEN_BITS, len))
    }

    /// Codes the tables do not hold: match the next `max_len` bits against
    /// the codes at least `search_from` long.
    #[cold]
    fn decode_long(&self, bits: u32) -> Option<(u32, u32)> {
        let msb_first = reverse_bits(bits, self.max_len);
        for len in self.search_from..=self.max_len {
            let l = len as usize;
            let offset = (msb_first >> (self.max_len - len)).wrapping_sub(self.first_code[l]);
            if offset < self.count[l] {
                return Some((self.long_syms[(self.first_index[l] + offset) as usize], len));
            }
        }
        None
    }

    /// Entries in the primary table and all subtables.
    #[cfg(test)]
    fn table_len(&self) -> usize {
        self.table.len()
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

    /// Decode `data` one bit at a time against the canonical code ranges,
    /// under the decoder's contract: bits past the end read as zero; a
    /// code longer than what remains is `OutOfBits`; a pattern that no
    /// code matches is `InvalidCode`, or `OutOfBits` when no bit remains.
    /// Stops after the first error.
    fn reference_decode(lengths: &[u8], data: &[u8]) -> Vec<Result<u32, HuffError>> {
        let (_, first) = canonical_codes(lengths);
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        // Coded symbols in canonical order: by length, then symbol.
        let mut order: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        let total = data.len() * 8;
        let bit = |i: usize| i < total && data[i / 8] >> (i % 8) & 1 == 1;
        let (mut pos, mut out) = (0usize, Vec::new());
        loop {
            let mut code = 0u32;
            let mut found = None;
            for (len, &first_code) in first.iter().enumerate().take(max_len + 1).skip(1) {
                code = code << 1 | bit(pos + len - 1) as u32;
                let start = order.partition_point(|&s| (lengths[s as usize] as usize) < len);
                let end = order.partition_point(|&s| (lengths[s as usize] as usize) <= len);
                let rank = code.wrapping_sub(first_code) as usize;
                if rank < end - start {
                    found = Some((order[start + rank], len));
                    break;
                }
            }
            let result = match found {
                Some((_, len)) if pos + len > total => Err(HuffError::OutOfBits),
                Some((sym, len)) => {
                    pos += len;
                    Ok(sym)
                }
                None if pos == total => Err(HuffError::OutOfBits),
                None => Err(HuffError::InvalidCode),
            };
            let done = result.is_err();
            out.push(result);
            if done {
                return out;
            }
        }
    }

    /// Decode with the table decoder until the first error.
    fn table_decode(dec: &Decoder, data: &[u8]) -> Vec<Result<u32, HuffError>> {
        let mut r = BitReader::new(data);
        let mut out = Vec::new();
        loop {
            let result = dec.decode(&mut r);
            let done = result.is_err();
            out.push(result);
            if done {
                return out;
            }
        }
    }

    /// Pseudo-random bytes (xorshift), so inputs hit every table path.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Lengths 1..=27, one code each, and a second 27-bit code when
    /// `complete`: a comb whose deep end is past the two-level reach.
    fn comb(complete: bool) -> Vec<u8> {
        let mut lengths: Vec<u8> = (1..=MAX_BITS as u8).collect();
        if complete {
            lengths.push(MAX_BITS as u8);
        }
        lengths
    }

    /// All-ones runs reach the deep end of a comb; noise covers the rest.
    fn probe_inputs() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..=24).map(|n| vec![0xFF; n]).collect();
        inputs.extend((0..=40).map(|n| noise(n as u64 + 1, n)));
        inputs.extend((0..8).map(|n| [vec![0xFF; 3], vec![0x7F], noise(99, n)].concat()));
        inputs
    }

    #[test]
    fn every_code_length_matches_the_reference() {
        // A complete comb, the same comb missing its last code, and a
        // Fibonacci code built by the encoder's length limiter.
        let mut fib = vec![0u32; 40];
        let (mut a, mut b) = (1u32, 1u32);
        for f in fib.iter_mut() {
            *f = a;
            (a, b) = (b, a.saturating_add(b));
        }
        let tables = [comb(true), comb(false), build_code_lengths(&fib, MAX_BITS)];
        for lengths in &tables {
            let dec = Decoder::from_lengths(lengths).unwrap();
            for data in probe_inputs() {
                assert_eq!(
                    table_decode(&dec, &data),
                    reference_decode(lengths, &data),
                    "{lengths:?} on {data:02x?}"
                );
            }
        }
    }

    #[test]
    fn many_prefixes_own_subtables() {
        // 4096 13-bit codes fill half of the 12-bit prefixes two to a
        // prefix; 8192 14-bit codes fill the other half four to a prefix.
        let lengths: Vec<u8> = [vec![13u8; 4096], vec![14u8; 8192]].concat();
        let dec = Decoder::from_lengths(&lengths).unwrap();
        assert_eq!(dec.table_len(), 4096 + 2048 * 2 + 2048 * 4);
        let enc = Encoder::from_lengths(&lengths);
        let stream: Vec<usize> = (0..lengths.len()).rev().step_by(3).collect();
        let mut w = BitWriter::new();
        for &s in &stream {
            let (code, len) = enc.code(s);
            w.write_bits(code as u64, len as u32);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(dec.decode(&mut r), Ok(s as u32));
        }
        for data in [noise(7, 64), noise(8, 5)] {
            assert_eq!(table_decode(&dec, &data), reference_decode(&lengths, &data));
        }
    }

    #[test]
    fn last_code_may_end_on_the_final_bit() {
        // Eight 4-bit codes of a 16-symbol code end exactly on byte 4, after
        // the stream's only 8-byte window is gone.
        let lengths = vec![4u8; 16];
        let enc = Encoder::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        for n_bytes in 1..=20usize {
            let stream: Vec<usize> = (0..n_bytes * 2).map(|i| (i * 7) % 16).collect();
            let mut w = BitWriter::new();
            for &s in &stream {
                let (code, len) = enc.code(s);
                w.write_bits(code as u64, len as u32);
            }
            let bytes = w.finish();
            assert_eq!(bytes.len(), n_bytes);
            let mut r = BitReader::new(&bytes);
            for &s in &stream {
                assert_eq!(dec.decode(&mut r), Ok(s as u32), "{n_bytes} bytes");
            }
            assert_eq!(dec.decode(&mut r), Err(HuffError::OutOfBits), "{n_bytes} bytes");
        }
    }

    #[test]
    fn every_tail_after_the_last_word_refill_roundtrips() {
        // Streams of 8 to 23 bytes leave 0 to 7 bytes after the last
        // 8-byte refill, read a byte at a time.
        let freqs: Vec<u32> = (1..=300).map(|i| 3000 / i).collect();
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        for len in 8..24 {
            for seed in 0..4 {
                let data = noise(seed * 31 + len as u64, len);
                assert_eq!(table_decode(&dec, &data), reference_decode(&lengths, &data));
            }
        }
    }

    #[test]
    fn long_code_errors_past_the_subtables() {
        // The comb's codes of 21 bits and more are past the two-level
        // reach. Without its last code, 27 one bits match nothing.
        let incomplete = Decoder::from_lengths(&comb(false)).unwrap();
        let ones = [0xFFu8; 4];
        assert_eq!(incomplete.decode(&mut BitReader::new(&ones)), Err(HuffError::InvalidCode));
        // With it, the same bits are the 27-bit code; cut after 24 bits,
        // it runs out.
        let complete = Decoder::from_lengths(&comb(true)).unwrap();
        assert_eq!(complete.decode(&mut BitReader::new(&ones)), Ok(MAX_BITS as u32));
        assert_eq!(complete.decode(&mut BitReader::new(&ones[..3])), Err(HuffError::OutOfBits));
        // A 17-bit code, inside a subtable, cut after 16 bits.
        assert_eq!(complete.decode(&mut BitReader::new(&[0xFF; 2])), Err(HuffError::OutOfBits));
        assert_eq!(complete.decode(&mut BitReader::new(&[0xFF, 0xFF, 0x00])), Ok(16));
    }

    #[test]
    fn deep_combs_stay_linear() {
        // Canonical assignment puts longer codes after shorter ones, so
        // a 12-bit prefix holding a 27-bit code holds a comb down to it.
        // One comb alone would give its prefix an uncapped subtable of
        // 2^15 entries; 4096 prefixes, each a 16-symbol comb down to 27
        // bits, give 65536 long codes over every prefix.
        let deep = |comb: &[u8], copies: usize| -> Vec<u8> {
            comb.iter().copied().cycle().take(copies * comb.len()).collect()
        };
        let tables = [
            comb(true),
            deep(&(13..=MAX_BITS as u8).chain([MAX_BITS as u8]).collect::<Vec<_>>(), 4096),
        ];
        for lengths in &tables {
            let dec = Decoder::from_lengths(lengths).unwrap();
            let long = lengths.iter().filter(|&&l| l > 12).count();
            assert!(dec.table_len() <= (1 << 12) + (1 << 8) * long, "{} entries", dec.table_len());
            // The deepest codes still decode, through the canonical search.
            let enc = Encoder::from_lengths(lengths);
            let stream = [lengths.len() - 1, 0, lengths.len() / 2, 14, 15, lengths.len() - 2];
            let mut w = BitWriter::new();
            for &s in &stream {
                let (code, len) = enc.code(s);
                w.write_bits(code as u64, len as u32);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &s in &stream {
                assert_eq!(dec.decode(&mut r), Ok(s as u32));
            }
        }
    }

    #[test]
    fn an_empty_alphabet_matches_nothing() {
        let dec = Decoder::from_lengths(&[0, 0, 0]).unwrap();
        assert_eq!(dec.decode(&mut BitReader::new(&[])), Err(HuffError::OutOfBits));
        assert_eq!(dec.decode(&mut BitReader::new(&[0x00])), Err(HuffError::InvalidCode));
    }
}
