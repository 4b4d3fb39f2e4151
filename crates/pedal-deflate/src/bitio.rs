//! LSB-first bit-level I/O used by the DEFLATE format.
//!
//! DEFLATE packs data elements starting at the least-significant bit of each
//! byte. Huffman codes are packed starting from their most-significant bit,
//! which the encoder handles by pre-reversing code bit patterns.

/// Accumulating LSB-first bit writer over a `Vec<u8>`. It flushes 32 bits
/// at a time, so up to 31 bits wait in the accumulator between writes.
#[derive(Debug)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bit accumulator; bits fill from the LSB upwards, none set above
    /// `nbits`.
    acc: u64,
    /// Number of valid bits in `acc` (always < 32 between writes).
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self { out: Vec::new(), acc: 0, nbits: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self { out: Vec::with_capacity(cap), acc: 0, nbits: 0 }
    }

    /// Continue writing after the bytes already in `out`.
    pub fn append_to(out: Vec<u8>) -> Self {
        Self { out, acc: 0, nbits: 0 }
    }

    /// Write the low `n` bits of `bits` (n <= 32, so the at most 31
    /// waiting bits plus `n` fit the accumulator).
    #[inline]
    pub fn write_bits(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(bits >> n == 0);
        self.acc |= bits << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        while self.nbits > 0 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
    }

    /// Write raw bytes; caller must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Total number of bits written so far (including unflushed ones).
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.nbits as u64
    }

    /// Finish writing, flushing any partial byte (zero-padded).
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Error returned when a reader runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

/// LSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Refill the accumulator to at least 56 bits when input remains:
    /// one 8-byte load while 8 bytes remain, then a byte at a time.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            self.load(u64::from_le_bytes(word.try_into().expect("an 8-byte slice")));
            return;
        }
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Take the whole bytes of `word`, the 8 at `pos`, that fit above the
    /// buffered bits, so that no bit is set above `nbits`.
    #[inline(always)]
    fn load(&mut self, word: u64) {
        let take = (63 - self.nbits) / 8;
        self.acc |= (word & ((1u64 << (take * 8)) - 1)) << self.nbits;
        self.pos += take as usize;
        self.nbits += take * 8;
    }

    /// Read `n` bits (n <= 32). Returns an error if the stream is exhausted.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32, OutOfBits> {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        let out = if n == 0 { 0 } else { (self.acc & ((1u64 << n) - 1)) as u32 };
        self.acc >>= n;
        self.nbits -= n;
        Ok(out)
    }

    /// Peek up to `n` bits without consuming (may return fewer near EOF;
    /// missing high bits read as zero).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
        }
        if n == 0 {
            0
        } else {
            (self.acc & ((1u64 << n) - 1)) as u32
        }
    }

    /// Consume `n` bits previously peeked. `n` must not exceed available bits.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), OutOfBits> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Number of bits still available (buffered + unread input).
    pub fn bits_remaining(&self) -> u64 {
        self.nbits as u64 + (self.data.len() - self.pos) as u64 * 8
    }

    /// Discard buffered bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Take `len` whole bytes straight from the input; requires byte
    /// alignment. The buffered bytes are the last ones loaded, so the
    /// bytes start that many before the next byte to load.
    pub fn take_bytes(&mut self, len: usize) -> Result<&'a [u8], OutOfBits> {
        debug_assert_eq!(self.nbits % 8, 0);
        let start = self.pos - self.nbits as usize / 8;
        let bytes = self.data.get(start..).and_then(|rest| rest.get(..len)).ok_or(OutOfBits)?;
        self.pos = start + len;
        self.acc = 0;
        self.nbits = 0;
        Ok(bytes)
    }

    /// Input bytes not yet loaded into the accumulator.
    #[inline(always)]
    pub(crate) fn bytes_left(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Load at least 56 bits with one 8-byte read; requires
    /// [`Self::bytes_left`] `>= 8`.
    #[inline(always)]
    pub(crate) fn refill_word(&mut self) {
        assert!(self.bytes_left() >= 8);
        // SAFETY: the 8 bytes at `pos` are in bounds, as just checked.
        let word = unsafe { self.data.as_ptr().add(self.pos).cast::<u64>().read_unaligned() };
        self.load(u64::from_le(word));
        debug_assert!(self.nbits >= 56);
    }

    /// The buffered bits, the next one lowest; none are set above the
    /// buffered count.
    #[inline(always)]
    pub(crate) fn bits(&self) -> u64 {
        self.acc
    }

    /// Drop `n` buffered bits, which the caller has checked are there.
    #[inline(always)]
    pub(crate) fn drop_bits(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc >>= n;
        self.nbits -= n;
    }
}

/// Reverse the low `n` bits of `code` (used to emit Huffman codes MSB-first
/// through an LSB-first writer).
#[inline]
pub fn reverse_bits(code: u32, n: u32) -> u32 {
    code.reverse_bits() >> (32 - n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let fields: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b10, 2),
            (0b11111, 5),
            (0xABCD, 16),
            (0x1FFFFF, 21),
            (0, 3),
            (0xFFFF_FFFF >> 2, 30),
        ];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap() as u64, v);
        }
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.align_byte();
        w.write_bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        r.align_byte();
        assert_eq!(r.take_bytes(3).unwrap(), [1, 2, 3]);
    }

    #[test]
    fn taken_bytes_start_with_the_buffered_ones() {
        let data: Vec<u8> = (1..=20).collect();
        for skip in 0..4u32 {
            let mut r = BitReader::new(&data);
            // The first read loads 7 bytes; `skip` of them are consumed.
            for b in 1..=skip {
                assert_eq!(r.read_bits(8).unwrap(), b);
            }
            let s = skip as u8;
            assert_eq!(r.take_bytes(3).unwrap(), [s + 1, s + 2, s + 3]);
            assert_eq!(r.read_bits(8).unwrap(), skip + 4, "reading resumes after them");
            let rest = 16 - skip as usize;
            assert_eq!(r.take_bytes(rest + 1), Err(OutOfBits));
            assert_eq!(r.take_bytes(rest).unwrap().last(), Some(&20));
        }
    }

    #[test]
    fn out_of_bits_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn peek_then_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0x5A5A, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(8), 0x5A);
        r.consume(4).unwrap();
        assert_eq!(r.peek_bits(4), 0x5);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b100, 3), 0b001);
        assert_eq!(reverse_bits(0b1011, 4), 0b1101);
    }

    #[test]
    fn bit_len_tracks_partial() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0x7F, 7);
        assert_eq!(w.bit_len(), 9);
    }
}
