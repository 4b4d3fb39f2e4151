//! Offset bit packing for the bins: each offset is written LSB first
//! with `pedal_deflate::bitio` at the width of its bin (0..=64 bits).

use crate::PcoError;
use pedal_deflate::bitio::{BitReader, BitWriter};

/// Append an offset of `bits` bits (`offset < 2^bits`, `bits <= 64`),
/// LSB first. The shared bit writer takes at most 32 bits per call, so a
/// wider offset goes in as its low 32 bits, then the rest.
pub fn write_offset(w: &mut BitWriter, offset: u64, bits: u32) {
    if bits > 32 {
        w.write_bits(offset & 0xFFFF_FFFF, 32);
        w.write_bits(offset >> 32, bits - 32);
    } else {
        w.write_bits(offset, bits);
    }
}

/// Read an offset written by [`write_offset`]. The width comes from a bin
/// table that may be hostile, so it is checked here: above 64 bits, or
/// past the end of the stream, is a corrupt stream.
pub fn read_offset(r: &mut BitReader<'_>, bits: u32) -> Result<u64, PcoError> {
    if bits > 64 {
        return Err(PcoError::corrupt("offset width exceeds 64 bits"));
    }
    let underrun = |_| PcoError::corrupt("offset bitstream underrun");
    let lo = r.read_bits(bits.min(32)).map_err(underrun)? as u64;
    if bits <= 32 {
        return Ok(lo);
    }
    let hi = r.read_bits(bits - 32).map_err(underrun)? as u64;
    Ok(lo | hi << 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let cases: Vec<(u64, u32)> = vec![
            (0, 0),
            (1, 1),
            (0b101, 3),
            (0xFFFF, 16),
            (0xDEAD_BEEF, 32),
            (0x1_0000_0001, 33),
            (0x0123_4567_89AB_CDEF, 61),
            (u64::MAX, 64),
            (0, 64),
            (42, 7),
        ];
        let mut w = BitWriter::new();
        for &(v, b) in &cases {
            write_offset(&mut w, v, b);
        }
        let packed = w.finish();
        let mut r = BitReader::new(&packed);
        for &(v, b) in &cases {
            assert_eq!(read_offset(&mut r, b).unwrap(), v, "width {b}");
        }
    }

    #[test]
    fn underrun_is_an_error() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(read_offset(&mut r, 8).is_ok());
        assert_eq!(read_offset(&mut r, 1), Err(PcoError::corrupt("offset bitstream underrun")));
        // The high half of a wide offset can run out too.
        assert!(read_offset(&mut BitReader::new(&[0xFF; 5]), 41).is_err());
    }

    #[test]
    fn width_65_is_rejected() {
        let mut r = BitReader::new(&[0; 16]);
        assert!(read_offset(&mut r, 65).is_err());
    }

    #[test]
    fn full_width_values_survive() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            write_offset(&mut w, u64::MAX - i, 64);
        }
        let packed = w.finish();
        let mut r = BitReader::new(&packed);
        for i in 0..100u64 {
            assert_eq!(read_offset(&mut r, 64).unwrap(), u64::MAX - i);
        }
    }
}
