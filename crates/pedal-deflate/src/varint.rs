//! Unsigned LEB128 varints: the one writer and the one reader behind every
//! length and count field in the workspace's formats (PEDAL messages,
//! PSF1 frames, PCO1 containers, SZ3 cores and Huffman headers).

/// Why [`get_uvarint`] could not read a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended before the varint's last byte.
    Truncated,
    /// The varint does not fit in a `u64`: its tenth byte is above 1, or
    /// it continues past ten bytes.
    Overflow,
}

/// Append `v` as an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_uvarint`] writes for `v`.
pub fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read an unsigned varint at `*i`. On success `*i` moves past it; on
/// error `*i` is left where it was, so a streaming reader can retry the
/// same position once more input has arrived.
pub fn get_uvarint(data: &[u8], i: &mut usize) -> Result<u64, VarintError> {
    let mut v = 0u64;
    for (k, &b) in data.get(*i..).unwrap_or_default().iter().enumerate() {
        let shift = 7 * k as u32;
        // The tenth byte holds bit 63 alone; anything more overflows.
        if shift == 63 && b > 1 {
            return Err(VarintError::Overflow);
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            *i += k + 1;
            return Ok(v);
        }
    }
    Err(VarintError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut i = 0;
        for &v in &values {
            let at = i;
            assert_eq!(get_uvarint(&buf, &mut i), Ok(v));
            assert_eq!(i - at, uvarint_len(v), "length of {v}");
        }
        assert_eq!(i, buf.len());
    }

    #[test]
    fn truncation_returns_none() {
        // Every cut-off prefix of a varint, down to the empty input.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut i = 0;
            assert_eq!(get_uvarint(&buf[..cut], &mut i), Err(VarintError::Truncated), "cut {cut}");
            assert_eq!(i, 0, "a failed read does not move the position");
        }
        let mut i = 5;
        assert_eq!(get_uvarint(&buf[..2], &mut i), Err(VarintError::Truncated));
    }

    #[test]
    fn values_past_64_bits_overflow() {
        // `ff x9, 01` is u64::MAX; a larger tenth byte, or an eleventh
        // byte, does not fit.
        let ff9 = [0xFFu8; 9];
        assert_eq!(get_uvarint(&[&ff9[..], &[0x01]].concat(), &mut 0), Ok(u64::MAX));
        for bad in [[&ff9[..], &[0x7F]].concat(), [&ff9[..], &[0x02]].concat(), vec![0x80; 11]] {
            let mut i = 0;
            assert_eq!(get_uvarint(&bad, &mut i), Err(VarintError::Overflow), "{bad:02x?}");
            assert_eq!(i, 0);
        }
    }
}
