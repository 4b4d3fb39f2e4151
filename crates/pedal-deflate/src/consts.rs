//! Static tables from RFC 1951 section 3.2.5: length/distance code
//! parameters and the code-length-code symbol permutation.

/// Number of literal/length symbols (0..=285).
pub const NUM_LITLEN: usize = 286;
/// Number of distance symbols (0..=29).
pub const NUM_DIST: usize = 30;
/// Number of code-length-code symbols.
pub const NUM_CLC: usize = 19;
/// End-of-block symbol.
pub const EOB: u16 = 256;
/// Maximum code length for literal/length and distance alphabets.
pub const MAX_CODE_LEN: usize = 15;
/// Maximum code length for the code-length alphabet.
pub const MAX_CLC_LEN: usize = 7;
/// Minimum/maximum LZ77 match length.
pub const MIN_MATCH: usize = 3;
pub const MAX_MATCH: usize = 258;
/// LZ77 window size.
pub const WINDOW_SIZE: usize = 32 * 1024;

/// Base match length for each length code (codes 257..=285).
pub const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for each length code.
pub const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];

/// Base distance for each distance code (codes 0..=29).
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for each distance code.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Order in which code-length-code lengths are transmitted (RFC 1951 §3.2.7).
pub const CLC_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Map a match length (3..=258) to its length code index (0..=28, i.e.
/// symbol 257 + index).
#[inline]
pub fn length_code(len: usize) -> usize {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    // Binary-search-free lookup: the table is small enough to scan backwards
    // rarely, but a 256-entry LUT is faster and branch-free.
    LENGTH_TO_CODE[len - MIN_MATCH] as usize
}

/// Map a distance (1..=32768) to its distance code (0..=29).
#[inline]
pub fn dist_code(dist: usize) -> usize {
    DIST_TO_CODE[dist_slot(dist)] as usize
}

/// The slot of a distance (1..=32768) in a 512-entry table: `dist - 1` up
/// to 255, then `256 + (dist - 1) / 128`, since every 128 distances from
/// 257 on share a code (zlib's `_dist_code` layout). A select, not a
/// branch, so random distances cost no mispredictions.
#[inline]
pub fn dist_slot(dist: usize) -> usize {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    let d = dist - 1;
    let far = 256 + (d >> 7);
    if d < 256 {
        d
    } else {
        far
    }
}

/// LUT: match length - 3 -> length code index.
pub static LENGTH_TO_CODE: [u8; 256] = build_length_lut();

const fn build_length_lut() -> [u8; 256] {
    let mut lut = [0u8; 256];
    let mut code = 0usize;
    let mut len = 0usize; // len is (match_len - 3)
    while len < 256 {
        // Advance code while len+3 exceeds the range of the current code.
        while code + 1 < 29 && (len + 3) >= LENGTH_BASE[code + 1] as usize {
            code += 1;
        }
        // Special case: length 258 is code 28 exactly; lengths 227..=257 are
        // code 27 (base 227, 5 extra bits).
        if len + 3 == 258 {
            lut[len] = 28;
        } else if code == 28 {
            lut[len] = 27;
        } else {
            lut[len] = code as u8;
        }
        len += 1;
    }
    lut
}

/// LUT: [`dist_slot`] -> distance code.
pub static DIST_TO_CODE: [u8; 512] = build_dist_lut();

const fn dist_code_slow(dist: usize) -> u8 {
    let mut code = 29usize;
    loop {
        if dist >= DIST_BASE[code] as usize {
            return code as u8;
        }
        code -= 1;
    }
}

const fn build_dist_lut() -> [u8; 512] {
    let mut lut = [0u8; 512];
    let mut slot = 0usize;
    while slot < 512 {
        // The first distance of the slot; `dist_slot` uses no slot
        // between 256 and 257, which hold the codes of 1 and 129.
        let dist = if slot < 256 { slot + 1 } else { ((slot - 256) << 7) + 1 };
        lut[slot] = dist_code_slow(dist);
        slot += 1;
    }
    lut
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_code_bases_roundtrip() {
        for (code, &base) in LENGTH_BASE.iter().enumerate() {
            assert_eq!(length_code(base as usize), code, "base {base}");
        }
    }

    #[test]
    fn length_code_covers_full_range() {
        for len in MIN_MATCH..=MAX_MATCH {
            let code = length_code(len);
            let base = LENGTH_BASE[code] as usize;
            let extra = LENGTH_EXTRA[code] as usize;
            assert!(len >= base, "len {len} below base of code {code}");
            assert!(
                len - base < (1 << extra) || (code == 28 && len == 258),
                "len {len} out of range for code {code}"
            );
        }
    }

    #[test]
    fn length_258_is_code_28() {
        assert_eq!(length_code(258), 28);
        // 257 must use code 27 with extra bits, not code 28.
        assert_eq!(length_code(257), 27);
    }

    #[test]
    fn dist_code_bases_roundtrip() {
        for (code, &base) in DIST_BASE.iter().enumerate() {
            assert_eq!(dist_code(base as usize), code, "base {base}");
        }
    }

    #[test]
    fn dist_code_covers_full_range() {
        for dist in 1..=WINDOW_SIZE {
            let code = dist_code(dist);
            let base = DIST_BASE[code] as usize;
            let extra = DIST_EXTRA[code] as usize;
            assert!(dist >= base);
            assert!(dist - base < (1 << extra));
        }
    }
}
