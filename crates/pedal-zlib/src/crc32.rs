//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum of
//! the gzip member format. Table-driven, slicing-by-eight variant.

/// Reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry tables for slicing-by-eight: `TABLES[j][b]` is the CRC
/// of byte `b` followed by `j` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1usize;
    while j < 8 {
        let mut i = 0usize;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Resume from a finished checksum value.
    pub fn from_checksum(sum: u32) -> Self {
        Self { state: !sum }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes(c[..4].try_into().unwrap());
            let hi = u32::from_le_bytes(c[4..].try_into().unwrap());
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        self.state = bytewise(crc, chunks.remainder());
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Advance the register `crc` over `data` one byte at a time.
fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One-shot CRC-32.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let full = crc32(&data);
        for split in [0usize, 1, 3, 4, 5, 4096, 9_999, 10_000] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), full, "split {split}");
        }
    }

    #[test]
    fn resume_from_checksum() {
        let data = b"resumable checksum computation";
        let mut a = Crc32::new();
        a.update(&data[..7]);
        let mut b = Crc32::from_checksum(a.finish());
        b.update(&data[7..]);
        assert_eq!(b.finish(), crc32(data));
    }

    #[test]
    fn sliced_matches_bytewise() {
        // Cross-check the slicing-by-eight path against the plain table
        // walk at every length 0..=64 and start offset 0..8 (so every
        // alignment and remainder), and over 1 MiB.
        let data: Vec<u8> = (0..(1u32 << 20)).map(|i| (i ^ (i >> 3) ^ (i >> 11)) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), !bytewise(!0, s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&data), !bytewise(!0, &data));
    }
}
