//! Adler-32 checksum (RFC 1950 §8.2).

/// Modulo for both checksum halves.
const MOD_ADLER: u32 = 65_521;
/// Largest n such that 255*n*(n+1)/2 + (n+1)*(MOD-1) fits in u32.
const NMAX: usize = 5552;
/// Bytes per block of [`Adler32::update`]'s lanes.
const LANES: usize = 32;

/// Incremental Adler-32 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

impl Adler32 {
    /// Fresh checksum (value 1, per the spec).
    pub fn new() -> Self {
        Self { a: 1, b: 0 }
    }

    /// Resume from a previously finished checksum value.
    pub fn from_checksum(sum: u32) -> Self {
        Self { a: sum & 0xFFFF, b: sum >> 16 }
    }

    /// Feed bytes into the checksum.
    ///
    /// Whole 32-byte blocks go through 32 lanes: lane `j` sums byte `j`
    /// of every block (`s[j]`) and, after each block, adds that sum to
    /// `t[j]`. Over `m` blocks, `t[j]` counts byte `j` of block `k`
    /// `m − k` times, so the bytewise `b` gains `32·Σt − Σ j·s[j]` plus
    /// `a` once per byte. Both fold in once per `NMAX / 32 · 32`-byte
    /// chunk, before `t` could overflow; the lane loop vectorises.
    pub fn update(&mut self, data: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        for chunk in data.chunks(NMAX / LANES * LANES) {
            let mut blocks = chunk.chunks_exact(LANES);
            let (mut s, mut t) = ([0u32; LANES], [0u32; LANES]);
            for block in &mut blocks {
                let block: &[u8; LANES] = block.try_into().expect("a whole block");
                for j in 0..LANES {
                    s[j] += u32::from(block[j]);
                    t[j] += s[j];
                }
            }
            let len = (chunk.len() - blocks.remainder().len()) as u64;
            let (mut sum, mut weighted, mut sums) = (0u64, 0u64, 0u64);
            for j in 0..LANES {
                sum += u64::from(s[j]);
                weighted += j as u64 * u64::from(s[j]);
                sums += u64::from(t[j]);
            }
            let folded = u64::from(b) + len * u64::from(a) + LANES as u64 * sums - weighted;
            b = (folded % MOD_ADLER as u64) as u32;
            a = ((u64::from(a) + sum) % MOD_ADLER as u64) as u32;
            for &byte in blocks.remainder() {
                a += u32::from(byte);
                b += a;
            }
            a %= MOD_ADLER;
            b %= MOD_ADLER;
        }
        (self.a, self.b) = (a, b);
    }

    /// Current checksum value.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot Adler-32 of a buffer.
pub fn adler32(data: &[u8]) -> u32 {
    let mut s = Adler32::new();
    s.update(data);
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Classic test vectors.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"a"), 0x0062_0062);
        assert_eq!(adler32(b"abc"), 0x024d_0127);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b"message digest"), 0x2975_0586);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let full = adler32(&data);
        for split in [0, 1, 13, 5552, 5553, 99_999, 100_000] {
            let mut s = Adler32::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), full, "split {split}");
        }
    }

    #[test]
    fn resume_from_checksum() {
        let data = b"first half / second half";
        let mut s1 = Adler32::new();
        s1.update(&data[..10]);
        let mut s2 = Adler32::from_checksum(s1.finish());
        s2.update(&data[10..]);
        assert_eq!(s2.finish(), adler32(data));
    }

    #[test]
    fn long_0xff_run_does_not_overflow() {
        let data = vec![0xFFu8; 1 << 20];
        // Compare against a naive mod-every-byte reference.
        let mut a = 1u64;
        let mut b = 0u64;
        for &byte in &data {
            a = (a + byte as u64) % MOD_ADLER as u64;
            b = (b + a) % MOD_ADLER as u64;
        }
        assert_eq!(adler32(&data), ((b as u32) << 16) | a as u32);
    }

    /// The plain definition, one byte at a time with a reduction every
    /// `NMAX` bytes: the oracle for the lane form.
    fn bytewise(mut sum: Adler32, data: &[u8]) -> Adler32 {
        for chunk in data.chunks(NMAX) {
            for &byte in chunk {
                sum.a += byte as u32;
                sum.b += sum.a;
            }
            sum.a %= MOD_ADLER;
            sum.b %= MOD_ADLER;
        }
        sum
    }

    /// Lengths around every chunk and block boundary up to three chunks.
    fn boundary_lengths() -> Vec<usize> {
        let chunk = NMAX / LANES * LANES;
        let mut lens = Vec::new();
        for k in 0..=3 {
            for edge in [k * chunk, k * NMAX] {
                for block in 0..=2 {
                    let at = edge + block * LANES;
                    lens.extend([at.saturating_sub(1), at, at + 1]);
                }
            }
        }
        for j in 0..=chunk / LANES {
            lens.extend([(j * LANES).saturating_sub(1), j * LANES, j * LANES + 1]);
        }
        lens.sort_unstable();
        lens.dedup();
        lens
    }

    #[test]
    fn lanes_match_the_bytewise_loop_at_every_length_and_offset() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..3 * NMAX + 64 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        // `update` carries only `(a, b)` from one chunk to the next, so a
        // length past `k` whole chunks resumes from their one-shot sum.
        let chunk = NMAX / LANES * LANES;
        for start in 0..8 {
            let data = &data[start..start + 3 * NMAX + 64];
            let chunks: Vec<Adler32> = (0..=data.len() / chunk)
                .map(|k| {
                    let mut s = Adler32::new();
                    s.update(&data[..k * chunk]);
                    s
                })
                .collect();
            // The oracle's prefix sums, one byte at a time.
            let mut oracle = Adler32::new();
            for len in 0..=data.len() {
                let k = len / chunk;
                let mut s = chunks[k];
                s.update(&data[k * chunk..len]);
                assert_eq!(s, oracle, "start {start}, len {len}");
                if len < data.len() {
                    oracle = bytewise(oracle, &data[len..len + 1]);
                }
            }
        }
    }

    #[test]
    fn all_0xff_at_every_boundary_is_the_overflow_worst_case() {
        let ones = vec![0xFFu8; 3 * NMAX + 3 * LANES + 2];
        for len in boundary_lengths() {
            let want = bytewise(Adler32::new(), &ones[..len]);
            assert_eq!(adler32(&ones[..len]), want.finish(), "len {len}");
            // From the largest state the sums can carry in.
            let top = Adler32 { a: MOD_ADLER - 1, b: MOD_ADLER - 1 };
            let mut s = top;
            s.update(&ones[..len]);
            assert_eq!(s, bytewise(top, &ones[..len]), "len {len} from the top state");
        }
    }

    #[test]
    fn incremental_splits_at_every_boundary_class() {
        let data: Vec<u8> = (0..3 * NMAX + 3 * LANES + 2).map(|i| (i * 131 % 251) as u8).collect();
        let full = bytewise(Adler32::new(), &data).finish();
        for split in boundary_lengths() {
            let mut s = Adler32::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finish(), full, "split {split}");
            // A block boundary that is not the whole input's: a 1-byte
            // piece in the middle shifts every later block.
            let mut s = Adler32::new();
            s.update(&data[..split / 2]);
            s.update(&data[split / 2..split / 2 + 1]);
            s.update(&data[split / 2 + 1..]);
            assert_eq!(s.finish(), full, "three pieces around {split}");
        }
    }
}
