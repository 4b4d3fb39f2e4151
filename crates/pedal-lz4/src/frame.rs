//! A minimal LZ4 frame wrapper.
//!
//! Carries magic, flags, the decompressed content size, and a sequence of
//! independently-decodable blocks. Block checksums use the same xxhash-free
//! additive checksum used elsewhere in the workspace (we do not claim
//! byte-level interop with the reference frame format — the *block* format
//! is spec-conformant, which is what the simulated C-Engine consumes).

use crate::block::{compress_block, compress_bound, decompress_block, Lz4Error};

/// Frame magic: "PLZ4" to distinguish from the reference frame magic.
pub const FRAME_MAGIC: u32 = 0x504C_5A34;
/// Default maximum block size (4 MiB, matching the reference default).
pub const DEFAULT_BLOCK_SIZE: usize = 4 * 1024 * 1024;

/// Frame-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Missing or wrong magic number.
    BadMagic(u32),
    /// Header or block header truncated.
    Truncated,
    /// A block failed to decompress.
    Block(Lz4Error),
    /// Total content length disagrees with the header.
    ContentSizeMismatch { expected: u64, actual: u64 },
    /// Decoded output would exceed the caller's limit.
    OutputLimitExceeded(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad lz4 frame magic {m:#010x}"),
            FrameError::Truncated => write!(f, "truncated lz4 frame"),
            FrameError::Block(e) => write!(f, "lz4 block error: {e}"),
            FrameError::ContentSizeMismatch { expected, actual } => {
                write!(f, "content size {actual}, header says {expected}")
            }
            FrameError::OutputLimitExceeded(n) => write!(f, "frame output exceeds {n} bytes"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<Lz4Error> for FrameError {
    fn from(e: Lz4Error) -> Self {
        FrameError::Block(e)
    }
}

/// Compress into a framed stream with the given block size.
pub fn compress_frame(src: &[u8], block_size: usize, accel: u32) -> Vec<u8> {
    let block_size = block_size.max(1);
    let mut out = Vec::with_capacity(src.len() / 2 + 32);
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(src.len() as u64).to_le_bytes());
    out.extend_from_slice(&(block_size as u32).to_le_bytes());
    for chunk in src.chunks(block_size) {
        encode_frame_block(&mut out, chunk, accel);
    }
    // End mark: a zero-length block.
    out.extend_from_slice(&[0; 4]);
    out
}

/// Append the frame block for one `chunk` of the source: its LZ4 block,
/// or the chunk stored raw when compression would expand it.
fn encode_frame_block(out: &mut Vec<u8>, chunk: &[u8], accel: u32) {
    let packed = compress_block(chunk, accel);
    // Store uncompressed: high bit of the length marks a raw block.
    let (len, body) = if packed.len() >= chunk.len() {
        (chunk.len() as u32 | 0x8000_0000, chunk)
    } else {
        (packed.len() as u32, &packed[..])
    };
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
}

/// Decompress a framed stream produced by [`compress_frame`].
///
/// The declared content size is untrusted input; total output is still
/// bounded by the LZ4 expansion of the source, but callers decoding hostile
/// streams should prefer [`decompress_frame_with_limit`].
pub fn decompress_frame(src: &[u8]) -> Result<Vec<u8>, FrameError> {
    decompress_frame_with_limit(src, usize::MAX)
}

/// Hard cap on speculative preallocation from the untrusted content-size
/// header: the output vector grows on demand past this.
const MAX_PREALLOC: usize = 1 << 22;

/// Decompress a framed stream, rejecting any stream whose output would
/// exceed `limit` bytes — the frame-level mirror of `inflate_with_limit`.
/// A hostile header cannot trigger a large allocation: preallocation is
/// capped and every block is decoded against the remaining budget.
pub fn decompress_frame_with_limit(src: &[u8], limit: usize) -> Result<Vec<u8>, FrameError> {
    let mut i = 0usize;
    let magic = u32::from_le_bytes(take(src, &mut i)?);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let content_len = u64::from_le_bytes(take(src, &mut i)?);
    if content_len > limit as u64 {
        return Err(FrameError::OutputLimitExceeded(limit));
    }
    let _block_size = u32::from_le_bytes(take(src, &mut i)?);
    let mut out = Vec::with_capacity((content_len as usize).min(MAX_PREALLOC));
    loop {
        let raw_len = u32::from_le_bytes(take(src, &mut i)?);
        if raw_len == 0 {
            break;
        }
        let is_raw = raw_len & 0x8000_0000 != 0;
        let len = (raw_len & 0x7FFF_FFFF) as usize;
        let orig = u32::from_le_bytes(take(src, &mut i)?) as usize;
        if i + len > src.len() {
            return Err(FrameError::Truncated);
        }
        let budget = limit - out.len();
        if is_raw {
            if len > budget {
                return Err(FrameError::OutputLimitExceeded(limit));
            }
            out.extend_from_slice(&src[i..i + len]);
        } else {
            if orig > budget {
                return Err(FrameError::OutputLimitExceeded(limit));
            }
            let block = decompress_block(&src[i..i + len], Some(orig), budget)?;
            out.extend_from_slice(&block);
        }
        i += len;
    }
    if out.len() as u64 != content_len {
        return Err(FrameError::ContentSizeMismatch {
            expected: content_len,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}

/// The `N` bytes at `*i`, moving `*i` past them.
fn take<const N: usize>(src: &[u8], i: &mut usize) -> Result<[u8; N], FrameError> {
    let mut bytes = [0; N];
    bytes.copy_from_slice(src.get(*i..*i + N).ok_or(FrameError::Truncated)?);
    *i += N;
    Ok(bytes)
}

/// Worst-case framed size for `n` bytes with the given block size.
pub fn frame_bound(n: usize, block_size: usize) -> usize {
    let blocks = n.div_ceil(block_size.max(1)).max(1);
    16 + blocks * 8 + compress_bound(n) + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let data = b"frame me frame me frame me".repeat(1000);
        let enc = compress_frame(&data, 4096, 1);
        assert!(enc.len() <= frame_bound(data.len(), 4096));
        assert_eq!(decompress_frame(&enc).unwrap(), data);
    }

    #[test]
    fn empty_frame() {
        let enc = compress_frame(b"", DEFAULT_BLOCK_SIZE, 1);
        assert_eq!(decompress_frame(&enc).unwrap(), b"");
    }

    #[test]
    fn incompressible_blocks_stored_raw() {
        let mut x = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let enc = compress_frame(&data, 8192, 1);
        assert!(enc.len() <= frame_bound(data.len(), 8192));
        assert_eq!(decompress_frame(&enc).unwrap(), data);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = compress_frame(b"data", 64, 1);
        enc[0] ^= 0xFF;
        assert!(matches!(decompress_frame(&enc), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn truncated_frame_rejected() {
        let enc = compress_frame(&b"block one block two".repeat(50), 128, 1);
        for cut in [3, 10, enc.len() / 2, enc.len() - 1] {
            assert!(decompress_frame(&enc[..cut]).is_err(), "cut {cut}");
        }
    }
}
