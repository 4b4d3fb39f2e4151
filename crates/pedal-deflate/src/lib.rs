//! # pedal-deflate
//!
//! A from-scratch implementation of the DEFLATE compressed data format
//! (RFC 1951), built for the PEDAL reproduction. Provides:
//!
//! * [`compress`] / [`decompress`] — one-shot raw DEFLATE streams,
//! * [`Level`] — a zlib-like 0..=9 effort ladder,
//! * [`compress_fragment`] / [`stitch_fragments`] — sync-flush fragments
//!   compressed independently (on any worker) and concatenated, in
//!   order, into one stream,
//! * the LZ77 tokenizer and canonical Huffman machinery as public modules
//!   so the SZ3 pipeline and the simulated C-Engine can reuse them; the
//!   tokenizer splits the parse of a large input across cores and still
//!   emits the tokens of the sequential parse,
//! * [`pool`] — the scoped worker pool that the split parses and the
//!   chunk-parallel designs share, and [`split`] — the one split parse
//!   of a large input across cores, shared by the tokenizer and the LZ4
//!   block compressor.
//!
//! The bitstream is interoperable with other DEFLATE decoders: it emits
//! stored, fixed-Huffman, and dynamic-Huffman blocks, choosing the cheapest
//! per block.
//!
//! ```
//! use pedal_deflate::{compress, decompress, Level};
//! let data = b"compress me compress me compress me";
//! let packed = compress(data, Level::DEFAULT);
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

pub mod bitio;
pub mod consts;
pub mod encoder;
pub mod huffman;
pub mod inflate;
pub mod lz77;
pub mod pool;
pub mod split;
mod stitch;
pub mod varint;

pub use encoder::{deflate as compress, deflate_fragment as compress_fragment, Level};
pub use inflate::{
    inflate as decompress, inflate_checked_with_limit as decompress_checked_with_limit,
    inflate_fragment_with_limit as decompress_fragment_with_limit,
    inflate_with_limit as decompress_with_limit, InflateError,
};
pub use stitch::{stitch_fragments, StitchError};

/// Upper bound on the compressed size of `n` input bytes (stored-block
/// worst case plus per-chunk framing; block splitting can leave a short
/// trailing chunk per 64 KiB block, hence 10 bytes of slack per chunk).
pub fn max_compressed_len(n: usize) -> usize {
    let chunks = n.div_ceil(65_535).max(1);
    n + chunks * 10 + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_for_incompressible_input() {
        let mut x = 0x2545F491u64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        for level in [Level::STORED, Level::FAST, Level::DEFAULT, Level::BEST] {
            let enc = compress(&data, level);
            assert!(
                enc.len() <= max_compressed_len(data.len()),
                "level {level:?}: {} > bound {}",
                enc.len(),
                max_compressed_len(data.len())
            );
            assert_eq!(decompress(&enc).unwrap(), data);
        }
    }

    #[test]
    fn empty_input() {
        for level in [Level::STORED, Level::DEFAULT] {
            let enc = compress(b"", level);
            assert!(!enc.is_empty());
            assert_eq!(decompress(&enc).unwrap(), b"");
        }
    }

    #[test]
    fn stitcher_rejects_zero_length_trailing_fragment() {
        const CHUNK: usize = 64 * 1024;
        let level = Level::DEFAULT;
        // A buggy chunker splitting an exact chunk-multiple input into
        // jobs+1 ranges hands the stitcher a zero-length trailing chunk:
        // its fragment is a bare empty-final block right after a
        // fragment that already ended in a sync flush.
        let data: Vec<u8> =
            (0..2 * CHUNK as u32).map(|i| (i / 5 % 97) as u8 ^ (i >> 13) as u8).collect();
        let good = vec![
            compress_fragment(&data[..CHUNK], level, false),
            compress_fragment(&data[CHUNK..], level, true),
        ];
        let stitched = stitch_fragments(&good).unwrap();
        assert_eq!(decompress(&stitched).unwrap(), data);

        let double_flush = vec![
            compress_fragment(&data[..CHUNK], level, false),
            compress_fragment(&data[CHUNK..], level, false),
            compress_fragment(&[], level, true),
        ];
        assert_eq!(stitch_fragments(&double_flush), Err(StitchError::DoubleFlush(2)));
        // A bare sync flush mid-stream is the same defect.
        let mid_sync = vec![
            compress_fragment(&data[..CHUNK], level, false),
            compress_fragment(&[], level, false),
            compress_fragment(&data[CHUNK..], level, true),
        ];
        assert_eq!(stitch_fragments(&mid_sync), Err(StitchError::DoubleFlush(1)));
        // And a fragment with no bytes at all is rejected outright.
        assert_eq!(stitch_fragments(&[Vec::new()]), Err(StitchError::EmptyFragment(0)));
        // But the lone empty-final fragment IS the empty stream.
        let empty = vec![compress_fragment(&[], level, true)];
        let stitched = stitch_fragments(&empty).unwrap();
        assert_eq!(decompress(&stitched).unwrap(), b"");
    }

    #[test]
    fn highly_compressible_shrinks_a_lot() {
        let data = b"abcd".repeat(25_000);
        let enc = compress(&data, Level::DEFAULT);
        assert!(enc.len() * 50 < data.len(), "got {} bytes", enc.len());
        assert_eq!(decompress(&enc).unwrap(), data);
    }
}
