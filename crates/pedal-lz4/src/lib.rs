//! # pedal-lz4
//!
//! From-scratch LZ4 implementation for the PEDAL reproduction: the
//! spec-conformant **block format** ([`block`]) plus a simple framed
//! container ([`frame`]) used when PEDAL needs self-describing streams.
//!
//! ```
//! let data = b"fast fast fast fast fast compression".to_vec();
//! let packed = pedal_lz4::compress(&data);
//! assert_eq!(pedal_lz4::decompress(&packed).unwrap(), data);
//! ```

pub mod block;
pub mod frame;

pub use block::{
    compress_block, compress_block_split, compress_bound, decompress_block,
    decompress_block_bytewise, decompress_block_into, decompress_block_with_limit, Lz4Error,
    DECODE_SLACK,
};
pub use frame::{
    compress_frame, decompress_frame, decompress_frame_with_limit, FrameError, DEFAULT_BLOCK_SIZE,
};

/// One-shot framed compression with default parameters.
pub fn compress(src: &[u8]) -> Vec<u8> {
    frame::compress_frame(src, frame::DEFAULT_BLOCK_SIZE, 1)
}

/// One-shot framed decompression.
pub fn decompress(src: &[u8]) -> Result<Vec<u8>, FrameError> {
    frame::decompress_frame(src)
}

/// One-shot framed decompression with an output-size cap, for streams from
/// untrusted peers.
pub fn decompress_with_limit(src: &[u8], limit: usize) -> Result<Vec<u8>, FrameError> {
    frame::decompress_frame_with_limit(src, limit)
}

#[cfg(test)]
mod tests {
    #[test]
    fn one_shot_roundtrip() {
        let data = b"one shot api one shot api".repeat(64);
        assert_eq!(super::decompress(&super::compress(&data)).unwrap(), data);
    }
}
