//! Stitching sync-flush fragments ([`crate::compress_fragment`]) back
//! into one RFC 1951 stream, as the chunk-parallel paths do.

/// An empty non-final stored block: the 5-byte sync-flush marker every
/// non-final fragment ends with.
const EMPTY_SYNC: [u8; 5] = [0x00, 0x00, 0x00, 0xFF, 0xFF];
/// An empty final stored block: what `compress_fragment(&[], _, true)`
/// emits for zero input bytes.
const EMPTY_FINAL: [u8; 5] = [0x01, 0x00, 0x00, 0xFF, 0xFF];

/// A fragment list the stitcher refuses to assemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchError {
    /// The fragment list itself was empty. Zero fragments cannot form a
    /// DEFLATE stream — even `compress(b"")` emits one final block — so
    /// passing nothing through would hand downstream decoders an
    /// unterminated (zero-byte) stream.
    NoFragments,
    /// A fragment carried no bytes at all — the chunker produced an
    /// empty range.
    EmptyFragment(usize),
    /// A multi-fragment list contained a fragment encoding zero
    /// plaintext (a bare sync-flush or empty final block). The previous
    /// fragment already ended in a sync flush, so keeping it would emit
    /// the empty stored block twice — the double-flush a zero-length
    /// trailing chunk produces on exact chunk-multiple inputs.
    DoubleFlush(usize),
}

impl std::fmt::Display for StitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StitchError::NoFragments => write!(f, "fragment list is empty"),
            StitchError::EmptyFragment(i) => write!(f, "fragment {i} is empty"),
            StitchError::DoubleFlush(i) => {
                write!(f, "fragment {i} encodes zero bytes (double sync flush)")
            }
        }
    }
}

impl std::error::Error for StitchError {}

/// Concatenate sync-flush DEFLATE fragments into one valid RFC 1951
/// stream, in index order. Rejects malformed fragment lists instead of
/// emitting a corrupt-adjacent stream: the list must be non-empty (zero
/// fragments would yield a zero-byte non-stream), every fragment must
/// carry bytes, and in a multi-fragment list none may encode zero
/// plaintext — a bare sync-flush or empty-final marker means some
/// chunker emitted a zero-length chunk, and stitching it would double
/// the empty stored block its predecessor already wrote. (A single
/// empty-final fragment stays valid: that is exactly `compress(b"")`.)
pub fn stitch_fragments(frags: &[Vec<u8>]) -> Result<Vec<u8>, StitchError> {
    if frags.is_empty() {
        return Err(StitchError::NoFragments);
    }
    let total = frags.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for (i, f) in frags.iter().enumerate() {
        if f.is_empty() {
            return Err(StitchError::EmptyFragment(i));
        }
        if frags.len() > 1 && (f[..] == EMPTY_SYNC || f[..] == EMPTY_FINAL) {
            return Err(StitchError::DoubleFlush(i));
        }
        out.extend_from_slice(f);
    }
    Ok(out)
}
