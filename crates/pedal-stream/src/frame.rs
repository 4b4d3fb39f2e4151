//! The PSF1 wire format: stream header, frame headers, trailer.
//!
//! Layout (all multi-byte integers little-endian, varints LEB128):
//!
//! ```text
//! stream  := header frame* trailer
//! header  := "PSF1" version:u8 codec:u8 flags:u8 chunk_size:uvarint
//! frame   := flags:u8 index:uvarint raw_len:uvarint payload_len:uvarint
//!            payload_adler:u32le payload
//! trailer := total_raw:uvarint stream_adler:u32le
//! ```
//!
//! Frame `flags` bit 0 marks the stream's final frame, bit 1 marks a raw
//! (stored) payload; all other bits are reserved and must be zero. Frame
//! indices are strictly sequential from zero so a reordered or replayed
//! frame is detected before its payload is decoded. `payload_adler`
//! covers the compressed payload (cheap per-frame integrity);
//! `stream_adler` covers the whole plaintext.

use pedal_deflate::varint::{get_uvarint, put_uvarint, VarintError};
use pedal_zlib::adler32;

/// Stream magic: "PSF1" (Pedal Streaming Frames, version family 1).
pub const MAGIC: [u8; 4] = *b"PSF1";
/// Format version carried in the header.
pub const VERSION: u8 = 1;

/// Codec id: sync-flush DEFLATE fragments (`pedal-deflate`).
pub const CODEC_DEFLATE: u8 = 1;
/// Codec id: independent LZ4 blocks (`pedal-lz4`).
pub const CODEC_LZ4: u8 = 2;
/// Codec id: pco bytes-mode chunks (`pedal-pco`).
pub const CODEC_PCO: u8 = 3;

/// Frame flag: this is the stream's final frame; the trailer follows.
pub const FRAME_LAST: u8 = 0b0000_0001;
/// Frame flag: the payload is the chunk's raw bytes (codec bypassed
/// because compression would have expanded the chunk).
pub const FRAME_RAW: u8 = 0b0000_0010;

/// Largest chunk size a decoder will accept from a stream header. Caps
/// per-frame buffering on hostile input; far above any sane chunking.
pub const MAX_CHUNK_SIZE: u64 = 1 << 30;

/// Everything that can go wrong while decoding a PSF1 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream does not start with "PSF1".
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown codec id in the stream header.
    UnknownCodec(u8),
    /// Reserved header or frame flag bits were set.
    ReservedFlags(u8),
    /// Declared chunk size is zero or exceeds [`MAX_CHUNK_SIZE`].
    BadChunkSize(u64),
    /// A varint does not fit in 64 bits.
    VarintOverflow,
    /// Frame index does not match the expected sequence position.
    FrameOutOfOrder { expected: u64, got: u64 },
    /// A frame declared more plaintext than the stream's chunk size.
    RawLenTooLarge { raw_len: u64, chunk_size: usize },
    /// A frame declared a payload larger than the compressed-size bound
    /// for the stream's chunk size.
    PayloadTooLarge { payload_len: u64, bound: usize },
    /// Per-frame payload checksum mismatch.
    PayloadChecksum,
    /// A DEFLATE payload's final-block marker disagreed with the frame's
    /// last-frame flag.
    FinalFlagMismatch,
    /// Decoded frame length differs from the declared `raw_len`.
    LengthMismatch { declared: usize, got: usize },
    /// Trailer's total plaintext length disagrees with what was decoded.
    TotalMismatch { declared: u64, decoded: u64 },
    /// Whole-plaintext Adler-32 in the trailer does not match.
    StreamChecksum,
    /// Decoding would exceed the caller's output budget.
    OutputLimitExceeded(usize),
    /// Bytes arrived after the trailer completed the stream.
    TrailingBytes(usize),
    /// The stream ended before the trailer (decoder still mid-stream).
    Truncated,
    /// The inner codec rejected a frame payload.
    Codec(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BadMagic => write!(f, "bad PSF1 magic"),
            StreamError::BadVersion(v) => write!(f, "unsupported PSF1 version {v}"),
            StreamError::UnknownCodec(c) => write!(f, "unknown stream codec id {c}"),
            StreamError::ReservedFlags(b) => write!(f, "reserved flag bits set: {b:#04x}"),
            StreamError::BadChunkSize(n) => write!(f, "invalid chunk size {n}"),
            StreamError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            StreamError::FrameOutOfOrder { expected, got } => {
                write!(f, "frame index {got} out of order (expected {expected})")
            }
            StreamError::RawLenTooLarge { raw_len, chunk_size } => {
                write!(f, "frame raw length {raw_len} exceeds chunk size {chunk_size}")
            }
            StreamError::PayloadTooLarge { payload_len, bound } => {
                write!(f, "frame payload {payload_len} exceeds bound {bound}")
            }
            StreamError::PayloadChecksum => write!(f, "frame payload checksum mismatch"),
            StreamError::FinalFlagMismatch => {
                write!(f, "deflate final-block marker disagrees with frame flags")
            }
            StreamError::LengthMismatch { declared, got } => {
                write!(f, "frame decoded to {got} bytes, declared {declared}")
            }
            StreamError::TotalMismatch { declared, decoded } => {
                write!(f, "trailer declares {declared} bytes, decoded {decoded}")
            }
            StreamError::StreamChecksum => write!(f, "stream checksum mismatch"),
            StreamError::OutputLimitExceeded(n) => {
                write!(f, "output exceeds limit of {n} bytes")
            }
            StreamError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the stream trailer")
            }
            StreamError::Truncated => write!(f, "stream truncated before trailer"),
            StreamError::Codec(e) => write!(f, "frame payload rejected: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<pedal_deflate::InflateError> for StreamError {
    fn from(e: pedal_deflate::InflateError) -> Self {
        StreamError::Codec(e.to_string())
    }
}

impl From<pedal_lz4::Lz4Error> for StreamError {
    fn from(e: pedal_lz4::Lz4Error) -> Self {
        StreamError::Codec(e.to_string())
    }
}

impl From<pedal_pco::PcoError> for StreamError {
    fn from(e: pedal_pco::PcoError) -> Self {
        StreamError::Codec(e.to_string())
    }
}

/// Upper bound on a frame payload for a given chunk size: the DEFLATE
/// stored-block worst case dominates (LZ4 and pco frames fall back to
/// [`FRAME_RAW`], capping them at the chunk size itself).
pub fn max_payload_len(chunk_size: usize) -> usize {
    pedal_deflate::max_compressed_len(chunk_size)
}

/// A validated header: known codec id, chunk size in `1..=MAX_CHUNK_SIZE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub codec: u8,
    pub chunk_size: usize,
}

/// One encoded frame payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload {
    pub bytes: Vec<u8>,
    /// The payload is the chunk itself, stored raw.
    pub raw: bool,
}

/// One frame whose header, bounds and payload checksum have been
/// validated; the payload is borrowed from the stream, not yet decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The frame carries [`FRAME_LAST`].
    pub last: bool,
    /// The frame carries [`FRAME_RAW`]: the payload is the plaintext.
    pub raw: bool,
    /// Declared plaintext length.
    pub raw_len: usize,
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// Decode the payload into a new buffer; see [`decode_into`](Self::decode_into).
    pub fn decode(&self, codec: u8) -> Result<Vec<u8>, StreamError> {
        let mut out = Vec::new();
        self.decode_into(codec, &mut out)?;
        Ok(out)
    }

    /// Decode the payload with the stream's `codec` id and append it to
    /// `out`, checking the DEFLATE final-block marker against the frame's
    /// last-frame flag and the decoded length against `raw_len`. LZ4
    /// payloads decode in place. On an error `out` keeps only what it held
    /// before.
    pub fn decode_into(&self, codec: u8, out: &mut Vec<u8>) -> Result<(), StreamError> {
        let start = out.len();
        let decoded = self.append(codec, out).and_then(|()| self.check_len(&out[start..]));
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }

    fn append(&self, codec: u8, out: &mut Vec<u8>) -> Result<(), StreamError> {
        if self.raw {
            out.extend_from_slice(self.payload);
            return Ok(());
        }
        match codec {
            CODEC_DEFLATE => {
                let (bytes, saw_final) =
                    pedal_deflate::decompress_fragment_with_limit(self.payload, self.raw_len)?;
                if saw_final != self.last {
                    return Err(StreamError::FinalFlagMismatch);
                }
                out.extend_from_slice(&bytes);
            }
            CODEC_LZ4 => pedal_lz4::decompress_block_into(
                self.payload,
                Some(self.raw_len),
                self.raw_len,
                out,
            )?,
            CODEC_PCO => {
                out.extend_from_slice(&pedal_pco::decode_bytes_chunk(self.payload, self.raw_len)?)
            }
            other => return Err(StreamError::UnknownCodec(other)),
        }
        Ok(())
    }

    /// Check plaintext decoded elsewhere (e.g. on an engine) against the
    /// declared `raw_len`.
    pub fn check_len(&self, decoded: &[u8]) -> Result<(), StreamError> {
        let (declared, got) = (self.raw_len, decoded.len());
        (got == declared).then_some(()).ok_or(StreamError::LengthMismatch { declared, got })
    }
}

/// Append the stream header.
pub(crate) fn write_header(out: &mut Vec<u8>, codec: u8, chunk_size: usize) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(codec);
    out.push(0); // header flags, reserved
    put_uvarint(out, chunk_size as u64);
}

/// Append frame `index`, which carries `raw_len` plaintext bytes.
pub(crate) fn write_frame(out: &mut Vec<u8>, index: u64, raw_len: usize, p: &Payload, last: bool) {
    out.push(if last { FRAME_LAST } else { 0 } | if p.raw { FRAME_RAW } else { 0 });
    put_uvarint(out, index);
    put_uvarint(out, raw_len as u64);
    put_uvarint(out, p.bytes.len() as u64);
    out.extend_from_slice(&adler32(&p.bytes).to_le_bytes());
    out.extend_from_slice(&p.bytes);
}

/// Append the trailer: plaintext total and whole-plaintext Adler-32.
pub(crate) fn write_trailer(out: &mut Vec<u8>, total_raw: u64, stream_adler: u32) {
    put_uvarint(out, total_raw);
    out.extend_from_slice(&stream_adler.to_le_bytes());
}

/// Parse the stream header. `Ok(None)` means more input is needed.
pub(crate) fn read_header(c: &mut Cursor<'_>) -> Result<Option<Header>, StreamError> {
    let Some(magic) = c.bytes(4) else { return Ok(None) };
    if magic != MAGIC {
        return Err(StreamError::BadMagic);
    }
    let Some(version) = c.u8() else { return Ok(None) };
    if version != VERSION {
        return Err(StreamError::BadVersion(version));
    }
    let Some(codec) = c.u8() else { return Ok(None) };
    if !(CODEC_DEFLATE..=CODEC_PCO).contains(&codec) {
        return Err(StreamError::UnknownCodec(codec));
    }
    let Some(hflags) = c.u8() else { return Ok(None) };
    if hflags != 0 {
        return Err(StreamError::ReservedFlags(hflags));
    }
    let Some(chunk_size) = c.uvarint()? else { return Ok(None) };
    if chunk_size == 0 || chunk_size > MAX_CHUNK_SIZE {
        return Err(StreamError::BadChunkSize(chunk_size));
    }
    Ok(Some(Header { codec, chunk_size: chunk_size as usize }))
}

/// Parse and validate frame `index`: reserved flags, sequence order, raw
/// length against the chunk size and the output budget (`emitted` bytes
/// already accounted of `limit`), payload length against its bound, and
/// the payload checksum. `Ok(None)` means more input is needed.
pub(crate) fn read_frame<'a>(
    c: &mut Cursor<'a>,
    header: &Header,
    index: u64,
    emitted: usize,
    limit: usize,
) -> Result<Option<Frame<'a>>, StreamError> {
    let Some(flags) = c.u8() else { return Ok(None) };
    if flags & !(FRAME_LAST | FRAME_RAW) != 0 {
        return Err(StreamError::ReservedFlags(flags));
    }
    let Some(got) = c.uvarint()? else { return Ok(None) };
    if got != index {
        return Err(StreamError::FrameOutOfOrder { expected: index, got });
    }
    let Some(raw_len) = c.uvarint()? else { return Ok(None) };
    if raw_len > header.chunk_size as u64 {
        return Err(StreamError::RawLenTooLarge { raw_len, chunk_size: header.chunk_size });
    }
    let raw_len = raw_len as usize;
    if emitted.checked_add(raw_len).is_none_or(|t| t > limit) {
        return Err(StreamError::OutputLimitExceeded(limit));
    }
    let Some(payload_len) = c.uvarint()? else { return Ok(None) };
    let bound = max_payload_len(header.chunk_size);
    if payload_len > bound as u64 {
        return Err(StreamError::PayloadTooLarge { payload_len, bound });
    }
    let Some(sum) = c.u32le() else { return Ok(None) };
    let Some(payload) = c.bytes(payload_len as usize) else { return Ok(None) };
    if adler32(payload) != sum {
        return Err(StreamError::PayloadChecksum);
    }
    let last = flags & FRAME_LAST != 0;
    Ok(Some(Frame { last, raw: flags & FRAME_RAW != 0, raw_len, payload }))
}

/// Parse the trailer after `decoded` plaintext bytes and return its
/// stream checksum. `Ok(None)` means more input is needed.
pub(crate) fn read_trailer(c: &mut Cursor<'_>, decoded: u64) -> Result<Option<u32>, StreamError> {
    let Some(total) = c.uvarint()? else { return Ok(None) };
    if total != decoded {
        return Err(StreamError::TotalMismatch { declared: total, decoded });
    }
    Ok(c.u32le())
}

/// Compare the trailer's stream checksum with the decoded plaintext's.
pub(crate) fn check_stream_sum(declared: u32, plaintext: u32) -> Result<(), StreamError> {
    (declared == plaintext).then_some(()).ok_or(StreamError::StreamChecksum)
}

/// Incremental reader over a byte slice. Every accessor returns
/// `Ok(None)` when the slice is too short — the signal that a streaming
/// decoder must wait for more input — and only errors on structurally
/// invalid bytes.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pub at: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    pub fn u32le(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(b)
    }

    pub fn uvarint(&mut self) -> Result<Option<u64>, StreamError> {
        match get_uvarint(self.buf, &mut self.at) {
            Ok(v) => Ok(Some(v)),
            Err(VarintError::Truncated) => Ok(None),
            Err(VarintError::Overflow) => Err(StreamError::VarintOverflow),
        }
    }
}

/// Byte range of one frame in an encoded stream, for structure-aware
/// mutation (`pedal-testkit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    /// Offset of the frame's flags byte.
    pub start: usize,
    /// One past the last payload byte.
    pub end: usize,
    /// Whether the frame carries [`FRAME_LAST`].
    pub last: bool,
}

/// Structural scan of a PSF1 stream: the header length and the spans of
/// the leading frames that pass the decoder's pre-decode checks, or `None`
/// for an invalid header. Exists so mutators can cut valid streams on
/// frame boundaries, not to validate streams.
pub fn frame_spans(stream: &[u8]) -> Option<(usize, Vec<FrameSpan>)> {
    let mut c = Cursor::new(stream);
    let header = read_header(&mut c).ok().flatten()?;
    let header_len = c.at;
    let mut spans = Vec::new();
    loop {
        let start = c.at;
        let Ok(Some(frame)) = read_frame(&mut c, &header, spans.len() as u64, 0, usize::MAX) else {
            break;
        };
        spans.push(FrameSpan { start, end: c.at, last: frame.last });
        if frame.last {
            break;
        }
    }
    Some((header_len, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_bounds() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.uvarint().unwrap(), Some(v));
            assert_eq!(c.at, buf.len());
        }
        // Truncated varint: need more, not an error.
        let mut c = Cursor::new(&[0x80, 0x80]);
        assert_eq!(c.uvarint().unwrap(), None);
        // Non-terminating varint: overflow.
        let mut c = Cursor::new(&[0xFF; 11]);
        assert!(matches!(c.uvarint(), Err(StreamError::VarintOverflow)));
    }

    #[test]
    fn frame_spans_rejects_non_psf1() {
        assert!(frame_spans(b"").is_none());
        assert!(frame_spans(b"PSF2aaaaaaaa").is_none());
        assert!(frame_spans(&[0u8; 64]).is_none());
    }
}
