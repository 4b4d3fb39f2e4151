//! Resumable PSF1 decoder: feed wire bytes at any granularity, drain
//! plaintext as frames complete; or split a complete stream into validated
//! frames to decode on several workers.

use crate::frame::{
    check_stream_sum, read_frame, read_header, read_trailer, Cursor, Frame, Header, StreamError,
    CODEC_DEFLATE,
};
use pedal_zlib::{adler32, Adler32};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Header,
    Frame,
    Trailer,
    Done,
}

/// Incremental decoder. [`feed`](Self::feed) accepts wire bytes one at a
/// time or a megabyte at a time — all validation happens at frame
/// granularity, and every structural defect is a clean [`StreamError`].
///
/// Decoded plaintext is appended in place to the caller's buffer, frame
/// by frame, with no staging copy (LZ4 frames decode straight into it).
/// Buffering is bounded: the decoder keeps only the unparsed tail of the
/// wire bytes fed so far — at most one in-flight frame (header + payload,
/// itself bounded by the stream's declared chunk size) — and parses
/// whole frames straight from the caller's slice when nothing is
/// buffered.
pub struct StreamDecoder {
    limit: usize,
    buf: Vec<u8>,
    state: State,
    header: Header,
    next_index: u64,
    emitted: usize,
    adler: Adler32,
}

impl StreamDecoder {
    /// `limit` caps total decoded plaintext — the decompression-bomb
    /// guard, enforced per frame before any payload is decoded.
    pub fn new(limit: usize) -> Self {
        Self {
            limit,
            buf: Vec::new(),
            state: State::Header,
            // Placeholder until the header is parsed.
            header: Header { codec: CODEC_DEFLATE, chunk_size: 0 },
            next_index: 0,
            emitted: 0,
            adler: Adler32::new(),
        }
    }

    /// Append wire bytes, decode every frame they complete and append its
    /// plaintext to `out`. Callers should stop feeding after an `Err`: the
    /// stream is corrupt.
    pub fn feed(&mut self, data: &[u8], out: &mut Vec<u8>) -> Result<(), StreamError> {
        if self.state == State::Done {
            if data.is_empty() {
                return Ok(());
            }
            return Err(StreamError::TrailingBytes(data.len()));
        }
        let rest = if self.buf.is_empty() {
            let used = self.steps(data, out)?;
            &data[used..]
        } else {
            let mut buf = std::mem::take(&mut self.buf);
            buf.extend_from_slice(data);
            let used = self.steps(&buf, out);
            self.buf = buf;
            self.buf.drain(..used?);
            &[]
        };
        if self.state == State::Done && self.buf.len() + rest.len() > 0 {
            return Err(StreamError::TrailingBytes(self.buf.len() + rest.len()));
        }
        self.buf.extend_from_slice(rest);
        Ok(())
    }

    /// True once the trailer has been verified.
    pub fn is_finished(&self) -> bool {
        self.state == State::Done
    }

    /// Total plaintext bytes decoded so far.
    pub fn decoded_len(&self) -> usize {
        self.emitted
    }

    /// Bytes currently buffered waiting for a frame to complete.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// Frames fully decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.next_index
    }

    /// Close the stream: [`StreamError::Truncated`] unless the trailer
    /// was seen.
    pub fn finish(self) -> Result<(), StreamError> {
        if self.state != State::Done {
            return Err(StreamError::Truncated);
        }
        Ok(())
    }

    /// Parse as many steps as `input` completes; returns the bytes used.
    fn steps(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, StreamError> {
        let mut used = 0;
        while let Some(n) = self.step(&input[used..], out)? {
            used += n;
        }
        Ok(used)
    }

    /// One parsing step over the start of `input`: the bytes it used, or
    /// `None` when more input is needed.
    fn step(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<Option<usize>, StreamError> {
        let mut c = Cursor::new(input);
        match self.state {
            State::Header => {
                let Some(header) = read_header(&mut c)? else { return Ok(None) };
                self.header = header;
                self.state = State::Frame;
            }
            State::Frame => {
                let Some(frame) =
                    read_frame(&mut c, &self.header, self.next_index, self.emitted, self.limit)?
                else {
                    return Ok(None);
                };
                let start = out.len();
                frame.decode_into(self.header.codec, out)?;
                self.adler.update(&out[start..]);
                self.emitted += frame.raw_len;
                self.next_index += 1;
                self.state = if frame.last { State::Trailer } else { State::Frame };
            }
            State::Trailer => {
                let Some(sum) = read_trailer(&mut c, self.emitted as u64)? else {
                    return Ok(None);
                };
                check_stream_sum(sum, self.adler.finish())?;
                self.state = State::Done;
            }
            State::Done => return Ok(None),
        }
        Ok(Some(c.at))
    }
}

/// One-shot convenience: decode a complete PSF1 stream with an output
/// budget.
pub fn decode_all(stream: &[u8], limit: usize) -> Result<Vec<u8>, StreamError> {
    let mut dec = StreamDecoder::new(limit);
    let mut out = Vec::new();
    dec.feed(stream, &mut out)?;
    dec.finish()?;
    Ok(out)
}

/// A buffer that holds `len` bytes of plaintext from
/// [`StreamDecoder::feed`] without growing: in-place LZ4 frames write up
/// to [`pedal_lz4::DECODE_SLACK`] bytes past their end.
pub fn output_buffer(len: usize) -> Vec<u8> {
    Vec::with_capacity(len + pedal_lz4::DECODE_SLACK)
}

/// A complete PSF1 stream whose frames passed every check
/// [`StreamDecoder`] makes before decoding a payload, and whose trailer
/// total matches them. Payloads are borrowed, not decoded.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    /// Codec id from the stream header.
    pub codec: u8,
    pub frames: Vec<Frame<'a>>,
    /// Plaintext bytes the frames declare (and the trailer confirms).
    pub total: usize,
    stream_sum: u32,
}

impl Frames<'_> {
    /// Check the frames' concatenated plaintext against the trailer.
    pub fn verify(&self, plaintext: &[u8]) -> Result<(), StreamError> {
        check_stream_sum(self.stream_sum, adler32(plaintext))
    }
}

/// Split a complete PSF1 stream into validated frames without decoding
/// them. `limit` caps the declared plaintext, as in [`decode_all`]. A
/// stream accepted here and whose frames all decode and pass
/// [`Frames::verify`] decodes to the same bytes through [`decode_all`].
pub fn split_frames(stream: &[u8], limit: usize) -> Result<Frames<'_>, StreamError> {
    let mut c = Cursor::new(stream);
    let header = read_header(&mut c)?.ok_or(StreamError::Truncated)?;
    let mut frames = Vec::new();
    let mut total = 0usize;
    loop {
        let frame = read_frame(&mut c, &header, frames.len() as u64, total, limit)?
            .ok_or(StreamError::Truncated)?;
        total += frame.raw_len;
        frames.push(frame);
        if frame.last {
            break;
        }
    }
    let stream_sum = read_trailer(&mut c, total as u64)?.ok_or(StreamError::Truncated)?;
    if c.at < stream.len() {
        return Err(StreamError::TrailingBytes(stream.len() - c.at));
    }
    Ok(Frames { codec: header.codec, frames, total, stream_sum })
}
