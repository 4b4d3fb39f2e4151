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
/// Buffering is bounded: at most one in-flight frame (header + payload,
/// itself bounded by the stream's declared chunk size) plus whatever
/// decoded plaintext the caller has not yet [`take`](Self::take)n.
pub struct StreamDecoder {
    limit: usize,
    buf: Vec<u8>,
    pos: usize,
    state: State,
    header: Header,
    next_index: u64,
    emitted: usize,
    adler: Adler32,
    ready: Vec<u8>,
}

impl StreamDecoder {
    /// `limit` caps total decoded plaintext — the decompression-bomb
    /// guard, enforced per frame before any payload is decoded.
    pub fn new(limit: usize) -> Self {
        Self {
            limit,
            buf: Vec::new(),
            pos: 0,
            state: State::Header,
            // Placeholder until the header is parsed.
            header: Header { codec: CODEC_DEFLATE, chunk_size: 0 },
            next_index: 0,
            emitted: 0,
            adler: Adler32::new(),
            ready: Vec::new(),
        }
    }

    /// Append wire bytes and decode as many complete frames as they
    /// finish. Errors are sticky only in the sense that the stream is
    /// corrupt — callers should stop feeding after an `Err`.
    pub fn feed(&mut self, data: &[u8]) -> Result<(), StreamError> {
        if self.state == State::Done {
            if data.is_empty() {
                return Ok(());
            }
            return Err(StreamError::TrailingBytes(data.len()));
        }
        self.buf.extend_from_slice(data);
        while self.step()? {}
        self.compact();
        if self.state == State::Done && self.pos < self.buf.len() {
            return Err(StreamError::TrailingBytes(self.buf.len() - self.pos));
        }
        Ok(())
    }

    /// Drain the plaintext decoded so far.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.ready)
    }

    /// True once the trailer has been verified.
    pub fn is_finished(&self) -> bool {
        self.state == State::Done
    }

    /// Total plaintext bytes decoded so far (including already-taken).
    pub fn decoded_len(&self) -> usize {
        self.emitted
    }

    /// Bytes currently buffered waiting for a frame to complete.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Frames fully decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.next_index
    }

    /// Close the stream: errors with [`StreamError::Truncated`] unless
    /// the trailer was seen, otherwise returns the not-yet-taken
    /// plaintext.
    pub fn finish(self) -> Result<Vec<u8>, StreamError> {
        if self.state != State::Done {
            return Err(StreamError::Truncated);
        }
        Ok(self.ready)
    }

    /// One parsing step. `Ok(true)` means progress was made; `Ok(false)`
    /// means more input is needed.
    fn step(&mut self) -> Result<bool, StreamError> {
        let mut c = Cursor::new(&self.buf[self.pos..]);
        match self.state {
            State::Header => {
                let Some(header) = read_header(&mut c)? else { return Ok(false) };
                self.header = header;
                self.state = State::Frame;
            }
            State::Frame => {
                let Some(frame) =
                    read_frame(&mut c, &self.header, self.next_index, self.emitted, self.limit)?
                else {
                    return Ok(false);
                };
                let decoded = frame.decode(self.header.codec)?;
                self.adler.update(&decoded);
                self.ready.extend_from_slice(&decoded);
                self.emitted += frame.raw_len;
                self.next_index += 1;
                self.state = if frame.last { State::Trailer } else { State::Frame };
            }
            State::Trailer => {
                let Some(sum) = read_trailer(&mut c, self.emitted as u64)? else {
                    return Ok(false);
                };
                check_stream_sum(sum, self.adler.finish())?;
                self.state = State::Done;
            }
            State::Done => return Ok(false),
        }
        self.pos += c.at;
        Ok(true)
    }

    /// Drop consumed bytes once they dominate the buffer, keeping
    /// in-flight buffering proportional to one frame.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// One-shot convenience: decode a complete PSF1 stream with an output
/// budget.
pub fn decode_all(stream: &[u8], limit: usize) -> Result<Vec<u8>, StreamError> {
    let mut dec = StreamDecoder::new(limit);
    dec.feed(stream)?;
    dec.finish()
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
