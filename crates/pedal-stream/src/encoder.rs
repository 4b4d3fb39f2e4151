//! Incremental PSF1 encoder: buffer at most one chunk, emit frames as
//! soon as a chunk is provably not the stream's last.

use crate::frame::{
    write_frame, write_header, write_trailer, Payload, CODEC_DEFLATE, CODEC_LZ4, CODEC_PCO,
    MAX_CHUNK_SIZE,
};
use pedal_deflate::{pool, Level};
use pedal_pco::PcoConfig;
use pedal_zlib::Adler32;

/// Default chunk: 1 MiB. The one default for every chunked path (PSF1
/// streams, `pedal::parallel`, the service fan-out): it balances fan-out
/// (a 16 MiB payload fills 16 channels) against per-chunk ratio loss
/// (matches cannot cross chunk boundaries, and each non-final DEFLATE
/// fragment pays a 5-byte sync flush — about 0.5% ratio overhead at
/// this size on silesia-xml, `BENCH_ablation_par.json`).
pub const DEFAULT_CHUNK: usize = 1 << 20;

/// Which codec fills the frame payloads, with its encoder-side knobs.
/// The knobs never reach the wire — a decoder needs only the codec id.
#[derive(Debug, Clone)]
pub enum StreamCodec {
    /// Sync-flush DEFLATE fragments; concatenated payloads form one
    /// valid RFC 1951 stream (byte-identical to
    /// `pedal_deflate::stitch_fragments` over the same chunks).
    Deflate(Level),
    /// Independent LZ4 blocks, raw-stored when compression expands.
    Lz4 {
        /// Acceleration factor, as in `pedal_lz4::compress_block`.
        accel: u32,
    },
    /// pco bytes-mode chunks, raw-stored when compression expands.
    Pco(PcoConfig),
}

impl StreamCodec {
    /// Wire codec id for the stream header.
    pub fn id(&self) -> u8 {
        match self {
            StreamCodec::Deflate(_) => CODEC_DEFLATE,
            StreamCodec::Lz4 { .. } => CODEC_LZ4,
            StreamCodec::Pco(_) => CODEC_PCO,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            StreamCodec::Deflate(_) => "deflate",
            StreamCodec::Lz4 { .. } => "lz4",
            StreamCodec::Pco(_) => "pco",
        }
    }

    /// Encode one chunk as a frame payload. DEFLATE emits a sync-flush
    /// fragment (a terminated one when `last`); LZ4 and pco fall back to
    /// the raw chunk when compression would expand it.
    pub fn encode_chunk(&self, chunk: &[u8], last: bool) -> Payload {
        let bytes = match self {
            StreamCodec::Deflate(level) => pedal_deflate::compress_fragment(chunk, *level, last),
            StreamCodec::Lz4 { accel } => pedal_lz4::compress_block(chunk, *accel),
            StreamCodec::Pco(cfg) => pedal_pco::encode_bytes_chunk(chunk, cfg),
        };
        // DEFLATE fragments stay encoded: they must stitch into one stream.
        let raw = !matches!(self, StreamCodec::Deflate(_)) && bytes.len() >= chunk.len();
        Payload { bytes: if raw { chunk.to_vec() } else { bytes }, raw }
    }

    /// The payloads of a stream's `chunks` (as [`StreamConfig::chunks`]
    /// cuts them), in order, encoded in waves of one chunk per core: the
    /// thread that asks for a wave's first payload encodes that chunk
    /// while `pedal_deflate::pool` workers encode the rest. Each payload
    /// is [`encode_chunk`](Self::encode_chunk)'s, so the stream's bytes
    /// do not depend on the wave width; up to one wave of payloads is
    /// held at a time. On a pool worker the waves are one chunk wide.
    pub fn encode_waves<'a>(
        &'a self,
        chunks: &'a [&'a [u8]],
    ) -> impl Iterator<Item = Payload> + 'a {
        let width = if pool::on_worker() { 1 } else { pool::cores() };
        let n = chunks.len();
        (0..n).step_by(width).flat_map(move |at| {
            let wave = &chunks[at..n.min(at + width)];
            let encode = |j: usize| self.encode_chunk(wave[j], at + j + 1 == n);
            let (first, rest) = match wave.len() {
                1 => (encode(0), Vec::new()),
                k => pool::fan_out_beside(k - 1, k - 1, |j| encode(j + 1), || encode(0)),
            };
            std::iter::once(first).chain(rest)
        })
    }
}

/// Encoder configuration: codec plus the plaintext chunk size each frame
/// carries. Output bytes are a pure function of `(data, codec,
/// chunk_size)` — never of how the input was sliced across writes.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    pub codec: StreamCodec,
    pub chunk_size: usize,
}

impl StreamConfig {
    pub fn new(codec: StreamCodec) -> Self {
        Self { codec, chunk_size: DEFAULT_CHUNK }
    }

    /// Override the chunk size (clamped to `1..=MAX_CHUNK_SIZE`).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.clamp(1, MAX_CHUNK_SIZE as usize);
        self
    }

    /// The chunk size on the wire (the field is public, so clamp again).
    fn chunk(&self) -> usize {
        self.chunk_size.clamp(1, MAX_CHUNK_SIZE as usize)
    }

    /// The plaintext of each frame a stream of `data` carries, in order:
    /// full chunks and a shorter tail, or one empty chunk for empty input.
    pub fn chunks<'a>(&self, data: &'a [u8]) -> impl Iterator<Item = &'a [u8]> {
        let empty = data.is_empty().then_some(data);
        data.chunks(self.chunk()).chain(empty)
    }
}

/// Encoder-side tallies of one finished stream, for throughput and
/// ratio reporting without re-parsing the wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderStats {
    /// Frames emitted (including the final, possibly empty, LAST frame).
    pub frames: u64,
    /// Frames stored raw because the codec output would have expanded.
    pub raw_frames: u64,
    /// Plaintext bytes consumed.
    pub raw_bytes: u64,
    /// Complete wire size: header + every frame + trailer.
    pub wire_bytes: u64,
}

impl EncoderStats {
    /// Plaintext over wire bytes (0.0 for an empty stream).
    pub fn ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.wire_bytes as f64
    }
}

/// Incremental encoder. Feed plaintext with [`push`](Self::push) (or via
/// `std::io::Write`), drain wire bytes with [`take`](Self::take), close
/// with [`finish`](Self::finish).
///
/// A full chunk is emitted only once at least one later byte exists, so
/// the final frame always carries between 1 and `chunk_size` plaintext
/// bytes (0 only for an empty stream) — an exact chunk-multiple input
/// marks its last full chunk as the final frame instead of appending an
/// empty one, which is what keeps the concatenated DEFLATE payloads
/// byte-identical to the one-shot path.
pub struct StreamEncoder {
    codec: StreamCodec,
    chunk: usize,
    pending: Vec<u8>,
    ready: Vec<u8>,
    next_index: u64,
    total_raw: u64,
    raw_frames: u64,
    wire_out: u64,
    adler: Adler32,
    /// The final frame is written: only the trailer may follow.
    sealed: bool,
}

impl StreamEncoder {
    pub fn new(cfg: &StreamConfig) -> Self {
        let chunk = cfg.chunk();
        let mut ready = Vec::with_capacity(16);
        write_header(&mut ready, cfg.codec.id(), chunk);
        let wire_out = ready.len() as u64;
        Self {
            codec: cfg.codec.clone(),
            chunk,
            pending: Vec::new(),
            ready,
            next_index: 0,
            total_raw: 0,
            raw_frames: 0,
            wire_out,
            adler: Adler32::new(),
            sealed: false,
        }
    }

    /// Append plaintext. Consumes directly from `data`, so a large write
    /// still buffers at most one chunk of pending plaintext.
    pub fn push(&mut self, mut data: &[u8]) {
        assert!(!self.sealed, "push after the final frame");
        while self.pending.len() + data.len() > self.chunk {
            if self.pending.is_empty() {
                let (head, rest) = data.split_at(self.chunk);
                data = rest;
                self.emit_frame(head, false);
            } else {
                let need = self.chunk - self.pending.len();
                let (head, rest) = data.split_at(need);
                data = rest;
                self.pending.extend_from_slice(head);
                let full = std::mem::take(&mut self.pending);
                self.emit_frame(&full, false);
                self.pending = full;
                self.pending.clear();
            }
        }
        self.pending.extend_from_slice(data);
    }

    /// Frame `chunk`, encoded elsewhere as `payload` with the same `last`
    /// (as [`StreamCodec::encode_chunk`] or
    /// [`StreamCodec::encode_waves`] would): a full chunk, or the final
    /// frame. The caller marks the final chunk `last`, as
    /// [`StreamConfig::chunks`] ends; the bytes then equal what
    /// [`push`](Self::push) writes for the same plaintext, and
    /// [`finish`](Self::finish) panics if no frame was marked. No
    /// [`push`](Self::push)ed plaintext may be pending, and no frame may
    /// follow the final one.
    pub fn push_encoded(&mut self, chunk: &[u8], payload: &Payload, last: bool) {
        assert!(self.pending.is_empty() && !self.sealed, "framing out of order");
        assert!(chunk.len() == self.chunk || last && chunk.len() <= self.chunk, "not a chunk");
        self.frame(chunk, payload, last);
    }

    /// Drain every wire byte produced so far (header, then frames as
    /// they complete). Safe to call at any granularity; the
    /// concatenation of all takes plus [`finish`](Self::finish) is the
    /// complete stream.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.ready)
    }

    /// Bytes of buffered plaintext not yet emitted as a frame (< one
    /// chunk by construction, plus the current chunk remainder).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of encoded output waiting to be taken.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Frames stored raw so far (codec output would have expanded).
    pub fn raw_frames(&self) -> u64 {
        self.raw_frames
    }

    /// Emit the final frame and trailer; returns all not-yet-taken wire
    /// bytes.
    pub fn finish(self) -> Vec<u8> {
        self.finish_with_stats().0
    }

    /// [`finish`](Self::finish) plus the stream's encoder-side tallies.
    /// `wire_bytes` counts the whole stream, including bytes already
    /// drained through [`take`](Self::take).
    pub fn finish_with_stats(mut self) -> (Vec<u8>, EncoderStats) {
        if !self.sealed {
            // `push` keeps the final frame's bytes pending, so frames with
            // nothing pending came from `push_encoded` without a last one.
            assert!(
                self.next_index == 0 || !self.pending.is_empty(),
                "final frame not marked last"
            );
            let tail = std::mem::take(&mut self.pending);
            self.emit_frame(&tail, true);
        }
        let before = self.ready.len();
        write_trailer(&mut self.ready, self.total_raw, self.adler.finish());
        self.wire_out += (self.ready.len() - before) as u64;
        let stats = EncoderStats {
            frames: self.next_index,
            raw_frames: self.raw_frames,
            raw_bytes: self.total_raw,
            wire_bytes: self.wire_out,
        };
        (self.ready, stats)
    }

    fn emit_frame(&mut self, chunk: &[u8], last: bool) {
        let payload = self.codec.encode_chunk(chunk, last);
        self.frame(chunk, &payload, last);
    }

    /// The one framing path: every frame of every stream is written here.
    fn frame(&mut self, chunk: &[u8], payload: &Payload, last: bool) {
        let before = self.ready.len();
        write_frame(&mut self.ready, self.next_index, chunk.len(), payload, last);
        self.wire_out += (self.ready.len() - before) as u64;
        if payload.raw {
            self.raw_frames += 1;
        }
        self.adler.update(chunk);
        self.total_raw += chunk.len() as u64;
        self.next_index += 1;
        self.sealed = last;
    }
}

impl std::io::Write for StreamEncoder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.push(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Frame boundaries are fixed by the chunk size; there is no
        // partial-frame flush in the format, so this is a no-op.
        Ok(())
    }
}

/// One-shot convenience: encode `data` as a complete PSF1 stream.
pub fn encode_all(data: &[u8], cfg: &StreamConfig) -> Vec<u8> {
    let mut enc = StreamEncoder::new(cfg);
    enc.push(data);
    enc.finish()
}

/// Frame payloads encoded elsewhere (in parallel, or on an engine) into a
/// complete PSF1 stream: `payloads[i]` encodes the `i`-th of
/// [`StreamConfig::chunks`]`(data)`, as [`StreamCodec::encode_chunk`]
/// would. With those payloads the result equals [`encode_all`].
pub fn assemble(cfg: &StreamConfig, data: &[u8], payloads: &[Payload]) -> Vec<u8> {
    assert_eq!(payloads.len(), cfg.chunks(data).count(), "one payload per chunk");
    let mut enc = StreamEncoder::new(cfg);
    enc.ready.reserve(payloads.iter().map(|p| p.bytes.len() + 24).sum::<usize>() + 16);
    for (i, (chunk, p)) in cfg.chunks(data).zip(payloads).enumerate() {
        enc.push_encoded(chunk, p, i + 1 == payloads.len());
    }
    enc.finish()
}
