//! Compress-while-sending: streamed Send/Recv that overlap per-chunk
//! compression with the rendezvous transfer.
//!
//! The whole-message path in [`PedalComm::send`] pays `compress +
//! transfer + decompress` end to end. Here the message is cut into
//! chunks, each chunk becomes a PSF1 frame (`pedal-stream`), and frames
//! ship through the windowed transport (`pedal_mpi::stream`) as they
//! complete: the first frame is on the wire while later chunks are
//! still compressing, and the receiver decodes each frame as it lands,
//! before the last one is even sent. Steady-state latency approaches
//! `max(compress, wire, decompress)` instead of their sum — the
//! overlap the paper's end-to-end wins rest on.

use crate::comm::{CommError, PedalComm};
use pedal::PedalError;
use pedal_dpu::{Direction, Placement, SimDuration, SimInstant};
use pedal_mpi::stream::{StreamReceiver, StreamSender};
use pedal_mpi::{Bytes, RankCtx};
use pedal_stream::{Level, PcoConfig, StreamCodec, StreamConfig, StreamDecoder, StreamEncoder};

/// Default chunk for streamed sends: the 1 MiB stream chunk.
pub use pedal_stream::DEFAULT_CHUNK as DEFAULT_STREAM_CHUNK;

/// Knobs for one streamed transfer. Output bytes (and therefore virtual
/// wire time) are a pure function of `(data, design, chunk_size)` — the
/// window only bounds in-flight memory.
#[derive(Debug, Clone, Copy)]
pub struct StreamSendConfig {
    /// Plaintext bytes per PSF1 frame.
    pub chunk_size: usize,
    /// Frames concurrently in flight on the transport.
    pub window: usize,
}

impl Default for StreamSendConfig {
    fn default() -> Self {
        Self { chunk_size: DEFAULT_STREAM_CHUNK, window: pedal_mpi::DEFAULT_WINDOW }
    }
}

impl StreamSendConfig {
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }
}

impl PedalComm {
    /// The PSF1 codec the configured design streams with, or an error
    /// for lossy designs — SZ3 carries error-bound state across the
    /// whole field, so its chunks are not independently decodable.
    fn stream_codec(&self) -> Result<StreamCodec, CommError> {
        use pedal_dpu::Algorithm;
        match self.cfg.design.algorithm {
            // zlib designs stream as raw DEFLATE fragments: PSF1 already
            // carries a per-frame and whole-stream Adler-32, so the RFC
            // 1950 envelope would only duplicate the checksum.
            Algorithm::Deflate | Algorithm::Zlib => Ok(StreamCodec::Deflate(Level::DEFAULT)),
            Algorithm::Lz4 => Ok(StreamCodec::Lz4 { accel: 1 }),
            Algorithm::Pco => Ok(StreamCodec::Pco(PcoConfig::default())),
            Algorithm::Sz3 => Err(CommError::Pedal(PedalError::Codec(
                "streaming requires a lossless design".into(),
            ))),
        }
    }

    /// Virtual cost of one chunk's codec work under the design's
    /// effective placement (compression costed on input bytes,
    /// decompression on output bytes, as in `CostModel`). A streamed
    /// message keeps the engine queue fed back-to-back, so the fixed
    /// C-Engine submission overhead is paid once per message — the
    /// first chunk carries it, later chunks run at the marginal rate
    /// (the same amortization `pedal-service` batching models).
    ///
    /// Buffering goes through the same [`pedal::PedalContext`] pool the
    /// whole-message path uses, one chunk-sized acquisition per chunk.
    /// This is streaming's memory advantage stated honestly: chunk
    /// buffers fit the buffers preallocated at `PEDAL_init` and hit
    /// warm, whereas a whole-message buffer beyond the pool capacity
    /// pays a cold allocation on the sequential path.
    fn stream_chunk_cost(
        &self,
        mpi: &RankCtx,
        dir: Direction,
        bytes: usize,
        first: bool,
    ) -> SimDuration {
        let design = self.cfg.design;
        let costs = &self.pedal.costs;
        let codec = match design.effective_placement(mpi.platform, dir) {
            Placement::CEngine => match costs.cengine_lossless(design.algorithm, dir, bytes) {
                Some(t) if first => t,
                Some(t) => t.saturating_sub(costs.cengine_job_overhead(dir)),
                None => costs.soc_lossless(design.algorithm, dir, bytes),
            },
            Placement::Soc => costs.soc_lossless(design.algorithm, dir, bytes),
        };
        let (buf, buffer) = self.pedal.pool.acquire(bytes.max(1));
        self.pedal.pool.release(buf);
        codec + buffer
    }

    /// Streamed compressing send: compress chunk `i+1` while frame `i`
    /// is on the wire. `tag_base` must not collide with ordinary tags —
    /// use [`pedal_mpi::STREAM_TAG_BASE`] offsets. Returns the
    /// sender-side completion time.
    ///
    /// The chunks are encoded in waves of one per core
    /// ([`StreamCodec::encode_waves`]), ahead of the frames that ship
    /// them. The messages and their virtual charges are those of
    /// [`StreamEncoder::push`]ing one chunk at a time: chunk `i`'s
    /// compression is charged, then what the encoder has sealed ships —
    /// the header after chunk 0, frame `i − 1` after chunk `i` (a full
    /// chunk waits for a later byte), and the final frame with the
    /// trailer last.
    pub fn send_streamed(
        &mut self,
        mpi: &mut RankCtx,
        dst: usize,
        tag_base: u64,
        data: &[u8],
        cfg: StreamSendConfig,
    ) -> Result<SimInstant, CommError> {
        let codec = self.stream_codec()?;
        let scfg = StreamConfig::new(codec).with_chunk_size(cfg.chunk_size);
        let chunks: Vec<&[u8]> = scfg.chunks(data).collect();
        let mut payloads = scfg.codec.encode_waves(&chunks);
        let mut enc = StreamEncoder::new(&scfg);
        let mut tx = StreamSender::new(dst, tag_base, cfg.window);
        self.stats.messages_sent += 1;
        self.stats.streamed_messages += 1;
        self.stats.raw_bytes_sent += data.len() as u64;
        let mut ship = |this: &mut Self, mpi: &mut RankCtx, wire: Vec<u8>| {
            this.stats.wire_bytes_sent += wire.len() as u64;
            this.stats.streamed_frames += 1;
            tx.send_frame(mpi, Bytes::from(wire))
        };
        // An empty message charges nothing and ships whole below.
        let charged = if data.is_empty() { 0 } else { chunks.len() };
        for (i, piece) in chunks[..charged].iter().enumerate() {
            let cost = self.cfg.deployment.sender_phase(
                &self.pedal.costs,
                piece.len(),
                self.stream_chunk_cost(mpi, Direction::Compress, piece.len(), i == 0),
            );
            self.stats.compress_time += cost;
            mpi.compute(cost);
            if i > 0 {
                let payload = payloads.next().expect("one payload per chunk");
                enc.push_encoded(chunks[i - 1], &payload, false);
            }
            ship(self, mpi, enc.take())?;
        }
        // Final frame (the last chunk) plus the PSF1 trailer.
        let payload = payloads.next().expect("one payload per chunk");
        enc.push_encoded(chunks[chunks.len() - 1], &payload, true);
        ship(self, mpi, enc.finish())?;
        Ok(tx.finish(mpi)?)
    }

    /// Streamed compressing receive: decode each frame as it lands,
    /// overlapping decompression with the remaining transfers. Frames
    /// decode in place into the returned message, so memory is one
    /// in-flight frame plus the message itself.
    pub fn recv_streamed(
        &mut self,
        mpi: &mut RankCtx,
        src: usize,
        tag_base: u64,
        expected_len: usize,
    ) -> Result<(Vec<u8>, SimInstant), CommError> {
        // Validate the design up front so a lossy receiver fails like a
        // lossy sender instead of waiting on frames that never come.
        self.stream_codec()?;
        let mut rx = StreamReceiver::new(src, tag_base);
        let mut dec = StreamDecoder::new(expected_len);
        let mut out = pedal_stream::output_buffer(expected_len.min(1 << 24));
        let mut first = true;
        while let Some((frame, _)) = rx.recv_frame(mpi)? {
            let before = dec.decoded_len();
            dec.feed(&frame, &mut out)
                .map_err(|e| CommError::Pedal(PedalError::Codec(e.to_string())))?;
            let produced = dec.decoded_len() - before;
            if produced > 0 {
                let cost = self.cfg.deployment.receiver_phase(
                    &self.pedal.costs,
                    produced,
                    self.stream_chunk_cost(mpi, Direction::Decompress, produced, first),
                );
                first = false;
                self.stats.decompress_time += cost;
                mpi.compute(cost);
            }
        }
        if !dec.is_finished() {
            return Err(CommError::Pedal(PedalError::Codec(
                "streamed message ended before its trailer".into(),
            )));
        }
        self.stats.messages_received += 1;
        Ok((out, mpi.now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PedalCommConfig;
    use pedal::Design;
    use pedal_datasets::DatasetId;
    use pedal_dpu::Platform;
    use pedal_mpi::{run_world, WorldConfig, STREAM_TAG_BASE};

    fn world(n: usize) -> WorldConfig {
        WorldConfig::new(n, Platform::BlueField2)
    }

    fn streamed_roundtrip(design: Design, data: &[u8], cfg: StreamSendConfig) -> Vec<u8> {
        let data = data.to_vec();
        let mut results = run_world(world(2), move |ctx| {
            let (mut comm, _) = PedalComm::init(ctx, PedalCommConfig::new(design)).unwrap();
            if ctx.rank == 0 {
                comm.send_streamed(ctx, 1, STREAM_TAG_BASE, &data, cfg).unwrap();
                assert_eq!(comm.stats.streamed_messages, 1);
                assert!(comm.stats.streamed_frames > 0);
                Vec::new()
            } else {
                let (msg, _) = comm.recv_streamed(ctx, 0, STREAM_TAG_BASE, data.len()).unwrap();
                msg
            }
        });
        results.remove(1)
    }

    #[test]
    fn streamed_roundtrip_all_lossless_designs() {
        let data = DatasetId::ALL[1].generate_bytes(3 * 1024 * 1024 + 777);
        let cfg = StreamSendConfig::default().with_chunk_size(512 * 1024);
        for design in [
            Design::CE_DEFLATE,
            Design::SOC_DEFLATE,
            Design::CE_LZ4,
            Design::SOC_ZLIB,
            Design::SOC_PCO,
        ] {
            assert_eq!(streamed_roundtrip(design, &data, cfg), data, "{}", design.name());
        }
    }

    #[test]
    fn streamed_handles_empty_and_tiny_messages() {
        let cfg = StreamSendConfig::default();
        for data in [&b""[..], b"x", b"short message"] {
            assert_eq!(streamed_roundtrip(Design::CE_DEFLATE, data, cfg), data);
        }
    }

    #[test]
    fn lossy_design_rejected_cleanly() {
        run_world(world(2), |ctx| {
            let (mut comm, _) = PedalComm::init(ctx, PedalCommConfig::new(Design::CE_SZ3)).unwrap();
            if ctx.rank == 0 {
                let err = comm
                    .send_streamed(ctx, 1, STREAM_TAG_BASE, b"data", StreamSendConfig::default())
                    .unwrap_err();
                assert!(matches!(err, CommError::Pedal(PedalError::Codec(_))), "{err}");
            } else {
                let err = comm.recv_streamed(ctx, 0, STREAM_TAG_BASE, 4).unwrap_err();
                assert!(matches!(err, CommError::Pedal(PedalError::Codec(_))));
            }
        });
    }

    #[test]
    fn streamed_beats_sequential_on_large_messages() {
        // The tentpole property at the comm layer: compress-while-sending
        // must complete before whole-message compress-then-send on a
        // rendezvous-class payload.
        let data = DatasetId::ALL[3].generate_bytes(8 * 1024 * 1024);
        let design = Design::CE_DEFLATE;
        let len = data.len();
        let shared = data.clone();
        let run = move |streamed: bool| {
            let data = shared.clone();
            let r = run_world(world(2), move |ctx| {
                let (mut comm, _) = PedalComm::init(ctx, PedalCommConfig::new(design)).unwrap();
                if ctx.rank == 0 {
                    if streamed {
                        comm.send_streamed(
                            ctx,
                            1,
                            STREAM_TAG_BASE,
                            &data,
                            StreamSendConfig::default(),
                        )
                        .unwrap();
                    } else {
                        comm.send(ctx, 1, 7, pedal::Datatype::Byte, &data).unwrap();
                    }
                    0
                } else if streamed {
                    let (msg, done) = comm.recv_streamed(ctx, 0, STREAM_TAG_BASE, len).unwrap();
                    assert_eq!(msg.len(), len);
                    done.0
                } else {
                    let (msg, done) = comm.recv(ctx, 0, 7, len).unwrap();
                    assert_eq!(msg.len(), len);
                    done.0
                }
            });
            r[1]
        };
        let streamed = run(true);
        let sequential = run(false);
        assert!(streamed < sequential, "streamed {streamed} should beat sequential {sequential}");
    }

    #[test]
    fn streamed_virtual_time_is_chunk_and_window_deterministic() {
        let data = DatasetId::ALL[0].generate_bytes(2 * 1024 * 1024);
        let cfg = StreamSendConfig::default().with_chunk_size(256 * 1024);
        let run = || {
            let data = data.clone();
            run_world(world(2), move |ctx| {
                let (mut comm, _) =
                    PedalComm::init(ctx, PedalCommConfig::new(Design::CE_LZ4)).unwrap();
                if ctx.rank == 0 {
                    comm.send_streamed(ctx, 1, STREAM_TAG_BASE, &data, cfg).unwrap().0
                } else {
                    comm.recv_streamed(ctx, 0, STREAM_TAG_BASE, data.len()).unwrap().1 .0
                }
            })
        };
        assert_eq!(run(), run(), "virtual times must be reproducible");
    }
}
