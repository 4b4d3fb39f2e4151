//! # pedal-stream
//!
//! Incremental streaming codec tier: a `Write`-style encoder and a
//! resumable decoder over the self-describing **PSF1** frame protocol,
//! built on sync-flush DEFLATE fragments so the wire never waits on the
//! codec.
//!
//! A PSF1 stream is a header, a run of self-describing frames (flags +
//! sequential index + lengths + payload checksum + payload), and a
//! trailer carrying the plaintext length and whole-stream Adler-32.
//! Three codecs fill the payloads:
//!
//! * **DEFLATE** — sync-flush fragments; concatenating the payloads
//!   yields one valid RFC 1951 stream, byte-identical to
//!   `pedal_deflate::stitch_fragments` over the same chunks,
//! * **LZ4** — independent blocks with a raw-stored fallback,
//! * **pco** — bytes-mode chunks with the same fallback.
//!
//! PSF1 is also the container of `pedal::parallel`'s chunked DEFLATE,
//! whose frames are coded on several workers and the C-Engine: there
//! [`assemble`] frames precomputed payloads and [`split_frames`] yields
//! validated [`Frame`]s, through the same readers and writers.
//!
//! A streamed sender encodes ahead in waves of one chunk per core
//! ([`StreamCodec::encode_waves`]) and frames each payload through
//! [`StreamEncoder::push_encoded`], the encoder's one framing path: it
//! holds up to `pedal_deflate::pool::cores()` encoded frames, and the
//! bytes are those of [`StreamEncoder::push`]. A receiver's
//! [`StreamDecoder::feed`] appends each frame's plaintext in place to a
//! buffer the caller owns ([`output_buffer`] sizes one that never
//! grows); LZ4 frames decode straight into it.
//!
//! The contract that makes streaming safe to deploy anywhere in the
//! pipeline: encoder output is a pure function of `(data, codec,
//! chunk_size)` — independent of write granularity — and the decoder
//! accepts any feed granularity down to one byte, with bounded
//! buffering and every failure a clean [`StreamError`].
//!
//! ```
//! use pedal_stream::{decode_all, StreamCodec, StreamConfig, StreamDecoder, StreamEncoder};
//!
//! let data = b"overlap the wire with the codec ".repeat(1000);
//! let cfg = StreamConfig::new(StreamCodec::Deflate(pedal_deflate::Level::DEFAULT))
//!     .with_chunk_size(4096);
//!
//! // Incremental encode, drained mid-stream like a sender would.
//! let mut enc = StreamEncoder::new(&cfg);
//! let mut wire = Vec::new();
//! for piece in data.chunks(1000) {
//!     enc.push(piece);
//!     wire.extend_from_slice(&enc.take());
//! }
//! wire.extend_from_slice(&enc.finish());
//!
//! // Incremental decode, fed as the frames "arrive", appending in place.
//! let mut dec = StreamDecoder::new(data.len());
//! let mut out = Vec::new();
//! for piece in wire.chunks(512) {
//!     dec.feed(piece, &mut out).unwrap();
//! }
//! dec.finish().unwrap();
//! assert_eq!(out, data);
//! assert_eq!(decode_all(&wire, data.len()).unwrap(), data);
//! ```

mod decoder;
mod encoder;
mod frame;

pub use pedal_deflate::Level;
pub use pedal_pco::PcoConfig;

pub use decoder::{decode_all, output_buffer, split_frames, Frames, StreamDecoder};
pub use encoder::{
    assemble, encode_all, EncoderStats, StreamCodec, StreamConfig, StreamEncoder, DEFAULT_CHUNK,
};
pub use frame::{
    frame_spans, max_payload_len, Frame, FrameSpan, Payload, StreamError, CODEC_DEFLATE, CODEC_LZ4,
    CODEC_PCO, FRAME_LAST, FRAME_RAW, MAGIC, MAX_CHUNK_SIZE, VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_deflate::Level;

    fn configs(chunk: usize) -> Vec<StreamConfig> {
        vec![
            StreamConfig::new(StreamCodec::Deflate(Level::DEFAULT)).with_chunk_size(chunk),
            StreamConfig::new(StreamCodec::Lz4 { accel: 1 }).with_chunk_size(chunk),
            StreamConfig::new(StreamCodec::Pco(pedal_pco::PcoConfig::default()))
                .with_chunk_size(chunk),
        ]
    }

    fn sample(n: usize) -> Vec<u8> {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 3 == 0 {
                    (x & 0x0F) as u8
                } else {
                    (i / 7) as u8
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_codecs_and_edges() {
        for cfg in configs(256) {
            for n in [0usize, 1, 255, 256, 257, 512, 4096, 5000] {
                let data = sample(n);
                let wire = encode_all(&data, &cfg);
                let back = decode_all(&wire, n).expect("valid stream decodes");
                assert_eq!(back, data, "{} n={n}", cfg.codec.name());
            }
        }
    }

    #[test]
    fn assemble_and_split_match_the_incremental_codec() {
        for cfg in configs(256) {
            for n in [0usize, 1, 256, 257, 1024, 5000] {
                let data = sample(n);
                let chunks: Vec<&[u8]> = cfg.chunks(&data).collect();
                let payloads: Vec<Payload> = chunks
                    .iter()
                    .enumerate()
                    .map(|(i, c)| cfg.codec.encode_chunk(c, i + 1 == chunks.len()))
                    .collect();
                let wire = assemble(&cfg, &data, &payloads);
                assert_eq!(wire, encode_all(&data, &cfg), "{} n={n}", cfg.codec.name());

                let split = split_frames(&wire, n).expect("valid stream splits");
                assert_eq!((split.codec, split.total), (cfg.codec.id(), n));
                assert_eq!(split.frames.len(), chunks.len());
                let mut out = Vec::new();
                for f in &split.frames {
                    out.extend_from_slice(&f.decode(split.codec).unwrap());
                }
                split.verify(&out).unwrap();
                assert_eq!(out, data, "{} n={n}", cfg.codec.name());
            }
        }
    }

    /// Payloads encoded in waves (one chunk per core, or one at a time on
    /// a pool worker) frame through `push_encoded` into the bytes `push`
    /// writes.
    #[test]
    fn waves_frame_into_the_pushed_bytes() {
        for cfg in configs(256) {
            for n in [0usize, 1, 256, 257, 1024, 5000] {
                let data = sample(n);
                let chunks: Vec<&[u8]> = cfg.chunks(&data).collect();
                let frame = || {
                    let mut enc = StreamEncoder::new(&cfg);
                    for (i, p) in cfg.codec.encode_waves(&chunks).enumerate() {
                        enc.push_encoded(chunks[i], &p, i + 1 == chunks.len());
                    }
                    enc.finish()
                };
                let want = encode_all(&data, &cfg);
                assert_eq!(frame(), want, "{} n={n}", cfg.codec.name());
                let on_worker = pedal_deflate::pool::fan_out(1, 2, |_| frame());
                assert_eq!(on_worker[0], want, "{} n={n} on a worker", cfg.codec.name());
            }
        }
    }

    /// A full final chunk framed without `last` would end in an empty
    /// final frame that `push` never writes.
    #[test]
    #[should_panic(expected = "final frame not marked last")]
    fn finish_rejects_an_unmarked_final_frame() {
        let cfg = configs(256).swap_remove(0);
        let data = sample(256);
        let mut enc = StreamEncoder::new(&cfg);
        enc.push_encoded(&data, &cfg.codec.encode_chunk(&data, false), false);
        enc.finish();
    }

    #[test]
    fn split_rejects_what_the_decoder_rejects() {
        let cfg = &configs(128)[0];
        let data = sample(1000);
        let wire = encode_all(&data, cfg);
        for cut in [0, 5, wire.len() / 2, wire.len() - 1] {
            assert_eq!(split_frames(&wire[..cut], data.len()).unwrap_err(), StreamError::Truncated);
        }
        assert_eq!(
            split_frames(&wire, data.len() - 1).unwrap_err(),
            StreamError::OutputLimitExceeded(data.len() - 1)
        );
        let mut extra = wire.clone();
        extra.push(0);
        assert_eq!(split_frames(&extra, data.len()).unwrap_err(), StreamError::TrailingBytes(1));
        // A flipped trailer checksum passes the split (the plaintext is not
        // decoded yet) and fails verification.
        let mut bad = wire.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let split = split_frames(&bad, data.len()).unwrap();
        assert_eq!(split.verify(&data), Err(StreamError::StreamChecksum));
        assert_eq!(decode_all(&bad, data.len()), Err(StreamError::StreamChecksum));
    }

    #[test]
    fn exact_chunk_multiple_has_no_empty_final_frame() {
        for cfg in configs(256) {
            let data = sample(1024); // exactly 4 chunks
            let wire = encode_all(&data, &cfg);
            let (_, spans) = frame_spans(&wire).expect("scannable");
            assert_eq!(spans.len(), 4, "{}", cfg.codec.name());
            assert!(spans[3].last);
        }
    }

    #[test]
    fn decoder_detects_reordered_frames() {
        let cfg = &configs(128)[0];
        let data = sample(1000);
        let wire = encode_all(&data, cfg);
        let (header_len, spans) = frame_spans(&wire).unwrap();
        assert!(spans.len() >= 3);
        let mut swapped = wire[..header_len].to_vec();
        swapped.extend_from_slice(&wire[spans[1].start..spans[1].end]);
        swapped.extend_from_slice(&wire[spans[0].start..spans[0].end]);
        swapped.extend_from_slice(&wire[spans[1].end..]);
        let err = decode_all(&swapped, data.len()).unwrap_err();
        assert!(matches!(err, StreamError::FrameOutOfOrder { expected: 0, got: 1 }), "{err}");
    }

    #[test]
    fn decoder_detects_truncation_and_corruption() {
        for cfg in configs(200) {
            let data = sample(900);
            let wire = encode_all(&data, &cfg);
            // Truncation at every prefix either stays pending or errors;
            // finish() on a pending decoder is Truncated.
            for cut in [0, 1, 7, wire.len() / 2, wire.len() - 1] {
                let mut dec = StreamDecoder::new(data.len());
                // A feed error is fine too: corrupt-by-truncation is clean.
                if dec.feed(&wire[..cut], &mut Vec::new()).is_ok() {
                    assert!(!dec.is_finished());
                    assert_eq!(dec.finish().unwrap_err(), StreamError::Truncated);
                }
            }
            // Flipping a payload byte must trip the frame checksum.
            let (header_len, spans) = frame_spans(&wire).unwrap();
            let mid = spans[0].end - 1;
            assert!(mid > header_len);
            let mut bad = wire.clone();
            bad[mid] ^= 0x40;
            assert!(decode_all(&bad, data.len()).is_err(), "{}", cfg.codec.name());
        }
    }

    #[test]
    fn output_limit_enforced_before_decode() {
        let cfg = &configs(256)[1];
        let data = sample(2000);
        let wire = encode_all(&data, cfg);
        let err = decode_all(&wire, 100).unwrap_err();
        assert_eq!(err, StreamError::OutputLimitExceeded(100));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let cfg = &configs(256)[0];
        let wire = encode_all(&sample(100), cfg);
        let mut extra = wire.clone();
        extra.push(0);
        assert!(matches!(decode_all(&extra, 100).unwrap_err(), StreamError::TrailingBytes(1)));
    }

    #[test]
    fn encoder_stats_count_frames_raw_fallbacks_and_wire_bytes() {
        let cfg = StreamConfig::new(StreamCodec::Lz4 { accel: 1 }).with_chunk_size(256);
        // Pure noise: LZ4 expands every chunk, so each frame raw-stores.
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let noise: Vec<u8> = (0..1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let mut enc = StreamEncoder::new(&cfg);
        enc.push(&noise);
        let mut wire = enc.take();
        let (tail, stats) = enc.finish_with_stats();
        wire.extend_from_slice(&tail);
        // wire_bytes covers the whole stream, including drained takes.
        assert_eq!(stats.wire_bytes as usize, wire.len());
        assert_eq!(wire, encode_all(&noise, &cfg));
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.raw_bytes, 1024);
        assert!(stats.raw_frames > 0, "noise should force raw fallback");
        assert!(stats.ratio() < 1.0, "raw-stored noise pays framing overhead");
        // Compressible input: no fallbacks, ratio above 1.
        let mut e = StreamEncoder::new(&cfg);
        e.push(&vec![0u8; 4096]);
        let (_, s2) = e.finish_with_stats();
        assert_eq!(s2.raw_frames, 0);
        assert!(s2.ratio() > 1.0);
    }

    #[test]
    fn decoder_buffering_stays_bounded() {
        let cfg = StreamConfig::new(StreamCodec::Lz4 { accel: 1 }).with_chunk_size(1024);
        let data = sample(64 * 1024);
        let wire = encode_all(&data, &cfg);
        let mut dec = StreamDecoder::new(data.len());
        let mut peak = 0usize;
        let mut out = Vec::new();
        for piece in wire.chunks(97) {
            dec.feed(piece, &mut out).unwrap();
            peak = peak.max(dec.buffered_len());
        }
        assert_eq!(out, data);
        assert!(dec.is_finished());
        // One frame of a 1 KiB chunk plus header slop, never the stream.
        assert!(peak < 2 * 1024 + 256, "peak buffered {peak}");
    }

    /// Frames append in place: a buffer from `output_buffer` takes a
    /// whole stream of every codec without moving, and a failed frame
    /// leaves it as it was.
    #[test]
    fn decoder_appends_in_place() {
        for cfg in configs(1024) {
            let data = sample(10_000);
            let wire = encode_all(&data, &cfg);
            let mut out = output_buffer(data.len());
            let at = out.as_ptr();
            let mut dec = StreamDecoder::new(data.len());
            dec.feed(&wire, &mut out).unwrap();
            dec.finish().unwrap();
            assert_eq!((out.as_ptr(), &out[..]), (at, &data[..]), "{}", cfg.codec.name());
        }
        let cfg = &configs(1024)[1];
        let data = sample(3000);
        let wire = encode_all(&data, cfg);
        let (_, spans) = frame_spans(&wire).unwrap();
        let mut bad = wire.clone();
        // The second frame declares 1023 bytes (LEB128 after its flags and
        // index) and fails once its payload has decoded past them.
        bad[spans[1].start + 2..spans[1].start + 4].copy_from_slice(&[0xFF, 0x07]);
        let mut dec = StreamDecoder::new(data.len());
        let mut out = Vec::new();
        dec.feed(&bad[..spans[1].start], &mut out).unwrap();
        assert_eq!(out, data[..1024]);
        assert!(dec.feed(&bad[spans[1].start..], &mut out).is_err());
        assert_eq!(out, data[..1024], "a failed frame appends nothing");
    }

    /// A varint that overflows 64 bits, in the header or in a frame, is
    /// `VarintOverflow` however the bytes arrive; each cut-off prefix
    /// only waits for more input.
    #[test]
    fn decoder_rejects_overflowed_varints() {
        let wire = encode_all(&sample(1000), &configs(256)[0]);
        let overflow = [&[0xFFu8; 9][..], &[0x7F]].concat();
        // Header chunk size (after magic, version, codec, flags), then a
        // frame index (after the 2-byte chunk size and the flags byte).
        for at in [7usize, 10] {
            let bad = [&wire[..at], &overflow[..]].concat();
            assert_eq!(decode_all(&bad, 1000), Err(StreamError::VarintOverflow), "at {at}");
            let mut dec = StreamDecoder::new(1000);
            for (k, b) in bad.iter().enumerate() {
                let fed = dec.feed(std::slice::from_ref(b), &mut Vec::new());
                if k + 1 < bad.len() {
                    assert_eq!(fed, Ok(()), "at {at}, byte {k}");
                } else {
                    assert_eq!(fed, Err(StreamError::VarintOverflow), "at {at}");
                }
            }
        }
    }

    /// Fed pieces of at most one chunk, the encoder holds at most one
    /// pending chunk and one sealed frame, never the stream, and what it
    /// hands out decodes byte for byte.
    #[test]
    fn encoder_holds_at_most_two_chunks() {
        let chunk = 64 << 10;
        let cfg = StreamConfig::new(StreamCodec::Deflate(Level::STORED)).with_chunk_size(chunk);
        let data = sample(4 << 20);
        let bound = 2 * chunk + 1024;
        let mut enc = StreamEncoder::new(&cfg);
        let mut dec = StreamDecoder::new(data.len());
        let mut pos = 0usize;
        let mut deliver = |blob: &[u8]| {
            let mut out = Vec::new();
            dec.feed(blob, &mut out).expect("encoded frames decode");
            assert_eq!(out, data[pos..pos + out.len()], "decoded bytes diverge at {pos}");
            pos += out.len();
        };
        let sizes = [chunk, 1, chunk - 1, 5000, chunk / 2 + 7];
        let mut rest = &data[..];
        for &n in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            enc.push(piece);
            let held = enc.pending_len() + enc.ready_len();
            assert!(held <= bound, "holds {held} after push, bound {bound}");
            deliver(&enc.take());
            assert!(enc.pending_len() <= chunk && enc.ready_len() == 0);
        }
        deliver(&enc.finish());
        assert!(dec.is_finished());
        assert_eq!(pos, data.len());
    }
}
