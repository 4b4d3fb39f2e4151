//! Differential suite for the streaming tier (ISSUE satellite): the
//! wire bytes must be a pure function of `(data, codec, chunk_size)` —
//! never of how the input was sliced across writes — and the decoder
//! must reproduce the plaintext exactly even when fed one byte at a
//! time. The DEFLATE payloads are additionally pinned to per-chunk
//! `pedal_deflate::compress_fragment` calls, stitched in order.

use pedal_stream::{
    encode_all, frame_spans, split_frames, Level, StreamCodec, StreamConfig, StreamDecoder,
    StreamEncoder,
};

/// Mixed compressible/incompressible bytes, deterministic.
fn sample(n: usize) -> Vec<u8> {
    let mut x = 0x853C_49E6_748F_EA9Bu64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 5 == 0 {
                (x & 0x3F) as u8
            } else {
                (i / 19) as u8
            }
        })
        .collect()
}

fn codecs() -> Vec<StreamCodec> {
    vec![
        StreamCodec::Deflate(Level::FAST),
        StreamCodec::Lz4 { accel: 1 },
        StreamCodec::Pco(pedal_stream::PcoConfig::default()),
    ]
}

fn encode_with_granularity(data: &[u8], cfg: &StreamConfig, gran: usize) -> Vec<u8> {
    let mut enc = StreamEncoder::new(cfg);
    let mut wire = Vec::new();
    if data.is_empty() {
        enc.push(data);
    } else {
        for piece in data.chunks(gran) {
            enc.push(piece);
            // Drain mid-stream like a real sender would.
            wire.extend_from_slice(&enc.take());
        }
    }
    wire.extend_from_slice(&enc.finish());
    wire
}

#[test]
fn write_granularity_never_changes_the_wire() {
    let data = sample(150_000);
    for codec in codecs() {
        for chunk in [997usize, 64 * 1024] {
            let cfg = StreamConfig::new(codec.clone()).with_chunk_size(chunk);
            let one_shot = encode_all(&data, &cfg);
            for gran in [1usize, 7, 4096, 1 << 20, data.len()] {
                let wire = encode_with_granularity(&data, &cfg, gran);
                assert_eq!(
                    wire,
                    one_shot,
                    "{} chunk={chunk} granularity={gran} changed the wire",
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn byte_fed_decoder_reproduces_plaintext_exactly() {
    let data = sample(50_000);
    for codec in codecs() {
        let cfg = StreamConfig::new(codec.clone()).with_chunk_size(997);
        let wire = encode_all(&data, &cfg);
        let mut dec = StreamDecoder::new(data.len());
        let mut out = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b), &mut out).expect("valid stream");
        }
        assert!(dec.is_finished(), "{}", codec.name());
        assert_eq!(out, data, "{} byte-fed decode diverged", codec.name());
    }
}

/// Feed the decoder exactly one frame per `feed` call — the slicing the
/// granularity sweeps above never produce (byte-at-a-time always splits
/// frames; one-shot merges them). Boundary-aligned feeds are what a
/// length-prefixed transport delivers, and they exercise the "buffer is
/// empty, frame is complete" fast path: after every frame the decoder
/// must have nothing buffered and the plaintext so far must be a prefix
/// of the input.
#[test]
fn frame_boundary_aligned_feeds_reproduce_plaintext() {
    let data = sample(64_000);
    for codec in codecs() {
        for chunk in [997usize, 16 * 1024] {
            let cfg = StreamConfig::new(codec.clone()).with_chunk_size(chunk);
            let wire = encode_all(&data, &cfg);
            let (header_len, spans) = frame_spans(&wire).expect("scannable stream");
            // Frames tile the wire exactly: header, then back-to-back
            // frames, then the trailer (raw-length varint + Adler-32).
            let frames_end = spans.last().expect("at least one frame").end;
            assert_eq!(spans[0].start, header_len, "{}", codec.name());
            for w in spans.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{}: gap between frames", codec.name());
            }
            assert!(frames_end < wire.len(), "{}: missing trailer", codec.name());

            let mut dec = StreamDecoder::new(data.len());
            let mut out = Vec::new();
            dec.feed(&wire[..header_len], &mut out).expect("header alone parses");
            assert!(!dec.is_finished(), "{}: finished before any frame", codec.name());
            assert!(out.is_empty());
            for (k, s) in spans.iter().enumerate() {
                dec.feed(&wire[s.start..s.end], &mut out).expect("whole frame parses");
                assert_eq!(
                    dec.buffered_len(),
                    0,
                    "{} chunk={chunk}: leftover bytes after aligned frame {k}",
                    codec.name()
                );
                assert_eq!(dec.frames_decoded(), (k + 1) as u64, "{}", codec.name());
                assert_eq!(
                    &data[..out.len()],
                    &out[..],
                    "{} chunk={chunk}: prefix diverged after frame {k}",
                    codec.name()
                );
                assert_eq!(s.last, k == spans.len() - 1, "{}: LAST flag misplaced", codec.name());
            }
            // The trailer as its own aligned slice completes the stream.
            dec.feed(&wire[frames_end..], &mut out).expect("trailer parses");
            assert!(dec.is_finished(), "{}", codec.name());
            assert_eq!(out, data, "{} chunk={chunk}: aligned decode diverged", codec.name());
        }
    }
}

#[test]
fn edge_sizes_stay_granularity_independent() {
    for codec in codecs() {
        let cfg = StreamConfig::new(codec.clone()).with_chunk_size(256);
        // Empty, single byte, exactly one chunk, exact multiple, and
        // one-past-a-boundary.
        for n in [0usize, 1, 256, 1024, 1025] {
            let data = sample(n);
            let one_shot = encode_all(&data, &cfg);
            for gran in [1usize, 7, 300] {
                let wire = encode_with_granularity(&data, &cfg, gran);
                assert_eq!(wire, one_shot, "{} n={n} gran={gran}", codec.name());
            }
            let mut dec = StreamDecoder::new(n);
            let mut out = Vec::new();
            for b in &one_shot {
                dec.feed(std::slice::from_ref(b), &mut out).unwrap();
            }
            dec.finish().unwrap();
            assert_eq!(out, data, "{} n={n}", codec.name());
        }
    }
}

#[test]
fn encoder_works_through_std_io_write() {
    use std::io::Write;
    let data = sample(10_000);
    let cfg = StreamConfig::new(StreamCodec::Lz4 { accel: 1 }).with_chunk_size(512);
    let mut enc = StreamEncoder::new(&cfg);
    enc.write_all(&data).unwrap();
    enc.flush().unwrap();
    let mut wire = enc.take();
    // Rebuild a fresh encoder state around the already-taken prefix.
    let one_shot = encode_all(&data, &cfg);
    assert!(one_shot.starts_with(&wire));
    let mut enc2 = StreamEncoder::new(&cfg);
    enc2.write_all(&data).unwrap();
    let _ = enc2.take();
    wire.extend_from_slice(&enc2.finish());
    assert_eq!(wire, one_shot);
}

/// The payload bytes of every frame of a PSF1 stream.
fn frame_payloads(wire: &[u8]) -> Vec<Vec<u8>> {
    let split = split_frames(wire, usize::MAX).expect("valid stream");
    split.frames.iter().map(|f| f.payload.to_vec()).collect()
}

/// The parallel-DEFLATE contract: concatenating the DEFLATE frame
/// payloads yields exactly the stitched sync-flush fragments of the same
/// chunks (what the chunk-parallel paths emit on any worker count) —
/// one valid RFC 1951 stream.
#[test]
fn deflate_payload_concat_matches_par_deflate() {
    let data = sample(200_000);
    let chunk = 64 * 1024;
    let cfg = StreamConfig::new(StreamCodec::Deflate(Level::DEFAULT)).with_chunk_size(chunk);
    let wire = encode_all(&data, &cfg);
    let concat: Vec<u8> = frame_payloads(&wire).concat();
    let n = data.len().div_ceil(chunk);
    let frags: Vec<Vec<u8>> = data
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| pedal_deflate::compress_fragment(c, Level::DEFAULT, i + 1 == n))
        .collect();
    assert_eq!(concat, pedal_deflate::stitch_fragments(&frags).unwrap());
    // And the concatenation really is one whole DEFLATE stream.
    assert_eq!(pedal_deflate::decompress_with_limit(&concat, data.len()).unwrap(), data);
}

/// A sub-chunk message maps to a single final fragment — byte-identical
/// to the one-shot encoder.
#[test]
fn single_chunk_deflate_matches_par_single_fragment() {
    let data = sample(10_000);
    let cfg = StreamConfig::new(StreamCodec::Deflate(Level::DEFAULT)).with_chunk_size(1 << 20);
    let payloads = frame_payloads(&encode_all(&data, &cfg));
    assert_eq!(payloads.len(), 1);
    assert_eq!(payloads[0], pedal_deflate::compress(&data, Level::DEFAULT));
}
