//! Direct calls into the codec crates, each timed as a span named after
//! its layer. The traced run uses them to time the layers that sit below
//! `PedalContext`, `PedalService` and `PedalComm` on the same inputs
//! those calls receive.

use crate::trace::Tracer;
use pedal::{Datatype, Design};
use pedal_dpu::Algorithm;
use pedal_stream::{EncoderStats, StreamCodec, StreamConfig, StreamEncoder};
use pedal_sz3::{Dims, Field};
use std::hint::black_box;

/// Absolute SZ3 error bound used throughout (the paper's 1e-4).
pub const EB: f64 = 1e-4;

/// PSF1 chunk the streamed transport uses by default.
pub const STREAM_CHUNK: usize = pedal_codesign::DEFAULT_STREAM_CHUNK;

/// Compress `data` with `design`'s codec, without PEDAL framing. SZ3
/// designs take f32 fields (every float input here is f32).
pub fn compress(t: &mut Tracer, req: u64, design: Design, dt: Datatype, data: &[u8]) -> Vec<u8> {
    let n = data.len() as u64;
    match design.algorithm {
        Algorithm::Deflate => t.span("deflate.compress", req, n, || {
            pedal_deflate::compress(data, pedal_deflate::Level::DEFAULT)
        }),
        Algorithm::Zlib => t.span("zlib.compress", req, n, || {
            pedal_zlib::compress(data, pedal_zlib::Level::DEFAULT)
        }),
        Algorithm::Lz4 => t.span("lz4.compress", req, n, || pedal_lz4::compress_block(data, 1)),
        Algorithm::Sz3 => {
            let cfg = pedal::wire::sz3_config(design, EB);
            let field = Field::<f32>::from_bytes(Dims::d1(data.len() / 4), data);
            let (core, _) =
                t.span("sz3.encode_core", req, n, || pedal_sz3::encode_core(&field, &cfg));
            t.span("sz3.backend", req, core.len() as u64, || pedal_sz3::seal(&core, cfg.backend))
        }
        Algorithm::Pco => t.span("pco.compress", req, n, || {
            let cfg = pedal_pco::PcoConfig::default();
            match dt {
                Datatype::Float32 => {
                    pedal_pco::compress_typed_bytes(data, pedal_pco::ColumnType::F32, &cfg)
                }
                Datatype::Float64 => {
                    pedal_pco::compress_typed_bytes(data, pedal_pco::ColumnType::F64, &cfg)
                }
                Datatype::Byte => pedal_pco::compress_bytes(data, &cfg),
            }
        }),
    }
}

/// Undo [`compress`] into `len` bytes.
pub fn decompress(
    t: &mut Tracer,
    req: u64,
    design: Design,
    body: &[u8],
    len: usize,
) -> Result<Vec<u8>, String> {
    let n = len as u64;
    let err = |e: &dyn std::fmt::Display| e.to_string();
    match design.algorithm {
        Algorithm::Deflate => t.span("deflate.inflate", req, n, || {
            pedal_deflate::decompress_with_limit(body, len).map_err(|e| err(&e))
        }),
        Algorithm::Zlib => t.span("zlib.decompress", req, n, || {
            pedal_zlib::decompress_with_limit(body, len).map_err(|e| err(&e))
        }),
        Algorithm::Lz4 => t.span("lz4.decompress", req, n, || {
            pedal_lz4::decompress_block(body, Some(len), len).map_err(|e| err(&e))
        }),
        Algorithm::Sz3 => {
            let limit = pedal_sz3::core_limit_for_output(len);
            let (core, _) = t.span("sz3.unseal", req, n, || {
                pedal_sz3::unseal_limited(body, limit).map_err(|e| err(&e))
            })?;
            t.span("sz3.decode_core", req, n, || {
                pedal_sz3::decode_core_with_limit::<f32>(&core, len / 4)
                    .map(|f| f.to_bytes())
                    .map_err(|e| err(&e))
            })
        }
        Algorithm::Pco => t.span("pco.decompress", req, n, || {
            pedal_pco::decompress_bytes_with_limit(body, len).map_err(|e| err(&e))
        }),
    }
}

/// Adler-32 and CRC-32 over `data`.
pub fn checksums(t: &mut Tracer, req: u64, data: &[u8]) {
    let n = data.len() as u64;
    t.span("zlib.adler32", req, n, || black_box(pedal_zlib::adler32(black_box(data))));
    t.span("zlib.crc32", req, n, || black_box(pedal_zlib::crc32(black_box(data))));
}

/// PSF1 encode with the LZ4 codec the streamed transport uses.
pub fn stream_encode(t: &mut Tracer, req: u64, data: &[u8]) -> (Vec<u8>, EncoderStats) {
    let cfg = StreamConfig::new(StreamCodec::Lz4 { accel: 1 }).with_chunk_size(STREAM_CHUNK);
    t.span("stream.encode", req, data.len() as u64, || {
        let mut enc = StreamEncoder::new(&cfg);
        enc.push(data);
        enc.finish_with_stats()
    })
}

pub fn stream_decode(t: &mut Tracer, req: u64, wire: &[u8], len: usize) -> Result<Vec<u8>, String> {
    t.span("stream.decode", req, len as u64, || pedal_stream::decode_all(wire, len))
        .map_err(|e| e.to_string())
}

/// The adaptive policy's compressibility probe, `reps` times.
pub fn probe(t: &mut Tracer, req: u64, data: &[u8], reps: usize) {
    let cfg = pedal_policy::ProbeConfig::default();
    for _ in 0..reps {
        t.span("policy.probe", req, data.len().min(cfg.sample_bytes) as u64, || {
            black_box(pedal_policy::probe(black_box(data), &cfg))
        });
    }
}
