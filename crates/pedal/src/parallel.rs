//! Parallel and hybrid compression — the paper's forward-looking designs.
//!
//! §IV: "future developments could involve various compression designs
//! using the SoC and C-Engine to achieve parallel compression and
//! decompression"; §V-C2 points at "a prospective hybrid design avenue for
//! exploiting both SoC and C-Engine in parallel".
//!
//! This module implements both:
//!
//! * [`ParallelStrategy::SocParallel`] — the input is split into chunks
//!   compressed concurrently on up to `soc_cores` ARM cores (real host
//!   threads on `pedal_deflate::pool`, whose workers parse each chunk
//!   sequentially; virtual time is the slowest core's track),
//! * [`ParallelStrategy::Hybrid`] — chunks are divided between the
//!   C-Engine (a single FIFO server) and the SoC cores, split by their
//!   calibrated throughput ratio so both tracks finish together.
//!
//! The container is a PSF1 stream (`pedal-stream`) of sync-flush DEFLATE
//! fragments: the engine and the SoC emit the same fragment bytes, so the
//! output equals `pedal_stream::encode_all` for every strategy, and any
//! PEDAL peer can decompress it regardless of how the chunks were
//! produced.

use crate::context::PedalError;
use pedal_deflate::pool::fan_out;
use pedal_doca::{CompressJob, DocaContext, JobKind};
use pedal_dpu::{Algorithm, CostModel, Direction, Placement, SimDuration, SimInstant};
pub use pedal_stream::DEFAULT_CHUNK;
use pedal_stream::{Payload, StreamCodec, StreamConfig, StreamError, CODEC_DEFLATE};

/// How to parallelize a chunked compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Split across `cores` SoC cores.
    SocParallel { cores: usize },
    /// Split between the C-Engine and `soc_cores` SoC cores; if the engine
    /// cannot compress on this platform, everything goes to the SoC.
    Hybrid { soc_cores: usize },
}

/// Result of a chunked operation: payload (or data), the virtual makespan,
/// and per-track times for analysis.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    pub bytes: Vec<u8>,
    /// Virtual completion time of the slowest track.
    pub makespan: SimDuration,
    /// Virtual busy time of the engine track (zero when unused).
    pub engine_time: SimDuration,
    /// Virtual busy time of the slowest SoC core.
    pub soc_time: SimDuration,
    pub chunks: usize,
}

/// Compress `data` as a PSF1 stream of DEFLATE fragments, one per
/// `chunk_size` (at least 4 KiB) chunk.
///
/// Real chunk compression runs on host threads (one per simulated core);
/// the virtual makespan models `cores` SoC cores plus, for
/// [`ParallelStrategy::Hybrid`], the engine's FIFO track, which takes the
/// leading chunks.
pub fn compress_chunked(
    doca: &DocaContext,
    data: &[u8],
    chunk_size: usize,
    strategy: ParallelStrategy,
) -> Result<ParallelOutcome, PedalError> {
    let cfg = StreamConfig::new(StreamCodec::Deflate(pedal_deflate::Level::DEFAULT))
        .with_chunk_size(chunk_size.max(4096));
    let chunks: Vec<&[u8]> = cfg.chunks(data).collect();
    let n = chunks.len();
    let (engine_take, cores) = plan(doca, strategy, JobKind::DeflateCompress, n, cfg.chunk_size);

    let mut payloads = Vec::with_capacity(n);
    let mut engine_time = SimDuration::ZERO;
    for (i, chunk) in chunks[..engine_take].iter().enumerate() {
        let job = CompressJob::new(JobKind::DeflateCompress, chunk).with_final_block(i + 1 == n);
        let (r, done) = doca.submit(job, SimInstant::EPOCH + engine_time).map_err(doca_err)?;
        payloads.push(Payload { bytes: r.output, raw: false });
        engine_time = done.elapsed_since(SimInstant::EPOCH);
    }
    let soc = &chunks[engine_take..];
    payloads.extend(fan_out(soc.len(), cores.min(soc.len()), |j| {
        cfg.codec.encode_chunk(soc[j], engine_take + j + 1 == n)
    }));
    let soc_time = soc_track(doca.costs, Direction::Compress, cores, soc.iter().map(|c| c.len()));

    Ok(ParallelOutcome {
        bytes: pedal_stream::assemble(&cfg, data, &payloads),
        makespan: engine_time.max(soc_time),
        engine_time,
        soc_time,
        chunks: n,
    })
}

/// Decompress a PSF1 stream of DEFLATE fragments, splitting work the same
/// way. Every frame is validated before any is decoded; a decode failure
/// reports the first failing frame in index order.
pub fn decompress_chunked(
    doca: &DocaContext,
    payload: &[u8],
    expected_len: usize,
    strategy: ParallelStrategy,
) -> Result<ParallelOutcome, PedalError> {
    let stream = pedal_stream::split_frames(payload, expected_len).map_err(codec_err)?;
    if stream.codec != CODEC_DEFLATE {
        return Err(PedalError::Codec(format!(
            "chunked stream codec id {} is not DEFLATE",
            stream.codec
        )));
    }
    if stream.total != expected_len {
        return Err(PedalError::LengthMismatch { expected: expected_len, actual: stream.total });
    }
    let n = stream.frames.len();
    // Frames are near-uniform in plaintext size; plan on the average.
    let avg = (stream.total / n).max(1);
    let (engine_take, cores) = plan(doca, strategy, JobKind::DeflateDecompress, n, avg);
    let (engine_frames, soc_frames) = stream.frames.split_at(engine_take);

    let mut parts = Vec::with_capacity(n);
    let mut engine_time = SimDuration::ZERO;
    for f in engine_frames {
        if f.raw {
            parts.push(f.decode(stream.codec).map_err(codec_err)?);
            continue;
        }
        let job = CompressJob::new(JobKind::DeflateDecompress, f.payload)
            .with_expected_len(f.raw_len)
            .with_final_block(f.last);
        let (r, done) = doca.submit(job, SimInstant::EPOCH + engine_time).map_err(doca_err)?;
        engine_time = done.elapsed_since(SimInstant::EPOCH);
        f.check_len(&r.output).map_err(codec_err)?;
        parts.push(r.output);
    }
    let decoded = fan_out(soc_frames.len(), cores.min(soc_frames.len()), |j| {
        soc_frames[j].decode(stream.codec)
    });
    for part in decoded {
        parts.push(part.map_err(codec_err)?);
    }
    let soc_time =
        soc_track(doca.costs, Direction::Decompress, cores, soc_frames.iter().map(|f| f.raw_len));

    let bytes = parts.concat();
    stream.verify(&bytes).map_err(codec_err)?;
    Ok(ParallelOutcome {
        bytes,
        makespan: engine_time.max(soc_time),
        engine_time,
        soc_time,
        chunks: n,
    })
}

fn codec_err(e: StreamError) -> PedalError {
    PedalError::Codec(e.to_string())
}

fn doca_err(e: pedal_doca::DocaError) -> PedalError {
    PedalError::Doca(e.to_string())
}

/// How many leading chunks of `n` (each about `chunk_bytes`) the engine
/// takes, and how many SoC cores share the rest.
fn plan(
    doca: &DocaContext,
    strategy: ParallelStrategy,
    kind: JobKind,
    n: usize,
    chunk_bytes: usize,
) -> (usize, usize) {
    match strategy {
        ParallelStrategy::SocParallel { cores } => (0, cores.max(1)),
        ParallelStrategy::Hybrid { soc_cores } => {
            let cores = soc_cores.max(1);
            let take = if doca.supports(kind) {
                optimal_engine_take(n, chunk_bytes, cores, doca.costs, kind.direction())
            } else {
                0
            };
            (take, cores)
        }
    }
}

/// Virtual SoC track: chunks of `sizes` bytes assigned round-robin across
/// `cores`; the slowest core's busy time.
fn soc_track(
    costs: CostModel,
    dir: Direction,
    cores: usize,
    sizes: impl Iterator<Item = usize>,
) -> SimDuration {
    let mut core_busy = vec![SimDuration::ZERO; cores];
    for (k, len) in sizes.enumerate() {
        core_busy[k % cores] += costs.soc_lossless(Algorithm::Deflate, dir, len);
    }
    core_busy.into_iter().max().unwrap_or(SimDuration::ZERO)
}

/// Choose how many of `n` uniform chunks the engine should take so the
/// discrete two-track makespan is minimal. Accounts for chunk granularity:
/// when the engine dwarfs the combined SoC cores, the optimum is engine-only
/// (a single SoC chunk would dominate the makespan).
fn optimal_engine_take(
    n: usize,
    chunk_bytes: usize,
    cores: usize,
    costs: CostModel,
    dir: Direction,
) -> usize {
    let engine_chunk = costs
        .cengine_lossless(Algorithm::Deflate, dir, chunk_bytes)
        .expect("caller checked engine capability");
    let soc_chunk = costs.soc_lossless(Algorithm::Deflate, dir, chunk_bytes);
    let mut best = (SimDuration(u64::MAX), n);
    for k in 0..=n {
        let engine = SimDuration(engine_chunk.0 * k as u64);
        let rounds = (n - k).div_ceil(cores) as u64;
        let soc = SimDuration(soc_chunk.0 * rounds);
        let makespan = engine.max(soc);
        if makespan < best.0 {
            best = (makespan, k);
        }
    }
    best.1
}

/// Placement summary for reporting.
pub fn strategy_name(s: ParallelStrategy, engine_usable: bool) -> String {
    match s {
        ParallelStrategy::SocParallel { cores } => format!("SoC x{cores}"),
        ParallelStrategy::Hybrid { soc_cores } if engine_usable => {
            format!("Hybrid (engine + SoC x{soc_cores})")
        }
        ParallelStrategy::Hybrid { soc_cores } => {
            format!("Hybrid -> SoC x{soc_cores} (engine unavailable)")
        }
    }
}

/// Which placement dominates the makespan of an outcome.
pub fn bottleneck(o: &ParallelOutcome) -> Placement {
    if o.engine_time >= o.soc_time {
        Placement::CEngine
    } else {
        Placement::Soc
    }
}

/// Predict the single-core sequential time for comparison tables.
pub fn sequential_time(costs: &CostModel, dir: Direction, bytes: usize) -> SimDuration {
    costs.soc_lossless(Algorithm::Deflate, dir, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_dpu::Platform;

    fn data() -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..200_000u32 {
            out.extend_from_slice(format!("record {} payload {}\n", i, i % 97).as_bytes());
            if out.len() > 3_000_000 {
                break;
            }
        }
        out
    }

    #[test]
    fn soc_parallel_roundtrip() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        for cores in [1usize, 2, 8] {
            let c =
                compress_chunked(&doca, &data, 512 * 1024, ParallelStrategy::SocParallel { cores })
                    .unwrap();
            let d = decompress_chunked(
                &doca,
                &c.bytes,
                data.len(),
                ParallelStrategy::SocParallel { cores },
            )
            .unwrap();
            assert_eq!(d.bytes, data, "cores {cores}");
        }
    }

    #[test]
    fn output_is_the_psf1_stream_for_every_strategy_and_platform() {
        let text = data();
        let strategies = [
            ParallelStrategy::SocParallel { cores: 1 },
            ParallelStrategy::SocParallel { cores: 2 },
            ParallelStrategy::SocParallel { cores: 8 },
            ParallelStrategy::Hybrid { soc_cores: 1 },
            ParallelStrategy::Hybrid { soc_cores: 8 },
        ];
        let chunk = 4096;
        let cfg = StreamConfig::new(StreamCodec::Deflate(pedal_deflate::Level::DEFAULT))
            .with_chunk_size(chunk);
        // Streams whose fragments came from both the engine and the SoC.
        let mut mixed = 0;
        for platform in [Platform::BlueField2, Platform::BlueField3] {
            let doca = DocaContext::open(platform).unwrap();
            // Empty, one byte, exact chunk multiples, ragged tail.
            for len in [0, 1, chunk, 3 * chunk, 3 * chunk + 123, 40 * chunk + 1] {
                let input = &text[..len];
                let expected = pedal_stream::encode_all(input, &cfg);
                for strategy in strategies {
                    let c = compress_chunked(&doca, input, chunk, strategy).unwrap();
                    assert_eq!(c.bytes, expected, "{platform:?} {strategy:?} len {len}");
                    assert_eq!(c.chunks, len.div_ceil(chunk).max(1));
                    if c.engine_time > SimDuration::ZERO && c.soc_time > SimDuration::ZERO {
                        mixed += 1;
                    }
                    let d = decompress_chunked(&doca, &c.bytes, len, strategy).unwrap();
                    assert_eq!(d.bytes, input, "{platform:?} {strategy:?} len {len}");
                }
            }
        }
        assert!(mixed > 0, "BF2 hybrid must split some stream across both tracks");
    }

    #[test]
    fn engine_decodes_fragments_of_a_hybrid_stream() {
        // BF2 decompresses on the engine; with one SoC core the planner
        // gives it the leading non-final fragments and the SoC the rest.
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        let c =
            compress_chunked(&doca, &data, 256 * 1024, ParallelStrategy::SocParallel { cores: 2 })
                .unwrap();
        let d = decompress_chunked(
            &doca,
            &c.bytes,
            data.len(),
            ParallelStrategy::Hybrid { soc_cores: 1 },
        )
        .unwrap();
        assert_eq!(d.bytes, data);
        assert!(d.engine_time > SimDuration::ZERO && d.soc_time > SimDuration::ZERO);
    }

    #[test]
    fn non_deflate_streams_are_rejected() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = b"lz4 frames are not a chunked DEFLATE stream".repeat(100);
        let cfg = StreamConfig::new(StreamCodec::Lz4 { accel: 1 }).with_chunk_size(4096);
        let wire = pedal_stream::encode_all(&data, &cfg);
        assert_eq!(pedal_stream::decode_all(&wire, data.len()).unwrap(), data);
        let r = decompress_chunked(
            &doca,
            &wire,
            data.len(),
            ParallelStrategy::SocParallel { cores: 2 },
        );
        assert!(matches!(r, Err(PedalError::Codec(_))), "{r:?}");
    }

    #[test]
    fn more_cores_shrink_the_makespan() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        let t1 =
            compress_chunked(&doca, &data, 256 * 1024, ParallelStrategy::SocParallel { cores: 1 })
                .unwrap()
                .makespan;
        let t8 =
            compress_chunked(&doca, &data, 256 * 1024, ParallelStrategy::SocParallel { cores: 8 })
                .unwrap()
                .makespan;
        assert!(
            t8.as_nanos() * 4 < t1.as_nanos(),
            "8 cores should be >4x faster: {t1:?} vs {t8:?}"
        );
    }

    #[test]
    fn hybrid_roundtrip_and_beats_engine_alone_on_bf2() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        let hybrid =
            compress_chunked(&doca, &data, 256 * 1024, ParallelStrategy::Hybrid { soc_cores: 8 })
                .unwrap();
        let rt = decompress_chunked(
            &doca,
            &hybrid.bytes,
            data.len(),
            ParallelStrategy::Hybrid { soc_cores: 8 },
        )
        .unwrap();
        assert_eq!(rt.bytes, data);
        assert!(hybrid.engine_time > SimDuration::ZERO, "engine must participate");
        // The hybrid makespan can't exceed an engine-only run of all chunks.
        doca.workq.reset();
        let mut engine_only = SimDuration::ZERO;
        for chunk in data.chunks(256 * 1024) {
            let job = CompressJob::new(JobKind::DeflateCompress, chunk);
            let (_, done) = doca.submit(job, SimInstant::EPOCH + engine_only).unwrap();
            engine_only = done.elapsed_since(SimInstant::EPOCH);
        }
        assert!(hybrid.makespan <= engine_only);
    }

    #[test]
    fn hybrid_on_bf3_degrades_to_soc() {
        let doca = DocaContext::open(Platform::BlueField3).unwrap();
        let data = data();
        let out =
            compress_chunked(&doca, &data, 512 * 1024, ParallelStrategy::Hybrid { soc_cores: 16 })
                .unwrap();
        assert_eq!(out.engine_time, SimDuration::ZERO, "BF3 engine cannot compress");
        // Cross-platform: BF2 can decompress the container on its engine.
        // With a single SoC core the planner must enlist the engine; with
        // many cores it may legitimately choose SoC-only (the 1.5 ms
        // engine job overhead dominates small chunk counts).
        let bf2 = DocaContext::open(Platform::BlueField2).unwrap();
        let rt = decompress_chunked(
            &bf2,
            &out.bytes,
            data.len(),
            ParallelStrategy::Hybrid { soc_cores: 1 },
        )
        .unwrap();
        assert_eq!(rt.bytes, data);
        assert!(rt.engine_time > SimDuration::ZERO);
    }

    #[test]
    fn corrupt_containers_error_cleanly() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        let data = data();
        let c =
            compress_chunked(&doca, &data, 512 * 1024, ParallelStrategy::SocParallel { cores: 2 })
                .unwrap();
        // Bad magic.
        let mut bad = c.bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decompress_chunked(
            &doca,
            &bad,
            data.len(),
            ParallelStrategy::SocParallel { cores: 2 }
        )
        .is_err());
        // Wrong expected length.
        assert!(decompress_chunked(
            &doca,
            &c.bytes,
            data.len() + 1,
            ParallelStrategy::SocParallel { cores: 2 }
        )
        .is_err());
        // Truncation.
        assert!(decompress_chunked(
            &doca,
            &c.bytes[..c.bytes.len() / 2],
            data.len(),
            ParallelStrategy::SocParallel { cores: 2 }
        )
        .is_err());
    }

    #[test]
    fn single_chunk_and_empty_input() {
        let doca = DocaContext::open(Platform::BlueField2).unwrap();
        for input in [Vec::new(), b"tiny".to_vec()] {
            let c = compress_chunked(
                &doca,
                &input,
                DEFAULT_CHUNK,
                ParallelStrategy::SocParallel { cores: 4 },
            )
            .unwrap();
            let d = decompress_chunked(
                &doca,
                &c.bytes,
                input.len(),
                ParallelStrategy::SocParallel { cores: 4 },
            )
            .unwrap();
            assert_eq!(d.bytes, input);
        }
    }
}
