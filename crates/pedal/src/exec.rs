//! The design executor: the one place a design becomes codec and engine
//! work with a virtual-time charge.
//!
//! [`crate::PedalContext`] and the `pedal-service` lanes both run every
//! operation through an [`Executor`], so a design's bytes, virtual time,
//! placement and trace spans are defined once. SoC work is the pure
//! [`crate::wire`] codec, charged afterwards from its [`CostProfile`].
//! C-Engine work goes to the caller's [`Workq`] at the operation's
//! virtual start. Spans go to the caller's [`LaneRecorder`]; every
//! recorded stage sums exactly to the un-instrumented total, so a
//! disabled recorder changes neither bytes nor times.

use crate::context::{Datatype, PedalError};
use crate::design::Design;
use crate::header::PedalHeader;
use crate::wire::{self, CostProfile};
use pedal_doca::{CompressJob, EngineError, JobHandle, JobKind, Workq};
use pedal_dpu::{Algorithm, CostModel, Direction, Placement, Platform, SimDuration, SimInstant};
use pedal_obs::{LaneRecorder, SpanKind};
use pedal_sz3::BackendKind;

/// What a design runs against: the platform's capabilities and costs,
/// the SZ3 error bound, and the engine channel, if any.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    pub platform: Platform,
    pub costs: CostModel,
    /// Absolute error bound of the SZ3 designs.
    pub error_bound: f64,
    /// Engine channel for C-Engine work; `None` runs every design on the
    /// SoC.
    pub workq: Option<&'a Workq>,
}

/// A successful operation.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The framed PEDAL message (compress) or the decoded data
    /// (decompress).
    pub bytes: Vec<u8>,
    /// The message is an uncompressed passthrough.
    pub passthrough: bool,
    /// SoC checksum time inside the operation that is charged apart from
    /// the codec work: the split zlib design's Adler-32 pass.
    pub checksum: SimDuration,
    /// Where the main codec work ran.
    pub placement: Placement,
    /// True when a C-Engine design was redirected to the SoC.
    pub fell_back: bool,
}

/// One executed operation: its result and the virtual instant it
/// finished — or failed, since a failure also occupies its lane.
#[derive(Debug)]
pub struct Executed {
    pub result: Result<ExecOutput, PedalError>,
    pub completed: SimInstant,
}

/// A failure and the virtual instant it was detected.
type Failed = (PedalError, SimInstant);

fn at<T>(r: Result<T, PedalError>, t: SimInstant) -> Result<T, Failed> {
    r.map_err(|e| (e, t))
}

fn executed(r: Result<(ExecOutput, SimInstant), Failed>) -> Executed {
    match r {
        Ok((out, completed)) => Executed { result: Ok(out), completed },
        Err((e, completed)) => Executed { result: Err(e), completed },
    }
}

fn check_len(actual: usize, expected: usize, t: SimInstant) -> Result<(), Failed> {
    if actual == expected {
        Ok(())
    } else {
        Err((PedalError::LengthMismatch { expected, actual }, t))
    }
}

/// Output of work that ran on the SoC.
fn soc_output(bytes: Vec<u8>, passthrough: bool, fell_back: bool) -> ExecOutput {
    ExecOutput {
        bytes,
        passthrough,
        checksum: SimDuration::ZERO,
        placement: Placement::Soc,
        fell_back,
    }
}

/// Output of work that ran on the engine.
fn engine_output(bytes: Vec<u8>, checksum: SimDuration) -> ExecOutput {
    ExecOutput {
        bytes,
        passthrough: false,
        checksum,
        placement: Placement::CEngine,
        fell_back: false,
    }
}

/// Map an engine-side failure to the error class the SoC path reports
/// for the same stream: a corrupt input is a codec error whichever
/// placement rejected it. Other engine failures stay
/// [`PedalError::Doca`].
fn engine_err(e: EngineError) -> PedalError {
    match e {
        EngineError::Decode(msg) => PedalError::Codec(msg),
        other => PedalError::Doca(other.to_string()),
    }
}

/// Submit one engine job at `now`, recording its queue and execute spans.
fn submit(
    wq: &Workq,
    job: CompressJob<'_>,
    now: SimInstant,
    rec: &mut LaneRecorder,
) -> Result<JobHandle, Failed> {
    wq.submit_traced(job, now, rec).map_err(|e| (PedalError::Doca(e.to_string()), now))
}

impl Executor<'_> {
    /// The engine channel `design` runs on in `dir`, or `None` for SoC
    /// work (no channel, or the capability fallback fired).
    fn engine_for(&self, design: Design, dir: Direction) -> Option<&Workq> {
        self.workq.filter(|_| design.effective_placement(self.platform, dir) == Placement::CEngine)
    }

    /// Compress `data` with `design`, starting at `begin`, into a framed
    /// PEDAL message (the break-even passthrough rule included).
    pub fn compress(
        &self,
        design: Design,
        datatype: Datatype,
        data: &[u8],
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Executed {
        executed(match self.engine_for(design, Direction::Compress) {
            Some(wq) => self.compress_engine(wq, design, datatype, data, begin, rec),
            None => self.compress_soc(design, datatype, data, begin, rec),
        })
    }

    fn compress_soc(
        &self,
        design: Design,
        datatype: Datatype,
        data: &[u8],
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Result<(ExecOutput, SimInstant), Failed> {
        let (body, profile) =
            at(wire::compress_body(design, datatype, self.error_bound, data), begin)?;
        let completed =
            soc_stage_time(&self.costs, design, Direction::Compress, &profile, begin, rec);
        let (bytes, passthrough) = wire::frame_compressed(design, data, body);
        let fell_back = design.falls_back(self.platform, Direction::Compress);
        Ok((soc_output(bytes, passthrough, fell_back), completed))
    }

    fn compress_engine(
        &self,
        wq: &Workq,
        design: Design,
        datatype: Datatype,
        data: &[u8],
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Result<(ExecOutput, SimInstant), Failed> {
        let (body, completed, checksum) = match design.algorithm {
            Algorithm::Deflate | Algorithm::Zlib => {
                let job = CompressJob::new(JobKind::DeflateCompress, data);
                let h = submit(wq, job, begin, rec)?;
                let r = at(h.result.map_err(engine_err), h.completed_at)?;
                if design.algorithm == Algorithm::Zlib {
                    // Split design (paper Fig. 3): DEFLATE body on the
                    // engine, zlib header + Adler-32 trailer on the SoC.
                    let checksum = self.costs.checksum(data.len());
                    let completed = h.completed_at + checksum;
                    rec.span(SpanKind::Checksum, h.completed_at, completed, data.len() as u64);
                    let body = pedal_zlib::assemble(pedal_zlib::Level::DEFAULT, &r.output, data);
                    (body, completed, checksum)
                } else {
                    (r.output, h.completed_at, SimDuration::ZERO)
                }
            }
            Algorithm::Sz3 => {
                let (core, stats) =
                    at(wire::encode_sz3_core(design, datatype, self.error_bound, data), begin)?;
                // The core stages run on the SoC; their split sums exactly
                // to the sz3_core lump, so the backend is submitted when
                // the core stages end whether or not tracing is on.
                let stages = self.costs.sz3_core_stages(Direction::Compress, stats.input_bytes);
                let t1 = begin + stages.predict;
                let t2 = t1 + stages.quantize;
                let t3 = t2 + stages.huffman;
                rec.span(SpanKind::Sz3Predict, begin, t1, stats.input_bytes as u64);
                rec.span(SpanKind::Sz3Quantize, t1, t2, stats.quantized as u64);
                rec.span(SpanKind::Sz3Huffman, t2, t3, stats.huffman_bytes as u64);
                // The lossless backend is what PEDAL offloads (Fig. 4).
                let h = submit(wq, CompressJob::new(JobKind::DeflateCompress, &core), t3, rec)?;
                rec.span(SpanKind::Sz3Backend, h.started_at, h.completed_at, core.len() as u64);
                let r = at(h.result.map_err(engine_err), h.completed_at)?;
                let sealed = pedal_sz3::seal_with(&core, BackendKind::Deflate, |_| r.output);
                (sealed, h.completed_at, SimDuration::ZERO)
            }
            Algorithm::Lz4 => unreachable!("no BlueField generation compresses LZ4 on the engine"),
            Algorithm::Pco => unreachable!("no BlueField engine implements the pco transform"),
        };
        let (bytes, passthrough) = wire::frame_compressed(design, data, body);
        Ok((ExecOutput { passthrough, ..engine_output(bytes, checksum) }, completed))
    }

    /// Decode a PEDAL message into `expected_len` bytes, starting at
    /// `begin`. Execution follows the payload's header, exactly as the
    /// receiver side of Fig. 5.
    pub fn decompress(
        &self,
        payload: &[u8],
        expected_len: usize,
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Executed {
        executed(self.try_decompress(payload, expected_len, begin, rec))
    }

    fn try_decompress(
        &self,
        payload: &[u8],
        expected_len: usize,
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Result<(ExecOutput, SimInstant), Failed> {
        let (header, original_len, body) = at(wire::unframe(payload), begin)?;
        check_len(original_len, expected_len, begin)?;
        let design = match header {
            PedalHeader::Compressed(design) => design,
            PedalHeader::Uncompressed => {
                check_len(body.len(), expected_len, begin)?;
                let completed = begin + self.costs.memcpy(body.len());
                rec.span(SpanKind::Memcpy, begin, completed, body.len() as u64);
                return Ok((soc_output(body.to_vec(), true, false), completed));
            }
        };
        if let Some(wq) = self.engine_for(design, Direction::Decompress) {
            return self.decompress_engine(wq, design, body, expected_len, begin, rec);
        }
        let (data, profile) = at(wire::decompress_body(design, body, expected_len), begin)?;
        let completed =
            soc_stage_time(&self.costs, design, Direction::Decompress, &profile, begin, rec);
        let fell_back = design.falls_back(self.platform, Direction::Decompress);
        Ok((soc_output(data, false, fell_back), completed))
    }

    fn decompress_engine(
        &self,
        wq: &Workq,
        design: Design,
        body: &[u8],
        expected_len: usize,
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Result<(ExecOutput, SimInstant), Failed> {
        match design.algorithm {
            Algorithm::Deflate | Algorithm::Lz4 => {
                let kind = if design.algorithm == Algorithm::Lz4 {
                    JobKind::Lz4Decompress
                } else {
                    JobKind::DeflateDecompress
                };
                let job = CompressJob::new(kind, body).with_expected_len(expected_len);
                let h = submit(wq, job, begin, rec)?;
                let r = at(h.result.map_err(engine_err), h.completed_at)?;
                check_len(r.output.len(), expected_len, h.completed_at)?;
                Ok((engine_output(r.output, SimDuration::ZERO), h.completed_at))
            }
            Algorithm::Zlib => {
                let (deflate_body, expected_sum) =
                    at(pedal_zlib::split_stream(body).map_err(PedalError::codec), begin)?;
                let job = CompressJob::new(JobKind::DeflateDecompress, deflate_body)
                    .with_expected_len(expected_len);
                let h = submit(wq, job, begin, rec)?;
                let r = at(h.result.map_err(engine_err), h.completed_at)?;
                // Adler verification stays on the SoC.
                let actual = pedal_zlib::adler32(&r.output);
                if actual != expected_sum {
                    let msg = format!("adler32 mismatch: {actual:#x} != {expected_sum:#x}");
                    return Err((PedalError::Codec(msg), h.completed_at));
                }
                let checksum = self.costs.checksum(expected_len);
                let completed = h.completed_at + checksum;
                rec.span(SpanKind::Checksum, h.completed_at, completed, expected_len as u64);
                check_len(r.output.len(), expected_len, completed)?;
                Ok((engine_output(r.output, checksum), completed))
            }
            Algorithm::Sz3 => self.decompress_sz3_engine(wq, body, expected_len, begin, rec),
            // `effective_placement` never lands pco on an engine: the
            // capability matrix reports no support in either direction.
            Algorithm::Pco => unreachable!("no BlueField engine decodes pco streams"),
        }
    }

    fn decompress_sz3_engine(
        &self,
        wq: &Workq,
        body: &[u8],
        expected_len: usize,
        begin: SimInstant,
        rec: &mut LaneRecorder,
    ) -> Result<(ExecOutput, SimInstant), Failed> {
        let mut engine_started = begin;
        let mut engine_done = begin;
        let mut used_engine = false;
        // Undo the lossless backend on the engine when it is DEFLATE. The
        // shared budget formula bounds the declared core length, so this
        // path rejects oversized streams at the same threshold as the SoC
        // decode.
        let core_budget = pedal_sz3::core_limit_for_output(expected_len);
        let unsealed = pedal_sz3::unseal_with_limit(body, core_budget, |backend, packed, limit| {
            match backend {
                BackendKind::Deflate => {
                    // The engine needs a sized destination; the validated
                    // budget becomes its output cap.
                    let job = CompressJob::new(JobKind::DeflateDecompress, packed)
                        .with_expected_len(limit);
                    let h = wq
                        .submit(job, begin)
                        .map_err(|e| pedal_sz3::BackendError(e.to_string()))?;
                    engine_started = h.started_at;
                    engine_done = h.completed_at;
                    used_engine = true;
                    h.result.map(|r| r.output).map_err(|e| pedal_sz3::BackendError(e.to_string()))
                }
                other => pedal_sz3::backend_decompress_with_limit(other, packed, limit),
            }
        });
        if used_engine {
            rec.span(SpanKind::WorkqQueue, begin, engine_started, body.len() as u64);
            rec.span(SpanKind::EngineExecute, engine_started, engine_done, body.len() as u64);
        }
        let (core, backend) = at(unsealed.map_err(PedalError::codec), engine_done)?;
        let backend_done = if used_engine {
            rec.span(SpanKind::Sz3Backend, engine_started, engine_done, core.len() as u64);
            engine_done
        } else {
            let t = match backend {
                BackendKind::Deflate => {
                    self.costs.soc_lossless(Algorithm::Deflate, Direction::Decompress, core.len())
                }
                _ => self.costs.sz3_zs_backend(Direction::Decompress, core.len()),
            };
            rec.span(SpanKind::Sz3Backend, engine_done, engine_done + t, core.len() as u64);
            engine_done + t
        };
        // Decode runs the pipeline in reverse: backend → huffman →
        // quantize → predict, on the SoC.
        let stages = self.costs.sz3_core_stages(Direction::Decompress, expected_len);
        let s1 = backend_done + stages.huffman;
        let s2 = s1 + stages.quantize;
        let completed = s2 + stages.predict;
        rec.span(SpanKind::Sz3Huffman, backend_done, s1, core.len() as u64);
        rec.span(SpanKind::Sz3Quantize, s1, s2, expected_len as u64);
        rec.span(SpanKind::Sz3Predict, s2, completed, expected_len as u64);
        let data = at(wire::decode_sz3_core(&core, expected_len), completed)?;
        check_len(data.len(), expected_len, completed)?;
        let out = if used_engine {
            engine_output(data, SimDuration::ZERO)
        } else {
            soc_output(data, false, false)
        };
        Ok((out, completed))
    }
}

/// Completion instant of one SoC operation, charged from the byte counts
/// the pure codec recorded, with per-stage spans on `rec`.
fn soc_stage_time(
    costs: &CostModel,
    design: Design,
    dir: Direction,
    profile: &CostProfile,
    begin: SimInstant,
    rec: &mut LaneRecorder,
) -> SimInstant {
    match design.algorithm {
        Algorithm::Sz3 => {
            let backend = match design.placement {
                Placement::Soc => costs.sz3_zs_backend(dir, profile.lossless_bytes),
                // CE design running on the SoC (BF3 redirect): the
                // backend is DEFLATE at SoC speed — the paper's 1.58x
                // penalty (Fig. 9).
                Placement::CEngine => {
                    costs.soc_lossless(Algorithm::Deflate, dir, profile.lossless_bytes)
                }
            };
            let stages = costs.sz3_core_stages(dir, profile.sz3_core_bytes);
            match dir {
                Direction::Compress => {
                    // predict → quantize → huffman → backend
                    let t1 = begin + stages.predict;
                    let t2 = t1 + stages.quantize;
                    let t3 = t2 + stages.huffman;
                    let end = t3 + backend;
                    rec.span(SpanKind::Sz3Predict, begin, t1, profile.sz3_core_bytes as u64);
                    rec.span(SpanKind::Sz3Quantize, t1, t2, profile.sz3_core_bytes as u64);
                    rec.span(SpanKind::Sz3Huffman, t2, t3, profile.lossless_bytes as u64);
                    rec.span(SpanKind::Sz3Backend, t3, end, profile.lossless_bytes as u64);
                    end
                }
                Direction::Decompress => {
                    // backend → huffman → quantize → predict
                    let t1 = begin + backend;
                    let t2 = t1 + stages.huffman;
                    let t3 = t2 + stages.quantize;
                    let end = t3 + stages.predict;
                    rec.span(SpanKind::Sz3Backend, begin, t1, profile.lossless_bytes as u64);
                    rec.span(SpanKind::Sz3Huffman, t1, t2, profile.lossless_bytes as u64);
                    rec.span(SpanKind::Sz3Quantize, t2, t3, profile.sz3_core_bytes as u64);
                    rec.span(SpanKind::Sz3Predict, t3, end, profile.sz3_core_bytes as u64);
                    end
                }
            }
        }
        algo => {
            let total = costs.soc_lossless(algo, dir, profile.lossless_bytes);
            let end = begin + total;
            rec.span(SpanKind::SocExecute, begin, end, profile.lossless_bytes as u64);
            if algo == Algorithm::Zlib {
                // soc_lossless already includes the adler32 pass; surface
                // it as a nested tail span inside the SoC-execute span.
                let ck = costs.checksum(profile.lossless_bytes);
                let ck_start = begin + total.saturating_sub(ck);
                rec.span(SpanKind::Checksum, ck_start, end, profile.lossless_bytes as u64);
            }
            end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_decode_failure_is_a_codec_error_at_engine_release() {
        let platform = Platform::BlueField2;
        let costs = CostModel::for_platform(platform);
        let wq = Workq::new(costs, Workq::DEFAULT_DEPTH);
        let exec = Executor { platform, costs, error_bound: 1e-4, workq: Some(&wq) };
        let payload = wire::frame(PedalHeader::Compressed(Design::CE_DEFLATE), 64, &[0xFF; 32]);
        let begin = SimInstant(1_000);
        let done = exec.decompress(&payload, 64, begin, &mut LaneRecorder::disabled());
        // The same class the SoC decode reports for this stream.
        assert!(matches!(done.result, Err(PedalError::Codec(_))), "{:?}", done.result);
        // A rejected engine job frees the engine at once.
        assert_eq!(done.completed, begin);
    }
}
