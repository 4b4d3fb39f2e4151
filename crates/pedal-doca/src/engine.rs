//! The simulated hardware compression engine: job descriptors and their
//! actual (host-side) execution, with virtual service times supplied by the
//! cost model.

use pedal_dpu::{Algorithm, CostModel, Direction, SimDuration};

/// The operations BlueField engines expose (paper Table II). zlib and SZ3
/// are *not* engine job kinds — PEDAL composes them from DEFLATE jobs plus
/// SoC work (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    DeflateCompress,
    DeflateDecompress,
    Lz4Compress,
    Lz4Decompress,
}

impl JobKind {
    pub fn algorithm(self) -> Algorithm {
        match self {
            JobKind::DeflateCompress | JobKind::DeflateDecompress => Algorithm::Deflate,
            JobKind::Lz4Compress | JobKind::Lz4Decompress => Algorithm::Lz4,
        }
    }

    pub fn direction(self) -> Direction {
        match self {
            JobKind::DeflateCompress | JobKind::Lz4Compress => Direction::Compress,
            JobKind::DeflateDecompress | JobKind::Lz4Decompress => Direction::Decompress,
        }
    }
}

/// A compress/decompress job submitted to the engine.
#[derive(Debug, Clone)]
pub struct CompressJob {
    pub kind: JobKind,
    pub input: Vec<u8>,
    /// Expected decompressed size (required for decompression jobs, like
    /// DOCA's destination-buffer sizing).
    pub expected_output_len: Option<usize>,
    /// Opaque user tag returned with the completion.
    pub user_tag: u64,
    /// For DEFLATE compression: emit a terminated stream (`true`, the
    /// default) or a non-final *fragment* ending in a sync flush, for
    /// chunk-parallel stitching across channels (`false`). For DEFLATE
    /// decompression: decode a terminated stream (`true`) or a non-final
    /// sync-flush fragment, rejecting one that contains a final block
    /// (`false`). Mirrors the hardware engine's final-block control bit.
    pub final_block: bool,
}

impl CompressJob {
    pub fn new(kind: JobKind, input: Vec<u8>) -> Self {
        Self { kind, input, expected_output_len: None, user_tag: 0, final_block: true }
    }

    pub fn with_expected_len(mut self, len: usize) -> Self {
        self.expected_output_len = Some(len);
        self
    }

    pub fn with_tag(mut self, tag: u64) -> Self {
        self.user_tag = tag;
        self
    }

    /// Mark a DEFLATE job's input or output as a non-final stream fragment.
    pub fn with_final_block(mut self, final_block: bool) -> Self {
        self.final_block = final_block;
        self
    }
}

/// Completed job: the real output plus the virtual service time charged.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub kind: JobKind,
    pub output: Vec<u8>,
    /// Pure engine service time (excludes queueing).
    pub service_time: SimDuration,
    pub user_tag: u64,
}

/// Engine-side execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Input failed to decode (corrupt stream handed to the engine).
    Decode(String),
    /// Decompression without a sized destination.
    MissingOutputLen,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Decode(e) => write!(f, "engine decode failure: {e}"),
            EngineError::MissingOutputLen => {
                write!(f, "decompression job requires expected_output_len")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Execute a job on the host (real bytes) and compute its virtual service
/// time. The service time is charged on the byte count the cost model keys
/// on: input bytes for compression, output bytes for decompression.
pub fn execute(job: &CompressJob, costs: &CostModel) -> Result<JobResult, EngineError> {
    let (output, costed_bytes) = match job.kind {
        JobKind::DeflateCompress => {
            let out = pedal_deflate::compress_fragment(
                &job.input,
                pedal_deflate::Level::DEFAULT,
                job.final_block,
            );
            (out, job.input.len())
        }
        JobKind::DeflateDecompress => {
            let limit = job.expected_output_len.ok_or(EngineError::MissingOutputLen)?;
            let decoded = if job.final_block {
                pedal_deflate::decompress_with_limit(&job.input, limit).map(|out| (out, false))
            } else {
                pedal_deflate::decompress_fragment_with_limit(&job.input, limit)
            };
            let (out, final_in_fragment) =
                decoded.map_err(|e| EngineError::Decode(e.to_string()))?;
            if final_in_fragment {
                return Err(EngineError::Decode("final block in a non-final fragment".into()));
            }
            let n = out.len();
            (out, n)
        }
        JobKind::Lz4Compress => {
            let out = pedal_lz4::compress_block(&job.input, 1);
            (out, job.input.len())
        }
        JobKind::Lz4Decompress => {
            let limit = job.expected_output_len.ok_or(EngineError::MissingOutputLen)?;
            let out = pedal_lz4::decompress_block(&job.input, Some(limit), limit)
                .map_err(|e| EngineError::Decode(e.to_string()))?;
            let n = out.len();
            (out, n)
        }
    };
    // The caller (DocaContext) has already verified capability, so the
    // engine rate is guaranteed present here.
    let service_time = costs
        .cengine_lossless(job.kind.algorithm(), job.kind.direction(), costed_bytes)
        .expect("capability checked before execute");
    Ok(JobResult { kind: job.kind, output, service_time, user_tag: job.user_tag })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_dpu::Platform;

    fn bf2_costs() -> CostModel {
        CostModel::for_platform(Platform::BlueField2)
    }

    #[test]
    fn deflate_roundtrip_through_engine() {
        let costs = bf2_costs();
        let data = b"hardware engine compression job".repeat(50);
        let c = execute(&CompressJob::new(JobKind::DeflateCompress, data.clone()), &costs).unwrap();
        assert!(c.service_time > SimDuration::ZERO);
        let d = execute(
            &CompressJob::new(JobKind::DeflateDecompress, c.output).with_expected_len(data.len()),
            &costs,
        )
        .unwrap();
        assert_eq!(d.output, data);
    }

    #[test]
    fn decompress_requires_sized_destination() {
        let costs = bf2_costs();
        let err = execute(&CompressJob::new(JobKind::DeflateDecompress, vec![1, 2, 3]), &costs)
            .unwrap_err();
        assert_eq!(err, EngineError::MissingOutputLen);
    }

    #[test]
    fn corrupt_input_is_decode_error() {
        let costs = bf2_costs();
        let err = execute(
            &CompressJob::new(JobKind::DeflateDecompress, vec![0xFF; 32]).with_expected_len(64),
            &costs,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Decode(_)));
    }

    #[test]
    fn service_time_scales_with_size() {
        let costs = bf2_costs();
        let small =
            execute(&CompressJob::new(JobKind::DeflateCompress, vec![7u8; 100_000]), &costs)
                .unwrap();
        let large =
            execute(&CompressJob::new(JobKind::DeflateCompress, vec![7u8; 10_000_000]), &costs)
                .unwrap();
        assert!(large.service_time > small.service_time);
    }

    #[test]
    fn fragment_jobs_stitch_across_submissions() {
        // Two non-final fragments plus a final one concatenate into a
        // single DEFLATE stream — the chunk-parallel engine contract.
        let costs = bf2_costs();
        let parts: [&[u8]; 3] = [b"alpha alpha alpha ", b"beta beta beta ", b"gamma gamma gamma"];
        let mut stream = Vec::new();
        let mut total = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let job = CompressJob::new(JobKind::DeflateCompress, part.to_vec())
                .with_final_block(i == parts.len() - 1);
            stream.extend_from_slice(&execute(&job, &costs).unwrap().output);
            total.extend_from_slice(part);
        }
        let d = execute(
            &CompressJob::new(JobKind::DeflateDecompress, stream).with_expected_len(total.len()),
            &costs,
        )
        .unwrap();
        assert_eq!(d.output, total);
    }

    #[test]
    fn fragment_decompress_jobs_decode_one_fragment_each() {
        let costs = bf2_costs();
        let parts: [&[u8]; 2] = [b"first fragment first fragment ", b"second and last"];
        let frags: Vec<Vec<u8>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                pedal_deflate::compress_fragment(p, pedal_deflate::Level::DEFAULT, i == 1)
            })
            .collect();
        let job = |frag: &Vec<u8>, len: usize, final_block: bool| {
            CompressJob::new(JobKind::DeflateDecompress, frag.clone())
                .with_expected_len(len)
                .with_final_block(final_block)
        };
        // Each fragment decodes on its own with the matching final bit.
        let first = execute(&job(&frags[0], parts[0].len(), false), &costs).unwrap();
        assert_eq!(first.output, parts[0]);
        let last = execute(&job(&frags[1], parts[1].len(), true), &costs).unwrap();
        assert_eq!(last.output, parts[1]);
        // A terminated fragment where a non-final one belongs is an error,
        // and so is an unterminated one where the stream must end.
        let err = execute(&job(&frags[1], parts[1].len(), false), &costs).unwrap_err();
        assert!(matches!(err, EngineError::Decode(_)), "{err:?}");
        let err = execute(&job(&frags[0], parts[0].len(), true), &costs).unwrap_err();
        assert!(matches!(err, EngineError::Decode(_)), "{err:?}");
    }

    #[test]
    fn final_block_default_is_unchanged_output() {
        let costs = bf2_costs();
        let data = b"default must stay terminated".repeat(40);
        let r = execute(&CompressJob::new(JobKind::DeflateCompress, data.clone()), &costs).unwrap();
        assert_eq!(r.output, pedal_deflate::compress(&data, pedal_deflate::Level::DEFAULT));
    }

    #[test]
    fn user_tag_propagates() {
        let costs = bf2_costs();
        let r = execute(
            &CompressJob::new(JobKind::DeflateCompress, vec![0; 64]).with_tag(0xC0FFEE),
            &costs,
        )
        .unwrap();
        assert_eq!(r.user_tag, 0xC0FFEE);
    }
}
