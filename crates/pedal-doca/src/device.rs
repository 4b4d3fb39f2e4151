//! Simulated DOCA device/context: open, capability query, and the work
//! queue a PEDAL instance needs.

use crate::engine::{CompressJob, EngineError, JobKind, JobResult};
use crate::workq::{QueueFull, Workq};
use pedal_dpu::{CostModel, Platform, SimDuration, SimInstant};

/// Capability check failure: the engine generation cannot run the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityError {
    pub platform: Platform,
    pub kind: JobKind,
}

impl std::fmt::Display for CapabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} C-Engine does not support {:?}", self.platform.name(), self.kind)
    }
}

impl std::error::Error for CapabilityError {}

/// Any DOCA-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocaError {
    Capability(CapabilityError),
    QueueFull,
    Engine(EngineError),
}

impl std::fmt::Display for DocaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocaError::Capability(e) => write!(f, "{e}"),
            DocaError::QueueFull => write!(f, "work queue full"),
            DocaError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DocaError {}

impl From<CapabilityError> for DocaError {
    fn from(e: CapabilityError) -> Self {
        DocaError::Capability(e)
    }
}

impl From<QueueFull> for DocaError {
    fn from(_: QueueFull) -> Self {
        DocaError::QueueFull
    }
}

impl From<EngineError> for DocaError {
    fn from(e: EngineError) -> Self {
        DocaError::Engine(e)
    }
}

/// An opened DOCA context: one device's engine and its work queue.
///
/// Engine jobs borrow the caller's buffer. Mapping that buffer for the
/// engine costs [`CostModel::buffer_prep`]; the caller decides when to
/// charge it, as with [`DocaContext::init_cost`].
#[derive(Debug)]
pub struct DocaContext {
    pub platform: Platform,
    pub costs: CostModel,
    pub workq: Workq,
    /// The virtual cost of opening this context (`DOCA_Init` in the paper's
    /// breakdowns). The caller decides *when* to charge it — at PEDAL_Init
    /// (the optimized design) or per message (the baseline).
    pub init_cost: SimDuration,
}

impl DocaContext {
    /// Open the device for a platform. Never fails in simulation but kept
    /// fallible to mirror the SDK's signature.
    pub fn open(platform: Platform) -> Result<Self, DocaError> {
        let costs = CostModel::for_platform(platform);
        let workq = Workq::new(costs, Workq::DEFAULT_DEPTH);
        Ok(Self { platform, costs, workq, init_cost: costs.doca_init() })
    }

    /// Query whether a job kind is supported (Table II).
    pub fn supports(&self, kind: JobKind) -> bool {
        self.platform.spec().cengine.supports(kind.algorithm(), kind.direction())
    }

    /// Check capability, then submit; returns the job result and its
    /// virtual completion instant (including engine queueing).
    pub fn submit(
        &self,
        job: CompressJob<'_>,
        now: SimInstant,
    ) -> Result<(JobResult, SimInstant), DocaError> {
        if !self.supports(job.kind) {
            return Err(CapabilityError { platform: self.platform, kind: job.kind }.into());
        }
        let handle = self.workq.submit(job, now)?;
        let result = handle.result?;
        Ok((result, handle.completed_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf2_supports_deflate_both_ways() {
        let ctx = DocaContext::open(Platform::BlueField2).unwrap();
        assert!(ctx.supports(JobKind::DeflateCompress));
        assert!(ctx.supports(JobKind::DeflateDecompress));
        assert!(!ctx.supports(JobKind::Lz4Compress));
        assert!(!ctx.supports(JobKind::Lz4Decompress));
    }

    #[test]
    fn bf3_decompress_only() {
        let ctx = DocaContext::open(Platform::BlueField3).unwrap();
        assert!(!ctx.supports(JobKind::DeflateCompress));
        assert!(ctx.supports(JobKind::DeflateDecompress));
        assert!(!ctx.supports(JobKind::Lz4Compress));
        assert!(ctx.supports(JobKind::Lz4Decompress));
    }

    #[test]
    fn unsupported_job_rejected_with_capability_error() {
        let ctx = DocaContext::open(Platform::BlueField3).unwrap();
        let err = ctx
            .submit(CompressJob::new(JobKind::DeflateCompress, &[0u8; 128]), SimInstant::EPOCH)
            .unwrap_err();
        assert!(matches!(err, DocaError::Capability(_)));
    }

    #[test]
    fn end_to_end_roundtrip_bf2() {
        let ctx = DocaContext::open(Platform::BlueField2).unwrap();
        let data = b"doca context end to end".repeat(100);
        let (c, t1) = ctx
            .submit(CompressJob::new(JobKind::DeflateCompress, &data), SimInstant::EPOCH)
            .unwrap();
        let (d, t2) = ctx
            .submit(
                CompressJob::new(JobKind::DeflateDecompress, &c.output)
                    .with_expected_len(data.len()),
                t1,
            )
            .unwrap();
        assert_eq!(d.output, data);
        assert!(t2 > t1);
    }

    #[test]
    fn lz4_decompress_on_bf3_works() {
        let ctx = DocaContext::open(Platform::BlueField3).unwrap();
        let data = b"lz4 on the bf3 engine".repeat(64);
        // Compression must happen on the SoC (engine can't); emulate that.
        let packed = pedal_lz4::compress_block(&data, 1);
        let (r, _) = ctx
            .submit(
                CompressJob::new(JobKind::Lz4Decompress, &packed).with_expected_len(data.len()),
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(r.output, data);
    }

    #[test]
    fn init_cost_matches_cost_model() {
        for p in Platform::ALL {
            let ctx = DocaContext::open(p).unwrap();
            assert_eq!(ctx.init_cost, ctx.costs.doca_init());
            assert!(ctx.init_cost >= SimDuration::from_millis(50));
        }
    }
}
