//! Job descriptors, results, and per-job telemetry.

use pedal::{Datatype, Design};
use pedal_dpu::{Direction, SimDuration, SimInstant};

/// Monotone job identifier assigned at submission.
pub type JobId = u64;

/// What a job asks the service to do.
#[derive(Debug, Clone)]
pub enum JobOp {
    /// Produce a complete PEDAL message from raw data.
    Compress { data: Vec<u8> },
    /// Decode a PEDAL message back into `expected_len` bytes.
    Decompress { payload: Vec<u8>, expected_len: usize },
}

impl JobOp {
    pub fn direction(&self) -> Direction {
        match self {
            JobOp::Compress { .. } => Direction::Compress,
            JobOp::Decompress { .. } => Direction::Decompress,
        }
    }

    /// Bytes handed to the service.
    pub fn input_len(&self) -> usize {
        match self {
            JobOp::Compress { data } => data.len(),
            JobOp::Decompress { payload, .. } => payload.len(),
        }
    }
}

/// A job submission: who, what, and when (in virtual time).
#[derive(Debug, Clone)]
pub struct JobDesc {
    /// Tenant identifier for round-robin fairness.
    pub tenant: u32,
    /// Higher values survive load shedding longer.
    pub priority: u8,
    pub design: Design,
    pub datatype: Datatype,
    /// Virtual arrival instant (the submitter's clock).
    pub arrival: SimInstant,
    pub op: JobOp,
}

impl JobDesc {
    pub fn compress(design: Design, datatype: Datatype, data: Vec<u8>) -> Self {
        Self {
            tenant: 0,
            priority: 0,
            design,
            datatype,
            arrival: SimInstant::EPOCH,
            op: JobOp::Compress { data },
        }
    }

    pub fn decompress(design: Design, payload: Vec<u8>, expected_len: usize) -> Self {
        Self {
            tenant: 0,
            priority: 0,
            design,
            datatype: Datatype::Byte,
            arrival: SimInstant::EPOCH,
            op: JobOp::Decompress { payload, expected_len },
        }
    }

    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_arrival(mut self, arrival: SimInstant) -> Self {
        self.arrival = arrival;
        self
    }
}

/// An admitted job (identifier attached).
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub id: JobId,
    pub desc: JobDesc,
    /// Adaptive-policy verdict: frame the payload uncompressed instead
    /// of running any codec. Set only by the scheduler's policy hook.
    pub store: bool,
}

/// Which executor served a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneId {
    /// SoC worker thread `i`.
    Soc(usize),
    /// C-Engine channel `i`.
    Channel(usize),
}

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneId::Soc(i) => write!(f, "soc{i}"),
            LaneId::Channel(i) => write!(f, "ce{i}"),
        }
    }
}

/// Virtual-time telemetry for one served job.
#[derive(Debug, Clone, Copy)]
pub struct JobMetrics {
    pub arrival: SimInstant,
    /// When an executor began serving the job (virtual).
    pub started: SimInstant,
    pub completed: SimInstant,
    /// `started - arrival`: admission plus scheduling delay.
    pub queue_wait: SimDuration,
    /// `completed - started`.
    pub service: SimDuration,
    pub bytes_in: usize,
    pub bytes_out: usize,
    pub lane: LaneId,
    /// Served as part of a coalesced C-Engine submission.
    pub batched: bool,
}

/// Successful job payload.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Compress: the full PEDAL message. Decompress: the raw data.
    pub bytes: Vec<u8>,
    /// Compression fell below break-even (compress jobs only).
    pub passthrough: bool,
}

/// Service-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission queue full under the reject policy.
    Overloaded,
    /// Evicted by a higher-priority job under the shed policy (or the
    /// submission itself was the lowest-priority job while full).
    Shed,
    /// The service is shutting down and no longer admits jobs.
    ShuttingDown,
    /// Underlying codec/engine failure.
    Pedal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "admission queue full"),
            ServiceError::Shed => write!(f, "job shed under overload"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Pedal(e) => write!(f, "pedal: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A finished job as returned by [`crate::PedalService::drain`].
#[derive(Debug, Clone)]
pub struct CompletedJob {
    pub id: JobId,
    pub tenant: u32,
    pub design: Design,
    pub direction: Direction,
    pub result: Result<JobOutput, ServiceError>,
    /// `None` when the job never reached an executor (shed).
    pub metrics: Option<JobMetrics>,
}

impl CompletedJob {
    /// A job an executor served from `started` to `completed`: the one
    /// place its [`JobMetrics`] are derived.
    pub(crate) fn served(
        job: &Job,
        lane: LaneId,
        started: SimInstant,
        completed: SimInstant,
        result: Result<JobOutput, ServiceError>,
        batched: bool,
    ) -> Self {
        let desc = &job.desc;
        let metrics = JobMetrics {
            arrival: desc.arrival,
            started,
            completed,
            queue_wait: started.elapsed_since(desc.arrival),
            service: completed.elapsed_since(started),
            bytes_in: desc.op.input_len(),
            bytes_out: result.as_ref().map_or(0, |o| o.bytes.len()),
            lane,
            batched,
        };
        Self {
            id: job.id,
            tenant: desc.tenant,
            design: desc.design,
            direction: desc.op.direction(),
            result,
            metrics: Some(metrics),
        }
    }

    /// A queued job the shed policy evicted before any executor saw it.
    pub(crate) fn shed(job: Job) -> Self {
        Self {
            id: job.id,
            tenant: job.desc.tenant,
            design: job.desc.design,
            direction: job.desc.op.direction(),
            result: Err(ServiceError::Shed),
            metrics: None,
        }
    }
}
