//! # pedal-doca
//!
//! A simulation of the slice of the NVIDIA DOCA SDK that PEDAL uses:
//! device discovery and capability query, work queues (`doca_workq`), and
//! compress/decompress job submission. A job borrows the caller's buffer
//! and the engine reads it in place; the cost of mapping that buffer for
//! the engine is [`pedal_dpu::CostModel::buffer_prep`], which the caller
//! charges once at init or per message.
//!
//! The simulated C-Engine performs *real* compression (via the workspace's
//! from-scratch DEFLATE and LZ4 codecs) and charges *virtual* time from the
//! calibrated [`pedal_dpu::CostModel`], including DOCA initialization,
//! buffer-mapping overheads, per-job submission overhead, and FIFO engine
//! queueing — the overheads whose elimination is PEDAL's core contribution.
//!
//! ```
//! use pedal_doca::{DocaContext, CompressJob, JobKind};
//! use pedal_dpu::{Platform, SimInstant};
//!
//! let ctx = DocaContext::open(Platform::BlueField2).unwrap();
//! let data = b"engine offload engine offload engine offload";
//! let job = CompressJob::new(JobKind::DeflateCompress, data);
//! let (done, _) = ctx.submit(job, SimInstant::EPOCH).unwrap();
//! assert!(!done.output.is_empty());
//! ```

pub mod device;
pub mod engine;
pub mod workq;

pub use device::{CapabilityError, DocaContext, DocaError};
pub use engine::{CompressJob, EngineError, JobKind, JobResult};
pub use workq::{BatchHandle, JobHandle, QueueFull, Workq};
