//! # pedal-doca
//!
//! A simulation of the slice of the NVIDIA DOCA SDK that PEDAL uses:
//! device discovery and capability query, memory mapping (`doca_mmap`),
//! buffer inventory (`doca_buf_inventory`), work queues (`doca_workq`), and
//! compress/decompress job submission.
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
//! let data = b"engine offload engine offload engine offload".to_vec();
//! let job = CompressJob::new(JobKind::DeflateCompress, data);
//! let (done, _) = ctx.submit(job, SimInstant::EPOCH).unwrap();
//! assert!(!done.output.is_empty());
//! ```

pub mod device;
pub mod engine;
pub mod memmap;
pub mod workq;

pub use device::{CapabilityError, DocaContext, DocaError};
pub use engine::{CompressJob, EngineError, JobKind, JobResult};
pub use memmap::{BufInventory, DocaBuf, MemMap};
pub use workq::{BatchHandle, JobHandle, QueueFull, Workq};
