//! # pedal-service
//!
//! An asynchronous compression offload engine over the simulated
//! BlueField DPU: clients submit compress/decompress jobs for any
//! [`pedal::Design`] into a bounded admission queue, and a deterministic
//! scheduler routes them across SoC worker threads and multiple
//! C-Engine channels (independent DOCA work queues).
//!
//! The service reproduces, as a *serving layer*, what the paper's
//! synchronous `PEDAL_compress`/`PEDAL_decompress` API does one message
//! at a time:
//!
//! - **Admission control** — the queue is bounded; under overload it
//!   either blocks the submitter, rejects with
//!   [`ServiceError::Overloaded`], or sheds the lowest-priority queued
//!   job ([`BackpressurePolicy`]). Tenants are served round-robin.
//! - **Placement-aware scheduling** — SoC designs go to a thread pool,
//!   C-Engine designs to per-channel work queues with bounded descriptor
//!   depth; platform fallbacks (e.g. LZ4 compression, BF3 engine
//!   compression) are honoured exactly like the synchronous context.
//! - **Small-message batching** — sub-threshold C-Engine compress jobs
//!   coalesce into one engine submission, paying the fixed per-job
//!   engine overhead (60 µs on BF2, Table III) once.
//! - **Chunk-parallel fan-out** — with
//!   [`ServiceConfig::with_parallel`], large C-Engine DEFLATE compress
//!   jobs shard into fixed-size stream fragments spread across every
//!   channel; the fragments stitch back (sync-flush framing) into one
//!   valid DEFLATE stream whose bytes depend only on the data and the
//!   chunk size — never on the channel count.
//! - **Virtual-time telemetry** — queue wait, service time, and byte
//!   counts per job ([`JobMetrics`]), aggregated into [`ServiceStats`]
//!   with p50/p99 latency percentiles. All timing is charged from the
//!   shared [`pedal_dpu::CostModel`], so results are deterministic and
//!   platform-comparable.
//!
//! Payload bytes are produced by [`pedal::wire`], so every output is
//! byte-identical to the synchronous [`pedal::PedalContext`] — the
//! service only changes *when* things happen, never *what* bytes come
//! out.
//!
//! ```
//! use pedal::{Datatype, Design};
//! use pedal_dpu::Platform;
//! use pedal_service::{JobDesc, PedalService, ServiceConfig};
//!
//! let svc = PedalService::start(
//!     ServiceConfig::new(Platform::BlueField2).with_ce_channels(2),
//! );
//! let message = b"offload me ".repeat(512);
//! svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, message.clone())).unwrap();
//! let done = svc.drain();
//! assert_eq!(done.len(), 1);
//! let payload = &done[0].result.as_ref().unwrap().bytes;
//! assert!(payload.len() < message.len());
//! let (_, stats) = svc.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

mod job;
mod ledger;
mod queue;
mod service;
mod stats;

pub use job::{CompletedJob, JobDesc, JobId, JobMetrics, JobOp, JobOutput, LaneId, ServiceError};
pub use pedal_obs::{BusSubscription, FrameKind, MetricsFrame, TenantId, TenantSloSnapshot};
pub use pedal_policy::{PolicyConfig, PolicyLog, PolicyRecord, PolicySnapshot};
pub use queue::BackpressurePolicy;
pub use service::{LiveConfig, PedalService, ServiceConfig, DEFAULT_PAR_CHUNK, MIN_PAR_CHUNK};
pub use stats::{LaneStats, RollingStats, ServiceSnapshot, ServiceStats};
