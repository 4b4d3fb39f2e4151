//! # pedal-mpi
//!
//! A compact MPI-like message-passing runtime used as the communication
//! substrate for the PEDAL co-design. It provides:
//!
//! * rank-per-thread execution ([`run_world`]),
//! * blocking Send/Recv with **Eager** and **Rendezvous** protocols over a
//!   latency/bandwidth network model (BlueField-2: 200 Gb/s, BlueField-3:
//!   400 Gb/s),
//! * collectives: binomial-tree [`bcast`] (the paper's Fig. 11 workload),
//!   [`barrier`], [`gather`], [`reduce`], [`allreduce`],
//! * deterministic per-rank virtual clocks, so every latency figure is
//!   bit-reproducible.
//!
//! Real bytes move between threads; only time is simulated.

pub mod collectives;
pub mod comm;
pub mod stream;

pub use collectives::{allreduce, alltoall, barrier, bcast, gather, reduce};
pub use comm::{run_world, MpiError, RankCtx, SendHandle, WorldConfig, DEFAULT_EAGER_THRESHOLD};
pub use pedal_dpu::Bytes;
pub use stream::{
    StreamReceiver, StreamSender, DEFAULT_WINDOW, STREAM_TAG_BASE, STREAM_TAG_STRIDE,
};
