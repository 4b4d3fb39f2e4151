//! # pedal-fleet
//!
//! A capability-aware serving tier that shards compression jobs across
//! N simulated BlueField nodes, each wrapping a
//! [`pedal_service::PedalService`]. The paper's Table II makes DPU
//! clusters *heterogeneous by construction* — a BF3 compression engine
//! can decompress but never compress — so a fleet cannot treat nodes as
//! interchangeable: placement must know, per (algorithm, direction),
//! which engines can serve which jobs.
//!
//! The crate provides:
//!
//! - **Capability-aware routing** ([`run_fleet`]) — C-Engine designs
//!   only reach nodes whose engine supports the pair; anything else is
//!   rewritten to the SoC placement *before* submission. Compression is
//!   never routed to a BF3 C-Engine.
//! - **Per-tenant token buckets** ([`TokenBucket`], [`TenantBuckets`])
//!   — integer micro-token refill in virtual time, lazily allocated
//!   over a tenant id space of millions.
//! - **An overload ladder** ([`LadderLevel`]) — best-effort traffic
//!   degrades engine → SoC → store-uncompressed as rolling p99
//!   (from the pedal-obs live plane, read at epoch barriers) approaches
//!   the paying SLO, plus a within-epoch predicted-backlog guard that
//!   sheds best-effort jobs outright.
//! - **A placement log** ([`PlacementLog`]) — every decision recorded
//!   and hashable, so replay determinism is a one-line digest compare.
//! - **Per-message adaptive refinement**
//!   ([`FleetConfig::with_adaptive_policy`]) — below the ladder, the
//!   [`pedal_policy`] closed loop probes each message and picks codec,
//!   placement, and datatype within the rung the ladder granted; every
//!   decision lands in a [`PolicyLog`] folded into the run digest.
//!
//! Everything is virtual-time and seeded: the same
//! [`pedal_datasets::workload`] trace and [`FleetConfig`] produce
//! byte-identical reports, placement logs, and job outputs on every
//! run — and every routed job's bytes are identical to what a single
//! [`pedal_service::PedalService`] (or the synchronous
//! [`pedal::wire`] path) would have produced for the same request.

mod bucket;
mod config;
mod fleet;
mod placement;

pub use bucket::{BucketSpec, TenantBuckets, TokenBucket};
pub use config::{FleetConfig, LadderLevel, NodeSpec, TenantClass};
pub use fleet::{run_fleet, ClassStats, EpochSummary, FleetRun, NodeCompletion, StoredJob};
pub use pedal_policy::fnv1a64;
pub use pedal_policy::{PolicyConfig, PolicyLog, PolicyRecord, PolicySnapshot};
pub use placement::{PlacementAction, PlacementLog, PlacementRecord, ShedReason};
