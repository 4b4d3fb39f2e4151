//! Fleet topology and serving policy.

use crate::bucket::BucketSpec;
use pedal_dpu::{Platform, SimDuration};
use pedal_policy::PolicyConfig;

/// One simulated DPU node: a platform plus the sizing knobs passed to
/// its embedded [`pedal_service::PedalService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    pub platform: Platform,
    pub soc_workers: usize,
    pub ce_channels: usize,
    pub queue_capacity: usize,
}

impl NodeSpec {
    pub fn bf2() -> Self {
        Self {
            platform: Platform::BlueField2,
            soc_workers: 2,
            ce_channels: 2,
            queue_capacity: 8192,
        }
    }

    pub fn bf3() -> Self {
        Self {
            platform: Platform::BlueField3,
            soc_workers: 4,
            ce_channels: 2,
            queue_capacity: 8192,
        }
    }

    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// Tenant service class, derived from the tenant id: the paying pool
/// occupies ids `0..paying_tenants` (matching the open-loop generator's
/// convention), everything above is best-effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TenantClass {
    Paying,
    BestEffort,
}

impl TenantClass {
    pub fn name(self) -> &'static str {
        match self {
            TenantClass::Paying => "paying",
            TenantClass::BestEffort => "best_effort",
        }
    }
}

/// Overload ladder position, applied to best-effort traffic: each step
/// gives up more compression quality/effort to protect paying latency
/// (CEAZ-style engine → SoC → store-uncompressed fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderLevel {
    /// Calm: jobs run at their requested design (C-Engine where capable).
    Engine,
    /// Rolling p99 approaching the paying SLO: best-effort compression
    /// degrades to SoC designs, freeing engine channels for paying jobs.
    Soc,
    /// SLO breach: best-effort payloads are stored uncompressed (framed
    /// passthrough), spending no compression capacity at all.
    Store,
}

impl LadderLevel {
    pub fn name(self) -> &'static str {
        match self {
            LadderLevel::Engine => "engine",
            LadderLevel::Soc => "soc",
            LadderLevel::Store => "store",
        }
    }
}

/// Everything the fleet driver needs: topology, epoch pacing, ladder
/// thresholds, per-class buckets and SLOs, and the backlog-guard cost
/// model.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub nodes: Vec<NodeSpec>,
    /// Tenant ids below this are the paying pool.
    pub paying_tenants: u32,
    /// End-to-end latency target for paying tenants.
    pub paying_slo: SimDuration,
    /// Target for best-effort tenants (looser; used for SLO accounting
    /// only, never to gate).
    pub best_effort_slo: SimDuration,
    /// Control-loop epoch: arrivals are admitted per epoch, every node
    /// drains at the epoch barrier, and rolling snapshots taken there
    /// drive the next epoch's ladder level.
    pub epoch: SimDuration,
    /// Rolling-window shape passed to each node's live plane.
    pub live_slot: SimDuration,
    pub live_slots: usize,
    /// Climb to [`LadderLevel::Soc`] when any node's rolling p99 exceeds
    /// this percentage of the paying SLO.
    pub degrade_pct: u32,
    /// Climb to [`LadderLevel::Store`] past this percentage.
    pub store_pct: u32,
    /// Within-epoch admission valve: when every capable node's predicted
    /// backlog exceeds this, best-effort jobs are shed immediately
    /// instead of queued behind paying traffic.
    pub backlog_guard: SimDuration,
    /// Per-class token buckets.
    pub paying_bucket: BucketSpec,
    pub best_effort_bucket: BucketSpec,
    /// Backlog-guard cost estimate: `est_fixed + bytes/1KiB * est_per_kib`.
    pub est_fixed: SimDuration,
    pub est_per_kib: SimDuration,
    /// Error bound forwarded to lossy (SZ3) jobs.
    pub error_bound: f64,
    /// Per-message adaptive policy, applied *below* the ladder: the
    /// ladder owns overload degradation, the policy owns the per-message
    /// codec/placement choice within the rung the ladder granted.
    pub adaptive: Option<PolicyConfig>,
}

impl FleetConfig {
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "a fleet needs at least one node");
        Self {
            nodes,
            paying_tenants: 32,
            paying_slo: SimDuration::from_millis(5),
            best_effort_slo: SimDuration::from_millis(50),
            epoch: SimDuration::from_millis(2),
            live_slot: SimDuration::from_millis(1),
            live_slots: 8,
            degrade_pct: 50,
            store_pct: 100,
            backlog_guard: SimDuration::from_millis(2),
            paying_bucket: BucketSpec::new(2_000, 64),
            best_effort_bucket: BucketSpec::new(200, 4),
            est_fixed: SimDuration::from_micros(60),
            est_per_kib: SimDuration::from_micros(2),
            error_bound: 1e-3,
            adaptive: None,
        }
    }

    /// Refine each submitted message with the [`pedal_policy`] closed
    /// loop (probe + barrier-keyed live feedback). Replay stays
    /// byte-identical: decisions are a pure function of the message
    /// bytes and the epoch-barrier snapshot, witnessed by the
    /// [`pedal_policy::PolicyLog`] digest folded into
    /// [`crate::FleetRun::digest`].
    pub fn with_adaptive_policy(mut self, policy: PolicyConfig) -> Self {
        self.adaptive = Some(policy);
        self
    }

    pub fn class_of(&self, tenant: u32) -> TenantClass {
        if tenant < self.paying_tenants {
            TenantClass::Paying
        } else {
            TenantClass::BestEffort
        }
    }

    pub fn slo_for(&self, class: TenantClass) -> SimDuration {
        match class {
            TenantClass::Paying => self.paying_slo,
            TenantClass::BestEffort => self.best_effort_slo,
        }
    }

    pub fn bucket_for(&self, class: TenantClass) -> BucketSpec {
        match class {
            TenantClass::Paying => self.paying_bucket,
            TenantClass::BestEffort => self.best_effort_bucket,
        }
    }

    /// Predicted service cost used by the backlog guard. Deliberately a
    /// coarse affine model — the guard compares like against like, so
    /// only its monotonicity in bytes matters.
    pub fn estimate(&self, bytes: usize) -> SimDuration {
        self.est_fixed + self.est_per_kib * (bytes as u64 / 1024 + 1)
    }
}
