//! Per-tenant SLO accounting: each tenant carries a latency target, a
//! rolling latency window, and lifetime shed/reject counts, so a
//! scheduler (or an operator) can read "tenant 3 is at 94% attainment
//! over the last 80 ms and has shed twice" while the run is live.
//!
//! Attainment is exact, not estimated: hits and totals are counted in
//! [`WindowedCounter`]s over the same rolling window as the latency
//! histogram, and a tenant with no recent completions reports `None` —
//! never a stale percentage. The table is plain data with one writer
//! (`&mut self`): the service's completion ledger owns it behind one
//! lock.

use crate::json::{Json, ToJson};
use crate::registry::HistSummary;
use crate::window::{WindowConfig, WindowedCounter, WindowedHistogram};
use pedal_dpu::{SimDuration, SimInstant};
use std::collections::BTreeMap;

/// Tenant label carried through enqueue→complete spans. Tenant 0 is the
/// anonymous default.
pub type TenantId = u32;

struct TenantSlo {
    target: SimDuration,
    completed: u64,
    failed: u64,
    shed: u64,
    rejected: u64,
    latency: WindowedHistogram,
    recent_total: WindowedCounter,
    recent_hits: WindowedCounter,
}

impl TenantSlo {
    fn new(target: SimDuration, window: WindowConfig) -> Self {
        Self {
            target,
            completed: 0,
            failed: 0,
            shed: 0,
            rejected: 0,
            latency: WindowedHistogram::new(window),
            recent_total: WindowedCounter::new(window),
            recent_hits: WindowedCounter::new(window),
        }
    }
}

/// The tenant table: get-or-create per-tenant state keyed by
/// [`TenantId`], with a default latency target for tenants that never
/// set their own.
pub struct SloTable {
    window: WindowConfig,
    default_target: SimDuration,
    tenants: BTreeMap<TenantId, TenantSlo>,
}

impl SloTable {
    pub fn new(default_target: SimDuration, window: WindowConfig) -> Self {
        Self { window, default_target, tenants: BTreeMap::new() }
    }

    fn tenant(&mut self, id: TenantId) -> &mut TenantSlo {
        let (target, window) = (self.default_target, self.window);
        self.tenants.entry(id).or_insert_with(|| TenantSlo::new(target, window))
    }

    /// Set (or pre-register) a tenant's latency target.
    pub fn set_target(&mut self, id: TenantId, target: SimDuration) {
        self.tenant(id).target = target;
    }

    /// A job for `id` completed at `at` with end-to-end `latency`.
    pub fn record_completed(&mut self, id: TenantId, at: SimInstant, latency: SimDuration) {
        let t = self.tenant(id);
        t.completed += 1;
        t.latency.record_at(at, latency.as_nanos());
        t.recent_total.record_at(at, 1);
        if latency <= t.target {
            t.recent_hits.record_at(at, 1);
        }
    }

    pub fn record_failed(&mut self, id: TenantId) {
        self.tenant(id).failed += 1;
    }

    pub fn record_shed(&mut self, id: TenantId) {
        self.tenant(id).shed += 1;
    }

    pub fn record_rejected(&mut self, id: TenantId) {
        self.tenant(id).rejected += 1;
    }

    /// Freeze every tenant's state as of virtual instant `now`.
    pub fn snapshot_at(&self, now: SimInstant) -> Vec<TenantSloSnapshot> {
        self.tenants
            .iter()
            .map(|(&id, t)| {
                let total = t.recent_total.total_at(now);
                let hits = t.recent_hits.total_at(now);
                TenantSloSnapshot {
                    tenant: id,
                    target: t.target,
                    window: self.window.span(),
                    completed: t.completed,
                    failed: t.failed,
                    shed: t.shed,
                    rejected: t.rejected,
                    recent: t.latency.summary_at(now),
                    recent_total: total,
                    attainment: (total > 0).then(|| hits as f64 / total as f64),
                }
            })
            .collect()
    }
}

/// One tenant's frozen SLO state: lifetime counts plus the rolling
/// latency window and exact attainment over it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSloSnapshot {
    pub tenant: TenantId,
    pub target: SimDuration,
    pub window: SimDuration,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub rejected: u64,
    /// Rolling end-to-end latency over the window ending now.
    pub recent: HistSummary,
    /// Completions inside the rolling window.
    pub recent_total: u64,
    /// Fraction of recent completions meeting the target; `None` when
    /// the window holds no completions.
    pub attainment: Option<f64>,
}

impl std::fmt::Display for TenantSloSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {:>3}  target {:>10}  attainment {}  recent {:>4} (p99 {})  \
             done {:>5}  failed {:>3}  shed {:>3}  rejected {:>3}",
            self.tenant,
            self.target.to_string(),
            match self.attainment {
                Some(a) => format!("{:>6.1}%", a * 100.0),
                None => "     -".to_string(),
            },
            self.recent_total,
            match self.recent.p99 {
                Some(p) => SimDuration(p).to_string(),
                None => "-".to_string(),
            },
            self.completed,
            self.failed,
            self.shed,
            self.rejected,
        )
    }
}

impl ToJson for TenantSloSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tenant", Json::u64(self.tenant as u64)),
            ("target_ns", Json::u64(self.target.as_nanos())),
            ("window_ns", Json::u64(self.window.as_nanos())),
            ("completed", Json::u64(self.completed)),
            ("failed", Json::u64(self.failed)),
            ("shed", Json::u64(self.shed)),
            ("rejected", Json::u64(self.rejected)),
            ("recent_total", Json::u64(self.recent_total)),
            ("attainment", self.attainment.map(Json::Num).unwrap_or(Json::Null)),
            ("recent_latency", self.recent.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SloTable {
        SloTable::new(SimDuration(1_000), WindowConfig::new(SimDuration(1_000), 4))
    }

    #[test]
    fn attainment_counts_hits_against_target() {
        let mut t = table();
        t.record_completed(1, SimInstant(100), SimDuration(500)); // hit
        t.record_completed(1, SimInstant(200), SimDuration(1_000)); // hit (<=)
        t.record_completed(1, SimInstant(300), SimDuration(2_000)); // miss
        let snap = t.snapshot_at(SimInstant(400));
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.recent_total, 3);
        assert_eq!(s.completed, 3);
        let a = s.attainment.unwrap();
        assert!((a - 2.0 / 3.0).abs() < 1e-9, "attainment {a}");
    }

    #[test]
    fn attainment_is_none_after_window_expires() {
        let mut t = table();
        t.record_completed(7, SimInstant(100), SimDuration(500));
        assert!(t.snapshot_at(SimInstant(200))[0].attainment.is_some());
        let s = &t.snapshot_at(SimInstant(1_000_000))[0];
        assert_eq!(s.attainment, None);
        assert_eq!(s.recent.p99, None);
        assert_eq!(s.completed, 1, "lifetime counts survive the window");
    }

    #[test]
    fn per_tenant_targets_are_independent() {
        let mut t = table();
        t.set_target(1, SimDuration(10));
        t.set_target(2, SimDuration(1_000_000));
        for tenant in [1, 2] {
            t.record_completed(tenant, SimInstant(100), SimDuration(500));
        }
        let snap = t.snapshot_at(SimInstant(200));
        assert_eq!(snap[0].attainment, Some(0.0));
        assert_eq!(snap[1].attainment, Some(1.0));
    }

    #[test]
    fn shed_and_reject_counts_accumulate() {
        let mut t = table();
        t.record_shed(3);
        t.record_shed(3);
        t.record_rejected(3);
        t.record_failed(3);
        let s = &t.snapshot_at(SimInstant(0))[0];
        assert_eq!((s.shed, s.rejected, s.failed, s.completed), (2, 1, 1, 0));
        assert_eq!(s.attainment, None);
    }

    #[test]
    fn snapshot_json_has_null_attainment_when_empty() {
        let mut t = table();
        t.record_shed(9);
        let j = t.snapshot_at(SimInstant(0))[0].to_json();
        assert!(matches!(j.get("attainment"), Some(Json::Null)));
        assert_eq!(j.get("tenant").unwrap().as_f64(), Some(9.0));
    }
}
