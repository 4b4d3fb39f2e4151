//! Aggregate service telemetry in virtual time.

use pedal_dpu::{SimDuration, SimInstant};
use pedal_obs::{HistSummary, Json, PromWriter, TenantSloSnapshot, ToJson};

use crate::job::LaneId;

/// Per-executor counters, accumulated lock-free inside each lane thread.
#[derive(Debug, Clone, Copy)]
pub struct LaneStats {
    pub lane: LaneId,
    pub jobs: u64,
    /// Coalesced C-Engine submissions (0 for SoC lanes).
    pub batches: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Total virtual time spent serving jobs.
    pub busy: SimDuration,
    /// Virtual instant the lane last finished work.
    pub last_completion: SimInstant,
}

impl LaneStats {
    pub(crate) fn new(lane: LaneId) -> Self {
        Self {
            lane,
            jobs: 0,
            batches: 0,
            bytes_in: 0,
            bytes_out: 0,
            busy: SimDuration::ZERO,
            last_completion: SimInstant::EPOCH,
        }
    }

    /// Fraction of the lane's active window spent serving jobs.
    pub fn utilization(&self) -> f64 {
        let window = self.last_completion.elapsed_since(SimInstant::EPOCH);
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / window.as_nanos() as f64
    }
}

impl std::fmt::Display for LaneStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} jobs, {} batches, {} in / {} out bytes, busy {}",
            self.lane, self.jobs, self.batches, self.bytes_in, self.bytes_out, self.busy
        )
    }
}

impl ToJson for LaneStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lane", Json::str(self.lane.to_string())),
            ("jobs", Json::u64(self.jobs)),
            ("batches", Json::u64(self.batches)),
            ("bytes_in", Json::u64(self.bytes_in)),
            ("bytes_out", Json::u64(self.bytes_out)),
            ("busy_ns", Json::u64(self.busy.as_nanos())),
            ("last_completion_ns", Json::u64(self.last_completion.0)),
        ])
    }
}

/// Whole-service summary produced by [`crate::PedalService::shutdown`].
///
/// Percentile fields are `None` when no job completed successfully —
/// a run with zero samples has no p50, and reporting a fake zero would
/// silently skew comparisons.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub failed: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Jobs served through a coalesced C-Engine submission.
    pub batched_jobs: u64,
    pub queue_wait_p50: Option<SimDuration>,
    pub queue_wait_p99: Option<SimDuration>,
    pub service_p50: Option<SimDuration>,
    pub service_p99: Option<SimDuration>,
    /// End-to-end (arrival to completion) latency percentiles.
    pub latency_p50: Option<SimDuration>,
    pub latency_p99: Option<SimDuration>,
    /// Last virtual completion instant, as elapsed time since the epoch.
    pub makespan: SimDuration,
    pub soc_lanes: Vec<LaneStats>,
    pub channel_lanes: Vec<LaneStats>,
}

impl ServiceStats {
    /// Input bytes over makespan, in MB/s of virtual time.
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.bytes_in as f64 / 1e6 / secs
    }

    /// Aggregate compression ratio (input over output).
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return 0.0;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }
}

/// Render `Some(1240000ns)` as "1.24ms" and `None` as "-".
fn fmt_opt(d: Option<SimDuration>) -> String {
    d.map(|d| d.to_string()).unwrap_or_else(|| "-".into())
}

fn json_opt(d: Option<SimDuration>) -> Json {
    d.map(|d| Json::u64(d.as_nanos())).unwrap_or(Json::Null)
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} completed ({} batched), {} failed, {} rejected, {} shed",
            self.completed, self.batched_jobs, self.failed, self.rejected, self.shed
        )?;
        writeln!(
            f,
            "  throughput {:.1} MB/s, ratio {:.2}, makespan {}",
            self.throughput_mbps(),
            self.ratio(),
            self.makespan
        )?;
        writeln!(
            f,
            "  queue wait p50/p99 {} / {}",
            fmt_opt(self.queue_wait_p50),
            fmt_opt(self.queue_wait_p99)
        )?;
        writeln!(
            f,
            "  service    p50/p99 {} / {}",
            fmt_opt(self.service_p50),
            fmt_opt(self.service_p99)
        )?;
        write!(
            f,
            "  latency    p50/p99 {} / {}",
            fmt_opt(self.latency_p50),
            fmt_opt(self.latency_p99)
        )
    }
}

impl ToJson for ServiceStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("completed", Json::u64(self.completed)),
            ("rejected", Json::u64(self.rejected)),
            ("shed", Json::u64(self.shed)),
            ("failed", Json::u64(self.failed)),
            ("bytes_in", Json::u64(self.bytes_in)),
            ("bytes_out", Json::u64(self.bytes_out)),
            ("batched_jobs", Json::u64(self.batched_jobs)),
            ("throughput_mbps", Json::Num(self.throughput_mbps())),
            ("ratio", Json::Num(self.ratio())),
            ("queue_wait_p50_ns", json_opt(self.queue_wait_p50)),
            ("queue_wait_p99_ns", json_opt(self.queue_wait_p99)),
            ("service_p50_ns", json_opt(self.service_p50)),
            ("service_p99_ns", json_opt(self.service_p99)),
            ("latency_p50_ns", json_opt(self.latency_p50)),
            ("latency_p99_ns", json_opt(self.latency_p99)),
            ("makespan_ns", Json::u64(self.makespan.as_nanos())),
            ("soc_lanes", Json::Arr(self.soc_lanes.iter().map(ToJson::to_json).collect())),
            ("channel_lanes", Json::Arr(self.channel_lanes.iter().map(ToJson::to_json).collect())),
        ])
    }
}

/// A live, non-draining view of a running service, produced by
/// [`crate::PedalService::snapshot`]. Percentiles come from the
/// ledger's log-bucketed histograms (≈6% bucket error), so reading them
/// never touches the completion records.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Jobs admitted but not yet completed (queued + executing).
    pub in_flight: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Lifetime queue-wait distribution (virtual ns).
    pub queue_wait: HistSummary,
    /// Lifetime service-time distribution (virtual ns).
    pub service: HistSummary,
    /// Lifetime end-to-end latency distribution (virtual ns).
    pub latency: HistSummary,
    /// Rolling-window view of recent behaviour.
    pub rolling: RollingStats,
    /// Per-tenant SLO accounting, sorted by tenant id.
    pub tenants: Vec<TenantSloSnapshot>,
}

/// What the service looked like over the last window of virtual time —
/// the part of a [`ServiceSnapshot`] that lifetime series cannot show.
/// A freshly-rotated empty window reports `None` percentiles, never a
/// stale or zero value.
#[derive(Debug, Clone)]
pub struct RollingStats {
    /// Window span (slot width times slot count).
    pub window: SimDuration,
    pub queue_wait: HistSummary,
    pub service: HistSummary,
    pub latency: HistSummary,
    /// Completions inside the window.
    pub completed_recent: u64,
    /// Input bytes of completions inside the window.
    pub bytes_in_recent: u64,
    /// Windowed completion rate (jobs per virtual second): the window
    /// sum over the window span, so replays report identical values.
    pub completed_per_sec: f64,
    /// Windowed input throughput (MB per virtual second).
    pub mbps_in: f64,
    /// Deepest the admission queue has ever been.
    pub queue_depth_high: u64,
    /// Most jobs ever simultaneously admitted-but-unfinished.
    pub in_flight_high: u64,
}

impl std::fmt::Display for RollingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "last {}: {} done ({} bytes in), {:.1}/s, {:.1} MB/s",
            self.window,
            self.completed_recent,
            self.bytes_in_recent,
            self.completed_per_sec,
            self.mbps_in
        )?;
        writeln!(f, "  queue wait {}", fmt_hist_ns(&self.queue_wait))?;
        writeln!(f, "  service    {}", fmt_hist_ns(&self.service))?;
        writeln!(f, "  latency    {}", fmt_hist_ns(&self.latency))?;
        write!(f, "  high-water queue {}, in flight {}", self.queue_depth_high, self.in_flight_high)
    }
}

impl ToJson for RollingStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("window_ns", Json::u64(self.window.as_nanos())),
            ("queue_wait", self.queue_wait.to_json()),
            ("service", self.service.to_json()),
            ("latency", self.latency.to_json()),
            ("completed_recent", Json::u64(self.completed_recent)),
            ("bytes_in_recent", Json::u64(self.bytes_in_recent)),
            ("completed_per_sec", Json::Num(self.completed_per_sec)),
            ("mbps_in", Json::Num(self.mbps_in)),
            ("queue_depth_high", Json::u64(self.queue_depth_high)),
            ("in_flight_high", Json::u64(self.in_flight_high)),
        ])
    }
}

fn fmt_hist_ns(h: &HistSummary) -> String {
    match (h.p50, h.p99) {
        (Some(p50), Some(p99)) => {
            format!("p50 {} / p99 {}", SimDuration(p50), SimDuration(p99))
        }
        _ => "no samples".into(),
    }
}

impl std::fmt::Display for ServiceSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queue {} deep, {} in flight, {} done, {} failed, {} rejected, {} shed",
            self.queue_depth, self.in_flight, self.completed, self.failed, self.rejected, self.shed
        )?;
        writeln!(f, "  queue wait {}", fmt_hist_ns(&self.queue_wait))?;
        writeln!(f, "  service    {}", fmt_hist_ns(&self.service))?;
        write!(f, "  latency    {}", fmt_hist_ns(&self.latency))?;
        write!(f, "\n{}", self.rolling)?;
        for t in &self.tenants {
            write!(f, "\n{t}")?;
        }
        Ok(())
    }
}

impl ToJson for ServiceSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("queue_depth", Json::u64(self.queue_depth as u64)),
            ("in_flight", Json::u64(self.in_flight)),
            ("completed", Json::u64(self.completed)),
            ("failed", Json::u64(self.failed)),
            ("rejected", Json::u64(self.rejected)),
            ("shed", Json::u64(self.shed)),
            ("bytes_in", Json::u64(self.bytes_in)),
            ("bytes_out", Json::u64(self.bytes_out)),
            ("queue_wait", self.queue_wait.to_json()),
            ("service", self.service.to_json()),
            ("latency", self.latency.to_json()),
            ("rolling", self.rolling.to_json()),
            ("tenants", Json::Arr(self.tenants.iter().map(ToJson::to_json).collect())),
        ])
    }
}

/// Append one summary family (quantile samples plus `_sum`/`_count`).
/// Empty distributions emit only `_sum 0` / `_count 0` — absent
/// quantiles are omitted rather than faked as zero.
fn prom_summary(w: &mut PromWriter, name: &str, help: &str, h: &HistSummary) {
    w.family(name, help, "summary");
    for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
        if let Some(v) = v {
            w.sample(name, &[("quantile", q.to_string())], v as f64);
        }
    }
    w.sample(&format!("{name}_sum"), &[], h.sum as f64);
    w.sample(&format!("{name}_count"), &[], h.count as f64);
}

impl ServiceSnapshot {
    /// Prometheus text exposition: lifetime counters, live gauges,
    /// latency summaries, rolling-window gauges, and one sample set per
    /// tenant. The output always passes
    /// [`pedal_obs::validate_exposition`].
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.family("pedal_jobs_total", "Jobs by final outcome.", "counter");
        for (outcome, v) in [
            ("completed", self.completed),
            ("failed", self.failed),
            ("rejected", self.rejected),
            ("shed", self.shed),
        ] {
            w.sample("pedal_jobs_total", &[("outcome", outcome.to_string())], v as f64);
        }
        w.family("pedal_bytes_total", "Bytes moved through the service.", "counter");
        w.sample("pedal_bytes_total", &[("direction", "in".to_string())], self.bytes_in as f64);
        w.sample("pedal_bytes_total", &[("direction", "out".to_string())], self.bytes_out as f64);
        w.family("pedal_queue_depth", "Jobs waiting in the admission queue.", "gauge");
        w.sample("pedal_queue_depth", &[], self.queue_depth as f64);
        w.family("pedal_in_flight", "Jobs admitted but not yet completed.", "gauge");
        w.sample("pedal_in_flight", &[], self.in_flight as f64);
        prom_summary(&mut w, "pedal_queue_wait_ns", "Lifetime queue wait.", &self.queue_wait);
        prom_summary(&mut w, "pedal_service_ns", "Lifetime service time.", &self.service);
        prom_summary(&mut w, "pedal_latency_ns", "Lifetime end-to-end latency.", &self.latency);
        let r = &self.rolling;
        prom_summary(
            &mut w,
            "pedal_rolling_latency_ns",
            "End-to-end latency over the rolling window.",
            &r.latency,
        );
        w.family("pedal_rolling_completed", "Completions in the rolling window.", "gauge");
        w.sample("pedal_rolling_completed", &[], r.completed_recent as f64);
        w.family("pedal_completed_per_sec", "Windowed completion rate.", "gauge");
        w.sample("pedal_completed_per_sec", &[], r.completed_per_sec);
        w.family("pedal_mbps_in", "Windowed input throughput (MB/s).", "gauge");
        w.sample("pedal_mbps_in", &[], r.mbps_in);
        w.family("pedal_queue_depth_high", "Queue-depth high watermark.", "gauge");
        w.sample("pedal_queue_depth_high", &[], r.queue_depth_high as f64);
        w.family("pedal_in_flight_high", "In-flight high watermark.", "gauge");
        w.sample("pedal_in_flight_high", &[], r.in_flight_high as f64);
        if !self.tenants.is_empty() {
            w.family("pedal_tenant_jobs_total", "Per-tenant jobs by outcome.", "counter");
            for t in &self.tenants {
                for (outcome, v) in [
                    ("completed", t.completed),
                    ("failed", t.failed),
                    ("rejected", t.rejected),
                    ("shed", t.shed),
                ] {
                    w.sample(
                        "pedal_tenant_jobs_total",
                        &[("tenant", t.tenant.to_string()), ("outcome", outcome.to_string())],
                        v as f64,
                    );
                }
            }
            w.family(
                "pedal_tenant_slo_attainment",
                "Fraction of recent completions inside the tenant's latency target.",
                "gauge",
            );
            for t in &self.tenants {
                if let Some(a) = t.attainment {
                    w.sample("pedal_tenant_slo_attainment", &[("tenant", t.tenant.to_string())], a);
                }
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crate::queue::{AdmissionQueue, BackpressurePolicy};
    use crate::{LiveConfig, ServiceError};
    use std::sync::Arc;

    fn empty_ledger() -> Ledger {
        let queue = Arc::new(AdmissionQueue::new(1, BackpressurePolicy::Block));
        Ledger::new(&LiveConfig::default(), queue)
    }

    #[test]
    fn empty_stats_report_none_percentiles() {
        let stats = empty_ledger().stats(Vec::new());
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.queue_wait_p50, None);
        assert_eq!(stats.latency_p99, None);
        assert_eq!(stats.makespan, SimDuration::ZERO);
        // Display must render the absence, not panic or print zeros.
        let text = stats.to_string();
        assert!(text.contains("- / -"), "{text}");
    }

    #[test]
    fn stats_json_roundtrips_through_parser() {
        let mut ledger = empty_ledger();
        for _ in 0..3 {
            ledger.admit();
            ledger.refuse(0, &ServiceError::Overloaded, SimInstant::EPOCH);
        }
        let stats = ledger.stats(Vec::new());
        let text = stats.to_json().to_string();
        let v = pedal_obs::parse_json(&text).unwrap();
        assert_eq!(v.get("rejected").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("queue_wait_p50_ns"), Some(&Json::Null));
    }

    #[test]
    fn lane_stats_display_and_json() {
        let mut lane = LaneStats::new(LaneId::Soc(1));
        lane.jobs = 4;
        lane.busy = SimDuration::from_millis(2);
        lane.last_completion = SimInstant(4_000_000);
        assert!(lane.to_string().contains("4 jobs"));
        assert!(lane.to_string().contains("2.00ms"));
        assert!((lane.utilization() - 0.5).abs() < 1e-9);
        let v = pedal_obs::parse_json(&lane.to_json().to_string()).unwrap();
        assert_eq!(v.get("busy_ns").unwrap().as_f64(), Some(2_000_000.0));
    }
}
