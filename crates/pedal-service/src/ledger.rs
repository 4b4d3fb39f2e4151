//! The completion ledger: the one place a finished job is counted.
//!
//! Every outcome — a served job, a failed one, a shed victim, a
//! submission refused at the door — is folded in under the service's
//! completion lock. From that one record the ledger answers three
//! readers: the lifetime counters and histograms behind
//! [`crate::PedalService::snapshot`], the exact samples behind
//! [`ServiceStats`], and the live plane (rolling windows, the
//! per-tenant SLO table and the metrics bus). Updates are serialized and
//! keyed by each job's virtual completion instant, so window contents
//! are a pure function of the virtual timeline, never of how lane
//! threads interleave.

use std::sync::Arc;

use pedal_dpu::{SimDuration, SimInstant};
use pedal_obs::{
    percentile, FrameKind, HistSummary, LogHistogram, MetricsFrame, MetricsSnapshot, ObsBus,
    SloTable, TenantId, WindowConfig, WindowedCounter, WindowedHistogram,
};

use crate::job::{CompletedJob, LaneId, ServiceError};
use crate::queue::AdmissionQueue;
use crate::service::LiveConfig;
use crate::stats::{LaneStats, RollingStats, ServiceSnapshot, ServiceStats};

/// One timing series, recorded three ways at once: log-bucketed over
/// the lifetime (snapshots), exactly (shutdown percentiles), and over
/// the rolling window (recent behaviour).
struct Timing {
    lifetime: LogHistogram,
    exact: Vec<SimDuration>,
    recent: WindowedHistogram,
}

impl Timing {
    fn new(window: WindowConfig) -> Self {
        Self {
            lifetime: LogHistogram::new(),
            exact: Vec::new(),
            recent: WindowedHistogram::new(window),
        }
    }

    fn record(&mut self, at: SimInstant, d: SimDuration) {
        self.lifetime.record(d.as_nanos());
        self.recent.record_at(at, d.as_nanos());
        self.exact.push(d);
    }

    /// Exact nearest-rank p50 and p99 over every sample.
    fn p50_p99(&self) -> (Option<SimDuration>, Option<SimDuration>) {
        let mut sorted = self.exact.clone();
        sorted.sort_unstable();
        (percentile(&sorted, 0.50), percentile(&sorted, 0.99))
    }
}

pub(crate) struct Ledger {
    /// Every finished job, in completion order; what `drain()` and
    /// `shutdown()` return.
    pub(crate) jobs: Vec<CompletedJob>,
    /// Jobs admitted but not yet recorded (queued, batched, or in-lane).
    pub(crate) outstanding: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    rejected: u64,
    bytes_in: u64,
    bytes_out: u64,
    batched: u64,
    /// Latest successful completion: the end of the makespan.
    last_ok: SimInstant,
    queue_wait: Timing,
    service: Timing,
    latency: Timing,
    window: WindowConfig,
    completed_recent: WindowedCounter,
    bytes_in_recent: WindowedCounter,
    queue_high: u64,
    in_flight_high: u64,
    pub(crate) slos: SloTable,
    pub(crate) bus: ObsBus,
    queue: Arc<AdmissionQueue>,
}

impl Ledger {
    pub(crate) fn new(cfg: &LiveConfig, queue: Arc<AdmissionQueue>) -> Self {
        let w = WindowConfig::new(cfg.slot, cfg.slots);
        Self {
            jobs: Vec::new(),
            outstanding: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            rejected: 0,
            bytes_in: 0,
            bytes_out: 0,
            batched: 0,
            last_ok: SimInstant::EPOCH,
            queue_wait: Timing::new(w),
            service: Timing::new(w),
            latency: Timing::new(w),
            window: w,
            completed_recent: WindowedCounter::new(w),
            bytes_in_recent: WindowedCounter::new(w),
            queue_high: 0,
            in_flight_high: 0,
            slos: SloTable::new(cfg.slo_target, w),
            bus: ObsBus::new(),
            queue,
        }
    }

    /// Count one admitted job as in flight.
    pub(crate) fn admit(&mut self) {
        self.outstanding += 1;
        self.in_flight_high = self.in_flight_high.max(self.outstanding);
    }

    /// Sample the admission backlog after a job entered it.
    pub(crate) fn observe_queue(&mut self) {
        self.queue_high = self.queue_high.max(self.queue.len() as u64);
    }

    /// Fold in one finished job. `now` stamps outcomes that carry no
    /// metrics of their own (shed victims).
    pub(crate) fn record(&mut self, job: CompletedJob, now: SimInstant) {
        self.outstanding -= 1;
        match (&job.result, &job.metrics) {
            (Ok(out), Some(m)) => {
                let latency = m.completed.elapsed_since(m.arrival);
                self.completed += 1;
                self.bytes_in += m.bytes_in as u64;
                self.bytes_out += out.bytes.len() as u64;
                self.batched += m.batched as u64;
                self.last_ok = self.last_ok.max(m.completed);
                self.queue_wait.record(m.completed, m.queue_wait);
                self.service.record(m.completed, m.service);
                self.latency.record(m.completed, latency);
                self.completed_recent.record_at(m.completed, 1);
                self.bytes_in_recent.record_at(m.completed, m.bytes_in as u64);
                self.slos.record_completed(job.tenant, m.completed, latency);
                self.bus.publish(MetricsFrame {
                    seq: 0,
                    at: m.completed,
                    tenant: job.tenant,
                    kind: FrameKind::Completed,
                    latency_ns: latency.as_nanos(),
                    service_ns: m.service.as_nanos(),
                    bytes_in: m.bytes_in as u64,
                    bytes_out: out.bytes.len() as u64,
                    queue_depth: self.queue.len() as u64,
                });
            }
            (Ok(_), None) => unreachable!("executed jobs always carry metrics"),
            (Err(e), m) => {
                let kind =
                    if *e == ServiceError::Shed { FrameKind::Shed } else { FrameKind::Failed };
                self.count(kind, job.tenant, m.map_or(now, |m| m.completed));
            }
        }
        self.jobs.push(job);
    }

    /// Fold in a submission the admission queue turned away.
    pub(crate) fn refuse(&mut self, tenant: TenantId, e: &ServiceError, now: SimInstant) {
        self.outstanding -= 1;
        match e {
            ServiceError::Overloaded => self.count(FrameKind::Rejected, tenant, now),
            ServiceError::Shed => self.count(FrameKind::Shed, tenant, now),
            _ => {}
        }
    }

    /// Count one unsuccessful outcome and publish it on the bus.
    fn count(&mut self, kind: FrameKind, tenant: TenantId, at: SimInstant) {
        match kind {
            FrameKind::Shed => {
                self.shed += 1;
                self.slos.record_shed(tenant);
            }
            FrameKind::Rejected => {
                self.rejected += 1;
                self.slos.record_rejected(tenant);
            }
            FrameKind::Failed => {
                self.failed += 1;
                self.slos.record_failed(tenant);
            }
            FrameKind::Completed => unreachable!("completions carry metrics"),
        }
        self.bus.publish(MetricsFrame {
            seq: 0,
            at,
            tenant,
            kind,
            latency_ns: 0,
            service_ns: 0,
            bytes_in: 0,
            bytes_out: 0,
            queue_depth: self.queue.len() as u64,
        });
    }

    pub(crate) fn snapshot(&self, now: SimInstant) -> ServiceSnapshot {
        ServiceSnapshot {
            queue_depth: self.queue.len(),
            in_flight: self.outstanding,
            completed: self.completed,
            failed: self.failed,
            rejected: self.rejected,
            shed: self.shed,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            queue_wait: HistSummary::of(&self.queue_wait.lifetime),
            service: HistSummary::of(&self.service.lifetime),
            latency: HistSummary::of(&self.latency.lifetime),
            rolling: self.rolling_at(now),
            tenants: self.slos.snapshot_at(now),
        }
    }

    fn rolling_at(&self, now: SimInstant) -> RollingStats {
        // Rates are derived from the windowed integer counters rather
        // than an EWMA: a windowed sum is a pure function of each job's
        // virtual completion instant, so replays serialize byte-identical
        // no matter how lane threads interleave in wall time.
        let span_ns = self.window.span().as_nanos().max(1) as f64;
        let completed = self.completed_recent.total_at(now);
        let bytes_in = self.bytes_in_recent.total_at(now);
        RollingStats {
            window: self.window.span(),
            queue_wait: self.queue_wait.recent.summary_at(now),
            service: self.service.recent.summary_at(now),
            latency: self.latency.recent.summary_at(now),
            completed_recent: completed,
            bytes_in_recent: bytes_in,
            completed_per_sec: completed as f64 * 1e9 / span_ns,
            mbps_in: bytes_in as f64 * 1e9 / span_ns / 1e6,
            queue_depth_high: self.queue_high,
            in_flight_high: self.in_flight_high,
        }
    }

    /// The lifetime series as named metrics (JSONL export).
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        let counters = [
            ("service.bytes_in", self.bytes_in),
            ("service.bytes_out", self.bytes_out),
            ("service.jobs_completed", self.completed),
            ("service.jobs_failed", self.failed),
        ];
        let histograms = [
            ("service.latency_ns", &self.latency),
            ("service.queue_wait_ns", &self.queue_wait),
            ("service.service_ns", &self.service),
        ];
        MetricsSnapshot {
            counters: counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, t)| (k.to_string(), HistSummary::of(&t.lifetime)))
                .collect(),
        }
    }

    /// Whole-run summary, with each lane's own counters.
    pub(crate) fn stats(&self, lanes: Vec<LaneStats>) -> ServiceStats {
        let (queue_wait_p50, queue_wait_p99) = self.queue_wait.p50_p99();
        let (service_p50, service_p99) = self.service.p50_p99();
        let (latency_p50, latency_p99) = self.latency.p50_p99();
        let index = |l: &LaneStats| match l.lane {
            LaneId::Soc(i) | LaneId::Channel(i) => i,
        };
        let (mut soc_lanes, mut channel_lanes): (Vec<_>, Vec<_>) =
            lanes.into_iter().partition(|l| matches!(l.lane, LaneId::Soc(_)));
        soc_lanes.sort_by_key(index);
        channel_lanes.sort_by_key(index);
        ServiceStats {
            completed: self.completed,
            rejected: self.rejected,
            shed: self.shed,
            failed: self.failed,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            batched_jobs: self.batched,
            queue_wait_p50,
            queue_wait_p99,
            service_p50,
            service_p99,
            latency_p50,
            latency_p99,
            makespan: self.last_ok.elapsed_since(SimInstant::EPOCH),
            soc_lanes,
            channel_lanes,
        }
    }
}
