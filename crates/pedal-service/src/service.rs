//! The offload engine: admission, deterministic scheduling, lane
//! execution, and graceful shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pedal::exec::{Executed, Executor};
use pedal::{wire, Datatype, Design, PedalHeader};
use pedal_doca::{CompressJob, JobKind, Workq};
use pedal_dpu::{
    Algorithm, CostModel, Direction, Placement, Platform, SimClock, SimDuration, SimInstant,
};
use pedal_policy::{AdaptivePolicy, PolicyConfig, PolicyLog, PolicyRecord, PolicySnapshot};

use pedal_obs::{
    BusSubscription, Collector, FrameKind, HighWatermark, HistSummary, LaneRecorder, LogHistogram,
    MetricsFrame, MetricsRegistry, ObsBus, SloTable, SpanKind, TenantId, TraceLog, WindowConfig,
    WindowedCounter, WindowedHistogram,
};

use crate::job::{
    CompletedJob, Job, JobDesc, JobId, JobMetrics, JobOp, JobOutput, LaneId, ServiceError,
};
use crate::queue::{AdmissionQueue, BackpressurePolicy, Popped};
use crate::stats::{LaneStats, RollingStats, ServiceSnapshot, ServiceStats};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Tuning knobs for a [`PedalService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub platform: Platform,
    /// Admission queue bound (jobs waiting for the scheduler).
    pub queue_capacity: usize,
    pub policy: BackpressurePolicy,
    /// SoC worker threads serving SoC-placed designs.
    pub soc_workers: usize,
    /// Independent C-Engine channels (DOCA work queues).
    pub ce_channels: usize,
    /// Engine descriptors per channel.
    pub channel_depth: usize,
    /// Compress jobs smaller than this many bytes coalesce into one
    /// engine submission; 0 disables batching.
    pub batch_threshold: usize,
    /// Maximum jobs per coalesced submission.
    pub batch_max_jobs: usize,
    /// Virtual-time window a pending batch stays open after its first
    /// member arrives.
    pub batch_window: SimDuration,
    /// Error bound applied to SZ3 (lossy) jobs.
    pub error_bound: f64,
    /// CE-placed DEFLATE compress jobs at least this many bytes fan out
    /// across channels as independent stream fragments; 0 disables
    /// chunk-parallel dispatch.
    pub par_threshold: usize,
    /// Fragment size for fanned-out jobs (bytes).
    pub par_chunk: usize,
    /// Event-journal tracing (the always-on metrics registry is
    /// independent of this and has no off switch).
    pub trace: TraceConfig,
    /// Rolling-window live metrics, per-tenant SLO accounting, and the
    /// metrics bus. On by default; like tracing, purely observational.
    pub live: LiveConfig,
    /// Per-message adaptive policy (probe + live feedback). `None`
    /// keeps the caller's design verbatim; see
    /// [`ServiceConfig::with_adaptive_policy`].
    pub adaptive: Option<PolicyConfig>,
}

/// Controls the per-lane event journal. Tracing is pure observation:
/// with it on or off, every output byte and every virtual timestamp is
/// identical — the only difference is whether lanes record span events
/// into their rings.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    pub enabled: bool,
    /// Per-lane ring capacity in events; when a ring fills, new events
    /// are dropped and counted ([`TraceLog::dropped`]).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: false, ring_capacity: pedal_obs::DEFAULT_RING_CAPACITY }
    }
}

/// Controls the live metrics plane: rolling windows over recent
/// completions, per-tenant SLO accounting, and the bounded
/// [`MetricsFrame`] bus. Like tracing it is pure observation — enabled
/// or disabled, every output byte and every virtual timestamp is
/// identical.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    pub enabled: bool,
    /// Width of one rolling-window slot (virtual time).
    pub slot: SimDuration,
    /// Number of slots; the window spans `slot * slots`.
    pub slots: usize,
    /// Default per-tenant latency SLO target (override per tenant with
    /// [`PedalService::set_slo_target`]).
    pub slo_target: SimDuration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            slot: SimDuration::from_millis(10),
            slots: 8,
            slo_target: SimDuration::from_millis(5),
        }
    }
}

impl ServiceConfig {
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            soc_workers: 2,
            ce_channels: 1,
            channel_depth: Workq::DEFAULT_DEPTH,
            batch_threshold: 0,
            batch_max_jobs: 8,
            batch_window: SimDuration::from_micros(200),
            error_bound: 1e-4,
            par_threshold: 0,
            par_chunk: DEFAULT_PAR_CHUNK,
            trace: TraceConfig::default(),
            live: LiveConfig::default(),
            adaptive: None,
        }
    }

    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_soc_workers(mut self, workers: usize) -> Self {
        self.soc_workers = workers;
        self
    }

    pub fn with_ce_channels(mut self, channels: usize) -> Self {
        self.ce_channels = channels;
        self
    }

    pub fn with_batching(mut self, threshold: usize, max_jobs: usize, window: SimDuration) -> Self {
        self.batch_threshold = threshold;
        self.batch_max_jobs = max_jobs;
        self.batch_window = window;
        self
    }

    pub fn with_error_bound(mut self, error_bound: f64) -> Self {
        self.error_bound = error_bound;
        self
    }

    /// Fan CE-placed DEFLATE compress jobs of at least `threshold` bytes
    /// out across channels in `chunk`-byte stream fragments. The
    /// stitched output is a pure function of the data and the chunk
    /// size, so it is byte-identical at every channel count.
    pub fn with_parallel(mut self, threshold: usize, chunk: usize) -> Self {
        self.par_threshold = threshold;
        self.par_chunk = chunk;
        self
    }

    /// Enable the per-lane event journal with the default ring size.
    pub fn with_tracing(mut self) -> Self {
        self.trace.enabled = true;
        self
    }

    /// Enable tracing with an explicit per-lane ring capacity (events).
    pub fn with_tracing_capacity(mut self, ring_capacity: usize) -> Self {
        self.trace = TraceConfig { enabled: true, ring_capacity };
        self
    }

    /// Size the rolling metrics window: `slots` slots of `slot` virtual
    /// time each (the window spans their product).
    pub fn with_live_window(mut self, slot: SimDuration, slots: usize) -> Self {
        self.live.enabled = true;
        self.live.slot = slot;
        self.live.slots = slots;
        self
    }

    /// Default per-tenant end-to-end latency SLO target.
    pub fn with_slo_target(mut self, target: SimDuration) -> Self {
        self.live.slo_target = target;
        self
    }

    /// Choose codec, placement, datatype, and streaming chunk per
    /// message with the [`pedal_policy`] closed loop instead of taking
    /// the submitted design verbatim. The hook runs in the scheduler
    /// ahead of lane placement and applies only to lossless byte-stream
    /// compress jobs (`Deflate`/`Lz4`/`Zlib` + [`Datatype::Byte`]);
    /// decompress jobs and explicitly typed or lossy submissions keep
    /// the caller's design. Every decision is appended to the
    /// [`PolicyLog`] readable via [`PedalService::policy_log`].
    pub fn with_adaptive_policy(mut self, policy: PolicyConfig) -> Self {
        self.adaptive = Some(policy);
        self
    }

    /// Disable the live metrics plane entirely (rolling windows, SLO
    /// table, and metrics bus). Lifetime counters stay on.
    pub fn without_live_metrics(mut self) -> Self {
        self.live.enabled = false;
        self
    }

    fn normalized(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.soc_workers = self.soc_workers.max(1);
        self.ce_channels = self.ce_channels.max(1);
        self.channel_depth = self.channel_depth.max(1);
        // A batch must fit a channel's descriptor ring.
        self.batch_max_jobs = self.batch_max_jobs.clamp(1, self.channel_depth);
        if self.par_threshold > 0 {
            // Tiny fragments hurt ratio (history resets per chunk) and
            // flood descriptors.
            self.par_chunk = self.par_chunk.max(MIN_PAR_CHUNK);
        }
        // Degenerate windows (zero-width slots, single slot) would make
        // "recent" meaningless; WindowConfig::new applies the same floor.
        self.live.slot = self.live.slot.max(SimDuration(1));
        self.live.slots = self.live.slots.max(2);
        self
    }
}

/// Default fragment size for fanned-out jobs: the 1 MiB stream chunk.
pub use pedal::parallel::DEFAULT_CHUNK as DEFAULT_PAR_CHUNK;

/// Smallest fragment size for fanned-out jobs: below this the
/// per-fragment framing and the lost cross-chunk matches swamp any
/// parallel win.
pub const MIN_PAR_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Adaptive policy state
// ---------------------------------------------------------------------

/// Shared state of the per-message adaptive policy: the stateless
/// decision engine, the externally fed feedback snapshot, and the
/// decision log (a determinism witness — see `pedal_policy::log`).
struct PolicyShared {
    engine: AdaptivePolicy,
    /// Latest live-feedback snapshot supplied by the integrator via
    /// [`PedalService::set_policy_snapshot`]. The scheduler merges its
    /// own predicted engine backlog on top before deciding.
    snapshot: Mutex<PolicySnapshot>,
    log: Mutex<PolicyLog>,
}

// ---------------------------------------------------------------------
// Shared completion state
// ---------------------------------------------------------------------

struct Shared {
    completed: Mutex<Vec<CompletedJob>>,
    /// Jobs admitted but not yet recorded (queued, batched, or in-lane).
    outstanding: Mutex<u64>,
    all_done: Condvar,
    rejected: AtomicU64,
    shed_at_submit: AtomicU64,
    /// Lamport clock merged with every completion instant.
    clock: SimClock,
    /// Always-on named series backing [`PedalService::snapshot`].
    metrics: MetricsRegistry,
    /// Rolling windows, SLO table, and metrics bus; `None` when the
    /// live plane is disabled.
    live: Option<LivePlane>,
}

/// The live metrics plane: everything [`PedalService::snapshot`] can
/// report about *recent* behaviour, as opposed to the lifetime series
/// in the registry. Updates happen under the completion lock, so window
/// contents are a pure function of each job's virtual completion
/// instant — wall-clock interleaving cannot change what a window holds.
struct LivePlane {
    window: WindowConfig,
    queue: Arc<AdmissionQueue>,
    queue_wait: WindowedHistogram,
    service: WindowedHistogram,
    latency: WindowedHistogram,
    completed_recent: WindowedCounter,
    bytes_in_recent: WindowedCounter,
    queue_high: HighWatermark,
    in_flight_high: HighWatermark,
    slos: SloTable,
    bus: ObsBus,
}

impl LivePlane {
    fn new(cfg: &LiveConfig, queue: Arc<AdmissionQueue>) -> Self {
        let w = WindowConfig::new(cfg.slot, cfg.slots);
        Self {
            window: w,
            queue,
            queue_wait: WindowedHistogram::new(w),
            service: WindowedHistogram::new(w),
            latency: WindowedHistogram::new(w),
            completed_recent: WindowedCounter::new(w),
            bytes_in_recent: WindowedCounter::new(w),
            queue_high: HighWatermark::new(),
            in_flight_high: HighWatermark::new(),
            slos: SloTable::new(cfg.slo_target, w),
            bus: ObsBus::new(),
        }
    }

    /// Fold one finished job into the rolling windows and SLO table and
    /// publish a frame on the bus. `now` stamps outcomes that carry no
    /// metrics of their own (sheds, admission-time failures).
    fn on_complete(&self, job: &CompletedJob, now: SimInstant) {
        match &job.result {
            Ok(out) => {
                let Some(m) = &job.metrics else { return };
                let latency = m.completed.elapsed_since(m.arrival);
                self.queue_wait.record_at(m.completed, m.queue_wait.as_nanos());
                self.service.record_at(m.completed, m.service.as_nanos());
                self.latency.record_at(m.completed, latency.as_nanos());
                self.completed_recent.add_at(m.completed, 1);
                self.bytes_in_recent.add_at(m.completed, m.bytes_in as u64);
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
            Err(ServiceError::Shed) => {
                self.slos.record_shed(job.tenant);
                let at = job.metrics.as_ref().map(|m| m.completed).unwrap_or(now);
                self.publish_event(FrameKind::Shed, job.tenant, at);
            }
            Err(_) => {
                self.slos.record_failed(job.tenant);
                let at = job.metrics.as_ref().map(|m| m.completed).unwrap_or(now);
                self.publish_event(FrameKind::Failed, job.tenant, at);
            }
        }
    }

    fn on_rejected(&self, tenant: TenantId, now: SimInstant) {
        self.slos.record_rejected(tenant);
        self.publish_event(FrameKind::Rejected, tenant, now);
    }

    fn on_shed_submit(&self, tenant: TenantId, now: SimInstant) {
        self.slos.record_shed(tenant);
        self.publish_event(FrameKind::Shed, tenant, now);
    }

    fn publish_event(&self, kind: FrameKind, tenant: TenantId, at: SimInstant) {
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

    fn rolling_at(&self, now: SimInstant) -> RollingStats {
        // Rates are derived from the windowed integer counters rather
        // than an EWMA: a windowed sum is a pure function of each job's
        // virtual completion instant, so replays serialize byte-identical
        // no matter how lane threads interleave in wall time.
        let span_ns = self.window.span().as_nanos().max(1) as f64;
        let completed = self.completed_recent.sum_at(now);
        let bytes_in = self.bytes_in_recent.sum_at(now);
        RollingStats {
            window: self.window.span(),
            queue_wait: self.queue_wait.summary_at(now),
            service: self.service.summary_at(now),
            latency: self.latency.summary_at(now),
            completed_recent: completed,
            bytes_in_recent: bytes_in,
            completed_per_sec: completed as f64 * 1e9 / span_ns,
            mbps_in: bytes_in as f64 * 1e9 / span_ns / 1e6,
            queue_depth_high: self.queue_high.get(),
            in_flight_high: self.in_flight_high.get(),
        }
    }
}

/// Pre-resolved registry handles held per lane so the hot path records
/// without touching the registry's name map.
#[derive(Clone)]
struct LaneMetrics {
    queue_wait: Arc<LogHistogram>,
    service: Arc<LogHistogram>,
    latency: Arc<LogHistogram>,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    bytes_in: Arc<AtomicU64>,
    bytes_out: Arc<AtomicU64>,
}

impl LaneMetrics {
    fn resolve(reg: &MetricsRegistry) -> Self {
        Self {
            queue_wait: reg.histogram(series::QUEUE_WAIT),
            service: reg.histogram(series::SERVICE),
            latency: reg.histogram(series::LATENCY),
            completed: reg.counter(series::COMPLETED),
            failed: reg.counter(series::FAILED),
            bytes_in: reg.counter(series::BYTES_IN),
            bytes_out: reg.counter(series::BYTES_OUT),
        }
    }
}

/// Stable series names in the service's metrics registry.
pub mod series {
    pub const QUEUE_WAIT: &str = "service.queue_wait_ns";
    pub const SERVICE: &str = "service.service_ns";
    pub const LATENCY: &str = "service.latency_ns";
    pub const COMPLETED: &str = "service.jobs_completed";
    pub const FAILED: &str = "service.jobs_failed";
    pub const BYTES_IN: &str = "service.bytes_in";
    pub const BYTES_OUT: &str = "service.bytes_out";
}

impl Shared {
    /// Admit one job into the outstanding count; returns the new count
    /// so callers can feed the in-flight high-watermark.
    fn start_one(&self) -> u64 {
        let mut n = self.outstanding.lock().unwrap();
        *n += 1;
        *n
    }

    fn finish_one(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.all_done.notify_all();
        }
    }

    fn record(&self, job: CompletedJob) {
        if let Some(m) = &job.metrics {
            self.clock.merge(m.completed);
        }
        let mut done = self.completed.lock().unwrap();
        // Fold into the live plane while holding the completion lock:
        // window updates are serialized, so window contents depend only
        // on virtual completion instants, never on thread interleaving.
        if let Some(live) = &self.live {
            live.on_complete(&job, self.clock.now());
        }
        done.push(job);
        drop(done);
        self.finish_one();
    }
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

/// Asynchronous compression offload engine: jobs enter a bounded
/// admission queue, a scheduler routes them by design placement to SoC
/// worker threads or C-Engine channels, and completions carry virtual
/// queue-wait/service telemetry.
pub struct PedalService {
    cfg: ServiceConfig,
    queue: Arc<AdmissionQueue>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<()>>,
    lanes: Vec<JoinHandle<LaneStats>>,
    /// Receives each lane's finished event track at lane exit; empty
    /// when tracing is disabled.
    collector: Collector,
    /// Adaptive-policy state; `None` unless configured.
    policy: Option<Arc<PolicyShared>>,
}

impl PedalService {
    /// Spawn the scheduler and all lanes.
    pub fn start(cfg: ServiceConfig) -> Self {
        let cfg = cfg.normalized();
        let costs = CostModel::for_platform(cfg.platform);
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity, cfg.policy));
        let live = cfg.live.enabled.then(|| LivePlane::new(&cfg.live, queue.clone()));
        let shared = Arc::new(Shared {
            completed: Mutex::new(Vec::new()),
            outstanding: Mutex::new(0),
            all_done: Condvar::new(),
            rejected: AtomicU64::new(0),
            shed_at_submit: AtomicU64::new(0),
            clock: SimClock::new(),
            metrics: MetricsRegistry::new(),
            live,
        });
        let lane_metrics = LaneMetrics::resolve(&shared.metrics);
        let collector = Collector::new();
        let recorder = |track: String| {
            if cfg.trace.enabled {
                (LaneRecorder::new(track, cfg.trace.ring_capacity), Some(collector.clone()))
            } else {
                (LaneRecorder::disabled(), None)
            }
        };

        let lane_env = || LaneEnv {
            exec: Executor {
                platform: cfg.platform,
                costs,
                error_bound: cfg.error_bound,
                workq: None,
            },
            shared: shared.clone(),
            metrics: lane_metrics.clone(),
        };

        let mut lanes = Vec::new();
        let mut soc_tx = Vec::new();
        for w in 0..cfg.soc_workers {
            let (tx, rx) = mpsc::channel();
            soc_tx.push(tx);
            let env = lane_env();
            let (rec, sink) = recorder(format!("soc-{w}"));
            lanes.push(
                std::thread::Builder::new()
                    .name(format!("pedal-soc{w}"))
                    .spawn(move || run_lane(env, LaneId::Soc(w), rx, None, rec, sink))
                    .expect("spawn SoC lane"),
            );
        }
        let mut ce_tx = Vec::new();
        for c in 0..cfg.ce_channels {
            let (tx, rx) = mpsc::channel();
            ce_tx.push(tx);
            let env = lane_env();
            let wq = Workq::new(costs, cfg.channel_depth);
            let (rec, sink) = recorder(format!("ce-{c}"));
            lanes.push(
                std::thread::Builder::new()
                    .name(format!("pedal-ce{c}"))
                    .spawn(move || run_lane(env, LaneId::Channel(c), rx, Some(wq), rec, sink))
                    .expect("spawn channel lane"),
            );
        }

        let policy = cfg.adaptive.map(|p| {
            Arc::new(PolicyShared {
                engine: AdaptivePolicy::new(p),
                snapshot: Mutex::new(PolicySnapshot::calm()),
                log: Mutex::new(PolicyLog::default()),
            })
        });

        let scheduler = {
            let queue = queue.clone();
            // Only wire the policy trace track when the policy is on:
            // policy-free runs must keep byte-identical traces (no empty
            // "policy" thread shifting lane tids).
            let (rec, sink) = recorder("policy".to_string());
            let sink = if policy.is_some() { sink } else { None };
            let sched = Scheduler {
                platform: cfg.platform,
                costs,
                soc_tx,
                ce_tx,
                soc_free: vec![SimInstant::EPOCH; cfg.soc_workers],
                ce_free: vec![SimInstant::EPOCH; cfg.ce_channels],
                ce_busy: vec![VecDeque::new(); cfg.ce_channels],
                channel_depth: cfg.channel_depth,
                batch_threshold: cfg.batch_threshold,
                batch_max_jobs: cfg.batch_max_jobs,
                batch_window: cfg.batch_window,
                par_threshold: cfg.par_threshold,
                par_chunk: cfg.par_chunk,
                pending: None,
                policy: policy.clone(),
                rec,
                sink,
            };
            std::thread::Builder::new()
                .name("pedal-sched".into())
                .spawn(move || scheduler_loop(queue, sched))
                .expect("spawn scheduler")
        };

        Self {
            cfg,
            queue,
            shared,
            next_id: AtomicU64::new(0),
            scheduler: Some(scheduler),
            lanes,
            collector,
            policy,
        }
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Latest virtual completion instant observed service-wide.
    pub fn now(&self) -> SimInstant {
        self.shared.clock.now()
    }

    /// Jobs currently waiting for the scheduler.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Live view of the running service: queue depth, in-flight jobs,
    /// and rolling latency percentiles — readable at any moment, without
    /// draining or shutting down. Backed by the always-on atomic metrics
    /// registry, so taking a snapshot never blocks a lane.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let reg = &self.shared.metrics;
        let outstanding = *self.shared.outstanding.lock().unwrap();
        let queue_depth = self.queue.len();
        let now = self.shared.clock.now();
        let (rolling, tenants) = match &self.shared.live {
            Some(live) => (Some(live.rolling_at(now)), live.slos.snapshot_at(now)),
            None => (None, Vec::new()),
        };
        ServiceSnapshot {
            queue_depth,
            in_flight: outstanding,
            completed: reg.counter_value(series::COMPLETED),
            failed: reg.counter_value(series::FAILED),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            shed: self.shared.shed_at_submit.load(Ordering::Relaxed),
            bytes_in: reg.counter_value(series::BYTES_IN),
            bytes_out: reg.counter_value(series::BYTES_OUT),
            queue_wait: HistSummary::of(&reg.histogram(series::QUEUE_WAIT)),
            service: HistSummary::of(&reg.histogram(series::SERVICE)),
            latency: HistSummary::of(&reg.histogram(series::LATENCY)),
            rolling,
            tenants,
        }
    }

    /// Subscribe to per-completion [`MetricsFrame`]s. The channel is
    /// bounded: a slow reader loses frames (counted on the
    /// subscription), never blocks a lane. `None` when the live plane
    /// is disabled.
    pub fn subscribe_metrics(&self, capacity: usize) -> Option<BusSubscription> {
        self.shared.live.as_ref().map(|l| l.bus.subscribe(capacity))
    }

    /// Override one tenant's end-to-end latency SLO target (the default
    /// comes from [`LiveConfig::slo_target`]). No-op when the live
    /// plane is disabled.
    pub fn set_slo_target(&self, tenant: TenantId, target: SimDuration) {
        if let Some(l) = &self.shared.live {
            l.slos.set_target(tenant, target);
        }
    }

    /// Feed the adaptive policy a fresh live-feedback snapshot (rolling
    /// p99, external queue pressure, engine availability). Determinism
    /// is the caller's contract: build snapshots from virtual-time
    /// sources at deterministic points (the fleet does it at epoch
    /// barriers). No-op unless the service was started with
    /// [`ServiceConfig::with_adaptive_policy`].
    pub fn set_policy_snapshot(&self, snap: PolicySnapshot) {
        if let Some(p) = &self.policy {
            *p.snapshot.lock().unwrap() = snap;
        }
    }

    /// Copy of the adaptive policy's decision log so far, one record per
    /// routed compress message. `None` when the policy is disabled.
    pub fn policy_log(&self) -> Option<PolicyLog> {
        self.policy.as_ref().map(|p| p.log.lock().unwrap().clone())
    }

    /// Prometheus text exposition of the current snapshot.
    pub fn prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Point-in-time copy of every metrics series (for JSONL export).
    pub fn metrics_snapshot(&self) -> pedal_obs::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Quiesce scheduling: jobs are still admitted (and the backpressure
    /// policy still acts on the growing backlog) but none dispatch until
    /// [`PedalService::resume`]. Lets callers build a deterministic
    /// overload.
    pub fn pause(&self) {
        self.queue.pause();
    }

    pub fn resume(&self) {
        self.queue.resume();
    }

    /// Admit a job. Behaviour when the queue is full depends on the
    /// configured [`BackpressurePolicy`].
    pub fn submit(&self, desc: JobDesc) -> Result<JobId, ServiceError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = desc.tenant;
        let in_flight = self.shared.start_one();
        if let Some(live) = &self.shared.live {
            live.in_flight_high.observe(in_flight);
        }
        match self.queue.push(Job { id, desc, store: false }) {
            Ok(None) => {
                if let Some(live) = &self.shared.live {
                    live.queue_high.observe(self.queue.len() as u64);
                }
                Ok(id)
            }
            Ok(Some(victim)) => {
                if let Some(live) = &self.shared.live {
                    live.queue_high.observe(self.queue.len() as u64);
                }
                // The shed policy evicted a queued job to admit this one.
                self.shared.record(CompletedJob {
                    id: victim.id,
                    tenant: victim.desc.tenant,
                    design: victim.desc.design,
                    direction: victim.desc.op.direction(),
                    result: Err(ServiceError::Shed),
                    metrics: None,
                });
                Ok(id)
            }
            Err(e) => {
                let now = self.shared.clock.now();
                match e {
                    ServiceError::Overloaded => {
                        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                        if let Some(live) = &self.shared.live {
                            live.on_rejected(tenant, now);
                        }
                    }
                    ServiceError::Shed => {
                        self.shared.shed_at_submit.fetch_add(1, Ordering::Relaxed);
                        if let Some(live) = &self.shared.live {
                            live.on_shed_submit(tenant, now);
                        }
                    }
                    _ => {}
                }
                self.shared.finish_one();
                Err(e)
            }
        }
    }

    /// Wait for every admitted job (including pending batches) to finish
    /// and return a snapshot of all completions so far, ordered by job
    /// id. Completions stay recorded for [`PedalService::shutdown`]'s
    /// statistics.
    pub fn drain(&self) -> Vec<CompletedJob> {
        self.queue.request_flush();
        let mut n = self.shared.outstanding.lock().unwrap();
        while *n > 0 {
            n = self.shared.all_done.wait(n).unwrap();
        }
        drop(n);
        let mut jobs = self.shared.completed.lock().unwrap().clone();
        jobs.sort_by_key(|j| j.id);
        jobs
    }

    /// Stop admitting, flush pending batches, run every admitted job to
    /// completion, join all threads, and summarize.
    pub fn shutdown(self) -> (Vec<CompletedJob>, ServiceStats) {
        let (jobs, stats, _) = self.shutdown_with_trace();
        (jobs, stats)
    }

    /// [`PedalService::shutdown`] plus the collected event journal. The
    /// trace is empty unless the service was started with
    /// [`ServiceConfig::with_tracing`].
    pub fn shutdown_with_trace(mut self) -> (Vec<CompletedJob>, ServiceStats, TraceLog) {
        self.queue.close();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        let mut lane_stats = Vec::new();
        for h in self.lanes.drain(..) {
            if let Ok(s) = h.join() {
                lane_stats.push(s);
            }
        }
        let mut jobs = std::mem::take(&mut *self.shared.completed.lock().unwrap());
        jobs.sort_by_key(|j| j.id);
        let mut stats =
            ServiceStats::build(&jobs, self.shared.rejected.load(Ordering::Relaxed), lane_stats);
        stats.shed += self.shared.shed_at_submit.load(Ordering::Relaxed);
        let trace = self.collector.take();
        (jobs, stats, trace)
    }
}

impl Drop for PedalService {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        for h in self.lanes.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

enum LaneMsg {
    One {
        job: Job,
        admitted_at: SimInstant,
    },
    /// Sub-threshold compress jobs coalesced into one engine submission
    /// (C-Engine lanes only).
    Batch {
        jobs: Vec<Job>,
        admitted_at: SimInstant,
    },
    /// One fragment of a fanned-out compress job (C-Engine lanes only).
    /// The lane compresses `parent.ranges[index]` as a non-final DEFLATE
    /// fragment (final for the last index); the `finisher` chunk waits
    /// for every sibling, stitches the fragments in index order, and
    /// records the parent job.
    Chunk {
        parent: Arc<ChunkParent>,
        index: usize,
        admitted_at: SimInstant,
        finisher: bool,
    },
}

/// Shared state of one fanned-out job. The job (and hence its input
/// data) is immutable and read concurrently by every chunk lane; only
/// the fragment slots are mutated.
struct ChunkParent {
    job: Job,
    ranges: Vec<std::ops::Range<usize>>,
    state: Mutex<ChunkState>,
    done: Condvar,
}

struct ChunkState {
    frags: Vec<Option<ChunkFrag>>,
    filled: usize,
    failed: Option<String>,
}

struct ChunkFrag {
    bytes: Vec<u8>,
    started: SimInstant,
    completed: SimInstant,
}

impl ChunkParent {
    fn data(&self) -> &[u8] {
        match &self.job.desc.op {
            JobOp::Compress { data } => data,
            JobOp::Decompress { .. } => unreachable!("only compress jobs fan out"),
        }
    }
}

struct PendingBatch {
    jobs: Vec<Job>,
    window_end: SimInstant,
}

/// Single-threaded router. It tracks its *own* predicted per-lane free
/// times rather than reading live `Workq` state, so routing — and hence
/// every per-job metric — is a pure function of the submission order.
struct Scheduler {
    platform: Platform,
    costs: CostModel,
    soc_tx: Vec<Sender<LaneMsg>>,
    ce_tx: Vec<Sender<LaneMsg>>,
    soc_free: Vec<SimInstant>,
    ce_free: Vec<SimInstant>,
    /// Predicted completion instant of each descriptor a channel holds.
    ce_busy: Vec<VecDeque<SimInstant>>,
    channel_depth: usize,
    batch_threshold: usize,
    batch_max_jobs: usize,
    batch_window: SimDuration,
    par_threshold: usize,
    par_chunk: usize,
    pending: Option<PendingBatch>,
    /// Adaptive per-message policy; `None` routes designs verbatim.
    policy: Option<Arc<PolicyShared>>,
    /// The scheduler's own event track ("policy"): one
    /// [`SpanKind::PolicyDecision`] marker per decided message.
    rec: LaneRecorder,
    sink: Option<Collector>,
}

fn scheduler_loop(queue: Arc<AdmissionQueue>, mut sched: Scheduler) {
    loop {
        match queue.pop() {
            Popped::Job(job) => sched.on_job(job),
            Popped::Flush => sched.flush(),
            Popped::Closed => {
                sched.flush();
                break;
            }
        }
    }
    if let Some(sink) = sched.sink.take() {
        sink.push(sched.rec.into_track());
    }
    // Dropping the scheduler drops every lane sender; lanes exit.
}

impl Scheduler {
    fn on_job(&mut self, job: Job) {
        // Any arrival past the window closes the open batch, whatever
        // lane the new job itself targets — the window is virtual time,
        // not queue occupancy, so it cannot race with producers.
        if self.pending.as_ref().is_some_and(|p| job.desc.arrival > p.window_end) {
            self.flush();
        }
        let (job, policy_chunk) = self.apply_policy(job);
        if job.store {
            // Store-raw never touches a codec or the engine: frame on
            // the least-loaded SoC worker at memcpy cost.
            self.dispatch_soc(job);
            return;
        }
        let dir = job.desc.op.direction();
        match job.desc.design.effective_placement(self.platform, dir) {
            Placement::Soc => self.dispatch_soc(job),
            Placement::CEngine => {
                // Fan-out needs at least two fragments to pay for the
                // stitch; at or below one chunk the job takes the normal
                // path and its output stays byte-identical to today's.
                // A policy-chosen chunk opts the job into fan-out even
                // when the static `with_parallel` knob is off.
                let chunk = policy_chunk.unwrap_or(self.par_chunk);
                let fan_out = (policy_chunk.is_some() || self.par_threshold > 0)
                    && matches!(dir, Direction::Compress)
                    && matches!(job.desc.design.algorithm, Algorithm::Deflate)
                    && (policy_chunk.is_some() || job.desc.op.input_len() >= self.par_threshold)
                    && job.desc.op.input_len() > chunk;
                let batchable = self.batch_threshold > 0
                    && self.batch_max_jobs > 1
                    && matches!(dir, Direction::Compress)
                    && matches!(job.desc.design.algorithm, Algorithm::Deflate)
                    && job.desc.op.input_len() < self.batch_threshold;
                if fan_out {
                    self.dispatch_chunks(job, chunk);
                } else if batchable {
                    self.enqueue_batch(job);
                } else {
                    self.dispatch_ce(vec![job]);
                }
            }
        }
    }

    /// The adaptive-policy hook, ahead of all placement. For lossless
    /// byte-stream compress jobs it probes the message, merges the live
    /// snapshot with this router's own predicted engine backlog (both
    /// deterministic in submission order), and rewrites the job's
    /// design/datatype — or flags it store-raw. Returns the job plus a
    /// policy-chosen streaming chunk size, if any.
    fn apply_policy(&mut self, mut job: Job) -> (Job, Option<usize>) {
        let Some(policy) = self.policy.clone() else { return (job, None) };
        if !matches!(job.desc.op.direction(), Direction::Compress)
            || !matches!(
                job.desc.design.algorithm,
                Algorithm::Deflate | Algorithm::Lz4 | Algorithm::Zlib
            )
            || job.desc.datatype != Datatype::Byte
        {
            // Decompress follows the payload header; typed or lossy
            // submissions are explicit caller intent. Leave both alone.
            return (job, None);
        }
        let JobOp::Compress { data } = &job.desc.op else { unreachable!("direction checked") };
        let arrival = job.desc.arrival;
        let external = *policy.snapshot.lock().unwrap();
        let snap = PolicySnapshot {
            at: external.at.max(arrival),
            // Engine descriptors predicted still busy at this arrival —
            // the router's own virtual-time state, not live Workq reads.
            queue_depth: external.queue_depth
                + self
                    .ce_busy
                    .iter()
                    .map(|q| q.iter().filter(|&&t| t > arrival).count() as u64)
                    .sum::<u64>(),
            p99_ns: external.p99_ns,
            engine_available: external.engine_available
                && Design::CE_DEFLATE.effective_placement(self.platform, Direction::Compress)
                    == Placement::CEngine,
        };
        let (f, d) = policy.engine.probe_and_decide(data, &snap);
        self.rec.span_for(SpanKind::PolicyDecision, arrival, arrival, job.id, job.desc.tenant);
        policy.log.lock().unwrap().push(PolicyRecord::of(job.id, job.desc.tenant, &f, &snap, &d));
        match d.design() {
            None => {
                job.store = true;
                (job, None)
            }
            Some(design) => {
                job.desc.design = design;
                job.desc.datatype = d.datatype;
                let chunk = (d.chunk > 0).then(|| (d.chunk as usize).max(MIN_PAR_CHUNK));
                (job, chunk)
            }
        }
    }

    fn enqueue_batch(&mut self, job: Job) {
        match &mut self.pending {
            Some(p) => {
                p.jobs.push(job);
                if p.jobs.len() >= self.batch_max_jobs {
                    self.flush();
                }
            }
            None => {
                let window_end = job.desc.arrival + self.batch_window;
                self.pending = Some(PendingBatch { jobs: vec![job], window_end });
            }
        }
    }

    fn flush(&mut self) {
        if let Some(p) = self.pending.take() {
            self.dispatch_ce(p.jobs);
        }
    }

    fn dispatch_soc(&mut self, job: Job) {
        let arrival = job.desc.arrival;
        let service = if job.store {
            self.costs.pool_hit() + self.costs.memcpy(job.desc.op.input_len())
        } else {
            predict_service(&self.costs, &job.desc, Placement::Soc)
        };
        let mut best = 0;
        for w in 1..self.soc_free.len() {
            if self.soc_free[w].max(arrival) < self.soc_free[best].max(arrival) {
                best = w;
            }
        }
        self.soc_free[best] = self.soc_free[best].max(arrival) + service;
        let _ = self.soc_tx[best].send(LaneMsg::One { job, admitted_at: arrival });
    }

    /// Dispatch one job (`jobs.len() == 1`) or a coalesced batch to the
    /// channel predicted to finish it first, honouring per-channel
    /// descriptor depth in virtual time.
    fn dispatch_ce(&mut self, mut jobs: Vec<Job>) {
        let k = jobs.len();
        let at = jobs.iter().map(|j| j.desc.arrival).max().expect("non-empty dispatch");
        let service = {
            let per_job: SimDuration = jobs
                .iter()
                .map(|j| predict_service(&self.costs, &j.desc, Placement::CEngine))
                .sum();
            let saved = self.costs.cengine_job_overhead(Direction::Compress) * (k as u64 - 1);
            per_job.saturating_sub(saved)
        };
        let (at, best, _done) = self.place_ce(at, service, k);
        let msg = if k == 1 {
            LaneMsg::One { job: jobs.pop().unwrap(), admitted_at: at }
        } else {
            LaneMsg::Batch { jobs, admitted_at: at }
        };
        let _ = self.ce_tx[best].send(msg);
    }

    /// Reserve `k` descriptors on the channel predicted to finish a
    /// `service`-long submission first, honouring per-channel descriptor
    /// depth in virtual time. Returns the (possibly depth-delayed)
    /// dispatch instant, the chosen channel, and its predicted
    /// completion.
    fn place_ce(
        &mut self,
        arrival: SimInstant,
        service: SimDuration,
        k: usize,
    ) -> (SimInstant, usize, SimInstant) {
        let mut at = arrival;
        // Wait (virtually) until some channel has k free descriptors.
        loop {
            for q in &mut self.ce_busy {
                while q.front().is_some_and(|&t| t <= at) {
                    q.pop_front();
                }
            }
            if self.ce_busy.iter().any(|q| q.len() + k <= self.channel_depth) {
                break;
            }
            match self.ce_busy.iter().filter_map(|q| q.front().copied()).min() {
                Some(t) => at = at.max(t),
                None => break,
            }
        }
        let mut best = usize::MAX;
        for c in 0..self.ce_free.len() {
            if self.ce_busy[c].len() + k > self.channel_depth {
                continue;
            }
            if best == usize::MAX || self.ce_free[c].max(at) < self.ce_free[best].max(at) {
                best = c;
            }
        }
        let best = if best == usize::MAX { 0 } else { best };
        let done = self.ce_free[best].max(at) + service;
        self.ce_free[best] = done;
        for _ in 0..k {
            self.ce_busy[best].push_back(done);
        }
        (at, best, done)
    }

    /// Split a large compress job into fixed-size fragments and spread
    /// them over the channels predicted least loaded. The chunk with the
    /// latest predicted completion is the *finisher*: it stitches the
    /// fragments and records the parent. Predicted per-chunk service is
    /// strictly positive (pool hit + engine time), so any later chunk
    /// placed on the finisher's channel would predict strictly later —
    /// hence the finisher is always the last of this job's chunks on its
    /// own lane and never waits on work queued behind itself.
    fn dispatch_chunks(&mut self, job: Job, chunk: usize) {
        let len = job.desc.op.input_len();
        let n = len.div_ceil(chunk);
        let ranges: Vec<_> = (0..n).map(|i| i * chunk..((i + 1) * chunk).min(len)).collect();
        let arrival = job.desc.arrival;
        let mut placements = Vec::with_capacity(n);
        for r in &ranges {
            let bytes = r.len();
            let engine = self
                .costs
                .cengine_lossless(Algorithm::Deflate, Direction::Compress, bytes)
                .unwrap_or_else(|| {
                    self.costs.soc_lossless(Algorithm::Deflate, Direction::Compress, bytes)
                });
            placements.push(self.place_ce(arrival, self.costs.pool_hit() + engine, 1));
        }
        // Latest predicted completion wins; ties go to the later index so
        // the finisher is the last-placed chunk among the maxima.
        let mut fin = 0;
        for (i, p) in placements.iter().enumerate() {
            if p.2 >= placements[fin].2 {
                fin = i;
            }
        }
        let parent = Arc::new(ChunkParent {
            job,
            ranges,
            state: Mutex::new(ChunkState {
                frags: (0..n).map(|_| None).collect(),
                filled: 0,
                failed: None,
            }),
            done: Condvar::new(),
        });
        for (i, (at, lane, _)) in placements.into_iter().enumerate() {
            let _ = self.ce_tx[lane].send(LaneMsg::Chunk {
                parent: parent.clone(),
                index: i,
                admitted_at: at,
                finisher: i == fin,
            });
        }
    }
}

/// Deterministic service-time estimate used only for routing; lanes
/// charge the real costs.
fn predict_service(costs: &CostModel, desc: &JobDesc, eff: Placement) -> SimDuration {
    let dir = desc.op.direction();
    let bytes = match &desc.op {
        JobOp::Compress { data } => data.len(),
        JobOp::Decompress { expected_len, .. } => *expected_len,
    };
    let algo = desc.design.algorithm;
    let main = match algo {
        Algorithm::Sz3 => {
            let core = bytes / 3 + 64;
            let backend = match eff {
                Placement::CEngine => costs
                    .cengine_lossless(Algorithm::Deflate, dir, core)
                    .unwrap_or_else(|| costs.soc_lossless(Algorithm::Deflate, dir, core)),
                Placement::Soc => costs.sz3_zs_backend(dir, core),
            };
            costs.sz3_core(dir, bytes) + backend
        }
        _ => {
            let engine_algo =
                if matches!(algo, Algorithm::Zlib) { Algorithm::Deflate } else { algo };
            let checksum = if matches!(algo, Algorithm::Zlib) {
                costs.checksum(bytes)
            } else {
                SimDuration::ZERO
            };
            match eff {
                Placement::CEngine => {
                    costs
                        .cengine_lossless(engine_algo, dir, bytes)
                        .unwrap_or_else(|| costs.soc_lossless(algo, dir, bytes))
                        + checksum
                }
                Placement::Soc => costs.soc_lossless(algo, dir, bytes),
            }
        }
    };
    costs.pool_hit() + main
}

// ---------------------------------------------------------------------
// Lane execution
// ---------------------------------------------------------------------

struct LaneEnv {
    /// The lane's design executor, minus the engine channel the lane
    /// binds when it starts.
    exec: Executor<'static>,
    shared: Arc<Shared>,
    metrics: LaneMetrics,
}

/// A finished job's result and its virtual completion instant.
type Outcome = (Result<JobOutput, ServiceError>, SimInstant);

/// Each lane is a serial server in virtual time: a job starts at
/// `max(dispatch instant, previous completion)`. A C-Engine lane owns
/// its engine channel's work queue and is its only submitter, so the
/// channel's FIFO state evolves deterministically.
fn run_lane(
    env: LaneEnv,
    lane: LaneId,
    rx: Receiver<LaneMsg>,
    workq: Option<Workq>,
    mut rec: LaneRecorder,
    sink: Option<Collector>,
) -> LaneStats {
    let wq = workq.as_ref();
    let exec = Executor { workq: wq, ..env.exec };
    let mut stats = LaneStats::new(lane);
    let mut virt_free = SimInstant::EPOCH;
    while let Ok(msg) = rx.recv() {
        match msg {
            LaneMsg::One { job, admitted_at } => {
                let start = virt_free.max(admitted_at);
                let begin = start + env.exec.costs.pool_hit();
                rec.span_for(SpanKind::QueueWait, job.desc.arrival, start, job.id, job.desc.tenant);
                rec.span(SpanKind::PoolAcquire, start, begin, 0);
                let desc = &job.desc;
                let (result, completed) = match &desc.op {
                    JobOp::Compress { data } if job.store => {
                        store_raw(&env.exec.costs, data, begin, &mut rec)
                    }
                    JobOp::Compress { data } => {
                        job_result(exec.compress(desc.design, desc.datatype, data, begin, &mut rec))
                    }
                    JobOp::Decompress { payload, expected_len } => {
                        job_result(exec.decompress(payload, *expected_len, begin, &mut rec))
                    }
                };
                virt_free = completed.max(begin);
                rec.span_for(SpanKind::Job, start, virt_free, job.id, job.desc.tenant);
                record_one(&env, &mut stats, lane, job, start, virt_free, result, false);
            }
            LaneMsg::Batch { jobs, admitted_at } => {
                let wq = wq.expect("batches only target C-Engine lanes");
                let start = virt_free.max(admitted_at);
                let begin = start + env.exec.costs.pool_hit();
                for j in &jobs {
                    rec.span_for(SpanKind::QueueWait, j.desc.arrival, start, j.id, j.desc.tenant);
                }
                rec.span(SpanKind::PoolAcquire, start, begin, 0);
                let engine_jobs: Vec<CompressJob> = jobs
                    .iter()
                    .map(|j| match &j.desc.op {
                        JobOp::Compress { data } => {
                            CompressJob::new(JobKind::DeflateCompress, data.clone())
                        }
                        JobOp::Decompress { .. } => unreachable!("batching is compress-only"),
                    })
                    .collect();
                let batch = wq
                    .submit_batch_traced(engine_jobs, begin, &mut rec)
                    .expect("batch size is clamped to channel depth");
                virt_free = batch.completed_at.max(begin);
                rec.span(SpanKind::Batch, start, virt_free, jobs.len() as u64);
                stats.batches += 1;
                for (i, job) in jobs.into_iter().enumerate() {
                    let result = match &batch.results[i] {
                        Ok(r) => {
                            let JobOp::Compress { data } = &job.desc.op else { unreachable!() };
                            let (payload, passthrough) =
                                wire::frame_compressed(job.desc.design, data, r.output.clone());
                            Ok(JobOutput { bytes: payload, passthrough })
                        }
                        Err(e) => Err(ServiceError::Pedal(e.to_string())),
                    };
                    record_one(&env, &mut stats, lane, job, start, virt_free, result, true);
                }
            }
            LaneMsg::Chunk { parent, index, admitted_at, finisher } => {
                let wq = wq.expect("chunks only target C-Engine lanes");
                let start = virt_free.max(admitted_at);
                let begin = start + env.exec.costs.pool_hit();
                rec.span_for(
                    SpanKind::QueueWait,
                    parent.job.desc.arrival,
                    start,
                    parent.job.id,
                    parent.job.desc.tenant,
                );
                rec.span(SpanKind::PoolAcquire, start, begin, 0);
                let range = parent.ranges[index].clone();
                let last = index == parent.ranges.len() - 1;
                let cj = CompressJob::new(
                    JobKind::DeflateCompress,
                    parent.data()[range.clone()].to_vec(),
                )
                .with_final_block(last);
                let h = wq
                    .submit_traced(cj, begin, &mut rec)
                    .expect("serial lane cannot overfill its channel");
                virt_free = h.completed_at.max(begin);
                rec.span_for(
                    SpanKind::Chunk,
                    start,
                    virt_free,
                    index as u64,
                    parent.job.desc.tenant,
                );
                // Fragment work lands on the serving lane's utilization;
                // the finisher adds only the parent's job count, so lane
                // byte totals stay additive across the fan-out.
                stats.bytes_in += range.len() as u64;
                stats.busy += virt_free.elapsed_since(start);
                stats.last_completion = stats.last_completion.max(virt_free);
                let mut st = parent.state.lock().unwrap();
                match h.result {
                    Ok(r) => {
                        stats.bytes_out += r.output.len() as u64;
                        st.frags[index] = Some(ChunkFrag {
                            bytes: r.output,
                            started: start,
                            completed: virt_free,
                        });
                    }
                    Err(e) => {
                        let _ = st.failed.get_or_insert(e.to_string());
                    }
                }
                st.filled += 1;
                if st.filled == parent.ranges.len() {
                    parent.done.notify_all();
                }
                if finisher {
                    // Safe to block: every sibling chunk runs on another
                    // lane or was queued ahead of this one (see
                    // `dispatch_chunks`), so nothing this wait depends on
                    // sits behind it in this lane's queue.
                    while st.filled < parent.ranges.len() {
                        st = parent.done.wait(st).unwrap();
                    }
                    let completed =
                        finish_parent(&env, &mut stats, lane, &parent, &mut st, &mut rec);
                    virt_free = virt_free.max(completed);
                }
            }
        }
    }
    if let Some(sink) = sink {
        sink.push(rec.into_track());
    }
    stats
}

/// Stitch a fanned-out job's fragments (in index order), frame the
/// result, and record the parent job's completion on the finisher lane.
/// Called with every fragment slot filled. Returns the parent's virtual
/// completion instant: the latest fragment completion plus one memcpy of
/// the stitched body.
fn finish_parent(
    env: &LaneEnv,
    stats: &mut LaneStats,
    lane: LaneId,
    parent: &ChunkParent,
    st: &mut ChunkState,
    rec: &mut LaneRecorder,
) -> SimInstant {
    let desc = &parent.job.desc;
    let started = st.frags.iter().flatten().map(|f| f.started).min().unwrap_or(desc.arrival);
    let frag_done = st.frags.iter().flatten().map(|f| f.completed).max().unwrap_or(desc.arrival);
    let (result, completed) = match st.failed.take() {
        Some(e) => (Err(ServiceError::Pedal(e)), frag_done),
        None => {
            // The shared stitcher validates fragment shape (no empty or
            // marker-only fragments slip through) before concatenating.
            let frag_bytes: Vec<Vec<u8>> =
                st.frags.iter_mut().flatten().map(|f| std::mem::take(&mut f.bytes)).collect();
            match pedal_deflate::stitch_fragments(&frag_bytes) {
                Ok(stitched) => {
                    let completed = frag_done + env.exec.costs.memcpy(stitched.len());
                    rec.span(SpanKind::Memcpy, frag_done, completed, stitched.len() as u64);
                    let (payload, passthrough) =
                        wire::frame_compressed(desc.design, parent.data(), stitched);
                    (Ok(JobOutput { bytes: payload, passthrough }), completed)
                }
                Err(e) => (Err(ServiceError::Pedal(e.to_string())), frag_done),
            }
        }
    };
    rec.span_for(SpanKind::Job, started, completed, parent.job.id, desc.tenant);
    let bytes_in = desc.op.input_len();
    let bytes_out = result.as_ref().map(|o| o.bytes.len()).unwrap_or(0);
    let metrics = JobMetrics {
        arrival: desc.arrival,
        started,
        completed,
        queue_wait: started.elapsed_since(desc.arrival),
        service: completed.elapsed_since(started),
        bytes_in,
        bytes_out,
        lane,
        batched: false,
    };
    // Byte and busy totals were charged per fragment on their serving
    // lanes; the parent contributes only its job count here.
    stats.jobs += 1;
    stats.last_completion = stats.last_completion.max(completed);
    let m = &env.metrics;
    if result.is_ok() {
        m.queue_wait.record(metrics.queue_wait.as_nanos());
        m.service.record(metrics.service.as_nanos());
        m.latency.record(completed.elapsed_since(desc.arrival).as_nanos());
        m.completed.fetch_add(1, Ordering::Relaxed);
        m.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        m.bytes_out.fetch_add(bytes_out as u64, Ordering::Relaxed);
    } else {
        m.failed.fetch_add(1, Ordering::Relaxed);
    }
    env.shared.record(CompletedJob {
        id: parent.job.id,
        tenant: desc.tenant,
        design: desc.design,
        direction: Direction::Compress,
        result,
        metrics: Some(metrics),
    });
    completed
}

#[allow(clippy::too_many_arguments)]
fn record_one(
    env: &LaneEnv,
    stats: &mut LaneStats,
    lane: LaneId,
    job: Job,
    started: SimInstant,
    completed: SimInstant,
    result: Result<JobOutput, ServiceError>,
    batched: bool,
) {
    let desc = &job.desc;
    let bytes_in = desc.op.input_len();
    let bytes_out = result.as_ref().map(|o| o.bytes.len()).unwrap_or(0);
    let metrics = JobMetrics {
        arrival: desc.arrival,
        started,
        completed,
        queue_wait: started.elapsed_since(desc.arrival),
        service: completed.elapsed_since(started),
        bytes_in,
        bytes_out,
        lane,
        batched,
    };
    stats.jobs += 1;
    stats.bytes_in += bytes_in as u64;
    stats.bytes_out += bytes_out as u64;
    stats.busy += metrics.service;
    stats.last_completion = stats.last_completion.max(completed);
    // Feed the always-on registry so a live snapshot() sees this job.
    let m = &env.metrics;
    if result.is_ok() {
        m.queue_wait.record(metrics.queue_wait.as_nanos());
        m.service.record(metrics.service.as_nanos());
        m.latency.record(completed.elapsed_since(desc.arrival).as_nanos());
        m.completed.fetch_add(1, Ordering::Relaxed);
        m.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        m.bytes_out.fetch_add(bytes_out as u64, Ordering::Relaxed);
    } else {
        m.failed.fetch_add(1, Ordering::Relaxed);
    }
    env.shared.record(CompletedJob {
        id: job.id,
        tenant: desc.tenant,
        design: desc.design,
        direction: desc.op.direction(),
        result,
        metrics: Some(metrics),
    });
}

/// Store-raw passthrough chosen by the adaptive policy: frame the data
/// as an uncompressed PEDAL message without touching any codec. The
/// wire format is the same `PedalHeader::Uncompressed` frame the codec
/// paths emit below break-even, so decompress round-trips it without
/// knowing a policy was involved. Charged as one memcpy.
fn store_raw(costs: &CostModel, data: &[u8], begin: SimInstant, rec: &mut LaneRecorder) -> Outcome {
    let payload = wire::frame(PedalHeader::Uncompressed, data.len(), data);
    let completed = begin + costs.memcpy(data.len());
    rec.span(SpanKind::Memcpy, begin, completed, data.len() as u64);
    (Ok(JobOutput { bytes: payload, passthrough: true }), completed)
}

/// A job's view of one executed design operation.
fn job_result(done: Executed) -> Outcome {
    let result = done
        .result
        .map(|o| JobOutput { bytes: o.bytes, passthrough: o.passthrough })
        .map_err(|e| ServiceError::Pedal(e.to_string()));
    (result, done.completed)
}
