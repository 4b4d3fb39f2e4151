//! The offload engine: admission, deterministic scheduling, lane
//! execution, and graceful shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use pedal::exec::{Executed, Executor};
use pedal::{wire, Datatype, Design, PedalHeader};
use pedal_doca::{CompressJob, JobKind, Workq};
use pedal_dpu::{
    Algorithm, CostModel, Direction, Placement, Platform, SimClock, SimDuration, SimInstant,
};
use pedal_policy::{AdaptivePolicy, PolicyConfig, PolicyLog, PolicyRecord, PolicySnapshot};

use pedal_obs::{
    BusSubscription, Collector, LaneRecorder, SpanKind, TenantId, TraceLog, DEFAULT_RING_CAPACITY,
};

use crate::job::{CompletedJob, Job, JobDesc, JobId, JobOp, JobOutput, LaneId, ServiceError};
use crate::ledger::Ledger;
use crate::queue::{AdmissionQueue, BackpressurePolicy, Popped};
use crate::stats::{LaneStats, ServiceSnapshot, ServiceStats};

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
    /// Independent C-Engine channels (DOCA work queues), each
    /// [`Workq::DEFAULT_DEPTH`] descriptors deep.
    pub ce_channels: usize,
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
    /// Per-lane event journal, one [`DEFAULT_RING_CAPACITY`]-event
    /// ring per lane; a full ring drops new events and counts them
    /// ([`TraceLog::dropped`]). Tracing is pure observation: with it on
    /// or off, every output byte and every virtual timestamp is
    /// identical. The completion ledger behind
    /// [`PedalService::snapshot`] is independent of this and always on.
    pub trace: bool,
    /// Rolling-window and SLO settings of the live metrics plane.
    pub live: LiveConfig,
    /// Per-message adaptive policy (probe + live feedback). `None`
    /// keeps the caller's design verbatim; see
    /// [`ServiceConfig::with_adaptive_policy`].
    pub adaptive: Option<PolicyConfig>,
}

/// Shapes the always-on live metrics plane: rolling windows over
/// recent completions and per-tenant SLO accounting. Like tracing it is
/// pure observation; no setting changes an output byte or a virtual
/// timestamp.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
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
            batch_threshold: 0,
            batch_max_jobs: 8,
            batch_window: SimDuration::from_micros(200),
            error_bound: 1e-4,
            par_threshold: 0,
            par_chunk: DEFAULT_PAR_CHUNK,
            trace: false,
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

    /// Enable the per-lane event journal.
    pub fn with_tracing(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Size the rolling metrics window: `slots` slots of `slot` virtual
    /// time each (the window spans their product).
    pub fn with_live_window(mut self, slot: SimDuration, slots: usize) -> Self {
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

    fn normalized(mut self) -> Self {
        self.queue_capacity = self.queue_capacity.max(1);
        self.soc_workers = self.soc_workers.max(1);
        self.ce_channels = self.ce_channels.max(1);
        // A batch must fit a channel's descriptor ring.
        self.batch_max_jobs = self.batch_max_jobs.clamp(1, Workq::DEFAULT_DEPTH);
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
/// decision engine and the decision log (a determinism witness — see
/// `pedal_policy::log`).
struct PolicyShared {
    engine: AdaptivePolicy,
    log: Mutex<PolicyLog>,
}

// ---------------------------------------------------------------------
// Shared completion state
// ---------------------------------------------------------------------

struct Shared {
    /// The completion lock: every outcome is counted here, once.
    ledger: Mutex<Ledger>,
    /// Signalled when the ledger's outstanding count reaches zero.
    all_done: Condvar,
    /// Lamport clock merged with every completion instant.
    clock: SimClock,
}

const LEDGER_POISONED: &str = "a thread panicked while updating the ledger";

impl Shared {
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect(LEDGER_POISONED)
    }

    /// Count a finished job: the only place one is.
    fn record(&self, job: CompletedJob) {
        if let Some(m) = &job.metrics {
            self.clock.merge(m.completed);
        }
        self.settle(|ledger, now| ledger.record(job, now));
    }

    /// Apply one update that retires an admitted job and wake `drain()`
    /// once nothing is outstanding.
    fn settle(&self, update: impl FnOnce(&mut Ledger, SimInstant)) {
        let mut ledger = self.ledger();
        update(&mut ledger, self.clock.now());
        if ledger.outstanding == 0 {
            self.all_done.notify_all();
        }
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
        let shared = Arc::new(Shared {
            ledger: Mutex::new(Ledger::new(&cfg.live, queue.clone())),
            all_done: Condvar::new(),
            clock: SimClock::new(),
        });
        let collector = Collector::new();
        let recorder = |track: String| {
            if cfg.trace {
                (LaneRecorder::new(track, DEFAULT_RING_CAPACITY), Some(collector.clone()))
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
            let wq = Workq::new(costs, Workq::DEFAULT_DEPTH);
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
    /// lifetime counters and percentiles, the rolling window and the
    /// per-tenant SLO table — readable at any moment, without draining
    /// or shutting down. Taking one holds the completion lock only while
    /// the ledger is summarized.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.shared.ledger().snapshot(self.shared.clock.now())
    }

    /// Subscribe to per-outcome [`pedal_obs::MetricsFrame`]s. The
    /// channel is bounded: a slow reader loses frames (counted on the
    /// subscription), never blocks a lane.
    pub fn subscribe_metrics(&self, capacity: usize) -> BusSubscription {
        self.shared.ledger().bus.subscribe(capacity)
    }

    /// Override one tenant's end-to-end latency SLO target (the default
    /// comes from [`LiveConfig::slo_target`]).
    pub fn set_slo_target(&self, tenant: TenantId, target: SimDuration) {
        self.shared.ledger().slos.set_target(tenant, target);
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

    /// Point-in-time copy of the lifetime series (for JSONL export).
    pub fn metrics_snapshot(&self) -> pedal_obs::MetricsSnapshot {
        self.shared.ledger().metrics()
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
        self.shared.ledger().admit();
        match self.queue.push(Job { id, desc, store: false }) {
            Ok(victim) => {
                self.shared.ledger().observe_queue();
                // The shed policy evicted a queued job to admit this one.
                if let Some(victim) = victim {
                    self.shared.record(CompletedJob::shed(victim));
                }
                Ok(id)
            }
            Err(e) => {
                self.shared.settle(|ledger, now| ledger.refuse(tenant, &e, now));
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
        let mut ledger = self.shared.ledger();
        while ledger.outstanding > 0 {
            ledger = self.shared.all_done.wait(ledger).expect(LEDGER_POISONED);
        }
        let mut jobs = ledger.jobs.clone();
        drop(ledger);
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
        let mut ledger = self.shared.ledger();
        let mut jobs = std::mem::take(&mut ledger.jobs);
        let stats = ledger.stats(lane_stats);
        drop(ledger);
        jobs.sort_by_key(|j| j.id);
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
    /// byte-stream compress jobs it probes the message, decides against
    /// a calm snapshot at the job's arrival carrying this router's own
    /// predicted engine backlog (deterministic in submission order), and
    /// rewrites the job's design/datatype — or flags it store-raw.
    /// Returns the job plus a policy-chosen streaming chunk size, if any.
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
        let snap = PolicySnapshot {
            at: arrival,
            // Engine descriptors predicted still busy at this arrival —
            // the router's own virtual-time state, not live Workq reads.
            queue_depth: self
                .ce_busy
                .iter()
                .map(|q| q.iter().filter(|&&t| t > arrival).count() as u64)
                .sum(),
            engine_available: Design::CE_DEFLATE
                .effective_placement(self.platform, Direction::Compress)
                == Placement::CEngine,
            ..PolicySnapshot::calm()
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
            if self.ce_busy.iter().any(|q| q.len() + k <= Workq::DEFAULT_DEPTH) {
                break;
            }
            match self.ce_busy.iter().filter_map(|q| q.front().copied()).min() {
                Some(t) => at = at.max(t),
                None => break,
            }
        }
        let mut best = usize::MAX;
        for c in 0..self.ce_free.len() {
            if self.ce_busy[c].len() + k > Workq::DEFAULT_DEPTH {
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
                let done = CompletedJob::served(&job, lane, start, virt_free, result, false);
                record_one(&env, &mut stats, done);
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
                            CompressJob::new(JobKind::DeflateCompress, data)
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
                for (job, result) in jobs.into_iter().zip(batch.results) {
                    let result = match result {
                        Ok(r) => {
                            let JobOp::Compress { data } = &job.desc.op else { unreachable!() };
                            let (payload, passthrough) =
                                wire::frame_compressed(job.desc.design, data, r.output);
                            Ok(JobOutput { bytes: payload, passthrough })
                        }
                        Err(e) => Err(ServiceError::Pedal(e.to_string())),
                    };
                    let done = CompletedJob::served(&job, lane, start, virt_free, result, true);
                    record_one(&env, &mut stats, done);
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
                let cj = CompressJob::new(JobKind::DeflateCompress, &parent.data()[range.clone()])
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
    // Byte and busy totals were charged per fragment on their serving
    // lanes; the parent contributes only its job count here.
    stats.jobs += 1;
    stats.last_completion = stats.last_completion.max(completed);
    env.shared.record(CompletedJob::served(&parent.job, lane, started, completed, result, false));
    completed
}

/// Charge a served job to its lane and count it.
fn record_one(env: &LaneEnv, stats: &mut LaneStats, done: CompletedJob) {
    let m = done.metrics.expect("served jobs carry metrics");
    stats.jobs += 1;
    stats.bytes_in += m.bytes_in as u64;
    stats.bytes_out += m.bytes_out as u64;
    stats.busy += m.service;
    stats.last_completion = stats.last_completion.max(m.completed);
    env.shared.record(done);
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
