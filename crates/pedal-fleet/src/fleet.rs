//! The fleet driver: an epoch-paced control loop sharding open-loop
//! arrivals across N simulated DPU nodes.
//!
//! ## Control loop
//!
//! Arrivals are processed in fixed virtual-time *epochs*. Within an
//! epoch the router makes every decision from deterministic inputs
//! only: the arrival stream, per-tenant token buckets (virtual-time
//! refill), its own predicted per-node backlog, and the ladder level
//! chosen at the previous epoch barrier. At the barrier every node
//! drains (all admitted jobs complete), and only then are the nodes'
//! rolling snapshots read — rolling p99 latency and per-tenant SLO
//! attainment over windows keyed by *virtual* completion instants, so
//! the values are replay-identical. Those snapshots, together with the
//! router's deterministic backlog accounting (the queue-depth signal),
//! drive the next epoch's ladder level. The result:
//! live-metrics-driven control with zero wall-clock races.
//!
//! ## Placement
//!
//! A job's requested design runs *natively* on a node when its
//! placement is SoC, or when the node's C-Engine supports the
//! (algorithm, direction) pair (Table II — a BF3 engine cannot
//! compress anything). Compression is **never** routed to a BF3
//! C-Engine: if no node can run a C-Engine design natively, the router
//! rewrites it to the SoC placement *before* submission, and the
//! rewrite is recorded in the placement log. Among native candidates
//! the router picks the minimum predicted backlog (ties to the lowest
//! node index).
//!
//! ## Overload ladder (CEAZ-style)
//!
//! Best-effort traffic degrades in steps as rolling p99 approaches the
//! paying SLO: requested engine designs → SoC designs → stored
//! uncompressed (framed passthrough, no compression capacity spent).
//! Independently, a within-epoch backlog guard sheds best-effort jobs
//! outright once every capable node's predicted backlog exceeds the
//! configured bound, so a burst cannot bury paying traffic between two
//! barriers. Paying jobs are never shed and never degraded below
//! capability.

use std::collections::{BTreeMap, BTreeSet};

use pedal::{wire, Datatype, Design, PedalHeader};
use pedal_datasets::workload::Arrival;
use pedal_dpu::{Direction, Placement, SimDuration, SimInstant};
use pedal_obs::{percentile, Json, ToJson};
use pedal_policy::{fnv1a64, AdaptivePolicy, PolicyLog, PolicyRecord, PolicySnapshot};
use pedal_service::{
    BackpressurePolicy, CompletedJob, JobDesc, JobId, PedalService, ServiceConfig, ServiceStats,
};

use crate::bucket::TenantBuckets;
use crate::config::{FleetConfig, LadderLevel, NodeSpec, TenantClass};
use crate::placement::{PlacementAction, PlacementLog, PlacementRecord, ShedReason};

/// One epoch's admission counters and barrier snapshot digest.
#[derive(Debug, Clone)]
pub struct EpochSummary {
    pub epoch: u64,
    /// Ladder level in force while this epoch admitted.
    pub level: LadderLevel,
    pub arrivals: u64,
    pub submitted: u64,
    pub shed_bucket: u64,
    pub shed_backlog: u64,
    pub stored: u64,
    /// Max over nodes of rolling latency p99 at the barrier.
    pub rolling_p99_max_ns: Option<u64>,
    /// Min rolling SLO attainment over paying tenants with recent
    /// completions (None when no paying tenant completed recently).
    pub paying_attainment_min: Option<f64>,
}

impl ToJson for EpochSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("epoch", Json::u64(self.epoch)),
            ("level", Json::str(self.level.name())),
            ("arrivals", Json::u64(self.arrivals)),
            ("submitted", Json::u64(self.submitted)),
            ("shed_bucket", Json::u64(self.shed_bucket)),
            ("shed_backlog", Json::u64(self.shed_backlog)),
            ("stored", Json::u64(self.stored)),
            ("rolling_p99_max_ns", self.rolling_p99_max_ns.map(Json::u64).unwrap_or(Json::Null)),
            (
                "paying_attainment_min",
                self.paying_attainment_min.map(Json::Num).unwrap_or(Json::Null),
            ),
        ])
    }
}

/// End-to-end outcome totals for one tenant class.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Arrivals of this class in the trace.
    pub jobs: u64,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub stored: u64,
    pub shed: u64,
    /// Jobs that finished (completed or stored) within the class SLO.
    pub met_slo: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    latencies_ns: Vec<u64>,
}

impl ClassStats {
    /// Fraction of outcomes that met the SLO; sheds and failures count
    /// as misses. `None` before any outcome.
    pub fn attainment(&self) -> Option<f64> {
        let denom = self.completed + self.failed + self.stored + self.shed;
        if denom == 0 {
            return None;
        }
        Some(self.met_slo as f64 / denom as f64)
    }

    /// Nearest-rank p99 of end-to-end latency over completed jobs.
    pub fn latency_p99_ns(&self) -> Option<u64> {
        percentile(&self.latencies_ns, 0.99)
    }

    pub fn latency_p50_ns(&self) -> Option<u64> {
        percentile(&self.latencies_ns, 0.50)
    }
}

impl ToJson for ClassStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("jobs", Json::u64(self.jobs)),
            ("submitted", Json::u64(self.submitted)),
            ("completed", Json::u64(self.completed)),
            ("failed", Json::u64(self.failed)),
            ("stored", Json::u64(self.stored)),
            ("shed", Json::u64(self.shed)),
            ("met_slo", Json::u64(self.met_slo)),
            ("attainment", self.attainment().map(Json::Num).unwrap_or(Json::Null)),
            ("latency_p50_ns", self.latency_p50_ns().map(Json::u64).unwrap_or(Json::Null)),
            ("latency_p99_ns", self.latency_p99_ns().map(Json::u64).unwrap_or(Json::Null)),
            ("bytes_in", Json::u64(self.bytes_in)),
            ("bytes_out", Json::u64(self.bytes_out)),
        ])
    }
}

/// A job the ladder stored uncompressed (never reached a node).
#[derive(Debug, Clone)]
pub struct StoredJob {
    pub seq: u64,
    pub tenant: u32,
    /// The framed passthrough message (what would hit storage).
    pub payload: Vec<u8>,
}

/// A completion tagged with the node that served it.
#[derive(Debug, Clone)]
pub struct NodeCompletion {
    pub node: usize,
    pub job: CompletedJob,
}

/// Everything one fleet run produced.
#[derive(Debug)]
pub struct FleetRun {
    pub config_nodes: Vec<NodeSpec>,
    pub log: PlacementLog,
    /// Per-message adaptive decisions; empty unless
    /// [`FleetConfig::with_adaptive_policy`] was set.
    pub policy_log: PolicyLog,
    /// Whether the adaptive policy was enabled for this run (controls
    /// whether policy keys appear in the report, keeping policy-free
    /// reports byte-stable).
    pub policy_enabled: bool,
    pub epochs: Vec<EpochSummary>,
    pub completions: Vec<NodeCompletion>,
    pub stored: Vec<StoredJob>,
    pub paying: ClassStats,
    pub best_effort: ClassStats,
    pub node_stats: Vec<ServiceStats>,
    /// `(node, service job id) -> trace seq`, for oracle replay.
    pub job_seq: BTreeMap<(usize, JobId), u64>,
}

impl FleetRun {
    /// The structured report (stable key order, replay-identical bytes).
    pub fn report(&self) -> Json {
        let nodes: Vec<Json> = self
            .config_nodes
            .iter()
            .map(|n| {
                Json::obj(vec![
                    ("platform", Json::str(n.platform.short_name())),
                    ("soc_workers", Json::u64(n.soc_workers as u64)),
                    ("ce_channels", Json::u64(n.ce_channels as u64)),
                ])
            })
            .collect();
        let per_node: Vec<Json> = self
            .node_stats
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("completed", Json::u64(s.completed)),
                    ("failed", Json::u64(s.failed)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("nodes", Json::Arr(nodes)),
            ("epochs", Json::Arr(self.epochs.iter().map(|e| e.to_json()).collect())),
            ("paying", self.paying.to_json()),
            ("best_effort", self.best_effort.to_json()),
            ("node_completions", Json::Arr(per_node)),
            ("placement_records", Json::u64(self.log.len() as u64)),
            ("placement_digest", Json::str(self.log.digest())),
        ];
        // Policy keys only exist when the policy ran, so policy-free
        // reports (every committed baseline) keep their exact bytes.
        if self.policy_enabled {
            fields.push(("policy_records", Json::u64(self.policy_log.len() as u64)));
            fields.push(("policy_digest", Json::str(self.policy_log.digest())));
        }
        Json::obj(fields)
    }

    pub fn report_string(&self) -> String {
        let mut out = String::new();
        self.report().write(&mut out);
        out
    }

    /// FNV-1a 64 over report + placement log (+ policy log when the
    /// adaptive policy ran): the replay witness.
    pub fn digest(&self) -> String {
        let mut combined = format!("{}\n{}", self.report_string(), self.log.to_json_string());
        if self.policy_enabled {
            combined.push('\n');
            combined.push_str(&self.policy_log.to_json_string());
        }
        format!("{:016x}", fnv1a64(combined.as_bytes()))
    }
}

struct Node {
    spec: NodeSpec,
    svc: PedalService,
    /// Predicted backlog admitted this epoch (router's own accounting).
    pending: SimDuration,
    /// Tenants whose SLO target is already set on this node.
    slo_set: BTreeSet<u32>,
}

impl Node {
    fn start(spec: NodeSpec, cfg: &FleetConfig) -> Self {
        let svc = PedalService::start(
            ServiceConfig::new(spec.platform)
                .with_queue_capacity(spec.queue_capacity)
                .with_policy(BackpressurePolicy::Block)
                .with_soc_workers(spec.soc_workers)
                .with_ce_channels(spec.ce_channels)
                .with_error_bound(cfg.error_bound)
                .with_live_window(cfg.live_slot, cfg.live_slots)
                .with_slo_target(cfg.best_effort_slo),
        );
        Self { spec, svc, pending: SimDuration::ZERO, slo_set: BTreeSet::new() }
    }

    /// Can `design` run on this node without a capability fallback?
    fn native(&self, design: Design, dir: Direction) -> bool {
        match design.placement {
            Placement::Soc => true,
            Placement::CEngine => self.spec.platform.spec().cengine.supports(design.algorithm, dir),
        }
    }
}

/// Run `arrivals` (ordered by instant) through a fleet configured by
/// `cfg`. `requested` maps each arrival to the design its tenant asked
/// for. Fully deterministic: same inputs ⇒ byte-identical
/// [`FleetRun::report`] and placement log.
pub fn run_fleet<F>(cfg: &FleetConfig, arrivals: &[Arrival], requested: F) -> FleetRun
where
    F: Fn(&Arrival) -> Design,
{
    let mut nodes: Vec<Node> = cfg.nodes.iter().map(|s| Node::start(*s, cfg)).collect();
    let mut buckets = TenantBuckets::new();
    let mut log = PlacementLog::default();
    let mut epochs: Vec<EpochSummary> = Vec::new();
    let mut stored: Vec<StoredJob> = Vec::new();
    let mut job_seq: BTreeMap<(usize, JobId), u64> = BTreeMap::new();
    let mut seq_class: BTreeMap<u64, (u32, TenantClass)> = BTreeMap::new();

    // Per-message adaptive policy (below the ladder). Its snapshot is
    // rebuilt only at epoch barriers — nodes are drained and paused
    // there, so every field is a pure function of virtual time — plus
    // the router's own per-epoch submission count as the queue signal.
    let policy = cfg.adaptive.map(AdaptivePolicy::new);
    let mut policy_log = PolicyLog::default();
    let engine_capable = cfg.nodes.iter().any(|n| {
        n.platform.spec().cengine.supports(pedal_dpu::Algorithm::Deflate, Direction::Compress)
    });
    let mut snap_at = SimInstant::EPOCH;
    let mut last_p99 = 0u64;

    let mut level = LadderLevel::Engine;
    let epoch_ns = cfg.epoch.as_nanos().max(1);
    let mut current_epoch = 0u64;
    let mut summary = fresh_summary(0, level);

    let mut paying = ClassStats::default();
    let mut best_effort = ClassStats::default();

    // Within an epoch every node is *paused*: arrivals are admitted but
    // nothing dispatches until the barrier. This makes the scheduler's
    // input — the full queue contents, in submission order — a pure
    // function of the arrival stream instead of a race between the
    // submitting thread and the draining lanes, which is what makes
    // per-job virtual timestamps (and thus rolling p99) replay-exact.
    for node in nodes.iter_mut() {
        node.svc.pause();
    }
    let barrier = |nodes: &mut [Node],
                   summary: &mut EpochSummary,
                   level: &mut LadderLevel,
                   cfg: &FleetConfig| {
        for node in nodes.iter_mut() {
            node.svc.resume();
        }
        for node in nodes.iter_mut() {
            node.svc.drain();
        }
        let mut p99_max: Option<u64> = None;
        let mut attain_min: Option<f64> = None;
        for node in nodes.iter_mut() {
            let snap = node.svc.snapshot();
            if let Some(p99) = snap.rolling.latency.p99 {
                p99_max = Some(p99_max.map_or(p99, |m: u64| m.max(p99)));
            }
            for t in &snap.tenants {
                if t.tenant < cfg.paying_tenants && t.recent_total > 0 {
                    if let Some(a) = t.attainment {
                        attain_min = Some(attain_min.map_or(a, |m: f64| m.min(a)));
                    }
                }
            }
            node.pending = SimDuration::ZERO;
        }
        summary.rolling_p99_max_ns = p99_max;
        summary.paying_attainment_min = attain_min;
        // Ladder: compare the worst rolling p99 against the paying
        // SLO thresholds (integer math, no float compare drift).
        // Queue pressure feeds in through the router's own backlog
        // accounting: a backlog-shedding epoch climbs to at least
        // Soc even when p99 alone looks calm. (The live plane's
        // queue-depth *watermark* is sampled in wall time and so is
        // excluded from control and from the canonical report.)
        let slo_ns = cfg.paying_slo.as_nanos();
        *level = match p99_max {
            Some(p99) if p99.saturating_mul(100) >= slo_ns.saturating_mul(cfg.store_pct as u64) => {
                LadderLevel::Store
            }
            Some(p99)
                if p99.saturating_mul(100) >= slo_ns.saturating_mul(cfg.degrade_pct as u64) =>
            {
                LadderLevel::Soc
            }
            _ if summary.shed_backlog > 0 => LadderLevel::Soc,
            _ => LadderLevel::Engine,
        };
        for node in nodes.iter_mut() {
            node.svc.pause();
        }
    };

    for arrival in arrivals {
        let epoch = arrival.at.0 / epoch_ns;
        while epoch > current_epoch {
            barrier(&mut nodes, &mut summary, &mut level, cfg);
            // Refresh the policy snapshot at the barrier: the boundary
            // instant keys the decision log, and the worst rolling p99
            // read there is the policy's latency feedback.
            snap_at = SimInstant((current_epoch + 1).saturating_mul(epoch_ns));
            last_p99 = summary.rolling_p99_max_ns.unwrap_or(0);
            epochs.push(summary.clone());
            current_epoch += 1;
            summary = fresh_summary(current_epoch, level);
        }
        summary.arrivals += 1;

        let class = cfg.class_of(arrival.tenant);
        let stats = match class {
            TenantClass::Paying => &mut paying,
            TenantClass::BestEffort => &mut best_effort,
        };
        stats.jobs += 1;
        stats.bytes_in += arrival.bytes as u64;
        seq_class.insert(arrival.seq, (arrival.tenant, class));
        let want = requested(arrival);

        // Gate 1: the tenant's token bucket.
        if !buckets.try_take(arrival.tenant, cfg.bucket_for(class), arrival.at) {
            stats.shed += 1;
            summary.shed_bucket += 1;
            log.push(PlacementRecord {
                seq: arrival.seq,
                tenant: arrival.tenant,
                class,
                requested: want,
                action: PlacementAction::Shed { reason: ShedReason::Bucket },
            });
            continue;
        }

        // Ladder: best-effort degrades with the current level.
        let ladder_level = match class {
            TenantClass::Paying => LadderLevel::Engine,
            TenantClass::BestEffort => level,
        };
        let mut design = match ladder_level {
            LadderLevel::Soc => Design { algorithm: want.algorithm, placement: Placement::Soc },
            _ => want,
        };
        let data = arrival.payload();

        // Per-job refinement below the ladder: the policy probes the
        // message and picks codec/placement/datatype within the rung the
        // ladder granted. The ladder owns overload degradation — at the
        // Soc rung the policy may swap codecs but never climbs a
        // best-effort job back onto the engine.
        let mut datatype = Datatype::Byte;
        let mut store_raw = ladder_level == LadderLevel::Store;
        if let (false, Some(policy)) = (store_raw, &policy) {
            let snap = PolicySnapshot {
                at: snap_at,
                queue_depth: summary.submitted,
                p99_ns: last_p99,
                engine_available: engine_capable,
            };
            let (f, d) = policy.probe_and_decide(&data, &snap);
            policy_log.push(PolicyRecord::of(arrival.seq, arrival.tenant, &f, &snap, &d));
            match d.design() {
                None => store_raw = true,
                Some(chosen) => {
                    design = if ladder_level == LadderLevel::Soc {
                        Design { algorithm: chosen.algorithm, placement: Placement::Soc }
                    } else {
                        chosen
                    };
                    datatype = d.datatype;
                }
            }
        }

        // The ladder's Store rung and the policy's store-raw decision
        // frame the payload uncompressed: no compression capacity spent,
        // and a memcpy-speed store always meets the SLO.
        if store_raw {
            let payload = wire::frame(PedalHeader::Uncompressed, data.len(), &data);
            stats.stored += 1;
            stats.met_slo += 1;
            stats.bytes_out += payload.len() as u64;
            summary.stored += 1;
            stored.push(StoredJob { seq: arrival.seq, tenant: arrival.tenant, payload });
            log.push(PlacementRecord {
                seq: arrival.seq,
                tenant: arrival.tenant,
                class,
                requested: want,
                action: PlacementAction::Stored { bytes: arrival.bytes },
            });
            continue;
        }

        // Capability: find nodes that run `design` natively. A C-Engine
        // design no node supports (e.g. any compression when the fleet
        // is all-BF3) is rewritten to SoC *here*, so a BF3 engine never
        // sees a compress submission.
        let dir = Direction::Compress;
        if design.placement == Placement::CEngine && !nodes.iter().any(|n| n.native(design, dir)) {
            design = Design { algorithm: design.algorithm, placement: Placement::Soc };
        }
        let best = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.native(design, dir))
            .min_by_key(|(i, n)| (n.pending.as_nanos(), *i))
            .map(|(i, _)| i)
            .expect("SoC placement is native everywhere");

        // Gate 2: within-epoch backlog guard (best-effort only).
        let cost = cfg.estimate(arrival.bytes);
        if class == TenantClass::BestEffort && nodes[best].pending + cost > cfg.backlog_guard {
            stats.shed += 1;
            summary.shed_backlog += 1;
            log.push(PlacementRecord {
                seq: arrival.seq,
                tenant: arrival.tenant,
                class,
                requested: want,
                action: PlacementAction::Shed { reason: ShedReason::Backlog },
            });
            continue;
        }

        let node = &mut nodes[best];
        if node.slo_set.insert(arrival.tenant) {
            node.svc.set_slo_target(arrival.tenant, cfg.slo_for(class));
        }
        let desc = JobDesc::compress(design, datatype, data)
            .with_tenant(arrival.tenant)
            .with_arrival(arrival.at);
        match node.svc.submit(desc) {
            Ok(job) => {
                node.pending += cost;
                stats.submitted += 1;
                summary.submitted += 1;
                job_seq.insert((best, job), arrival.seq);
                log.push(PlacementRecord {
                    seq: arrival.seq,
                    tenant: arrival.tenant,
                    class,
                    requested: want,
                    action: PlacementAction::Submitted {
                        node: best,
                        design,
                        level: ladder_level,
                        job,
                    },
                });
            }
            Err(_) => {
                // Block policy never rejects; only a shutting-down
                // service can land here. Account it as a shed.
                stats.shed += 1;
                summary.shed_backlog += 1;
                log.push(PlacementRecord {
                    seq: arrival.seq,
                    tenant: arrival.tenant,
                    class,
                    requested: want,
                    action: PlacementAction::Shed { reason: ShedReason::Backlog },
                });
            }
        }
    }
    // Close the final epoch.
    barrier(&mut nodes, &mut summary, &mut level, cfg);
    epochs.push(summary);

    // Shut everything down and fold completions into class stats.
    let mut completions: Vec<NodeCompletion> = Vec::new();
    let mut node_stats: Vec<ServiceStats> = Vec::new();
    for (i, node) in nodes.into_iter().enumerate() {
        node.svc.resume();
        let (jobs, stats) = node.svc.shutdown();
        node_stats.push(stats);
        for job in jobs {
            completions.push(NodeCompletion { node: i, job });
        }
    }
    for c in &completions {
        let Some(&seq) = job_seq.get(&(c.node, c.job.id)) else { continue };
        let (_, class) = seq_class[&seq];
        let stats = match class {
            TenantClass::Paying => &mut paying,
            TenantClass::BestEffort => &mut best_effort,
        };
        match (&c.job.result, &c.job.metrics) {
            (Ok(out), Some(m)) => {
                stats.completed += 1;
                stats.bytes_out += out.bytes.len() as u64;
                let latency = m.completed.elapsed_since(m.arrival).as_nanos();
                stats.latencies_ns.push(latency);
                if latency <= cfg.slo_for(class).as_nanos() {
                    stats.met_slo += 1;
                }
            }
            _ => stats.failed += 1,
        }
    }
    paying.latencies_ns.sort_unstable();
    best_effort.latencies_ns.sort_unstable();

    FleetRun {
        config_nodes: cfg.nodes.clone(),
        log,
        policy_log,
        policy_enabled: policy.is_some(),
        epochs,
        completions,
        stored,
        paying,
        best_effort,
        node_stats,
        job_seq,
    }
}

fn fresh_summary(epoch: u64, level: LadderLevel) -> EpochSummary {
    EpochSummary {
        epoch,
        level,
        arrivals: 0,
        submitted: 0,
        shed_bucket: 0,
        shed_backlog: 0,
        stored: 0,
        rolling_p99_max_ns: None,
        paying_attainment_min: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_datasets::workload::{generate_arrivals, OpenLoopConfig};
    use pedal_datasets::DatasetId;

    fn tiny_trace() -> Vec<Arrival> {
        let cfg =
            OpenLoopConfig::poisson(5, SimDuration::from_micros(100), SimDuration::from_millis(4))
                .with_payload(2 << 10, 8 << 10);
        generate_arrivals(&cfg)
    }

    #[test]
    fn small_fleet_completes_everything_admitted() {
        let cfg = FleetConfig::new(vec![NodeSpec::bf2(), NodeSpec::bf3()]);
        let run = run_fleet(&cfg, &tiny_trace(), |_| Design::CE_DEFLATE);
        let total = run.paying.jobs + run.best_effort.jobs;
        assert!(total > 0);
        let accounted = run.paying.completed
            + run.paying.failed
            + run.paying.stored
            + run.paying.shed
            + run.best_effort.completed
            + run.best_effort.failed
            + run.best_effort.stored
            + run.best_effort.shed;
        assert_eq!(accounted, total, "every arrival must have exactly one outcome");
        assert_eq!(run.paying.failed + run.best_effort.failed, 0);
        assert_eq!(run.log.len() as u64, total);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let with = |latencies_ns: Vec<u64>| ClassStats { latencies_ns, ..ClassStats::default() };
        assert_eq!(with(vec![]).latency_p99_ns(), None);
        assert_eq!(with(vec![]).latency_p50_ns(), None);
        assert_eq!(with(vec![7]).latency_p50_ns(), Some(7));
        assert_eq!(with(vec![7]).latency_p99_ns(), Some(7));
        assert_eq!(with(vec![1, 2, 3, 4]).latency_p50_ns(), Some(2));
        let v = with((1..=100).collect());
        assert_eq!(v.latency_p50_ns(), Some(50));
        assert_eq!(v.latency_p99_ns(), Some(99));
        assert_eq!(percentile(&v.latencies_ns, 1.0), Some(100));
    }

    #[test]
    fn stored_jobs_frame_as_passthrough() {
        // Force Store from the first barrier on: impossible SLO.
        let mut cfg = FleetConfig::new(vec![NodeSpec::bf2()]);
        cfg.paying_slo = SimDuration::from_nanos(1);
        cfg.paying_tenants = 0; // everyone is best-effort
        cfg.store_pct = 0; // any rolling p99 trips Store
        let trace = tiny_trace();
        let run = run_fleet(&cfg, &trace, |_| Design::CE_DEFLATE);
        assert!(!run.stored.is_empty(), "ladder never reached Store");
        for s in &run.stored {
            let arrival = trace.iter().find(|a| a.seq == s.seq).unwrap();
            let data = arrival.payload();
            assert_eq!(s.payload, wire::frame(PedalHeader::Uncompressed, data.len(), &data));
            let (decoded, _) = wire::decompress_payload(&s.payload, data.len()).unwrap();
            assert_eq!(decoded, data, "stored passthrough must decode to the input");
        }
    }

    #[test]
    fn lz4_requests_degrade_to_soc_everywhere() {
        // No engine on either platform supports LZ4 *compression*
        // (Table II), so CE_LZ4 requests must be rewritten to SoC.
        let cfg = FleetConfig::new(vec![NodeSpec::bf2(), NodeSpec::bf3()]);
        let run = run_fleet(&cfg, &tiny_trace(), |_| Design::CE_LZ4);
        let mut saw = 0;
        for r in &run.log.records {
            if let PlacementAction::Submitted { design, .. } = &r.action {
                assert_eq!(
                    design.placement,
                    Placement::Soc,
                    "CE_LZ4 slipped through at seq {}",
                    r.seq
                );
                saw += 1;
            }
        }
        assert!(saw > 0);
        // Mix of both datasets keeps this from being vacuous.
        assert!(run.paying.completed + run.best_effort.completed > 0);
        let _ = DatasetId::SilesiaXml; // anchor the dev-dependency
    }
}
