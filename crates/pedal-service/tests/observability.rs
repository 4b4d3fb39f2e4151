//! Observability guarantees: tracing is pure observation (byte- and
//! timing-identical on/off), live snapshots work mid-run, every count
//! the service reports agrees with every other, and one traced run
//! yields a valid Chrome trace covering every pipeline stage the
//! paper's breakdown needs.

use pedal::{Datatype, Design};
use pedal_dpu::{Pcg32, Platform, SimDuration};
use pedal_obs::{chrome_trace_json, validate_chrome_trace, SpanKind, ToJson};
use pedal_service::{
    BackpressurePolicy, CompletedJob, FrameKind, JobDesc, LaneId, PedalService, ServiceConfig,
    ServiceError,
};

fn text_payload(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    for b in data.iter_mut().skip(1).step_by(2) {
        *b = b'x';
    }
    data
}

fn f32_payload(rng: &mut Pcg32, elements: usize) -> Vec<u8> {
    (0..elements).flat_map(|_| (rng.gen_range(-1e3f64..1e3) as f32).to_le_bytes()).collect()
}

/// A mixed workload exercising every traced path: batched engine
/// compress, full-size engine compress, SoC lossless, SoC and engine
/// SZ3, zlib checksums, and decompression.
fn submit_mixed_load(svc: &PedalService, rng: &mut Pcg32) -> usize {
    let text = text_payload(rng, 24_000);
    let small = text_payload(rng, 900);
    let floats = f32_payload(rng, 4_000);
    let mut n = 0;
    for _ in 0..3 {
        svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, small.clone())).unwrap();
        n += 1;
    }
    for design in [Design::CE_DEFLATE, Design::SOC_DEFLATE, Design::SOC_ZLIB, Design::CE_ZLIB] {
        svc.submit(JobDesc::compress(design, Datatype::Byte, text.clone())).unwrap();
        n += 1;
    }
    for design in [Design::SOC_SZ3, Design::CE_SZ3] {
        svc.submit(JobDesc::compress(design, Datatype::Float32, floats.clone())).unwrap();
        n += 1;
    }
    n
}

fn run(
    cfg: ServiceConfig,
) -> (Vec<CompletedJob>, pedal_service::ServiceStats, pedal_obs::TraceLog) {
    let svc = PedalService::start(cfg);
    let mut rng = Pcg32::seed_from_u64(0x0B5E_0001);
    let n = submit_mixed_load(&svc, &mut rng);
    let compressed = svc.drain();
    assert_eq!(compressed.len(), n);
    // Round-trip every successful payload through decompression too.
    for job in &compressed {
        if let Ok(out) = &job.result {
            let expected = job.metrics.map(|m| m.bytes_in).unwrap();
            svc.submit(JobDesc::decompress(job.design, out.bytes.clone(), expected)).unwrap();
        }
    }
    svc.drain();
    svc.shutdown_with_trace()
}

fn base_config() -> ServiceConfig {
    ServiceConfig::new(Platform::BlueField2).with_soc_workers(1).with_ce_channels(1).with_batching(
        1024,
        4,
        SimDuration::from_micros(500),
    )
}

/// Tracing on vs off: every output byte, every virtual timestamp, and
/// every aggregate statistic must be identical. The traced run differs
/// only in that it also produced a journal.
#[test]
fn tracing_is_byte_and_timing_identical() {
    let (jobs_off, stats_off, trace_off) = run(base_config());
    let (jobs_on, stats_on, trace_on) = run(base_config().with_tracing());
    assert!(trace_off.is_empty(), "untraced run must not journal events");
    assert!(!trace_on.is_empty(), "traced run must journal events");
    assert_eq!(jobs_off.len(), jobs_on.len());
    for (a, b) in jobs_off.iter().zip(jobs_on.iter()) {
        assert_eq!(a.id, b.id);
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.bytes, y.bytes, "job {} bytes differ with tracing on", a.id);
                assert_eq!(x.passthrough, y.passthrough);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("job {} outcome differs with tracing on", a.id),
        }
        let (ma, mb) = (a.metrics.unwrap(), b.metrics.unwrap());
        assert_eq!(ma.arrival, mb.arrival, "job {} arrival shifted", a.id);
        assert_eq!(ma.started, mb.started, "job {} start shifted", a.id);
        assert_eq!(ma.completed, mb.completed, "job {} completion shifted", a.id);
        assert_eq!(ma.bytes_out, mb.bytes_out);
        assert_eq!(ma.batched, mb.batched);
    }
    // Deep equality of the whole stats tree via its JSON form.
    assert_eq!(
        stats_off.to_json().to_string(),
        stats_on.to_json().to_string(),
        "aggregate stats differ with tracing on"
    );
}

/// snapshot() reads live state mid-run without draining: a paused
/// backlog is visible, and after completion the rolling percentiles
/// cover every job.
#[test]
fn snapshot_reports_live_state_mid_run() {
    let svc = PedalService::start(base_config().with_queue_capacity(32));
    let mut rng = Pcg32::seed_from_u64(0x0B5E_0002);
    let data = text_payload(&mut rng, 8_000);
    svc.pause();
    for _ in 0..6 {
        svc.submit(JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data.clone())).unwrap();
    }
    let mid = svc.snapshot();
    assert_eq!(mid.queue_depth, 6, "paused backlog must be visible live");
    assert_eq!(mid.in_flight, 6);
    assert_eq!(mid.completed, 0);
    assert_eq!(mid.latency.count, 0);
    assert_eq!(mid.latency.p50, None, "no samples yet must read as None, not zero");
    svc.resume();
    svc.drain();
    let end = svc.snapshot();
    assert_eq!(end.queue_depth, 0);
    assert_eq!(end.in_flight, 0);
    assert_eq!(end.completed, 6);
    assert!(end.bytes_in >= 6 * data.len() as u64);
    assert_eq!(end.latency.count, 6);
    assert!(end.latency.p50.is_some() && end.latency.p99.is_some());
    assert!(end.latency.p50 <= end.latency.p99);
    // The JSONL export carries the same series.
    let jsonl = svc.metrics_snapshot().to_jsonl();
    assert!(jsonl.lines().any(|l| l.contains("service.latency_ns")));
    assert!(jsonl.lines().any(|l| l.contains("service.jobs_completed")));
    let (_, stats) = svc.shutdown();
    assert_eq!(stats.completed, 6);
}

/// One traced run must surface every stage the paper's per-stage
/// breakdown needs: queue wait, batching, C-Engine execution, and all
/// four SZ3 stages — and export them as a valid Chrome trace.
#[test]
fn trace_covers_queue_batch_engine_and_all_sz3_stages() {
    let (_, _, trace) = run(base_config().with_tracing());
    for kind in [
        SpanKind::QueueWait,
        SpanKind::Batch,
        SpanKind::WorkqQueue,
        SpanKind::EngineExecute,
        SpanKind::SocExecute,
        SpanKind::Checksum,
        SpanKind::Sz3Predict,
        SpanKind::Sz3Quantize,
        SpanKind::Sz3Huffman,
        SpanKind::Sz3Backend,
    ] {
        assert!(
            !trace.spans(kind).is_empty(),
            "expected at least one {} span in the mixed-load trace",
            kind.name()
        );
    }
    // Stage durations are non-zero and the breakdown sees them.
    let breakdown = trace.stage_breakdown();
    for kind in [SpanKind::Sz3Predict, SpanKind::Sz3Quantize, SpanKind::Sz3Huffman] {
        let (_, count, total) = *breakdown
            .iter()
            .find(|(k, _, _)| *k == kind)
            .unwrap_or_else(|| panic!("{} missing from breakdown", kind.name()));
        assert!(count > 0 && total > 0, "{} must accumulate time", kind.name());
    }
    let json = chrome_trace_json(&trace);
    let check = validate_chrome_trace(&json).expect("exported trace must validate");
    for name in
        ["queue-wait", "batch", "engine-execute", "sz3-predict", "sz3-quantize", "sz3-huffman"]
    {
        assert!(check.names.iter().any(|n| n == name), "chrome trace missing '{name}' spans");
    }
}

/// The metrics bus is pure observation, like tracing: a run with a
/// deliberately slow subscriber attached matches a run with none in
/// every output byte, every virtual timestamp, and the whole lifetime
/// stats tree — even bus drops never touch the data plane.
#[test]
fn live_metrics_are_byte_and_timing_identical() {
    let run_with = |subscribe: bool| {
        let svc = PedalService::start(base_config());
        let sub = subscribe.then(|| svc.subscribe_metrics(1));
        let mut rng = Pcg32::seed_from_u64(0x0B5E_0003);
        let n = submit_mixed_load(&svc, &mut rng);
        let jobs = svc.drain();
        assert_eq!(jobs.len(), n);
        if let Some(sub) = &sub {
            assert!(sub.dropped() > 0, "capacity-1 subscriber must drop under this load");
        }
        let (_, stats) = svc.shutdown();
        (jobs, stats)
    };
    let (jobs_off, stats_off) = run_with(false);
    let (jobs_on, stats_on) = run_with(true);
    assert_eq!(jobs_off.len(), jobs_on.len());
    for (a, b) in jobs_off.iter().zip(jobs_on.iter()) {
        assert_eq!(a.id, b.id);
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.bytes, y.bytes, "job {} bytes differ with a subscriber", a.id)
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("job {} outcome differs with a subscriber", a.id),
        }
        let (ma, mb) = (a.metrics.unwrap(), b.metrics.unwrap());
        assert_eq!(ma.arrival, mb.arrival, "job {} arrival shifted", a.id);
        assert_eq!(ma.started, mb.started, "job {} start shifted", a.id);
        assert_eq!(ma.completed, mb.completed, "job {} completion shifted", a.id);
    }
    assert_eq!(
        stats_off.to_json().to_string(),
        stats_on.to_json().to_string(),
        "aggregate stats differ with a subscriber"
    );
}

/// The rolling window reports what happened *recently*: an empty
/// freshly-started window reads None (never stale or zero), a calm
/// phase fills it, and a burst one window-span later evicts the calm
/// samples while the lifetime histogram keeps everything.
#[test]
fn rolling_window_forgets_the_calm_phase() {
    let slot = SimDuration::from_millis(20);
    let slots = 8usize;
    let span = SimDuration(slot.0 * slots as u64);
    let svc = PedalService::start(base_config().with_live_window(slot, slots));
    let pre = svc.snapshot().rolling;
    assert_eq!(pre.latency.count, 0);
    assert_eq!(pre.latency.p50, None, "empty window must read None, not zero");
    assert_eq!(pre.completed_recent, 0);

    let mut rng = Pcg32::seed_from_u64(0x0B5E_0004);
    let data = text_payload(&mut rng, 4_000);
    for _ in 0..5 {
        svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())).unwrap();
    }
    let calm = svc.drain();
    let calm_end = calm.iter().filter_map(|j| j.metrics.map(|m| m.completed)).max().unwrap();
    let mid = svc.snapshot().rolling;
    assert_eq!(mid.latency.count, 5, "calm phase must be in the window right after it");
    assert_eq!(mid.completed_recent, 5);

    for _ in 0..3 {
        svc.submit(
            JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())
                .with_arrival(calm_end + span),
        )
        .unwrap();
    }
    svc.drain();
    let snap = svc.snapshot();
    let roll = &snap.rolling;
    assert_eq!(roll.latency.count, 3, "calm samples must have expired from the window");
    assert_eq!(roll.completed_recent, 3);
    assert!(roll.latency.p50.is_some());
    assert_eq!(snap.latency.count, 8, "lifetime histogram keeps every sample");
    assert_eq!(snap.completed, 8);
}

/// Per-tenant SLO accounting: a tenant with an impossible target reads
/// 0% attainment, one with a generous target reads 100%, and untagged
/// jobs land on tenant 0 under the configured default target.
#[test]
fn per_tenant_slo_attainment_tracks_targets() {
    let svc = PedalService::start(base_config().with_slo_target(SimDuration::from_millis(50)));
    svc.set_slo_target(7, SimDuration(1));
    svc.set_slo_target(8, SimDuration::from_millis(60_000));
    let mut rng = Pcg32::seed_from_u64(0x0B5E_0005);
    let data = text_payload(&mut rng, 4_000);
    for tenant in [7u32, 8] {
        for _ in 0..4 {
            svc.submit(
                JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())
                    .with_tenant(tenant),
            )
            .unwrap();
        }
    }
    svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())).unwrap();
    svc.drain();
    let snap = svc.snapshot();
    let get = |id: u32| snap.tenants.iter().find(|t| t.tenant == id).expect("tenant present");
    let tight = get(7);
    assert_eq!(tight.completed, 4);
    assert_eq!(tight.attainment, Some(0.0), "1 ns target is unmeetable");
    let loose = get(8);
    assert_eq!(loose.completed, 4);
    assert_eq!(loose.attainment, Some(1.0), "60 s target always holds");
    let default = get(0);
    assert_eq!(default.target, SimDuration::from_millis(50));
    assert_eq!(default.completed, 1);
}

/// The metrics bus streams one frame per completion in order; a slow
/// subscriber loses frames to its own bounded queue (counted), while a
/// roomy one sees everything.
#[test]
fn metrics_bus_streams_frames_and_counts_slow_subscriber_drops() {
    let svc = PedalService::start(base_config());
    let roomy = svc.subscribe_metrics(64);
    let slow = svc.subscribe_metrics(1);
    let mut rng = Pcg32::seed_from_u64(0x0B5E_0006);
    let data = text_payload(&mut rng, 4_000);
    for _ in 0..6 {
        svc.submit(
            JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone()).with_tenant(3),
        )
        .unwrap();
    }
    svc.drain();
    let frames = roomy.poll();
    assert_eq!(frames.len(), 6, "one frame per completion");
    assert_eq!(roomy.dropped(), 0);
    for w in frames.windows(2) {
        assert!(w[0].seq < w[1].seq, "frames must arrive in sequence order");
    }
    for f in &frames {
        assert_eq!(f.kind, FrameKind::Completed);
        assert_eq!(f.tenant, 3);
        assert!(f.latency_ns > 0 && f.bytes_in > 0 && f.bytes_out > 0);
    }
    assert_eq!(slow.len(), 1, "capacity-1 queue holds exactly one frame");
    assert_eq!(slow.dropped(), 5, "the other five count as drops on the slow subscriber");
}

/// A traced fanned-out job surfaces one `chunk` span per fragment, each
/// wrapping its own engine submission, and the trace stays valid.
#[test]
fn fan_out_emits_one_chunk_span_per_fragment() {
    let mut rng = Pcg32::seed_from_u64(0xB0B0_0001);
    let data = text_payload(&mut rng, 512 * 1024);
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_ce_channels(4)
            .with_parallel(256 * 1024, 64 * 1024)
            .with_tracing(),
    );
    svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())).unwrap();
    svc.drain();
    let (jobs, _, trace) = svc.shutdown_with_trace();
    assert!(jobs[0].result.is_ok());
    let chunks = trace.spans(SpanKind::Chunk);
    assert_eq!(chunks.len(), data.len().div_ceil(64 * 1024), "one chunk span per fragment");
    // Chunk indices 0..n appear exactly once across all lanes.
    let mut indices: Vec<u64> = chunks.iter().map(|e| e.arg).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..chunks.len() as u64).collect::<Vec<_>>());
    assert_eq!(trace.spans(SpanKind::EngineExecute).len(), chunks.len());
    let json = chrome_trace_json(&trace);
    let check = validate_chrome_trace(&json).expect("fan-out trace must validate");
    assert!(check.names.iter().any(|n| n == "chunk"));
}

/// Every count the service reports comes from one ledger, so they all
/// agree: the live snapshot (counters and histogram counts), the JSONL
/// series, the per-tenant SLO totals, the bus frames, the shutdown
/// stats, and what the returned completions themselves show — over a
/// run mixing SoC, C-Engine, batched and fanned-out jobs, a failing
/// decompress, evicted victims and a submission shed at the door.
#[test]
fn every_count_agrees_across_snapshot_stats_tenants_and_completions() {
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_soc_workers(1)
            .with_ce_channels(2)
            .with_queue_capacity(10)
            .with_policy(BackpressurePolicy::Shed)
            .with_batching(1024, 4, SimDuration::from_micros(500))
            .with_parallel(128 * 1024, 64 * 1024)
            .with_live_window(SimDuration::from_millis(1_000), 8)
            .with_tracing(),
    );
    let bus = svc.subscribe_metrics(64);
    let mut rng = Pcg32::seed_from_u64(0x0B5E_0007);
    let small = text_payload(&mut rng, 900);
    let text = text_payload(&mut rng, 24_000);
    let large = text_payload(&mut rng, 256 * 1024);
    let floats = f32_payload(&mut rng, 4_000);
    // Valid SOC_DEFLATE header over a garbage body: the decode fails.
    let mut garbage = vec![0xFF, 0x01, 0xFF, 32];
    garbage.extend_from_slice(&[0xAB; 16]);
    let job = |design, datatype, data: &Vec<u8>| JobDesc::compress(design, datatype, data.clone());

    svc.pause();
    let kept = [
        job(Design::CE_DEFLATE, Datatype::Byte, &small),
        job(Design::CE_DEFLATE, Datatype::Byte, &small),
        job(Design::CE_DEFLATE, Datatype::Byte, &small),
        job(Design::SOC_DEFLATE, Datatype::Byte, &text),
        job(Design::CE_DEFLATE, Datatype::Byte, &large),
        JobDesc::decompress(Design::SOC_DEFLATE, garbage, 32),
        job(Design::SOC_SZ3, Datatype::Float32, &floats),
    ];
    for desc in kept {
        svc.submit(desc.with_tenant(1).with_priority(5)).unwrap();
    }
    for _ in 0..2 {
        svc.submit(job(Design::SOC_DEFLATE, Datatype::Byte, &small).with_tenant(3)).unwrap();
    }
    svc.submit(job(Design::CE_ZLIB, Datatype::Byte, &text).with_tenant(1).with_priority(5))
        .unwrap();
    // The queue is full: two urgent jobs evict the two priority-0 jobs,
    // and one more priority-0 job is itself shed at submission.
    for _ in 0..2 {
        let urgent = job(Design::CE_DEFLATE, Datatype::Byte, &text).with_priority(9);
        svc.submit(urgent.with_tenant(2)).unwrap();
    }
    let refused = svc.submit(job(Design::SOC_DEFLATE, Datatype::Byte, &small).with_tenant(3));
    assert_eq!(refused, Err(ServiceError::Shed));
    svc.resume();
    let done = svc.drain();

    // What the completions show.
    let ok: Vec<_> = done.iter().filter(|j| j.result.is_ok()).collect();
    let failed = done.iter().filter(|j| matches!(j.result, Err(ServiceError::Pedal(_)))).count();
    let victims = done.iter().filter(|j| matches!(j.result, Err(ServiceError::Shed))).count();
    let metrics = |j: &&CompletedJob| j.metrics.expect("served jobs carry metrics");
    let bytes_in: u64 = ok.iter().map(|j| metrics(j).bytes_in as u64).sum();
    let bytes_out: u64 = ok.iter().map(|j| j.result.as_ref().unwrap().bytes.len() as u64).sum();
    let batched = ok.iter().filter(|j| metrics(j).batched).count() as u64;
    let (ok, failed, shed) = (ok.len() as u64, failed as u64, victims as u64 + 1);
    assert_eq!((ok, failed, shed), (9, 1, 3), "the scenario itself");
    assert!(batched >= 2, "the small engine jobs must coalesce");
    assert!(done.iter().any(|j| j.metrics.is_some_and(|m| matches!(m.lane, LaneId::Soc(_)))));

    let snap = svc.snapshot();
    assert_eq!(
        (snap.completed, snap.failed, snap.shed, snap.rejected),
        (ok, failed, shed, 0),
        "snapshot counters"
    );
    assert_eq!((snap.bytes_in, snap.bytes_out), (bytes_in, bytes_out));
    for h in [&snap.queue_wait, &snap.service, &snap.latency] {
        assert_eq!(h.count, ok, "every lifetime histogram holds one sample per completion");
    }
    assert_eq!(snap.rolling.completed_recent, ok);
    assert_eq!(snap.rolling.latency.count, ok);
    let series = svc.metrics_snapshot();
    assert_eq!(series.counters["service.jobs_completed"], ok);
    assert_eq!(series.counters["service.jobs_failed"], failed);
    assert_eq!(series.counters["service.bytes_in"], bytes_in);
    assert_eq!(series.counters["service.bytes_out"], bytes_out);
    assert_eq!(series.histograms["service.latency_ns"].count, ok);

    let tenants = |f: fn(&pedal_service::TenantSloSnapshot) -> u64| -> u64 {
        snap.tenants.iter().map(f).sum()
    };
    assert_eq!(tenants(|t| t.completed), ok, "tenant completed total");
    assert_eq!(tenants(|t| t.failed), failed, "tenant failed total");
    assert_eq!(tenants(|t| t.shed), shed, "tenant shed total");
    assert_eq!(tenants(|t| t.rejected), 0, "tenant rejected total");

    let frames = bus.poll();
    let frames_of = |k: FrameKind| frames.iter().filter(|f| f.kind == k).count() as u64;
    assert_eq!(bus.dropped(), 0);
    assert_eq!(
        [FrameKind::Completed, FrameKind::Failed, FrameKind::Shed, FrameKind::Rejected]
            .map(frames_of),
        [ok, failed, shed, 0],
        "one bus frame per outcome"
    );

    let (jobs, stats, trace) = svc.shutdown_with_trace();
    assert_eq!(jobs.len(), done.len(), "shutdown returns what drain returned");
    assert_eq!(
        (stats.completed, stats.failed, stats.shed, stats.rejected),
        (ok, failed, shed, 0),
        "shutdown stats"
    );
    assert_eq!(
        (stats.bytes_in, stats.bytes_out, stats.batched_jobs),
        (bytes_in, bytes_out, batched)
    );
    let lane_jobs: u64 = stats.soc_lanes.iter().chain(&stats.channel_lanes).map(|l| l.jobs).sum();
    assert_eq!(lane_jobs, ok + failed, "every served job is charged to exactly one lane");
    assert_eq!(trace.spans(SpanKind::Chunk).len(), 4, "the large job fans out in 4 fragments");
}
