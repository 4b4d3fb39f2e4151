//! Integration tests for the offload service: byte-identity with the
//! synchronous context, batching, determinism, backpressure, and
//! graceful shutdown.

use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_dpu::{Pcg32, Platform, SimDuration, SimInstant};
use pedal_service::{
    BackpressurePolicy, JobDesc, JobMetrics, PedalService, ServiceConfig, ServiceError,
};

/// Compressible byte payload (random with a periodic anchor).
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

fn f64_payload(rng: &mut Pcg32, elements: usize) -> Vec<u8> {
    let mut acc = 0.0f64;
    (0..elements)
        .flat_map(|_| {
            acc += rng.gen_range(-0.5f64..0.5);
            acc.to_le_bytes()
        })
        .collect()
}

#[test]
fn service_matches_context_for_every_design_datatype_and_platform() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0001);
    let text = text_payload(&mut rng, 20_000);
    let f32s = f32_payload(&mut rng, 4_000);
    let f64s = f64_payload(&mut rng, 2_000);
    for platform in [Platform::BlueField2, Platform::BlueField3] {
        let svc = PedalService::start(
            ServiceConfig::new(platform).with_soc_workers(2).with_ce_channels(2),
        );
        let mut expectations = Vec::new();
        for design in Design::EXTENDED {
            let inputs: Vec<(Datatype, &Vec<u8>)> = if design.is_lossy() {
                vec![(Datatype::Float32, &f32s), (Datatype::Float64, &f64s)]
            } else {
                vec![(Datatype::Byte, &text)]
            };
            for (datatype, data) in inputs {
                let ctx = PedalContext::init(PedalConfig::new(platform, design)).unwrap();
                let reference = ctx.compress(datatype, data).unwrap();
                let id = svc.submit(JobDesc::compress(design, datatype, data.clone())).unwrap();
                expectations.push((id, design, datatype, data.clone(), reference));
            }
        }
        let done = svc.drain();
        assert_eq!(done.len(), expectations.len());
        // Phase 2: decompress every service-produced payload through the
        // service and compare with the context's decode.
        let mut decode_expect = Vec::new();
        for ((id, design, _datatype, data, reference), job) in expectations.iter().zip(done.iter())
        {
            assert_eq!(job.id, *id);
            let out = job.result.as_ref().unwrap_or_else(|e| {
                panic!("{design} on {platform:?} failed: {e}");
            });
            assert_eq!(
                out.bytes, reference.payload,
                "{design} on {platform:?}: service payload differs from context"
            );
            assert_eq!(out.passthrough, reference.passthrough);
            // A lane's service time is pool acquire + the design's work,
            // which is exactly what the context charges one operation.
            assert_eq!(
                job.metrics.unwrap().service,
                reference.timing.total(),
                "{design} on {platform:?}: compress virtual time differs from context"
            );
            let ctx = PedalContext::init(PedalConfig::new(platform, *design)).unwrap();
            let decoded = ctx.decompress(&reference.payload, data.len()).unwrap();
            let id =
                svc.submit(JobDesc::decompress(*design, out.bytes.clone(), data.len())).unwrap();
            decode_expect.push((id, *design, decoded));
        }
        let done = svc.drain();
        for (id, design, expected) in &decode_expect {
            let job = done.iter().find(|j| j.id == *id).unwrap();
            let out = job.result.as_ref().unwrap_or_else(|e| {
                panic!("decompress {design} on {platform:?} failed: {e}");
            });
            assert_eq!(
                out.bytes, expected.data,
                "decompress {design} on {platform:?}: service output differs from context"
            );
            assert_eq!(
                job.metrics.unwrap().service,
                expected.timing.total(),
                "decompress {design} on {platform:?}: virtual time differs from context"
            );
        }
        let (_, stats) = svc.shutdown();
        assert_eq!(stats.completed as usize, expectations.len() + decode_expect.len());
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
    }
}

#[test]
fn batching_is_byte_identical_and_saves_virtual_time() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0002);
    let jobs: Vec<Vec<u8>> = (0..12).map(|_| text_payload(&mut rng, 1500)).collect();

    let run = |batching: bool| {
        let mut cfg = ServiceConfig::new(Platform::BlueField2).with_ce_channels(1);
        if batching {
            cfg = cfg.with_batching(4096, 8, SimDuration::from_millis(10));
        }
        let svc = PedalService::start(cfg);
        for data in &jobs {
            svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone()))
                .unwrap();
        }
        svc.drain();
        svc.shutdown()
    };

    let (unbatched_jobs, unbatched) = run(false);
    let (batched_jobs, batched) = run(true);
    assert_eq!(batched.batched_jobs, 12, "all sub-threshold jobs should coalesce");
    assert_eq!(unbatched.batched_jobs, 0);
    assert!(batched.channel_lanes.iter().map(|l| l.batches).sum::<u64>() >= 1);
    for (a, b) in unbatched_jobs.iter().zip(batched_jobs.iter()) {
        assert_eq!(
            a.result.as_ref().unwrap().bytes,
            b.result.as_ref().unwrap().bytes,
            "batched output must be byte-identical to unbatched"
        );
        assert!(b.metrics.unwrap().batched);
    }
    // Coalescing pays the fixed engine submission overhead once per
    // batch instead of once per job (Table III), so the same work
    // finishes earlier in virtual time.
    assert!(
        batched.makespan < unbatched.makespan,
        "batched makespan {:?} should beat unbatched {:?}",
        batched.makespan,
        unbatched.makespan
    );
}

#[test]
fn same_load_produces_identical_stats_and_metrics() {
    let run = || {
        let mut rng = Pcg32::seed_from_u64(0x5E1C_0003);
        let svc = PedalService::start(
            ServiceConfig::new(Platform::BlueField2)
                .with_soc_workers(3)
                .with_ce_channels(4)
                .with_batching(2048, 4, SimDuration::from_micros(500)),
        );
        let designs = [Design::CE_DEFLATE, Design::SOC_LZ4, Design::CE_ZLIB, Design::SOC_DEFLATE];
        let mut arrival = SimInstant::EPOCH;
        for i in 0..48 {
            let len = 512 + rng.gen_range(0usize..8192);
            let data = text_payload(&mut rng, len);
            arrival = arrival + SimDuration::from_micros(rng.gen_range(10u64..200));
            svc.submit(
                JobDesc::compress(designs[i % designs.len()], Datatype::Byte, data)
                    .with_tenant((i % 3) as u32)
                    .with_arrival(arrival),
            )
            .unwrap();
        }
        svc.drain();
        svc.shutdown()
    };
    let (jobs_a, stats_a) = run();
    let (jobs_b, stats_b) = run();
    assert_eq!(jobs_a.len(), jobs_b.len());
    for (a, b) in jobs_a.iter().zip(jobs_b.iter()) {
        assert_eq!(a.id, b.id);
        let (ma, mb): (JobMetrics, JobMetrics) = (a.metrics.unwrap(), b.metrics.unwrap());
        assert_eq!(ma.lane, mb.lane, "job {} routed differently across runs", a.id);
        assert_eq!(ma.started, mb.started);
        assert_eq!(ma.completed, mb.completed);
        assert_eq!(ma.batched, mb.batched);
        assert_eq!(a.result.as_ref().unwrap().bytes, b.result.as_ref().unwrap().bytes);
    }
    assert_eq!(stats_a.makespan, stats_b.makespan);
    assert_eq!(stats_a.queue_wait_p99, stats_b.queue_wait_p99);
    assert_eq!(stats_a.latency_p50, stats_b.latency_p50);
    assert_eq!(stats_a.bytes_out, stats_b.bytes_out);
}

#[test]
fn shutdown_drains_in_flight_jobs_without_loss() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0004);
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_soc_workers(2)
            .with_ce_channels(2)
            .with_batching(2048, 8, SimDuration::from_millis(5)),
    );
    let mut ids = Vec::new();
    for i in 0..50 {
        let design = if i % 2 == 0 { Design::CE_DEFLATE } else { Design::SOC_LZ4 };
        let data = text_payload(&mut rng, 700 + i * 13);
        ids.push(svc.submit(JobDesc::compress(design, Datatype::Byte, data)).unwrap());
    }
    // No drain: shutdown itself must flush the open batch and run every
    // admitted job to completion.
    let (jobs, stats) = svc.shutdown();
    assert_eq!(jobs.len(), 50);
    assert_eq!(stats.completed, 50);
    assert_eq!(stats.failed + stats.shed + stats.rejected, 0);
    for (id, job) in ids.iter().zip(jobs.iter()) {
        assert_eq!(job.id, *id);
        assert!(job.result.is_ok());
    }
}

#[test]
fn blocking_policy_admits_everything_through_a_tiny_queue() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0005);
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField3)
            .with_queue_capacity(2)
            .with_policy(BackpressurePolicy::Block)
            .with_soc_workers(1)
            .with_ce_channels(1),
    );
    for _ in 0..40 {
        let data = text_payload(&mut rng, 3000);
        svc.submit(JobDesc::compress(Design::SOC_ZLIB, Datatype::Byte, data)).unwrap();
    }
    let (jobs, stats) = svc.shutdown();
    assert_eq!(jobs.len(), 40);
    assert_eq!(stats.completed, 40);
}

#[test]
fn four_channels_double_virtual_throughput_at_saturating_load() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0006);
    let payloads: Vec<Vec<u8>> = (0..64).map(|_| text_payload(&mut rng, 64 * 1024)).collect();
    let run = |channels: usize| {
        let svc = PedalService::start(
            ServiceConfig::new(Platform::BlueField2).with_soc_workers(1).with_ce_channels(channels),
        );
        // Saturating: every job arrives at the epoch.
        for data in &payloads {
            svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone()))
                .unwrap();
        }
        svc.drain();
        let (_, stats) = svc.shutdown();
        stats
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.completed, 64);
    assert_eq!(four.completed, 64);
    let speedup = one.makespan.as_secs_f64() / four.makespan.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "4 channels should at least double virtual throughput, got {speedup:.2}x"
    );
    // All four channels must actually carry work.
    assert!(four.channel_lanes.iter().all(|l| l.jobs > 0));
}

#[test]
fn paused_scheduler_makes_overload_deterministic() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0007);
    // Reject: with scheduling quiesced, exactly `capacity` jobs fit.
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_queue_capacity(8)
            .with_policy(BackpressurePolicy::Reject),
    );
    svc.pause();
    let mut admitted = 0;
    let mut rejected = 0;
    for _ in 0..20 {
        let data = text_payload(&mut rng, 600);
        match svc.submit(JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data)) {
            Ok(_) => admitted += 1,
            Err(ServiceError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!((admitted, rejected), (8, 12));
    assert_eq!(svc.queue_len(), 8);
    svc.resume();
    let (jobs, stats) = svc.shutdown();
    assert_eq!(jobs.len(), 8);
    assert_eq!(stats.rejected, 12);

    // Shed: higher-priority late arrivals evict queued low-priority work.
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_queue_capacity(4)
            .with_policy(BackpressurePolicy::Shed),
    );
    svc.pause();
    for _ in 0..4 {
        let data = text_payload(&mut rng, 600);
        svc.submit(JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data).with_priority(1))
            .unwrap();
    }
    for _ in 0..4 {
        let data = text_payload(&mut rng, 600);
        svc.submit(
            JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data)
                .with_priority(9)
                .with_tenant(7),
        )
        .unwrap();
    }
    // A final low-priority submission is itself shed.
    let data = text_payload(&mut rng, 600);
    assert!(matches!(
        svc.submit(JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data).with_priority(0)),
        Err(ServiceError::Shed)
    ));
    // Victims and the refused submission count alike, everywhere.
    let snap = svc.snapshot();
    assert_eq!(snap.shed, 5, "the live snapshot counts evicted victims too");
    assert_eq!(snap.tenants.iter().map(|t| t.shed).sum::<u64>(), 5);
    svc.resume();
    let (jobs, stats) = svc.shutdown();
    assert_eq!(stats.shed, 5, "4 evicted victims + 1 shed at submission");
    assert_eq!(stats.completed, 4);
    // Only the high-priority submissions (tenant 7) survived.
    for job in jobs.iter().filter(|j| j.result.is_ok()) {
        assert_eq!(job.tenant, 7);
    }
}

#[test]
fn failed_decodes_are_reported_not_lost() {
    let svc = PedalService::start(ServiceConfig::new(Platform::BlueField2));
    // Valid header (SOC_DEFLATE algo id) over a garbage body.
    let mut payload = vec![0xFF, 0x01, 0xFF];
    payload.push(32); // varint original_len = 32
    payload.extend_from_slice(&[0xAB; 16]);
    let id = svc.submit(JobDesc::decompress(Design::SOC_DEFLATE, payload, 32)).unwrap();
    let (jobs, stats) = svc.shutdown();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].id, id);
    assert!(matches!(jobs[0].result, Err(ServiceError::Pedal(_))));
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 0);
}

// ---------------------------------------------------------------------
// Chunk-parallel fan-out
// ---------------------------------------------------------------------

/// The fanned-out payload must be one valid stream whose bytes depend
/// only on the data and the chunk size — byte-identical at every channel
/// count, and equal to the stitched per-chunk DEFLATE fragments.
#[test]
fn fan_out_output_is_deterministic_across_channel_counts() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0010);
    let data = text_payload(&mut rng, 2 * 1024 * 1024);
    let chunk = 256 * 1024;
    let run = |channels: usize| {
        let svc = PedalService::start(
            ServiceConfig::new(Platform::BlueField2)
                .with_ce_channels(channels)
                .with_parallel(1024 * 1024, chunk),
        );
        svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())).unwrap();
        let done = svc.drain();
        done[0].result.as_ref().unwrap().bytes.clone()
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "1 vs 2 channels must produce identical bytes");
    assert_eq!(one, eight, "1 vs 8 channels must produce identical bytes");

    // The stitched body is exactly the per-chunk sync-flush fragments of
    // the same chunk size, concatenated in order.
    let (header, original_len, body) = pedal::wire::unframe(&one).unwrap();
    assert!(matches!(header, pedal::PedalHeader::Compressed(_)));
    assert_eq!(original_len, data.len());
    let n = data.len().div_ceil(chunk);
    let frags: Vec<Vec<u8>> = data
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| {
            pedal_deflate::compress_fragment(c, pedal_deflate::Level::DEFAULT, i + 1 == n)
        })
        .collect();
    assert_eq!(body, pedal_deflate::stitch_fragments(&frags).unwrap());

    // And it decodes back through the service.
    let svc = PedalService::start(ServiceConfig::new(Platform::BlueField2));
    svc.submit(JobDesc::decompress(Design::CE_DEFLATE, one, data.len())).unwrap();
    let done = svc.drain();
    assert_eq!(done[0].result.as_ref().unwrap().bytes, data);
}

/// Spreading one large job's fragments across four channels must finish
/// well before serializing the same fragments on one channel.
#[test]
fn fan_out_beats_single_channel_in_virtual_time() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0011);
    let data = text_payload(&mut rng, 1024 * 1024);
    let run = |channels: usize| {
        let svc = PedalService::start(
            ServiceConfig::new(Platform::BlueField2)
                .with_ce_channels(channels)
                .with_parallel(512 * 1024, 128 * 1024),
        );
        svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())).unwrap();
        let done = svc.drain();
        let m = done[0].metrics.unwrap();
        let (_, stats) = svc.shutdown();
        assert_eq!(stats.completed, 1);
        (m, stats)
    };
    let (serial, _) = run(1);
    let (fanned, stats4) = run(4);
    assert_eq!(serial.bytes_out, fanned.bytes_out, "bytes must not depend on channels");
    let speedup = serial.service.as_secs_f64() / fanned.service.as_secs_f64();
    assert!(speedup >= 2.0, "4-channel fan-out should give >= 2x, got {speedup:.2}x");
    // Every channel must actually have carried fragments.
    assert!(stats4.channel_lanes.iter().all(|l| l.bytes_in > 0));
    // Fragment bytes are charged where they ran: lane input bytes sum to
    // the whole payload exactly once.
    let lane_bytes: u64 = stats4.channel_lanes.iter().map(|l| l.bytes_in).sum();
    assert_eq!(lane_bytes, data.len() as u64);
}

/// Below the fan-out threshold (or within one chunk) the service output
/// must stay byte-identical to the synchronous context.
#[test]
fn sub_threshold_jobs_keep_byte_identity_with_context() {
    let mut rng = Pcg32::seed_from_u64(0x5E1C_0012);
    let small = text_payload(&mut rng, 100 * 1024);
    let ctx =
        PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE)).unwrap();
    let reference = ctx.compress(Datatype::Byte, &small).unwrap();
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_ce_channels(4)
            .with_parallel(512 * 1024, 128 * 1024),
    );
    svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, small.clone())).unwrap();
    let done = svc.drain();
    assert_eq!(done[0].result.as_ref().unwrap().bytes, reference.payload);
}

/// The same fanned-out load twice: identical completions, metrics, and
/// per-lane stats — real threads, virtual determinism.
#[test]
fn fan_out_load_is_reproducible_run_to_run() {
    let run = || {
        let mut rng = Pcg32::seed_from_u64(0x5E1C_0013);
        let svc = PedalService::start(
            ServiceConfig::new(Platform::BlueField3)
                .with_ce_channels(3)
                .with_soc_workers(2)
                .with_parallel(256 * 1024, 64 * 1024),
        );
        let mut arrival = SimInstant::EPOCH;
        for i in 0..10 {
            let len = if i % 3 == 0 { 512 * 1024 } else { 8 * 1024 };
            let data = text_payload(&mut rng, len);
            arrival = arrival + SimDuration::from_micros(50);
            svc.submit(
                JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data).with_arrival(arrival),
            )
            .unwrap();
        }
        svc.drain();
        let (jobs, stats) = svc.shutdown();
        let metrics: Vec<JobMetrics> = jobs.iter().map(|j| j.metrics.unwrap()).collect();
        let outputs: Vec<Vec<u8>> =
            jobs.iter().map(|j| j.result.as_ref().unwrap().bytes.clone()).collect();
        (metrics, outputs, stats)
    };
    let (m1, o1, s1) = run();
    let (m2, o2, s2) = run();
    assert_eq!(o1, o2);
    for (a, b) in m1.iter().zip(m2.iter()) {
        assert_eq!(a.started, b.started);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.lane, b.lane);
        assert_eq!(a.bytes_out, b.bytes_out);
    }
    assert_eq!(s1.makespan, s2.makespan);
    assert_eq!(s1.completed, s2.completed);
}
