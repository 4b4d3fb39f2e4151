//! Adaptive-policy integration: per-message codec/placement choice,
//! store-raw wire round-trips, replay determinism, and policy-driven
//! chunking — all through the public service API.

use pedal::{wire, Datatype, Design, PedalConfig, PedalContext, PedalHeader};
use pedal_datasets::DatasetId;
use pedal_dpu::{Platform, SimInstant};
use pedal_obs::SpanKind;
use pedal_service::{JobDesc, PedalService, PolicyConfig, ServiceConfig};

fn adaptive_config(platform: Platform) -> ServiceConfig {
    ServiceConfig::new(platform)
        .with_soc_workers(2)
        .with_ce_channels(2)
        .with_adaptive_policy(PolicyConfig::default())
}

/// Each mixed class lands on the codec the policy's decision table says
/// it should, and the rewritten outputs stay byte-identical to the
/// synchronous context running the chosen design.
#[test]
fn policy_routes_each_mixed_class_to_its_codec() {
    let platform = Platform::BlueField2;
    let svc = PedalService::start(adaptive_config(platform).with_tracing());
    let logs = DatasetId::LogText.generate_bytes(32 << 10);
    let blob = DatasetId::RandomBlob.generate_bytes(32 << 10);
    let cols = DatasetId::FloatColumn.generate_bytes(32 << 10);
    let tiny = DatasetId::LogText.generate_bytes(256);
    svc.pause();
    for (i, data) in [&logs, &blob, &cols, &tiny].into_iter().enumerate() {
        let desc = JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data.clone())
            .with_arrival(SimInstant(i as u64 * 1_000));
        svc.submit(desc).unwrap();
    }
    svc.resume();
    let done = svc.drain();
    let log = svc.policy_log().expect("policy enabled");
    assert_eq!(log.len(), 4);
    let decisions: Vec<&str> = log.records.iter().map(|r| r.decision).collect();
    assert_eq!(decisions, ["C-Engine_DEFLATE", "store-raw", "SoC_pco", "store-raw"]);
    assert_eq!(log.records[1].reason, "incompressible");
    assert_eq!(log.records[3].reason, "tiny");

    // Job 0: offloaded DEFLATE, byte-identical to the synchronous
    // context running the design the policy picked.
    assert_eq!(done[0].design, Design::CE_DEFLATE);
    let ctx = PedalContext::init(PedalConfig::new(platform, Design::CE_DEFLATE)).unwrap();
    assert_eq!(
        done[0].result.as_ref().unwrap().bytes,
        ctx.compress(Datatype::Byte, &logs).unwrap().payload
    );

    // Job 1: stored raw — an uncompressed frame, never a codec.
    let out = done[1].result.as_ref().unwrap();
    assert!(out.passthrough);
    assert_eq!(out.bytes, wire::frame(PedalHeader::Uncompressed, blob.len(), &blob));

    // Job 2: typed pco, identical to the synchronous typed compression.
    assert_eq!(done[2].design, Design::SOC_PCO);
    let ctx = PedalContext::init(PedalConfig::new(platform, Design::SOC_PCO)).unwrap();
    assert_eq!(
        done[2].result.as_ref().unwrap().bytes,
        ctx.compress(Datatype::Float32, &cols).unwrap().payload
    );
    assert!(done[2].result.as_ref().unwrap().bytes.len() < cols.len() / 2);

    // The scheduler journaled one PolicyDecision marker per message.
    let (_, _, trace) = svc.shutdown_with_trace();
    let policy_track = trace.tracks.iter().find(|t| t.name == "policy").expect("policy track");
    let n = policy_track.events.iter().filter(|e| e.span == SpanKind::PolicyDecision).count();
    assert_eq!(n, 4);
}

/// Satellite: store-raw decisions must round-trip byte-identically
/// through the wire path — the frame a policy-stored job emits is
/// decodable by a policy-free service and by the wire layer directly.
#[test]
fn store_raw_decisions_round_trip_byte_identically() {
    for platform in [Platform::BlueField2, Platform::BlueField3] {
        let blob = DatasetId::RandomBlob.generate_bytes(48 << 10);
        let svc = PedalService::start(adaptive_config(platform));
        svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, blob.clone())).unwrap();
        let done = svc.drain();
        let payload = done[0].result.as_ref().unwrap().bytes.clone();
        assert!(done[0].result.as_ref().unwrap().passthrough);
        assert_eq!(svc.policy_log().unwrap().records[0].decision, "store-raw");

        // Differential 1: the wire layer decodes it directly.
        let (direct, profile) = wire::decompress_payload(&payload, blob.len()).unwrap();
        assert_eq!(direct, blob);
        assert!(profile.passthrough);

        // Differential 2: a policy-free service decodes the same bytes.
        let plain = PedalService::start(ServiceConfig::new(platform));
        plain.submit(JobDesc::decompress(Design::SOC_DEFLATE, payload, blob.len())).unwrap();
        let back = plain.drain();
        assert_eq!(back[0].result.as_ref().unwrap().bytes, blob);
        assert!(plain.policy_log().is_none(), "no policy configured, no log");
    }
}

/// Same trace → same decisions, proven by the PolicyLog digest and the
/// output bytes of every job.
#[test]
fn policy_log_digest_is_replay_deterministic() {
    let run = || {
        let svc = PedalService::start(adaptive_config(Platform::BlueField2));
        svc.pause();
        for (i, id) in DatasetId::MIXED.iter().cycle().take(18).enumerate() {
            let data = id.generate_bytes((1 + i % 4) * (8 << 10));
            let desc = JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data)
                .with_arrival(SimInstant(i as u64 * 5_000));
            svc.submit(desc).unwrap();
        }
        svc.resume();
        let bytes: Vec<Vec<u8>> =
            svc.drain().iter().map(|j| j.result.as_ref().unwrap().bytes.clone()).collect();
        let log = svc.policy_log().unwrap();
        (bytes, log.to_json_string(), log.digest())
    };
    let (bytes_a, json_a, digest_a) = run();
    let (bytes_b, json_b, digest_b) = run();
    assert_eq!(json_a, json_b, "replay produced different decisions");
    assert_eq!(digest_a, digest_b);
    assert_eq!(bytes_a, bytes_b, "replay produced different output bytes");
}

/// The policy narrows itself to lossless byte-stream compressions:
/// typed submissions and decompress jobs pass through untouched.
#[test]
fn typed_and_decompress_jobs_bypass_the_policy() {
    let cols = DatasetId::FloatColumn.generate_bytes(16 << 10);
    let svc = PedalService::start(adaptive_config(Platform::BlueField2));
    // Caller explicitly asked for typed pco: design and log untouched.
    svc.submit(JobDesc::compress(Design::SOC_PCO, Datatype::Float32, cols.clone())).unwrap();
    // A decompress job follows its payload header, never the policy.
    let ctx =
        PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::SOC_DEFLATE)).unwrap();
    let text = DatasetId::LogText.generate_bytes(16 << 10);
    let payload = ctx.compress(Datatype::Byte, &text).unwrap().payload;
    svc.submit(JobDesc::decompress(Design::SOC_DEFLATE, payload, text.len())).unwrap();
    let done = svc.drain();
    assert_eq!(done[0].design, Design::SOC_PCO);
    assert_eq!(done[1].result.as_ref().unwrap().bytes, text);
    assert!(svc.policy_log().unwrap().is_empty(), "bypassed jobs must not log decisions");
}

/// A policy-chosen streaming chunk fans a large offloaded message out
/// across channels even when the static `with_parallel` knob is off —
/// and the stitched stream still decodes to the original bytes.
#[test]
fn policy_chunks_large_messages_without_static_parallel_config() {
    let data = DatasetId::LogText.generate_bytes(3 << 20);
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_ce_channels(4)
            .with_adaptive_policy(PolicyConfig::default())
            .with_tracing(),
    );
    svc.submit(JobDesc::compress(Design::SOC_DEFLATE, Datatype::Byte, data.clone())).unwrap();
    let done = svc.drain();
    let log = svc.policy_log().unwrap();
    assert_eq!(log.records[0].decision, "C-Engine_DEFLATE");
    assert_eq!(log.records[0].chunk, 1 << 20);
    let payload = &done[0].result.as_ref().unwrap().bytes;
    let (back, _) = wire::decompress_payload(payload, data.len()).unwrap();
    assert_eq!(back, data, "stitched policy-chunked stream must round-trip");
    let (_, _, trace) = svc.shutdown_with_trace();
    let chunks: usize = trace
        .tracks
        .iter()
        .map(|t| t.events.iter().filter(|e| e.span == SpanKind::Chunk).count())
        .sum();
    assert_eq!(chunks, 3, "3 MiB at a 1 MiB policy chunk is three fragments");
}
