//! Determinism regression tests for `ServiceSnapshot.rolling` /
//! `.tenants` serialization.
//!
//! The verify artifact gate and the fleet tier's replay digests both diff
//! snapshot-derived JSON byte-for-byte, so the rolling/tenant sections
//! must keep (a) a pinned key order and formatting, and (b) run-to-run
//! identical *values* on an unchanged deterministic workload. (a) is
//! pinned against hand-built structs; (b) by running the same paced
//! workload twice and comparing the serialized snapshots.

use pedal::{Datatype, Design};
use pedal_dpu::{Platform, SimDuration, SimInstant};
use pedal_obs::{HistSummary, ToJson};
use pedal_service::{BackpressurePolicy, JobDesc, PedalService, RollingStats, ServiceConfig};

fn render(j: &pedal_obs::Json) -> String {
    let mut out = String::new();
    j.write(&mut out);
    out
}

fn hist(count: u64, v: u64) -> HistSummary {
    HistSummary {
        count,
        sum: count * v,
        min: Some(v),
        max: Some(v),
        mean: Some(v as f64),
        p50: Some(v),
        p90: Some(v),
        p99: Some(v),
    }
}

/// The rolling section's key order and formatting, pinned byte-exact.
#[test]
fn rolling_stats_json_is_pinned() {
    let r = RollingStats {
        window: SimDuration::from_millis(80),
        queue_wait: hist(2, 100),
        service: hist(2, 400),
        latency: hist(2, 500),
        completed_recent: 2,
        bytes_in_recent: 8192,
        completed_per_sec: 25.0,
        mbps_in: 0.1024,
        queue_depth_high: 3,
        in_flight_high: 5,
    };
    assert_eq!(
        render(&r.to_json()),
        concat!(
            r#"{"window_ns":80000000,"#,
            r#""queue_wait":{"count":2,"sum":200,"min":100,"max":100,"mean":100,"p50":100,"p90":100,"p99":100},"#,
            r#""service":{"count":2,"sum":800,"min":400,"max":400,"mean":400,"p50":400,"p90":400,"p99":400},"#,
            r#""latency":{"count":2,"sum":1000,"min":500,"max":500,"mean":500,"p50":500,"p90":500,"p99":500},"#,
            r#""completed_recent":2,"bytes_in_recent":8192,"completed_per_sec":25,"#,
            r#""mbps_in":0.1024,"queue_depth_high":3,"in_flight_high":5}"#,
        ),
        "RollingStats serialization drifted — committed BENCH baselines embed this format"
    );
}

/// Run one deterministic paced workload and serialize the snapshot's
/// rolling + tenants sections.
fn run_once() -> (String, String) {
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_policy(BackpressurePolicy::Block)
            .with_queue_capacity(512)
            .with_soc_workers(2)
            .with_ce_channels(2)
            .with_live_window(SimDuration::from_millis(1), 8),
    );
    svc.set_slo_target(1, SimDuration::from_micros(800));
    svc.set_slo_target(2, SimDuration::from_millis(20));
    // Pause so queue contents at scheduling time are a pure function of
    // the submission sequence (same trick the fleet tier uses).
    svc.pause();
    let data: Vec<u8> = (0..6144u32).map(|i| (i % 31) as u8).collect();
    for i in 0..40u64 {
        let arrival = SimInstant::EPOCH + SimDuration::from_micros(20 * i);
        svc.submit(
            JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.clone())
                .with_tenant(1 + (i % 2) as u32)
                .with_arrival(arrival),
        )
        .unwrap();
    }
    svc.resume();
    svc.drain();
    let snap = svc.snapshot();
    let rolling = render(&snap.rolling.to_json());
    let tenants = render(&pedal_obs::Json::Arr(snap.tenants.iter().map(|t| t.to_json()).collect()));
    let _ = svc.shutdown();
    (rolling, tenants)
}

/// Same workload, two runs: the serialized rolling window and tenant
/// table must be byte-identical — this is what keeps BENCH/JSONL diffs
/// meaningful across PRs.
#[test]
fn rolling_and_tenant_snapshots_replay_byte_identical() {
    let (rolling_a, tenants_a) = run_once();
    let (rolling_b, tenants_b) = run_once();
    assert_eq!(rolling_a, rolling_b, "rolling snapshot JSON diverged between replays");
    assert_eq!(tenants_a, tenants_b, "tenant snapshot JSON diverged between replays");
    // And they must actually contain the live data (not an empty shell).
    assert!(rolling_a.contains(r#""completed_recent":40"#), "got {rolling_a}");
    assert!(tenants_a.contains(r#""tenant":1"#) && tenants_a.contains(r#""tenant":2"#));
    // Tenant table is sorted by id — position is part of the contract.
    let t1 = tenants_a.find(r#""tenant":1"#).unwrap();
    let t2 = tenants_a.find(r#""tenant":2"#).unwrap();
    assert!(t1 < t2, "tenant table not sorted by id");
}
