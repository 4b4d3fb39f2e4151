//! Byte-golden serialization pins for the live-plane JSON types.
//!
//! BENCH reports and JSONL exports are diffed *byte-for-byte* across
//! changes (the verify artifact gate, the fleet replay digest). That
//! only works if serialization is a stable contract: fixed key order,
//! fixed number formatting, fixed null conventions. These tests pin the
//! exact output strings — if one fails, either restore the format or
//! knowingly re-baseline every committed artifact that embeds it.

use pedal_dpu::SimDuration;
use pedal_obs::{HistSummary, Json, TenantSloSnapshot, ToJson};

fn render(j: &Json) -> String {
    let mut out = String::new();
    j.write(&mut out);
    out
}

fn summary() -> HistSummary {
    HistSummary {
        count: 3,
        sum: 6_000,
        min: Some(1_000),
        max: Some(3_000),
        mean: Some(2_000.0),
        p50: Some(2_000),
        p90: Some(3_000),
        p99: Some(3_000),
    }
}

#[test]
fn hist_summary_key_order_and_formatting_are_pinned() {
    assert_eq!(
        render(&summary().to_json()),
        r#"{"count":3,"sum":6000,"min":1000,"max":3000,"mean":2000,"p50":2000,"p90":3000,"p99":3000}"#,
    );
}

#[test]
fn empty_hist_summary_uses_null_not_zero() {
    let empty = HistSummary {
        count: 0,
        sum: 0,
        min: None,
        max: None,
        mean: None,
        p50: None,
        p90: None,
        p99: None,
    };
    assert_eq!(
        render(&empty.to_json()),
        r#"{"count":0,"sum":0,"min":null,"max":null,"mean":null,"p50":null,"p90":null,"p99":null}"#,
        "absent quantiles must serialize as null, never 0 — zero is a legal measurement"
    );
}

#[test]
fn tenant_slo_snapshot_key_order_and_formatting_are_pinned() {
    let t = TenantSloSnapshot {
        tenant: 7,
        target: SimDuration::from_micros(500),
        window: SimDuration::from_millis(80),
        completed: 42,
        failed: 1,
        shed: 2,
        rejected: 3,
        recent: summary(),
        recent_total: 3,
        attainment: Some(0.5),
    };
    assert_eq!(
        render(&t.to_json()),
        concat!(
            r#"{"tenant":7,"target_ns":500000,"window_ns":80000000,"completed":42,"#,
            r#""failed":1,"shed":2,"rejected":3,"recent_total":3,"attainment":0.5,"#,
            r#""recent_latency":{"count":3,"sum":6000,"min":1000,"max":3000,"mean":2000,"#,
            r#""p50":2000,"p90":3000,"p99":3000}}"#,
        ),
    );
}

#[test]
fn tenant_snapshot_without_recent_completions_has_null_attainment() {
    let t = TenantSloSnapshot {
        tenant: 0,
        target: SimDuration::from_micros(1),
        window: SimDuration::from_micros(1),
        completed: 0,
        failed: 0,
        shed: 0,
        rejected: 0,
        recent: HistSummary {
            count: 0,
            sum: 0,
            min: None,
            max: None,
            mean: None,
            p50: None,
            p90: None,
            p99: None,
        },
        recent_total: 0,
        attainment: None,
    };
    let s = render(&t.to_json());
    assert!(s.contains(r#""attainment":null"#), "got {s}");
}

#[test]
fn float_formatting_is_shortest_round_trip_stable() {
    // The number writer must not flip between representations across
    // runs — these exact strings are embedded in committed baselines.
    for (v, expect) in
        [(0.5f64, "0.5"), (2_000.0, "2000"), (1.0, "1"), (0.3333333333333333, "0.3333333333333333")]
    {
        assert_eq!(render(&Json::Num(v)), expect);
    }
}
