//! Observability smoke check: run a small traced workload through the
//! service, export both trace formats into `results/`, and structurally
//! validate every export surface — the Chrome trace (balanced,
//! name-matched B/E pairs per thread; all pipeline stages present), the
//! Prometheus exposition (parses, counter families stay monotone across
//! snapshots), and the versioned metrics JSONL (schema header first).
//! Fails on any violation.

use crate::{outln, Artifacts};
use pedal::{Datatype, Design};
use pedal_dpu::{Pcg32, Platform, SimDuration};
use pedal_obs::{
    chrome_trace_json, counters_monotone, validate_chrome_trace, validate_exposition, SpanKind,
    METRICS_SCHEMA,
};
use pedal_service::{JobDesc, PedalService, ServiceConfig};

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_soc_workers(1)
            .with_ce_channels(2)
            .with_batching(4 * 1024, 4, SimDuration::from_millis(2))
            .with_tracing(),
    );

    let mut rng = Pcg32::seed_from_u64(0x0B5_0B5);
    let mut text = vec![0u8; 16_000];
    rng.fill_bytes(&mut text);
    for b in text.iter_mut().skip(1).step_by(2) {
        *b = b'x';
    }
    let floats: Vec<u8> =
        (0..4_000).flat_map(|i| ((i as f32 * 0.02).cos() * 100.0).to_le_bytes()).collect();

    // Submit the whole first pass while scheduling is paused, so the
    // queue-depth high-water mark is the pass size, not a race with the
    // workers.
    svc.pause();
    for _ in 0..3 {
        svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, text[..2_000].to_vec()))
            .expect("submit");
    }
    for design in [Design::CE_DEFLATE, Design::SOC_ZLIB] {
        svc.submit(JobDesc::compress(design, Datatype::Byte, text.clone())).expect("submit");
    }
    for design in [Design::SOC_SZ3, Design::CE_SZ3] {
        svc.submit(JobDesc::compress(design, Datatype::Float32, floats.clone())).expect("submit");
    }
    svc.resume();
    let done = svc.drain();

    // Prometheus exposition after the compress pass: must parse, and
    // its counters must only grow across later snapshots.
    let prom_mid = validate_exposition(&svc.prometheus())
        .map_err(|e| format!("mid-run Prometheus exposition invalid: {e}"))?;

    for job in &done {
        let out = job.result.as_ref().expect("smoke job failed");
        let expected = job.metrics.expect("metrics").bytes_in;
        svc.submit(JobDesc::decompress(job.design, out.bytes.clone(), expected)).expect("submit");
    }
    svc.drain();

    // Live snapshot must be readable without shutdown.
    let snap = svc.snapshot();
    assert!(snap.completed >= done.len() as u64, "snapshot missed completions");
    assert!(snap.latency.p50.is_some(), "live percentiles must have samples");

    // Second exposition after the decompress pass: parse again and
    // check counter monotonicity against the mid-run scrape.
    let prom_text = svc.prometheus();
    out.file("results/prometheus_smoke.prom", prom_text.clone());
    let prom_end = validate_exposition(&prom_text)
        .map_err(|e| format!("final Prometheus exposition invalid: {e}"))?;
    counters_monotone(&prom_mid, &prom_end)?;

    let metrics = svc.metrics_snapshot();
    let (_, stats, trace) = svc.shutdown_with_trace();
    assert_eq!(stats.failed, 0, "smoke workload must not fail jobs");
    assert_eq!(trace.dropped, 0, "smoke workload must fit its rings");

    let chrome = chrome_trace_json(&trace);
    out.file("results/trace_smoke.json", chrome.clone());
    let jsonl = metrics.to_jsonl_versioned();
    out.file("results/metrics_smoke.jsonl", jsonl.clone());
    let header = jsonl.lines().next().unwrap_or_default();
    if !header.contains(METRICS_SCHEMA) {
        return Err(format!("JSONL header lacks schema tag {METRICS_SCHEMA}: {header}"));
    }

    // Structural gate: parses, every B has a name-matched E, stages all
    // present.
    let check = validate_chrome_trace(&chrome).map_err(|e| format!("invalid Chrome trace: {e}"))?;
    for kind in [
        SpanKind::QueueWait,
        SpanKind::Batch,
        SpanKind::EngineExecute,
        SpanKind::Sz3Predict,
        SpanKind::Sz3Quantize,
        SpanKind::Sz3Huffman,
        SpanKind::Sz3Backend,
    ] {
        if !check.names.iter().any(|n| n == kind.name()) {
            return Err(format!("no '{}' spans in the trace", kind.name()));
        }
    }
    for series in ["service.latency_ns", "service.jobs_completed", "service.bytes_out"] {
        if !jsonl.lines().any(|l| l.contains(series)) {
            return Err(format!("metrics JSONL missing series '{series}'"));
        }
    }
    outln!(
        out,
        "obs smoke OK: {} balanced spans, {} stage names -> results/trace_smoke.json ; \
         {} metric lines -> results/metrics_smoke.jsonl ;\n\
         {} Prometheus samples ({} counters monotone) -> results/prometheus_smoke.prom",
        check.spans,
        check.names.len(),
        jsonl.lines().count(),
        prom_end.samples,
        prom_end.counters.len(),
    );
    Ok(())
}
