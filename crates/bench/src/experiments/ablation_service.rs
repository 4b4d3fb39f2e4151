//! Ablation A7: the pedal-service offload engine. Sweeps offered load
//! against p50/p99 virtual latency and throughput for 1/2/4 C-Engine
//! channels, compares against the synchronous single-context baseline,
//! and contrasts the three backpressure policies plus small-message
//! batching. All timing is virtual (CostModel-charged), so every number
//! here is deterministic.
//!
//! Besides the tables, this experiment writes machine-readable results to
//! `BENCH_ablation_service.json` at the repo root, the live plane's
//! `results/prometheus_service.prom` and — from a traced profile run —
//! `results/trace_service.json` (Chrome `chrome://tracing` / Perfetto
//! format) plus `results/metrics_service.jsonl`.

use crate::{banner, dataset, fmt_us_opt, json_ns_opt, outln, Artifacts, BenchReport, Table};
use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_datasets::DatasetId;
use pedal_dpu::{Platform, SimDuration, SimInstant};
use pedal_obs::{chrome_trace_json, validate_chrome_trace, Json, ToJson};
use pedal_service::{
    BackpressurePolicy, JobDesc, PedalService, ServiceConfig, ServiceError, ServiceStats,
};

const MSG: usize = 64 * 1024;
const JOBS: usize = 48;

fn messages(corpus: &[u8], count: usize, len: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| corpus.iter().cycle().skip(i * len / 3).take(len).copied().collect())
        .collect()
}

/// CE-DEFLATE compress jobs over `msgs`, each arriving `gap` after the
/// previous one (all at the epoch when `gap` is zero).
fn jobs(msgs: &[Vec<u8>], gap: SimDuration) -> impl Iterator<Item = JobDesc> + '_ {
    msgs.iter().enumerate().map(move |(i, m)| {
        JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, m.clone())
            .with_arrival(SimInstant::EPOCH + SimDuration(gap.0 * (i as u64 + 1)))
    })
}

/// Run `jobs` through a fresh service and return its final statistics.
fn serve(cfg: ServiceConfig, jobs: impl Iterator<Item = JobDesc>) -> ServiceStats {
    let svc = PedalService::start(cfg);
    for job in jobs {
        svc.submit(job).expect("submit");
    }
    svc.drain();
    svc.shutdown().1
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A7", "Offload service: channels, offered load, backpressure");
    let corpus = dataset(DatasetId::SilesiaXml);
    let msgs = messages(corpus, JOBS, MSG);
    let total_bytes: usize = msgs.iter().map(Vec::len).sum();
    let mut report = BenchReport::new("ablation_service");

    // ------------------------------------------------------------------
    // Baseline: the synchronous context compresses the same stream one
    // message at a time on one engine context.
    // ------------------------------------------------------------------
    let ctx = PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE))
        .expect("context");
    let mut base_total = SimDuration::ZERO;
    for m in &msgs {
        base_total += ctx.compress(Datatype::Byte, m).expect("compress").timing.total();
    }
    let base_tput = total_bytes as f64 / 1e6 / base_total.as_secs_f64();
    let mean_service = SimDuration(base_total.as_nanos() / JOBS as u64);

    outln!(
        out,
        "Baseline (sync context, 1 engine): {} x {} KiB in {:.3} ms -> {:.1} MB/s\n",
        JOBS,
        MSG / 1024,
        base_total.as_millis_f64(),
        base_tput
    );
    report.set(
        "baseline",
        Json::obj(vec![
            ("jobs", Json::u64(JOBS as u64)),
            ("message_bytes", Json::u64(MSG as u64)),
            ("total_ns", Json::u64(base_total.as_nanos())),
            ("throughput_mbps", Json::num(base_tput)),
        ]),
    );

    // ------------------------------------------------------------------
    // Channel scaling at saturating load (all jobs arrive at t=0).
    // ------------------------------------------------------------------
    let mut t = Table::new(vec![
        "CE channels",
        "Makespan(ms)",
        "Tput(MB/s)",
        "vs baseline",
        "Wait p50(us)",
        "Wait p99(us)",
    ]);
    let mut rows = Vec::new();
    for channels in [1usize, 2, 4] {
        let cfg =
            ServiceConfig::new(Platform::BlueField2).with_soc_workers(1).with_ce_channels(channels);
        let stats = serve(cfg, jobs(&msgs, SimDuration::ZERO));
        t.row(vec![
            channels.to_string(),
            format!("{:.3}", stats.makespan.as_millis_f64()),
            format!("{:.1}", stats.throughput_mbps()),
            format!("{:.2}x", stats.throughput_mbps() / base_tput),
            fmt_us_opt(stats.queue_wait_p50),
            fmt_us_opt(stats.queue_wait_p99),
        ]);
        rows.push(Json::obj(vec![
            ("channels", Json::u64(channels as u64)),
            ("speedup_vs_baseline", Json::num(stats.throughput_mbps() / base_tput)),
            ("stats", stats.to_json()),
        ]));
    }
    t.print(out);
    report.set("channel_scaling", Json::Arr(rows));
    out.line(
        "\nEach channel is an independent DOCA work queue over its own engine\n\
         FIFO; at saturating load the scheduler keeps all of them busy, so\n\
         virtual throughput scales near-linearly until the admission path\n\
         (pool acquire + framing) matters.\n"
    );

    // ------------------------------------------------------------------
    // Offered load sweep on 4 channels: inter-arrival gap swept around
    // the single-channel service rate.
    // ------------------------------------------------------------------
    let mut t = Table::new(vec![
        "Offered load",
        "Gap(us)",
        "Wait p50(us)",
        "Wait p99(us)",
        "Latency p50(us)",
        "Latency p99(us)",
        "Tput(MB/s)",
    ]);
    let mut rows = Vec::new();
    for rho in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
        let gap = SimDuration((mean_service.as_nanos() as f64 / rho) as u64);
        let cfg = ServiceConfig::new(Platform::BlueField2).with_soc_workers(1).with_ce_channels(4);
        let stats = serve(cfg, jobs(&msgs, gap));
        t.row(vec![
            format!("{rho:.1}x"),
            format!("{:.1}", gap.as_micros_f64()),
            fmt_us_opt(stats.queue_wait_p50),
            fmt_us_opt(stats.queue_wait_p99),
            fmt_us_opt(stats.latency_p50),
            fmt_us_opt(stats.latency_p99),
            format!("{:.1}", stats.throughput_mbps()),
        ]);
        rows.push(Json::obj(vec![
            ("offered_load", Json::num(rho)),
            ("gap_ns", Json::u64(gap.as_nanos())),
            ("queue_wait_p50_ns", json_ns_opt(stats.queue_wait_p50)),
            ("queue_wait_p99_ns", json_ns_opt(stats.queue_wait_p99)),
            ("latency_p50_ns", json_ns_opt(stats.latency_p50)),
            ("latency_p99_ns", json_ns_opt(stats.latency_p99)),
            ("throughput_mbps", Json::num(stats.throughput_mbps())),
        ]));
    }
    t.print(out);
    report.set("offered_load", Json::Arr(rows));
    out.line(
        "\nBelow 4x the offered load (4 channels), queue wait stays flat; past\n\
         it, waiting dominates latency — the classic knee the admission queue's\n\
         backpressure policies exist to handle.\n"
    );

    // ------------------------------------------------------------------
    // Backpressure policies on a deterministic overload: scheduling is
    // paused while a 3x-capacity burst (mixed priorities) is submitted.
    // The Block policy cannot be overloaded this way (the submitter
    // would park), so it is measured unpaused as the lossless reference.
    // ------------------------------------------------------------------
    let small = messages(corpus, 48, 8 * 1024);
    let mut t = Table::new(vec![
        "Policy",
        "Admitted",
        "Completed",
        "Rejected",
        "Shed",
        "Wait p50(us)",
        "Wait p99(us)",
    ]);
    let mut rows = Vec::new();
    for policy in [BackpressurePolicy::Block, BackpressurePolicy::Reject, BackpressurePolicy::Shed]
    {
        let svc = PedalService::start(
            ServiceConfig::new(Platform::BlueField2)
                .with_queue_capacity(16)
                .with_policy(policy)
                .with_ce_channels(2),
        );
        if policy != BackpressurePolicy::Block {
            svc.pause();
        }
        let mut admitted = 0u64;
        for (i, m) in small.iter().enumerate() {
            let job = JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, m.clone())
                .with_priority((i % 4) as u8)
                .with_tenant((i % 3) as u32);
            match svc.submit(job) {
                Ok(_) => admitted += 1,
                Err(ServiceError::Overloaded) | Err(ServiceError::Shed) => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        svc.resume();
        svc.drain();
        let (_, stats) = svc.shutdown();
        t.row(vec![
            format!("{policy:?}"),
            admitted.to_string(),
            stats.completed.to_string(),
            stats.rejected.to_string(),
            stats.shed.to_string(),
            fmt_us_opt(stats.queue_wait_p50),
            fmt_us_opt(stats.queue_wait_p99),
        ]);
        rows.push(Json::obj(vec![
            ("policy", Json::str(format!("{policy:?}"))),
            ("admitted", Json::u64(admitted)),
            ("stats", stats.to_json()),
        ]));
    }
    t.print(out);
    report.set("backpressure", Json::Arr(rows));
    out.line(
        "\nBlock never loses work but exposes the submitter to the full queue\n\
         delay; Reject caps latency by refusing excess; Shed keeps the queue\n\
         full of the highest-priority work (victims count as Shed).\n"
    );

    // ------------------------------------------------------------------
    // Live metrics under overload: a calm phase, then a synchronized
    // burst far enough in virtual time that the rolling window has
    // forgotten the calm phase entirely. The lifetime percentiles
    // average the two regimes together; the rolling snapshot shows the
    // burst as it is *now* — and the per-tenant SLO table shows who is
    // actually missing their target during it.
    // ------------------------------------------------------------------
    let slot = SimDuration::from_millis(50);
    let slots = 8usize;
    let span = SimDuration(slot.0 * slots as u64);
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_ce_channels(2)
            .with_live_window(slot, slots)
            .with_slo_target(SimDuration::from_millis(5)),
    );
    // Tenant 1 has an impossible target (1 virtual ns); tenant 2 a
    // generous one. Attainment must read ~0% and 100% respectively.
    svc.set_slo_target(1, SimDuration(1));
    svc.set_slo_target(2, SimDuration::from_millis(500));
    let sub = svc.subscribe_metrics(8);

    // Calm phase: paced singles (tenant 0) with generous gaps, so no
    // job ever queues — lifetime latency starts out low.
    let calm = messages(corpus, 24, 8 * 1024);
    for job in jobs(&calm, SimDuration::from_millis(5)) {
        svc.submit(job).expect("submit");
    }
    let calm_done = svc.drain();
    let calm_end =
        calm_done.iter().filter_map(|j| j.metrics.map(|m| m.completed)).max().expect("calm jobs");

    // Burst phase: everything arrives at once, one window-span later,
    // so every calm sample has expired by the time the burst lands. It
    // is submitted while scheduling is paused, so the queue-depth
    // high-water mark is the burst size, not a race with the workers.
    let burst_at = calm_end + span;
    let burst = messages(corpus, 24, 8 * 1024);
    svc.pause();
    for (i, m) in burst.iter().enumerate() {
        svc.submit(
            JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, m.clone())
                .with_arrival(burst_at)
                .with_tenant(1 + (i % 2) as u32),
        )
        .expect("submit");
    }
    svc.resume();
    svc.drain();

    let snap = svc.snapshot();
    let rolling = &snap.rolling;
    assert_eq!(
        rolling.latency.count,
        burst.len() as u64,
        "rolling window must hold exactly the burst (calm phase expired)"
    );
    let frames = sub.poll();

    let ns_opt = |v: Option<u64>| json_ns_opt(v.map(SimDuration));
    let us_opt = |v: Option<u64>| fmt_us_opt(v.map(SimDuration));
    let mut t = Table::new(vec!["View", "Jobs", "Latency p50(us)", "Latency p99(us)"]);
    for (view, lat) in [
        ("lifetime".to_string(), &snap.latency),
        (format!("rolling {}ms", span.as_millis_f64()), &rolling.latency),
    ] {
        t.row(vec![view, lat.count.to_string(), us_opt(lat.p50), us_opt(lat.p99)]);
    }
    t.print(out);

    let mut t = Table::new(vec!["Tenant", "Target(us)", "Recent jobs", "Attainment"]);
    let mut tenant_rows = Vec::new();
    for ten in &snap.tenants {
        t.row(vec![
            ten.tenant.to_string(),
            format!("{:.1}", ten.target.as_micros_f64()),
            ten.recent_total.to_string(),
            match ten.attainment {
                Some(a) => format!("{:.0}%", a * 100.0),
                None => "-".to_string(),
            },
        ]);
        tenant_rows.push(Json::obj(vec![
            ("tenant", Json::u64(ten.tenant as u64)),
            ("target_ns", Json::u64(ten.target.as_nanos())),
            ("recent_total", Json::u64(ten.recent_total)),
            ("attainment", ten.attainment.map(Json::num).unwrap_or(Json::Null)),
        ]));
    }
    t.print(out);

    // The Prometheus exposition of the same snapshot must parse.
    let prom = svc.prometheus();
    let prom_check = pedal_obs::validate_exposition(&prom).expect("valid exposition");
    out.file("results/prometheus_service.prom", prom);
    let (_, live_stats) = svc.shutdown();

    report.set(
        "live_overload",
        Json::obj(vec![
            ("calm_jobs", Json::u64(calm.len() as u64)),
            ("burst_jobs", Json::u64(burst.len() as u64)),
            ("window_ns", Json::u64(span.as_nanos())),
            ("lifetime_count", Json::u64(snap.latency.count)),
            ("lifetime_p50_ns", ns_opt(snap.latency.p50)),
            ("lifetime_p99_ns", ns_opt(snap.latency.p99)),
            ("rolling_count", Json::u64(rolling.latency.count)),
            ("rolling_p50_ns", ns_opt(rolling.latency.p50)),
            ("rolling_p99_ns", ns_opt(rolling.latency.p99)),
            ("bus_frames", Json::u64(frames.len() as u64)),
            ("bus_dropped", Json::u64(sub.dropped())),
            ("prom_samples", Json::u64(prom_check.samples as u64)),
            ("tenants", Json::Arr(tenant_rows)),
        ]),
    );
    outln!(
        out,
        "\nLifetime percentiles blend the calm phase into the burst; the rolling\n\
         window (last {:.0} ms of virtual time) reports only what is happening\n\
         now — {} jobs completed: {}. Tenant 1 (1 ns target) reads 0%\n\
         attainment, tenant 2 (500 ms) reads 100%; the lifetime stats cannot\n\
         distinguish them. Prometheus exposition ({} samples, {} families)\n\
         -> results/prometheus_service.prom",
        span.as_millis_f64(),
        live_stats.completed,
        rolling.latency.count,
        prom_check.samples,
        prom_check.families.len(),
    );

    // ------------------------------------------------------------------
    // Small-message batching: sub-threshold C-Engine compress jobs
    // coalesce into one engine submission, paying the fixed per-job
    // submission overhead (60 us on BF2, Table III) once per batch.
    // ------------------------------------------------------------------
    let tiny = messages(corpus, 64, 2 * 1024);
    let mut t = Table::new(vec!["Batching", "Batches", "Makespan(ms)", "Tput(MB/s)", "Speedup"]);
    let mut rows = Vec::new();
    let mut base_ms = 0.0f64;
    for batching in [false, true] {
        let mut cfg = ServiceConfig::new(Platform::BlueField2).with_ce_channels(1);
        if batching {
            cfg = cfg.with_batching(4 * 1024, 8, SimDuration::from_millis(5));
        }
        let stats = serve(cfg, jobs(&tiny, SimDuration::ZERO));
        let ms = stats.makespan.as_millis_f64();
        if !batching {
            base_ms = ms;
        }
        t.row(vec![
            if batching { "on (8 jobs/batch)" } else { "off" }.to_string(),
            stats.channel_lanes.iter().map(|l| l.batches).sum::<u64>().to_string(),
            format!("{ms:.3}"),
            format!("{:.1}", stats.throughput_mbps()),
            format!("{:.2}x", base_ms / ms),
        ]);
        rows.push(Json::obj(vec![
            ("batching", Json::Bool(batching)),
            ("speedup", Json::num(base_ms / ms)),
            ("stats", stats.to_json()),
        ]));
    }
    t.print(out);
    report.set("batching", Json::Arr(rows));
    out.line(
        "\nAt 2 KiB per message the 60 us per-job engine overhead dwarfs the\n\
         transfer itself; coalescing is the difference between the engine\n\
         being overhead-bound and bandwidth-bound.\n"
    );

    // ------------------------------------------------------------------
    // Traced profile: one mixed run with the event journal on. Exports
    // the Chrome trace + metrics JSONL and prints the per-stage
    // breakdown the journal makes possible.
    // ------------------------------------------------------------------
    let floats: Vec<u8> = {
        let n = 16 * 1024;
        (0..n).flat_map(|i| ((i as f32 * 0.01).sin() * 500.0).to_le_bytes()).collect()
    };
    let svc = PedalService::start(
        ServiceConfig::new(Platform::BlueField2)
            .with_soc_workers(1)
            .with_ce_channels(2)
            .with_batching(4 * 1024, 8, SimDuration::from_millis(5))
            .with_tracing(),
    );
    let sz3 = [Design::SOC_SZ3, Design::CE_SZ3]
        .map(|design| JobDesc::compress(design, Datatype::Float32, floats.clone()));
    for job in jobs(&tiny[..16], SimDuration::ZERO).chain(jobs(&msgs[..8], SimDuration::ZERO)) {
        svc.submit(job).expect("submit");
    }
    for job in sz3 {
        svc.submit(job).expect("submit");
    }
    svc.drain();
    let metrics = svc.metrics_snapshot();
    let (_, stats, trace) = svc.shutdown_with_trace();

    let mut t = Table::new(vec!["Stage", "Spans", "Total(us)", "Share"]);
    let breakdown = trace.stage_breakdown();
    let wall: u64 = breakdown
        .iter()
        .filter(|(k, _, _)| !matches!(k, pedal_obs::SpanKind::Job | pedal_obs::SpanKind::Batch))
        .map(|(_, _, ns)| ns)
        .sum();
    let mut rows = Vec::new();
    for (kind, count, ns) in &breakdown {
        t.row(vec![
            kind.name().to_string(),
            count.to_string(),
            format!("{:.1}", *ns as f64 / 1e3),
            format!("{:.1}%", *ns as f64 / wall.max(1) as f64 * 100.0),
        ]);
        rows.push(Json::obj(vec![
            ("stage", Json::str(kind.name())),
            ("spans", Json::u64(*count)),
            ("total_ns", Json::u64(*ns)),
        ]));
    }
    t.print(out);
    report.set("traced_profile", Json::Arr(rows));
    report.set("traced_stats", stats.to_json());

    let chrome = chrome_trace_json(&trace);
    let check = validate_chrome_trace(&chrome).expect("exported trace must validate");
    out.file("results/trace_service.json", chrome);
    out.file("results/metrics_service.jsonl", metrics.to_jsonl());
    outln!(
        out,
        "\nTraced profile: {} spans across {} stage names, {} events dropped.\n\
         Chrome trace -> results/trace_service.json  (load in chrome://tracing or ui.perfetto.dev)\n\
         Metrics JSONL -> results/metrics_service.jsonl",
        check.spans,
        check.names.len(),
        trace.dropped,
    );
    report.write(out);
    Ok(())
}
