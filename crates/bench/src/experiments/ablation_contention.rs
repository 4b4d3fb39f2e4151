//! Ablation A6: C-Engine contention. The engine is a single FIFO server
//! (one hardware queue in our DOCA model); when multiple communication
//! streams on one DPU compress concurrently, jobs queue. This quantifies
//! how per-stream latency degrades with concurrency — relevant to the
//! paper's suggestion that future DPUs expose more engine parallelism
//! ("expanding compression algorithms or providing programmability").
//!
//! Also writes `BENCH_ablation_contention.json` at the repo root with the
//! same numbers in machine-readable form.

use crate::{banner, dataset, fmt_ms, outln, Artifacts, BenchReport, Table};
use pedal_datasets::DatasetId;
use pedal_doca::{CompressJob, DocaContext, JobKind};
use pedal_dpu::{Platform, SimDuration, SimInstant};
use pedal_obs::{percentile, Json};

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A6", "Engine contention: concurrent streams on one DPU");
    let corpus = dataset(DatasetId::SilesiaSamba);
    let msg = &corpus[..4_000_000.min(corpus.len())];
    let mut report = BenchReport::new("ablation_contention");
    report.set("message_bytes", Json::u64(msg.len() as u64));

    let mut t = Table::new(vec![
        "Streams",
        "Mean latency(ms)",
        "P50(ms)",
        "P99-ish (last)(ms)",
        "Engine util",
        "Slowdown",
    ]);
    let ctx = DocaContext::open(Platform::BlueField2).expect("doca");
    let mut base_mean = 0.0f64;
    let mut rows = Vec::new();
    for streams in [1usize, 2, 4, 8, 16] {
        ctx.workq.reset();
        // All streams submit one compression at t=0 (synchronized burst,
        // the worst case for a FIFO engine).
        let mut completions: Vec<SimDuration> = Vec::new();
        for _ in 0..streams {
            let job = CompressJob::new(JobKind::DeflateCompress, msg);
            let (_, done) = ctx.submit(job, SimInstant::EPOCH).expect("submit");
            completions.push(SimDuration(done.0));
        }
        completions.sort();
        let mean = completions.iter().map(|d| d.as_millis_f64()).sum::<f64>() / streams as f64;
        let p50 = percentile(&completions, 0.50).expect("streams >= 1");
        let p99 = percentile(&completions, 0.99).expect("streams >= 1");
        let makespan = *completions.last().expect("streams >= 1");
        let last = makespan.as_millis_f64();
        let busy = ctx.workq.busy_until().0 as f64;
        let util = busy / (last * 1e6);
        if streams == 1 {
            base_mean = mean;
        }
        t.row(vec![
            streams.to_string(),
            format!("{mean:.3}"),
            fmt_ms(p50),
            fmt_ms(makespan),
            format!("{:.0}%", util * 100.0),
            format!("{:.2}x", mean / base_mean),
        ]);
        let tput = streams as f64 * msg.len() as f64 / 1e6 / makespan.as_secs_f64();
        rows.push(Json::obj(vec![
            ("streams", Json::u64(streams as u64)),
            ("mean_latency_ns", Json::u64((mean * 1e6) as u64)),
            ("p50_ns", Json::u64(p50.as_nanos())),
            ("p99_ns", Json::u64(p99.as_nanos())),
            ("makespan_ns", Json::u64(makespan.as_nanos())),
            ("throughput_mbps", Json::num(tput)),
            ("engine_utilization", Json::num(util)),
            ("slowdown_vs_single", Json::num(mean / base_mean)),
        ]));
    }
    t.print(out);
    report.set("burst_contention", Json::Arr(rows));
    outln!(out);
    out.line(
        "FIFO service means the k-th concurrent stream waits for k-1 jobs: mean\n\
         latency grows ~(n+1)/2 with burst size even though the engine never\n\
         idles. A second engine queue (or SoC spill-over via the hybrid planner,\n\
         see A4) would halve the slope — the programmability ask in the paper's\n\
         DPU-community notes."
    );
    report.write(out);
    Ok(())
}
