//! Ablation A11: the pedal-policy closed loop versus every static
//! configuration, on a mixed-compressibility open-loop trace.
//!
//! The CEAZ-style claim under test: a cheap per-message probe (entropy +
//! match density + stride sniff) combined with live feedback (queue
//! depth, rolling p99 at epoch barriers) picks a better (codec,
//! placement, datatype, chunking) than ANY single static choice — on a
//! trace that interleaves compressible log text, incompressible random
//! blobs, and pco-friendly float columns. Every static design wastes
//! capacity somewhere on that mix: DEFLATE burns cycles on random
//! bytes, LZ4 gives up ratio on logs, pco is wrong for text, and a
//! fixed placement ignores engine backlog.
//!
//! Gates (the experiment fails on any of them):
//!   1. determinism — adaptive fleet replay is digest-identical, and
//!      the policy log digest matches between replays;
//!   2. goodput — adaptive virtual-time goodput strictly beats every
//!      static (codec, placement) configuration on the mixed trace;
//!   3. ratio — adaptive gives up at most 1% compression ratio versus
//!      the best static configuration;
//!   4. byte identity — every store-raw framing round-trips through
//!      `wire::decompress_payload` to the original bytes.
//!
//! Writes `BENCH_adaptive.json`.

use super::bf2_bf3_fleet;
use crate::{banner, outln, Artifacts, BenchReport, Table};
use pedal::{wire, Design};
use pedal_datasets::workload::{generate_arrivals, Arrival, OpenLoopConfig};
use pedal_dpu::SimDuration;
use pedal_fleet::{run_fleet, FleetRun, PolicyConfig};
use pedal_obs::Json;
use std::collections::BTreeMap;

/// Hot mixed trace: arrivals fast enough that placement and codec
/// choice actually move the completion horizon, payloads large enough
/// for the probe to read a stable sample.
fn mixed_trace(seed: u64) -> Vec<Arrival> {
    let cfg =
        OpenLoopConfig::mixed(seed, SimDuration::from_micros(40), SimDuration::from_millis(8))
            .with_payload(2 << 10, 32 << 10);
    generate_arrivals(&cfg)
}

/// Virtual-time outcome of one configuration on one trace.
struct RunMetrics {
    done_jobs: u64,
    stored: usize,
    done_bytes_in: u64,
    bytes_out: u64,
    makespan_ns: u64,
    goodput_mbps: f64,
    ratio: f64,
}

fn measure(trace: &[Arrival], run: &FleetRun) -> RunMetrics {
    let by_seq: BTreeMap<u64, &Arrival> = trace.iter().map(|a| (a.seq, a)).collect();
    let mut done_jobs = 0u64;
    let mut done_bytes_in = 0u64;
    let mut bytes_out = 0u64;
    let mut makespan_ns = 0u64;
    for c in &run.completions {
        let Ok(out) = &c.job.result else {
            panic!("job failed on node {}: {:?}", c.node, c.job.result)
        };
        let seq = run.job_seq[&(c.node, c.job.id)];
        done_jobs += 1;
        done_bytes_in += by_seq[&seq].bytes as u64;
        bytes_out += out.bytes.len() as u64;
        if let Some(m) = &c.job.metrics {
            makespan_ns = makespan_ns.max(m.completed.0);
        }
    }
    for s in &run.stored {
        done_jobs += 1;
        done_bytes_in += by_seq[&s.seq].bytes as u64;
        bytes_out += s.payload.len() as u64;
        // A store decision completes at memcpy speed; its arrival
        // instant bounds the horizon contribution.
        makespan_ns = makespan_ns.max(by_seq[&s.seq].at.0);
    }
    let makespan_ns = makespan_ns.max(1);
    RunMetrics {
        done_jobs,
        stored: run.stored.len(),
        done_bytes_in,
        bytes_out,
        makespan_ns,
        goodput_mbps: done_bytes_in as f64 / 1e6 / (makespan_ns as f64 / 1e9),
        ratio: done_bytes_in as f64 / bytes_out.max(1) as f64,
    }
}

/// One row of the comparison table and its JSON twin in the report.
fn record(t: &mut Table, rows: &mut Vec<Json>, config: &str, adaptive: bool, m: &RunMetrics) {
    t.row(vec![
        config.to_string(),
        m.done_jobs.to_string(),
        m.stored.to_string(),
        format!("{:.1}", m.goodput_mbps),
        format!("{:.3}", m.ratio),
        format!("{:.3}", m.makespan_ns as f64 / 1e6),
    ]);
    rows.push(Json::obj(vec![
        ("config", Json::str(config)),
        ("adaptive", Json::Bool(adaptive)),
        ("done_jobs", Json::u64(m.done_jobs)),
        ("bytes_in", Json::u64(m.done_bytes_in)),
        ("bytes_out", Json::u64(m.bytes_out)),
        ("makespan_ns", Json::u64(m.makespan_ns)),
        ("goodput_mbps", Json::num(m.goodput_mbps)),
        ("ratio", Json::num(m.ratio)),
    ]));
}

/// Gate 4: every store-raw framing decodes back to the original bytes.
fn check_store_round_trips(trace: &[Arrival], run: &FleetRun) -> u64 {
    let by_seq: BTreeMap<u64, &Arrival> = trace.iter().map(|a| (a.seq, a)).collect();
    for s in &run.stored {
        let data = by_seq[&s.seq].payload();
        let (decoded, profile) =
            wire::decompress_payload(&s.payload, data.len()).expect("stored frame decodes");
        assert!(profile.passthrough, "seq {}: stored frame not passthrough", s.seq);
        assert_eq!(decoded, data, "seq {}: store-raw bytes diverged", s.seq);
    }
    run.stored.len() as u64
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A11", "Adaptive per-message policy vs every static configuration");
    let mut report = BenchReport::new("adaptive");
    let seed = 17u64;
    let trace = mixed_trace(seed);
    let fleet_cfg = bf2_bf3_fleet();
    report.set(
        "config",
        Json::obj(vec![
            ("seed", Json::u64(seed)),
            ("nodes", Json::str("bf2+bf3")),
            ("arrivals", Json::u64(trace.len() as u64)),
            ("trace", Json::str("mixed: log-text + random-blob + float-column")),
        ]),
    );

    // Static baselines: one fixed (codec, placement) for every message.
    let statics: Vec<(&str, Design)> = vec![
        ("static CE-DEFLATE", Design::CE_DEFLATE),
        ("static SoC-DEFLATE", Design::SOC_DEFLATE),
        ("static SoC-LZ4", Design::SOC_LZ4),
        ("static SoC-pco", Design::SOC_PCO),
    ];

    let mut t =
        Table::new(vec!["Config", "Done", "Stored", "Goodput(MB/s)", "Ratio", "Makespan(ms)"]);
    let mut rows_json = Vec::new();
    let mut static_results = Vec::new();
    for (name, design) in &statics {
        let run = run_fleet(&fleet_cfg, &trace, |_| *design);
        let m = measure(&trace, &run);
        record(&mut t, &mut rows_json, name, false, &m);
        static_results.push((*name, m));
    }

    // The adaptive run, plus its replay (gate 1).
    let adaptive_cfg = bf2_bf3_fleet().with_adaptive_policy(PolicyConfig::default());
    let run = run_fleet(&adaptive_cfg, &trace, |_| Design::CE_DEFLATE);
    let replay = run_fleet(&adaptive_cfg, &trace, |_| Design::CE_DEFLATE);
    if run.digest() != replay.digest() || run.policy_log.digest() != replay.policy_log.digest() {
        return Err("adaptive replay or its policy log diverged from the first run".into());
    }
    if run.policy_log.is_empty() {
        return Err("adaptive run made no policy decisions".into());
    }

    let stored_checked = check_store_round_trips(&trace, &run);
    let m = measure(&trace, &run);
    record(&mut t, &mut rows_json, "adaptive", true, &m);
    t.print(out);

    // Decision-mix table: what the policy actually chose.
    let mut decisions = BTreeMap::new();
    for r in &run.policy_log.records {
        *decisions.entry(r.decision).or_insert(0u64) += 1;
    }
    let mut dt = Table::new(vec!["Decision", "Count"]);
    let mut decisions_json = Vec::new();
    for (d, n) in &decisions {
        dt.row(vec![d.to_string(), n.to_string()]);
        decisions_json.push(Json::obj(vec![("decision", Json::str(*d)), ("count", Json::u64(*n))]));
    }
    dt.print(out);
    if decisions.len() < 3 {
        return Err("mixed trace exercised too few decision kinds".into());
    }

    // Gate 2: adaptive strictly beats every static on goodput.
    let best_static = static_results.iter().map(|(_, s)| s.goodput_mbps).fold(f64::MIN, f64::max);
    if let Some((name, s)) = static_results.iter().find(|(_, s)| m.goodput_mbps <= s.goodput_mbps) {
        return Err(format!(
            "adaptive goodput {:.1} MB/s did not beat {name} at {:.1} MB/s",
            m.goodput_mbps, s.goodput_mbps
        ));
    }

    // Gate 3: at most 1% ratio given up versus the best static ratio.
    let best_static_ratio = static_results.iter().map(|(_, s)| s.ratio).fold(f64::MIN, f64::max);
    let ratio_frac = m.ratio / best_static_ratio;
    if ratio_frac < 0.99 {
        return Err(format!(
            "adaptive ratio {:.3} fell more than 1% below best static {best_static_ratio:.3}",
            m.ratio
        ));
    }

    report.set("results", Json::Arr(rows_json));
    report.set("decisions", Json::Arr(decisions_json));
    report.set("adaptive_goodput_mbps", Json::num(m.goodput_mbps));
    report.set("best_static_goodput_mbps", Json::num(best_static));
    report.set("goodput_gain_pct", Json::num((m.goodput_mbps / best_static - 1.0) * 100.0));
    report.set("adaptive_ratio", Json::num(m.ratio));
    report.set("best_static_ratio", Json::num(best_static_ratio));
    report.set("ratio_vs_best_static", Json::num(ratio_frac));
    report.set("policy_decisions", Json::u64(run.policy_log.len() as u64));
    report.set("policy_digest", Json::str(run.policy_log.digest()));
    report.set("stored_round_trips_checked", Json::u64(stored_checked));
    report.set("adaptive_beats_all_static", Json::Bool(true));

    outln!(
        out,
        "\nThe closed loop won on both axes: goodput {:.1} MB/s versus the best\n\
         static {:.1} MB/s (+{:.1}%), at {:.1}% of the best static compression\n\
         ratio; {} policy decisions replayed digest-identically and every\n\
         store-raw frame round-tripped byte-exact.\n",
        m.goodput_mbps,
        best_static,
        (m.goodput_mbps / best_static - 1.0) * 100.0,
        ratio_frac * 100.0,
        run.policy_log.len(),
    );
    report.write(out);
    Ok(())
}
