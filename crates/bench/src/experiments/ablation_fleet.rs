//! Ablation A9: the pedal-fleet multi-DPU serving tier under sustained
//! open-loop overload. A heterogeneous BF2+BF3 fleet absorbs a bursty
//! arrival stream hot enough that best-effort traffic must shed, while
//! the paying pool's end-to-end SLO attainment is required to hold at
//! 100%. Everything is virtual-time, so the run is a pure function of
//! (seed, config) — which this experiment proves by replaying the whole
//! fleet and demanding a byte-identical report + placement digest, and
//! by re-deriving every completed job's output bytes through the
//! synchronous wire oracle.
//!
//! Gates (the experiment fails on any of them):
//!   1. determinism — replay digest equality at both seeds;
//!   2. paying SLO attainment == 100% under overload;
//!   3. best-effort sheds under the same load (the ladder is real);
//!   4. byte identity — every completion matches `wire::compress_payload`.
//!
//! Writes `BENCH_fleet.json`.

use super::bf2_bf3_fleet;
use crate::{banner, outln, Artifacts, BenchReport, Table};
use pedal::{wire, Datatype, Design};
use pedal_datasets::workload::{generate_arrivals, Arrival, OpenLoopConfig};
use pedal_dpu::SimDuration;
use pedal_fleet::{run_fleet, FleetConfig, FleetRun, PlacementAction};
use pedal_obs::{Json, ToJson};

/// The request mix: engine DEFLATE with a minority of LZ4 (which no
/// engine can compress — Table II — so the router must rewrite it).
fn requested(a: &Arrival) -> Design {
    if a.seq % 4 == 3 {
        Design::CE_LZ4
    } else {
        Design::CE_DEFLATE
    }
}

fn overload_trace(seed: u64) -> Vec<Arrival> {
    // Bursty arrivals: calm phases near fleet capacity, burst phases
    // several times over it — sustained overload, not a single spike.
    let cfg = OpenLoopConfig::bursty(
        seed,
        SimDuration::from_micros(60),
        SimDuration::from_micros(8),
        SimDuration::from_millis(4),
        SimDuration::from_millis(40),
    )
    .with_payload(2 << 10, 16 << 10);
    generate_arrivals(&cfg)
}

/// Every completion's bytes must equal the synchronous single-context
/// path for the design the placement log says was submitted.
fn check_byte_identity(cfg: &FleetConfig, trace: &[Arrival], run: &FleetRun) -> u64 {
    let mut design_of = std::collections::BTreeMap::new();
    for r in &run.log.records {
        if let PlacementAction::Submitted { design, .. } = r.action {
            design_of.insert(r.seq, design);
        }
    }
    let mut checked = 0u64;
    for c in &run.completions {
        let Some(&seq) = run.job_seq.get(&(c.node, c.job.id)) else {
            continue;
        };
        let out = match &c.job.result {
            Ok(out) => &out.bytes,
            Err(e) => panic!("fleet: job seq {seq} failed: {e:?}"),
        };
        let arrival = &trace[seq as usize];
        assert_eq!(arrival.seq, seq, "trace is seq-indexed");
        let design = design_of[&seq];
        let (oracle, _) =
            wire::compress_payload(design, Datatype::Byte, cfg.error_bound, &arrival.payload())
                .expect("oracle compress");
        assert_eq!(
            *out, oracle,
            "fleet output for seq {seq} ({}) diverged from the single-context oracle",
            design
        );
        checked += 1;
    }
    checked
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A9", "Fleet serving tier: overload ladder, SLOs, determinism");
    let fleet_cfg = bf2_bf3_fleet();
    let mut report = BenchReport::new("fleet");
    report.set(
        "config",
        Json::obj(vec![
            ("nodes", Json::str("bf2+bf3")),
            ("paying_slo_ns", Json::u64(fleet_cfg.paying_slo.as_nanos())),
            ("epoch_ns", Json::u64(fleet_cfg.epoch.as_nanos())),
            ("degrade_pct", Json::u64(fleet_cfg.degrade_pct as u64)),
            ("store_pct", Json::u64(fleet_cfg.store_pct as u64)),
        ]),
    );

    let mut t = Table::new(vec![
        "Seed",
        "Arrivals",
        "Paying attain",
        "Paying p99(us)",
        "BE shed",
        "BE stored",
        "Goodput(MB/s)",
        "Digest",
    ]);
    let mut seeds_json = Vec::new();
    let mut worst_paying_attainment = 1.0f64;
    let mut total_be_shed = 0u64;

    for seed in [11u64, 97] {
        let trace = overload_trace(seed);
        let span = trace.last().map(|a| a.at.0).unwrap_or(1).max(1);
        let run = run_fleet(&fleet_cfg, &trace, requested);

        // Gate 1: the whole fleet is a pure function of (seed, config).
        let replay = run_fleet(&fleet_cfg, &trace, requested);
        if run.report_string() != replay.report_string() || run.digest() != replay.digest() {
            return Err(format!("seed {seed}: replay diverged from the first run"));
        }

        // Gate 4: byte identity against the synchronous oracle.
        let checked = check_byte_identity(&fleet_cfg, &trace, &run);
        if checked <= 100 {
            return Err(format!("seed {seed}: only {checked} completions byte-checked"));
        }

        let paying_attainment = run.paying.attainment().expect("paying traffic exists");
        worst_paying_attainment = worst_paying_attainment.min(paying_attainment);
        total_be_shed += run.best_effort.shed;
        let goodput_bytes = run.paying.bytes_out + run.best_effort.bytes_out;
        let goodput_mbps = goodput_bytes as f64 / 1e6 / (span as f64 / 1e9);

        t.row(vec![
            seed.to_string(),
            (run.paying.jobs + run.best_effort.jobs).to_string(),
            format!("{:.1}%", paying_attainment * 100.0),
            run.paying
                .latency_p99_ns()
                .map(|ns| format!("{:.1}", ns as f64 / 1e3))
                .unwrap_or_else(|| "-".into()),
            run.best_effort.shed.to_string(),
            run.best_effort.stored.to_string(),
            format!("{goodput_mbps:.1}"),
            run.digest(),
        ]);
        seeds_json.push(Json::obj(vec![
            ("seed", Json::u64(seed)),
            ("span_ns", Json::u64(span)),
            ("paying", run.paying.to_json()),
            ("best_effort", run.best_effort.to_json()),
            ("paying_attainment", Json::num(paying_attainment)),
            ("goodput_mbps", Json::num(goodput_mbps)),
            ("jobs_byte_checked", Json::u64(checked)),
            ("epochs", Json::u64(run.epochs.len() as u64)),
            ("placement_digest", Json::str(run.digest())),
        ]));
    }
    t.print(out);
    report.set("overload", Json::Arr(seeds_json));
    report.set("paying_attainment_min", Json::num(worst_paying_attainment));
    report.set("best_effort_shed_total", Json::u64(total_be_shed));

    // Gate 2 + 3: paying holds at 100% while best-effort pays for it.
    if worst_paying_attainment != 1.0 {
        return Err(format!(
            "paying attainment dropped to {worst_paying_attainment:.4} under overload"
        ));
    }
    if total_be_shed == 0 {
        return Err("overload never shed best-effort traffic — load too light".into());
    }

    outln!(
        out,
        "\nSustained overload: paying SLO attainment held at 100% at every\n\
         seed while best-effort traffic shed {total_be_shed} jobs through the\n\
         bucket/backlog gates and the CEAZ-style degrade ladder; every\n\
         completed job's bytes matched the synchronous oracle, and full-run\n\
         replays were digest-identical.\n"
    );
    report.write(out);
    Ok(())
}
