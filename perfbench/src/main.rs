//! Command line for the wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --steady <runs> [--seed <first>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run prints notes, then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). It exits 1 if any output check failed. `--steady` runs
//! the workload that many times in fresh processes, one seed each, and
//! prints every metric's median and interquartile spread.

use perfbench::stats::{median, spread};
use perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    cfg: RunConfig,
    steady: Option<usize>,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--steady <runs>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
        (None, 1u64, 10.0f64, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--steady" => steady = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace_file = trace.then(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
        dir.join(format!("perfbench-trace-{}-{seed}.json", workload.name()))
    });
    Ok(Args { cfg: RunConfig { workload, seed, seconds, trace, tiny: false, trace_file }, steady })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if let Some(runs) = args.steady {
        return steady(&args.cfg, runs);
    }
    let report = match run(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the workload `runs` times in fresh processes (seeds `seed`,
/// `seed + 1`, ...) and print each metric's median and the distance
/// between its quartiles as a share of the median.
fn steady(cfg: &RunConfig, runs: usize) -> ExitCode {
    if runs < 2 {
        return usage("--steady needs at least 2 runs");
    }
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..runs as u64 {
        let seed = cfg.seed + i;
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", cfg.workload.name()])
            .args(["--seed", &seed.to_string(), "--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }]);
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot start {}: {e}", exe.display());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = match (out.status.success(), pedal_obs::parse_json(last)) {
            (true, Ok(doc)) => doc,
            _ => {
                eprintln!(
                    "perfbench: run with seed {seed} failed:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                return ExitCode::FAILURE;
            }
        };
        let Some(pedal_obs::Json::Obj(metrics)) = doc.get("metrics") else {
            eprintln!("perfbench: run with seed {seed} printed no metrics");
            return ExitCode::FAILURE;
        };
        for (name, m) in metrics {
            let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("").to_string();
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, vs)) => vs.push(v),
                None => values.push((name.clone(), unit, vec![v])),
            }
        }
        println!("seed {seed}: {last}");
    }
    println!("{} runs of {} (trace {})", runs, cfg.workload.name(), cfg.trace as u8);
    println!("{:<30} {:>14} {:>8} {:>10}", "metric", "median", "unit", "IQR/med");
    for (name, unit, vs) in &values {
        println!("{name:<30} {:>14.4} {unit:>8} {:>10.4}", median(vs), spread(vs));
    }
    ExitCode::SUCCESS
}
