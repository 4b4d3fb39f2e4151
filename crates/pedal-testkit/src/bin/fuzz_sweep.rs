//! Standing fuzz sweep over every PEDAL decode path, and over the split
//! DEFLATE and LZ4 encoders against their sequential parse.
//!
//! ```text
//! fuzz_sweep [--seed N] [--cases N] [--target N] [--codec NAME] [--case-seed N]
//! ```
//!
//! With `--case-seed` (and `--codec`) a single reported failure replays in
//! isolation. Exits non-zero when any case fails; each failure line embeds
//! its reproducer invocation.

use pedal_testkit::{run_case, sweep, CodecId, SweepConfig};

fn parse_u64(s: &str) -> Result<u64, String> {
    let (digits, radix) = if let Some(hex) = s.strip_prefix("0x") { (hex, 16) } else { (s, 10) };
    u64::from_str_radix(digits, radix).map_err(|e| format!("bad number {s:?}: {e}"))
}

fn main() {
    let mut cfg = SweepConfig::default();
    let mut only: Option<CodecId> = None;
    let mut case_seed: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value after {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--seed" => cfg.seed = parse_u64(need(i)).unwrap_or_else(die),
            "--cases" => cfg.cases_per_codec = parse_u64(need(i)).unwrap_or_else(die) as usize,
            "--target" => cfg.target = parse_u64(need(i)).unwrap_or_else(die) as usize,
            "--codec" => {
                let name = need(i);
                only = Some(CodecId::from_name(name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown codec {name:?}; expected one of: {}",
                        CodecId::ALL.map(|c| c.name()).join(", ")
                    );
                    std::process::exit(2);
                }));
            }
            "--case-seed" => case_seed = Some(parse_u64(need(i)).unwrap_or_else(die)),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: fuzz_sweep [--seed N] [--cases N] [--target N] \
                     [--codec NAME] [--case-seed N]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }

    // Replay mode: one codec, one seed, full diagnostics.
    if let Some(seed) = case_seed {
        let codec = only.unwrap_or_else(|| {
            eprintln!("--case-seed requires --codec");
            std::process::exit(2);
        });
        match run_case(codec, seed, cfg.target) {
            Ok(()) => println!("[{}] case_seed={seed:#018x}: pass", codec.name()),
            Err(e) => {
                eprintln!("[{}] case_seed={seed:#018x}: {e}", codec.name());
                std::process::exit(1);
            }
        }
        return;
    }

    // Panics are caught and reported per-case; silence the default hook's
    // backtrace spam so the sweep output stays one line per failure.
    std::panic::set_hook(Box::new(|_| {}));
    let report = sweep::run_sweep_filtered(&cfg, only);
    let _ = std::panic::take_hook();

    println!(
        "fuzz sweep: {} cases, seed {:#018x}, {} corpus bytes/base",
        report.cases_run, cfg.seed, cfg.target
    );
    if report.ok() {
        println!("all cases clean");
    } else {
        for f in &report.failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("{} failure(s)", report.failures.len());
        std::process::exit(1);
    }
}

fn die(e: String) -> u64 {
    eprintln!("{e}");
    std::process::exit(2);
}
