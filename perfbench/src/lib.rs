//! Wall-clock benchmark for the PEDAL workspace.
//!
//! One run sets up a workload from a seed, measures it for a fixed time
//! and checks every output. Untraced runs report the end-to-end metrics
//! ([`END_TO_END`]); traced runs time each layer from outside, through the
//! crates' public functions, and report the per-layer metrics
//! ([`PER_LAYER`]). `BENCHMARK.json` at the repository root lists both.

pub mod bulk;
pub mod inputs;
pub mod kernels;
pub mod layers;
pub mod p2p;
pub mod phase;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

use inputs::Message;
use phase::Phase;
use stats::{median, percentile};
use std::time::Instant;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkBytes,
    BulkFloats,
    ServeMixed,
    P2pLz4,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BulkBytes, Workload::BulkFloats, Workload::ServeMixed, Workload::P2pLz4];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkBytes => "bulk-bytes",
            Workload::BulkFloats => "bulk-floats",
            Workload::ServeMixed => "serve-mixed",
            Workload::P2pLz4 => "p2p-lz4",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// End-to-end metrics of an untraced run, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_mbps", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ratio", "x"),
    ("peak_rss_mib", "MiB"),
    ("cpu_ms_per_mb", "ms/MB"),
];

/// Per-layer metrics of a traced run, with units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("deflate.compress_mbps", "MB/s"),
    ("deflate.inflate_mbps", "MB/s"),
    ("lz4.compress_mbps", "MB/s"),
    ("lz4.decompress_mbps", "MB/s"),
    ("zlib.adler32_mbps", "MB/s"),
    ("zlib.crc32_mbps", "MB/s"),
    ("sz3.encode_core_mbps", "MB/s"),
    ("sz3.backend_mbps", "MB/s"),
    ("sz3.decode_core_mbps", "MB/s"),
    ("pco.compress_mbps", "MB/s"),
    ("pco.decompress_mbps", "MB/s"),
    ("pedal.compress_overhead_us", "us"),
    ("pedal.decompress_overhead_us", "us"),
    ("pedal.pool_hit_pct", "%"),
    ("policy.probe_us", "us"),
    ("policy.store_pct", "%"),
    ("policy.pco_pct", "%"),
    ("policy.engine_pct", "%"),
    ("service.submit_us", "us"),
    ("service.drain_us", "us"),
    ("service.start_ms", "ms"),
    ("service.shutdown_ms", "ms"),
    ("service.completed", "count"),
    ("service.batched", "count"),
    ("service.passthrough", "count"),
    ("service.failed", "count"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("stream.encode_mbps", "MB/s"),
    ("stream.decode_mbps", "MB/s"),
    ("stream.frames", "count"),
    ("stream.raw_frame_pct", "%"),
    ("mpi.send_block_ms", "ms"),
    ("mpi.recv_wait_ms", "ms"),
    ("codesign.send_ms", "ms"),
    ("codesign.recv_ms", "ms"),
    ("codesign.overlap", "x"),
    ("datasets.generate_mbps", "MB/s"),
    ("trace.overhead_pct", "%"),
];

/// A workload ready to run: inputs generated, contexts started.
pub trait Bench {
    /// Warm caches, pools and threads with a little traffic.
    fn warm(&mut self) -> Result<(), String>;
    /// Run whole cycles until `seconds` have passed (at least one).
    fn run(&mut self, seconds: f64, t: &mut Tracer) -> Phase;
    /// Output checks kept out of the timed phase and out of its CPU and
    /// memory readings; call after each `run`.
    fn check_deferred(&mut self, _phase: &mut Phase) {}
    /// Raw bytes over wire bytes of one cycle (the same every cycle).
    fn ratio(&self) -> f64;
    fn messages(&self) -> &[Message];
    /// After a traced run: the metrics of the layers this workload calls
    /// directly, using direct calls on the same inputs for the layers
    /// beneath them.
    fn layer_metrics(&mut self, t: &mut Tracer) -> Result<Vec<Metric>, String>;
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Kilobyte-scale inputs for the smoke tests.
    pub tiny: bool,
    /// Where a traced run writes its Chrome trace, if anywhere.
    pub trace_file: Option<std::path::PathBuf>,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        use pedal_obs::Json;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// A run sets up at least `SETUP_REPEATS` times and until the set-ups
/// have taken `SETUP_MIN_S` seconds together (at most `SETUP_MAX`
/// times); `setup_s` is their median. Short set-ups thus get many
/// repeats and a steady median.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_MIN_S: f64 = 1.0;
pub const SETUP_MAX: usize = 64;

/// Input shape per workload: (messages, smallest, largest bytes). Full
/// scale is what `BENCHMARK.json` records; tiny scale keeps the smoke
/// tests fast.
struct Sizes {
    bulk_bytes: (usize, usize, usize),
    bulk_floats: (usize, usize, usize),
    /// Messages per request, requests per session, smallest, largest.
    serve: (usize, usize, usize, usize),
    p2p: (usize, usize, usize),
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            bulk_bytes: (5, 32 << 10, 64 << 10),
            bulk_floats: (4, 32 << 10, 64 << 10),
            serve: (4, 3, 2 << 10, 8 << 10),
            p2p: (5, 300 << 10, 400 << 10),
        }
    } else {
        Sizes {
            bulk_bytes: (10, 1 << 20, 3 << 20),
            bulk_floats: (8, 1 << 20, 3 << 20),
            serve: (16, 20, 2 << 10, 64 << 10),
            p2p: (15, 1 << 20, 4 << 20),
        }
    }
}

/// Generate inputs and build the workload. Returns the generated bytes
/// too, for `datasets.generate_mbps`.
pub fn setup(cfg: &RunConfig) -> Result<(Box<dyn Bench>, u64, f64), String> {
    let sz = sizes(cfg.tiny);
    let seed = cfg.seed;
    let t0 = Instant::now();
    let msgs = match cfg.workload {
        Workload::BulkBytes => {
            let (n, lo, hi) = sz.bulk_bytes;
            inputs::silesia(seed, n, lo, hi)
        }
        Workload::BulkFloats => {
            let (n, lo, hi) = sz.bulk_floats;
            inputs::float_fields(seed, n, lo, hi)
        }
        Workload::ServeMixed => {
            let (k, r, lo, hi) = sz.serve;
            inputs::mixed(seed, k * r, lo, hi)
        }
        Workload::P2pLz4 => {
            let (n, lo, hi) = sz.p2p;
            inputs::silesia(seed, n, lo, hi)
        }
    };
    let gen_s = t0.elapsed().as_secs_f64();
    let gen_bytes = inputs::total_bytes(&msgs);
    let bench: Box<dyn Bench> = match cfg.workload {
        Workload::BulkBytes => Box::new(bulk::Bulk::cross(msgs, &bulk::BYTE_DESIGNS)?),
        Workload::BulkFloats => Box::new(bulk::Bulk::cross(msgs, &bulk::FLOAT_DESIGNS)?),
        Workload::ServeMixed => {
            let (k, r, _, _) = sz.serve;
            Box::new(serve::Serve::new(msgs, k, r, seed))
        }
        Workload::P2pLz4 => Box::new(p2p::P2p::new(msgs)),
    };
    Ok((bench, gen_bytes, gen_s))
}

/// Run one workload end to end and build its report.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut gen_rates = Vec::new();
    let mut bench = None;
    while setups.len() < SETUP_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX)
    {
        drop(bench.take());
        let t0 = Instant::now();
        let (mut b, gen_bytes, gen_s) = setup(cfg)?;
        b.warm()?;
        setups.push(t0.elapsed().as_secs_f64());
        gen_rates.push(gen_bytes as f64 / 1e6 / gen_s.max(1e-9));
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    if cfg.trace {
        layers::traced(cfg, bench.as_mut(), epoch, median(&gen_rates))
    } else {
        untraced(cfg, bench.as_mut(), epoch, &setups)
    }
}

fn untraced(
    cfg: &RunConfig,
    bench: &mut dyn Bench,
    epoch: Instant,
    setups: &[f64],
) -> Result<Report, String> {
    let setup_s = median(setups);
    let rss_reset = sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let mut phase = bench.run(cfg.seconds, &mut Tracer::new(epoch, false, 0));
    let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - cpu0;
    bench.check_deferred(&mut phase);
    let lat = stats::sorted(&phase.latencies_ms);
    let mb = phase.total_bytes() as f64 / 1e6;
    let pct = |p: f64| percentile(&lat, p);
    let tail = |p: f64| {
        pct(p).ok_or_else(|| {
            format!("{} latency samples; p{p} needs {}", lat.len(), stats::samples_needed(p))
        })
    };
    let mut notes = vec![
        format!(
            "workload {} seed {} ({} cycles)",
            cfg.workload.name(),
            cfg.seed,
            phase.cycle_secs.len()
        ),
        format!("  set-ups {}, median {setup_s:.4} s", setups.len()),
        format!(
            "  peak RSS per {}",
            if rss_reset { "cycle" } else { "process (VmHWM reset refused)" }
        ),
        format!("  latency samples {}", lat.len()),
        format!("  failed_pct {:.4} %", bulk::pct(phase.failed, phase.attempted)),
    ];
    match pct(99.0) {
        Some(v) => notes.push(format!("  latency_p99_ms {v:.4} ms")),
        None => notes.push(format!(
            "  latency_p99_ms n/a: needs {} samples, have {}",
            stats::samples_needed(99.0),
            lat.len()
        )),
    }
    // Latency must not creep up within a run (serve-mixed's fixed-length
    // sessions exist to stop exactly that).
    let tenth = phase.latencies_ms.len() / 10;
    if tenth > 0 {
        let first = median(&phase.latencies_ms[..tenth]);
        let last = median(&phase.latencies_ms[phase.latencies_ms.len() - tenth..]);
        notes.push(format!(
            "  latency drift: median {first:.4} ms over the first tenth of samples, {last:.4} ms over the last"
        ));
    }
    for (name, (secs, bytes)) in
        [("compress_mbps", phase.compress), ("decompress_mbps", phase.decompress)]
    {
        if bytes > 0 {
            notes.push(format!("  {name} {:.4} MB/s", bytes as f64 / 1e6 / secs));
        }
    }
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_mbps", phase.throughput_mbps(), "MB/s"),
        Metric::new("latency_p50_ms", tail(50.0)?, "ms"),
        Metric::new("latency_p90_ms", tail(90.0)?, "ms"),
        Metric::new("ratio", bench.ratio(), "x"),
        Metric::new("peak_rss_mib", phase.peak_rss_mib(), "MiB"),
        Metric::new("cpu_ms_per_mb", cpu_s * 1e3 / mb.max(1e-9), "ms/MB"),
    ];
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed,
        errors: phase.errors,
        metrics,
        notes,
    })
}
