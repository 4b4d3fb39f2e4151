//! The traced run: per-layer metrics for one workload.
//!
//! 1. The workload runs untraced, then traced, for equal shares of the
//!    run; the difference of their median cycle times is the tracing
//!    overhead.
//! 2. The workload reports the layers it calls directly (`pedal.*` for
//!    bulk, `service.*`/`policy.*` for serve, `mpi.*`/`codesign.*` for
//!    p2p), timing the layers beneath with direct calls on its inputs.
//! 3. The serving layers it does not call run one traced cycle each on
//!    its bytes, so every layer is reported on every workload.
//! 4. Codec kernels not yet timed, and the checksum, stream and probe
//!    kernels, run directly on its messages.

use crate::inputs::{resplit, Message};
use crate::kernels;
use crate::phase::{check_bounded, check_equal};
use crate::trace::{aggregate, chrome_json, Tracer};
use crate::{bulk, p2p, serve, Bench, Metric, Report, RunConfig, Workload, PER_LAYER};
use pedal::{Datatype, Design};
use std::time::Instant;

/// Share of `--seconds` for each of the untraced and traced phases.
const PHASE_SHARE: f64 = 0.4;

/// Bytes of each element type the kernel pass and the other layers take
/// from a workload's messages.
const KERNEL_CAP: usize = 6 << 20;

pub fn traced(
    cfg: &RunConfig,
    bench: &mut dyn Bench,
    epoch: Instant,
    generate_mbps: f64,
) -> Result<Report, String> {
    let mut plain = bench.run(cfg.seconds * PHASE_SHARE, &mut Tracer::new(epoch, false, 0));
    bench.check_deferred(&mut plain);
    let mut t = Tracer::new(epoch, true, 0);
    let mut traced = bench.run(cfg.seconds * PHASE_SHARE, &mut t);
    bench.check_deferred(&mut traced);
    let overhead = (traced.median_cycle_secs() / plain.median_cycle_secs() - 1.0) * 100.0;

    let mut phases = vec![plain, traced];
    let mut metrics = bench.layer_metrics(&mut t)?;
    for mut other in others(cfg, bench.messages())? {
        other.warm()?;
        let mut phase = other.run(0.0, &mut t);
        other.check_deferred(&mut phase);
        phases.push(phase);
        metrics.extend(other.layer_metrics(&mut t)?);
    }
    metrics.extend(kernel_metrics(&mut t, bench.messages())?);
    metrics.push(Metric::new("datasets.generate_mbps", generate_mbps, "MB/s"));
    metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));

    let mut notes = vec![format!(
        "workload {} seed {} traced: {} spans, overhead {overhead:.2} %",
        cfg.workload.name(),
        cfg.seed,
        t.spans().len()
    )];
    notes.push(format!(
        "  {:<26} {:>8} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "MB/s"
    ));
    for (name, a) in aggregate(t.spans()) {
        notes.push(format!(
            "  {name:<26} {:>8} {:>12.3} {:>12.3} {:>10.1}",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.mbps()
        ));
    }
    if let Some(path) = &cfg.trace_file {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = chrome_json(t.spans());
        pedal_obs::validate_chrome_trace(&text).map_err(|e| format!("trace export: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("  chrome trace written to {}", path.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = metrics.iter().find(|m| m.name == name);
            match m {
                Some(m) if m.unit == unit && m.value.is_finite() => Ok(m.clone()),
                _ => Err(format!("per-layer metric {name} missing or not finite")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Report {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        errors: phases.into_iter().flat_map(|p| p.errors).collect(),
        metrics,
        notes,
    })
}

/// The serving layers `workload` does not call, built on its messages.
fn others(cfg: &RunConfig, msgs: &[Message]) -> Result<Vec<Box<dyn Bench>>, String> {
    let mut out: Vec<Box<dyn Bench>> = Vec::new();
    match cfg.workload {
        Workload::BulkBytes | Workload::BulkFloats => {}
        Workload::ServeMixed => {
            // What the policy mostly picks: engine DEFLATE for bytes,
            // typed pco for float columns.
            let pairs = msgs
                .iter()
                .enumerate()
                .map(|(msg, m)| {
                    let (design, datatype) = if m.floats {
                        (Design::SOC_PCO, Datatype::Float32)
                    } else {
                        (Design::CE_DEFLATE, Datatype::Byte)
                    };
                    bulk::Pair { msg, design, datatype }
                })
                .collect();
            out.push(Box::new(bulk::Bulk::new(msgs.to_vec(), pairs)?));
        }
        Workload::P2pLz4 => {
            out.push(Box::new(bulk::Bulk::cross(msgs.to_vec(), &[Design::SOC_LZ4])?));
        }
    }
    if cfg.workload != Workload::ServeMixed {
        let pieces = resplit(msgs, 32 << 10, KERNEL_CAP / 4);
        let per_request = (pieces.len() / 4).clamp(1, 16);
        let requests = pieces.len() / per_request;
        out.push(Box::new(serve::Serve::new(pieces, per_request, requests, cfg.seed)));
    }
    if cfg.workload != Workload::P2pLz4 {
        out.push(Box::new(p2p::P2p::new(resplit(msgs, 1 << 20, KERNEL_CAP / 2))));
    }
    Ok(out)
}

/// Codec, checksum, stream and probe kernels on `msgs` (capped).
fn kernel_metrics(t: &mut Tracer, msgs: &[Message]) -> Result<Vec<Metric>, String> {
    let mut taken = [0usize; 2];
    let cover: Vec<&Message> = msgs
        .iter()
        .filter(|m| {
            let k = &mut taken[m.floats as usize];
            *k += m.data.len();
            *k <= KERNEL_CAP || *k == m.data.len()
        })
        .collect();
    let timed = |t: &Tracer, name: &str| t.spans().iter().any(|s| s.name == name);
    for (design, span) in [
        (Design::SOC_DEFLATE, "deflate.compress"),
        (Design::SOC_LZ4, "lz4.compress"),
        (Design::SOC_SZ3, "sz3.encode_core"),
        (Design::SOC_PCO, "pco.compress"),
    ] {
        if timed(t, span) {
            continue;
        }
        let floats_only = design.algorithm.is_lossy() || design == Design::SOC_PCO;
        for (i, m) in cover.iter().enumerate().filter(|(_, m)| m.floats || !floats_only) {
            let dt = if floats_only { Datatype::Float32 } else { Datatype::Byte };
            let body = kernels::compress(t, i as u64, design, dt, &m.data);
            let back = kernels::decompress(t, i as u64, design, &body, m.data.len())?;
            if design.is_lossy() {
                check_bounded("kernel round trip", &back, &m.data, kernels::EB)?;
            } else {
                check_equal("kernel round trip", &back, &m.data)?;
            }
        }
    }
    let (mut frames, mut raw_frames) = (0, 0);
    for (i, m) in cover.iter().enumerate() {
        let req = i as u64;
        kernels::checksums(t, req, &m.data);
        kernels::probe(t, req, &m.data, 16);
        let (wire, stats) = kernels::stream_encode(t, req, &m.data);
        let back = kernels::stream_decode(t, req, &wire, m.data.len())?;
        check_equal("stream round trip", &back, &m.data)?;
        frames += stats.frames;
        raw_frames += stats.raw_frames;
    }
    let agg = aggregate(t.spans());
    let rate = |name: &str| agg.get(name).map_or(f64::NAN, |a| a.mbps());
    Ok(vec![
        Metric::new("deflate.compress_mbps", rate("deflate.compress"), "MB/s"),
        Metric::new("deflate.inflate_mbps", rate("deflate.inflate"), "MB/s"),
        Metric::new("lz4.compress_mbps", rate("lz4.compress"), "MB/s"),
        Metric::new("lz4.decompress_mbps", rate("lz4.decompress"), "MB/s"),
        Metric::new("zlib.adler32_mbps", rate("zlib.adler32"), "MB/s"),
        Metric::new("zlib.crc32_mbps", rate("zlib.crc32"), "MB/s"),
        Metric::new("sz3.encode_core_mbps", rate("sz3.encode_core"), "MB/s"),
        Metric::new("sz3.backend_mbps", rate("sz3.backend"), "MB/s"),
        Metric::new("sz3.decode_core_mbps", rate("sz3.decode_core"), "MB/s"),
        Metric::new("pco.compress_mbps", rate("pco.compress"), "MB/s"),
        Metric::new("pco.decompress_mbps", rate("pco.decompress"), "MB/s"),
        Metric::new("stream.encode_mbps", rate("stream.encode"), "MB/s"),
        Metric::new("stream.decode_mbps", rate("stream.decode"), "MB/s"),
        Metric::new("stream.frames", frames as f64, "count"),
        Metric::new("stream.raw_frame_pct", bulk::pct(raw_frames, frames), "%"),
        Metric::new(
            "policy.probe_us",
            agg.get("policy.probe").map_or(f64::NAN, |a| a.mean_us()),
            "us",
        ),
    ])
}
