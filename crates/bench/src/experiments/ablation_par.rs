//! Ablation A8: chunk-parallel compression. A single large DEFLATE
//! compress job is sharded into 1 MiB stream fragments and fanned out
//! across C-Engine channels; fragments stitch (sync-flush framing) into
//! one valid stream whose bytes depend only on the data and the chunk
//! size. This experiment measures the virtual-time speedup of the fan-out
//! over the single-channel serial path on a 16 MiB payload, and the
//! compression-ratio cost of fragment stitching.
//!
//! The experiment fails unless the 4-channel fan-out reaches at least
//! 2x single-channel throughput. Results land in
//! `BENCH_ablation_par.json`.

use super::xml_16mib;
use crate::{banner, outln, Artifacts, BenchReport, Table};
use pedal::{Datatype, Design};
use pedal_deflate::{compress_fragment, stitch_fragments, Level};
use pedal_dpu::Platform;
use pedal_obs::Json;
use pedal_service::{JobDesc, JobMetrics, PedalService, ServiceConfig};

const CHUNK: usize = 1024 * 1024;

/// Compress one `data` job on `channels` C-Engine channels, with or
/// without chunk-parallel fan-out, and return its metrics.
fn compress_job(data: &[u8], channels: usize, fan_out: bool) -> (JobMetrics, Vec<u8>) {
    let mut cfg = ServiceConfig::new(Platform::BlueField2).with_ce_channels(channels);
    if fan_out {
        cfg = cfg.with_parallel(2 * CHUNK, CHUNK);
    }
    let svc = PedalService::start(cfg);
    svc.submit(JobDesc::compress(Design::CE_DEFLATE, Datatype::Byte, data.to_vec()))
        .expect("submit");
    let done = svc.drain();
    let out = done[0].result.as_ref().expect("compress").bytes.clone();
    (done[0].metrics.expect("metrics"), out)
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A8", "Chunk-parallel fan-out across C-Engine channels");
    let data = xml_16mib();
    let mut report = BenchReport::new("ablation_par");
    report.set("payload_bytes", Json::u64(data.len() as u64));
    report.set("chunk_bytes", Json::u64(CHUNK as u64));

    // Serial reference: today's path, one terminated stream on one
    // channel.
    let (serial, serial_out) = compress_job(&data, 1, false);
    let serial_tput = data.len() as f64 / 1e6 / serial.service.as_secs_f64();
    outln!(
        out,
        "Serial (1 channel, no fan-out): {:.3} ms -> {:.1} MB/s, {} bytes out\n",
        serial.service.as_millis_f64(),
        serial_tput,
        serial.bytes_out
    );
    report.set(
        "serial",
        Json::obj(vec![
            ("service_ns", Json::u64(serial.service.as_nanos())),
            ("throughput_mbps", Json::num(serial_tput)),
            ("bytes_out", Json::u64(serial.bytes_out as u64)),
        ]),
    );

    let mut t =
        Table::new(vec!["CE channels", "Chunks", "Service(ms)", "Tput(MB/s)", "Speedup", "Ratio"]);
    let chunks = data.len().div_ceil(CHUNK);
    let mut rows = Vec::new();
    let mut speedup4 = 0.0f64;
    let mut fan_ref: Option<Vec<u8>> = None;
    for channels in [1usize, 2, 4] {
        let (m, bytes) = compress_job(&data, channels, true);
        let tput = data.len() as f64 / 1e6 / m.service.as_secs_f64();
        let speedup = tput / serial_tput;
        if channels == 4 {
            speedup4 = speedup;
        }
        match &fan_ref {
            None => fan_ref = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "fan-out bytes must not depend on channel count"),
        }
        t.row(vec![
            channels.to_string(),
            chunks.to_string(),
            format!("{:.3}", m.service.as_millis_f64()),
            format!("{tput:.1}"),
            format!("{speedup:.2}x"),
            format!("{:.3}", data.len() as f64 / m.bytes_out as f64),
        ]);
        rows.push(Json::obj(vec![
            ("channels", Json::u64(channels as u64)),
            ("chunks", Json::u64(chunks as u64)),
            ("service_ns", Json::u64(m.service.as_nanos())),
            ("throughput_mbps", Json::num(tput)),
            ("speedup_vs_serial", Json::num(speedup)),
            ("bytes_out", Json::u64(m.bytes_out as u64)),
        ]));
    }
    t.print(out);
    report.set("fan_out", Json::Arr(rows));

    // Ratio cost of stitching: matches cannot cross chunk boundaries and
    // every non-final fragment pays a 5-byte sync flush.
    let fan_out_bytes = fan_ref.as_ref().map(Vec::len).unwrap_or(0);
    let overhead = fan_out_bytes as f64 / serial_out.len() as f64 - 1.0;
    outln!(
        out,
        "\nStitching overhead: {} -> {} bytes ({:+.3}% vs one terminated stream)",
        serial_out.len(),
        fan_out_bytes,
        overhead * 100.0
    );
    report.set("stitch_overhead_frac", Json::num(overhead));

    // The service body equals the stitched per-chunk fragments for the
    // same chunk size — the engine path adds nothing of its own.
    let (_, _, body) = pedal::wire::unframe(fan_ref.as_ref().expect("fan-out ran")).expect("frame");
    let frags: Vec<Vec<u8>> = data
        .chunks(CHUNK)
        .enumerate()
        .map(|(i, c)| compress_fragment(c, Level::DEFAULT, i + 1 == chunks))
        .collect();
    assert_eq!(
        body,
        stitch_fragments(&frags).expect("chunk ranges are never empty"),
        "service fan-out body must equal the stitched fragments"
    );

    report.set("speedup_4ch", Json::num(speedup4));
    report.write(out);
    out.line(
        "\nEach fragment resets the match window and appends a sync flush, so\n\
         the ratio cost is bounded and fixed per chunk; the virtual-time win\n\
         scales with channels until per-chunk overheads (pool hit, final\n\
         stitch memcpy) dominate."
    );
    if speedup4 < 2.0 {
        return Err(format!(
            "4-channel fan-out must give >= 2x single-channel throughput, got {speedup4:.2}x"
        ));
    }
    outln!(out, "\nacceptance: 4-channel speedup {speedup4:.2}x >= 2x  OK");
    Ok(())
}
