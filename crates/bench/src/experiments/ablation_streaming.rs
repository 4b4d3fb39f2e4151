//! Ablation: streaming frame protocol — compress-while-sending. A large
//! point-to-point message is pushed through the PSF1 streaming tier
//! (`pedal-stream` via `pedal-codesign`), overlapping per-chunk
//! compression with rendezvous transfer, and compared against the
//! sequential compress-then-send path on the same virtual platform.
//!
//! Gates (the experiment fails unless all three hold):
//!
//! 1. **Overlap wins**: streamed one-way latency on a 16 MiB message
//!    beats sequential by at least 1.3x virtual time.
//! 2. **Byte identity**: the receiver reconstructs the exact message on
//!    every path, and the wire bytes are a pure function of
//!    `(data, design, chunk_size)` — never the window size.
//! 3. **Determinism**: re-running any configuration reproduces both the
//!    wire bytes and the virtual completion time exactly, for every
//!    chunk size swept.
//!
//! Results land in `BENCH_streaming.json` at the repo root.

use super::xml_16mib;
use crate::{banner, outln, Artifacts, BenchReport, Table};
use pedal::{Datatype, Design};
use pedal_codesign::{PedalComm, PedalCommConfig, StreamSendConfig};
use pedal_dpu::Platform;
use pedal_mpi::{run_world, RankCtx, WorldConfig};
use pedal_obs::Json;
use pedal_stream::{encode_all, StreamCodec, StreamConfig};

const TAG_BASE: u64 = 0x5EED_0000;

/// One 2-rank transfer of `data`: compress-while-sending with `stream`,
/// or the sequential compress-then-send reference without it. Returns
/// (one-way latency ns, wire bytes, receiver got byte-identical data).
fn transfer(
    platform: Platform,
    design: Design,
    data: &[u8],
    stream: Option<StreamSendConfig>,
) -> (u64, u64, bool) {
    let results = run_world(WorldConfig::new(2, platform), |mpi: &mut RankCtx| {
        let (mut comm, _) = PedalComm::init(mpi, PedalCommConfig::new(design)).unwrap();
        if mpi.rank == 0 {
            match stream {
                Some(scfg) => comm.send_streamed(mpi, 1, TAG_BASE, data, scfg),
                None => comm.send(mpi, 1, TAG_BASE, Datatype::Byte, data),
            }
            .unwrap();
            (0, comm.stats.wire_bytes_sent, true)
        } else {
            let (msg, done) = match stream {
                Some(_) => comm.recv_streamed(mpi, 0, TAG_BASE, data.len()),
                None => comm.recv(mpi, 0, TAG_BASE, data.len()),
            }
            .unwrap();
            (done.elapsed_since(pedal_dpu::SimInstant::EPOCH).as_nanos(), 0, msg == data)
        }
    });
    (results[1].0, results[0].1, results[0].2 && results[1].2)
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation: streaming", "Compress-while-sending vs sequential p2p (16 MiB)");
    let data = xml_16mib();
    let platform = Platform::BlueField2;
    let design = Design::CE_DEFLATE;
    let mut report = BenchReport::new("streaming");
    report.set("payload_bytes", Json::u64(data.len() as u64));
    report.set("design", Json::str(design.name()));

    let (seq_ns, seq_wire, seq_ok) = transfer(platform, design, &data, None);
    assert!(seq_ok, "sequential path must round-trip byte-identically");
    outln!(
        out,
        "Sequential (compress, then send): {:.3} ms, {seq_wire} wire bytes\n",
        seq_ns as f64 / 1e6
    );
    report.set(
        "sequential",
        Json::obj(vec![("one_way_ns", Json::u64(seq_ns)), ("wire_bytes", Json::u64(seq_wire))]),
    );

    // Chunk-size sweep at the default window, plus window sweep at the
    // default chunk: latency may move, bytes must not (per chunk size).
    let mut t = Table::new(vec!["Chunk(KiB)", "Window", "One-way(ms)", "Speedup", "Wire bytes"]);
    let mut rows = Vec::new();
    let mut headline = 0.0f64;
    let mut wire_by_chunk: Vec<(usize, u64)> = Vec::new();
    for (chunk, window) in
        [(256 << 10, 4usize), (1 << 20, 4), (4 << 20, 4), (1 << 20, 2), (1 << 20, 8)]
    {
        let scfg = StreamSendConfig::default().with_chunk_size(chunk).with_window(window);
        let (ns, wire, ok) = transfer(platform, design, &data, Some(scfg));
        assert!(ok, "streamed path must round-trip byte-identically (chunk={chunk})");
        // Determinism: the virtual timeline and the wire bytes replay
        // exactly from the same inputs.
        let (ns2, wire2, _) = transfer(platform, design, &data, Some(scfg));
        assert_eq!((ns, wire), (ns2, wire2), "streamed run must be deterministic");
        let speedup = seq_ns as f64 / ns as f64;
        if chunk == 1 << 20 && window == 4 {
            headline = speedup;
        }
        // Same chunk size => same wire bytes, whatever the window.
        match wire_by_chunk.iter().find(|(c, _)| *c == chunk) {
            Some((_, w)) => assert_eq!(*w, wire, "window changed the wire bytes at chunk {chunk}"),
            None => wire_by_chunk.push((chunk, wire)),
        }
        t.row(vec![
            format!("{}", chunk >> 10),
            window.to_string(),
            format!("{:.3}", ns as f64 / 1e6),
            format!("{speedup:.2}x"),
            wire.to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("chunk_bytes", Json::u64(chunk as u64)),
            ("window", Json::u64(window as u64)),
            ("one_way_ns", Json::u64(ns)),
            ("speedup_vs_sequential", Json::num(speedup)),
            ("wire_bytes", Json::u64(wire)),
        ]));
    }
    t.print(out);
    report.set("streamed", Json::Arr(rows));

    // The wire bytes are a pure function of (data, codec, chunk_size):
    // window sweeps at the same chunk produced identical bytes above
    // (re-run assertion), and the library-level encoder replays each
    // chunk size bit-exactly.
    for chunk in [256 << 10, 1 << 20, 4 << 20] {
        let cfg = StreamConfig::new(StreamCodec::Deflate(pedal_stream::Level::DEFAULT))
            .with_chunk_size(chunk);
        assert_eq!(
            encode_all(&data, &cfg),
            encode_all(&data, &cfg),
            "encoder must be deterministic at chunk {chunk}"
        );
    }

    report.set("speedup_headline", Json::num(headline));
    report.write(out);
    out.line(
        "\nStreaming pays the C-Engine submission overhead once and keeps the\n\
         wire busy while later chunks compress; sequential serializes the\n\
         whole compression before the first wire byte moves. Chunk buffers\n\
         also fit the pool preallocated at PEDAL_init, while the sequential\n\
         path's 16 MiB message buffer exceeds it and pays a cold allocation\n\
         on both sides."
    );
    if headline < 1.3 {
        return Err(format!(
            "compress-while-sending must beat sequential by >= 1.3x on a 16 MiB message, \
             got {headline:.2}x"
        ));
    }
    outln!(out, "\nACCEPTANCE OK: streamed beats sequential by {headline:.2}x");
    Ok(())
}
