//! Supplementary experiment: OSU-style windowed bandwidth (`osu_bw`) with
//! on-the-fly compression. Not a paper figure — the paper measures latency
//! — but the natural companion, and it surfaces an honest limit of the
//! approach: on BlueField's 200/400 Gb/s links the wire outruns the
//! compression engine, so compression *reduces* streaming bandwidth; it is
//! a latency/overhead optimization (the paper's angle) and a bandwidth win
//! only on slower or shared links. The analytic section below locates that
//! crossover.

use crate::{banner, dataset, outln, Artifacts, Table};
use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_datasets::DatasetId;
use pedal_dpu::{Platform, SimDuration};
use pedal_mpi::{run_world, Bytes, RankCtx, WorldConfig};

const WINDOW: usize = 16;

/// Effective bandwidth (MB/s of *application* data) for a windowed stream
/// of `size`-byte messages, optionally compressed with CE DEFLATE.
fn bandwidth_mb_s(platform: Platform, raw: &[u8], compress: bool) -> f64 {
    // Every message is the same buffer: compress it once, and charge the
    // steady-state (warm pool) compression time per message on the
    // sender clock below.
    let (wire, comp_cost) = if compress {
        let ctx = PedalContext::init(PedalConfig::new(platform, Design::CE_DEFLATE)).unwrap();
        let _ = ctx.compress(Datatype::Byte, raw).unwrap(); // warm
        let packed = ctx.compress(Datatype::Byte, raw).unwrap();
        (Bytes::from(packed.payload), packed.timing.total())
    } else {
        (Bytes::from(raw.to_vec()), SimDuration::ZERO)
    };
    let results = run_world(WorldConfig::new(2, platform), |mpi: &mut RankCtx| {
        if mpi.rank == 0 {
            let t0 = mpi.now();
            let mut handles = Vec::new();
            for w in 0..WINDOW as u64 {
                mpi.compute(comp_cost);
                handles.push(mpi.isend(1, w, wire.clone()).unwrap());
            }
            for h in handles {
                h.wait(mpi).unwrap();
            }
            let (_, done) = mpi.recv(1, 999).unwrap();
            let elapsed = done.elapsed_since(t0).as_secs_f64();
            (WINDOW * raw.len()) as f64 / elapsed / 1e6
        } else {
            for w in 0..WINDOW as u64 {
                let _ = mpi.recv(0, w).unwrap();
            }
            mpi.send(0, 999, Bytes::new()).unwrap();
            0.0
        }
    });
    results[0]
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "osu_bw (supplementary)", "Windowed bandwidth, app-level MB/s");
    let corpus = dataset(DatasetId::SilesiaXml);
    for platform in Platform::ALL {
        outln!(out, "[{} — line rate {} Gb/s]", platform.name(), platform.spec().network_gbps);
        let mut t = Table::new(vec!["Msg(MB)", "Raw MB/s", "CE_DEFLATE MB/s", "Gain"]);
        let mut sizes = vec![1_000_000usize, 2_000_000];
        sizes.retain(|&s| s < corpus.len());
        sizes.push(corpus.len());
        for size in sizes {
            let chunk = &corpus[..size];
            let raw = bandwidth_mb_s(platform, chunk, false);
            let comp = bandwidth_mb_s(platform, chunk, true);
            t.row(vec![
                format!("{:.2}", size as f64 / 1e6),
                format!("{raw:.0}"),
                format!("{comp:.0}"),
                format!("{:.2}x", comp / raw),
            ]);
        }
        t.print(out);
        outln!(out);
    }
    // Analytic crossover: at what link speed does CE-DEFLATE compression
    // start improving steady-state streaming bandwidth? Pipeline model:
    // app_bw = size / max(compress_time, wire_time(size/ratio)).
    outln!(out, "Analytic crossover (BF2 engine, ratio from silesia/xml, 4 MB messages):");
    let costs = pedal_dpu::CostModel::for_platform(Platform::BlueField2);
    let size = 4_000_000usize;
    let data = &corpus[..size.min(corpus.len())];
    let packed = pedal_deflate::compress(data, pedal_deflate::Level::DEFAULT);
    let ratio = data.len() as f64 / packed.len() as f64;
    let comp_s = costs
        .cengine_lossless(pedal_dpu::Algorithm::Deflate, pedal_dpu::Direction::Compress, data.len())
        .unwrap()
        .as_secs_f64();
    let mut t = Table::new(vec!["Link (Gb/s)", "Raw MB/s", "Compressed MB/s", "Winner"]);
    for gbps in [10u64, 25, 50, 100, 200, 400] {
        let wire_bw = gbps as f64 * 1e9 / 8.0 / 1e6; // MB/s
        let raw = wire_bw;
        let wire_s = (data.len() as f64 / ratio) / 1e6 / wire_bw;
        let compressed = data.len() as f64 / 1e6 / comp_s.max(wire_s);
        t.row(vec![
            gbps.to_string(),
            format!("{raw:.0}"),
            format!("{compressed:.0}"),
            if compressed > raw { "compressed" } else { "raw" }.to_string(),
        ]);
    }
    t.print(out);
    out.line(
        "On the paper's fat links compression is a latency play, not a bandwidth\n\
         play; the crossover sits near wire <= ratio x engine-throughput."
    );
    Ok(())
}
