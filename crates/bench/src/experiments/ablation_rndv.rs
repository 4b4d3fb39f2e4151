//! Ablation A2: why PEDAL compresses only Rendezvous-class messages
//! (paper §IV: compression latency "prevent\[s\] compression techniques from
//! benefiting short messages").
//!
//! Sweeps message size with compression forced on vs plain transfers. On
//! an *idle* 200/400 Gb/s link raw transfers win at every size (the
//! paper's Fig. 10 baseline is compression-without-PEDAL, not
//! no-compression) — but the *relative penalty* of compressing shrinks by
//! orders of magnitude with message size, which is exactly why the
//! RNDV-only policy confines compression to large messages: small ones
//! pay a catastrophic per-message latency multiple for nothing.

use super::{ping_pong_ns, raw_ping_pong_ns};
use crate::{banner, dataset, outln, Artifacts, Table};
use pedal::{Datatype, Design};
use pedal_codesign::PedalCommConfig;
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A2", "RNDV-only compression: where the crossover sits");
    let corpus = dataset(DatasetId::SilesiaMozilla);
    let sizes = [
        4 * 1024usize,
        16 * 1024,
        64 * 1024,
        256 * 1024,
        1 << 20,
        4 << 20,
        16 << 20,
        usize::min(48 << 20, corpus.len()),
    ];
    for platform in Platform::ALL {
        outln!(out, "[{}]", platform.name());
        let mut t = Table::new(vec!["Msg(KB)", "Compressed(us)", "Uncompressed(us)", "Penalty"]);
        let mut penalties = Vec::new();
        for &size in &sizes {
            let chunk = &corpus[..size.min(corpus.len())];
            // Threshold 0: force compression even for tiny messages.
            let cfg = PedalCommConfig::new(Design::CE_DEFLATE).with_rndv_threshold(0);
            let on = ping_pong_ns(platform, cfg, Datatype::Byte, chunk);
            let off = raw_ping_pong_ns(platform, chunk);
            let penalty = on as f64 / off as f64;
            penalties.push(penalty);
            t.row(vec![
                format!("{}", size / 1024),
                format!("{:.1}", on as f64 / 1e3),
                format!("{:.1}", off as f64 / 1e3),
                format!("{penalty:.0}x"),
            ]);
        }
        t.print(out);
        let (small, large) = (penalties[0], penalties[penalties.len() - 1]);
        if large < small {
            outln!(
                out,
                "Penalty shrinks {small:.0}x -> {large:.0}x from 4 KB to the full corpus:\n\
                 compressing Eager-class messages costs orders of magnitude for no\n\
                 benefit, hence the paper's RNDV-only policy. (Raw always wins on an\n\
                 idle fat link; see osu_bw for the link-speed crossover.)\n"
            );
        } else {
            outln!(
                out,
                "Penalty grows {small:.0}x -> {large:.0}x with size: this platform's engine\n\
                 cannot compress, so large messages fall back to slow SoC DEFLATE —\n\
                 the BF3 anomaly of Fig. 10 in its starkest form.\n"
            );
        }
    }
    Ok(())
}
