//! Regenerates Figure 7: time distribution (DOCA init, buffer preparation,
//! compression, decompression) for the six lossless designs over the five
//! lossless datasets, on BlueField-2 and BlueField-3.
//!
//! This is the paper's *characterization* figure: the raw designs run
//! without PEDAL's pooling, so every run pays initialization — exactly the
//! overhead PEDAL then eliminates (compare `fig10_p2p_latency`).

use crate::{banner, dataset, fmt_ms, outln, run_design, Artifacts, Table};
use pedal::{Datatype, Design, OverheadMode};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Figure 7", "Lossless time distribution (characterization, per-run init)");
    for platform in Platform::ALL {
        outln!(out, "--- {} ---", platform.name());
        let mut t = Table::new(vec![
            "Design",
            "Dataset",
            "DOCA_Init(ms)",
            "BufPrep(ms)",
            "Compress(ms)",
            "Decompress(ms)",
            "Total(ms)",
            "Init+Prep%",
        ]);
        // Headline: total C-Engine vs SoC speedup for DEFLATE (paper: up to
        // 9.67x on BF2 including initialization). SoC DEFLATE runs first.
        let mut soc_deflate = [0u64; DatasetId::LOSSLESS.len()];
        let mut max_speedup: f64 = 0.0;
        for design in Design::LOSSLESS {
            for (i, id) in DatasetId::LOSSLESS.into_iter().enumerate() {
                let mode = OverheadMode::Baseline;
                let sum = run_design(platform, design, mode, dataset(id), Datatype::Byte)
                    .characterization();
                let total = sum.total().as_nanos();
                if design == Design::SOC_DEFLATE {
                    soc_deflate[i] = total;
                } else if design == Design::CE_DEFLATE {
                    max_speedup = max_speedup.max(soc_deflate[i] as f64 / total as f64);
                }
                t.row(vec![
                    design.name().to_string(),
                    id.name().to_string(),
                    fmt_ms(sum.doca_init),
                    fmt_ms(sum.buffer_prep),
                    fmt_ms(sum.compress),
                    fmt_ms(sum.decompress),
                    fmt_ms(sum.total()),
                    format!("{:.1}%", sum.overhead_fraction() * 100.0),
                ]);
            }
        }
        t.print(out);
        outln!(
            out,
            "DEFLATE total C-Engine-vs-SoC speedup (incl. init): up to {max_speedup:.2}x \
             (paper BF2: up to 9.67x)\n"
        );
    }
    Ok(())
}
