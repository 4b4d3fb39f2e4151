//! Regenerates Figure 9: time distribution for the lossy (SZ3) designs on
//! BlueField-2/3 across the three exaalt datasets.
//!
//! Reproduced observations:
//! * BF2: SoC and C-Engine totals are comparable (the lossless stage is
//!   off the critical path).
//! * BF3: the SoC design is up to ~1.58x faster than the C-Engine design,
//!   because the engine cannot compress and the fallback SoC DEFLATE is
//!   slower than SZ3's native backend.

use crate::{banner, dataset, fmt_ms, outln, run_design, Artifacts, Table};
use pedal::{Datatype, Design, OverheadMode};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Figure 9", "Lossy (SZ3) time distribution, characterization mode");
    for platform in Platform::ALL {
        outln!(out, "--- {} ---", platform.name());
        let mut t = Table::new(vec![
            "Design",
            "Dataset",
            "Alloc/Prep(ms)",
            "Compress(ms)",
            "Decompress(ms)",
            "Total(ms)",
        ]);
        let mut worst: f64 = 0.0;
        for id in DatasetId::LOSSY {
            let [soc, ce] = [Design::SOC_SZ3, Design::CE_SZ3].map(|design| {
                run_design(platform, design, OverheadMode::Baseline, dataset(id), Datatype::Float32)
            });
            for (design, run) in [(Design::SOC_SZ3, soc), (Design::CE_SZ3, ce)] {
                let sum = run.characterization();
                t.row(vec![
                    design.name().to_string(),
                    id.name().to_string(),
                    fmt_ms(sum.doca_init + sum.buffer_prep),
                    fmt_ms(sum.compress),
                    fmt_ms(sum.decompress),
                    fmt_ms(sum.total()),
                ]);
            }
            let rel = ce.characterization().total().as_nanos() as f64
                / soc.characterization().total().as_nanos() as f64;
            worst = worst.max(rel);
        }
        t.print(out);
        match platform {
            Platform::BlueField2 => outln!(out,
                "BF2: C-Engine/SoC total ratio stays near 1 (paper: \"comparable\"), worst {worst:.2}x\n"
            ),
            Platform::BlueField3 => outln!(out,
                "BF3: SoC is up to {worst:.2}x faster than the C-Engine design (paper: up to 1.58x)\n"
            ),
        }
    }
    Ok(())
}
