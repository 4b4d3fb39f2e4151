//! Regenerates Figure 8: pure compression and decompression times of the
//! lossless designs under PEDAL (initialization prepaid, pooled buffers),
//! across datasets and both BlueField generations, plus the paper's
//! headline speedup call-outs.

use crate::{banner, dataset, fmt_ms, outln, run_design, Artifacts, Table};
use pedal::{Datatype, Design, OverheadMode};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Figure 8", "Compression/decompression time under PEDAL (steady state)");
    let mut runs = std::collections::HashMap::new();
    for platform in Platform::ALL {
        outln!(out, "--- {} ---", platform.name());
        let mut t = Table::new(vec![
            "Design",
            "Dataset",
            "Size(MB)",
            "Compress(ms)",
            "Decompress(ms)",
            "Fallback",
        ]);
        for design in Design::LOSSLESS {
            for id in DatasetId::LOSSLESS {
                let data = dataset(id);
                let run = run_design(platform, design, OverheadMode::Pedal, data, Datatype::Byte);
                t.row(vec![
                    design.name().to_string(),
                    id.name().to_string(),
                    format!("{:.2}", data.len() as f64 / 1e6),
                    fmt_ms(run.compress.compress + run.compress.checksum),
                    fmt_ms(run.decompress.decompress + run.decompress.checksum),
                    match (run.fell_back_compress, run.fell_back_decompress) {
                        (true, true) => "comp+decomp",
                        (true, false) => "comp",
                        (false, true) => "decomp",
                        (false, false) => "",
                    }
                    .to_string(),
                ]);
                runs.insert((platform, design, id), run);
            }
        }
        t.print(out);
        outln!(out);
    }

    outln!(out, "Headline comparisons (paper values in parentheses):");
    let g = |p, d, i: DatasetId| runs.get(&(p, d, i)).copied().unwrap();
    let ms = |t: pedal::TimingBreakdown| t.total().as_millis_f64();

    let soc = g(Platform::BlueField2, Design::SOC_DEFLATE, DatasetId::SilesiaXml);
    let ce = g(Platform::BlueField2, Design::CE_DEFLATE, DatasetId::SilesiaXml);
    outln!(out,
        "  BF2 C-Engine vs SoC, DEFLATE @5.1MB:   compress {:.1}x (101.8x), decompress {:.1}x (11.2x)",
        ms(soc.compress) / ms(ce.compress),
        ms(soc.decompress) / ms(ce.decompress),
    );
    let soc = g(Platform::BlueField2, Design::SOC_ZLIB, DatasetId::SilesiaMozilla);
    let ce = g(Platform::BlueField2, Design::CE_ZLIB, DatasetId::SilesiaMozilla);
    outln!(
        out,
        "  BF2 C-Engine vs SoC, zlib @48.84MB:    compress {:.1}x (84.6x), decompress {:.1}x (20x)",
        ms(soc.compress) / ms(ce.compress),
        ms(soc.decompress) / ms(ce.decompress),
    );
    let b2s = g(Platform::BlueField2, Design::CE_DEFLATE, DatasetId::SilesiaXml);
    let b3s = g(Platform::BlueField3, Design::CE_DEFLATE, DatasetId::SilesiaXml);
    let b2l = g(Platform::BlueField2, Design::CE_DEFLATE, DatasetId::SilesiaMozilla);
    let b3l = g(Platform::BlueField3, Design::CE_DEFLATE, DatasetId::SilesiaMozilla);
    outln!(
        out,
        "  BF3 vs BF2 C-Engine DEFLATE decompress: {:.2}x @5.1MB (1.78x), {:.2}x @48.84MB (1.28x)",
        ms(b2s.decompress) / ms(b3s.decompress),
        ms(b2l.decompress) / ms(b3l.decompress),
    );
    Ok(())
}
