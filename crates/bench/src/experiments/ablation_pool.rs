//! Ablation A1: what PEDAL's memory pool buys (paper §III-C: the pool
//! "eliminate\[s\] the frequent need for memory allocation, deallocation,
//! and mapping ... during each compression and decompression execution").
//!
//! Compares steady-state per-message cost with the pool (PEDAL) against
//! per-message allocation+mapping (baseline), separating the DOCA-init
//! component from the buffer component.

use crate::{banner, dataset, dataset_datatype, fmt_ms, outln, run_design, Artifacts, Table};
use pedal::{Design, OverheadMode};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A1", "Memory pool on/off, per-message overhead decomposition");
    let mut t = Table::new(vec![
        "Platform",
        "Design",
        "Dataset",
        "Pool prep(ms)",
        "Unpooled prep(ms)",
        "Unpooled init(ms)",
        "Op time(ms)",
        "Overhead x",
    ]);
    let runs = [
        (Design::CE_DEFLATE, DatasetId::SilesiaXml),
        (Design::CE_DEFLATE, DatasetId::SilesiaMozilla),
        (Design::SOC_DEFLATE, DatasetId::SilesiaXml),
        (Design::SOC_DEFLATE, DatasetId::SilesiaMozilla),
        (Design::SOC_SZ3, DatasetId::Exaalt1),
    ];
    for platform in Platform::ALL {
        for (design, id) in runs {
            let datatype = dataset_datatype(id);
            let pooled = run_design(platform, design, OverheadMode::Pedal, dataset(id), datatype);
            let unpooled =
                run_design(platform, design, OverheadMode::Baseline, dataset(id), datatype);
            let p = pooled.total();
            let u = unpooled.total();
            t.row(vec![
                platform.short_name().to_string(),
                design.name().to_string(),
                id.name().to_string(),
                fmt_ms(p.buffer_prep),
                fmt_ms(u.buffer_prep),
                fmt_ms(u.doca_init),
                fmt_ms(p.compress + p.decompress + p.checksum),
                format!("{:.1}x", u.total().as_nanos() as f64 / p.total().as_nanos() as f64),
            ]);
        }
    }
    t.print(out);
    outln!(out);
    out.line(
        "\"Overhead x\" = baseline total / PEDAL total per message. The pool turns\n\
         per-message init+mapping into a one-time PEDAL_init cost."
    );
    Ok(())
}
