//! Ablation A3: SZ3's lossless-backend choice (paper §V-C2: the BF3
//! redirect is slow *because* "the DEFLATE design is less optimized than
//! SZ3's inherent zstandard compressor in compression latency").
//!
//! Sweeps the backend across the exaalt datasets, reporting virtual time
//! (cost model) and achieved ratio (real compression of real bytes).

use crate::{banner, dataset, fmt_ms, outln, Artifacts, Table};
use pedal_datasets::DatasetId;
use pedal_dpu::{Algorithm, CostModel, Direction, Platform};
use pedal_sz3::{BackendKind, Dims, Field, Sz3Config};

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A3", "SZ3 lossless-backend choice (SoC, BlueField-3)");
    let costs = CostModel::for_platform(Platform::BlueField3);
    let mut t = Table::new(vec![
        "Dataset",
        "Backend",
        "Core(ms)",
        "Backend(ms)",
        "Total comp(ms)",
        "Ratio",
    ]);
    for id in DatasetId::LOSSY {
        let bytes = dataset(id);
        let n = bytes.len() / 4;
        let field = Field::<f32>::from_bytes(Dims::d1(n), &bytes[..n * 4]);
        // The core stream does not depend on the backend that seals it.
        let (core, stats) = pedal_sz3::encode_core(&field, &Sz3Config::with_error_bound(1e-4));
        for backend in [
            BackendKind::Zs,
            BackendKind::Deflate,
            BackendKind::Lz4,
            BackendKind::Pco,
            BackendKind::None,
        ] {
            let sealed = pedal_sz3::seal(&core, backend);
            let core_t = costs.sz3_core(Direction::Compress, stats.input_bytes);
            let backend_t = match backend {
                BackendKind::Zs | BackendKind::Lz4 | BackendKind::None => {
                    costs.sz3_zs_backend(Direction::Compress, core.len())
                }
                BackendKind::Deflate => {
                    costs.soc_lossless(Algorithm::Deflate, Direction::Compress, core.len())
                }
                BackendKind::Pco => {
                    costs.soc_lossless(Algorithm::Pco, Direction::Compress, core.len())
                }
            };
            t.row(vec![
                id.name().to_string(),
                format!("{backend:?}"),
                fmt_ms(core_t),
                fmt_ms(backend_t),
                fmt_ms(core_t + backend_t),
                format!("{:.3}", bytes.len() as f64 / sealed.len() as f64),
            ]);
        }
    }
    t.print(out);
    outln!(out);
    out.line(
        "The DEFLATE backend's compression latency dominates the SZ3 pipeline when\n\
         the engine cannot take it (BF3) — the paper's explanation for the SoC\n\
         design beating the C-Engine design by up to 1.58x in Fig. 9."
    );
    Ok(())
}
