//! Regenerates Figure 11: MPI_Bcast over four nodes with compression, for
//! small (5.1 MB), medium (20.6 MB), and large (48.8 MB) messages, on both
//! BlueField generations, versus the per-message-init baseline.

use crate::{banner, dataset, dataset_datatype, outln, Artifacts, Table};
use pedal::{Design, OverheadMode};
use pedal_codesign::{PedalComm, PedalCommConfig};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;
use pedal_mpi::{run_world, RankCtx, WorldConfig};

/// Virtual time of a 4-node compressed broadcast (slowest rank's finish).
fn bcast_ns(
    platform: Platform,
    design: Design,
    mode: OverheadMode,
    data: &[u8],
    datatype: pedal::Datatype,
) -> u64 {
    let payload = data.to_vec();
    let results = run_world(WorldConfig::new(4, platform), move |mpi: &mut RankCtx| {
        let mut cfg = PedalCommConfig::new(design);
        cfg.overhead_mode = mode;
        let (mut comm, _) = PedalComm::init(mpi, cfg).unwrap();
        let mut finish = 0u64;
        for it in 0..2 {
            // Fresh epoch per iteration: measure from a synchronized start.
            let root_data = if mpi.rank == 0 { Some(&payload[..]) } else { None };
            let t0 = mpi.now();
            let (_, done) = comm.bcast(mpi, 0, datatype, root_data, payload.len()).unwrap();
            if it == 1 {
                finish = done.elapsed_since(t0).as_nanos();
            }
            pedal_mpi::barrier(mpi).unwrap();
        }
        finish
    });
    results.into_iter().max().unwrap()
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Figure 11", "MPI_Bcast over 4 nodes (ms; * = runs on C-Engine)");
    // The paper's small/medium/large sizes map to xml/samba/mozilla.
    let sizes = [DatasetId::SilesiaXml, DatasetId::SilesiaSamba, DatasetId::SilesiaMozilla];
    let lossy = DatasetId::Exaalt1;

    let mut best_speedup: f64 = 0.0;
    let mut bf3_soc_reductions: Vec<f64> = Vec::new();

    for platform in Platform::ALL {
        outln!(out, "[{}]", platform.name());
        let mut t = Table::new(vec![
            "Design",
            "5.1MB(xml)",
            "20.6MB(samba)",
            "48.8MB(mozilla)",
            "10MB(exaalt)",
        ]);
        let bcast = |design, mode, id| {
            bcast_ns(platform, design, mode, dataset(id), dataset_datatype(id))
        };
        // (design, dataset, ns) of every PEDAL broadcast, reused by the
        // baseline comparisons below.
        let mut measured = Vec::new();
        for design in Design::ALL {
            let mut row = vec![format!(
                "{}{}",
                design.name(),
                if design.placement == pedal_dpu::Placement::CEngine { " *" } else { "" }
            )];
            for id in sizes.into_iter().chain([lossy]) {
                if design.is_lossy() != id.is_lossy_dataset() {
                    row.push("-".into());
                    continue;
                }
                let ns = bcast(design, OverheadMode::Pedal, id);
                measured.push((design, id, ns));
                row.push(format!("{:.2}", ns as f64 / 1e6));
            }
            t.row(row);
        }
        // Baseline row (per-message init, C-Engine DEFLATE family).
        let mut row = vec!["Baseline(per-msg init)".to_string()];
        for id in sizes {
            let base = bcast(Design::CE_DEFLATE, OverheadMode::Baseline, id);
            row.push(format!("{:.2}", base as f64 / 1e6));
            let pedal = |design| {
                measured.iter().find(|m| m.0 == design && m.1 == id).expect("measured above").2
            };
            match platform {
                Platform::BlueField2 => {
                    best_speedup = best_speedup.max(base as f64 / pedal(Design::CE_DEFLATE) as f64)
                }
                Platform::BlueField3 => {
                    bf3_soc_reductions.push(1.0 - pedal(Design::SOC_DEFLATE) as f64 / base as f64)
                }
            }
        }
        row.push("-".into());
        t.row(row);
        t.print(out);
        outln!(out);
    }

    outln!(out, "BF2 C-Engine vs baseline: up to {best_speedup:.1}x (paper: up to 68x)");
    let avg = bf3_soc_reductions.iter().sum::<f64>() / bf3_soc_reductions.len().max(1) as f64;
    outln!(
        out,
        "BF3 SoC average broadcast-time reduction vs baseline: {:.1}% (paper: ~49%)",
        avg * 100.0
    );
    Ok(())
}
