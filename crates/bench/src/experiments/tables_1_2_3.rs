//! Regenerates the paper's Tables I, II, and III: the selected algorithms,
//! the hardware capability matrix, and PEDAL's extended design matrix.

use crate::{banner, outln, Artifacts, Table};
use pedal::Design;
use pedal_dpu::{Algorithm, Direction, Placement, Platform};

/// One row per algorithm: on which platforms `engine(platform, algo,
/// direction)` says the C-Engine compresses and decompresses it.
fn engine_table(soc: &str, engine: impl Fn(Platform, Algorithm, Direction) -> bool) -> Table {
    let mut t =
        Table::new(vec!["Algorithm", soc, "C-Engine Compression", "C-Engine Decompression"]);
    for algo in Algorithm::ALL {
        let platforms = |dir| {
            let names: Vec<&str> = Platform::ALL
                .into_iter()
                .filter(|&p| engine(p, algo, dir))
                .map(|p| p.short_name())
                .collect();
            if names.is_empty() {
                "-".into()
            } else {
                names.join(", ")
            }
        };
        t.row(vec![
            algo.name().to_string(),
            "BF2, BF3".to_string(),
            platforms(Direction::Compress),
            platforms(Direction::Decompress),
        ]);
    }
    t
}

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Table I", "Compression designs and features");
    let mut t1 = Table::new(vec!["Algorithm", "Purpose", "Lossless", "Lossy"]);
    for algo in Algorithm::ALL {
        let purpose = if algo.is_lossy() {
            "Scientific Data Compression"
        } else if algo == Algorithm::Pco {
            "Numeric/Columnar Data Compression"
        } else {
            "General Data Compression"
        };
        t1.row(vec![
            algo.name().to_string(),
            purpose.to_string(),
            if algo.is_lossy() { "" } else { "x" }.to_string(),
            if algo.is_lossy() { "x" } else { "" }.to_string(),
        ]);
    }
    t1.print(out);

    outln!(out);
    banner(out, "Table II", "Algorithms supported by BlueField hardware");
    engine_table("SoC", |p, algo, dir| {
        // Table II is the *raw* hardware matrix: zlib/SZ3 have no native
        // engine support (that extension is PEDAL's, Table III), and pco
        // is a post-paper software codec no engine implements.
        let caps = p.spec().cengine;
        match (algo, dir) {
            (Algorithm::Deflate, Direction::Compress) => caps.deflate_compress,
            (Algorithm::Deflate, Direction::Decompress) => caps.deflate_decompress,
            (Algorithm::Lz4, Direction::Compress) => caps.lz4_compress,
            (Algorithm::Lz4, Direction::Decompress) => caps.lz4_decompress,
            _ => false,
        }
    })
    .print(out);

    outln!(out);
    banner(out, "Table III", "Designs supported by PEDAL (zlib/SZ3 extended onto the engine)");
    engine_table("SoC Core", |p, algo, dir| p.spec().cengine.supports(algo, dir)).print(out);

    outln!(out);
    outln!(out, "The eight PEDAL compression designs plus the pco extension (AlgoID on the wire):");
    let mut t4 = Table::new(vec!["AlgoID", "Design", "Algorithm", "Placement"]);
    for d in Design::EXTENDED {
        t4.row(vec![
            d.algo_id().to_string(),
            d.name().to_string(),
            d.algorithm.name().to_string(),
            match d.placement {
                Placement::Soc => "SoC",
                Placement::CEngine => "C-Engine",
            }
            .to_string(),
        ]);
    }
    t4.print(out);
    Ok(())
}
