//! Ablation A4: parallel and hybrid SoC+C-Engine compression — the
//! forward-looking designs the paper sketches (§IV "parallel compression
//! and decompression"; §V-C2 "hybrid design avenue for exploiting both SoC
//! and C-Engine in parallel").
//!
//! Sweeps core counts and placement strategies for chunked DEFLATE over a
//! large dataset, reporting the virtual makespan of each configuration.

use crate::{banner, dataset, fmt_ms, outln, Artifacts, Table};
use pedal::parallel::{
    bottleneck, compress_chunked, decompress_chunked, sequential_time, strategy_name,
    ParallelStrategy, DEFAULT_CHUNK,
};
use pedal_datasets::DatasetId;
use pedal_doca::DocaContext;
use pedal_dpu::{Direction, Platform};

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A4", "Parallel / hybrid chunked DEFLATE (1 MiB chunks)");
    let data = dataset(DatasetId::SilesiaMozilla);
    outln!(
        out,
        "input: {} ({:.1} MB)\n",
        DatasetId::SilesiaMozilla.name(),
        data.len() as f64 / 1e6
    );

    for platform in Platform::ALL {
        let doca = DocaContext::open(platform).expect("doca");
        let cores_max = platform.spec().soc_cores;
        outln!(
            out,
            "[{}] sequential single-core compress: {} ms",
            platform.name(),
            fmt_ms(sequential_time(&doca.costs, Direction::Compress, data.len()))
        );
        let mut t = Table::new(vec![
            "Strategy",
            "Compress(ms)",
            "Engine share(ms)",
            "SoC share(ms)",
            "Bottleneck",
            "Decompress(ms)",
        ]);
        let mut strategies = vec![
            ParallelStrategy::SocParallel { cores: 1 },
            ParallelStrategy::SocParallel { cores: 2 },
            ParallelStrategy::SocParallel { cores: cores_max / 2 },
            ParallelStrategy::SocParallel { cores: cores_max },
            ParallelStrategy::Hybrid { soc_cores: cores_max },
        ];
        strategies.dedup();
        for strategy in strategies {
            doca.workq.reset();
            let c = compress_chunked(&doca, data, DEFAULT_CHUNK, strategy).expect("compress");
            doca.workq.reset();
            let d = decompress_chunked(&doca, &c.bytes, data.len(), strategy).expect("decompress");
            assert_eq!(d.bytes, data, "round-trip");
            let engine_usable = c.engine_time.as_nanos() > 0;
            t.row(vec![
                strategy_name(strategy, engine_usable),
                fmt_ms(c.makespan),
                fmt_ms(c.engine_time),
                fmt_ms(c.soc_time),
                bottleneck(&c).name().to_string(),
                fmt_ms(d.makespan),
            ]);
        }
        t.print(out);
        outln!(out);
    }
    out.line(
        "On BF2 the engine is faster than all SoC cores combined, so the hybrid\n\
         planner sends (nearly) everything to the engine; on BF3 (no engine\n\
         compression) hybrid degenerates to SoC-parallel — scaling with cores.\n\
         For decompression the planner genuinely mixes tracks."
    );
    Ok(())
}
