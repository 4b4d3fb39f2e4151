//! Direct use of the simulated DOCA layer: open both BlueField generations,
//! query engine capabilities, and submit compression jobs — showing the
//! capability differences (Table II) and PEDAL's SoC fallback behaviour.
//!
//! Run with: `cargo run -p pedal-examples --bin dpu_offload_demo`

use pedal_doca::{CompressJob, DocaContext, DocaError, JobKind};
use pedal_dpu::{Platform, SimInstant};

fn main() {
    let data = pedal_datasets::DatasetId::SilesiaSamba.generate_bytes(1_000_000);

    for platform in Platform::ALL {
        let spec = platform.spec();
        println!(
            "=== {} ({} x {} @ {} GHz, {}, {} Gb/s {}) ===",
            platform.name(),
            spec.soc_cores,
            spec.core_model,
            spec.core_ghz,
            spec.dram,
            spec.network_gbps,
            spec.nic,
        );
        let ctx = DocaContext::open(platform).expect("device open");
        println!("DOCA init cost (prepaid by PEDAL_init): {:.1} ms", ctx.init_cost.as_millis_f64());

        for kind in [
            JobKind::DeflateCompress,
            JobKind::DeflateDecompress,
            JobKind::Lz4Compress,
            JobKind::Lz4Decompress,
        ] {
            print!("  {kind:?}: ");
            if !ctx.supports(kind) {
                println!("unsupported by this C-Engine (PEDAL falls back to the SoC)");
                continue;
            }
            // Decompress jobs need an input produced on the SoC first.
            let encoded = match kind {
                JobKind::DeflateCompress | JobKind::Lz4Compress => None,
                JobKind::DeflateDecompress => {
                    Some(pedal_deflate::compress(&data, pedal_deflate::Level::DEFAULT))
                }
                JobKind::Lz4Decompress => Some(pedal_lz4::compress_block(&data, 1)),
            };
            let mut job = CompressJob::new(kind, encoded.as_deref().unwrap_or(&data));
            if encoded.is_some() {
                job = job.with_expected_len(data.len());
            }
            match ctx.submit(job, SimInstant::EPOCH) {
                Ok((result, done)) => println!(
                    "{} -> {} bytes in {:.3} ms (engine time), done at t={:.3} ms",
                    data.len(),
                    result.output.len(),
                    result.service_time.as_millis_f64(),
                    done.0 as f64 / 1e6,
                ),
                Err(DocaError::Capability(e)) => println!("capability error: {e}"),
                Err(e) => println!("error: {e}"),
            }
        }
        println!();
    }

    println!(
        "BlueField-3 dropped engine-side compression — the asymmetry PEDAL's\n\
         capability detection and SoC fallback are built around."
    );
}
