//! Ablation A5: deployment study from the paper's §VI — MPI on the DPU
//! (the evaluated configuration) versus MPI on the host with compression
//! offloaded to the DPU, where every message pays PCIe DMA. Also shows how
//! chunk-pipelined DMA ("evaluating computation and communication
//! overlaps, along with pipeline designs") recovers most of the loss.

use super::ping_pong_ns;
use crate::{banner, dataset, outln, Artifacts, Table};
use pedal::{Datatype, Design};
use pedal_codesign::{Deployment, PedalCommConfig};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;

pub fn run(out: &mut Artifacts) -> Result<(), String> {
    banner(out, "Ablation A5", "Deployment: MPI on DPU vs host-offload (p2p, ms)");
    let corpus = dataset(DatasetId::SilesiaMozilla);
    let deployments = [
        Deployment::OnDpu,
        Deployment::HostOffload { pipelined: false },
        Deployment::HostOffload { pipelined: true },
    ];
    for platform in Platform::ALL {
        outln!(out, "[{}]", platform.name());
        let mut t = Table::new(vec![
            "Msg(MB)",
            "MPI-on-DPU",
            "Host-offload serial",
            "Host-offload pipelined",
            "Serial penalty",
        ]);
        let mut sizes = vec![1_000_000usize, 4_000_000, 16_000_000];
        sizes.retain(|&s| s < corpus.len());
        sizes.push(corpus.len());
        for size in sizes {
            let chunk = &corpus[..size];
            let vals: Vec<u64> = deployments
                .iter()
                .map(|&d| {
                    let cfg = PedalCommConfig::new(Design::CE_DEFLATE).with_deployment(d);
                    ping_pong_ns(platform, cfg, Datatype::Byte, chunk)
                })
                .collect();
            t.row(vec![
                format!("{:.1}", size as f64 / 1e6),
                format!("{:.3}", vals[0] as f64 / 1e6),
                format!("{:.3}", vals[1] as f64 / 1e6),
                format!("{:.3}", vals[2] as f64 / 1e6),
                format!("+{:.1}%", (vals[1] as f64 / vals[0] as f64 - 1.0) * 100.0),
            ]);
        }
        t.print(out);
        outln!(out);
    }
    out.line(
        "Host-offload pays one PCIe DMA of the *raw* buffer per side; pipelining\n\
         overlaps DMA with (de)compression and recovers most of the penalty —\n\
         quantifying the paper's SVI guidance on balancing computation against\n\
         host-DPU data movement."
    );
    Ok(())
}
