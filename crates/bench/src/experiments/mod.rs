//! Every experiment of the reproduction, one module each. An experiment
//! writes its table text and named files into an [`crate::Artifacts`]
//! sink and returns `Err` when one of its gates fails; `repro` runs the
//! [`ALL`] table (see DESIGN.md §3 for which paper artifact each one is).

use crate::repro::Experiment;
use pedal::Datatype;
use pedal_codesign::{PedalComm, PedalCommConfig};
use pedal_dpu::Platform;
use pedal_fleet::{FleetConfig, NodeSpec};
use pedal_mpi::{run_world, Bytes, RankCtx, WorldConfig};

/// Declares each experiment module and lists it in [`ALL`] under its own
/// name, so an experiment's name, module and `results/<name>.txt` agree.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every experiment, slowest first so that the runner's threads
        /// finish close together.
        pub const ALL: &[Experiment] = &[$((stringify!($name), $name::run)),*];
    };
}

experiments! {
    fig10_p2p_latency, fig8_comp_decomp_time, fig11_bcast, fig7_lossless_breakdown,
    ablation_host_offload, ablation_pool, ablation_rndv, table5_ratios, fig9_lossy_breakdown,
    ablation_hybrid, ablation_sz3_backend, ablation_pco, ablation_par, ablation_streaming,
    ablation_service, ablation_fleet, ablation_adaptive, ablation_contention, osu_bw, obs_smoke,
    tables_1_2_3,
}

/// 16 MiB of silesia/xml, repeated: the large single message of the
/// fan-out and streaming experiments.
fn xml_16mib() -> Vec<u8> {
    let corpus = crate::dataset(pedal_datasets::DatasetId::SilesiaXml);
    corpus.iter().cycle().take(16 << 20).copied().collect()
}

/// The heterogeneous fleet of the fleet and adaptive experiments.
fn bf2_bf3_fleet() -> FleetConfig {
    FleetConfig::new(vec![NodeSpec::bf2(), NodeSpec::bf3()])
}

/// One-way virtual latency of a compressed ping-pong of `data` between
/// two ranks, measured at steady state (the second of two iterations).
fn ping_pong_ns(platform: Platform, cfg: PedalCommConfig, datatype: Datatype, data: &[u8]) -> u64 {
    let results = run_world(WorldConfig::new(2, platform), |mpi: &mut RankCtx| {
        let (mut comm, _) = PedalComm::init(mpi, cfg).unwrap();
        if mpi.rank == 0 {
            let mut measured = 0u64;
            for it in 0..2u64 {
                let t0 = mpi.now();
                comm.send(mpi, 1, it, datatype, data).unwrap();
                let (_, done) = comm.recv(mpi, 1, 100 + it, data.len()).unwrap();
                if it == 1 {
                    measured = done.elapsed_since(t0).as_nanos() / 2;
                }
            }
            measured
        } else {
            for it in 0..2u64 {
                let (msg, _) = comm.recv(mpi, 0, it, data.len()).unwrap();
                comm.send(mpi, 0, 100 + it, datatype, &msg).unwrap();
            }
            0
        }
    });
    results[0]
}

/// One-way virtual latency of a plain (uncompressed) ping-pong of `data`.
fn raw_ping_pong_ns(platform: Platform, data: &[u8]) -> u64 {
    let payload = Bytes::from(data.to_vec());
    let results = run_world(WorldConfig::new(2, platform), move |mpi: &mut RankCtx| {
        if mpi.rank == 0 {
            let t0 = mpi.now();
            mpi.send(1, 1, payload.clone()).unwrap();
            let (_, done) = mpi.recv(1, 2).unwrap();
            done.elapsed_since(t0).as_nanos() / 2
        } else {
            let (msg, _) = mpi.recv(0, 1).unwrap();
            mpi.send(0, 2, msg).unwrap();
            0
        }
    });
    results[0]
}
