//! Cross-crate integration: datasets through codecs, PEDAL, DOCA sim, and
//! the MPI runtime, including failure paths and cross-platform messaging.

use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_datasets::DatasetId;
use pedal_dpu::{Platform, SimDuration};
use pedal_mpi::{run_world, WorldConfig};

#[test]
fn every_dataset_roundtrips_through_every_compatible_design() {
    for id in DatasetId::ALL {
        let data = id.generate_bytes(300_000);
        for design in Design::ALL {
            if design.is_lossy() != id.is_lossy_dataset() {
                continue;
            }
            let datatype = if design.is_lossy() { Datatype::Float32 } else { Datatype::Byte };
            for platform in Platform::ALL {
                let ctx = PedalContext::init(PedalConfig::new(platform, design)).unwrap();
                let packed = ctx.compress(datatype, &data).unwrap();
                let out = ctx.decompress(&packed.payload, data.len()).unwrap();
                if design.is_lossy() {
                    for (a, b) in data.chunks_exact(4).zip(out.data.chunks_exact(4)) {
                        let x = f32::from_le_bytes(a.try_into().unwrap());
                        let y = f32::from_le_bytes(b.try_into().unwrap());
                        assert!(
                            ((x - y).abs() as f64) <= 1e-4,
                            "{} via {design} on {platform:?}",
                            id.name()
                        );
                    }
                } else {
                    assert_eq!(out.data, data, "{} via {design} on {platform:?}", id.name());
                }
            }
        }
    }
}

#[test]
fn bf2_sender_bf3_receiver_and_back() {
    // Heterogeneous cluster: BF2 compresses on its engine; BF3 decompresses
    // on its engine. The wire format is platform-independent.
    let data = DatasetId::SilesiaXml.generate_bytes(500_000);
    let bf2 =
        PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE)).unwrap();
    let bf3 =
        PedalContext::init(PedalConfig::new(Platform::BlueField3, Design::CE_DEFLATE)).unwrap();

    let packed = bf2.compress(Datatype::Byte, &data).unwrap();
    assert!(!packed.fell_back, "BF2 engine compresses DEFLATE");
    let out = bf3.decompress(&packed.payload, data.len()).unwrap();
    assert!(!out.fell_back, "BF3 engine decompresses DEFLATE");
    assert_eq!(out.data, data);

    // Reverse direction: BF3 must fall back to its SoC for compression.
    let packed = bf3.compress(Datatype::Byte, &data).unwrap();
    assert!(packed.fell_back);
    let out = bf2.decompress(&packed.payload, data.len()).unwrap();
    assert_eq!(out.data, data);
}

#[test]
fn eight_rank_ring_with_mixed_payloads() {
    let results = run_world(WorldConfig::new(8, Platform::BlueField3), |mpi| {
        use pedal_mpi::Bytes;
        // Each rank passes a rank-specific payload around the ring.
        let mine: Vec<u8> = DatasetId::SilesiaSamba.generate_bytes(64 * 1024 + mpi.rank * 1000);
        let next = (mpi.rank + 1) % mpi.size;
        let prev = (mpi.rank + mpi.size - 1) % mpi.size;
        mpi.send(next, 9, Bytes::from(mine.clone())).unwrap();
        let (got, _) = mpi.recv(prev, 9).unwrap();
        (mine.len(), got.len())
    });
    for (rank, (sent, got)) in results.iter().enumerate() {
        let prev = (rank + 8 - 1) % 8;
        assert_eq!(*got, 64 * 1024 + prev * 1000, "rank {rank} got wrong size");
        assert_eq!(*sent, 64 * 1024 + rank * 1000);
    }
}

#[test]
fn engine_contention_serializes_virtual_time() {
    // Two compression jobs submitted to one DPU's engine at the same
    // instant must not overlap in virtual time.
    use pedal_doca::{CompressJob, DocaContext, JobKind};
    use pedal_dpu::SimInstant;
    let ctx = DocaContext::open(Platform::BlueField2).unwrap();
    let data = DatasetId::SilesiaMozilla.generate_bytes(4_000_000);
    let (r1, t1) =
        ctx.submit(CompressJob::new(JobKind::DeflateCompress, &data), SimInstant::EPOCH).unwrap();
    let (r2, t2) =
        ctx.submit(CompressJob::new(JobKind::DeflateCompress, &data), SimInstant::EPOCH).unwrap();
    assert_eq!(t2.0, r1.service_time.as_nanos() + r2.service_time.as_nanos());
    assert!(t2 > t1);
}

#[test]
fn sz3_streams_survive_the_wire_and_identify_themselves() {
    // The sealed SZ3 stream inside a PEDAL message is self-describing:
    // decompression works with only the payload + expected length.
    let data = DatasetId::Exaalt3.generate_bytes(200_000);
    let sender =
        PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_SZ3)).unwrap();
    let receiver =
        PedalContext::init(PedalConfig::new(Platform::BlueField3, Design::SOC_DEFLATE)).unwrap();
    let packed = sender.compress(Datatype::Float32, &data).unwrap();
    let out = receiver.decompress(&packed.payload, data.len()).unwrap();
    assert_eq!(out.data.len(), data.len());
}

#[test]
fn corrupted_wire_payloads_never_panic() {
    let data = DatasetId::SilesiaXml.generate_bytes(100_000);
    let ctx = PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_ZLIB)).unwrap();
    let packed = ctx.compress(Datatype::Byte, &data).unwrap().payload;
    // Flip every 97th byte, one at a time, including the header.
    for i in (0..packed.len()).step_by(97) {
        let mut bad = packed.clone();
        bad[i] ^= 0x5A;
        let _ = ctx.decompress(&bad, data.len()); // must return, not panic
    }
    // Truncations.
    for cut in [0, 1, 2, 3, 7, packed.len() / 2, packed.len() - 1] {
        let _ = ctx.decompress(&packed[..cut], data.len());
    }
}

#[test]
fn init_report_scales_with_pool_configuration() {
    let small = PedalContext::init(PedalConfig {
        pool_buffers: 1,
        pool_capacity: 1 << 20,
        ..PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE)
    })
    .unwrap();
    let large = PedalContext::init(PedalConfig {
        pool_buffers: 8,
        pool_capacity: 16 << 20,
        ..PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE)
    })
    .unwrap();
    assert!(large.init_report().pool_prealloc > small.init_report().pool_prealloc);
    assert_eq!(large.init_report().doca_init, small.init_report().doca_init);
    assert!(small.init_report().doca_init >= SimDuration::from_millis(50));
}
