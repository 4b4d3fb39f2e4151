//! Behavioural tests of the PEDAL context across all eight designs, both
//! platforms, and both overhead modes.

use pedal::{Datatype, Design, PedalConfig, PedalContext, PedalHeader};
use pedal_dpu::{Placement, Platform, SimDuration};

fn compressible_bytes(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    let words = [&b"alpha "[..], b"beta ", b"gamma ", b"delta "];
    let mut i = 0usize;
    while out.len() < n {
        out.extend_from_slice(words[i % words.len()]);
        i += 1;
    }
    out.truncate(n);
    out
}

fn float_bytes(n_elems: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n_elems * 4);
    for i in 0..n_elems {
        let v = (i as f32 * 0.001).sin() * 42.0;
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn ctx(platform: Platform, design: Design) -> PedalContext {
    PedalContext::init(PedalConfig::new(platform, design)).unwrap()
}

#[test]
fn lossless_designs_roundtrip_on_both_platforms() {
    let data = compressible_bytes(200_000);
    for platform in Platform::ALL {
        for design in Design::LOSSLESS {
            let c = ctx(platform, design);
            let packed = c.compress(Datatype::Byte, &data).unwrap();
            assert!(packed.wire_len() < data.len(), "{design} on {platform:?} did not shrink");
            let out = c.decompress(&packed.payload, data.len()).unwrap();
            assert_eq!(out.data, data, "{design} on {platform:?}");
        }
    }
}

#[test]
fn sz3_designs_respect_error_bound() {
    let data = float_bytes(50_000);
    for platform in Platform::ALL {
        for design in [Design::SOC_SZ3, Design::CE_SZ3] {
            let c = PedalContext::init(PedalConfig::new(platform, design).with_error_bound(1e-4))
                .unwrap();
            let packed = c.compress(Datatype::Float32, &data).unwrap();
            let out = c.decompress(&packed.payload, data.len()).unwrap();
            assert_eq!(out.data.len(), data.len());
            for (a, b) in data.chunks_exact(4).zip(out.data.chunks_exact(4)) {
                let x = f32::from_le_bytes(a.try_into().unwrap());
                let y = f32::from_le_bytes(b.try_into().unwrap());
                assert!(
                    ((x - y).abs() as f64) <= 1e-4,
                    "{design} on {platform:?}: |{x} - {y}| > 1e-4"
                );
            }
        }
    }
}

#[test]
fn sz3_designs_roundtrip_empty_fields() {
    for platform in Platform::ALL {
        for design in [Design::SOC_SZ3, Design::CE_SZ3] {
            let c = ctx(platform, design);
            for dt in [Datatype::Float32, Datatype::Float64] {
                let packed = c.compress(dt, &[]).unwrap();
                let out = c.decompress(&packed.payload, 0).unwrap();
                assert!(out.data.is_empty(), "{design} on {platform:?} ({dt:?})");
            }
        }
    }
}

#[test]
fn sz3_rejects_byte_datatype() {
    let c = ctx(Platform::BlueField2, Design::SOC_SZ3);
    let err = c.compress(Datatype::Byte, &[1, 2, 3, 4]).unwrap_err();
    assert!(matches!(err, pedal::PedalError::UnsupportedDatatype { .. }));
}

#[test]
fn sz3_rejects_misaligned_floats() {
    let c = ctx(Platform::BlueField2, Design::SOC_SZ3);
    let err = c.compress(Datatype::Float32, &[1, 2, 3]).unwrap_err();
    assert!(matches!(err, pedal::PedalError::MisalignedData { .. }));
}

#[test]
fn incompressible_data_passes_through() {
    let mut x = 0x9E3779B97F4A7C15u64;
    let data: Vec<u8> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect();
    let c = ctx(Platform::BlueField2, Design::SOC_LZ4);
    let packed = c.compress(Datatype::Byte, &data).unwrap();
    assert!(packed.passthrough, "random bytes should pass through");
    assert_eq!(PedalHeader::parse(&packed.payload).unwrap(), PedalHeader::Uncompressed);
    // Wire size: header + varint + raw.
    assert!(packed.wire_len() <= data.len() + 8);
    let out = c.decompress(&packed.payload, data.len()).unwrap();
    assert_eq!(out.data, data);
}

#[test]
fn header_identifies_design_on_the_wire() {
    let data = compressible_bytes(50_000);
    for design in Design::LOSSLESS {
        let c = ctx(Platform::BlueField2, design);
        let packed = c.compress(Datatype::Byte, &data).unwrap();
        assert_eq!(PedalHeader::parse(&packed.payload).unwrap(), PedalHeader::Compressed(design));
    }
}

#[test]
fn cross_design_decompression_via_header_dispatch() {
    // Receiver configured with a *different* design must still decode: the
    // header, not the local config, selects the decompressor (Fig. 5).
    let data = compressible_bytes(80_000);
    let sender = ctx(Platform::BlueField2, Design::CE_ZLIB);
    let receiver = ctx(Platform::BlueField3, Design::SOC_LZ4);
    let packed = sender.compress(Datatype::Byte, &data).unwrap();
    let out = receiver.decompress(&packed.payload, data.len()).unwrap();
    assert_eq!(out.data, data);
}

#[test]
fn bf3_ce_compression_falls_back_to_soc() {
    let data = compressible_bytes(100_000);
    let c = ctx(Platform::BlueField3, Design::CE_DEFLATE);
    let packed = c.compress(Datatype::Byte, &data).unwrap();
    assert!(packed.fell_back, "BF3 engine cannot compress; must fall back");
    assert_eq!(packed.placement, Placement::Soc);
    // Decompression does run on the BF3 engine.
    let out = c.decompress(&packed.payload, data.len()).unwrap();
    assert!(!out.fell_back);
    assert_eq!(out.placement, Placement::CEngine);
    assert_eq!(out.data, data);
}

#[test]
fn bf2_ce_lz4_falls_back_both_ways() {
    let data = compressible_bytes(60_000);
    let c = ctx(Platform::BlueField2, Design::CE_LZ4);
    let packed = c.compress(Datatype::Byte, &data).unwrap();
    assert!(packed.fell_back);
    let out = c.decompress(&packed.payload, data.len()).unwrap();
    assert!(out.fell_back);
    assert_eq!(out.placement, Placement::Soc);
    assert_eq!(out.data, data);
}

#[test]
fn ce_zlib_stream_is_spec_conformant() {
    // The split SoC/C-Engine zlib stream must decode with the plain zlib
    // decoder — byte-level format fidelity.
    let data = compressible_bytes(40_000);
    let c = ctx(Platform::BlueField2, Design::CE_ZLIB);
    let packed = c.compress(Datatype::Byte, &data).unwrap();
    // Strip PEDAL header + varint.
    let body = &packed.payload[3 + 3..]; // 40000 encodes as a 3-byte varint
    assert_eq!(pedal_zlib::decompress(body).unwrap(), data);
}

#[test]
fn baseline_mode_charges_init_every_message() {
    let data = compressible_bytes(500_000);
    let pedal_ctx = ctx(Platform::BlueField2, Design::CE_DEFLATE);
    let base_ctx =
        PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE).baseline())
            .unwrap();

    // Warm the PEDAL pool (first acquisition may be a miss).
    let _ = pedal_ctx.compress(Datatype::Byte, &data).unwrap();

    let p = pedal_ctx.compress(Datatype::Byte, &data).unwrap();
    let b = base_ctx.compress(Datatype::Byte, &data).unwrap();
    assert_eq!(p.timing.doca_init, SimDuration::ZERO);
    assert!(b.timing.doca_init >= SimDuration::from_millis(50));
    assert!(b.timing.total().as_nanos() > 10 * p.timing.total().as_nanos());
    // Same bytes on the wire regardless of overhead accounting.
    assert_eq!(p.payload, b.payload);
}

#[test]
fn pedal_init_prepays_overheads() {
    let c = ctx(Platform::BlueField2, Design::CE_DEFLATE);
    let report = c.init_report();
    assert!(report.doca_init >= SimDuration::from_millis(50));
    assert!(report.pool_prealloc > SimDuration::ZERO);
    // The context clock starts after the prepaid init.
    assert!(c.clock.now().0 >= report.total().as_nanos());
}

#[test]
fn timing_breakdown_is_consistent() {
    let data = compressible_bytes(1_000_000);
    let c = ctx(Platform::BlueField2, Design::CE_DEFLATE);
    let _ = c.compress(Datatype::Byte, &data).unwrap(); // warm pool
    let packed = c.compress(Datatype::Byte, &data).unwrap();
    assert!(packed.timing.compress > SimDuration::ZERO);
    assert_eq!(packed.timing.decompress, SimDuration::ZERO);
    let out = c.decompress(&packed.payload, data.len()).unwrap();
    assert!(out.timing.decompress > SimDuration::ZERO);
    assert_eq!(out.timing.compress, SimDuration::ZERO);
}

#[test]
fn decompress_length_mismatch_detected() {
    let data = compressible_bytes(10_000);
    let c = ctx(Platform::BlueField2, Design::SOC_DEFLATE);
    let packed = c.compress(Datatype::Byte, &data).unwrap();
    let err = c.decompress(&packed.payload, data.len() + 1).unwrap_err();
    assert!(matches!(err, pedal::PedalError::LengthMismatch { .. }));
}

#[test]
fn corrupt_payload_is_an_error_not_a_panic() {
    let data = compressible_bytes(10_000);
    let c = ctx(Platform::BlueField2, Design::SOC_ZLIB);
    let mut packed = c.compress(Datatype::Byte, &data).unwrap().payload;
    let n = packed.len();
    packed[n - 2] ^= 0xFF;
    assert!(c.decompress(&packed, data.len()).is_err());
    // Garbage entirely.
    assert!(c.decompress(&[0u8; 10], 10).is_err());
    assert!(c.decompress(&[], 0).is_err());
}

#[test]
fn listing1_api_parity() {
    let cfg = PedalConfig::new(Platform::BlueField2, Design::SOC_DEFLATE);
    let c = pedal::pedal_init(cfg).unwrap();
    let data = compressible_bytes(30_000);
    let packed = pedal::pedal_compress(&c, Datatype::Byte, &data).unwrap();
    let mut out = vec![0u8; data.len()];
    let timing = pedal::pedal_decompress(&c, Datatype::Byte, &packed.payload, &mut out).unwrap();
    assert_eq!(out, data);
    assert!(timing.decompress > SimDuration::ZERO);
    let (hits, _misses) = pedal::pedal_finalize(c);
    assert!(hits > 0);
}

#[test]
fn pool_reaches_steady_state() {
    let data = compressible_bytes(3_000_000);
    let c = ctx(Platform::BlueField2, Design::SOC_DEFLATE);
    for _ in 0..5 {
        let packed = c.compress(Datatype::Byte, &data).unwrap();
        let _ = c.decompress(&packed.payload, data.len()).unwrap();
    }
    let (hits, misses) = c.finalize();
    assert!(hits >= 8, "expected steady-state pool hits, got {hits}");
    assert!(misses <= 2, "pool kept missing: {misses}");
}

#[test]
fn overhead_mode_pedal_vs_baseline_for_lossy() {
    let data = float_bytes(500_000);
    let p = ctx(Platform::BlueField2, Design::SOC_SZ3);
    let b = PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::SOC_SZ3).baseline())
        .unwrap();
    let _ = p.compress(Datatype::Float32, &data).unwrap();
    let tp = p.compress(Datatype::Float32, &data).unwrap().timing;
    let tb = b.compress(Datatype::Float32, &data).unwrap().timing;
    // The lossy baseline pays multiple intermediate allocations but no
    // DOCA init (SoC design).
    assert_eq!(tb.doca_init, SimDuration::ZERO);
    assert!(tb.buffer_prep.as_nanos() > 50 * tp.buffer_prep.as_nanos());
}

#[test]
fn auto_config_picks_sane_designs() {
    use pedal::PedalConfig;
    assert_eq!(PedalConfig::auto(Platform::BlueField2, Datatype::Byte).design, Design::CE_DEFLATE);
    assert_eq!(PedalConfig::auto(Platform::BlueField3, Datatype::Byte).design, Design::SOC_LZ4);
    assert_eq!(PedalConfig::auto(Platform::BlueField2, Datatype::Float32).design, Design::CE_SZ3);
    assert_eq!(PedalConfig::auto(Platform::BlueField3, Datatype::Float64).design, Design::SOC_SZ3);
    // And the auto configs actually work end to end.
    let data = compressible_bytes(400_000);
    for platform in Platform::ALL {
        let ctx = PedalContext::init(PedalConfig::auto(platform, Datatype::Byte)).unwrap();
        let packed = ctx.compress(Datatype::Byte, &data).unwrap();
        assert_eq!(ctx.decompress(&packed.payload, data.len()).unwrap().data, data);
    }
}
