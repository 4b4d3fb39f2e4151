//! Seeded random tests of the DOCA simulation layer: job round-trips for
//! arbitrary data, FIFO timing laws, and hostile input. Ported from
//! proptest to an in-tree fixed-seed case generator (`--features fuzz`
//! multiplies case counts).

use pedal_doca::{CompressJob, DocaContext, JobKind};
use pedal_dpu::{Pcg32, Platform, SimInstant};

fn cases(base: usize) -> usize {
    if cfg!(feature = "fuzz") {
        base * 16
    } else {
        base
    }
}

fn arbitrary_vec(rng: &mut Pcg32, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn engine_deflate_roundtrip() {
    let mut rng = Pcg32::seed_from_u64(0xD0CA_0001);
    for case in 0..cases(16) {
        let data = arbitrary_vec(&mut rng, 16_384);
        let ctx = DocaContext::open(Platform::BlueField2).unwrap();
        let (c, _) = ctx
            .submit(CompressJob::new(JobKind::DeflateCompress, &data), SimInstant::EPOCH)
            .unwrap();
        let (d, _) = ctx
            .submit(
                CompressJob::new(JobKind::DeflateDecompress, &c.output)
                    .with_expected_len(data.len()),
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(d.output, data, "case {case}");
    }
}

#[test]
fn engine_lz4_roundtrip_on_bf3() {
    let mut rng = Pcg32::seed_from_u64(0xD0CA_0002);
    for case in 0..cases(16) {
        let data = arbitrary_vec(&mut rng, 8_192);
        let ctx = DocaContext::open(Platform::BlueField3).unwrap();
        let packed = pedal_lz4::compress_block(&data, 1);
        let (d, _) = ctx
            .submit(
                CompressJob::new(JobKind::Lz4Decompress, &packed).with_expected_len(data.len()),
                SimInstant::EPOCH,
            )
            .unwrap();
        assert_eq!(d.output, data, "case {case}");
    }
}

#[test]
fn fifo_completion_is_sum_of_service_times() {
    let mut rng = Pcg32::seed_from_u64(0xD0CA_0003);
    for case in 0..cases(48) {
        let n_jobs = rng.gen_range(1usize..8);
        let ctx = DocaContext::open(Platform::BlueField2).unwrap();
        let mut expected_total = 0u64;
        let mut last_done = SimInstant::EPOCH;
        for _ in 0..n_jobs {
            let n = rng.gen_range(1usize..200_000);
            let (r, done) = ctx
                .submit(
                    CompressJob::new(JobKind::DeflateCompress, &vec![0xAA; n]),
                    SimInstant::EPOCH,
                )
                .unwrap();
            expected_total += r.service_time.as_nanos();
            assert!(done >= last_done, "case {case}");
            last_done = done;
        }
        assert_eq!(last_done.0, expected_total, "case {case}");
    }
}

#[test]
fn submit_time_never_precedes_completion() {
    let mut rng = Pcg32::seed_from_u64(0xD0CA_0004);
    for case in 0..cases(48) {
        let n = rng.gen_range(1usize..100_000);
        let at_ns = rng.gen_range(0u64..10_000_000);
        let ctx = DocaContext::open(Platform::BlueField2).unwrap();
        let now = SimInstant(at_ns);
        let (r, done) =
            ctx.submit(CompressJob::new(JobKind::DeflateCompress, &vec![1; n]), now).unwrap();
        assert_eq!(done.0, at_ns + r.service_time.as_nanos(), "case {case}");
    }
}

#[test]
fn garbage_never_panics_the_engine() {
    let mut rng = Pcg32::seed_from_u64(0xD0CA_0006);
    for _ in 0..cases(48) {
        let junk = arbitrary_vec(&mut rng, 1024);
        let expected = rng.gen_range(0usize..4096);
        let ctx = DocaContext::open(Platform::BlueField2).unwrap();
        let _ = ctx.submit(
            CompressJob::new(JobKind::DeflateDecompress, &junk).with_expected_len(expected),
            SimInstant::EPOCH,
        );
    }
}
