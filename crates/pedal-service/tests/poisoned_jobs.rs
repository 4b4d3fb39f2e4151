//! A poisoned job must fail *that job*, never the channel: corrupt or
//! hostile decompress payloads interleaved with healthy jobs must yield a
//! per-job `ServiceError::Pedal` while every healthy job — including ones
//! submitted *after* the poison — completes normally, under all three
//! backpressure policies.

use pedal::wire::put_uvarint;
use pedal::{Datatype, Design, PedalConfig, PedalContext};
use pedal_dpu::{Pcg32, Platform};
use pedal_service::{BackpressurePolicy, JobDesc, PedalService, ServiceConfig, ServiceError};

fn text_payload(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    for b in data.iter_mut().skip(1).step_by(2) {
        *b = b'x';
    }
    data
}

fn f32_payload(rng: &mut Pcg32, elements: usize) -> Vec<u8> {
    (0..elements).flat_map(|_| (rng.gen_range(-1e3f64..1e3) as f32).to_le_bytes()).collect()
}

/// One hostile decompress payload per corruption family, covering SoC and
/// C-Engine designs plus lossless and lossy codecs.
fn poison_payloads(
    rng: &mut Pcg32,
    platform: Platform,
) -> Vec<(&'static str, Design, Vec<u8>, usize)> {
    let text = text_payload(rng, 4096);
    let floats = f32_payload(rng, 1024);
    let mut out = Vec::new();

    // Body corruption mid-stream on each placement; zlib's Adler-32
    // trailer guarantees detection (raw deflate would decode corrupted
    // literals silently, which is the codec's contract, not a bug).
    for design in [Design::SOC_ZLIB, Design::CE_ZLIB] {
        let ctx = PedalContext::init(PedalConfig::new(platform, design)).unwrap();
        let mut payload = ctx.compress(Datatype::Byte, &text).unwrap().payload;
        let mid = payload.len() / 2;
        let end = (mid + 16).min(payload.len());
        for b in &mut payload[mid..end] {
            *b ^= 0xA5;
        }
        out.push(("body-corrupt", design, payload, text.len()));
        // A flipped Adler-32 trailer: the body decodes in full (on the
        // engine for CE_ZLIB) before the SoC-side check rejects it.
        let mut payload = ctx.compress(Datatype::Byte, &text).unwrap().payload;
        *payload.last_mut().unwrap() ^= 0x01;
        out.push(("trailer-corrupt", design, payload, text.len()));
    }

    // Truncated streams: every codec family detects a mid-stream cut
    // (or decodes short and trips the final length check).
    for (design, datatype, data) in [
        (Design::SOC_DEFLATE, Datatype::Byte, &text),
        (Design::CE_LZ4, Datatype::Byte, &text),
        (Design::SOC_SZ3, Datatype::Float32, &floats),
    ] {
        let ctx = PedalContext::init(PedalConfig::new(platform, design)).unwrap();
        let payload = ctx.compress(datatype, data).unwrap().payload;
        let cut = payload.len() * 2 / 3;
        out.push(("truncated", design, payload[..cut].to_vec(), data.len()));
    }

    // Declared-length bomb: a PEDAL frame whose body claims a 256 GiB SZ3
    // core; the admission-side budget must reject it without allocating.
    let mut bomb = Vec::from([0xFFu8, 7, 0xFF]); // header: AlgoID 7 = CE_SZ3
    put_uvarint(&mut bomb, floats.len() as u64);
    bomb.extend_from_slice(b"SZ3S");
    bomb.push(0); // backend tag: none
    put_uvarint(&mut bomb, 1u64 << 38); // declared core length
    bomb.extend_from_slice(&[0u8; 16]);
    out.push(("core-bomb", Design::CE_SZ3, bomb, floats.len()));

    // Pure garbage: not even a PEDAL header.
    let mut junk = vec![0u8; 256];
    rng.fill_bytes(&mut junk);
    out.push(("garbage", Design::SOC_LZ4, junk, 4096));

    out
}

/// Virtual service time (ns) each poisoned job is charged on BlueField-3.
/// Every rejection before any codec work costs only the 15 µs pool
/// acquire; the CE_ZLIB trailer corruption also pays the full engine
/// decode that precedes the SoC-side Adler-32 check.
fn pinned_service_ns(family: &str, design: Design) -> u64 {
    const PINNED: [(&str, Design, u64); 9] = [
        ("body-corrupt", Design::SOC_ZLIB, 15_000),
        ("body-corrupt", Design::CE_ZLIB, 15_000),
        ("trailer-corrupt", Design::SOC_ZLIB, 15_000),
        ("trailer-corrupt", Design::CE_ZLIB, 415_931),
        ("truncated", Design::SOC_DEFLATE, 15_000),
        ("truncated", Design::CE_LZ4, 15_000),
        ("truncated", Design::SOC_SZ3, 15_000),
        ("core-bomb", Design::CE_SZ3, 15_000),
        ("garbage", Design::SOC_LZ4, 15_000),
    ];
    PINNED
        .iter()
        .find(|(f, d, _)| *f == family && *d == design)
        .map(|p| p.2)
        .unwrap_or_else(|| panic!("no pinned service time for {family} {design}"))
}

#[test]
fn poisoned_decode_fails_the_job_not_the_channel() {
    for policy in [BackpressurePolicy::Block, BackpressurePolicy::Reject, BackpressurePolicy::Shed]
    {
        let mut rng = Pcg32::seed_from_u64(0x9015_0001);
        let platform = Platform::BlueField3;
        let svc = PedalService::start(
            ServiceConfig::new(platform)
                .with_policy(policy)
                .with_queue_capacity(64)
                .with_soc_workers(2)
                .with_ce_channels(2),
        );

        // Healthy jobs bracketing the poison: some before, some after.
        let good_data = text_payload(&mut rng, 8192);
        let ctx = PedalContext::init(PedalConfig::new(platform, Design::SOC_ZLIB)).unwrap();
        let good_payload = ctx.compress(Datatype::Byte, &good_data).unwrap().payload;

        let mut good_ids = Vec::new();
        let mut bad_ids = Vec::new();
        for round in 0..2 {
            good_ids.push(
                svc.submit(JobDesc::decompress(
                    Design::SOC_ZLIB,
                    good_payload.clone(),
                    good_data.len(),
                ))
                .unwrap(),
            );
            for (family, design, payload, expected_len) in poison_payloads(&mut rng, platform) {
                let id = svc
                    .submit(JobDesc::decompress(design, payload, expected_len))
                    .unwrap_or_else(|e| panic!("{policy:?}: poison submit ({family}) failed: {e}"));
                bad_ids.push((id, family, design));
            }
            // Jobs submitted *after* the poison in the same round must
            // still complete — the channel survived.
            good_ids.push(
                svc.submit(JobDesc::decompress(
                    Design::SOC_ZLIB,
                    good_payload.clone(),
                    good_data.len(),
                ))
                .unwrap(),
            );
            let _ = round;
        }

        let done = svc.drain();
        for id in &good_ids {
            let job = done.iter().find(|j| j.id == *id).unwrap();
            let out = job
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{policy:?}: healthy job {id} failed: {e}"));
            assert_eq!(out.bytes, good_data, "{policy:?}: healthy job {id} output differs");
        }
        for (id, family, design) in &bad_ids {
            let job = done.iter().find(|j| j.id == *id).unwrap();
            match &job.result {
                Err(ServiceError::Pedal(_)) => {}
                other => panic!(
                    "{policy:?}: poisoned job {id} ({family}) should fail with a per-job \
                     codec error, got {other:?}"
                ),
            }
            // A failed job's completion instant frees its lane, so every
            // later job's metrics depend on what the failure is charged.
            assert_eq!(
                job.metrics.unwrap().service.as_nanos(),
                pinned_service_ns(family, *design),
                "{policy:?}: poisoned job {id} ({family}, {design}) virtual service time"
            );
        }

        let (_, stats) = svc.shutdown();
        assert_eq!(stats.completed as usize, good_ids.len(), "{policy:?}: completed");
        assert_eq!(stats.failed as usize, bad_ids.len(), "{policy:?}: failed");
        assert_eq!(stats.rejected, 0, "{policy:?}: nothing was over capacity");
    }
}
