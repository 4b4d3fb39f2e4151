//! The standing fuzz sweep: corpora × mutation classes × seeds, decoded
//! through every relevant path under a panic trap. The DEFLATE and LZ4
//! block cases also compress the same mutation of the raw bytes with the
//! split parses at 1..=4 forced segments, against the sequential parse;
//! one LZ4 case in 24 does so inside a 768 KiB–1 MiB input. Every
//! DEFLATE, zlib and gzip case also decodes its DEFLATE body with
//! inflate's checked step alone, which must give the fast loop's result.
//!
//! Every case derives its own seed from the sweep seed, the codec, and
//! the case index, so a failure replays in isolation with
//! [`run_case`] — the printed seed is the whole reproducer.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::corpus::{build_corpus, CaseBase, CodecId};
use crate::mutate::{mutate, MutationClass};
use crate::oracle::DiffOracle;
use pedal_datasets::DatasetId;
use pedal_deflate::lz77::{detokenize, tokenize_split, MatcherParams};
use pedal_dpu::Pcg32;
use pedal_sz3::huff;

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Mutated cases per codec (the unmutated corpus is always checked).
    pub cases_per_codec: usize,
    /// Raw bytes per corpus base.
    pub target: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { seed: 0x9EDA_15EE_D000_0001, cases_per_codec: 1000, target: 2048 }
    }
}

/// One reproducible failure.
#[derive(Debug, Clone)]
pub struct Failure {
    pub codec: CodecId,
    pub case_seed: u64,
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] case_seed={:#018x}: {} (repro: fuzz_sweep --codec {} --case-seed {:#x})",
            self.codec.name(),
            self.case_seed,
            self.detail,
            self.codec.name(),
            self.case_seed,
        )
    }
}

/// Aggregate sweep outcome.
#[derive(Debug, Default)]
pub struct SweepReport {
    pub cases_run: usize,
    pub failures: Vec<Failure>,
}

impl SweepReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Derive the seed of case `idx` for `codec` from the master seed.
/// SplitMix-style mixing keeps nearby indices uncorrelated.
pub fn case_seed(master: u64, codec: CodecId, idx: usize) -> u64 {
    let mut x = master
        ^ (codec as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (idx as u64).wrapping_mul(0xD134_2543_DE82_EF95);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decode a (possibly corrupt) stream through the codec's hardened entry
/// point. Returns `Err` only on an oracle violation — a corrupt stream
/// that cleanly errors is a pass.
fn decode_one(
    codec: CodecId,
    stream: &[u8],
    base: &CaseBase,
    mutated: bool,
    oracle: &DiffOracle,
) -> Result<(), String> {
    let orig_len = base.original.len();
    if let Some(body) = deflate_body(codec, stream) {
        let fast = pedal_deflate::decompress_with_limit(body, orig_len);
        let checked = pedal_deflate::decompress_checked_with_limit(body, orig_len);
        if fast != checked {
            return Err(format!("fast inflate {fast:?} but checked step {checked:?}"));
        }
    }
    match codec {
        CodecId::Deflate => {
            let r = pedal_deflate::decompress_with_limit(stream, orig_len);
            check_lossless(r.map_err(|e| e.to_string()), base, mutated)
        }
        CodecId::Zlib => {
            let r = pedal_zlib::decompress_with_limit(stream, orig_len);
            check_lossless(r.map_err(|e| e.to_string()), base, mutated)
        }
        CodecId::Gzip => {
            let r = pedal_zlib::gzip_decompress_with_limit(stream, orig_len);
            check_lossless(r.map_err(|e| e.to_string()), base, mutated)
        }
        CodecId::Lz4Block => {
            let r = pedal_lz4::decompress_block(stream, Some(orig_len), orig_len);
            check_lossless(r.map_err(|e| e.to_string()), base, mutated)
        }
        CodecId::Lz4Frame => {
            let r = pedal_lz4::decompress_frame_with_limit(stream, orig_len);
            check_lossless(r.map_err(|e| e.to_string()), base, mutated)
        }
        CodecId::Huff => {
            let n = orig_len / 4;
            match huff::decode_with_limit(stream, n) {
                Ok(symbols) => {
                    if symbols.len() > n {
                        return Err(format!(
                            "decode returned {} symbols, limit {n}",
                            symbols.len()
                        ));
                    }
                    if !mutated {
                        let bytes: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
                        if bytes != base.original {
                            return Err("valid huff stream decoded to wrong symbols".into());
                        }
                    }
                    Ok(())
                }
                Err(e) => {
                    if mutated {
                        Ok(())
                    } else {
                        Err(format!("valid huff stream rejected: {e}"))
                    }
                }
            }
        }
        CodecId::Sz3 => {
            // The stream self-describes its type; try both so a mutated
            // type tag still gets exercised. Output is bounded either way.
            let r32 = pedal_sz3::decompress_with_limit::<f32>(stream, orig_len);
            let r64 = pedal_sz3::decompress_with_limit::<f64>(stream, 2 * orig_len);
            if let Ok(f) = &r32 {
                if f.data.len() * 4 > orig_len {
                    return Err(format!("f32 decode exceeded budget: {} elements", f.data.len()));
                }
            }
            if let Ok(f) = &r64 {
                if f.data.len() * 8 > 2 * orig_len {
                    return Err(format!("f64 decode exceeded budget: {} elements", f.data.len()));
                }
            }
            if !mutated {
                match r32 {
                    Ok(f) => {
                        let orig = pedal_sz3::Field::<f32>::from_bytes(f.dims, &base.original);
                        let diff = orig.max_abs_diff(&f);
                        if diff > 1e-4 * (1.0 + 1e-9) {
                            return Err(format!("error bound violated: {diff}"));
                        }
                    }
                    Err(e) => return Err(format!("valid sz3 stream rejected: {e}")),
                }
            }
            Ok(())
        }
        CodecId::Pco => {
            // pco is lossless and bit-exact: a valid stream must decode
            // to precisely the original bytes, a mutated one must either
            // error cleanly or stay within the declared-length budget.
            let r = pedal_pco::decompress_bytes_with_limit(stream, orig_len);
            check_lossless(r.map_err(|e| e.to_string()), base, mutated)
        }
        CodecId::PedalPayload => {
            // Differential: wire vs BF2 vs BF3 must agree on bytes or
            // error class; on valid input they must all succeed.
            let verdict = oracle.check(stream, orig_len)?;
            if !mutated && verdict != crate::oracle::ErrorClass::Ok {
                return Err(format!("valid payload rejected with {verdict:?}"));
            }
            Ok(())
        }
        CodecId::Stream => {
            // Streaming oracle: the one-shot decode and a decoder fed one
            // byte at a time must agree — same bytes out, or both reject —
            // and so must the chunked decoders for DEFLATE streams.
            // Partial-frame hostile inputs (FrameTruncate/FrameReorder)
            // land here with the rest of the mutation classes.
            let one_shot = pedal_stream::decode_all(stream, orig_len);
            let incremental = decode_stream_bytewise(stream, orig_len);
            match (&one_shot, &incremental) {
                (Ok(a), Ok(b)) if a != b => {
                    return Err("one-shot and byte-fed stream decodes disagree".into());
                }
                (Ok(_), Err(e)) => {
                    return Err(format!("byte-fed decoder rejected a one-shot-valid stream: {e}"));
                }
                (Err(e), Ok(_)) => {
                    return Err(format!("one-shot rejected a byte-fed-valid stream: {e}"));
                }
                _ => {}
            }
            // Chunked differential: `pedal::decompress_chunked` reads the
            // same container when the payloads are DEFLATE fragments.
            if stream.starts_with(&pedal_stream::MAGIC)
                && stream.get(5) == Some(&pedal_stream::CODEC_DEFLATE)
            {
                let reference = one_shot.as_ref().ok().filter(|d| d.len() == orig_len);
                oracle.check_chunked(stream, orig_len, reference.map(Vec::as_slice))?;
            }
            check_lossless(one_shot.map_err(|e| e.to_string()), base, mutated)
        }
    }
}

/// The bytes a DEFLATE-family codec hands to inflate, taking a gzip
/// header to have no optional fields; both decoders must agree on any
/// bytes, so a mutated header only moves where the body starts.
fn deflate_body(codec: CodecId, stream: &[u8]) -> Option<&[u8]> {
    match codec {
        CodecId::Deflate => Some(stream),
        CodecId::Zlib => stream.get(2..stream.len().checked_sub(4)?),
        CodecId::Gzip => stream.get(10..stream.len().checked_sub(8)?),
        _ => None,
    }
}

/// Compress `input` with the codec's split parse at 1..=4 forced
/// segments: every count must give the tokens (DEFLATE, at `level`) or
/// block bytes (LZ4) of the sequential parse, and those must decode back
/// to `input`. Other codecs have no split encoder.
fn encode_split(codec: CodecId, input: &[u8], level: u8) -> Result<(), String> {
    match codec {
        CodecId::Deflate => {
            let params = MatcherParams::for_level(level);
            let tokens = |segments| {
                let mut tokens = Vec::new();
                tokenize_split(input, params, segments, |t| tokens.push(t));
                tokens
            };
            let sequential = tokens(1);
            if detokenize(&sequential) != input {
                return Err(format!("level {level}: sequential tokens do not decode back"));
            }
            match (2..=4).find(|&k| tokens(k) != sequential) {
                Some(k) => Err(format!("level {level}: {k} segments change the tokens")),
                None => Ok(()),
            }
        }
        CodecId::Lz4Block => {
            let block = |segments| pedal_lz4::compress_block_split(input, segments).0;
            let sequential = block(1);
            let decoded = pedal_lz4::decompress_block(&sequential, Some(input.len()), input.len());
            if decoded.as_deref() != Ok(input) {
                return Err("sequential block does not decode back".into());
            }
            match (2..=4).find(|&k| block(k) != sequential) {
                Some(k) => Err(format!("{k} segments change the block bytes")),
                None => Ok(()),
            }
        }
        _ => Ok(()),
    }
}

/// One `lz4-block` case in this many compresses a long input.
const LONG_EVERY: u32 = 24;

/// A long split-encoder input: `LONG_MIN..=LONG_MAX` bytes of a dataset
/// with the case's mutated bytes written over a random place. From
/// 768 KiB on, every forced LZ4 helper starts its 256 KiB warm-up past
/// byte 0, so its table differs from the calling thread's and only the
/// history check keeps a seam from adopting the wrong bytes.
fn long_input(rng: &mut Pcg32, mutated: &[u8]) -> Vec<u8> {
    const LONG_MIN: usize = 768 << 10;
    const LONG_MAX: usize = 1 << 20;
    let id = DatasetId::ALL[rng.gen_range(0..DatasetId::ALL.len())];
    let mut long = id.generate_bytes(rng.gen_range(LONG_MIN..=LONG_MAX));
    let at = rng.gen_range(0..=long.len() - mutated.len().min(long.len()));
    let end = (at + mutated.len()).min(long.len());
    long[at..end].copy_from_slice(&mutated[..end - at]);
    long
}

/// Feed a PSF1 stream to the resumable decoder one byte at a time — the
/// most hostile arrival granularity a receiver can see.
fn decode_stream_bytewise(
    stream: &[u8],
    limit: usize,
) -> Result<Vec<u8>, pedal_stream::StreamError> {
    let mut dec = pedal_stream::StreamDecoder::new(limit);
    let mut out = Vec::new();
    for b in stream {
        dec.feed(std::slice::from_ref(b), &mut out)?;
    }
    dec.finish()?;
    Ok(out)
}

fn check_lossless(
    r: Result<Vec<u8>, String>,
    base: &CaseBase,
    mutated: bool,
) -> Result<(), String> {
    match r {
        Ok(data) => {
            if data.len() > base.original.len() {
                return Err(format!(
                    "output {} bytes exceeds the {}-byte budget",
                    data.len(),
                    base.original.len()
                ));
            }
            if !mutated && data != base.original {
                return Err("valid stream decoded to wrong bytes".into());
            }
            Ok(())
        }
        Err(e) => {
            if mutated {
                Ok(())
            } else {
                Err(format!("valid stream rejected: {e}"))
            }
        }
    }
}

/// Replay a single case. The corpus and oracle are rebuilt from scratch,
/// so this is the from-nothing reproducer for a printed failure.
pub fn run_case(codec: CodecId, seed: u64, target: usize) -> Result<(), String> {
    let corpus = build_corpus(codec, target);
    let oracle = DiffOracle::new();
    run_case_with(codec, seed, &corpus, &oracle)
}

fn run_case_with(
    codec: CodecId,
    seed: u64,
    corpus: &[CaseBase],
    oracle: &DiffOracle,
) -> Result<(), String> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let base = &corpus[rng.gen_range(0..corpus.len())];
    let donor = &corpus[rng.gen_range(0..corpus.len())];
    let class = MutationClass::ALL[rng.gen_range(0..MutationClass::ALL.len())];
    let stream = mutate(&mut rng, class, &base.encoded, &donor.encoded);
    let input = mutate(&mut rng, class, &base.original, &donor.original);
    let level = rng.gen_range(1..10u32) as u8;
    let long = codec == CodecId::Lz4Block && rng.gen_range(0..LONG_EVERY) == 0;
    let input = if long { long_input(&mut rng, &input) } else { input };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        decode_one(codec, &stream, base, true, oracle)?;
        encode_split(codec, &input, level).map_err(|e| format!("split encoder, {e}"))
    }));
    match outcome {
        Ok(r) => r.map_err(|e| format!("{} on {}: {e}", class.name(), base.dataset)),
        Err(p) => {
            Err(format!("PANIC under {} on {}: {}", class.name(), base.dataset, panic_message(&p)))
        }
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the full sweep: for each codec, first decode every unmutated
/// corpus entry (round-trip oracle), then `cases_per_codec` mutated
/// cases.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    run_sweep_filtered(cfg, None)
}

/// [`run_sweep`] restricted to one codec when `only` is set.
pub fn run_sweep_filtered(cfg: &SweepConfig, only: Option<CodecId>) -> SweepReport {
    let oracle = DiffOracle::new();
    let mut report = SweepReport::default();
    for codec in CodecId::ALL {
        if let Some(o) = only {
            if o != codec {
                continue;
            }
        }
        let corpus = build_corpus(codec, cfg.target);
        // Unmutated round-trips first: every valid stream must decode to
        // exactly the original (within the bound, for SZ3).
        for base in &corpus {
            report.cases_run += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                decode_one(codec, &base.encoded, base, false, &oracle)
            }));
            let detail = match outcome {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => format!("round-trip on {}: {e}", base.dataset),
                Err(p) => {
                    format!("PANIC in round-trip on {}: {}", base.dataset, panic_message(&p))
                }
            };
            report.failures.push(Failure { codec, case_seed: 0, detail });
        }
        for idx in 0..cfg.cases_per_codec {
            let seed = case_seed(cfg.seed, codec, idx);
            report.cases_run += 1;
            if let Err(detail) = run_case_with(codec, seed, &corpus, &oracle) {
                report.failures.push(Failure { codec, case_seed: seed, detail });
                if report.failures.len() > 32 {
                    // A systematic break floods the report; stop early.
                    return report;
                }
            }
        }
    }
    report
}
