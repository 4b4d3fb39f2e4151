//! # pedal-par
//!
//! Chunk-parallel compression for the PEDAL stack. Large inputs are
//! sharded into independent fixed-size chunks, compressed concurrently on
//! host worker threads, and reassembled in chunk order:
//!
//! * **DEFLATE** — each chunk becomes a stream *fragment*
//!   ([`pedal_deflate::compress_fragment`]): every non-final fragment ends
//!   in a sync flush (empty non-final stored block) so fragments are
//!   byte-aligned and concatenate into one valid RFC 1951 stream that any
//!   DEFLATE decoder inflates in a single pass — the pigz approach.
//! * **LZ4** — the PLZ4 frame already consists of independently-decodable
//!   blocks, so per-block parallelism is *byte-identical* to the
//!   sequential [`pedal_lz4::compress_frame`].
//! * **SZ3** — the prediction/quantization/Huffman core stays sequential
//!   (it carries the error-bound state) and the lossless backend stage is
//!   block-decomposed through the two paths above.
//!
//! Two invariants hold everywhere:
//!
//! 1. **Single-chunk parity** — an input that fits one chunk produces
//!    output byte-identical to the sequential path.
//! 2. **Worker-count determinism** — output bytes depend only on the
//!    input and the chunk size, never on how many workers ran or how the
//!    OS scheduled them: chunk `i`'s bytes are a pure function of chunk
//!    `i`'s data, and reassembly is ordered by chunk index.

pub use pedal_deflate::Level;
use pedal_sz3::{BackendKind, Float, Sz3Config};

/// Default shard size: 1 MiB balances fan-out (a 16 MiB payload fills 16
/// channels) against per-chunk ratio loss (matches cannot cross chunk
/// boundaries, and each non-final DEFLATE fragment pays a 5-byte sync
/// flush — about 0.2% ratio overhead at this size on the paper corpora).
pub const DEFAULT_CHUNK: usize = 1 << 20;

/// Floor on the chunk size: below this the per-fragment framing and the
/// lost cross-chunk matches swamp any parallel win.
pub const MIN_CHUNK: usize = 64 * 1024;

/// Sharding configuration for the chunk-parallel paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Bytes per shard. Clamped to at least [`MIN_CHUNK`].
    pub chunk_size: usize,
    /// Concurrent worker threads. Only affects wall-clock speed — output
    /// bytes are identical for any worker count, including 1.
    pub workers: usize,
}

impl ParConfig {
    pub fn new(workers: usize) -> Self {
        Self { chunk_size: DEFAULT_CHUNK, workers }
    }

    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    fn chunk(&self) -> usize {
        self.chunk_size.max(MIN_CHUNK)
    }

    fn threads(&self, jobs: usize) -> usize {
        self.workers.max(1).min(jobs.max(1))
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        Self::new(4)
    }
}

/// Run `make(i)` for every `i in 0..jobs` across `threads` workers
/// (strided assignment) and return the outputs in index order.
/// Deterministic by construction: each output depends only on its index,
/// and placement is by index.
pub fn fan_out<T, F>(jobs: usize, threads: usize, make: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<T> = (0..jobs).map(|_| T::default()).collect();
    if threads <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = make(i);
        }
        return slots;
    }
    let make = &make;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut i = t;
                    while i < jobs {
                        done.push((i, make(i)));
                        i += threads;
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("chunk worker panicked") {
                slots[i] = out;
            }
        }
    });
    slots
}

// ---------------------------------------------------------------------
// DEFLATE
// ---------------------------------------------------------------------

/// An empty non-final stored block: the 5-byte sync-flush marker every
/// non-final fragment ends with.
const EMPTY_SYNC: [u8; 5] = [0x00, 0x00, 0x00, 0xFF, 0xFF];
/// An empty final stored block: what `compress_fragment(&[], _, true)`
/// emits for zero input bytes.
const EMPTY_FINAL: [u8; 5] = [0x01, 0x00, 0x00, 0xFF, 0xFF];

/// A fragment list the stitcher refuses to assemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchError {
    /// The fragment list itself was empty. Zero fragments cannot form a
    /// DEFLATE stream — even `compress(b"")` emits one final block — so
    /// passing nothing through would hand downstream decoders an
    /// unterminated (zero-byte) stream.
    NoFragments,
    /// A fragment carried no bytes at all — the chunker produced an
    /// empty range.
    EmptyFragment(usize),
    /// A multi-fragment list contained a fragment encoding zero
    /// plaintext (a bare sync-flush or empty final block). The previous
    /// fragment already ended in a sync flush, so keeping it would emit
    /// the empty stored block twice — the double-flush a zero-length
    /// trailing chunk produces on exact chunk-multiple inputs.
    DoubleFlush(usize),
}

impl std::fmt::Display for StitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StitchError::NoFragments => write!(f, "fragment list is empty"),
            StitchError::EmptyFragment(i) => write!(f, "fragment {i} is empty"),
            StitchError::DoubleFlush(i) => {
                write!(f, "fragment {i} encodes zero bytes (double sync flush)")
            }
        }
    }
}

impl std::error::Error for StitchError {}

/// Concatenate sync-flush DEFLATE fragments into one valid RFC 1951
/// stream, in index order. Rejects malformed fragment lists instead of
/// emitting a corrupt-adjacent stream: the list must be non-empty (zero
/// fragments would yield a zero-byte non-stream), every fragment must
/// carry bytes,
/// and in a multi-fragment list none may encode zero plaintext — a bare
/// sync-flush or empty-final marker means some chunker emitted a
/// zero-length chunk, and stitching it would double the empty stored
/// block its predecessor already wrote. (A single empty-final fragment
/// stays valid: that is exactly `compress(b"")`.)
pub fn stitch_fragments(frags: &[Vec<u8>]) -> Result<Vec<u8>, StitchError> {
    if frags.is_empty() {
        return Err(StitchError::NoFragments);
    }
    let total = frags.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for (i, f) in frags.iter().enumerate() {
        if f.is_empty() {
            return Err(StitchError::EmptyFragment(i));
        }
        if frags.len() > 1 && (f[..] == EMPTY_SYNC || f[..] == EMPTY_FINAL) {
            return Err(StitchError::DoubleFlush(i));
        }
        out.extend_from_slice(f);
    }
    Ok(out)
}

/// Chunk-parallel raw DEFLATE. The result is one valid RFC 1951 stream
/// decodable by [`pedal_deflate::decompress`] (or any conformant
/// inflater); inputs of at most one chunk return bytes identical to
/// [`pedal_deflate::compress`].
pub fn par_deflate(data: &[u8], level: Level, cfg: &ParConfig) -> Vec<u8> {
    let chunk = cfg.chunk();
    if data.len() <= chunk {
        return pedal_deflate::compress(data, level);
    }
    let jobs = data.len().div_ceil(chunk);
    let frags = fan_out(jobs, cfg.threads(jobs), |i| {
        let start = i * chunk;
        let end = (start + chunk).min(data.len());
        pedal_deflate::compress_fragment(&data[start..end], level, i == jobs - 1)
    });
    stitch_fragments(&frags).expect("chunk ranges are never empty")
}

/// Chunk-parallel zlib (RFC 1950): parallel DEFLATE body, header and
/// Adler-32 trailer assembled on the submitting thread — the same split
/// the PEDAL C-Engine design uses.
pub fn par_zlib(data: &[u8], level: Level, cfg: &ParConfig) -> Vec<u8> {
    let body = par_deflate(data, level, cfg);
    pedal_zlib::assemble(level, &body, data)
}

// ---------------------------------------------------------------------
// LZ4
// ---------------------------------------------------------------------

/// Chunk-parallel PLZ4 frame, byte-identical to
/// [`pedal_lz4::compress_frame`] for every input: frame blocks are
/// already independent, so parallelism changes nothing but wall-clock.
pub fn par_lz4_frame(src: &[u8], block_size: usize, accel: u32, workers: usize) -> Vec<u8> {
    let block_size = block_size.max(1);
    let jobs = src.len().div_ceil(block_size);
    let threads = workers.max(1).min(jobs.max(1));
    let blocks = fan_out(jobs, threads, |i| {
        let start = i * block_size;
        let end = (start + block_size).min(src.len());
        let mut block = Vec::new();
        pedal_lz4::encode_frame_block(&mut block, &src[start..end], accel);
        block
    });
    pedal_lz4::assemble_frame(src.len(), block_size, &blocks)
}

// ---------------------------------------------------------------------
// pco
// ---------------------------------------------------------------------

/// Chunk-parallel pco bytes-mode container. Each chunk's blob is a pure
/// function of that chunk's bytes, and the container records blobs in
/// chunk order, so the output is byte-identical to
/// [`pedal_pco::compress_bytes_chunked`] at the same chunk size for any
/// worker count; single-chunk inputs match [`pedal_pco::compress_bytes`].
pub fn par_pco_bytes(data: &[u8], pco: &pedal_pco::PcoConfig, cfg: &ParConfig) -> Vec<u8> {
    let chunk = cfg.chunk();
    if data.len() <= chunk {
        return pedal_pco::compress_bytes(data, pco);
    }
    let jobs = data.len().div_ceil(chunk);
    let blobs = fan_out(jobs, cfg.threads(jobs), |i| {
        let start = i * chunk;
        let end = (start + chunk).min(data.len());
        pedal_pco::encode_bytes_chunk(&data[start..end], pco)
    });
    pedal_pco::assemble_bytes_container(data.len(), &blobs)
}

// ---------------------------------------------------------------------
// SZ3
// ---------------------------------------------------------------------

/// Seal an SZ3 core stream with a chunk-parallel lossless backend. The
/// sealed format is unchanged — [`pedal_sz3::unseal`] and every existing
/// decode path read the result — because the DEFLATE backend's stitched
/// fragments form one valid stream and the LZ4 backends are byte-identical
/// to their sequential counterparts.
pub fn par_seal(core: &[u8], backend: BackendKind, cfg: &ParConfig) -> Vec<u8> {
    match backend {
        BackendKind::Deflate => {
            pedal_sz3::seal_with(core, backend, |c| par_deflate(c, Level::DEFAULT, cfg))
        }
        // Same block size / acceleration as `backend_compress`, so the
        // bytes match the sequential seal exactly.
        BackendKind::Zs => {
            pedal_sz3::seal_with(core, backend, |c| par_lz4_frame(c, 256 * 1024, 1, cfg.workers))
        }
        BackendKind::Lz4 => pedal_sz3::seal_with(core, backend, |c| {
            par_lz4_frame(c, pedal_lz4::DEFAULT_BLOCK_SIZE, 1, cfg.workers)
        }),
        // pco's container is chunked by construction: blobs are
        // independent, so sharding only adds container entries.
        BackendKind::Pco => pedal_sz3::seal_with(core, backend, |c| {
            par_pco_bytes(c, &pedal_pco::PcoConfig::default(), cfg)
        }),
        BackendKind::None => pedal_sz3::seal(core, backend),
    }
}

/// One-shot chunk-parallel SZ3 compression: sequential core encode (the
/// predictor carries reconstruction state across elements), parallel
/// lossless backend. Decodable by [`pedal_sz3::decompress`].
pub fn par_sz3_compress<T: Float>(
    field: &pedal_sz3::Field<T>,
    cfg: &Sz3Config,
    par: &ParConfig,
) -> Vec<u8> {
    let (core, _) = pedal_sz3::encode_core(field, cfg);
    par_seal(&core, cfg.backend, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_datasets::DatasetId;
    use pedal_sz3::{Dims, Field};

    fn corpus(n: usize) -> Vec<(String, Vec<u8>)> {
        DatasetId::ALL.into_iter().map(|id| (id.name().to_string(), id.generate_bytes(n))).collect()
    }

    #[test]
    fn single_chunk_is_byte_identical_to_sequential() {
        let cfg = ParConfig::new(8);
        for (name, data) in corpus(200_000) {
            assert_eq!(
                par_deflate(&data, Level::DEFAULT, &cfg),
                pedal_deflate::compress(&data, Level::DEFAULT),
                "{name}"
            );
        }
    }

    #[test]
    fn par_deflate_roundtrips_through_own_inflate() {
        let cfg = ParConfig::new(4).with_chunk_size(MIN_CHUNK);
        for (name, data) in corpus(400_000) {
            for level in [Level(0), Level(1), Level::DEFAULT] {
                let enc = par_deflate(&data, level, &cfg);
                assert_eq!(pedal_deflate::decompress(&enc).unwrap(), data, "{name} {level:?}");
            }
        }
    }

    #[test]
    fn worker_count_never_changes_output() {
        let data = DatasetId::ALL[0].generate_bytes(700_000);
        let base =
            par_deflate(&data, Level::DEFAULT, &ParConfig::new(1).with_chunk_size(MIN_CHUNK));
        for workers in [2, 3, 8] {
            let cfg = ParConfig::new(workers).with_chunk_size(MIN_CHUNK);
            assert_eq!(par_deflate(&data, Level::DEFAULT, &cfg), base, "{workers} workers");
            assert_eq!(
                par_lz4_frame(&data, 64 * 1024, 1, workers),
                par_lz4_frame(&data, 64 * 1024, 1, 1)
            );
        }
    }

    #[test]
    fn par_lz4_frame_is_byte_identical_to_sequential() {
        for (name, data) in corpus(300_000) {
            for block in [1, 4096, 64 * 1024, 1 << 20] {
                assert_eq!(
                    par_lz4_frame(&data, block, 1, 8),
                    pedal_lz4::compress_frame(&data, block, 1),
                    "{name} block {block}"
                );
            }
        }
        assert_eq!(par_lz4_frame(b"", 4096, 1, 8), pedal_lz4::compress_frame(b"", 4096, 1));
    }

    #[test]
    fn par_zlib_matches_pedal_zlib_envelope_and_roundtrips() {
        let cfg = ParConfig::new(4).with_chunk_size(MIN_CHUNK);
        let data = DatasetId::ALL[1].generate_bytes(150_000);
        // Single chunk: whole stream identical to pedal-zlib.
        let small = DatasetId::ALL[1].generate_bytes(10_000);
        assert_eq!(
            par_zlib(&small, Level::DEFAULT, &cfg),
            pedal_zlib::compress(&small, pedal_zlib::Level::DEFAULT)
        );
        // Multi chunk: still a valid zlib stream for our decoder.
        let z = par_zlib(&data, Level::DEFAULT, &cfg);
        assert_eq!(pedal_zlib::decompress(&z).unwrap(), data);
    }

    #[test]
    fn par_sz3_seals_decode_with_existing_unseal() {
        let vals: Vec<f32> = (0..60_000).map(|i| (i as f32 * 0.01).sin() * 40.0).collect();
        let field = Field::new(Dims::d1(vals.len()), vals);
        for backend in [
            BackendKind::None,
            BackendKind::Zs,
            BackendKind::Deflate,
            BackendKind::Lz4,
            BackendKind::Pco,
        ] {
            let cfg = Sz3Config { backend, ..Sz3Config::default() };
            let par = ParConfig::new(4).with_chunk_size(MIN_CHUNK);
            let sealed = par_sz3_compress(&field, &cfg, &par);
            let decoded = pedal_sz3::decompress::<f32>(&sealed).expect("unseal");
            assert_eq!(decoded.dims, field.dims, "{backend:?}");
            for (a, b) in decoded.data.iter().zip(&field.data) {
                assert!((a - b).abs() <= cfg.error_bound as f32 * 1.0001, "{backend:?}");
            }
            // Deterministic across worker counts.
            let one = par_sz3_compress(&field, &cfg, &ParConfig::new(1).with_chunk_size(MIN_CHUNK));
            assert_eq!(sealed, one, "{backend:?}");
        }
    }

    #[test]
    fn par_pco_matches_sequential_chunked_for_any_worker_count() {
        let pco = pedal_pco::PcoConfig::default();
        for (name, data) in corpus(400_000) {
            let cfg1 = ParConfig::new(1).with_chunk_size(MIN_CHUNK);
            let base = par_pco_bytes(&data, &pco, &cfg1);
            assert_eq!(
                base,
                pedal_pco::compress_bytes_chunked(&data, cfg1.chunk(), &pco),
                "{name}: parallel container must equal the sequential chunked one"
            );
            for workers in [2, 5, 8] {
                let cfg = ParConfig::new(workers).with_chunk_size(MIN_CHUNK);
                assert_eq!(par_pco_bytes(&data, &pco, &cfg), base, "{name} {workers} workers");
            }
            let decoded =
                pedal_pco::decompress_bytes_with_limit(&base, data.len()).expect("roundtrip");
            assert_eq!(decoded, data, "{name}");
        }
        // Single chunk: identical to the one-shot sequential encoder.
        let small = DatasetId::ALL[0].generate_bytes(10_000);
        assert_eq!(
            par_pco_bytes(&small, &pco, &ParConfig::new(8)),
            pedal_pco::compress_bytes(&small, &pco)
        );
    }

    #[test]
    fn stitcher_rejects_zero_length_trailing_fragment() {
        let level = Level::DEFAULT;
        // A buggy chunker splitting an exact chunk-multiple input into
        // jobs+1 ranges hands the stitcher a zero-length trailing chunk:
        // its fragment is a bare empty-final block right after a
        // fragment that already ended in a sync flush.
        let data = DatasetId::ALL[2].generate_bytes(2 * MIN_CHUNK);
        let good = vec![
            pedal_deflate::compress_fragment(&data[..MIN_CHUNK], level, false),
            pedal_deflate::compress_fragment(&data[MIN_CHUNK..], level, true),
        ];
        let stitched = stitch_fragments(&good).unwrap();
        assert_eq!(pedal_deflate::decompress(&stitched).unwrap(), data);

        let double_flush = vec![
            pedal_deflate::compress_fragment(&data[..MIN_CHUNK], level, false),
            pedal_deflate::compress_fragment(&data[MIN_CHUNK..], level, false),
            pedal_deflate::compress_fragment(&[], level, true),
        ];
        assert_eq!(stitch_fragments(&double_flush), Err(StitchError::DoubleFlush(2)));
        // A bare sync flush mid-stream is the same defect.
        let mid_sync = vec![
            pedal_deflate::compress_fragment(&data[..MIN_CHUNK], level, false),
            pedal_deflate::compress_fragment(&[], level, false),
            pedal_deflate::compress_fragment(&data[MIN_CHUNK..], level, true),
        ];
        assert_eq!(stitch_fragments(&mid_sync), Err(StitchError::DoubleFlush(1)));
        // And a fragment with no bytes at all is rejected outright.
        assert_eq!(stitch_fragments(&[Vec::new()]), Err(StitchError::EmptyFragment(0)));
        // But the lone empty-final fragment IS the empty stream.
        let empty = vec![pedal_deflate::compress_fragment(&[], level, true)];
        let stitched = stitch_fragments(&empty).unwrap();
        assert_eq!(pedal_deflate::decompress(&stitched).unwrap(), b"");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cfg = ParConfig::new(8);
        for data in [&b""[..], b"x", b"tiny tiny tiny"] {
            let enc = par_deflate(data, Level::DEFAULT, &cfg);
            assert_eq!(enc, pedal_deflate::compress(data, Level::DEFAULT));
            assert_eq!(pedal_deflate::decompress(&enc).unwrap(), data);
        }
    }
}
