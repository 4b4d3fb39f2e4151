//! `pedal-pco`: a from-scratch numeric/columnar lossless codec.
//!
//! Pipeline (DESIGN.md §2.6): order-preserving float-to-int bijection →
//! configurable wrapping delta (orders 0..=2) → adaptive equal-count
//! binning into (bin index, offset bits) pairs → bit-exact rANS over
//! the bin indices with a deterministic frequency-table header. The
//! design follows pcodec/RAS: scientific float columns carry most of
//! their entropy in the low mantissa bits, which the bins isolate as
//! raw offsets while the predictable bin indices entropy-code to
//! almost nothing.
//!
//! Everything is lossless and bit-exact — NaN payloads, infinities and
//! -0.0 survive because the float bijection is a pure bit permutation
//! and every later stage is a bijection on unsigned integers.
//!
//! The container is self-describing ("PCO1" magic + element-type tag),
//! so a decoder needs no out-of-band type information; a bytes mode
//! (tag 5) views arbitrary byte streams as little-endian u32 words
//! plus a raw tail, and supports multi-chunk streams whose chunks can
//! be encoded independently (the hook `pedal-stream` uses for its
//! pco frames).

mod bins;
mod bits;
mod delta;
mod latent;
mod rans;

pub use bins::MAX_BINS;
pub use latent::{f32_to_latent, f64_to_latent, latent_to_f32, latent_to_f64, Latent};
pub use rans::SCALE_BITS;

use bins::Bin;
use bits::{read_offset, write_offset};
use pedal_deflate::bitio::{BitReader, BitWriter};
use pedal_deflate::varint::{get_uvarint, put_uvarint, VarintError};

pub const MAGIC: [u8; 4] = *b"PCO1";
pub const VERSION: u8 = 1;

const TAG_U32: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_F32: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_BYTES: u8 = 5;

/// Element type of a typed column, used to pick the bijection when the
/// caller holds raw little-endian bytes (the PEDAL wire layer does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    U32,
    U64,
    F32,
    F64,
}

/// Codec configuration. The defaults are what every integration layer
/// uses; they are part of the deterministic-output contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcoConfig {
    /// Delta transform selection.
    pub delta: DeltaSpec,
    /// Upper bound on the number of bins (clamped to `1..=MAX_BINS`).
    pub max_bins: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaSpec {
    /// Pick the order (0..=2) that minimises an estimated encoded size
    /// on a prefix sample. Deterministic for a given input.
    Auto,
    /// Force a fixed order, clamped to the column length.
    Order(u8),
}

impl Default for PcoConfig {
    fn default() -> Self {
        PcoConfig { delta: DeltaSpec::Auto, max_bins: MAX_BINS }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcoError {
    /// Structurally invalid or internally inconsistent stream.
    Corrupt(String),
    /// Stream declares more output than the caller allows.
    TooLarge { need: usize, limit: usize },
}

impl PcoError {
    fn corrupt(msg: impl Into<String>) -> Self {
        PcoError::Corrupt(msg.into())
    }
}

impl std::fmt::Display for PcoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcoError::Corrupt(m) => write!(f, "corrupt pco stream: {m}"),
            PcoError::TooLarge { need, limit } => {
                write!(f, "pco stream declares {need} bytes, limit {limit}")
            }
        }
    }
}

impl std::error::Error for PcoError {}

// ---------------------------------------------------------------------
// The byte reader
// ---------------------------------------------------------------------

struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, PcoError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| PcoError::corrupt("unexpected end of stream"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PcoError> {
        if self.remaining() < n {
            return Err(PcoError::corrupt("unexpected end of stream"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn uvarint(&mut self) -> Result<u64, PcoError> {
        get_uvarint(self.data, &mut self.pos).map_err(|e| match e {
            VarintError::Truncated => PcoError::corrupt("unexpected end of stream"),
            VarintError::Overflow => PcoError::corrupt("varint overflows 64 bits"),
        })
    }

    fn usize_bounded(&mut self, limit: usize, what: &str) -> Result<usize, PcoError> {
        let v = self.uvarint()?;
        let v = usize::try_from(v).map_err(|_| PcoError::corrupt(format!("{what} overflow")))?;
        if v > limit {
            return Err(PcoError::TooLarge { need: v, limit });
        }
        Ok(v)
    }

    fn expect_done(&self) -> Result<(), PcoError> {
        if self.remaining() != 0 {
            return Err(PcoError::corrupt("trailing bytes after stream"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Column body encode/decode
// ---------------------------------------------------------------------

fn resolve_order<L: Latent>(vals: &[L], cfg: &PcoConfig) -> usize {
    let cap = delta::max_order_for(vals.len());
    match cfg.delta {
        DeltaSpec::Order(k) => (k as usize).min(cap),
        DeltaSpec::Auto => choose_order(vals).min(cap),
    }
}

/// Estimate the cheapest delta order on a prefix sample: bins the
/// transformed sample and sums offset bits plus the Shannon cost of
/// the bin indices. Deterministic: fixed sample, fixed bin count,
/// ascending tie-break toward the lower order.
fn choose_order<L: Latent>(vals: &[L]) -> usize {
    const SAMPLE: usize = 4096;
    // Eight contiguous windows spread across the column: deltas only
    // mean anything over consecutive values, but a prefix alone misses
    // the slow drift that makes higher orders pay off on long columns.
    // The few window-seam deltas land in a tail bin and cost little.
    let sample: Vec<L> = if vals.len() <= SAMPLE {
        vals.to_vec()
    } else {
        const WINDOWS: usize = 8;
        let w = SAMPLE / WINDOWS;
        let mut s = Vec::with_capacity(SAMPLE);
        for i in 0..WINDOWS {
            let start = i * (vals.len() - w) / (WINDOWS - 1);
            s.extend_from_slice(&vals[start..start + w]);
        }
        s
    };
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for order in 0..=delta::max_order_for(sample.len()) {
        let (_, body) = delta::apply(&sample, order);
        let cost = estimate_bits(&body);
        if cost < best_cost {
            best_cost = cost;
            best = order;
        }
    }
    best
}

fn estimate_bits<L: Latent>(body: &[L]) -> f64 {
    if body.is_empty() {
        return 0.0;
    }
    let mut sorted = body.to_vec();
    sorted.sort_unstable();
    let bins = bins::build(&sorted, 64);
    let mut counts = vec![0u64; bins.len()];
    for &v in body {
        counts[bins::index_of(&bins, v)] += 1;
    }
    let m = body.len() as f64;
    let mut total = 0.0;
    for (i, b) in bins.iter().enumerate() {
        if counts[i] == 0 {
            continue;
        }
        let p = counts[i] as f64 / m;
        total += counts[i] as f64 * (b.offset_bits as f64 - p.log2());
    }
    total
}

fn encode_column_body<L: Latent>(vals: &[L], cfg: &PcoConfig, out: &mut Vec<u8>) {
    put_uvarint(out, vals.len() as u64);
    if vals.is_empty() {
        return;
    }
    let order = resolve_order(vals, cfg);
    out.push(order as u8);
    let (heads, body) = delta::apply(vals, order);
    for &h in &heads {
        h.write_le(out);
    }
    if body.is_empty() {
        return;
    }

    let mut sorted = body.clone();
    sorted.sort_unstable();
    let bins = bins::build(&sorted, cfg.max_bins);
    debug_assert!(bins.len() <= MAX_BINS);

    let mut symbols = Vec::with_capacity(body.len());
    let mut counts = vec![0u32; bins.len()];
    for &v in &body {
        let i = bins::index_of(&bins, v);
        symbols.push(i as u16);
        counts[i] += 1;
    }
    let freqs = rans::normalize_freqs(&counts, SCALE_BITS)
        .expect("histogram of a non-empty body always normalises");
    let (words, state) =
        rans::encode(&symbols, &freqs, SCALE_BITS).expect("well-formed table always encodes");

    let mut offs = BitWriter::new();
    for (&v, &s) in body.iter().zip(&symbols) {
        let b = &bins[s as usize];
        // Exact by construction: the bin's stride is the GCD over the
        // offsets of precisely the values index_of maps to it.
        write_offset(&mut offs, v.wrapping_sub(b.lower).to_u64() / b.gcd, b.offset_bits);
    }
    let offs = offs.finish();

    out.push((bins.len() - 1) as u8);
    for b in &bins {
        b.lower.write_le(out);
        out.push(b.offset_bits as u8);
        put_uvarint(out, b.gcd);
    }
    out.push(SCALE_BITS as u8);
    for &f in &freqs {
        put_uvarint(out, f as u64);
    }
    put_uvarint(out, words.len() as u64);
    out.extend_from_slice(&words);
    out.extend_from_slice(&state.to_le_bytes());
    put_uvarint(out, offs.len() as u64);
    out.extend_from_slice(&offs);
}

fn decode_column_body<L: Latent>(
    r: &mut ByteReader<'_>,
    max_elems: usize,
) -> Result<Vec<L>, PcoError> {
    let n = r.usize_bounded(max_elems, "element count")?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let order = r.u8()? as usize;
    if order > delta::MAX_ORDER || order >= n {
        return Err(PcoError::corrupt("invalid delta order"));
    }
    let mut heads = Vec::with_capacity(order);
    for _ in 0..order {
        let bytes = r.take(L::BYTES)?;
        let (h, _) = L::read_le(bytes).ok_or_else(|| PcoError::corrupt("truncated head"))?;
        heads.push(h);
    }
    let m = n - order;
    if m == 0 {
        return Ok(delta::undo(&heads, &[], order));
    }

    let n_bins = r.u8()? as usize + 1;
    let mut bins: Vec<Bin<L>> = Vec::with_capacity(n_bins);
    for _ in 0..n_bins {
        let bytes = r.take(L::BYTES)?;
        let (lower, _) =
            L::read_le(bytes).ok_or_else(|| PcoError::corrupt("truncated bin lower"))?;
        let offset_bits = r.u8()? as u32;
        if offset_bits > L::BITS {
            return Err(PcoError::corrupt("bin offset width exceeds element width"));
        }
        let gcd = r.uvarint()?;
        if gcd == 0 {
            return Err(PcoError::corrupt("bin stride must be nonzero"));
        }
        bins.push(Bin { lower, offset_bits, gcd });
    }
    let scale_bits = r.u8()? as u32;
    if !(1..=16).contains(&scale_bits) {
        return Err(PcoError::corrupt("scale bits out of range"));
    }
    let mut freqs = Vec::with_capacity(n_bins);
    for _ in 0..n_bins {
        let f = r.uvarint()?;
        if f > 1 << scale_bits {
            return Err(PcoError::corrupt("frequency exceeds scale"));
        }
        freqs.push(f as u32);
    }
    let word_len = r.usize_bounded(r.remaining(), "rANS word stream length")?;
    let words = r.take(word_len)?;
    let state = u32::from_le_bytes(r.take(4)?.try_into().expect("4-byte slice"));
    let offs_len = r.usize_bounded(r.remaining(), "offset stream length")?;
    let offs = r.take(offs_len)?;

    let symbols = rans::decode(words, state, &freqs, scale_bits, m)?;
    let mut reader = BitReader::new(offs);
    let mut body = Vec::with_capacity(m);
    let mut total_bits: u64 = 0;
    for &s in &symbols {
        let b = &bins[s as usize];
        let off = read_offset(&mut reader, b.offset_bits)?;
        total_bits += b.offset_bits as u64;
        // Hostile streams can pair a wide stride with a wide offset, so
        // the rescale and the add are both checked against L's range.
        let scaled = off
            .checked_mul(b.gcd)
            .filter(|&s| L::BITS == 64 || s >> L::BITS == 0)
            .ok_or_else(|| PcoError::corrupt("bin offset overflows element range"))?;
        let v = b
            .lower
            .checked_add(L::from_u64(scaled))
            .ok_or_else(|| PcoError::corrupt("bin offset overflows element range"))?;
        body.push(v);
    }
    if offs.len() as u64 != total_bits.div_ceil(8) {
        return Err(PcoError::corrupt("offset stream length mismatch"));
    }
    Ok(delta::undo(&heads, &body, order))
}

// ---------------------------------------------------------------------
// Typed column API
// ---------------------------------------------------------------------

fn encode_stream<L: Latent>(tag: u8, vals: &[L], cfg: &PcoConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + vals.len() * L::BYTES / 2);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    encode_column_body(vals, cfg, &mut out);
    out
}

fn open_stream<'a>(stream: &'a [u8], want_tag: u8) -> Result<ByteReader<'a>, PcoError> {
    let mut r = ByteReader::new(stream);
    if r.take(4)? != MAGIC {
        return Err(PcoError::corrupt("bad magic"));
    }
    if r.u8()? != VERSION {
        return Err(PcoError::corrupt("unsupported version"));
    }
    let tag = r.u8()?;
    if tag != want_tag {
        return Err(PcoError::corrupt(format!("expected stream tag {want_tag}, found {tag}")));
    }
    Ok(r)
}

pub fn compress_u32(vals: &[u32], cfg: &PcoConfig) -> Vec<u8> {
    encode_stream(TAG_U32, vals, cfg)
}

pub fn compress_u64(vals: &[u64], cfg: &PcoConfig) -> Vec<u8> {
    encode_stream(TAG_U64, vals, cfg)
}

pub fn compress_f32(vals: &[f32], cfg: &PcoConfig) -> Vec<u8> {
    let latents: Vec<u32> = vals.iter().map(|&x| f32_to_latent(x)).collect();
    encode_stream(TAG_F32, &latents, cfg)
}

pub fn compress_f64(vals: &[f64], cfg: &PcoConfig) -> Vec<u8> {
    let latents: Vec<u64> = vals.iter().map(|&x| f64_to_latent(x)).collect();
    encode_stream(TAG_F64, &latents, cfg)
}

pub fn decompress_u32(stream: &[u8]) -> Result<Vec<u32>, PcoError> {
    decompress_u32_with_limit(stream, usize::MAX)
}

pub fn decompress_u32_with_limit(stream: &[u8], max_elems: usize) -> Result<Vec<u32>, PcoError> {
    let mut r = open_stream(stream, TAG_U32)?;
    let vals = decode_column_body::<u32>(&mut r, max_elems)?;
    r.expect_done()?;
    Ok(vals)
}

pub fn decompress_u64(stream: &[u8]) -> Result<Vec<u64>, PcoError> {
    decompress_u64_with_limit(stream, usize::MAX)
}

pub fn decompress_u64_with_limit(stream: &[u8], max_elems: usize) -> Result<Vec<u64>, PcoError> {
    let mut r = open_stream(stream, TAG_U64)?;
    let vals = decode_column_body::<u64>(&mut r, max_elems)?;
    r.expect_done()?;
    Ok(vals)
}

pub fn decompress_f32(stream: &[u8]) -> Result<Vec<f32>, PcoError> {
    decompress_f32_with_limit(stream, usize::MAX)
}

pub fn decompress_f32_with_limit(stream: &[u8], max_elems: usize) -> Result<Vec<f32>, PcoError> {
    let mut r = open_stream(stream, TAG_F32)?;
    let latents = decode_column_body::<u32>(&mut r, max_elems)?;
    r.expect_done()?;
    Ok(latents.into_iter().map(latent_to_f32).collect())
}

pub fn decompress_f64(stream: &[u8]) -> Result<Vec<f64>, PcoError> {
    decompress_f64_with_limit(stream, usize::MAX)
}

pub fn decompress_f64_with_limit(stream: &[u8], max_elems: usize) -> Result<Vec<f64>, PcoError> {
    let mut r = open_stream(stream, TAG_F64)?;
    let latents = decode_column_body::<u64>(&mut r, max_elems)?;
    r.expect_done()?;
    Ok(latents.into_iter().map(latent_to_f64).collect())
}

// ---------------------------------------------------------------------
// Bytes mode (tag 5): u32-word view of an arbitrary byte stream
// ---------------------------------------------------------------------

/// Encode one chunk of a bytes-mode stream: the chunk's word-aligned
/// prefix as a u32 column, the `len % 4` tail raw. Chunks are fully
/// independent, so any caller can encode them on any worker layout
/// (`pedal-stream` codes one per PSF1 frame).
pub fn encode_bytes_chunk(chunk: &[u8], cfg: &PcoConfig) -> Vec<u8> {
    let words: Vec<u32> =
        chunk.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect();
    let tail = &chunk[words.len() * 4..];
    let mut blob = Vec::with_capacity(16 + chunk.len() / 2);
    put_uvarint(&mut blob, chunk.len() as u64);
    encode_column_body(&words, cfg, &mut blob);
    blob.extend_from_slice(tail);
    blob
}

/// Wrap independently encoded chunks into a self-describing bytes-mode
/// container. `total_len` must equal the sum of the chunk input sizes.
fn assemble_bytes_container(total_len: usize, blobs: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = blobs.iter().map(|b| b.len()).sum();
    let mut out = Vec::with_capacity(16 + 4 * blobs.len() + body);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(TAG_BYTES);
    put_uvarint(&mut out, total_len as u64);
    put_uvarint(&mut out, blobs.len() as u64);
    for b in blobs {
        put_uvarint(&mut out, b.len() as u64);
    }
    for b in blobs {
        out.extend_from_slice(b);
    }
    out
}

/// Compress an arbitrary byte stream as a single bytes-mode chunk.
pub fn compress_bytes(data: &[u8], cfg: &PcoConfig) -> Vec<u8> {
    assemble_bytes_container(data.len(), &[encode_bytes_chunk(data, cfg)])
}

/// Compress a byte stream as fixed-size independent chunks. The output
/// depends only on `data` and `chunk_bytes`, never on who encodes which
/// chunk.
pub fn compress_bytes_chunked(data: &[u8], chunk_bytes: usize, cfg: &PcoConfig) -> Vec<u8> {
    let chunk_bytes = chunk_bytes.max(1);
    let blobs: Vec<Vec<u8>> =
        data.chunks(chunk_bytes).map(|c| encode_bytes_chunk(c, cfg)).collect();
    if blobs.is_empty() {
        return compress_bytes(data, cfg);
    }
    assemble_bytes_container(data.len(), &blobs)
}

/// Decode one bytes-mode chunk blob back to its raw bytes, rejecting
/// chunks that declare more than `max_bytes` of output. Inverse of
/// [`encode_bytes_chunk`]; public so streaming decoders can consume
/// chunks one frame at a time without the container wrapper.
pub fn decode_bytes_chunk(blob: &[u8], max_bytes: usize) -> Result<Vec<u8>, PcoError> {
    let mut r = ByteReader::new(blob);
    let chunk_len = r.usize_bounded(max_bytes, "chunk length")?;
    let n_words = chunk_len / 4;
    let words = decode_column_body::<u32>(&mut r, n_words)?;
    if words.len() != n_words {
        return Err(PcoError::corrupt("chunk word count mismatch"));
    }
    let tail = r.take(chunk_len % 4)?;
    r.expect_done()?;
    let mut out = Vec::with_capacity(chunk_len);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(tail);
    Ok(out)
}

pub fn decompress_bytes(stream: &[u8]) -> Result<Vec<u8>, PcoError> {
    decompress_bytes_with_limit(stream, usize::MAX)
}

/// Decode any PCO1 stream back to its original byte representation
/// (little-endian element bytes for typed columns), rejecting streams
/// that declare more than `limit` output bytes before allocating.
pub fn decompress_bytes_with_limit(stream: &[u8], limit: usize) -> Result<Vec<u8>, PcoError> {
    let mut r = ByteReader::new(stream);
    if r.take(4)? != MAGIC {
        return Err(PcoError::corrupt("bad magic"));
    }
    if r.u8()? != VERSION {
        return Err(PcoError::corrupt("unsupported version"));
    }
    let tag = r.u8()?;
    match tag {
        TAG_U32 => {
            let vals = decode_column_body::<u32>(&mut r, limit / 4)?;
            r.expect_done()?;
            Ok(vals.iter().flat_map(|v| v.to_le_bytes()).collect())
        }
        TAG_U64 => {
            let vals = decode_column_body::<u64>(&mut r, limit / 8)?;
            r.expect_done()?;
            Ok(vals.iter().flat_map(|v| v.to_le_bytes()).collect())
        }
        TAG_F32 => {
            let vals = decode_column_body::<u32>(&mut r, limit / 4)?;
            r.expect_done()?;
            Ok(vals.iter().flat_map(|&v| latent_to_f32(v).to_le_bytes()).collect())
        }
        TAG_F64 => {
            let vals = decode_column_body::<u64>(&mut r, limit / 8)?;
            r.expect_done()?;
            Ok(vals.iter().flat_map(|&v| latent_to_f64(v).to_le_bytes()).collect())
        }
        TAG_BYTES => {
            let total = r.usize_bounded(limit, "total length")?;
            let n_chunks = r.usize_bounded(r.remaining(), "chunk count")?;
            let mut lens = Vec::with_capacity(n_chunks);
            for _ in 0..n_chunks {
                lens.push(r.usize_bounded(r.remaining(), "chunk blob length")?);
            }
            let mut out = Vec::with_capacity(total);
            for len in lens {
                let blob = r.take(len)?;
                let remaining = total
                    .checked_sub(out.len())
                    .ok_or_else(|| PcoError::corrupt("chunks exceed declared total"))?;
                let chunk = decode_bytes_chunk(blob, remaining)?;
                out.extend_from_slice(&chunk);
            }
            r.expect_done()?;
            if out.len() != total {
                return Err(PcoError::corrupt("reassembled length mismatch"));
            }
            Ok(out)
        }
        _ => Err(PcoError::corrupt(format!("unknown stream tag {tag}"))),
    }
}

/// Compress raw little-endian bytes as a typed column when the length
/// is a whole number of elements, falling back to bytes mode when not.
pub fn compress_typed_bytes(data: &[u8], ty: ColumnType, cfg: &PcoConfig) -> Vec<u8> {
    let elem = match ty {
        ColumnType::U32 | ColumnType::F32 => 4,
        ColumnType::U64 | ColumnType::F64 => 8,
    };
    if data.is_empty() || !data.len().is_multiple_of(elem) {
        return compress_bytes(data, cfg);
    }
    match ty {
        ColumnType::U32 => {
            let vals: Vec<u32> =
                data.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
            compress_u32(&vals, cfg)
        }
        ColumnType::U64 => {
            let vals: Vec<u64> =
                data.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
            compress_u64(&vals, cfg)
        }
        ColumnType::F32 => {
            let vals: Vec<f32> =
                data.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            compress_f32(&vals, cfg)
        }
        ColumnType::F64 => {
            let vals: Vec<f64> =
                data.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
            compress_f64(&vals, cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_column_roundtrips() {
        let vals: Vec<u32> = (0..10_000).map(|i| 1000 + 3 * i + (i * i % 17)).collect();
        let cfg = PcoConfig::default();
        let stream = compress_u32(&vals, &cfg);
        assert_eq!(decompress_u32(&stream).unwrap(), vals);
        assert!(stream.len() < vals.len() * 4 / 2, "ramp should compress 2x+");
    }

    #[test]
    fn u64_column_roundtrips_extremes() {
        let vals: Vec<u64> = vec![0, u64::MAX, 1 << 63, 1, u64::MAX - 1, 42, 42, 42];
        let cfg = PcoConfig::default();
        assert_eq!(decompress_u64(&compress_u64(&vals, &cfg)).unwrap(), vals);
    }

    #[test]
    fn f32_column_preserves_non_finite_payloads() {
        let mut vals: Vec<f32> = (0..5000).map(|i| (i as f32).sin() * 1e3).collect();
        vals[17] = f32::NAN;
        vals[100] = -f32::NAN;
        vals[200] = f32::INFINITY;
        vals[300] = f32::NEG_INFINITY;
        vals[400] = -0.0;
        vals[500] = f32::from_bits(0x7FC0_1234);
        let stream = compress_f32(&vals, &PcoConfig::default());
        let back = decompress_f32(&stream).unwrap();
        assert_eq!(back.len(), vals.len());
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f64_column_preserves_non_finite_payloads() {
        let mut vals: Vec<f64> = (0..3000).map(|i| (i as f64) * 0.001 + 7.0).collect();
        vals[3] = f64::NAN;
        vals[4] = f64::from_bits(0xFFF8_0000_0000_BEEF);
        vals[5] = f64::NEG_INFINITY;
        vals[6] = -0.0;
        let stream = compress_f64(&vals, &PcoConfig::default());
        let back = decompress_f64(&stream).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_and_tiny_columns() {
        let cfg = PcoConfig::default();
        assert_eq!(decompress_u32(&compress_u32(&[], &cfg)).unwrap(), Vec::<u32>::new());
        assert_eq!(decompress_u32(&compress_u32(&[7], &cfg)).unwrap(), vec![7]);
        assert_eq!(decompress_f64(&compress_f64(&[1.5, -2.5], &cfg)).unwrap(), vec![1.5, -2.5]);
    }

    #[test]
    fn bytes_mode_roundtrips_any_length() {
        let cfg = PcoConfig::default();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 1023, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let stream = compress_bytes(&data, &cfg);
            assert_eq!(decompress_bytes(&stream).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn chunked_bytes_are_chunk_size_deterministic_and_decodable() {
        let cfg = PcoConfig::default();
        let data: Vec<u8> = (0..100_000u32).flat_map(|i| (i / 3).to_le_bytes()).collect();
        let a = compress_bytes_chunked(&data, 16 * 1024, &cfg);
        let b = compress_bytes_chunked(&data, 16 * 1024, &cfg);
        assert_eq!(a, b);
        assert_eq!(decompress_bytes(&a).unwrap(), data);
        // Chunking from independent blobs matches the sequential path.
        let blobs: Vec<Vec<u8>> =
            data.chunks(16 * 1024).map(|c| encode_bytes_chunk(c, &cfg)).collect();
        assert_eq!(assemble_bytes_container(data.len(), &blobs), a);
    }

    #[test]
    fn typed_bytes_falls_back_on_misaligned_input() {
        let cfg = PcoConfig::default();
        let data = vec![1u8, 2, 3, 4, 5]; // not a whole number of f32s
        let stream = compress_typed_bytes(&data, ColumnType::F32, &cfg);
        assert_eq!(decompress_bytes(&stream).unwrap(), data);
    }

    #[test]
    fn typed_bytes_streams_decode_via_bytes_api() {
        let cfg = PcoConfig::default();
        let vals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25 - 3.0).collect();
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        for ty in [ColumnType::U32, ColumnType::U64, ColumnType::F32, ColumnType::F64] {
            let stream = compress_typed_bytes(&raw, ty, &cfg);
            assert_eq!(decompress_bytes(&stream).unwrap(), raw, "{ty:?}");
        }
    }

    #[test]
    fn compression_is_deterministic() {
        let vals: Vec<f64> = (0..20_000).map(|i| (i as f64).sqrt() * 100.0).collect();
        let cfg = PcoConfig::default();
        assert_eq!(compress_f64(&vals, &cfg), compress_f64(&vals, &cfg));
    }

    #[test]
    fn limit_is_enforced_before_allocation() {
        let vals: Vec<u32> = (0..10_000).collect();
        let stream = compress_u32(&vals, &PcoConfig::default());
        match decompress_u32_with_limit(&stream, 100) {
            Err(PcoError::TooLarge { need, limit }) => {
                assert_eq!(need, 10_000);
                assert_eq!(limit, 100);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let bytes_stream = compress_bytes(&vec![0u8; 50_000], &PcoConfig::default());
        assert!(matches!(
            decompress_bytes_with_limit(&bytes_stream, 1000),
            Err(PcoError::TooLarge { .. })
        ));
    }

    #[test]
    fn wrong_tag_and_junk_are_errors() {
        let stream = compress_u32(&[1, 2, 3], &PcoConfig::default());
        assert!(decompress_u64(&stream).is_err());
        assert!(decompress_bytes(b"not a pco stream").is_err());
        assert!(decompress_bytes(&[]).is_err());
    }

    #[test]
    fn forced_delta_orders_all_roundtrip() {
        let vals: Vec<u32> = (0..5000).map(|i| i * 7 + i % 13).collect();
        for order in 0..=2u8 {
            let cfg = PcoConfig { delta: DeltaSpec::Order(order), max_bins: 256 };
            let stream = compress_u32(&vals, &cfg);
            assert_eq!(decompress_u32(&stream).unwrap(), vals, "order {order}");
        }
    }

    #[test]
    fn smooth_float_columns_compress_well() {
        // Correlated values like the exaalt/obs_error generators emit.
        let vals: Vec<f32> = (0..50_000).map(|i| 300.0 + (i as f32 * 0.001).sin() * 5.0).collect();
        let stream = compress_f32(&vals, &PcoConfig::default());
        let raw = vals.len() * 4;
        assert!(stream.len() * 2 < raw, "{} of {raw} bytes", stream.len());
    }
}
