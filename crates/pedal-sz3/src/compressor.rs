//! The end-to-end SZ3-style pipeline: predict → quantize → entropy-encode →
//! lossless backend, and its exact inverse.
//!
//! The pipeline is deliberately split into two halves:
//!
//! * [`encode_core`] / [`decode_core`] — everything up to (but excluding)
//!   the lossless stage. The output is the "core" byte stream.
//! * [`seal`] / [`unseal`] — apply / undo the lossless backend.
//!
//! PEDAL exploits the split: on BlueField-2 the lossless stage of "SZ3
//! (C-Engine)" executes on the hardware compression engine while the core
//! stages run on the SoC (paper Fig. 4). The simulated engine therefore
//! needs to see the two halves as separate operations with separately
//! attributable sizes and timings.

use crate::backend::{backend_compress, backend_decompress, BackendError, BackendKind};
use crate::field::{Dims, Field, Float};
use crate::huff;
use crate::interp_nd::{interp_lines, predict_line, PointStep};
use crate::predictor::{lorenzo_predict, PredictorKind};
use crate::quantizer::{Quantized, Quantizer};
use pedal_deflate::varint::{get_uvarint, put_uvarint};

/// Magic prefix of the core stream.
const CORE_MAGIC: &[u8; 4] = b"SZ3R";
/// Magic prefix of a sealed (backend-compressed) stream.
const SEALED_MAGIC: &[u8; 4] = b"SZ3S";

/// Largest quantizer radius: every code index, below `2 * radius`, must
/// fit the u32 the Huffman stage codes.
const MAX_RADIUS: i64 = 1 << 31;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sz3Config {
    /// Error bound (the paper uses ABS 1e-4). Interpreted per
    /// [`Self::relative`].
    pub error_bound: f64,
    /// When true, `error_bound` is *value-range relative* (SZ3's REL mode):
    /// the effective absolute bound is `error_bound * (max - min)` of the
    /// input. The effective absolute bound is what the stream records.
    pub relative: bool,
    pub predictor: PredictorKind,
    pub backend: BackendKind,
    /// Quantizer radius (codes per side), at most 2^31.
    pub radius: i64,
}

impl Default for Sz3Config {
    fn default() -> Self {
        Self {
            error_bound: 1e-4,
            relative: false,
            predictor: PredictorKind::Interp,
            backend: BackendKind::Zs,
            radius: Quantizer::DEFAULT_RADIUS,
        }
    }
}

impl Sz3Config {
    /// Absolute error bound (SZ3's ABS mode).
    pub fn with_error_bound(eb: f64) -> Self {
        Self { error_bound: eb, ..Self::default() }
    }

    /// Value-range-relative error bound (SZ3's REL mode).
    pub fn with_relative_bound(rel: f64) -> Self {
        Self { error_bound: rel, relative: true, ..Self::default() }
    }

    /// Reject configurations the pipeline cannot honour: the error bound
    /// must be positive and finite (the quantizer asserts this) and the
    /// radius must leave room for at least one code per side without its
    /// codes outgrowing a u32.
    pub fn validate(&self) -> Result<(), Sz3Error> {
        if !self.error_bound.is_finite() || self.error_bound <= 0.0 {
            return Err(Sz3Error::BadConfig("error bound must be positive and finite"));
        }
        if self.radius <= 1 {
            return Err(Sz3Error::BadConfig("radius must be greater than 1"));
        }
        if self.radius > MAX_RADIUS {
            return Err(Sz3Error::BadConfig("radius must be at most 2^31"));
        }
        Ok(())
    }
}

/// Decompression failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Sz3Error {
    /// Magic or header malformed.
    BadHeader(&'static str),
    /// Type tag does not match the requested element type.
    TypeMismatch { expected: u8, found: u8 },
    /// Entropy decode failed.
    Entropy(huff::HuffStreamError),
    /// Backend stage failed.
    Backend(BackendError),
    /// Stream is internally inconsistent.
    Corrupt(&'static str),
    /// Stream declares a size beyond the caller's decode budget.
    LimitExceeded { needed: usize, limit: usize },
    /// Configuration cannot produce a valid stream (e.g. NaN error bound).
    BadConfig(&'static str),
}

impl std::fmt::Display for Sz3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sz3Error::BadHeader(what) => write!(f, "bad sz3 header: {what}"),
            Sz3Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: stream {found:#x}, requested {expected:#x}")
            }
            Sz3Error::Entropy(e) => write!(f, "entropy stage: {e}"),
            Sz3Error::Backend(e) => write!(f, "{e}"),
            Sz3Error::Corrupt(what) => write!(f, "corrupt sz3 stream: {what}"),
            Sz3Error::LimitExceeded { needed, limit } => {
                write!(f, "sz3 stream needs {needed} bytes, budget is {limit}")
            }
            Sz3Error::BadConfig(what) => write!(f, "bad sz3 config: {what}"),
        }
    }
}

impl std::error::Error for Sz3Error {}

impl From<huff::HuffStreamError> for Sz3Error {
    fn from(e: huff::HuffStreamError) -> Self {
        Sz3Error::Entropy(e)
    }
}

impl From<BackendError> for Sz3Error {
    fn from(e: BackendError) -> Self {
        Sz3Error::Backend(e)
    }
}

/// Size accounting of the core encode, used by the DPU cost model to
/// attribute time to pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Input bytes (elements * element size).
    pub input_bytes: usize,
    /// Number of quantized (predictable) elements.
    pub quantized: usize,
    /// Number of outliers stored raw.
    pub outliers: usize,
    /// Bytes of the core stream (input to the lossless backend).
    pub core_bytes: usize,
    /// Bytes produced by the Huffman stage alone (excluding header and
    /// raw outliers) — the per-stage profiler's `sz3-huffman` span arg.
    pub huffman_bytes: usize,
    /// Raw outlier payload bytes appended after the entropy stream.
    pub outlier_bytes: usize,
}

/// Run predict+quantize+entropy-encode. Returns the core byte stream and
/// stage statistics. The core stream is what the lossless backend (possibly
/// the simulated C-Engine) compresses next.
pub fn encode_core<T: Float>(field: &Field<T>, cfg: &Sz3Config) -> (Vec<u8>, CoreStats) {
    let dims = field.dims;
    let n = dims.len();
    // REL mode: scale the bound by the data's value range. A zero or
    // non-finite range (constant/degenerate data) falls back to the raw
    // bound, which is then trivially satisfied.
    let abs_eb = if cfg.relative {
        let (lo, hi) = field.range();
        let range = hi - lo;
        let scaled = cfg.error_bound * range;
        if range.is_finite() && range > 0.0 && scaled.is_finite() {
            scaled
        } else {
            cfg.error_bound
        }
    } else {
        cfg.error_bound
    };
    let q = Quantizer::with_radius(abs_eb, cfg.radius);

    let predictor = effective_predictor(cfg.predictor, dims);

    let mut st = Quantize {
        data: &field.data,
        q,
        codes: Vec::with_capacity(n),
        outliers: Vec::new(),
        n_outliers: 0,
    };
    // Reconstructions in T, exactly what the decompressor will hold.
    let mut recon = vec![T::zero(); n];
    match predictor {
        PredictorKind::Lorenzo => {
            for z in 0..dims.nz {
                for y in 0..dims.ny {
                    for x in 0..dims.nx {
                        let i = dims.idx(x, y, z);
                        let pred = lorenzo_predict(&recon, dims.nx, dims.ny, x, y, z);
                        st.step(&mut recon, i, pred);
                    }
                }
            }
        }
        PredictorKind::Interp | PredictorKind::InterpCubic => {
            // Seed point 0 predicted as 0, then the multi-level walk.
            if n > 0 {
                st.step(&mut recon, 0, 0.0);
            }
            let cubic = predictor == PredictorKind::InterpCubic;
            interp_lines(dims, |line| predict_line(&mut recon, line, cubic, &mut st));
        }
    }
    let Quantize { codes, outliers, n_outliers, .. } = st;

    // Entropy-encode the code stream, straight into the core stream.
    let encoded = huff::Blob::plan(&codes);
    let mut out = Vec::with_capacity(encoded.len() + outliers.len() + 64);
    out.extend_from_slice(CORE_MAGIC);
    out.push(1); // version
    out.push(T::TYPE_TAG);
    out.push(predictor.tag());
    put_uvarint(&mut out, dims.nx as u64);
    put_uvarint(&mut out, dims.ny as u64);
    put_uvarint(&mut out, dims.nz as u64);
    out.extend_from_slice(&abs_eb.to_le_bytes());
    put_uvarint(&mut out, cfg.radius as u64);
    put_uvarint(&mut out, n_outliers as u64);
    put_uvarint(&mut out, encoded.len() as u64);
    encoded.append_to(&mut out);
    out.extend_from_slice(&outliers);

    let stats = CoreStats {
        input_bytes: n * T::BYTES,
        quantized: n - n_outliers,
        outliers: n_outliers,
        core_bytes: out.len(),
        huffman_bytes: encoded.len(),
        outlier_bytes: outliers.len(),
    };
    (out, stats)
}

/// Pick the predictor actually used (header records this, not the request).
/// Interpolation is supported for every rank via the N-D plan.
fn effective_predictor(requested: PredictorKind, _dims: Dims) -> PredictorKind {
    requested
}

/// Invert [`encode_core`].
///
/// The element count in the header is trusted up to what the entropy
/// stream can back; decoding input from an untrusted peer should go
/// through [`decode_core_with_limit`] so the count is bounded *before*
/// reconstruction buffers are allocated.
pub fn decode_core<T: Float>(core: &[u8]) -> Result<Field<T>, Sz3Error> {
    decode_core_with_limit(core, usize::MAX)
}

/// Like [`decode_core`] but rejects streams declaring more than
/// `max_elements` elements, so a hostile header cannot trigger a huge
/// allocation or overflow the dimension product.
pub fn decode_core_with_limit<T: Float>(
    core: &[u8],
    max_elements: usize,
) -> Result<Field<T>, Sz3Error> {
    if core.len() < 8 || &core[..4] != CORE_MAGIC {
        return Err(Sz3Error::BadHeader("magic"));
    }
    let mut i = 4usize;
    let version = core[i];
    i += 1;
    if version != 1 {
        return Err(Sz3Error::BadHeader("version"));
    }
    let type_tag = core[i];
    i += 1;
    if type_tag != T::TYPE_TAG {
        return Err(Sz3Error::TypeMismatch { expected: T::TYPE_TAG, found: type_tag });
    }
    let predictor = PredictorKind::from_tag(core[i]).ok_or(Sz3Error::BadHeader("predictor"))?;
    i += 1;
    let nx = get_uvarint(core, &mut i).map_err(|_| Sz3Error::BadHeader("nx"))? as usize;
    let ny = get_uvarint(core, &mut i).map_err(|_| Sz3Error::BadHeader("ny"))? as usize;
    let nz = get_uvarint(core, &mut i).map_err(|_| Sz3Error::BadHeader("nz"))? as usize;
    let dims = Dims { nx, ny, nz };
    // Untrusted dimensions: the product must neither overflow nor outrun
    // the caller's budget — checked before any size-`n` allocation.
    let n = dims.checked_len().ok_or(Sz3Error::Corrupt("dimension product overflows"))?;
    if n > max_elements {
        return Err(Sz3Error::LimitExceeded {
            needed: n.saturating_mul(T::BYTES),
            limit: max_elements.saturating_mul(T::BYTES),
        });
    }
    if i + 8 > core.len() {
        return Err(Sz3Error::BadHeader("eb"));
    }
    let eb = f64::from_le_bytes(core[i..i + 8].try_into().unwrap());
    i += 8;
    if eb <= 0.0 || eb.is_nan() || !eb.is_finite() {
        return Err(Sz3Error::BadHeader("eb value"));
    }
    let radius = get_uvarint(core, &mut i).map_err(|_| Sz3Error::BadHeader("radius"))?;
    if radius <= 1 || radius > MAX_RADIUS as u64 {
        return Err(Sz3Error::BadHeader("radius value"));
    }
    let n_outliers =
        get_uvarint(core, &mut i).map_err(|_| Sz3Error::BadHeader("outliers"))? as usize;
    let enc_len = get_uvarint(core, &mut i).map_err(|_| Sz3Error::BadHeader("enc len"))? as usize;
    // Checked add: a near-u64::MAX declared length must not wrap the
    // bounds comparison.
    let enc_end = i
        .checked_add(enc_len)
        .filter(|&end| end <= core.len())
        .ok_or(Sz3Error::BadHeader("enc bytes"))?;
    let codes = huff::decode_with_limit(&core[i..enc_end], n)?;
    i = enc_end;

    if codes.len() != n {
        return Err(Sz3Error::Corrupt("code count != element count"));
    }
    let outlier_bytes = &core[i..];
    let outlier_len =
        n_outliers.checked_mul(T::BYTES).ok_or(Sz3Error::Corrupt("outlier count overflows"))?;
    if outlier_bytes.len() != outlier_len {
        return Err(Sz3Error::Corrupt("outlier byte count"));
    }

    // Codes are consumed in order, so checking them in order reports the
    // same first fault the reconstruction would meet.
    let mut outliers_seen = 0usize;
    for &code in &codes {
        if code == Quantizer::OUTLIER {
            outliers_seen += 1;
            if outliers_seen > n_outliers {
                return Err(Sz3Error::Corrupt("outlier stream exhausted"));
            }
        } else if code as u64 >= 2 * radius {
            return Err(Sz3Error::Corrupt("quant code out of range"));
        }
    }

    let q = Quantizer::with_radius(eb, radius as i64);
    let mut out_data = vec![T::zero(); n];
    // Codes were emitted in *visit order*, which for interpolation differs
    // from position order; consume them with a running cursor. Predictions
    // read `out_data`, whose values are already in T precision, as the
    // encoder's were.
    let mut st =
        Reconstruct { q, codes: &codes, cursor: 0, outliers: outlier_bytes, outlier_pos: 0 };
    match predictor {
        PredictorKind::Lorenzo => {
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let idx = dims.idx(x, y, z);
                        let pred = lorenzo_predict(&out_data, nx, ny, x, y, z);
                        st.step(&mut out_data, idx, pred);
                    }
                }
            }
        }
        PredictorKind::Interp | PredictorKind::InterpCubic => {
            if n > 0 {
                st.step(&mut out_data, 0, 0.0);
            }
            let cubic = predictor == PredictorKind::InterpCubic;
            interp_lines(dims, |line| predict_line(&mut out_data, line, cubic, &mut st));
        }
    }

    Ok(Field::new(dims, out_data))
}

/// The compressor's step at each point: quantize the value against its
/// prediction, and store what the decompressor will reconstruct.
struct Quantize<'a, T> {
    data: &'a [T],
    q: Quantizer,
    /// One code per point, in visit order.
    codes: Vec<u32>,
    /// Raw little-endian values of the outliers, in visit order.
    outliers: Vec<u8>,
    n_outliers: usize,
}

impl<T: Float> PointStep<T> for Quantize<'_, T> {
    #[inline(always)]
    fn step(&mut self, recon: &mut [T], i: usize, pred: f64) {
        let value = self.data[i].to_f64();
        // The decompressor stores reconstructions in T, so the bound must
        // hold on the T-rounded value, not the f64 intermediate.
        if let Quantized::Code { index, reconstructed } = self.q.quantize(value, pred) {
            let stored = T::from_f64(reconstructed);
            if (stored.to_f64() - value).abs() <= self.q.eb {
                self.codes.push(index);
                recon[i] = stored;
                return;
            }
        }
        self.codes.push(Quantizer::OUTLIER);
        let raw = T::from_f64(value);
        self.outliers.extend_from_slice(&raw.to_le_bytes_vec()[..T::BYTES]);
        self.n_outliers += 1;
        recon[i] = raw;
    }
}

/// The decompressor's step at each point: take the next code and
/// reconstruct the value from the prediction, or read the next outlier.
struct Reconstruct<'a> {
    q: Quantizer,
    codes: &'a [u32],
    cursor: usize,
    outliers: &'a [u8],
    outlier_pos: usize,
}

impl<T: Float> PointStep<T> for Reconstruct<'_> {
    #[inline(always)]
    fn step(&mut self, out: &mut [T], i: usize, pred: f64) {
        let code = self.codes[self.cursor];
        self.cursor += 1;
        out[i] = if code == Quantizer::OUTLIER {
            let v = T::from_le_slice(&self.outliers[self.outlier_pos..self.outlier_pos + T::BYTES]);
            self.outlier_pos += T::BYTES;
            v
        } else {
            T::from_f64(self.q.reconstruct(code, pred))
        };
    }
}

/// Apply the lossless backend, producing the final sealed stream.
pub fn seal(core: &[u8], backend: BackendKind) -> Vec<u8> {
    seal_with(core, backend, |data| backend_compress(backend, data))
}

/// Like [`seal`] but the actual compression is delegated to `compress_fn` —
/// this is the hook the simulated C-Engine plugs into. The function must
/// produce a stream that [`backend_decompress`] for `backend` can undo.
pub fn seal_with(
    core: &[u8],
    backend: BackendKind,
    compress_fn: impl FnOnce(&[u8]) -> Vec<u8>,
) -> Vec<u8> {
    let packed = compress_fn(core);
    let mut out = Vec::with_capacity(packed.len() + 16);
    out.extend_from_slice(SEALED_MAGIC);
    out.push(backend.tag());
    put_uvarint(&mut out, core.len() as u64);
    out.extend_from_slice(&packed);
    out
}

/// Undo [`seal`], recovering the core stream.
pub fn unseal(sealed: &[u8]) -> Result<(Vec<u8>, BackendKind), Sz3Error> {
    unseal_with(sealed, backend_decompress)
}

/// Like [`unseal`] but decompression is delegated (C-Engine hook).
pub fn unseal_with(
    sealed: &[u8],
    decompress_fn: impl FnOnce(BackendKind, &[u8]) -> Result<Vec<u8>, BackendError>,
) -> Result<(Vec<u8>, BackendKind), Sz3Error> {
    unseal_with_limit(sealed, usize::MAX, |backend, packed, _limit| decompress_fn(backend, packed))
}

/// Like [`unseal_with`] but the declared core length is validated against
/// `max_core_len` *before* the backend runs, and the delegate receives the
/// byte budget it must enforce — a hostile header cannot make the lossless
/// stage inflate past the caller's budget.
pub fn unseal_with_limit(
    sealed: &[u8],
    max_core_len: usize,
    decompress_fn: impl FnOnce(BackendKind, &[u8], usize) -> Result<Vec<u8>, BackendError>,
) -> Result<(Vec<u8>, BackendKind), Sz3Error> {
    if sealed.len() < 6 || &sealed[..4] != SEALED_MAGIC {
        return Err(Sz3Error::BadHeader("sealed magic"));
    }
    let backend = BackendKind::from_tag(sealed[4]).ok_or(Sz3Error::BadHeader("backend tag"))?;
    let mut i = 5usize;
    let core_len =
        get_uvarint(sealed, &mut i).map_err(|_| Sz3Error::BadHeader("core len"))? as usize;
    if core_len > max_core_len {
        return Err(Sz3Error::LimitExceeded { needed: core_len, limit: max_core_len });
    }
    let core = decompress_fn(backend, &sealed[i..], core_len)?;
    if core.len() != core_len {
        return Err(Sz3Error::Corrupt("core length mismatch"));
    }
    Ok((core, backend))
}

/// Undo [`seal`] with a byte budget on the recovered core stream.
pub fn unseal_limited(
    sealed: &[u8],
    max_core_len: usize,
) -> Result<(Vec<u8>, BackendKind), Sz3Error> {
    unseal_with_limit(sealed, max_core_len, crate::backend::backend_decompress_with_limit)
}

/// Core-stream byte budget implied by an expected decompressed size: the
/// core carries the entropy-coded codes plus raw outliers, which for any
/// stream [`encode_core`] can emit stays within a small multiple of the
/// element bytes plus a fixed symbol-table allowance. Shared by every
/// decode path (SoC and C-Engine) so both reject oversized streams at the
/// same threshold.
pub fn core_limit_for_output(output_bytes: usize) -> usize {
    output_bytes.saturating_mul(4).saturating_add(1 << 20)
}

/// One-shot compression: core encode + backend seal.
pub fn compress<T: Float>(field: &Field<T>, cfg: &Sz3Config) -> Vec<u8> {
    let (core, _) = encode_core(field, cfg);
    seal(&core, cfg.backend)
}

/// One-shot compression with configuration validation: a NaN, infinite, or
/// non-positive error bound (or degenerate radius) is reported as
/// [`Sz3Error::BadConfig`] instead of panicking inside the quantizer.
pub fn compress_checked<T: Float>(field: &Field<T>, cfg: &Sz3Config) -> Result<Vec<u8>, Sz3Error> {
    cfg.validate()?;
    Ok(compress(field, cfg))
}

/// One-shot decompression.
pub fn decompress<T: Float>(sealed: &[u8]) -> Result<Field<T>, Sz3Error> {
    let (core, _) = unseal(sealed)?;
    decode_core(&core)
}

/// One-shot decompression bounded by an output budget in bytes: both the
/// backend stage and the reconstruction are capped, so hostile streams are
/// rejected before any out-of-budget allocation.
pub fn decompress_with_limit<T: Float>(
    sealed: &[u8],
    max_output_bytes: usize,
) -> Result<Field<T>, Sz3Error> {
    let (core, _) = unseal_limited(sealed, core_limit_for_output(max_output_bytes))?;
    decode_core_with_limit(&core, max_output_bytes / T::BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_field_f32(n: usize) -> Field<f32> {
        Field::from_fn(Dims::d1(n), |x, _, _| {
            let t = x as f32 * 0.01;
            t.sin() * 10.0 + (t * 3.7).cos() * 2.0
        })
    }

    fn check_bound<T: Float>(orig: &Field<T>, recon: &Field<T>, eb: f64) {
        let diff = orig.max_abs_diff(recon);
        assert!(diff <= eb * (1.0 + 1e-12), "max diff {diff} > eb {eb}");
    }

    #[test]
    fn roundtrip_1d_all_predictors() {
        let field = wave_field_f32(10_000);
        for predictor in [PredictorKind::Lorenzo, PredictorKind::Interp, PredictorKind::InterpCubic]
        {
            let cfg = Sz3Config { predictor, ..Sz3Config::with_error_bound(1e-4) };
            let sealed = compress(&field, &cfg);
            let recon: Field<f32> = decompress(&sealed).unwrap();
            check_bound(&field, &recon, cfg.error_bound);
        }
    }

    #[test]
    fn roundtrip_2d_3d_lorenzo() {
        let f2 = Field::<f64>::from_fn(Dims::d2(100, 80), |x, y, _| {
            ((x as f64) * 0.05).sin() * ((y as f64) * 0.03).cos() * 50.0
        });
        let f3 = Field::<f64>::from_fn(Dims::d3(24, 20, 16), |x, y, z| {
            (x + 2 * y + 3 * z) as f64 * 0.1 + ((x * y) as f64 * 0.01).sin()
        });
        let cfg =
            Sz3Config { predictor: PredictorKind::Lorenzo, ..Sz3Config::with_error_bound(1e-3) };
        for f in [&f2, &f3] {
            let sealed = compress(f, &cfg);
            let recon: Field<f64> = decompress(&sealed).unwrap();
            check_bound(f, &recon, cfg.error_bound);
        }
    }

    #[test]
    fn interp_on_2d_uses_nd_plan_and_roundtrips() {
        let f = Field::<f32>::from_fn(Dims::d2(50, 40), |x, y, _| (x * y) as f32 * 0.001);
        let cfg = Sz3Config { predictor: PredictorKind::Interp, ..Default::default() };
        let sealed = compress(&f, &cfg);
        let recon: Field<f32> = decompress(&sealed).unwrap();
        check_bound(&f, &recon, cfg.error_bound);
    }

    #[test]
    fn all_backends_produce_identical_fields() {
        let field = wave_field_f32(5_000);
        let mut reference: Option<Vec<f32>> = None;
        for backend in [BackendKind::None, BackendKind::Zs, BackendKind::Deflate, BackendKind::Lz4]
        {
            let cfg = Sz3Config { backend, ..Default::default() };
            let sealed = compress(&field, &cfg);
            let recon: Field<f32> = decompress(&sealed).unwrap();
            match &reference {
                None => reference = Some(recon.data),
                Some(r) => assert_eq!(r, &recon.data, "{backend:?}"),
            }
        }
    }

    #[test]
    fn split_phase_equals_one_shot() {
        let field = wave_field_f32(3_000);
        let cfg = Sz3Config::default();
        let (core, stats) = encode_core(&field, &cfg);
        assert_eq!(stats.input_bytes, 3_000 * 4);
        assert_eq!(stats.quantized + stats.outliers, 3_000);
        assert_eq!(stats.core_bytes, core.len());
        // Stage accounting: header + entropy stream + raw outliers make
        // up the whole core, and the entropy stage produced real bytes.
        assert!(stats.huffman_bytes > 0);
        assert!(stats.huffman_bytes + stats.outlier_bytes < stats.core_bytes);
        assert_eq!(stats.outlier_bytes, stats.outliers * 4);
        let sealed = seal(&core, cfg.backend);
        assert_eq!(sealed, compress(&field, &cfg));
        let (core2, backend) = unseal(&sealed).unwrap();
        assert_eq!(backend, cfg.backend);
        assert_eq!(core2, core);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let field = wave_field_f32(200_000);
        let cfg = Sz3Config::with_error_bound(1e-4);
        let sealed = compress(&field, &cfg);
        let ratio = (field.data.len() * 4) as f64 / sealed.len() as f64;
        assert!(ratio > 3.0, "ratio only {ratio:.2}");
    }

    #[test]
    fn random_noise_still_bounded() {
        // Worst case: incompressible noise. Bound must hold even if nearly
        // everything lands in one quant bucket or becomes an outlier.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let field = Field::<f32>::from_fn(Dims::d1(20_000), |_, _, _| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) as f32 * 2000.0 - 1000.0
        });
        let cfg = Sz3Config::with_error_bound(1e-4);
        let recon: Field<f32> = decompress(&compress(&field, &cfg)).unwrap();
        check_bound(&field, &recon, cfg.error_bound);
    }

    #[test]
    fn nan_and_inf_survive_exactly() {
        let mut field = wave_field_f32(100);
        field.data[10] = f32::NAN;
        field.data[20] = f32::INFINITY;
        field.data[30] = f32::NEG_INFINITY;
        let cfg = Sz3Config::default();
        let recon: Field<f32> = decompress(&compress(&field, &cfg)).unwrap();
        assert!(recon.data[10].is_nan());
        assert_eq!(recon.data[20], f32::INFINITY);
        assert_eq!(recon.data[30], f32::NEG_INFINITY);
        // All finite values still bounded.
        for (i, (&a, &b)) in field.data.iter().zip(&recon.data).enumerate() {
            if a.is_finite() {
                assert!((a - b).abs() as f64 <= cfg.error_bound, "index {i}");
            }
        }
    }

    #[test]
    fn type_mismatch_detected() {
        let field = wave_field_f32(64);
        let sealed = compress(&field, &Sz3Config::default());
        let err = decompress::<f64>(&sealed).unwrap_err();
        assert!(matches!(err, Sz3Error::TypeMismatch { .. }));
    }

    #[test]
    fn truncated_or_corrupt_streams_error_cleanly() {
        let field = wave_field_f32(512);
        let sealed = compress(&field, &Sz3Config::default());
        for cut in [0, 3, 5, sealed.len() / 2] {
            assert!(decompress::<f32>(&sealed[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = sealed.clone();
        bad[4] = 0xEE; // invalid backend tag
        assert!(decompress::<f32>(&bad).is_err());
    }

    #[test]
    fn hostile_dims_rejected_without_allocation() {
        // Craft a core whose header declares astronomically large dims.
        let field = wave_field_f32(16);
        let (core, _) = encode_core(&field, &Sz3Config::default());
        // Rebuild the header with nx = 2^62, ny = 2^3, nz = 2 (overflow).
        let mut bad = core[..7].to_vec(); // magic, version, type, predictor
        put_uvarint(&mut bad, 1u64 << 62);
        put_uvarint(&mut bad, 1u64 << 3);
        put_uvarint(&mut bad, 2);
        bad.extend_from_slice(&1e-4f64.to_le_bytes());
        put_uvarint(&mut bad, 32768); // radius
        put_uvarint(&mut bad, 0); // outliers
        put_uvarint(&mut bad, 0); // enc_len
        assert_eq!(decode_core::<f32>(&bad), Err(Sz3Error::Corrupt("dimension product overflows")));
        // Large but non-overflowing dims: rejected by the element budget.
        let mut big = core[..7].to_vec();
        put_uvarint(&mut big, 1u64 << 40);
        put_uvarint(&mut big, 1);
        put_uvarint(&mut big, 1);
        big.extend_from_slice(&1e-4f64.to_le_bytes());
        put_uvarint(&mut big, 32768);
        put_uvarint(&mut big, 0);
        put_uvarint(&mut big, 0);
        assert!(matches!(
            decode_core_with_limit::<f32>(&big, 1 << 20),
            Err(Sz3Error::LimitExceeded { .. })
        ));
    }

    #[test]
    fn overflowed_dimension_is_a_bad_header() {
        // nx (16, one byte) as a 10-byte varint whose last byte overflows
        // 64 bits.
        let (core, _) = encode_core(&wave_field_f32(16), &Sz3Config::default());
        let bad = [&core[..7], &[0xFF; 9], &[0x7F], &core[8..]].concat();
        assert_eq!(decode_core::<f32>(&bad), Err(Sz3Error::BadHeader("nx")));
    }

    #[test]
    fn sealed_core_length_bomb_rejected() {
        let field = wave_field_f32(64);
        let sealed = compress(&field, &Sz3Config::default());
        // Sealed header claiming a multi-GiB core: the budgeted unseal
        // must refuse before running the backend.
        let mut bomb = sealed[..5].to_vec(); // magic + backend tag
        put_uvarint(&mut bomb, 1u64 << 38);
        bomb.extend_from_slice(&sealed[sealed.len() - 16..]);
        assert!(matches!(
            unseal_limited(&bomb, core_limit_for_output(64 * 4)),
            Err(Sz3Error::LimitExceeded { .. })
        ));
        // The honest stream passes the same budget.
        let recon: Field<f32> = decompress_with_limit(&sealed, 64 * 4).unwrap();
        check_bound(&field, &recon, 1e-4);
    }

    #[test]
    fn bad_config_is_an_error_not_a_panic() {
        let field = wave_field_f32(32);
        for eb in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let cfg = Sz3Config::with_error_bound(eb);
            assert!(matches!(compress_checked(&field, &cfg), Err(Sz3Error::BadConfig(_))));
        }
        for radius in [1, (1 << 31) + 1, 1 << 32] {
            let cfg = Sz3Config { radius, ..Sz3Config::default() };
            assert!(matches!(compress_checked(&field, &cfg), Err(Sz3Error::BadConfig(_))));
        }
        // The widest radius whose codes still fit a u32 round-trips.
        let cfg = Sz3Config { radius: 1 << 31, ..Sz3Config::default() };
        let recon: Field<f32> = decompress(&compress_checked(&field, &cfg).unwrap()).unwrap();
        check_bound(&field, &recon, cfg.error_bound);
    }

    #[test]
    fn tiny_fields() {
        for n in [1usize, 2, 3, 5] {
            let field = Field::<f64>::from_fn(Dims::d1(n), |x, _, _| x as f64 * 1.5);
            let cfg = Sz3Config::with_error_bound(0.01);
            let recon: Field<f64> = decompress(&compress(&field, &cfg)).unwrap();
            check_bound(&field, &recon, 0.01);
        }
    }

    #[test]
    fn empty_fields_roundtrip() {
        for predictor in [PredictorKind::Lorenzo, PredictorKind::Interp, PredictorKind::InterpCubic]
        {
            for base in [Sz3Config::with_error_bound(1e-4), Sz3Config::with_relative_bound(1e-4)] {
                let cfg = Sz3Config { predictor, ..base };
                let f32_field = Field::<f32>::new(Dims::d1(0), Vec::new());
                let recon: Field<f32> = decompress(&compress(&f32_field, &cfg)).unwrap();
                assert_eq!(recon, f32_field, "{predictor:?}");
                let f64_field = Field::<f64>::new(Dims::d1(0), Vec::new());
                let recon: Field<f64> = decompress(&compress(&f64_field, &cfg)).unwrap();
                assert_eq!(recon, f64_field, "{predictor:?}");
            }
        }
    }

    #[test]
    fn radius_past_u32_codes_rejected_in_header() {
        let mut bad = encode_core(&wave_field_f32(16), &Sz3Config::default()).0[..7].to_vec();
        put_uvarint(&mut bad, 16);
        put_uvarint(&mut bad, 1);
        put_uvarint(&mut bad, 1);
        bad.extend_from_slice(&1e-4f64.to_le_bytes());
        put_uvarint(&mut bad, (1 << 31) + 1); // radius
        put_uvarint(&mut bad, 0); // outliers
        put_uvarint(&mut bad, 0); // enc_len
        assert_eq!(decode_core::<f32>(&bad), Err(Sz3Error::BadHeader("radius value")));
    }

    #[test]
    fn f64_roundtrip_with_tight_bound() {
        let field =
            Field::<f64>::from_fn(Dims::d1(8_000), |x, _, _| (x as f64 * 1e-3).exp().sin() * 1e-2);
        let cfg = Sz3Config::with_error_bound(1e-9);
        let recon: Field<f64> = decompress(&compress(&field, &cfg)).unwrap();
        check_bound(&field, &recon, 1e-9);
    }
}
