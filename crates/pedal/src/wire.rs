//! Pure wire-format encode/decode for PEDAL messages.
//!
//! Everything in this module is a deterministic function of its inputs:
//! no virtual clock, no DOCA context, no buffer pool. The design
//! executor ([`crate::exec`], behind both [`crate::PedalContext`] and the
//! `pedal-service` lanes) and the chunked-parallel path all produce the
//! same bytes because the simulated C-Engine runs the exact same codecs
//! as the SoC paths; this module is the single definition of that byte
//! format.
//!
//! Callers that need virtual time charge it afterwards from the returned
//! [`CostProfile`] byte counts — the profile records how many bytes went
//! through each costed stage, which is all the
//! [`pedal_dpu::CostModel`] rate laws key on.

use crate::context::{Datatype, PedalError};
use crate::design::Design;
use crate::header::{PedalHeader, HEADER_LEN};
use pedal_dpu::{Algorithm, Placement};
use pedal_sz3::{BackendKind, Dims, Field, PredictorKind, Sz3Config};

/// The shared LEB128 varint writer and reader, which frame the original
/// length here and the co-design's gather sizes.
pub use pedal_deflate::varint::{get_uvarint, put_uvarint};

/// Build a full PEDAL message: header, original length varint, body.
pub fn frame(header: PedalHeader, original_len: usize, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(HEADER_LEN + 10 + body.len());
    payload.extend_from_slice(&header.to_bytes());
    put_uvarint(&mut payload, original_len as u64);
    payload.extend_from_slice(body);
    payload
}

/// Split a PEDAL message into header, declared original length, and body.
pub fn unframe(payload: &[u8]) -> Result<(PedalHeader, usize, &[u8]), PedalError> {
    let header = PedalHeader::parse(payload)?;
    let mut i = HEADER_LEN;
    let original_len = get_uvarint(payload, &mut i)
        .map_err(|_| PedalError::Codec("truncated length field".into()))?
        as usize;
    Ok((header, original_len, &payload[i..]))
}

/// Apply the break-even rule: frame `body` as compressed, or fall back to
/// an uncompressed passthrough when compression did not pay for itself.
/// Returns the payload and whether the passthrough was taken.
pub fn frame_compressed(design: Design, data: &[u8], body: Vec<u8>) -> (Vec<u8>, bool) {
    if body.len() >= data.len() {
        (frame(PedalHeader::Uncompressed, data.len(), data), true)
    } else {
        (frame(PedalHeader::Compressed(design), data.len(), &body), false)
    }
}

// ---------------------------------------------------------------------
// Cost profiles
// ---------------------------------------------------------------------

/// Byte counts of the costed stages of one operation, recorded by the pure
/// encode/decode so a caller can charge virtual time after the fact. Each
/// field is the byte count the corresponding [`pedal_dpu::CostModel`] rate
/// law keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostProfile {
    /// Bytes through the main lossless stage — input bytes for compress,
    /// output bytes for decompress. For SZ3 designs this is the *core*
    /// stream the backend stage (the part PEDAL offloads) processes. For a
    /// decode of an uncompressed passthrough it is the memcpy'd length.
    pub lossless_bytes: usize,
    /// Bytes through the SZ3 core transform (zero for lossless designs):
    /// raw float bytes on compress, reconstructed bytes on decompress.
    pub sz3_core_bytes: usize,
    /// Bytes checksummed on the SoC (zlib's Adler-32).
    pub checksum_bytes: usize,
    /// The payload is an uncompressed passthrough.
    pub passthrough: bool,
}

// ---------------------------------------------------------------------
// Pure compression
// ---------------------------------------------------------------------

/// The SZ3 configuration a design implies.
pub fn sz3_config(design: Design, error_bound: f64) -> Sz3Config {
    Sz3Config {
        error_bound,
        predictor: PredictorKind::Interp,
        backend: match design.placement {
            Placement::Soc => BackendKind::Zs,
            Placement::CEngine => BackendKind::Deflate,
        },
        ..Sz3Config::default()
    }
}

fn field_from_bytes<T: pedal_sz3::Float>(data: &[u8]) -> Result<Field<T>, PedalError> {
    if !data.len().is_multiple_of(T::BYTES) {
        return Err(PedalError::MisalignedData { bytes: data.len(), element: T::BYTES });
    }
    Ok(Field::from_bytes(Dims::d1(data.len() / T::BYTES), data))
}

/// The SoC half of an SZ3 design: validate the design's configuration and
/// encode `data` as a 1-D field into the core stream its lossless backend
/// then seals.
pub(crate) fn encode_sz3_core(
    design: Design,
    datatype: Datatype,
    error_bound: f64,
    data: &[u8],
) -> Result<(Vec<u8>, pedal_sz3::CoreStats), PedalError> {
    let cfg = sz3_config(design, error_bound);
    cfg.validate().map_err(PedalError::codec)?;
    match datatype {
        Datatype::Float32 => Ok(pedal_sz3::encode_core(&field_from_bytes::<f32>(data)?, &cfg)),
        Datatype::Float64 => Ok(pedal_sz3::encode_core(&field_from_bytes::<f64>(data)?, &cfg)),
        Datatype::Byte => Err(PedalError::UnsupportedDatatype { design, datatype }),
    }
}

/// Reconstruct the field bytes from an unsealed SZ3 core; the stream
/// self-describes its type. The caller's expected length caps how many
/// elements the core may declare, so a corrupt header cannot drive the
/// allocation.
pub(crate) fn decode_sz3_core(core: &[u8], expected_len: usize) -> Result<Vec<u8>, PedalError> {
    match core.get(5).copied() {
        Some(0x32) => Ok(pedal_sz3::decode_core_with_limit::<f32>(core, expected_len / 4)
            .map_err(PedalError::codec)?
            .to_bytes()),
        Some(0x64) => Ok(pedal_sz3::decode_core_with_limit::<f64>(core, expected_len / 8)
            .map_err(PedalError::codec)?
            .to_bytes()),
        other => Err(PedalError::Codec(format!("bad sz3 type tag {other:?}"))),
    }
}

/// Compress `data` into a design's *body* (the payload minus framing).
///
/// Byte-identical to what [`crate::PedalContext`] produces for the same
/// design on any platform: the simulated engine and the SoC run the same
/// codecs, so placement (and engine fallback) never changes the bytes.
pub fn compress_body(
    design: Design,
    datatype: Datatype,
    error_bound: f64,
    data: &[u8],
) -> Result<(Vec<u8>, CostProfile), PedalError> {
    let mut profile = CostProfile::default();
    let body = match design.algorithm {
        Algorithm::Deflate => {
            profile.lossless_bytes = data.len();
            pedal_deflate::compress(data, pedal_deflate::Level::DEFAULT)
        }
        Algorithm::Zlib => {
            profile.lossless_bytes = data.len();
            profile.checksum_bytes = data.len();
            pedal_zlib::compress(data, pedal_zlib::Level::DEFAULT)
        }
        Algorithm::Lz4 => {
            profile.lossless_bytes = data.len();
            pedal_lz4::compress_block(data, 1)
        }
        Algorithm::Sz3 => {
            let (core, stats) = encode_sz3_core(design, datatype, error_bound, data)?;
            profile.sz3_core_bytes = stats.input_bytes;
            profile.lossless_bytes = core.len();
            pedal_sz3::seal(&core, sz3_config(design, error_bound).backend)
        }
        Algorithm::Pco => {
            profile.lossless_bytes = data.len();
            let cfg = pedal_pco::PcoConfig::default();
            let ty = match datatype {
                Datatype::Float32 => Some(pedal_pco::ColumnType::F32),
                Datatype::Float64 => Some(pedal_pco::ColumnType::F64),
                Datatype::Byte => None,
            };
            match ty {
                Some(ty) => pedal_pco::compress_typed_bytes(data, ty, &cfg),
                None => pedal_pco::compress_bytes(data, &cfg),
            }
        }
    };
    Ok((body, profile))
}

/// Compress `data` into a complete PEDAL message (framing + break-even
/// passthrough rule included).
pub fn compress_payload(
    design: Design,
    datatype: Datatype,
    error_bound: f64,
    data: &[u8],
) -> Result<(Vec<u8>, CostProfile), PedalError> {
    let (body, mut profile) = compress_body(design, datatype, error_bound, data)?;
    let (payload, passthrough) = frame_compressed(design, data, body);
    profile.passthrough = passthrough;
    Ok((payload, profile))
}

// ---------------------------------------------------------------------
// Pure decompression
// ---------------------------------------------------------------------

/// Decode a complete PEDAL message into `expected_len` bytes.
pub fn decompress_payload(
    payload: &[u8],
    expected_len: usize,
) -> Result<(Vec<u8>, CostProfile), PedalError> {
    let (header, original_len, body) = unframe(payload)?;
    if original_len != expected_len {
        return Err(PedalError::LengthMismatch { expected: expected_len, actual: original_len });
    }
    match header {
        PedalHeader::Uncompressed => {
            if body.len() != expected_len {
                return Err(PedalError::LengthMismatch {
                    expected: expected_len,
                    actual: body.len(),
                });
            }
            let profile =
                CostProfile { lossless_bytes: body.len(), passthrough: true, ..Default::default() };
            Ok((body.to_vec(), profile))
        }
        PedalHeader::Compressed(design) => decompress_body(design, body, expected_len),
    }
}

/// Decode a design's *body* (the payload minus framing) into exactly
/// `expected_len` bytes.
pub(crate) fn decompress_body(
    design: Design,
    body: &[u8],
    expected_len: usize,
) -> Result<(Vec<u8>, CostProfile), PedalError> {
    let mut profile = CostProfile::default();
    let data =
        match design.algorithm {
            Algorithm::Deflate => pedal_deflate::decompress_with_limit(body, expected_len)
                .map_err(PedalError::codec)?,
            Algorithm::Zlib => {
                let data = pedal_zlib::decompress_with_limit(body, expected_len)
                    .map_err(PedalError::codec)?;
                profile.checksum_bytes = data.len();
                data
            }
            Algorithm::Lz4 => pedal_lz4::decompress_block(body, Some(expected_len), expected_len)
                .map_err(PedalError::codec)?,
            Algorithm::Sz3 => {
                // The caller's expected output length bounds both halves of
                // the inverse pipeline: the unsealed core may not exceed the
                // shared budget formula, and the core may not declare more
                // elements than fit in `expected_len` bytes.
                let core_budget = pedal_sz3::core_limit_for_output(expected_len);
                let (core, _backend) =
                    pedal_sz3::unseal_limited(body, core_budget).map_err(PedalError::codec)?;
                profile.sz3_core_bytes = expected_len;
                profile.lossless_bytes = core.len();
                decode_sz3_core(&core, expected_len)?
            }
            // The pco container self-describes its column type; the
            // byte-level decode path reproduces the original bytes for every
            // tag and bounds allocation by `expected_len`.
            Algorithm::Pco => pedal_pco::decompress_bytes_with_limit(body, expected_len)
                .map_err(PedalError::codec)?,
        };
    // Lossless designs are costed on the decoded bytes; SZ3 on its core
    // stream (recorded above).
    if design.algorithm != Algorithm::Sz3 {
        profile.lossless_bytes = data.len();
    }
    if data.len() != expected_len {
        return Err(PedalError::LengthMismatch { expected: expected_len, actual: data.len() });
    }
    Ok((data, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{PedalConfig, PedalContext};
    use pedal_dpu::{Pcg32, Platform};

    #[test]
    fn payloads_match_context_for_every_design_and_platform() {
        let mut rng = Pcg32::seed_from_u64(0x3172_0001);
        let mut text = vec![0u8; 20_000];
        rng.fill_bytes(&mut text);
        // Make it compressible so the non-passthrough branch is exercised.
        for b in text.iter_mut().skip(1).step_by(2) {
            *b = b'a';
        }
        let floats: Vec<u8> =
            (0..4_000).flat_map(|_| (rng.gen_range(-1e4f64..1e4) as f32).to_le_bytes()).collect();
        for platform in [Platform::BlueField2, Platform::BlueField3] {
            for design in Design::ALL {
                let (datatype, data) = if design.is_lossy() {
                    (Datatype::Float32, &floats)
                } else {
                    (Datatype::Byte, &text)
                };
                let ctx = PedalContext::init(PedalConfig::new(platform, design)).unwrap();
                let from_ctx = ctx.compress(datatype, data).unwrap();
                let (from_wire, profile) =
                    compress_payload(design, datatype, ctx.cfg.error_bound, data).unwrap();
                assert_eq!(from_wire, from_ctx.payload, "{design} on {platform:?}");
                assert_eq!(profile.passthrough, from_ctx.passthrough);

                let (decoded, _) = decompress_payload(&from_wire, data.len()).unwrap();
                if design.is_lossy() {
                    assert_eq!(
                        decoded,
                        ctx.decompress(&from_ctx.payload, data.len()).unwrap().data
                    );
                } else {
                    assert_eq!(&decoded, data, "{design} on {platform:?}");
                }
            }
        }
    }

    #[test]
    fn overflowed_length_field_is_rejected() {
        let overflow = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let payload = [&PedalHeader::Uncompressed.to_bytes()[..], &overflow, b"body"].concat();
        assert!(matches!(
            unframe(&payload),
            Err(PedalError::Codec(m)) if m == "truncated length field"
        ));
    }

    #[test]
    fn incompressible_data_takes_the_passthrough() {
        let mut rng = Pcg32::seed_from_u64(0x3172_0002);
        let mut noise = vec![0u8; 4096];
        rng.fill_bytes(&mut noise);
        let (payload, profile) =
            compress_payload(Design::SOC_DEFLATE, Datatype::Byte, 1e-4, &noise).unwrap();
        assert!(profile.passthrough);
        let (decoded, dprofile) = decompress_payload(&payload, noise.len()).unwrap();
        assert_eq!(decoded, noise);
        assert!(dprofile.passthrough);
        assert_eq!(dprofile.lossless_bytes, noise.len());
    }

    #[test]
    fn profiles_record_stage_bytes() {
        let data = b"profile stage bytes profile stage bytes".repeat(100);
        let (_, p) = compress_payload(Design::CE_ZLIB, Datatype::Byte, 1e-4, &data).unwrap();
        assert_eq!(p.lossless_bytes, data.len());
        assert_eq!(p.checksum_bytes, data.len());
        assert_eq!(p.sz3_core_bytes, 0);

        let floats: Vec<u8> = (0..2_000).flat_map(|i| (i as f32 * 0.5).to_le_bytes()).collect();
        let (payload, p) =
            compress_payload(Design::CE_SZ3, Datatype::Float32, 1e-4, &floats).unwrap();
        assert_eq!(p.sz3_core_bytes, floats.len());
        assert!(p.lossless_bytes > 0, "core stream must be costed");
        let (_, dp) = decompress_payload(&payload, floats.len()).unwrap();
        assert_eq!(dp.sz3_core_bytes, floats.len());
    }
}
