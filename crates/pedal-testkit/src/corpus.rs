//! Valid encoded streams for every codec, built from the
//! `pedal-datasets` generators.
//!
//! Each [`CaseBase`] pairs a valid encoded stream with the original bytes
//! it encodes, so the sweep can use it three ways: as the unmutated
//! round-trip ground truth, as the base a mutation corrupts, and as the
//! donor for the cross-stream mutation classes.

use pedal::{wire, Datatype, Design};
use pedal_datasets::DatasetId;
use pedal_sz3::{huff, BackendKind, Dims, Field, PredictorKind, Sz3Config};

/// Every decode entry point the sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecId {
    /// Raw DEFLATE bit streams (`pedal-deflate`).
    Deflate,
    /// zlib-wrapped DEFLATE with Adler-32 (`pedal-zlib`).
    Zlib,
    /// gzip members with CRC-32 trailer (`pedal-zlib`).
    Gzip,
    /// LZ4 block format (`pedal-lz4`).
    Lz4Block,
    /// PLZ4 frame container (`pedal-lz4`).
    Lz4Frame,
    /// Canonical Huffman blobs — SZ3's entropy stage (`pedal-sz3`).
    Huff,
    /// Sealed SZ3 streams across all four lossless backends (`pedal-sz3`).
    Sz3,
    /// pco numeric/columnar streams across every column type plus bytes
    /// mode (`pedal-pco`).
    Pco,
    /// Full PEDAL messages: header + varint + body, all eight designs.
    PedalPayload,
    /// PSF1 streaming frames over DEFLATE/LZ4/pco payloads
    /// (`pedal-stream`), decoded both one-shot and byte-at-a-time.
    Stream,
}

impl CodecId {
    pub const ALL: [CodecId; 10] = [
        CodecId::Deflate,
        CodecId::Zlib,
        CodecId::Gzip,
        CodecId::Lz4Block,
        CodecId::Lz4Frame,
        CodecId::Huff,
        CodecId::Sz3,
        CodecId::Pco,
        CodecId::PedalPayload,
        CodecId::Stream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CodecId::Deflate => "deflate",
            CodecId::Zlib => "zlib",
            CodecId::Gzip => "gzip",
            CodecId::Lz4Block => "lz4-block",
            CodecId::Lz4Frame => "lz4-frame",
            CodecId::Huff => "huff",
            CodecId::Sz3 => "sz3",
            CodecId::Pco => "pco",
            CodecId::PedalPayload => "pedal-payload",
            CodecId::Stream => "stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One valid stream and the bytes it encodes.
#[derive(Debug, Clone)]
pub struct CaseBase {
    /// Which generator produced the original data.
    pub dataset: &'static str,
    /// Raw input bytes (little-endian f32s for the float codecs).
    pub original: Vec<u8>,
    /// Valid encoded stream for this codec.
    pub encoded: Vec<u8>,
    /// For [`CodecId::PedalPayload`]: the design the stream was framed for.
    pub design: Option<Design>,
}

/// Deterministic float field derived from a dataset generator: the raw
/// bytes reinterpreted as f32 with non-finite values replaced, so the
/// encoded stream is valid and the error-bound oracle applies. (Hostile
/// NaN/Inf inputs are covered separately by the SZ3 property tests.)
fn float_base(id: DatasetId, elems: usize) -> Field<f32> {
    let bytes = id.generate_bytes(elems * 4);
    let mut vals: Vec<f32> =
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    for (i, v) in vals.iter_mut().enumerate() {
        if !v.is_finite() || v.abs() > 1e30 {
            *v = (i as f32) * 0.125;
        }
    }
    vals.resize(elems, 0.0);
    Field::new(Dims::d1(elems), vals)
}

/// A valid Huffman blob whose code lengths form a comb down to the
/// 27-bit limit (lengths 1..=27, and 27 again), past the decoder's
/// two-level tables: mutating its length table reshapes the subtables
/// and the canonical search behind them. `huff::encode` only builds such
/// lengths from exponentially skewed counts, so the blob is written here.
/// Returns the symbols and the blob.
fn deep_comb_blob(data: &[u8]) -> (Vec<u32>, Vec<u8>) {
    use pedal_deflate::bitio::BitWriter;
    use pedal_deflate::huffman::{Encoder, MAX_BITS};
    use pedal_deflate::varint::put_uvarint;
    let lengths: Vec<u8> = (1..=MAX_BITS as u8).chain([MAX_BITS as u8]).collect();
    let k = lengths.len();
    let index: Vec<usize> = data.iter().map(|&b| b as usize % k).collect();
    let mut blob = Vec::new();
    put_uvarint(&mut blob, index.len() as u64);
    put_uvarint(&mut blob, k as u64);
    // The alphabet is 32768.. in steps of one: a first delta, then ones.
    put_uvarint(&mut blob, 32768);
    (1..k).for_each(|_| put_uvarint(&mut blob, 1));
    blob.extend_from_slice(&lengths);
    let enc = Encoder::from_lengths(&lengths);
    let mut w = BitWriter::new();
    for &i in &index {
        let (code, len) = enc.code(i);
        w.write_bits(code as u64, len as u32);
    }
    let payload = w.finish();
    put_uvarint(&mut blob, payload.len() as u64);
    blob.extend_from_slice(&payload);
    (index.iter().map(|&i| 32768 + i as u32).collect(), blob)
}

/// Build the valid-stream corpus for `codec`. `target` sizes the raw data
/// per base (a couple of KiB keeps a 10k-case sweep inside seconds while
/// still exercising multi-block paths).
pub fn build_corpus(codec: CodecId, target: usize) -> Vec<CaseBase> {
    let mut bases = Vec::new();
    for (di, id) in DatasetId::ALL.into_iter().enumerate() {
        match codec {
            CodecId::Deflate => {
                let data = id.generate_bytes(target);
                let enc = pedal_deflate::compress(&data, pedal_deflate::Level::DEFAULT);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::Zlib => {
                let data = id.generate_bytes(target);
                let enc = pedal_zlib::compress(&data, pedal_zlib::Level::DEFAULT);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::Gzip => {
                let data = id.generate_bytes(target);
                let enc = pedal_zlib::gzip_compress(&data, pedal_zlib::Level::DEFAULT);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::Lz4Block => {
                let data = id.generate_bytes(target);
                let enc = pedal_lz4::compress_block(&data, 1);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::Lz4Frame => {
                let data = id.generate_bytes(target);
                // Small blocks so even short streams span several of them.
                let enc = pedal_lz4::compress_frame(&data, 512, 1);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::Huff => {
                let data = id.generate_bytes(target);
                let (symbols, enc) = if di + 1 == DatasetId::ALL.len() {
                    deep_comb_blob(&data)
                } else {
                    // Symbols shaped like quantizer output: clustered
                    // around the radius with occasional excursions.
                    let symbols: Vec<u32> =
                        data.iter().map(|&b| 32768 + (b as u32 % 64) - 32).collect();
                    let enc = huff::encode(&symbols);
                    (symbols, enc)
                };
                let original: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
                bases.push(CaseBase { dataset: id.name(), original, encoded: enc, design: None });
            }
            CodecId::Sz3 => {
                // Cycle predictor and backend so all combinations appear
                // across the eight datasets.
                let field = float_base(id, target / 4);
                let backends =
                    [BackendKind::None, BackendKind::Zs, BackendKind::Deflate, BackendKind::Lz4];
                let predictors =
                    [PredictorKind::Lorenzo, PredictorKind::Interp, PredictorKind::InterpCubic];
                let cfg = Sz3Config {
                    predictor: predictors[di % predictors.len()],
                    backend: backends[di % backends.len()],
                    ..Sz3Config::with_error_bound(1e-4)
                };
                let enc = pedal_sz3::compress(&field, &cfg);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: field.to_bytes(),
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::Pco => {
                // Cycle the column type across the datasets so every
                // typed path (and the misaligned bytes fallback) has a
                // base. The original is always the raw generator bytes —
                // pco is lossless and the oracle demands bit-exactness.
                use pedal_pco::ColumnType;
                let cfg = pedal_pco::PcoConfig::default();
                let types = [
                    Some(ColumnType::U32),
                    Some(ColumnType::U64),
                    Some(ColumnType::F32),
                    Some(ColumnType::F64),
                    None,
                ];
                let data = id.generate_bytes(target);
                let enc = match types[di % types.len()] {
                    Some(ty) => pedal_pco::compress_typed_bytes(&data, ty, &cfg),
                    None => pedal_pco::compress_bytes(&data, &cfg),
                };
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
            CodecId::PedalPayload => {
                // One base per design; the dataset cycles with it.
                let design = Design::ALL[di % Design::ALL.len()];
                let (datatype, data) = if design.is_lossy() {
                    (Datatype::Float32, float_base(id, target / 4).to_bytes())
                } else {
                    (Datatype::Byte, id.generate_bytes(target))
                };
                let (payload, _) = wire::compress_payload(design, datatype, 1e-4, &data)
                    .expect("corpus inputs are valid");
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: payload,
                    design: Some(design),
                });
            }
            CodecId::Stream => {
                // Cycle the payload codec and the chunk size across the
                // datasets so multi-frame streams of every codec appear,
                // including chunks small enough to force many frames.
                use pedal_stream::{encode_all, StreamCodec, StreamConfig};
                let codecs = [
                    StreamCodec::Deflate(pedal_deflate::Level::DEFAULT),
                    StreamCodec::Lz4 { accel: 1 },
                    StreamCodec::Pco(pedal_pco::PcoConfig::default()),
                ];
                let chunks = [173usize, 256, 512];
                let cfg = StreamConfig::new(codecs[di % codecs.len()].clone())
                    .with_chunk_size(chunks[(di / codecs.len()) % chunks.len()]);
                let data = id.generate_bytes(target);
                let enc = encode_all(&data, &cfg);
                bases.push(CaseBase {
                    dataset: id.name(),
                    original: data,
                    encoded: enc,
                    design: None,
                });
            }
        }
    }
    bases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_codec_yields_eight_bases() {
        for codec in CodecId::ALL {
            let corpus = build_corpus(codec, 2048);
            assert_eq!(corpus.len(), 8, "{}", codec.name());
            for base in &corpus {
                assert!(!base.encoded.is_empty(), "{}/{}", codec.name(), base.dataset);
                assert!(!base.original.is_empty(), "{}/{}", codec.name(), base.dataset);
            }
        }
    }

    #[test]
    fn pedal_payload_corpus_covers_all_designs() {
        let corpus = build_corpus(CodecId::PedalPayload, 2048);
        let mut seen: Vec<Design> = corpus.iter().filter_map(|b| b.design).collect();
        seen.dedup();
        assert_eq!(seen.len(), Design::ALL.len());
    }

    #[test]
    fn codec_names_roundtrip() {
        for codec in CodecId::ALL {
            assert_eq!(CodecId::from_name(codec.name()), Some(codec));
        }
    }
}
