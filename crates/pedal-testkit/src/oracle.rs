//! Differential decode oracles.
//!
//! The sweep decodes each stream through every path that claims to speak
//! its format and demands consistent verdicts. For full PEDAL payloads
//! that means three decoders: the pure [`pedal::wire`] functions, a
//! BlueField-2 context (DEFLATE/zlib decode routed through the C-Engine),
//! and a BlueField-3 context (LZ4 on the engine, DEFLATE on the SoC).
//! They must produce identical bytes on success and the same
//! [`ErrorClass`] on rejection — placement must never change what a
//! stream means or how it fails.

use pedal::{Design, ParallelStrategy, PedalConfig, PedalContext, PedalError};
use pedal_dpu::Platform;

/// Coarse failure taxonomy for verdict comparison. Codec and engine
/// rejections share a class: the engine runs the same codecs, so which
/// placement spotted the corruption is an implementation detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Decoded successfully.
    Ok,
    /// PEDAL framing rejected (indicator bytes / AlgoID / truncation).
    Header,
    /// Design cannot handle the datatype.
    UnsupportedDatatype,
    /// Byte length does not divide the element size.
    MisalignedData,
    /// Declared and expected lengths disagree.
    LengthMismatch,
    /// The stream body failed to decode (SoC codec or C-Engine).
    Decode,
}

/// Classify a decode verdict.
pub fn classify<T>(r: &Result<T, PedalError>) -> ErrorClass {
    match r {
        Ok(_) => ErrorClass::Ok,
        Err(PedalError::Header(_)) => ErrorClass::Header,
        Err(PedalError::UnsupportedDatatype { .. }) => ErrorClass::UnsupportedDatatype,
        Err(PedalError::MisalignedData { .. }) => ErrorClass::MisalignedData,
        Err(PedalError::LengthMismatch { .. }) => ErrorClass::LengthMismatch,
        Err(PedalError::Codec(_)) | Err(PedalError::Doca(_)) => ErrorClass::Decode,
    }
}

/// The three decoders a PEDAL payload must agree across.
pub struct DiffOracle {
    bf2: PedalContext,
    bf3: PedalContext,
}

impl DiffOracle {
    /// Contexts are created once per sweep — init preallocates the buffer
    /// pool, so per-case construction would dominate the run.
    pub fn new() -> Self {
        // The config's design only selects the *compress* pipeline; decode
        // dispatches on the payload header, so one context per platform
        // covers every design.
        let bf2 = PedalContext::init(PedalConfig::new(Platform::BlueField2, Design::CE_DEFLATE))
            .expect("simulated BF2 init cannot fail");
        let bf3 = PedalContext::init(PedalConfig::new(Platform::BlueField3, Design::CE_LZ4))
            .expect("simulated BF3 init cannot fail");
        Self { bf2, bf3 }
    }

    /// Decode `payload` through all three paths and check agreement.
    /// Returns the verdict class on success, or a description of the
    /// disagreement.
    pub fn check(&self, payload: &[u8], expected_len: usize) -> Result<ErrorClass, String> {
        let pure = pedal::wire::decompress_payload(payload, expected_len).map(|(data, _)| data);
        let bf2 = self.bf2.decompress(payload, expected_len).map(|o| o.data);
        let bf3 = self.bf3.decompress(payload, expected_len).map(|o| o.data);

        let (cp, c2, c3) = (classify(&pure), classify(&bf2), classify(&bf3));
        if cp != c2 || cp != c3 {
            return Err(format!(
                "verdict mismatch: wire={cp:?} ({}), bf2={c2:?} ({}), bf3={c3:?} ({})",
                describe(&pure),
                describe(&bf2),
                describe(&bf3),
            ));
        }
        if cp == ErrorClass::Ok {
            let p = pure.unwrap();
            let b2 = bf2.unwrap();
            let b3 = bf3.unwrap();
            if p != b2 || p != b3 {
                return Err(format!(
                    "output mismatch: wire {} bytes, bf2 {} bytes, bf3 {} bytes",
                    p.len(),
                    b2.len(),
                    b3.len()
                ));
            }
        }
        Ok(cp)
    }
}

impl DiffOracle {
    /// The chunked DEFLATE decoders a PSF1 stream naming DEFLATE must
    /// agree with: [`pedal::decompress_chunked`] on BF2 as SoC x2 and as
    /// hybrid. The hybrid planner hands leading fragments to the C-Engine
    /// only when they outweigh its 1.5 ms job overhead, so on the small
    /// sweep corpus it decodes on one SoC core.
    pub const CHUNKED: [ParallelStrategy; 2] =
        [ParallelStrategy::SocParallel { cores: 2 }, ParallelStrategy::Hybrid { soc_cores: 1 }];

    /// Decode a PSF1 stream through every [`Self::CHUNKED`] strategy and
    /// check it against the streaming decoder's verdict: `reference` is
    /// its output when it decoded exactly `expected_len` bytes, and then
    /// every chunked decode must return the same bytes; otherwise every
    /// chunked decode must reject.
    pub fn check_chunked(
        &self,
        stream: &[u8],
        expected_len: usize,
        reference: Option<&[u8]>,
    ) -> Result<(), String> {
        for strategy in Self::CHUNKED {
            let r = pedal::decompress_chunked(&self.bf2.doca, stream, expected_len, strategy);
            match (reference, r) {
                (Some(want), Ok(got)) if got.bytes != want => {
                    return Err(format!("chunked {strategy:?} decoded different bytes"));
                }
                (Some(_), Err(e)) => {
                    return Err(format!("chunked {strategy:?} rejected a valid stream: {e}"));
                }
                (None, Ok(got)) => {
                    return Err(format!(
                        "chunked {strategy:?} accepted a stream the stream decoder rejects \
                         ({} bytes)",
                        got.bytes.len()
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl Default for DiffOracle {
    fn default() -> Self {
        Self::new()
    }
}

fn describe(r: &Result<Vec<u8>, PedalError>) -> String {
    match r {
        Ok(d) => format!("ok, {} bytes", d.len()),
        Err(e) => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal::Datatype;

    #[test]
    fn valid_payloads_agree_for_every_design() {
        let oracle = DiffOracle::new();
        let data = b"the eight designs must agree on this ".repeat(64);
        let floats: Vec<u8> =
            (0..1024).flat_map(|i| ((i as f32) * 0.25).sin().to_le_bytes()).collect();
        for design in Design::EXTENDED {
            let (datatype, input) = if design.is_lossy() {
                (Datatype::Float32, &floats)
            } else {
                (Datatype::Byte, &data)
            };
            let (payload, _) =
                pedal::wire::compress_payload(design, datatype, 1e-4, input).unwrap();
            let verdict = oracle.check(&payload, input.len()).unwrap_or_else(|e| {
                panic!("{design}: {e}");
            });
            assert_eq!(verdict, ErrorClass::Ok, "{design}");
        }
    }

    #[test]
    fn pco_float_payloads_agree_and_roundtrip_bit_exactly() {
        let oracle = DiffOracle::new();
        // Salt in non-finite values: pco is lossless on the raw bits, so
        // NaN payloads and signed zeros must survive the wire untouched.
        let mut vals: Vec<f32> = (0..2048).map(|i| ((i as f32) * 0.03).cos() * 17.0).collect();
        vals[5] = f32::NAN;
        vals[77] = f32::NEG_INFINITY;
        vals[500] = -0.0;
        let input: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        for design in [Design::SOC_PCO, Design::CE_PCO] {
            let (payload, _) =
                pedal::wire::compress_payload(design, Datatype::Float32, 1e-4, &input).unwrap();
            let verdict = oracle.check(&payload, input.len()).unwrap_or_else(|e| {
                panic!("{design}: {e}");
            });
            assert_eq!(verdict, ErrorClass::Ok, "{design}");
            let (decoded, _) = pedal::wire::decompress_payload(&payload, input.len()).unwrap();
            assert_eq!(decoded, input, "{design}: pco floats must be bit-exact");
        }
    }

    #[test]
    fn chunked_decoders_agree_on_deflate_streams() {
        let oracle = DiffOracle::new();
        let corpus = crate::corpus::build_corpus(crate::corpus::CodecId::Stream, 2048);
        let mut checked = 0;
        for base in corpus.iter().filter(|b| b.encoded[5] == pedal_stream::CODEC_DEFLATE) {
            let (wire, n) = (&base.encoded, base.original.len());
            oracle.check_chunked(wire, n, Some(&base.original)).unwrap();
            // A wrong expected length and a flipped trailer both reject.
            oracle.check_chunked(wire, n + 1, None).unwrap();
            let mut bad = wire.clone();
            *bad.last_mut().unwrap() ^= 1;
            oracle.check_chunked(&bad, n, None).unwrap();
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn corrupt_body_rejected_with_same_class_everywhere() {
        let oracle = DiffOracle::new();
        let data = b"corruption must be rejected identically ".repeat(64);
        for design in [Design::SOC_DEFLATE, Design::CE_DEFLATE, Design::CE_LZ4] {
            let (mut payload, _) =
                pedal::wire::compress_payload(design, Datatype::Byte, 1e-4, &data).unwrap();
            // Stomp the middle of the body.
            let mid = payload.len() / 2;
            let end = (mid + 8).min(payload.len());
            for b in &mut payload[mid..end] {
                *b ^= 0xA5;
            }
            match oracle.check(&payload, data.len()) {
                Ok(ErrorClass::Ok) => {
                    // A flip the format cannot detect must still agree —
                    // which oracle.check already verified byte-for-byte.
                }
                Ok(_) => {}
                Err(e) => panic!("{design}: {e}"),
            }
        }
    }
}
