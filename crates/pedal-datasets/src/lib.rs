//! # pedal-datasets
//!
//! Deterministic synthetic stand-ins for the paper's eight benchmark
//! datasets (Table IV). The real corpora (silesia, obs_error, SDRBench
//! exaalt) are not redistributable inside this repository, so each
//! generator reproduces the property that drives every figure: the *size*
//! and the *compressibility class* of the original (see Table V for the
//! target ratios). All generators are seeded and reproducible.

pub mod generators;
pub mod workload;

/// The seeded PCG32 generator every dataset generator draws from
/// (re-exported so test-case generators can share the same stream type).
pub use pedal_dpu::rng::{self, Pcg32};

use generators::*;

/// The eight datasets of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// silesia/xml — XML text, 5.1 MB, the most compressible (DEFLATE ~7.8).
    SilesiaXml,
    /// silesia/mr — 3-D MRI image (DICOM), 9.51 MB, DEFLATE ~2.7.
    SilesiaMr,
    /// silesia/samba — source code + graphics, 20.61 MB, DEFLATE ~4.0.
    SilesiaSamba,
    /// obs_error — single-precision brightness-temperature errors,
    /// 30 MB, barely compressible (DEFLATE ~1.47).
    ObsError,
    /// silesia/mozilla — executable, 48.85 MB, DEFLATE ~2.7.
    SilesiaMozilla,
    /// exaalt dataset1 — MD simulation floats, 10 MB, SZ3 ~2.9.
    Exaalt1,
    /// exaalt dataset3 — MD simulation floats, 31 MB, SZ3 ~5.7.
    Exaalt3,
    /// exaalt dataset2 — MD simulation floats, 64 MB, SZ3 ~5.4.
    Exaalt2,
    /// Mixed-workload class: service-log text, highly compressible
    /// (DEFLATE > 4). Not part of Table IV; used by adaptive-policy traces.
    LogText,
    /// Mixed-workload class: uniformly random bytes, incompressible —
    /// the store-raw case an adaptive policy must recognize.
    RandomBlob,
    /// Mixed-workload class: columnar f32 telemetry with stable exponent
    /// bytes at stride 4 — the numeric-sniff / pco case.
    FloatColumn,
}

impl DatasetId {
    /// The five lossless datasets in the paper's ascending-size order.
    pub const LOSSLESS: [DatasetId; 5] = [
        DatasetId::SilesiaXml,
        DatasetId::SilesiaMr,
        DatasetId::SilesiaSamba,
        DatasetId::ObsError,
        DatasetId::SilesiaMozilla,
    ];

    /// The three lossy datasets in the paper's listing order
    /// (dataset1: 10 MB, dataset3: 31 MB, dataset2: 64 MB).
    pub const LOSSY: [DatasetId; 3] = [DatasetId::Exaalt1, DatasetId::Exaalt3, DatasetId::Exaalt2];

    /// The three mixed-workload classes for adaptive-policy traces, in
    /// descending compressibility order. Deliberately *not* part of
    /// [`Self::ALL`]: that array is the paper's Table IV corpus and is
    /// iterated (and indexed) by the paper-reproduction benches.
    pub const MIXED: [DatasetId; 3] =
        [DatasetId::LogText, DatasetId::RandomBlob, DatasetId::FloatColumn];

    pub const ALL: [DatasetId; 8] = [
        DatasetId::SilesiaXml,
        DatasetId::SilesiaMr,
        DatasetId::SilesiaSamba,
        DatasetId::ObsError,
        DatasetId::SilesiaMozilla,
        DatasetId::Exaalt1,
        DatasetId::Exaalt3,
        DatasetId::Exaalt2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DatasetId::SilesiaXml => "silesia/xml",
            DatasetId::SilesiaMr => "silesia/mr",
            DatasetId::SilesiaSamba => "silesia/samba",
            DatasetId::ObsError => "obs_error",
            DatasetId::SilesiaMozilla => "silesia/mozilla",
            DatasetId::Exaalt1 => "exaalt-dataset1",
            DatasetId::Exaalt3 => "exaalt-dataset3",
            DatasetId::Exaalt2 => "exaalt-dataset2",
            DatasetId::LogText => "mixed/log-text",
            DatasetId::RandomBlob => "mixed/random-blob",
            DatasetId::FloatColumn => "mixed/float-column",
        }
    }

    /// Target size in bytes (Table IV).
    pub fn size_bytes(self) -> usize {
        match self {
            DatasetId::SilesiaXml => 5_100_000,
            DatasetId::SilesiaMr => 9_510_000,
            DatasetId::SilesiaSamba => 20_610_000,
            DatasetId::ObsError => 30_000_000,
            DatasetId::SilesiaMozilla => 48_850_000,
            DatasetId::Exaalt1 => 10_000_000,
            DatasetId::Exaalt3 => 31_000_000,
            DatasetId::Exaalt2 => 64_000_000,
            // Synthetic mixed-workload classes (not in Table IV): sized
            // like a typical serving payload corpus, not a paper figure.
            DatasetId::LogText => 8_000_000,
            DatasetId::RandomBlob => 8_000_000,
            DatasetId::FloatColumn => 8_000_000,
        }
    }

    /// Size in MB as the paper's tables print it.
    pub fn size_mb(self) -> f64 {
        self.size_bytes() as f64 / 1e6
    }

    pub fn is_lossy_dataset(self) -> bool {
        matches!(self, DatasetId::Exaalt1 | DatasetId::Exaalt2 | DatasetId::Exaalt3)
    }

    /// Generate the dataset at full Table IV size.
    pub fn generate(self) -> Vec<u8> {
        self.generate_bytes(self.size_bytes())
    }

    /// Generate a scaled-down variant with the same statistics (used by
    /// fast tests; benchmarks use [`Self::generate`]).
    pub fn generate_bytes(self, target: usize) -> Vec<u8> {
        match self {
            DatasetId::SilesiaXml => gen_xml(target, 0x584D_4C01),
            DatasetId::SilesiaMr => gen_mri(target, 0x4D52_0002),
            DatasetId::SilesiaSamba => gen_source_tree(target, 0x5342_0003),
            DatasetId::ObsError => gen_obs_error(target, 0x4F42_0004),
            DatasetId::SilesiaMozilla => gen_executable(target, 0x4D5A_0005),
            DatasetId::Exaalt1 => gen_exaalt(target, 0xE0_0001, ExaaltStyle::Noisy),
            DatasetId::Exaalt3 => gen_exaalt(target, 0xE0_0003, ExaaltStyle::Smooth),
            DatasetId::Exaalt2 => gen_exaalt(target, 0xE0_0002, ExaaltStyle::Medium),
            DatasetId::LogText => gen_log_text(target, 0x4C4F_4701),
            DatasetId::RandomBlob => gen_random_blob(target, 0x524E_4402),
            DatasetId::FloatColumn => gen_float_columns(target, 0x4643_4F03),
        }
    }
}

/// Reinterpret little-endian bytes as f32 values.
pub fn bytes_to_f32(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_table_iv() {
        assert_eq!(DatasetId::SilesiaXml.size_mb(), 5.1);
        assert_eq!(DatasetId::SilesiaMr.size_mb(), 9.51);
        assert_eq!(DatasetId::SilesiaSamba.size_mb(), 20.61);
        assert_eq!(DatasetId::ObsError.size_mb(), 30.0);
        assert_eq!(DatasetId::SilesiaMozilla.size_mb(), 48.85);
        assert_eq!(DatasetId::Exaalt1.size_mb(), 10.0);
        assert_eq!(DatasetId::Exaalt3.size_mb(), 31.0);
        assert_eq!(DatasetId::Exaalt2.size_mb(), 64.0);
    }

    #[test]
    fn mixed_classes_are_deterministic_and_sized() {
        for id in DatasetId::MIXED {
            assert!(!DatasetId::ALL.contains(&id), "{} must stay out of ALL", id.name());
            assert!(!id.is_lossy_dataset(), "{} rides the Byte datatype path", id.name());
            let a = id.generate_bytes(50_000);
            assert_eq!(a, id.generate_bytes(50_000), "{} not deterministic", id.name());
            assert_eq!(a.len(), 50_000);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for id in DatasetId::ALL {
            let a = id.generate_bytes(100_000);
            let b = id.generate_bytes(100_000);
            assert_eq!(a, b, "{} not deterministic", id.name());
            assert_eq!(a.len(), 100_000);
        }
    }

    #[test]
    fn scaled_generation_has_exact_size() {
        for id in DatasetId::ALL {
            for target in [1usize, 1000, 12_345, 100_004] {
                assert_eq!(id.generate_bytes(target).len(), target, "{}", id.name());
            }
        }
    }

    #[test]
    fn lossy_datasets_are_valid_floats() {
        for id in DatasetId::LOSSY {
            let bytes = id.generate_bytes(400_000);
            let floats = bytes_to_f32(&bytes);
            assert_eq!(floats.len(), 100_000);
            let finite = floats.iter().filter(|v| v.is_finite()).count();
            assert_eq!(finite, floats.len(), "{} produced non-finite values", id.name());
        }
    }

    #[test]
    fn deflate_ratio_ordering_matches_table_v() {
        // Table V ordering: xml (7.77) > samba (3.96) > mr (2.71) ≈
        // mozilla (2.68) > obs_error (1.47). Verified on 1 MB samples.
        let ratio = |id: DatasetId| {
            let data = id.generate_bytes(1_000_000);
            let packed = pedal_deflate::compress(&data, pedal_deflate::Level::DEFAULT);
            data.len() as f64 / packed.len() as f64
        };
        let xml = ratio(DatasetId::SilesiaXml);
        let samba = ratio(DatasetId::SilesiaSamba);
        let mr = ratio(DatasetId::SilesiaMr);
        let mozilla = ratio(DatasetId::SilesiaMozilla);
        let obs = ratio(DatasetId::ObsError);
        assert!(xml > samba, "xml {xml:.2} !> samba {samba:.2}");
        assert!(samba > mr, "samba {samba:.2} !> mr {mr:.2}");
        assert!(samba > mozilla, "samba {samba:.2} !> mozilla {mozilla:.2}");
        assert!(mr > obs, "mr {mr:.2} !> obs {obs:.2}");
        assert!(mozilla > obs, "mozilla {mozilla:.2} !> obs {obs:.2}");
        // Band checks near the paper's values.
        assert!((5.5..=10.5).contains(&xml), "xml ratio {xml:.2} (paper 7.77)");
        assert!((2.8..=5.2).contains(&samba), "samba ratio {samba:.2} (paper 3.96)");
        assert!((1.9..=3.6).contains(&mr), "mr ratio {mr:.2} (paper 2.71)");
        assert!((1.9..=3.6).contains(&mozilla), "mozilla ratio {mozilla:.2} (paper 2.68)");
        assert!((1.2..=1.8).contains(&obs), "obs ratio {obs:.2} (paper 1.47)");
    }

    #[test]
    fn lz4_ratio_below_deflate() {
        // Table V: LZ4 always compresses less than DEFLATE.
        for id in DatasetId::LOSSLESS {
            let data = id.generate_bytes(500_000);
            let d = pedal_deflate::compress(&data, pedal_deflate::Level::DEFAULT).len();
            let l = pedal_lz4::compress_block(&data, 1).len();
            assert!(l >= d, "{}: lz4 {l} < deflate {d}", id.name());
        }
    }

    #[test]
    fn zlib_ratio_equals_deflate() {
        // Table V shows identical ratios for DEFLATE and zlib (6-byte
        // envelope is negligible).
        let data = DatasetId::SilesiaXml.generate_bytes(500_000);
        let d = pedal_deflate::compress(&data, pedal_deflate::Level::DEFAULT).len();
        let z = pedal_zlib::compress(&data, pedal_zlib::Level::DEFAULT).len();
        assert_eq!(z, d + 6);
    }
}
