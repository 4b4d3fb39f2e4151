//! The calibrated virtual-time cost model.
//!
//! Absolute nanoseconds on real BlueField silicon are unreproducible without
//! the hardware, so this model is calibrated to reproduce the *relative*
//! behaviour the paper reports (DESIGN.md §2.2 lists every target band):
//! who wins, by what factor, and where the crossovers sit. All constants are
//! in one place below, each annotated with the paper observation it serves.
//!
//! Throughputs are in MB/s of *original* (uncompressed) data for
//! compression and of *produced* data for decompression; fixed overheads
//! are per-operation.

use crate::clock::SimDuration;
use crate::platform::{Algorithm, Direction, Platform};

const MB: f64 = 1_000_000.0;

/// Convert (bytes, MB/s) into a virtual duration.
#[inline]
fn time_for(bytes: usize, mb_per_s: f64) -> SimDuration {
    debug_assert!(mb_per_s > 0.0);
    SimDuration::from_millis_f64(bytes as f64 / MB / mb_per_s * 1e3)
}

/// SoC-side throughput constants for BlueField-2 (BlueField-3 scales by
/// `soc_speed_factor`, reproducing the paper's ~40% faster BF3 SoC).
#[derive(Debug, Clone, Copy)]
pub struct SocRates {
    pub deflate_compress: f64,
    pub deflate_decompress: f64,
    pub lz4_compress: f64,
    pub lz4_decompress: f64,
    /// Adler-32 / header-trailer work for the zlib split design.
    pub checksum: f64,
    /// SZ3 core stages (predict + quantize + Huffman), per input byte.
    pub sz3_core_compress: f64,
    /// SZ3 core inverse, per output byte.
    pub sz3_core_decompress: f64,
    /// SZ3's fast native lossless backend (the zstd stand-in).
    pub zs_compress: f64,
    pub zs_decompress: f64,
    /// pco numeric codec (delta + binning + rANS). SoC-only: no
    /// BlueField engine implements the transform.
    pub pco_compress: f64,
    pub pco_decompress: f64,
    pub memcpy: f64,
}

/// BlueField-2 SoC baseline rates (MB/s).
pub const BF2_SOC: SocRates = SocRates {
    // ~35 MB/s single-stream DEFLATE on A72 — calibrated so the BF2
    // C-Engine shows the paper's 101.8x compression advantage (Fig. 8).
    deflate_compress: 35.0,
    deflate_decompress: 200.0,
    lz4_compress: 400.0,
    lz4_decompress: 1500.0,
    checksum: 16_000.0,
    // Real SZ3 on an A72 runs tens of MB/s — and this rate is what makes
    // BF2's SoC and C-Engine lossy totals comparable (Fig. 9).
    sz3_core_compress: 45.0,
    sz3_core_decompress: 75.0,
    zs_compress: 500.0,
    zs_decompress: 1500.0,
    // Sort-dominated encode, table-driven decode: rANS coders land in
    // the tens-of-MB/s band on an A72 — the same ballpark as DEFLATE
    // (35 MB/s), which keeps the pco-vs-DEFLATE ratio comparison at
    // comparable virtual-time cost rather than trading time for ratio.
    pco_compress: 55.0,
    pco_decompress: 220.0,
    memcpy: 10_000.0,
};

/// C-Engine rates and per-job overheads.
#[derive(Debug, Clone, Copy)]
pub struct CEngineRates {
    pub compress_mbps: f64,
    pub decompress_mbps: f64,
    /// Per-job submission/completion overhead.
    pub compress_overhead: SimDuration,
    pub decompress_overhead: SimDuration,
    /// LZ4 decompression rate (BF3 only).
    pub lz4_decompress_mbps: f64,
}

/// BlueField-2 C-Engine: tuned for Fig. 8 (101.8x compress / 11.2x
/// decompress over the SoC at 5.1 MB).
pub const BF2_CENGINE: CEngineRates = CEngineRates {
    compress_mbps: 3_700.0,
    decompress_mbps: 4_000.0,
    compress_overhead: SimDuration(60_000),      // 60 us
    decompress_overhead: SimDuration(1_500_000), // 1.5 ms
    lz4_decompress_mbps: 0.0,                    // unsupported
};

/// BlueField-3 C-Engine: decompression only; tuned for the paper's
/// 1.78x (5.1 MB) and 1.28x (48.84 MB) advantages over BF2's engine.
pub const BF3_CENGINE: CEngineRates = CEngineRates {
    compress_mbps: 0.0, // unsupported — PEDAL falls back to the SoC
    decompress_mbps: 4_400.0,
    compress_overhead: SimDuration(0),
    decompress_overhead: SimDuration(400_000), // 0.4 ms
    lz4_decompress_mbps: 6_000.0,
};

/// Fixed and per-byte overheads around the engines.
#[derive(Debug, Clone, Copy)]
pub struct OverheadRates {
    /// One-time DOCA context/engine initialization. The paper attributes
    /// ~94% of small-message runs to this plus buffer prep (Fig. 7a).
    pub doca_init: SimDuration,
    /// Mapping a buffer into DOCA-operable memory: base + per-MB.
    pub buffer_prep_base: SimDuration,
    pub buffer_prep_per_mb: SimDuration,
    /// Plain SoC allocation (baseline SoC designs pay this per message).
    pub host_alloc_base: SimDuration,
    pub host_alloc_per_mb: SimDuration,
    /// Per-message cost of a warm memory-pool hit under PEDAL.
    pub pool_hit: SimDuration,
    /// How many intermediate buffers a lossy (SZ3) run allocates when not
    /// pooled (input map, quant codes, outliers, encoded stream).
    pub lossy_intermediate_buffers: u64,
}

pub const BF2_OVERHEADS: OverheadRates = OverheadRates {
    doca_init: SimDuration(80_000_000), // 80 ms
    buffer_prep_base: SimDuration(400_000),
    buffer_prep_per_mb: SimDuration(1_500_000),
    host_alloc_base: SimDuration(50_000),
    host_alloc_per_mb: SimDuration(1_200_000),
    pool_hit: SimDuration(20_000),
    lossy_intermediate_buffers: 4,
};

pub const BF3_OVERHEADS: OverheadRates = OverheadRates {
    doca_init: SimDuration(75_000_000), // 75 ms
    buffer_prep_base: SimDuration(350_000),
    buffer_prep_per_mb: SimDuration(1_200_000),
    host_alloc_base: SimDuration(40_000),
    host_alloc_per_mb: SimDuration(900_000),
    pool_hit: SimDuration(15_000),
    lossy_intermediate_buffers: 4,
};

/// PCIe link between the host CPU and the DPU (the paper's §VI host-offload
/// scenario: "It is crucial to assess the overhead associated with data
/// movement between the host and DPU").
#[derive(Debug, Clone, Copy)]
pub struct PcieRates {
    /// DMA doorbell + completion latency.
    pub latency: SimDuration,
    /// Effective DMA bandwidth in MB/s.
    pub bandwidth_mbps: f64,
}

/// BlueField-2: PCIe Gen4 x16 (~26 GB/s raw, ~20 GB/s effective DMA).
pub const BF2_PCIE: PcieRates = PcieRates { latency: SimDuration(1_200), bandwidth_mbps: 20_000.0 };

/// BlueField-3: PCIe Gen5 x16 (~50 GB/s raw, ~40 GB/s effective DMA).
pub const BF3_PCIE: PcieRates = PcieRates { latency: SimDuration(1_000), bandwidth_mbps: 40_000.0 };

/// Network model: per-hop latency + line-rate serialization.
#[derive(Debug, Clone, Copy)]
pub struct NetworkRates {
    pub latency: SimDuration,
    /// Effective bandwidth in MB/s (line rate with protocol efficiency).
    pub bandwidth_mbps: f64,
}

pub const BF2_NETWORK: NetworkRates = NetworkRates {
    latency: SimDuration(2_500), // 2.5 us
    bandwidth_mbps: 23_000.0,    // ~92% of 200 Gb/s
};

pub const BF3_NETWORK: NetworkRates = NetworkRates {
    latency: SimDuration(2_000),
    bandwidth_mbps: 46_000.0, // ~92% of 400 Gb/s
};

/// The assembled per-platform cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub platform: Platform,
    pub soc: SocRates,
    /// SoC speed multiplier (1.0 on BF2).
    pub soc_factor: f64,
    pub cengine: CEngineRates,
    pub overheads: OverheadRates,
    pub network: NetworkRates,
    pub pcie: PcieRates,
}

impl CostModel {
    pub fn for_platform(platform: Platform) -> Self {
        match platform {
            Platform::BlueField2 => Self {
                platform,
                soc: BF2_SOC,
                soc_factor: 1.0,
                cengine: BF2_CENGINE,
                overheads: BF2_OVERHEADS,
                network: BF2_NETWORK,
                pcie: BF2_PCIE,
            },
            Platform::BlueField3 => Self {
                platform,
                soc: BF2_SOC,
                soc_factor: platform.spec().soc_speed_factor,
                cengine: BF3_CENGINE,
                overheads: BF3_OVERHEADS,
                network: BF3_NETWORK,
                pcie: BF3_PCIE,
            },
        }
    }

    /// One-time DOCA initialization cost.
    pub fn doca_init(&self) -> SimDuration {
        self.overheads.doca_init
    }

    /// Map `bytes` into DOCA-operable memory.
    pub fn buffer_prep(&self, bytes: usize) -> SimDuration {
        self.overheads.buffer_prep_base
            + SimDuration((self.overheads.buffer_prep_per_mb.0 as f64 * bytes as f64 / MB) as u64)
    }

    /// Plain allocation of `n_buffers` buffers of `bytes` on the SoC.
    pub fn host_alloc(&self, bytes: usize, n_buffers: u64) -> SimDuration {
        let one = self.overheads.host_alloc_base
            + SimDuration((self.overheads.host_alloc_per_mb.0 as f64 * bytes as f64 / MB) as u64);
        one * n_buffers
    }

    /// Per-message cost of reusing a pooled buffer.
    pub fn pool_hit(&self) -> SimDuration {
        self.overheads.pool_hit
    }

    /// SoC-side lossless operation (per the *processed* byte count: input
    /// bytes for compression, output bytes for decompression). `Sz3` is not
    /// valid here — its stages are costed individually below.
    pub fn soc_lossless(&self, algo: Algorithm, dir: Direction, bytes: usize) -> SimDuration {
        let rate = match (algo, dir) {
            (Algorithm::Deflate, Direction::Compress) => self.soc.deflate_compress,
            (Algorithm::Deflate, Direction::Decompress) => self.soc.deflate_decompress,
            (Algorithm::Lz4, Direction::Compress) => self.soc.lz4_compress,
            (Algorithm::Lz4, Direction::Decompress) => self.soc.lz4_decompress,
            (Algorithm::Zlib, Direction::Compress) => self.soc.deflate_compress,
            (Algorithm::Zlib, Direction::Decompress) => self.soc.deflate_decompress,
            (Algorithm::Pco, Direction::Compress) => self.soc.pco_compress,
            (Algorithm::Pco, Direction::Decompress) => self.soc.pco_decompress,
            (Algorithm::Sz3, _) => panic!("SZ3 is costed via sz3_core + backend stages"),
        };
        let mut t = time_for(bytes, rate * self.soc_factor);
        if algo == Algorithm::Zlib {
            t += self.checksum(bytes);
        }
        t
    }

    /// Adler-32 / zlib header+trailer work on the SoC.
    pub fn checksum(&self, bytes: usize) -> SimDuration {
        time_for(bytes, self.soc.checksum * self.soc_factor)
    }

    /// Fixed per-job C-Engine submission/completion overhead (Table III) —
    /// the part of [`CostModel::cengine_lossless`] independent of payload
    /// size. Batched submissions pay it once for the whole batch.
    pub fn cengine_job_overhead(&self, dir: Direction) -> SimDuration {
        match dir {
            Direction::Compress => self.cengine.compress_overhead,
            Direction::Decompress => self.cengine.decompress_overhead,
        }
    }

    /// C-Engine lossless operation, or `None` when this generation's engine
    /// cannot perform it (the caller is expected to fall back to the SoC).
    pub fn cengine_lossless(
        &self,
        algo: Algorithm,
        dir: Direction,
        bytes: usize,
    ) -> Option<SimDuration> {
        if !self.platform.spec().cengine.supports(algo, dir) {
            return None;
        }
        let (rate, overhead) = match (algo, dir) {
            (Algorithm::Lz4, Direction::Decompress) => {
                (self.cengine.lz4_decompress_mbps, self.cengine.decompress_overhead)
            }
            (_, Direction::Compress) => {
                (self.cengine.compress_mbps, self.cengine.compress_overhead)
            }
            (_, Direction::Decompress) => {
                (self.cengine.decompress_mbps, self.cengine.decompress_overhead)
            }
        };
        if rate <= 0.0 {
            return None;
        }
        let mut t = overhead + time_for(bytes, rate);
        if algo == Algorithm::Zlib {
            // Header/trailer stay on the SoC in the split design.
            t += self.checksum(bytes);
        }
        Some(t)
    }

    /// SZ3 core stages (predict + quantize + entropy code) on the SoC.
    pub fn sz3_core(&self, dir: Direction, bytes: usize) -> SimDuration {
        let rate = match dir {
            Direction::Compress => self.soc.sz3_core_compress,
            Direction::Decompress => self.soc.sz3_core_decompress,
        };
        time_for(bytes, rate * self.soc_factor)
    }

    /// [`CostModel::sz3_core`] broken down per stage for profiling. The
    /// split follows SZ3's published stage profile on Arm cores (predict
    /// ≈ 40%, quantize ≈ 25%, Huffman ≈ 35% of core compression time;
    /// decode inverts toward Huffman). The Huffman share is computed by
    /// subtraction so the three stages always sum *exactly* to
    /// [`CostModel::sz3_core`] — trace totals match the lump cost the
    /// scheduler charged, bit for bit.
    pub fn sz3_core_stages(&self, dir: Direction, bytes: usize) -> Sz3CoreStages {
        let total = self.sz3_core(dir, bytes);
        let (f_predict, f_quantize) = match dir {
            Direction::Compress => (0.40, 0.25),
            Direction::Decompress => (0.30, 0.20),
        };
        let predict = SimDuration((total.0 as f64 * f_predict) as u64);
        let quantize = SimDuration((total.0 as f64 * f_quantize) as u64);
        let huffman = total.saturating_sub(predict).saturating_sub(quantize);
        Sz3CoreStages { predict, quantize, huffman }
    }

    /// SZ3's native fast lossless backend on the SoC.
    pub fn sz3_zs_backend(&self, dir: Direction, bytes: usize) -> SimDuration {
        let rate = match dir {
            Direction::Compress => self.soc.zs_compress,
            Direction::Decompress => self.soc.zs_decompress,
        };
        time_for(bytes, rate * self.soc_factor)
    }

    /// Plain memory copy on the SoC.
    pub fn memcpy(&self, bytes: usize) -> SimDuration {
        time_for(bytes, self.soc.memcpy * self.soc_factor)
    }

    /// One DMA transfer of `bytes` across the host-DPU PCIe link.
    pub fn pcie_transfer(&self, bytes: usize) -> SimDuration {
        self.pcie.latency + time_for(bytes, self.pcie.bandwidth_mbps)
    }

    /// One network hop carrying `bytes`.
    pub fn network_transfer(&self, bytes: usize) -> SimDuration {
        self.network.latency + time_for(bytes, self.network.bandwidth_mbps)
    }
}

/// Per-stage breakdown of the SZ3 core lump (see
/// [`CostModel::sz3_core_stages`]); stages sum exactly to the lump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sz3CoreStages {
    pub predict: SimDuration,
    pub quantize: SimDuration,
    pub huffman: SimDuration,
}

impl Sz3CoreStages {
    pub fn total(&self) -> SimDuration {
        self.predict + self.quantize + self.huffman
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB_5_1: usize = 5_100_000;
    const MIB_48_84: usize = 48_840_000;

    fn bf2() -> CostModel {
        CostModel::for_platform(Platform::BlueField2)
    }
    fn bf3() -> CostModel {
        CostModel::for_platform(Platform::BlueField3)
    }

    #[test]
    fn fig8_bf2_deflate_compress_speedup_near_101x() {
        let m = bf2();
        let soc = m.soc_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1);
        let ce = m.cengine_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1).unwrap();
        let speedup = soc.as_millis_f64() / ce.as_millis_f64();
        assert!((90.0..=115.0).contains(&speedup), "speedup {speedup:.1} (paper: 101.8x)");
    }

    #[test]
    fn fig8_bf2_deflate_decompress_speedup_near_11x() {
        let m = bf2();
        let soc = m.soc_lossless(Algorithm::Deflate, Direction::Decompress, MIB_5_1);
        let ce = m.cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_5_1).unwrap();
        let speedup = soc.as_millis_f64() / ce.as_millis_f64();
        assert!((8.0..=13.0).contains(&speedup), "speedup {speedup:.1} (paper: 11.2x)");
    }

    #[test]
    fn fig8_bf2_zlib_mozilla_compress_speedup_near_85x() {
        let m = bf2();
        let soc = m.soc_lossless(Algorithm::Zlib, Direction::Compress, MIB_48_84);
        let ce = m.cengine_lossless(Algorithm::Zlib, Direction::Compress, MIB_48_84).unwrap();
        let speedup = soc.as_millis_f64() / ce.as_millis_f64();
        assert!((70.0..=100.0).contains(&speedup), "speedup {speedup:.1} (paper: 84.6x)");
    }

    #[test]
    fn fig8_bf3_vs_bf2_cengine_decompress_ratios() {
        let b2 = bf2();
        let b3 = bf3();
        let r_small = b2
            .cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_5_1)
            .unwrap()
            .as_millis_f64()
            / b3.cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_5_1)
                .unwrap()
                .as_millis_f64();
        let r_large = b2
            .cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_48_84)
            .unwrap()
            .as_millis_f64()
            / b3.cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_48_84)
                .unwrap()
                .as_millis_f64();
        assert!((1.6..=2.0).contains(&r_small), "small {r_small:.2} (paper: 1.78x)");
        assert!((1.15..=1.45).contains(&r_large), "large {r_large:.2} (paper: 1.28x)");
    }

    #[test]
    fn fig7_init_dominates_small_cengine_runs() {
        // DOCA init + buffer prep ≈ 94% of a 5.1 MB C-Engine run (paper).
        let m = bf2();
        let init = m.doca_init() + m.buffer_prep(MIB_5_1);
        let comp = m.cengine_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1).unwrap();
        // Approximate decompressed-side work with the original size.
        let decomp =
            m.cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_5_1).unwrap();
        let total = init + comp + decomp;
        let frac = init.as_millis_f64() / total.as_millis_f64();
        assert!((0.90..=0.99).contains(&frac), "init fraction {frac:.3} (paper: ~0.94)");
    }

    #[test]
    fn fig7_total_cengine_speedup_vs_soc_up_to_10x() {
        // On the largest dataset the engine (incl. init) wins by ~9.67x.
        let m = bf2();
        let soc_total = m.host_alloc(MIB_48_84, 1)
            + m.soc_lossless(Algorithm::Deflate, Direction::Compress, MIB_48_84)
            + m.soc_lossless(Algorithm::Deflate, Direction::Decompress, MIB_48_84);
        let ce_total = m.doca_init()
            + m.buffer_prep(MIB_48_84)
            + m.cengine_lossless(Algorithm::Deflate, Direction::Compress, MIB_48_84).unwrap()
            + m.cengine_lossless(Algorithm::Deflate, Direction::Decompress, MIB_48_84).unwrap();
        let speedup = soc_total.as_millis_f64() / ce_total.as_millis_f64();
        assert!((7.0..=12.0).contains(&speedup), "total speedup {speedup:.2} (paper: 9.67x)");
    }

    #[test]
    fn bf3_soc_is_about_40_percent_faster() {
        let t2 = bf2().soc_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1);
        let t3 = bf3().soc_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1);
        let reduction = 1.0 - t3.as_millis_f64() / t2.as_millis_f64();
        assert!((0.35..=0.45).contains(&reduction), "reduction {reduction:.2} (paper: ~0.40)");
    }

    #[test]
    fn bf3_engine_cannot_compress() {
        let m = bf3();
        assert!(m.cengine_lossless(Algorithm::Deflate, Direction::Compress, 1_000_000).is_none());
        assert!(m.cengine_lossless(Algorithm::Zlib, Direction::Compress, 1_000_000).is_none());
        assert!(m.cengine_lossless(Algorithm::Deflate, Direction::Decompress, 1_000_000).is_some());
        // LZ4 decompression exists only on BF3's engine.
        assert!(m.cengine_lossless(Algorithm::Lz4, Direction::Decompress, 1_000_000).is_some());
        assert!(bf2().cengine_lossless(Algorithm::Lz4, Direction::Decompress, 1_000_000).is_none());
    }

    #[test]
    fn pcie_is_a_real_cost_comparable_to_the_wire() {
        // The paper's SVI warning only bites if host<->DPU movement is not
        // free: on BF2 the 200 Gb/s wire actually outruns PCIe Gen4 DMA.
        for p in Platform::ALL {
            let m = CostModel::for_platform(p);
            let bytes = 10_000_000;
            let ratio = m.pcie_transfer(bytes).as_nanos() as f64
                / m.network_transfer(bytes).as_nanos() as f64;
            assert!((0.5..=2.0).contains(&ratio), "{p:?}: pcie/net {ratio:.2}");
            assert!(m.pcie_transfer(bytes) > SimDuration::from_micros(100));
        }
        // BF3's Gen5 link is ~2x BF2's Gen4.
        let r = CostModel::for_platform(Platform::BlueField2).pcie_transfer(50_000_000).as_nanos()
            as f64
            / CostModel::for_platform(Platform::BlueField3).pcie_transfer(50_000_000).as_nanos()
                as f64;
        assert!((1.8..=2.2).contains(&r), "pcie ratio {r:.2}");
    }

    #[test]
    fn network_scales_with_platform() {
        let n2 = bf2().network_transfer(10_000_000);
        let n3 = bf3().network_transfer(10_000_000);
        // BF3's 400 Gb/s link is ~2x BF2's 200 Gb/s.
        let ratio = n2.as_millis_f64() / n3.as_millis_f64();
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn zlib_costs_more_than_deflate_by_checksum() {
        let m = bf2();
        let d = m.soc_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1);
        let z = m.soc_lossless(Algorithm::Zlib, Direction::Compress, MIB_5_1);
        assert_eq!(z, d + m.checksum(MIB_5_1));
    }

    #[test]
    fn host_alloc_scales_with_buffer_count() {
        let m = bf2();
        assert_eq!(m.host_alloc(1_000_000, 4), m.host_alloc(1_000_000, 1) * 4);
    }

    #[test]
    fn sz3_stage_split_sums_exactly_to_core_lump() {
        let m = bf2();
        for dir in [Direction::Compress, Direction::Decompress] {
            for bytes in [1usize, 4_097, 1_000_000, MIB_48_84] {
                let stages = m.sz3_core_stages(dir, bytes);
                assert_eq!(stages.total(), m.sz3_core(dir, bytes), "{dir:?} {bytes}");
                // Every stage carries real weight at non-trivial sizes.
                if bytes >= 1_000_000 {
                    assert!(stages.predict > SimDuration::ZERO);
                    assert!(stages.quantize > SimDuration::ZERO);
                    assert!(stages.huffman > SimDuration::ZERO);
                }
            }
        }
    }

    #[test]
    fn pco_is_soc_only_and_comparable_to_deflate() {
        for p in Platform::ALL {
            let m = CostModel::for_platform(p);
            // No engine path exists: placement always lands on the SoC.
            for dir in [Direction::Compress, Direction::Decompress] {
                assert!(m.cengine_lossless(Algorithm::Pco, dir, MIB_5_1).is_none());
            }
            // SoC cost stays within 2x of SoC DEFLATE either way — the
            // "comparable virtual-time cost" band the ratio gate assumes.
            let pco = m.soc_lossless(Algorithm::Pco, Direction::Compress, MIB_5_1).as_millis_f64();
            let def =
                m.soc_lossless(Algorithm::Deflate, Direction::Compress, MIB_5_1).as_millis_f64();
            let rel = pco / def;
            assert!((0.5..=2.0).contains(&rel), "{p:?}: pco/deflate compress {rel:.2}");
        }
    }

    #[test]
    fn durations_are_deterministic() {
        // Same inputs must produce bit-identical virtual times.
        let a = bf2().soc_lossless(Algorithm::Deflate, Direction::Compress, 12_345_678);
        let b = bf2().soc_lossless(Algorithm::Deflate, Direction::Compress, 12_345_678);
        assert_eq!(a, b);
    }
}
