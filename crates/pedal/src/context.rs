//! The PEDAL context and its unified compress/decompress API
//! (paper Listing 1: `PEDAL_init`, `PEDAL_compress`, `PEDAL_decompress`,
//! `PEDAL_finalize`).
//!
//! A context binds a platform, a compression design, a DOCA context (the
//! simulated engine), the memory pool, and a virtual clock. All heavy
//! initialization — DOCA setup and buffer preparation — happens in
//! [`PedalContext::init`], which the MPI co-design calls from `MPI_Init`;
//! steady-state messages then pay only pool-hit costs. The
//! [`OverheadMode::Baseline`] mode instead charges initialization on every
//! operation, reproducing the paper's baseline configuration.

use crate::design::Design;
use crate::exec::Executor;
use crate::header::{HeaderError, HEADER_LEN};
use crate::pool::PedalPool;
use crate::timing::TimingBreakdown;
use crate::wire;
use pedal_doca::DocaContext;
use pedal_dpu::{Algorithm, CostModel, Placement, Platform, SimClock, SimDuration};
use pedal_obs::LaneRecorder;

/// Element type of the message payload (paper Listing 1's `datatype`
/// parameter, which "aids in lossy compression").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datatype {
    /// Opaque bytes — valid for lossless designs only.
    Byte,
    /// IEEE-754 single precision (SZ3-capable).
    Float32,
    /// IEEE-754 double precision (SZ3-capable).
    Float64,
}

/// How per-message overheads are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadMode {
    /// PEDAL: init prepaid at [`PedalContext::init`], buffers pooled.
    Pedal,
    /// The paper's baseline: "memory allocation and the DOCA initialization
    /// procedure are invoked during every message transmission".
    Baseline,
}

/// Context configuration.
#[derive(Debug, Clone, Copy)]
pub struct PedalConfig {
    pub platform: Platform,
    pub design: Design,
    /// Absolute error bound for SZ3 designs (paper: 1e-4).
    pub error_bound: f64,
    pub overhead_mode: OverheadMode,
    /// Buffers preallocated at init.
    pub pool_buffers: usize,
    /// Capacity of each preallocated buffer.
    pub pool_capacity: usize,
}

impl PedalConfig {
    /// Pick the latency-optimal design for a payload class on a platform,
    /// following the paper's placement policy ("PEDAL predominantly relies
    /// on the C-Engine of BlueField (when applicable) over the SoC"):
    ///
    /// * float data → SZ3, with the engine-backed lossless stage where the
    ///   engine can compress (BlueField-2) and the native backend elsewhere;
    /// * byte data → the engine's DEFLATE on BlueField-2; on BlueField-3
    ///   (no engine compression) the SoC's fastest codec, LZ4.
    pub fn auto(platform: Platform, datatype: Datatype) -> Self {
        use pedal_dpu::Direction;
        let engine_compresses =
            platform.spec().cengine.supports(Algorithm::Deflate, Direction::Compress);
        let design = match datatype {
            Datatype::Float32 | Datatype::Float64 => {
                if engine_compresses {
                    Design::CE_SZ3
                } else {
                    Design::SOC_SZ3
                }
            }
            Datatype::Byte => {
                if engine_compresses {
                    Design::CE_DEFLATE
                } else {
                    Design::SOC_LZ4
                }
            }
        };
        Self::new(platform, design)
    }

    pub fn new(platform: Platform, design: Design) -> Self {
        Self {
            platform,
            design,
            error_bound: 1e-4,
            overhead_mode: OverheadMode::Pedal,
            pool_buffers: 4,
            pool_capacity: 8 * 1024 * 1024,
        }
    }

    pub fn baseline(mut self) -> Self {
        self.overhead_mode = OverheadMode::Baseline;
        self
    }

    pub fn with_error_bound(mut self, eb: f64) -> Self {
        self.error_bound = eb;
        self
    }
}

/// What `PEDAL_init` cost (prepaid overheads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitReport {
    pub doca_init: SimDuration,
    pub pool_prealloc: SimDuration,
}

impl InitReport {
    pub fn total(&self) -> SimDuration {
        self.doca_init + self.pool_prealloc
    }
}

/// Result of one compression.
#[derive(Debug, Clone)]
pub struct CompressOutput {
    /// PEDAL header + varint original length + body.
    pub payload: Vec<u8>,
    pub original_len: usize,
    pub timing: TimingBreakdown,
    /// Where the main compression work ran.
    pub placement: Placement,
    /// True when a C-Engine design was redirected to the SoC.
    pub fell_back: bool,
    /// True when the payload is an uncompressed passthrough.
    pub passthrough: bool,
}

impl CompressOutput {
    /// Wire size of the message PEDAL would transmit.
    pub fn wire_len(&self) -> usize {
        self.payload.len()
    }

    /// Compression ratio original/wire (>= 1 means it helped).
    pub fn ratio(&self) -> f64 {
        self.original_len as f64 / self.payload.len() as f64
    }
}

/// Result of one decompression.
#[derive(Debug, Clone)]
pub struct DecompressOutput {
    pub data: Vec<u8>,
    pub timing: TimingBreakdown,
    pub placement: Placement,
    pub fell_back: bool,
}

/// PEDAL API errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PedalError {
    Header(HeaderError),
    /// SZ3 designs need Float32/Float64 data.
    UnsupportedDatatype {
        design: Design,
        datatype: Datatype,
    },
    /// Element count does not divide the byte length.
    MisalignedData {
        bytes: usize,
        element: usize,
    },
    /// Declared and actual lengths disagree.
    LengthMismatch {
        expected: usize,
        actual: usize,
    },
    /// Underlying codec failure (corrupt stream).
    Codec(String),
    /// DOCA/engine failure.
    Doca(String),
}

impl std::fmt::Display for PedalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PedalError::Header(e) => write!(f, "header: {e}"),
            PedalError::UnsupportedDatatype { design, datatype } => {
                write!(f, "{design} cannot compress {datatype:?} data")
            }
            PedalError::MisalignedData { bytes, element } => {
                write!(f, "{bytes} bytes not a multiple of element size {element}")
            }
            PedalError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            PedalError::Codec(e) => write!(f, "codec: {e}"),
            PedalError::Doca(e) => write!(f, "doca: {e}"),
        }
    }
}

impl std::error::Error for PedalError {}

impl PedalError {
    /// A stream rejected by a codec, whichever codec raised it.
    pub(crate) fn codec(e: impl std::fmt::Display) -> Self {
        PedalError::Codec(e.to_string())
    }
}

impl From<HeaderError> for PedalError {
    fn from(e: HeaderError) -> Self {
        PedalError::Header(e)
    }
}

/// The PEDAL context (paper Listing 1's `user_ctx`).
#[derive(Debug)]
pub struct PedalContext {
    pub cfg: PedalConfig,
    pub costs: CostModel,
    pub doca: DocaContext,
    pub pool: PedalPool,
    pub clock: SimClock,
    init_report: InitReport,
}

impl PedalContext {
    /// `PEDAL_init`: open DOCA, preallocate pooled buffers, and record the
    /// prepaid virtual cost. Under [`OverheadMode::Pedal`] this is the only
    /// place initialization cost is charged.
    pub fn init(cfg: PedalConfig) -> Result<Self, PedalError> {
        let costs = CostModel::for_platform(cfg.platform);
        let doca = DocaContext::open(cfg.platform).map_err(|e| PedalError::Doca(e.to_string()))?;
        let pool = PedalPool::new(costs);
        let pool_prealloc = pool.preallocate(cfg.pool_buffers, cfg.pool_capacity)
            + doca.inventory.preallocate(cfg.pool_buffers, cfg.pool_capacity);
        let init_report = InitReport { doca_init: doca.init_cost, pool_prealloc };
        let clock = SimClock::new();
        // The prepaid init happens before any message; advance the clock so
        // steady-state timestamps sit after it.
        if cfg.overhead_mode == OverheadMode::Pedal {
            clock.advance(init_report.total());
        }
        Ok(Self { cfg, costs, doca, pool, clock, init_report })
    }

    /// What initialization cost was prepaid.
    pub fn init_report(&self) -> InitReport {
        self.init_report
    }

    /// `PEDAL_finalize`: release resources, returning pool statistics.
    pub fn finalize(self) -> (u64, u64) {
        (self.pool.hits(), self.pool.misses())
    }

    /// Per-message overhead charges for one operation over `bytes`.
    fn overhead(&self, bytes: usize) -> TimingBreakdown {
        let mut t = TimingBreakdown::ZERO;
        match self.cfg.overhead_mode {
            OverheadMode::Pedal => {
                // Warm pool: one buffer acquisition per op.
                let (buf, cost) = self.pool.acquire(bytes.max(HEADER_LEN));
                self.pool.release(buf);
                t.buffer_prep += cost;
            }
            OverheadMode::Baseline => {
                if self.cfg.design.placement == Placement::CEngine {
                    // Naive DOCA use: init + map per message.
                    t.doca_init += self.costs.doca_init();
                    t.buffer_prep += self.costs.buffer_prep(bytes);
                } else {
                    let n_buffers = if self.cfg.design.is_lossy() {
                        self.costs.overheads.lossy_intermediate_buffers
                    } else {
                        1
                    };
                    t.buffer_prep += self.costs.host_alloc(bytes, n_buffers);
                }
            }
        }
        t
    }

    /// The design executor over this context's engine channel.
    fn executor(&self) -> Executor<'_> {
        Executor {
            platform: self.cfg.platform,
            costs: self.costs,
            error_bound: self.cfg.error_bound,
            workq: Some(&self.doca.workq),
        }
    }

    /// `PEDAL_compress`: compress `data` with the configured design,
    /// producing a self-describing PEDAL message.
    pub fn compress(&self, datatype: Datatype, data: &[u8]) -> Result<CompressOutput, PedalError> {
        let mut timing = self.overhead(data.len());
        let begin = self.clock.now() + timing.total();
        let done = self.executor().compress(
            self.cfg.design,
            datatype,
            data,
            begin,
            &mut LaneRecorder::disabled(),
        );
        let out = done.result?;
        timing.compress += done.completed.elapsed_since(begin).saturating_sub(out.checksum);
        timing.checksum += out.checksum;
        self.clock.advance(timing.total());
        Ok(CompressOutput {
            payload: out.bytes,
            original_len: data.len(),
            timing,
            placement: out.placement,
            fell_back: out.fell_back,
            passthrough: out.passthrough,
        })
    }

    /// `PEDAL_decompress`: decode a PEDAL message into `expected_len` bytes
    /// (the receiver's `in_out_count`). Dispatch is driven by the header's
    /// AlgoID, exactly as the receiver side of Fig. 5.
    pub fn decompress(
        &self,
        payload: &[u8],
        expected_len: usize,
    ) -> Result<DecompressOutput, PedalError> {
        // Reject a bad frame before taking a pool buffer.
        let (_, original_len, _) = wire::unframe(payload)?;
        if original_len != expected_len {
            return Err(PedalError::LengthMismatch {
                expected: expected_len,
                actual: original_len,
            });
        }

        let mut timing = self.overhead(expected_len);
        let begin = self.clock.now() + timing.total();
        let done =
            self.executor().decompress(payload, expected_len, begin, &mut LaneRecorder::disabled());
        let out = done.result?;
        timing.decompress += done.completed.elapsed_since(begin).saturating_sub(out.checksum);
        timing.checksum += out.checksum;
        self.clock.advance(timing.total());
        Ok(DecompressOutput {
            data: out.bytes,
            timing,
            placement: out.placement,
            fell_back: out.fell_back,
        })
    }
}
