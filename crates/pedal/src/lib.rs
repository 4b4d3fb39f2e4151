//! # pedal
//!
//! **PEDAL** — a unified lossy/lossless compression library for (simulated)
//! NVIDIA BlueField DPUs, reproducing the system described in
//! *"Accelerating Lossy and Lossless Compression on Emerging BlueField DPU
//! Architectures"* (IPDPS 2024).
//!
//! PEDAL unifies four compression algorithms (DEFLATE, zlib, LZ4, SZ3)
//! across two placements (ARM SoC, hardware C-Engine) into eight
//! *compression designs* behind one API, and moves all heavy setup — DOCA
//! engine initialization and buffer registration — into `PEDAL_init` so
//! steady-state messages pay only for actual (de)compression.
//!
//! ```
//! use pedal::{PedalContext, PedalConfig, Design, Datatype};
//! use pedal_dpu::Platform;
//!
//! let ctx = PedalContext::init(PedalConfig::new(
//!     Platform::BlueField2,
//!     Design::CE_DEFLATE,
//! )).unwrap();
//!
//! let message = b"on-the-fly compression for MPI messages".repeat(64);
//! let packed = ctx.compress(Datatype::Byte, &message).unwrap();
//! assert!(packed.wire_len() < message.len());
//!
//! let unpacked = ctx.decompress(&packed.payload, message.len()).unwrap();
//! assert_eq!(unpacked.data, message);
//! ```

pub mod context;
pub mod design;
pub mod exec;
pub mod header;
pub mod parallel;
pub mod pool;
pub mod timing;
pub mod wire;

pub use context::{
    CompressOutput, Datatype, DecompressOutput, InitReport, OverheadMode, PedalConfig,
    PedalContext, PedalError,
};
pub use design::Design;
pub use header::{HeaderError, PedalHeader, ALGO_ID_RAW, HEADER_LEN, INDICATOR};
pub use parallel::{compress_chunked, decompress_chunked, ParallelOutcome, ParallelStrategy};
pub use pool::PedalPool;
pub use timing::TimingBreakdown;
pub use wire::CostProfile;

// ---------------------------------------------------------------------
// C-style API parity with the paper's Listing 1
// ---------------------------------------------------------------------

/// `int PEDAL_init(void *user_ctx)` — construct a context from a config.
pub fn pedal_init(cfg: PedalConfig) -> Result<PedalContext, PedalError> {
    PedalContext::init(cfg)
}

/// `void *PEDAL_compress(int datatype, const void *in, int count,
/// int *out_count)` — compress `count` elements; the returned buffer's
/// length plays the role of `*out_count`.
pub fn pedal_compress(
    ctx: &PedalContext,
    datatype: Datatype,
    input: &[u8],
) -> Result<CompressOutput, PedalError> {
    ctx.compress(datatype, input)
}

/// `void PEDAL_decompress(int datatype, void *in, int in_count,
/// void *in_out_buf, int in_out_count)` — decompress into a caller-sized
/// buffer.
pub fn pedal_decompress(
    ctx: &PedalContext,
    _datatype: Datatype,
    input: &[u8],
    in_out_buf: &mut [u8],
) -> Result<TimingBreakdown, PedalError> {
    let out = ctx.decompress(input, in_out_buf.len())?;
    in_out_buf.copy_from_slice(&out.data);
    Ok(out.timing)
}

/// `int PEDAL_finalize(void *user_ctx)` — tear down, reporting pool stats.
pub fn pedal_finalize(ctx: PedalContext) -> (u64, u64) {
    ctx.finalize()
}
