//! # pedal-sz3
//!
//! An SZ3-style modular error-bounded lossy compressor for scientific data,
//! reproducing the five-stage pipeline described in the PEDAL paper's
//! background (§II-B): preprocessor → predictor → quantizer → entropy
//! encoder → lossless compressor.
//!
//! The final lossless stage is pluggable ([`BackendKind`]) and the pipeline
//! can be driven in two halves ([`encode_core`] + [`seal_with`]) so the
//! simulated BlueField C-Engine can take over exactly the stage the paper
//! offloads (Fig. 4: "PEDAL can execute DEFLATE using C-Engine to
//! accelerate SZ3").
//!
//! ```
//! use pedal_sz3::{compress, decompress, Field, Dims, Sz3Config};
//! let field = Field::<f32>::from_fn(Dims::d1(4096), |x, _, _| (x as f32 * 0.01).sin());
//! let cfg = Sz3Config::with_error_bound(1e-4);
//! let packed = compress(&field, &cfg);
//! let recon: Field<f32> = decompress(&packed).unwrap();
//! assert!(field.max_abs_diff(&recon) <= 1e-4);
//! ```

pub mod backend;
pub mod compressor;
pub mod field;
pub mod huff;
pub mod interp_nd;
pub mod metrics;
pub mod predictor;
pub mod quantizer;
pub mod select;

pub use backend::{
    backend_compress, backend_decompress, backend_decompress_with_limit, BackendError, BackendKind,
};
pub use compressor::{
    compress, compress_checked, core_limit_for_output, decode_core, decode_core_with_limit,
    decompress, decompress_with_limit, encode_core, seal, seal_with, unseal, unseal_limited,
    unseal_with, unseal_with_limit, CoreStats, Sz3Config, Sz3Error,
};
pub use field::{Dims, Field, Float};
pub use metrics::{quality, QualityReport};
pub use predictor::PredictorKind;
pub use quantizer::Quantizer;
pub use select::{compress_auto, select_predictor};
