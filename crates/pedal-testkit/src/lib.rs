//! # pedal-testkit
//!
//! Deterministic structure-aware fuzzing and differential decode oracles
//! for every PEDAL codec and all eight designs.
//!
//! The kit has three layers:
//!
//! * [`mod@mutate`] — a seeded mutation engine over [`pedal_dpu::Pcg32`]. Every
//!   mutation is a pure function of a `u64` case seed, so any failure the
//!   sweep reports reproduces exactly from the printed seed.
//! * [`corpus`] — valid encoded streams for each codec, built from the
//!   `pedal-datasets` generators, used both as mutation bases and as the
//!   round-trip ground truth.
//! * [`oracle`] / [`sweep`] — decode a mutated stream through every
//!   relevant path and check the verdicts: no panic anywhere, output
//!   bounded by the caller's budget, and (for full PEDAL payloads) the
//!   pure wire decoder and the BlueField-2 / BlueField-3 contexts agree —
//!   same bytes on success, same error class on rejection. The DEFLATE
//!   and LZ4 block cases also hold the split encoders to the sequential
//!   parse on a mutated input.
//!
//! Run the standing sweep with the `fuzz_sweep` binary:
//!
//! ```text
//! cargo run --release -p pedal-testkit --bin fuzz_sweep -- --cases 10000
//! ```
//!
//! A reported failure prints the codec and case seed; re-run with
//! `--codec <name> --case-seed <seed>` to replay just that case.

pub mod corpus;
pub mod mutate;
pub mod oracle;
pub mod sweep;

pub use corpus::{build_corpus, CaseBase, CodecId};
pub use mutate::{mutate, MutationClass};
pub use oracle::{classify, DiffOracle, ErrorClass};
pub use sweep::{run_case, run_sweep, Failure, SweepConfig, SweepReport};
