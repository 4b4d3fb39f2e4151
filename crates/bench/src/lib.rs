//! Shared infrastructure for the paper's experiments.
//!
//! Every module under [`experiments`] regenerates one table, figure or
//! ablation (see DESIGN.md §3 for the index), and the `repro` binary runs
//! them all through [`repro::run`]. Results are *virtual-time* numbers
//! from the calibrated cost model, so they are identical on every host.
//!
//! Set `PEDAL_DATA_SCALE` (e.g. `0.1`) to shrink the datasets for a quick
//! pass; the committed `results/` use the full Table IV sizes.

use pedal::{Datatype, Design, OverheadMode, PedalConfig, PedalContext, TimingBreakdown};
use pedal_datasets::DatasetId;
use pedal_dpu::Platform;
use std::sync::OnceLock;

pub mod experiments;
pub mod report;
pub mod repro;
pub use report::{fmt_us_opt, json_ns_opt, repo_root, BenchReport};
pub use repro::Artifacts;

/// Dataset scale factor from the environment (default 1.0 = Table IV sizes).
pub fn data_scale() -> f64 {
    std::env::var("PEDAL_DATA_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| *v > 0.0 && *v <= 1.0)
        .unwrap_or(1.0)
}

/// A dataset at the configured scale, generated once per process.
pub fn dataset(id: DatasetId) -> &'static [u8] {
    const IDS: usize = DatasetId::ALL.len() + DatasetId::MIXED.len();
    static CACHE: [OnceLock<Vec<u8>>; IDS] = [const { OnceLock::new() }; IDS];
    CACHE[id as usize].get_or_init(|| {
        let target = ((id.size_bytes() as f64) * data_scale()).round() as usize;
        // Keep float datasets 4-byte aligned.
        let target = if id.is_lossy_dataset() { target & !3 } else { target };
        id.generate_bytes(target.max(64))
    })
}

/// The datatype a dataset should be fed to PEDAL as.
pub fn dataset_datatype(id: DatasetId) -> Datatype {
    if id.is_lossy_dataset() {
        Datatype::Float32
    } else {
        Datatype::Byte
    }
}

/// One measured compression + decompression pass.
#[derive(Debug, Clone, Copy)]
pub struct DesignRun {
    pub compress: TimingBreakdown,
    pub decompress: TimingBreakdown,
    pub wire_bytes: usize,
    pub original_bytes: usize,
    pub fell_back_compress: bool,
    pub fell_back_decompress: bool,
}

impl DesignRun {
    pub fn total(&self) -> TimingBreakdown {
        self.compress + self.decompress
    }

    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.wire_bytes as f64
    }

    /// The paper's Figs. 7/9 breakdown of one *execution* (compress +
    /// decompress of one dataset): initialization and buffer setup are
    /// counted once, not once per direction.
    pub fn characterization(&self) -> TimingBreakdown {
        TimingBreakdown {
            doca_init: self.compress.doca_init,
            buffer_prep: self.compress.buffer_prep,
            compress: self.compress.compress + self.compress.checksum,
            decompress: self.decompress.decompress + self.decompress.checksum,
            checksum: pedal_dpu::SimDuration::ZERO,
        }
    }
}

/// Run one design over one buffer and report the timing breakdowns.
///
/// Under [`OverheadMode::Pedal`] a warmup iteration first fills the memory
/// pool (the steady state the paper measures); under
/// [`OverheadMode::Baseline`] every iteration pays full initialization, so
/// no warmup is needed.
pub fn run_design(
    platform: Platform,
    design: Design,
    mode: OverheadMode,
    data: &[u8],
    datatype: Datatype,
) -> DesignRun {
    let cfg = PedalConfig { overhead_mode: mode, ..PedalConfig::new(platform, design) };
    let ctx = PedalContext::init(cfg).expect("context init");
    if mode == OverheadMode::Pedal {
        let warm = ctx.compress(datatype, data).expect("warmup compress");
        let _ = ctx.decompress(&warm.payload, data.len()).expect("warmup decompress");
    }
    let packed = ctx.compress(datatype, data).expect("compress");
    let out = ctx.decompress(&packed.payload, data.len()).expect("decompress");
    DesignRun {
        compress: packed.timing,
        decompress: out.timing,
        wire_bytes: packed.wire_len(),
        original_bytes: data.len(),
        fell_back_compress: packed.fell_back,
        fell_back_decompress: out.fell_back,
    }
}

// ---------------------------------------------------------------------
// Plain-text table printer (fixed-width columns, like the paper's tables)
// ---------------------------------------------------------------------

/// Minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Append the table to `out`.
    pub fn print(&self, out: &mut Artifacts) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let rule: String = widths.iter().map(|w| format!("{}+", "-".repeat(w + 2))).collect();
        let rule = format!("+{rule}");
        let row = |cells: &[String]| {
            let cells: String =
                cells.iter().zip(&widths).map(|(c, w)| format!(" {c:<w$} |")).collect();
            format!("|{cells}")
        };
        out.line(&rule);
        out.line(&row(&self.headers));
        out.line(&rule);
        for cells in &self.rows {
            out.line(&row(cells));
        }
        out.line(&rule);
    }
}

/// Format a virtual duration in milliseconds with sensible precision.
pub fn fmt_ms(d: pedal_dpu::SimDuration) -> String {
    let ms = d.as_millis_f64();
    if ms >= 100.0 {
        format!("{ms:.1}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.3}")
    }
}

/// Append the standard experiment banner to `out`.
pub fn banner(out: &mut Artifacts, artifact: &str, what: &str) {
    outln!(out, "=== {artifact} — {what} ===");
    let scale = data_scale();
    if (scale - 1.0).abs() > 1e-9 {
        outln!(out, "(PEDAL_DATA_SCALE = {scale}: dataset sizes scaled down; shapes hold)");
    }
    outln!(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "22"]);
        t.row(vec!["333", "4"]);
        let mut out = Artifacts::default();
        t.print(&mut out);
        assert_eq!(out.text.lines().nth(4), Some("| 333 | 4  |"));
    }

    #[test]
    fn run_design_produces_sane_output() {
        let data = DatasetId::SilesiaXml.generate_bytes(51_000);
        let run = run_design(
            Platform::BlueField2,
            Design::CE_DEFLATE,
            OverheadMode::Pedal,
            &data,
            Datatype::Byte,
        );
        assert!(run.ratio() > 2.0);
        assert!(run.compress.total().as_nanos() > 0);
        assert!(run.decompress.total().as_nanos() > 0);
    }
}
