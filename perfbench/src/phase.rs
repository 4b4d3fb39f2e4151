//! What one timed phase of a workload measured.

use crate::stats::{median, quartiles};
use crate::sys;
use std::time::{Duration, Instant};

/// Whole cycles over a workload's inputs, repeated until the phase's time
/// is up. Every cycle does the same work, so per-cycle figures compare.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds of each cycle.
    pub cycle_secs: Vec<f64>,
    /// Raw bytes completed and verified in each cycle.
    pub cycle_bytes: Vec<u64>,
    /// Peak resident MiB of each cycle (see [`Phase::start_cycle`]).
    pub cycle_peak_mib: Vec<f64>,
    /// One sample per operation (bulk message, serve request, p2p message).
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Wall seconds inside compress and decompress calls and the raw
    /// bytes they handled (bulk workloads only).
    pub compress: (f64, u64),
    pub decompress: (f64, u64),
}

impl Phase {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count one operation, failing it with `err` if it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Mark the start of a cycle. Hands freed heap back to the kernel and
    /// resets the process's peak RSS, so that [`Phase::end_cycle`] reads
    /// the peak of this cycle alone, from the same starting point every
    /// cycle. Without the trim, memory the allocator keeps after earlier
    /// cycles steps the peak up at random points of a run.
    pub fn start_cycle() -> Instant {
        sys::trim_heap();
        sys::reset_peak_rss();
        Instant::now()
    }

    pub fn end_cycle(&mut self, start: Instant, bytes: u64) {
        self.cycle_secs.push(start.elapsed().as_secs_f64());
        self.cycle_bytes.push(bytes);
        self.cycle_peak_mib.push(sys::peak_rss_mib().unwrap_or(f64::NAN));
    }

    pub fn total_bytes(&self) -> u64 {
        self.cycle_bytes.iter().sum()
    }

    /// Upper quartile over cycles of verified MB per wall second. Other
    /// tenants of a shared host only ever slow a cycle down, so the upper
    /// quartile tracks the program's own speed more steadily than the
    /// median does.
    pub fn throughput_mbps(&self) -> f64 {
        let rates: Vec<f64> = self
            .cycle_bytes
            .iter()
            .zip(&self.cycle_secs)
            .map(|(&b, &s)| b as f64 / 1e6 / s)
            .collect();
        if rates.len() < 2 {
            return rates[0];
        }
        quartiles(&rates).1
    }

    pub fn median_cycle_secs(&self) -> f64 {
        median(&self.cycle_secs)
    }

    /// Median over cycles of each cycle's peak RSS.
    pub fn peak_rss_mib(&self) -> f64 {
        median(&self.cycle_peak_mib)
    }
}

/// Deadline helper: a phase always runs at least one cycle, then stops at
/// the first cycle boundary past its time.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Byte-exact comparison with a short description on mismatch.
pub fn check_equal(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
    Err(format!("{what}: {} bytes back for {}, first difference at {at}", got.len(), want.len()))
}

/// SZ3 check: same length and every f32 within `eb` of the original. An
/// element whose error is NaN (a NaN decoded for a finite input) fails.
pub fn check_bounded(what: &str, got: &[u8], want: &[u8], eb: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} bytes back for {}", got.len(), want.len()));
    }
    let f = |c: &[u8]| f32::from_le_bytes(c.try_into().expect("4-byte chunk")) as f64;
    let bad = got
        .chunks_exact(4)
        .zip(want.chunks_exact(4))
        .map(|(a, b)| (f(a) - f(b)).abs())
        .enumerate()
        .find(|&(_, err)| err.is_nan() || err > eb);
    match bad {
        None => Ok(()),
        Some((at, err)) => {
            Err(format!("{what}: error {err:e} at element {at} exceeds bound {eb:e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(xs: &[f32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn bounded_check_takes_errors_up_to_the_bound() {
        let want = bytes(&[1.0, 2.0, 3.0]);
        assert!(check_bounded("t", &bytes(&[1.0, 2.0625, 3.0]), &want, 0.0625).is_ok());
        assert!(check_bounded("t", &bytes(&[1.0, 2.125, 3.0]), &want, 0.0625).is_err());
        assert!(check_bounded("t", &bytes(&[1.0, 2.0]), &want, 1.0).is_err());
    }

    #[test]
    fn bounded_check_fails_on_a_decoded_nan() {
        let want = bytes(&[1.0, 2.0, 3.0]);
        let err = check_bounded("t", &bytes(&[1.0, f32::NAN, 3.0]), &want, 1e3).unwrap_err();
        assert!(err.contains("element 1"), "{err}");
    }

    #[test]
    fn equal_check_names_the_first_difference() {
        assert!(check_equal("t", b"abc", b"abc").is_ok());
        assert!(check_equal("t", b"abd", b"abc").unwrap_err().contains("at 2"));
    }
}
