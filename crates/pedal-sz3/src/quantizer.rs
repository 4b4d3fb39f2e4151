//! Error-bounded linear-scale quantizer (SZ3's `LinearQuantizer`).
//!
//! Given a prediction `p` and true value `v`, emits the integer code
//! `round((v - p) / (2*eb))`. The reconstruction `p + 2*eb*code` is then
//! guaranteed within `eb` of `v` — unless the code falls outside the radius
//! or floating-point rounding breaks the bound, in which case the value is
//! marked *unpredictable* (code 0) and stored losslessly.

/// Quantizer over absolute error bound `eb`.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    /// Absolute error bound.
    pub eb: f64,
    /// Codes live in [-radius+1, radius-1]; index 0 marks outliers.
    pub radius: i64,
}

/// Result of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantized {
    /// In-bound code (non-zero index) and the reconstructed value.
    Code { index: u32, reconstructed: f64 },
    /// Out of range or bound violated: store the exact value.
    Unpredictable,
}

impl Quantizer {
    /// Default radius matching SZ3's 65536-bin configuration.
    pub const DEFAULT_RADIUS: i64 = 32_768;

    pub fn new(eb: f64) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive");
        Self { eb, radius: Self::DEFAULT_RADIUS }
    }

    pub fn with_radius(eb: f64, radius: i64) -> Self {
        assert!(eb > 0.0 && eb.is_finite());
        assert!(radius > 1);
        Self { eb, radius }
    }

    /// Quantize `value` against `prediction`.
    #[inline]
    pub fn quantize(&self, value: f64, prediction: f64) -> Quantized {
        let diff = value - prediction;
        let code = (diff / (2.0 * self.eb)).round();
        // A non-finite value or prediction makes the code NaN or infinite,
        // as does a difference too large for f64, so this test also sends
        // those to the outliers.
        if code.is_nan() || code.abs() >= self.radius as f64 {
            return Quantized::Unpredictable;
        }
        let code = code as i64;
        let reconstructed = prediction + 2.0 * self.eb * code as f64;
        // Verify the bound survived floating-point arithmetic.
        if (reconstructed - value).abs() > self.eb {
            return Quantized::Unpredictable;
        }
        Quantized::Code { index: (code + self.radius) as u32, reconstructed }
    }

    /// Reconstruct from a non-zero code index produced by [`Self::quantize`].
    #[inline]
    pub fn reconstruct(&self, index: u32, prediction: f64) -> f64 {
        let code = index as i64 - self.radius;
        prediction + 2.0 * self.eb * code as f64
    }

    /// The reserved outlier index.
    pub const OUTLIER: u32 = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bound_code_respects_eb() {
        let q = Quantizer::new(1e-4);
        for &(v, p) in &[(1.0f64, 0.9999), (0.5, 0.5003), (-2.0, -1.99), (1e6, 1e6 + 0.01)] {
            match q.quantize(v, p) {
                Quantized::Code { index, reconstructed } => {
                    assert!((reconstructed - v).abs() <= q.eb, "v={v} p={p}");
                    assert_ne!(index, Quantizer::OUTLIER);
                    assert!((reconstructed - q.reconstruct(index, p)).abs() == 0.0);
                }
                Quantized::Unpredictable => panic!("should quantize v={v} p={p}"),
            }
        }
    }

    #[test]
    fn zero_diff_maps_to_radius_index() {
        let q = Quantizer::new(0.01);
        match q.quantize(5.0, 5.0) {
            Quantized::Code { index, reconstructed } => {
                assert_eq!(index as i64, q.radius);
                assert_eq!(reconstructed, 5.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn far_values_are_unpredictable() {
        let q = Quantizer::new(1e-4);
        assert_eq!(q.quantize(1e9, 0.0), Quantized::Unpredictable);
    }

    #[test]
    fn nan_and_inf_unpredictable() {
        let q = Quantizer::new(1e-4);
        assert_eq!(q.quantize(f64::NAN, 0.0), Quantized::Unpredictable);
        assert_eq!(q.quantize(f64::INFINITY, 0.0), Quantized::Unpredictable);
        assert_eq!(q.quantize(1.0, f64::NAN), Quantized::Unpredictable);
    }

    #[test]
    fn reconstruct_inverts_quantize() {
        let q = Quantizer::new(0.5);
        let p = 10.0;
        for v in [9.0, 10.0, 11.0, 12.25, 7.75] {
            if let Quantized::Code { index, reconstructed } = q.quantize(v, p) {
                assert_eq!(q.reconstruct(index, p), reconstructed);
            } else {
                panic!("v={v}");
            }
        }
    }

    #[test]
    fn radius_boundary() {
        let q = Quantizer::with_radius(1.0, 4);
        // code = round(diff/2); radius 4 → |code| <= 3 representable.
        assert!(matches!(q.quantize(6.0, 0.0), Quantized::Code { .. })); // code 3
        assert_eq!(q.quantize(8.0, 0.0), Quantized::Unpredictable); // code 4
        assert!(matches!(q.quantize(-6.0, 0.0), Quantized::Code { .. }));
        assert_eq!(q.quantize(-8.0, 0.0), Quantized::Unpredictable);
    }

    #[test]
    #[should_panic]
    fn zero_eb_rejected() {
        Quantizer::new(0.0);
    }
}
