//! Prediction stages of the SZ3 pipeline.
//!
//! Two predictors are provided, mirroring SZ3's composable design:
//!
//! * [`PredictorKind::Lorenzo`] — the classic first-order Lorenzo predictor
//!   for 1D/2D/3D grids, predicting each point from already-reconstructed
//!   neighbours by inclusion–exclusion.
//! * [`PredictorKind::Interp`] — multi-level interpolation (SZ3's flagship
//!   predictor) with linear and cubic kernels, over grids of any rank in
//!   the line-by-line visit order of [`crate::interp_nd::interp_lines`].
//!
//! Prediction always consumes *reconstructed* values, never originals, so
//! the decompressor — which only has reconstructed data — stays in lockstep.

use crate::field::Float;

/// Predictor selector stored in the compressed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// First-order Lorenzo (any rank).
    Lorenzo,
    /// Multi-level linear interpolation (any rank).
    Interp,
    /// Multi-level cubic interpolation (any rank).
    InterpCubic,
}

impl PredictorKind {
    pub fn tag(self) -> u8 {
        match self {
            PredictorKind::Lorenzo => 0,
            PredictorKind::Interp => 1,
            PredictorKind::InterpCubic => 2,
        }
    }

    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(PredictorKind::Lorenzo),
            1 => Some(PredictorKind::Interp),
            2 => Some(PredictorKind::InterpCubic),
            _ => None,
        }
    }
}

/// Lorenzo prediction at (x, y, z) over a reconstructed buffer laid out
/// row-major with dims (nx, ny, nz). Out-of-range neighbours contribute 0.
#[inline]
pub fn lorenzo_predict<T: Float>(
    recon: &[T],
    nx: usize,
    ny: usize,
    x: usize,
    y: usize,
    z: usize,
) -> f64 {
    let at = |dx: usize, dy: usize, dz: usize| -> f64 {
        // dx/dy/dz are 0 or 1 meaning "one step back".
        if (dx == 1 && x == 0) || (dy == 1 && y == 0) || (dz == 1 && z == 0) {
            0.0
        } else {
            recon[((z - dz) * ny + (y - dy)) * nx + (x - dx)].to_f64()
        }
    };
    // Inclusion-exclusion over the 7 causal neighbours.
    at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) - at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1) + at(1, 1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Dims;
    use crate::interp_nd::{interp_lines, Line};

    /// The 1-D walk's lines, and each point's index on its line.
    fn interp_plan(n: usize) -> Vec<(Line, usize)> {
        let mut points = Vec::new();
        interp_lines(Dims::d1(n), |line| points.extend((0..line.count).map(|j| (line, j))));
        points
    }

    #[test]
    fn lorenzo_1d_is_previous_value() {
        let recon = vec![1.0, 2.0, 3.0, 0.0];
        // 1D: ny = nz = 1, only the x-1 term is in range.
        assert_eq!(lorenzo_predict(&recon, 4, 1, 3, 0, 0), 3.0);
        assert_eq!(lorenzo_predict(&recon, 4, 1, 0, 0, 0), 0.0);
    }

    #[test]
    fn lorenzo_2d_plane_is_exact() {
        // For f(x,y) = 3x + 5y + 2, the 2D Lorenzo prediction is exact.
        let (nx, ny) = (6, 5);
        let mut recon = vec![0.0f64; nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                recon[y * nx + x] = 3.0 * x as f64 + 5.0 * y as f64 + 2.0;
            }
        }
        for y in 1..ny {
            for x in 1..nx {
                let pred = lorenzo_predict(&recon, nx, ny, x, y, 0);
                assert!((pred - recon[y * nx + x]).abs() < 1e-12, "({x},{y})");
            }
        }
    }

    #[test]
    fn lorenzo_3d_linear_field_is_exact() {
        let (nx, ny, nz) = (4, 4, 4);
        let mut recon = vec![0.0f64; nx * ny * nz];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    recon[(z * ny + y) * nx + x] = 1.5 * x as f64 - 2.5 * y as f64 + 4.0 * z as f64;
                }
            }
        }
        for z in 1..nz {
            for y in 1..ny {
                for x in 1..nx {
                    let pred = lorenzo_predict(&recon, nx, ny, x, y, z);
                    let truth = recon[(z * ny + y) * nx + x];
                    assert!((pred - truth).abs() < 1e-12, "({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn interp_plan_covers_all_points_once() {
        for n in [1usize, 2, 3, 4, 5, 17, 64, 100, 1023] {
            let plan = interp_plan(n);
            let mut seen = vec![false; n];
            seen[0] = true; // seed
            for &(line, j) in &plan {
                let pos = line.pos(j);
                assert!(!seen[pos], "n={n} pos {pos} visited twice");
                // Anchors must already be reconstructed.
                assert!(seen[pos - line.d], "n={n} left anchor of {pos} not ready");
                if j + 1 < line.count || line.closed {
                    assert!(seen[pos + line.d], "n={n} right anchor of {pos} not ready");
                }
                seen[pos] = true;
            }
            assert!(seen.iter().all(|&s| s), "n={n}: some points unvisited");
        }
    }

    #[test]
    fn interp_linear_exact_on_linear_data() {
        let n = 33;
        let recon: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 + 1.0).collect();
        for (line, j) in interp_plan(n) {
            if j + 1 < line.count || line.closed {
                let pred = line.predict(&recon, j, false);
                assert!((pred - recon[line.pos(j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn interp_cubic_exact_on_cubic_data() {
        // Catmull-Rom midpoint weights reproduce cubics exactly at midpoints
        // of a uniform grid.
        let n = 65;
        let f = |i: usize| {
            let t = i as f64;
            0.01 * t * t * t - 0.3 * t * t + 2.0 * t - 5.0
        };
        let recon: Vec<f64> = (0..n).map(f).collect();
        for (line, j) in interp_plan(n) {
            let far_right = j + 2 < line.count || (j + 2 == line.count && line.closed);
            if j >= 1 && far_right {
                let (pos, pred) = (line.pos(j), line.predict(&recon, j, true));
                assert!((pred - recon[pos]).abs() < 1e-9, "pos {pos}: {pred} vs {}", recon[pos]);
            }
        }
    }

    #[test]
    fn predictor_tags_roundtrip() {
        for k in [PredictorKind::Lorenzo, PredictorKind::Interp, PredictorKind::InterpCubic] {
            assert_eq!(PredictorKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PredictorKind::from_tag(99), None);
    }
}
