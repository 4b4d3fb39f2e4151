//! Multi-level interpolation over 2-D and 3-D grids — SZ3's flagship
//! predictor generalized beyond rank 1.
//!
//! The refinement scheme is SZ3's dimension-sequenced binary descent.
//! Points on the coarse lattice `L_s` (all coordinates multiples of `s`)
//! are known; one refinement halves the stride:
//!
//! 1. **x-pass**: predict points with `x ≡ s/2 (mod s)` and `y, z`
//!    multiples of `s`, interpolating along x between lattice neighbours;
//! 2. **y-pass**: predict points with `y ≡ s/2 (mod s)`, `x` a multiple of
//!    `s/2`, `z` a multiple of `s`, interpolating along y;
//! 3. **z-pass**: predict `z ≡ s/2 (mod s)` with `x, y` multiples of `s/2`.
//!
//! After the three passes every point of `L_{s/2}` is known. The walk is a
//! deterministic visit order shared by compressor and decompressor, so
//! prediction always reads already-reconstructed values. It is generated
//! on the fly rather than stored: a stored plan would take 64 bytes per
//! point, several times the field itself.

use crate::field::Dims;
use crate::predictor::InterpPoint;

/// Walk the N-D interpolation order for `dims`, calling `visit` once per
/// point. The seed point is linear index 0 (quantized against a 0.0
/// prediction by the caller) and is not visited; every other grid point
/// is, with its anchor indexes expressed as linear offsets into the
/// row-major array.
pub fn interp_walk(dims: Dims, mut visit: impl FnMut(InterpPoint)) {
    if dims.len() <= 1 {
        return;
    }
    let max_dim = dims.nx.max(dims.ny).max(dims.nz);
    let mut stride = 1usize;
    while stride < max_dim {
        stride <<= 1;
    }
    // Axis extents and linear-index strides (row-major x-fastest).
    let extents = [dims.nx, dims.ny, dims.nz];
    let lin = [1usize, dims.nx, dims.nx * dims.ny];

    while stride >= 2 {
        let half = stride / 2;
        // Pass over axes in x, y, z order.
        for axis in 0..3 {
            let ext = extents[axis];
            if ext <= 1 {
                continue;
            }
            // Coordinates along `axis` at odd multiples of `half`; the
            // earlier axes of this level are already refined to `half`,
            // later axes remain on the full `stride` lattice.
            let step_of = |a: usize| if a < axis { half } else { stride };
            // Iterate the lattice of the two non-target axes.
            let (a1, a2) = match axis {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            let d = half * lin[axis];
            for c1 in (0..extents[a1]).step_by(step_of(a1)) {
                for c2 in (0..extents[a2]).step_by(step_of(a2)) {
                    let base = c1 * lin[a1] + c2 * lin[a2];
                    // Walk the target axis at odd multiples of `half`.
                    for t in (half..ext).step_by(stride) {
                        let pos = base + t * lin[axis];
                        visit(InterpPoint {
                            pos,
                            left: pos - d,
                            right: (t + half < ext).then(|| pos + d),
                            far_left: (t >= 3 * half).then(|| pos - 3 * d),
                            far_right: (t + 3 * half < ext).then(|| pos + 3 * d),
                        });
                    }
                }
            }
        }
        stride = half;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{interp_cubic, interp_linear};

    fn plan(dims: Dims) -> Vec<InterpPoint> {
        let mut points = Vec::new();
        interp_walk(dims, |p| points.push(p));
        points
    }

    fn check_plan(dims: Dims) {
        let plan = plan(dims);
        let n = dims.len();
        let mut seen = vec![false; n];
        seen[0] = true;
        for p in &plan {
            assert!(p.pos < n, "{dims:?}: pos out of range");
            assert!(!seen[p.pos], "{dims:?}: {} visited twice", p.pos);
            assert!(seen[p.left], "{dims:?}: left anchor {} of {} not ready", p.left, p.pos);
            if let Some(r) = p.right {
                assert!(seen[r], "{dims:?}: right anchor {r} of {} not ready", p.pos);
            }
            if let Some(fl) = p.far_left {
                assert!(seen[fl], "{dims:?}: far-left anchor not ready");
            }
            if let Some(fr) = p.far_right {
                assert!(seen[fr], "{dims:?}: far-right anchor not ready");
            }
            seen[p.pos] = true;
        }
        assert!(seen.iter().all(|&s| s), "{dims:?}: unvisited points");
    }

    #[test]
    fn plan_covers_2d_grids() {
        for (nx, ny) in
            [(2usize, 2usize), (3, 3), (4, 4), (5, 7), (16, 16), (17, 13), (1, 9), (64, 3)]
        {
            check_plan(Dims::d2(nx, ny));
        }
    }

    #[test]
    fn plan_covers_3d_grids() {
        for (nx, ny, nz) in
            [(2usize, 2usize, 2usize), (3, 4, 5), (8, 8, 8), (9, 5, 3), (1, 1, 7), (6, 1, 6)]
        {
            check_plan(Dims::d3(nx, ny, nz));
        }
    }

    #[test]
    fn plan_matches_1d_for_flat_dims() {
        // On a 1-D shape each level visits the odd multiples of `half` left
        // to right, anchored `half` and `3 * half` away on either side.
        for n in [2usize, 3, 4, 5, 17, 37, 64, 100] {
            let mut expect = Vec::new();
            let mut stride = n.next_power_of_two();
            while stride >= 2 {
                let half = stride / 2;
                for pos in (half..n).step_by(stride) {
                    expect.push(InterpPoint {
                        pos,
                        left: pos - half,
                        right: (pos + half < n).then(|| pos + half),
                        far_left: (pos >= 3 * half).then(|| pos - 3 * half),
                        far_right: (pos + 3 * half < n).then(|| pos + 3 * half),
                    });
                }
                stride = half;
            }
            assert_eq!(plan(Dims::d1(n)), expect, "n={n}");
        }
    }

    #[test]
    fn linear_kernel_exact_on_planes() {
        // f(x,y) = 3x - 2y + 7 is linear along every axis: axis-wise linear
        // interpolation reproduces it exactly.
        let dims = Dims::d2(33, 17);
        let mut recon = vec![0.0f64; dims.len()];
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                recon[dims.idx(x, y, 0)] = 3.0 * x as f64 - 2.0 * y as f64 + 7.0;
            }
        }
        for p in plan(dims) {
            if p.right.is_some() {
                let pred = interp_linear(&recon, p);
                assert!(
                    (pred - recon[p.pos]).abs() < 1e-9,
                    "pos {}: {pred} vs {}",
                    p.pos,
                    recon[p.pos]
                );
            }
        }
    }

    #[test]
    fn cubic_kernel_exact_on_separable_cubics_3d() {
        let dims = Dims::d3(17, 17, 17);
        let f = |x: usize, y: usize, z: usize| {
            let c = |t: usize| {
                let t = t as f64;
                t * t * t * 0.001 - t * t * 0.05 + t
            };
            c(x) + c(y) + c(z)
        };
        let mut recon = vec![0.0f64; dims.len()];
        for z in 0..17 {
            for y in 0..17 {
                for x in 0..17 {
                    recon[dims.idx(x, y, z)] = f(x, y, z);
                }
            }
        }
        for p in plan(dims) {
            if p.far_left.is_some() && p.right.is_some() && p.far_right.is_some() {
                let pred = interp_cubic(&recon, p);
                assert!(
                    (pred - recon[p.pos]).abs() < 1e-6,
                    "pos {}: {pred} vs {}",
                    p.pos,
                    recon[p.pos]
                );
            }
        }
    }

    #[test]
    fn degenerate_grids() {
        assert!(plan(Dims::d1(0)).is_empty());
        assert!(plan(Dims::d1(1)).is_empty());
        check_plan(Dims::d3(2, 1, 1));
    }
}
