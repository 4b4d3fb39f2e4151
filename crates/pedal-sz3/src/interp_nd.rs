//! Multi-level interpolation over grids of rank 1 to 3 — SZ3's flagship
//! predictor.
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
//! on the fly rather than stored, one [`Line`] at a time: the points of
//! one pass that share their other two coordinates. A line's anchors sit
//! on the coarser lattice, never on the line itself, so a caller can run
//! one tight loop per line ([`predict_line`]) that predicts each point and
//! writes it back.

use crate::field::{Dims, Float};

/// One line of the walk: `count` points, the first at linear index
/// `first` and each next one `2 * d` further on, halfway between anchors
/// `d` before and after it.
///
/// Point `j` always has its left anchor at `pos - d`. Its right anchor at
/// `pos + d` exists for every point but the last, and for the last one
/// when the line is `closed`. Its far-left anchor at `pos - 3d` exists for
/// `j >= 1`, and its far-right one at `pos + 3d` wherever the point after
/// it has a right anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    pub first: usize,
    pub count: usize,
    pub d: usize,
    pub closed: bool,
}

/// Linear interpolation between the two neighbours.
#[inline(always)]
fn linear(left: f64, right: f64) -> f64 {
    0.5 * (left + right)
}

/// Cubic (4-point) interpolation: Catmull-Rom-style midpoint weights
/// (-1, 9, 9, -1)/16.
#[inline(always)]
fn cubic(far_left: f64, left: f64, right: f64, far_right: f64) -> f64 {
    (-far_left + 9.0 * left + 9.0 * right - far_right) / 16.0
}

impl Line {
    /// Linear index of point `j`.
    #[inline]
    pub fn pos(&self, j: usize) -> usize {
        self.first + 2 * j * self.d
    }

    /// Prediction of point `j` from the anchors in `vals`: the cubic
    /// kernel where `cubic_kernel` is set and all four anchors exist, else
    /// the mean of the two neighbours, else the left one.
    #[inline]
    pub fn predict<T: Float>(&self, vals: &[T], j: usize, cubic_kernel: bool) -> f64 {
        let (p, d) = (self.pos(j), self.d);
        let at = |i: usize| vals[i].to_f64();
        let right = j + 1 < self.count || self.closed;
        let far_right = j + 2 < self.count || (j + 2 == self.count && self.closed);
        if cubic_kernel && j >= 1 && far_right {
            cubic(at(p - 3 * d), at(p - d), at(p + d), at(p + 3 * d))
        } else if right {
            linear(at(p - d), at(p + d))
        } else {
            at(p - d)
        }
    }
}

/// Walk the interpolation order for `dims`, calling `visit` once per
/// line. The seed point is linear index 0 (quantized against a 0.0
/// prediction by the caller) and is on no line; every other grid point
/// is on exactly one.
pub fn interp_lines(dims: Dims, mut visit: impl FnMut(Line)) {
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
            if half >= ext {
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
            let count = (ext - half).div_ceil(stride);
            let closed = count * stride < ext;
            for c1 in (0..extents[a1]).step_by(step_of(a1)) {
                for c2 in (0..extents[a2]).step_by(step_of(a2)) {
                    let first = c1 * lin[a1] + c2 * lin[a2] + d;
                    visit(Line { first, count, d, closed });
                }
            }
        }
        stride = half;
    }
}

/// What a line loop does at each point: quantize it (compressor) or
/// reconstruct it (decompressor) from its prediction, writing `vals[pos]`.
/// Implementations mark `step` `#[inline(always)]`, so that it compiles
/// into the loop of [`predict_line`].
pub trait PointStep<T> {
    fn step(&mut self, vals: &mut [T], pos: usize, pred: f64);
}

/// Run `step` over the points of `line` in order, each with its
/// [`Line::predict`] prediction from `vals`. `step` may write `vals[pos]`:
/// no point of a line is an anchor of the same line. Points with every
/// anchor the kernel uses take it directly; the first point and the last
/// one or two take the edge rules.
#[inline(always)]
pub fn predict_line<T: Float>(
    vals: &mut [T],
    line: Line,
    cubic_kernel: bool,
    step: &mut impl PointStep<T>,
) {
    let (count, d, closed) = (line.count, line.d, line.closed as usize);
    // The full kernel's points: j >= 1 with a far-right anchor (cubic), or
    // every point with a right anchor (linear).
    let (lo, hi) = if cubic_kernel {
        (1, (count + closed).saturating_sub(2))
    } else {
        (0, count + closed - 1)
    };
    let at = |vals: &[T], i: usize| vals[i].to_f64();
    let mut p = line.first;
    for j in 0..count {
        let pred = if j < lo || j >= hi {
            line.predict(vals, j, cubic_kernel)
        } else if cubic_kernel {
            cubic(at(vals, p - 3 * d), at(vals, p - d), at(vals, p + d), at(vals, p + 3 * d))
        } else {
            linear(at(vals, p - d), at(vals, p + d))
        };
        step.step(vals, p, pred);
        p += 2 * d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One point of the walk and its anchors, as the per-line rules give
    /// them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Anchors {
        pos: usize,
        left: usize,
        right: Option<usize>,
        far_left: Option<usize>,
        far_right: Option<usize>,
    }

    fn plan(dims: Dims) -> Vec<Anchors> {
        let mut points = Vec::new();
        interp_lines(dims, |line| {
            let (d, n) = (line.d, line.count);
            for j in 0..n {
                let pos = line.pos(j);
                let right = j + 1 < n || line.closed;
                let far_right = j + 2 < n || (j + 2 == n && line.closed);
                points.push(Anchors {
                    pos,
                    left: pos - d,
                    right: right.then(|| pos + d),
                    far_left: (j >= 1).then(|| pos - 3 * d),
                    far_right: far_right.then(|| pos + 3 * d),
                });
            }
        });
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
                    expect.push(Anchors {
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

    /// Every point's prediction, in walk order, from the per-point rule.
    fn predictions(dims: Dims, vals: &[f64], cubic_kernel: bool) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        interp_lines(dims, |line| {
            for j in 0..line.count {
                out.push((line.pos(j), line.predict(vals, j, cubic_kernel)));
            }
        });
        out
    }

    /// Records every (position, prediction) the line loop hands over.
    struct Record(Vec<(usize, f64)>);

    impl PointStep<f64> for Record {
        fn step(&mut self, _: &mut [f64], pos: usize, pred: f64) {
            self.0.push((pos, pred));
        }
    }

    #[test]
    fn line_loop_matches_the_per_point_rule() {
        // Sizes give lines of 1, 2 and 3 points, open and closed.
        let dims_list = [
            Dims::d1(2),
            Dims::d1(3),
            Dims::d1(6),
            Dims::d1(7),
            Dims::d1(100),
            Dims::d2(5, 7),
            Dims::d2(13, 6),
            Dims::d3(9, 5, 6),
        ];
        for dims in dims_list {
            let vals: Vec<f64> = (0..dims.len()).map(|i| ((i * 37 % 101) as f64).sqrt()).collect();
            for cubic_kernel in [false, true] {
                let expect = predictions(dims, &vals, cubic_kernel);
                let mut got = Record(Vec::new());
                let mut scratch = vals.clone();
                interp_lines(dims, |line| predict_line(&mut scratch, line, cubic_kernel, &mut got));
                let got = got.0;
                assert_eq!(got.len(), expect.len(), "{dims:?}");
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(
                        (g.0, g.1.to_bits()),
                        (e.0, e.1.to_bits()),
                        "{dims:?} {cubic_kernel}"
                    );
                }
            }
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
        for (p, (pos, pred)) in plan(dims).iter().zip(predictions(dims, &recon, false)) {
            if p.right.is_some() {
                assert!((pred - recon[pos]).abs() < 1e-9, "pos {pos}: {pred} vs {}", recon[pos]);
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
        for (p, (pos, pred)) in plan(dims).iter().zip(predictions(dims, &recon, true)) {
            if p.far_left.is_some() && p.right.is_some() && p.far_right.is_some() {
                assert!((pred - recon[pos]).abs() < 1e-6, "pos {pos}: {pred} vs {}", recon[pos]);
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
