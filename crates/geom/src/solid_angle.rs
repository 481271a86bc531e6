//! Exact spherical areas of 3-D cones — an exact stability oracle for
//! `d = 3`.
//!
//! The paper estimates region volumes by Monte-Carlo because polyhedron
//! volume is #P-hard in general dimension. In `d = 3`, however, a ranking
//! region intersected with the first orthant and the unit sphere is a
//! *convex spherical polygon* with an exact area, computed here by one
//! polygon clip:
//!
//! 1. project gnomonically onto the plane tangent at `c = (1,1,1)/√3`:
//!    the orthant becomes a triangle, each half-space `n·u ≥ 0` a
//!    half-plane `s + g·p ≥ 0`, and great circles stay straight lines;
//! 2. clip the triangle by the region's half-planes (Sutherland–Hodgman,
//!    `O(m·h)` for `m` half-spaces and `h` vertices);
//! 3. sum a fan of Van Oosterom–Strackee triangle solid angles over the
//!    clipped polygon. For the lifts `u = c + p₀·e1 + p₁·e2`,
//!    `u·u' = 1 + p·p'` and `det[u₀, uᵢ, uⱼ] = cross(pᵢ − p₀, pⱼ − p₀)`, so
//!    a tiny region keeps its relative precision with no tolerance.
//!
//! This yields exact stabilities for three-attribute datasets — used both
//! as a feature and as ground truth for calibrating the sampling oracle.

use crate::hyperplane::HalfSpace;
use crate::region::ConeRegion;
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2};

type Point = [f64; 2];

/// The half-plane `s + g·p ≥ 0` that `n·u ≥ 0` becomes on the lifts
/// `u = c + p₀·e1 + p₁·e2`, in the orthonormal frame `c = (1,1,1)/√3`,
/// `e1 = (1,−1,0)/√2`, `e2 = (1,1,−2)/√6`.
fn tangent_halfplane(n: &[f64]) -> (f64, Point) {
    (
        (n[0] + n[1] + n[2]) / 3f64.sqrt(),
        [
            (n[0] - n[1]) * FRAC_1_SQRT_2,
            (n[0] + n[1] - 2.0 * n[2]) / 6f64.sqrt(),
        ],
    )
}

/// Sutherland–Hodgman: the part of the convex polygon `poly` where
/// `s + g·p ≥ 0`, in the same vertex order.
fn clip(poly: &[Point], (s, g): (f64, Point)) -> Vec<Point> {
    let f = |p: &Point| s + g[0] * p[0] + g[1] * p[1];
    let mut out = Vec::with_capacity(poly.len() + 1);
    for (a, b) in poly.iter().zip(poly.iter().cycle().skip(1)) {
        let (fa, fb) = (f(a), f(b));
        if fa >= 0.0 {
            out.push(*a);
        }
        if (fa < 0.0 && fb > 0.0) || (fa > 0.0 && fb < 0.0) {
            let t = fa / (fa - fb);
            out.push([a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]);
        }
    }
    out
}

/// Exact stability of a 3-D ranking region within the first orthant:
/// `area(region ∩ orthant ∩ S²) / area(orthant ∩ S²)`.
///
/// Returns `None` unless the region is 3-dimensional.
pub fn exact_stability_3d(region: &ConeRegion) -> Option<f64> {
    if region.dim() != 3 {
        return None;
    }
    // The orthant's three axes, projected, counter-clockwise.
    let (x, y) = (1.5f64.sqrt(), FRAC_1_SQRT_2);
    let mut poly = vec![[x, y], [-x, y], [0.0, -2f64.sqrt()]];
    for h in region.halfspaces() {
        poly = clip(&poly, tangent_halfplane(h.coeffs()));
    }
    let Some((p0, rest)) = poly.split_first() else {
        return Some(0.0);
    };
    // Van Oosterom–Strackee on the lifts: tan(Ω/2) = det[u₀, uᵢ, uⱼ] /
    // (|u₀||uᵢ||uⱼ| + (u₀·uᵢ)|uⱼ| + (u₀·uⱼ)|uᵢ| + (uᵢ·uⱼ)|u₀|).
    let dot1 = |p: &Point, q: &Point| 1.0 + p[0] * q[0] + p[1] * q[1];
    let len = |p: &Point| dot1(p, p).sqrt();
    let area: f64 = rest
        .windows(2)
        .map(|w| {
            let (pi, pj) = (&w[0], &w[1]);
            let det = (pi[0] - p0[0]) * (pj[1] - p0[1]) - (pi[1] - p0[1]) * (pj[0] - p0[0]);
            let (l0, li, lj) = (len(p0), len(pi), len(pj));
            let denom = l0 * li * lj + dot1(p0, pi) * lj + dot1(p0, pj) * li + dot1(pi, pj) * l0;
            2.0 * det.atan2(denom)
        })
        .sum();
    Some(area / FRAC_PI_2) // the orthant covers 4π / 8
}

/// Convenience: exact 3-D stability from raw half-spaces.
pub fn exact_stability_3d_of(halfspaces: &[HalfSpace]) -> Option<f64> {
    let region = ConeRegion::from_halfspaces(3, halfspaces.to_vec());
    exact_stability_3d(&region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn full_orthant_region_has_stability_one() {
        let region = ConeRegion::full(3);
        let s = exact_stability_3d(&region).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_orthant_is_one_half() {
        let region = ConeRegion::from_halfspaces(3, vec![HalfSpace::new(vec![1.0, -1.0, 0.0])]);
        let s = exact_stability_3d(&region).unwrap();
        assert!((s - 0.5).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn coordinate_ordering_is_one_sixth() {
        // {w1 > w2 > w3}: one of the 3! symmetric orderings.
        let region = ConeRegion::from_halfspaces(
            3,
            vec![
                HalfSpace::new(vec![1.0, -1.0, 0.0]),
                HalfSpace::new(vec![0.0, 1.0, -1.0]),
            ],
        );
        let s = exact_stability_3d(&region).unwrap();
        assert!((s - 1.0 / 6.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn all_six_orderings_partition_the_orthant() {
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut total = 0.0;
        for p in perms {
            let mut hs = Vec::new();
            for w in p.windows(2) {
                let mut coeffs = vec![0.0; 3];
                coeffs[w[0]] = 1.0;
                coeffs[w[1]] = -1.0;
                hs.push(HalfSpace::new(coeffs));
            }
            let s = exact_stability_3d_of(&hs).unwrap();
            assert!((s - 1.0 / 6.0).abs() < 1e-9);
            total += s;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_region_has_zero_area() {
        let s = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![-1.0, 1.0, 0.0]),
        ])
        .unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn region_outside_orthant_is_zero() {
        // Requires w1 < 0: impossible in the orthant.
        let s = exact_stability_3d_of(&[HalfSpace::new(vec![-1.0, 0.0, 0.0])]).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn narrow_wedge_has_small_positive_area() {
        // w1 > w2 > 0.99·w1: a thin wedge.
        let s = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![-0.99, 1.0, 0.0]),
        ])
        .unwrap();
        assert!(s > 0.0 && s < 0.01, "s = {s}");
    }

    #[test]
    fn nested_regions_are_monotone() {
        let outer = exact_stability_3d_of(&[HalfSpace::new(vec![1.0, -1.0, 0.0])]).unwrap();
        let inner = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![0.0, 1.0, -1.0]),
        ])
        .unwrap();
        assert!(inner < outer);
    }

    #[test]
    fn redundant_constraints_change_nothing() {
        let base = exact_stability_3d_of(&[HalfSpace::new(vec![1.0, -1.0, 0.0])]).unwrap();
        let redundant = exact_stability_3d_of(&[
            HalfSpace::new(vec![1.0, -1.0, 0.0]),
            HalfSpace::new(vec![2.0, -2.0, 0.0]),
            HalfSpace::new(vec![1.0, 0.0, 0.0]), // orthant repeat
        ])
        .unwrap();
        assert!((base - redundant).abs() < 1e-9);
    }

    #[test]
    fn non_3d_inputs_rejected() {
        assert!(exact_stability_3d(&ConeRegion::full(2)).is_none());
    }

    /// An equilateral triangle of inradius `r` around `w = (1,2,3)/‖·‖`:
    /// the normals `−d_k + r·w` for three unit tangents `d_k` at `w`, 120°
    /// apart, cut the plane tangent at `w` along `d_k·t = r`. Its area is
    /// `3√3·r²` up to a relative `O(r²)`, so the stability is that over
    /// `π/2`, and a kernel that loses precision on tiny regions misses it.
    #[test]
    fn tiny_triangle_keeps_its_relative_precision() {
        let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        let unit = |v: [f64; 3]| v.map(|x| x / norm(v));
        let w = unit([1.0, 2.0, 3.0]);
        // An orthonormal tangent basis (a, b) at w.
        let a = unit([w[1], -w[0], 0.0]);
        let b = [
            w[1] * a[2] - w[2] * a[1],
            w[2] * a[0] - w[0] * a[2],
            w[0] * a[1] - w[1] * a[0],
        ];
        for r in [1e-6, 1e-8] {
            let hs: Vec<HalfSpace> = (0..3)
                .map(|k| {
                    let phi = 2.0 * PI * k as f64 / 3.0;
                    let d: Vec<f64> = (0..3)
                        .map(|i| phi.cos() * a[i] + phi.sin() * b[i])
                        .collect();
                    HalfSpace::new((0..3).map(|i| -d[i] + r * w[i]).collect())
                })
                .collect();
            let s = exact_stability_3d_of(&hs).unwrap();
            let expected = 3.0 * 3f64.sqrt() * r * r / (PI / 2.0);
            assert!(
                ((s - expected) / expected).abs() < 1e-6,
                "r = {r}: {s} vs {expected}"
            );
        }
    }

    /// Exact areas agree with a fine Monte-Carlo estimate on random cones.
    #[test]
    fn matches_monte_carlo_on_random_cones() {
        let mut state = 0xABCDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        for trial in 0..10 {
            let hs: Vec<HalfSpace> = (0..3)
                .map(|_| HalfSpace::new(vec![next(), next(), next()]))
                .collect();
            let exact = exact_stability_3d_of(&hs).unwrap();
            // MC with a deterministic low-discrepancy-ish grid over the
            // orthant: sample directions from a fine lattice of angles with
            // area weighting sin(φ).
            let region = ConeRegion::from_halfspaces(3, hs);
            let steps = 400;
            let mut inside = 0.0;
            let mut total = 0.0;
            for a in 0..steps {
                let theta = (a as f64 + 0.5) / steps as f64 * (PI / 2.0);
                for b in 0..steps {
                    let phi = (b as f64 + 0.5) / steps as f64 * (PI / 2.0);
                    let w = [phi.sin() * theta.cos(), phi.sin() * theta.sin(), phi.cos()];
                    let weight = phi.sin();
                    total += weight;
                    if region.contains_with_tol(&w, 0.0) {
                        inside += weight;
                    }
                }
            }
            let mc = inside / total;
            assert!(
                (exact - mc).abs() < 0.01,
                "trial {trial}: exact {exact} vs quadrature {mc}"
            );
        }
    }
}
