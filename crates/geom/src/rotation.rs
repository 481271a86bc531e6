//! Coordinate-system rotations (Appendix A of the paper).
//!
//! The spherical-cap sampler of §5.2 draws functions in a cap around the
//! `d`-th axis and must then rotate the cap axis onto the reference ray `ρ`.
//! Appendix A does this with a cascade of plane ("Givens") rotations
//! `M_i`, each acting on the `(x_1, x_{i+1})` plane (Eq. 17).
//!
//! The paper's pseudocode (Algorithm 13) is loose about rotation senses; we
//! derive the exact cascade for the polar convention of [`crate::polar`]
//! (last angle measured from the last axis) and verify it in tests:
//!
//! * for `d ≥ 3`:
//!   `R = M_1(ρ_1) · M_2(π/2 − ρ_2) ··· M_{d−2}(π/2 − ρ_{d−2}) · M_{d−1}(−ρ_{d−1})`
//! * for `d = 2`: `R = M_1(ρ_1 − π/2)`
//!
//! where `M_i(β)` rotates counterclockwise in the `(x_1, x_{i+1})` plane.
//! Note the paper's `ρ_{d−1} → π/2 − ρ_{d−1}` substitution appears here as
//! the sign flip of the last step; this is the variant that actually maps
//! `e_d ↦ to_cartesian(1, ρ)` under the stated convention.
//!
//! Since the cap distribution is rotationally symmetric about its axis,
//! *any* orthogonal map sending `e_d` to the reference ray transports
//! uniform-on-cap to uniform-on-cap.

use crate::matrix::Matrix;
use crate::polar::to_angles;
use crate::vector::normalized;
use std::f64::consts::FRAC_PI_2;

/// The plane-rotation matrix `M_i(β)` of Eq. 17: identity except on the
/// `(x_1, x_{i+1})` plane, where it rotates counterclockwise by `β`:
///
/// ```text
/// x_1'     =  cos β · x_1  −  sin β · x_{i+1}
/// x_{i+1}' =  sin β · x_1  +  cos β · x_{i+1}
/// ```
///
/// # Panics
/// Panics unless `1 ≤ i ≤ d − 1`.
pub fn plane_rotation(d: usize, i: usize, beta: f64) -> Matrix {
    assert!(
        i >= 1 && i < d,
        "plane_rotation: need 1 ≤ i ≤ d−1, got i={i}, d={d}"
    );
    let mut m = Matrix::identity(d);
    let (c, s) = (beta.cos(), beta.sin());
    m[(0, 0)] = c;
    m[(0, i)] = -s;
    m[(i, 0)] = s;
    m[(i, i)] = c;
    m
}

/// Builds the rotation matrix that maps the `d`-th axis `e_d` onto the unit
/// ray with polar angles `ρ = angles` (see [`crate::polar::to_cartesian`]).
///
/// `d = angles.len() + 1` must be at least 2.
pub fn rotation_axis_to_ray(angles: &[f64]) -> Matrix {
    let d = angles.len() + 1;
    assert!(d >= 2, "rotation_axis_to_ray: need d ≥ 2");
    if d == 2 {
        return plane_rotation(2, 1, angles[0] - FRAC_PI_2);
    }
    // Apply M_{d−1}(−ρ_{d−1}) first, then M_{d−2}(π/2−ρ_{d−2}) … M_2, then
    // M_1(ρ_1); composing left-to-right the full matrix is the product
    // M_1 · M_2 ··· M_{d−1}.
    let mut r = plane_rotation(d, d - 1, -angles[d - 2]);
    for i in (2..d - 1).rev() {
        r = plane_rotation(d, i, FRAC_PI_2 - angles[i - 1]).mul_mat(&r);
    }
    plane_rotation(d, 1, angles[0]).mul_mat(&r)
}

/// Builds a rotation mapping `e_d` onto the direction of an arbitrary
/// non-zero vector `target` (which need not be unit length).
///
/// Returns `None` for the zero vector.
pub fn rotation_to_vector(target: &[f64]) -> Option<Matrix> {
    let unit = normalized(target)?;
    let (_, angles) = to_angles(&unit)?;
    Some(rotation_axis_to_ray(&angles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polar::to_cartesian;
    use crate::vector::{linf_distance, norm};
    use std::f64::consts::{FRAC_PI_4, FRAC_PI_6};

    fn e_last(d: usize) -> Vec<f64> {
        let mut e = vec![0.0; d];
        e[d - 1] = 1.0;
        e
    }

    #[test]
    fn plane_rotation_is_orthogonal() {
        assert!(plane_rotation(4, 2, 0.83).is_orthogonal(1e-12));
    }

    #[test]
    fn plane_rotation_2d_counterclockwise() {
        let m = plane_rotation(2, 1, FRAC_PI_2);
        // e_1 rotates to e_2.
        let r = m.mul_vec(&[1.0, 0.0]);
        assert!(linf_distance(&r, &[0.0, 1.0]) < 1e-15);
    }

    #[test]
    fn maps_axis_to_ray_2d() {
        let angles = [FRAC_PI_6];
        let r = rotation_axis_to_ray(&angles);
        let got = r.mul_vec(&e_last(2));
        let want = to_cartesian(1.0, &angles);
        assert!(linf_distance(&got, &want) < 1e-12, "{got:?} vs {want:?}");
    }

    #[test]
    fn maps_axis_to_ray_3d_paper_example() {
        // The §5.2 running example rotates around the ray (π/6, π/4).
        let angles = [FRAC_PI_6, FRAC_PI_4];
        let r = rotation_axis_to_ray(&angles);
        assert!(r.is_orthogonal(1e-12));
        let got = r.mul_vec(&e_last(3));
        let want = to_cartesian(1.0, &angles);
        assert!(linf_distance(&got, &want) < 1e-12, "{got:?} vs {want:?}");
    }

    #[test]
    fn maps_axis_to_ray_many_dims() {
        for (d, angles) in [
            (2, vec![0.1]),
            (3, vec![1.2, 0.4]),
            (4, vec![0.7, 0.3, 1.0]),
            (5, vec![0.2, 1.1, 0.8, 0.5]),
            (7, vec![0.3, 0.6, 0.9, 1.2, 0.1, 0.7]),
        ] {
            let r = rotation_axis_to_ray(&angles);
            assert!(r.is_orthogonal(1e-10), "d={d}: not orthogonal");
            let got = r.mul_vec(&e_last(d));
            let want = to_cartesian(1.0, &angles);
            assert!(
                linf_distance(&got, &want) < 1e-10,
                "d={d}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let r = rotation_axis_to_ray(&[0.9, 0.2, 1.3]);
        let v = [0.3, -1.2, 0.5, 2.0];
        assert!((norm(&r.mul_vec(&v)) - norm(&v)).abs() < 1e-12);
    }

    #[test]
    fn rotation_to_vector_diagonal() {
        let target = [1.0, 1.0, 1.0];
        let r = rotation_to_vector(&target).unwrap();
        let got = r.mul_vec(&e_last(3));
        let unit = 1.0 / 3.0_f64.sqrt();
        assert!(linf_distance(&got, &[unit, unit, unit]) < 1e-12);
    }

    #[test]
    fn rotation_to_zero_vector_is_none() {
        assert!(rotation_to_vector(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn rotation_angles_at_orthant_boundary() {
        // Reference ray = x1 axis: angles (0, π/2).
        let angles = [0.0, FRAC_PI_2];
        let r = rotation_axis_to_ray(&angles);
        let got = r.mul_vec(&e_last(3));
        assert!(linf_distance(&got, &[1.0, 0.0, 0.0]) < 1e-12);
    }
}
