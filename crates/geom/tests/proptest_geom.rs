//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use srank_geom::{
    angle2d::{exchange_angle_2d, weight_from_angle_2d},
    dominance::{dominates, skyline_bnl, skyline_sort_filter},
    dual::rank_by_dual_intersections,
    hyperplane::{OrderingExchange, Side},
    lp::{cone_feasible, cone_interior_point},
    matrix::Matrix,
    polar::{to_angles, to_cartesian},
    region::ConeRegion,
    rotation::rotation_axis_to_ray,
    vector::{dot, linf_distance, norm},
};

/// Strategy: an attribute value in (0, 1), bounded away from 0 so that
/// geometric predicates are well-conditioned.
fn attr() -> impl Strategy<Value = f64> {
    0.01..0.99f64
}

fn item(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(attr(), d)
}

fn items(d: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(item(d), n)
}

/// Angles strictly inside (0, π/2) for well-conditioned polar round-trips.
fn interior_angles(k: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05..1.52f64, k)
}

proptest! {
    #[test]
    fn polar_roundtrip(angles in interior_angles(4)) {
        let p = to_cartesian(1.0, &angles);
        prop_assert!((norm(&p) - 1.0).abs() < 1e-10);
        let (r, back) = to_angles(&p).unwrap();
        prop_assert!((r - 1.0).abs() < 1e-10);
        prop_assert!(linf_distance(&back, &angles) < 1e-8);
    }

    #[test]
    fn cartesian_roundtrip_orthant(p in item(5)) {
        let (r, angles) = to_angles(&p).unwrap();
        let back = to_cartesian(r, &angles);
        prop_assert!(linf_distance(&back, &p) < 1e-9);
    }

    #[test]
    fn rotation_maps_axis_and_preserves_geometry(
        angles in interior_angles(3),
        v in prop::collection::vec(-2.0..2.0f64, 4),
        u in prop::collection::vec(-2.0..2.0f64, 4),
    ) {
        let rot = rotation_axis_to_ray(&angles);
        prop_assert!(rot.is_orthogonal(1e-9));
        // e_d maps to the ray.
        let e = {
            let mut e = vec![0.0; 4];
            e[3] = 1.0;
            e
        };
        let target = to_cartesian(1.0, &angles);
        prop_assert!(linf_distance(&rot.mul_vec(&e), &target) < 1e-9);
        // Norms and inner products are preserved.
        let rv = rot.mul_vec(&v);
        let ru = rot.mul_vec(&u);
        prop_assert!((norm(&rv) - norm(&v)).abs() < 1e-9);
        prop_assert!((dot(&rv, &ru) - dot(&v, &u)).abs() < 1e-8);
    }

    #[test]
    fn dominance_implies_order_under_every_weight(
        t in item(3),
        delta in prop::collection::vec(0.0..0.3f64, 3),
        w in prop::collection::vec(0.01..1.0f64, 3),
    ) {
        // u = t + delta dominates t whenever some delta component > 0.
        let u: Vec<f64> = t.iter().zip(&delta).map(|(a, b)| a + b).collect();
        prop_assume!(delta.iter().any(|&x| x > 1e-6));
        prop_assert!(dominates(&u, &t));
        prop_assert!(dot(&u, &w) > dot(&t, &w));
    }

    #[test]
    fn exchange_angle_flips_order(a in item(2), b in item(2)) {
        match exchange_angle_2d(&a, &b) {
            Some(theta) => {
                // Scores tie at θ and strictly flip on either side.
                let w = weight_from_angle_2d(theta);
                prop_assert!((dot(&a, &w) - dot(&b, &w)).abs() < 1e-9);
                let lo = weight_from_angle_2d((theta - 1e-3).max(0.0));
                let hi = weight_from_angle_2d((theta + 1e-3).min(std::f64::consts::FRAC_PI_2));
                let dl = dot(&a, &lo) - dot(&b, &lo);
                let dh = dot(&a, &hi) - dot(&b, &hi);
                prop_assert!(dl * dh <= 0.0);
            }
            None => {
                // No interior exchange ⇒ dominance, identity, or a tie on
                // an attribute (which in 2D implies weak dominance).
                let tied = (a[0] - b[0]).abs() <= 1e-9 || (a[1] - b[1]).abs() <= 1e-9;
                prop_assert!(dominates(&a, &b) || dominates(&b, &a) || tied);
            }
        }
    }

    #[test]
    fn skylines_agree(data in items(3, 1..60)) {
        prop_assert_eq!(skyline_bnl(&data), skyline_sort_filter(&data));
    }

    #[test]
    fn skyline_members_are_not_dominated(data in items(4, 1..40)) {
        let sky = skyline_bnl(&data);
        for &i in &sky {
            for (j, u) in data.iter().enumerate() {
                if j != i {
                    prop_assert!(!dominates(u, &data[i]));
                }
            }
        }
        // And every non-member is dominated by someone.
        for (i, t) in data.iter().enumerate() {
            if !sky.contains(&i) {
                prop_assert!(data.iter().any(|u| dominates(u, t)));
            }
        }
    }

    #[test]
    fn dual_ranking_matches_score_ranking(data in items(3, 2..30), w in prop::collection::vec(0.05..1.0f64, 3)) {
        let by_dual = rank_by_dual_intersections(&data, &w);
        let mut by_score: Vec<usize> = (0..data.len()).collect();
        by_score.sort_by(|&a, &b| {
            dot(&data[b], &w)
                .partial_cmp(&dot(&data[a], &w))
                .unwrap()
                .then(a.cmp(&b))
        });
        prop_assert_eq!(by_dual, by_score);
    }

    #[test]
    fn halfspace_side_consistency(a in item(3), b in item(3), w in prop::collection::vec(0.01..1.0f64, 3)) {
        let x = OrderingExchange::from_pair(&a, &b);
        match x.side(&w) {
            Side::Positive => prop_assert!(dot(&a, &w) > dot(&b, &w)),
            Side::Negative => prop_assert!(dot(&a, &w) < dot(&b, &w)),
            Side::On => prop_assert!((dot(&a, &w) - dot(&b, &w)).abs() < 1e-6),
        }
        // Half-space membership mirrors the side predicate.
        let pos = x.half_space(Side::Positive);
        prop_assert_eq!(pos.contains(&w), x.side(&w) == Side::Positive);
    }

    #[test]
    fn lp_witness_lies_in_cone(data in items(3, 2..8), w in prop::collection::vec(0.05..1.0f64, 3)) {
        // Build the ranking region of ∇f(D) for a random f: it must be
        // LP-feasible (it contains f) and the witness must reproduce the
        // ranking region membership.
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by(|&a, &b| {
            dot(&data[b], &w)
                .partial_cmp(&dot(&data[a], &w))
                .unwrap()
                .then(a.cmp(&b))
        });
        let mut cone = ConeRegion::full(3);
        for pair in order.windows(2) {
            let (above, below) = (&data[pair[0]], &data[pair[1]]);
            let row: Vec<f64> = above.iter().zip(below).map(|(a, b)| a - b).collect();
            cone.push(&row);
        }
        // f itself sits in the closed cone; the open cone may be empty only
        // if two items tie exactly under f, which the strategy makes
        // measure-zero. Require feasibility and validate the witness.
        if let Some(center) = cone_interior_point(&cone) {
            prop_assert!(cone.contains_with_tol(&center, 1e-12));
        } else {
            // Tie under f — verify that claim rather than failing blindly.
            let tie = order.windows(2).any(|p| {
                (dot(&data[p[0]], &w) - dot(&data[p[1]], &w)).abs() < 1e-9
            });
            prop_assert!(tie, "infeasible open cone without a score tie");
        }
    }

    #[test]
    fn lp_feasibility_matches_sampled_witness(
        hs in prop::collection::vec(prop::collection::vec(-1.0..1.0f64, 3), 1..6),
    ) {
        // If dense grid search over the simplex finds an interior point,
        // the LP must agree (the converse may fail for thin cones, which
        // grid search cannot refute).
        let cone = ConeRegion::from_table(3, hs.concat());
        let mut witness = false;
        let steps = 24;
        'grid: for i in 0..=steps {
            for j in 0..=(steps - i) {
                let k = steps - i - j;
                let w = [
                    i as f64 / steps as f64,
                    j as f64 / steps as f64,
                    k as f64 / steps as f64,
                ];
                if cone.contains_with_tol(&w, 1e-6) {
                    witness = true;
                    break 'grid;
                }
            }
        }
        if witness {
            prop_assert!(cone_feasible(&cone).is_interior());
        }
    }

    #[test]
    fn matrix_product_associativity(seed in 0u64..1000) {
        // Small deterministic matrices from the seed.
        let gen = |s: u64, k: u64| ((s.wrapping_mul(k + 1) % 17) as f64 - 8.0) / 4.0;
        let a = Matrix::from_rows(3, 3, (0..9).map(|i| gen(seed, i)).collect());
        let b = Matrix::from_rows(3, 3, (0..9).map(|i| gen(seed ^ 0xABCD, i)).collect());
        let c = Matrix::from_rows(3, 3, (0..9).map(|i| gen(seed ^ 0x1234, i)).collect());
        let left = a.mul_mat(&b).mul_mat(&c);
        let right = a.mul_mat(&b.mul_mat(&c));
        prop_assert!(left.linf_distance(&right) < 1e-9);
    }
}
