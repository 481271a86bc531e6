//! Cross-validation of the two exact d = 3 oracles: LP feasibility and
//! the clipped spherical-polygon areas must agree on which cones are
//! non-degenerate, and the areas must be monotone and complementary.

use proptest::prelude::*;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::lp::cone_feasible;
use srank_geom::region::ConeRegion;
use srank_geom::solid_angle::exact_stability_3d;

fn coeff() -> impl Strategy<Value = f64> {
    -1.0..1.0f64
}

fn halfspaces(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(coeff(), 3), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LP says "interior point exists in the simplex" exactly when the
    /// spherical area of the cone ∩ orthant is positive (up to the resolution
    /// where a cone is so thin that its area underflows the LP tolerance).
    #[test]
    fn lp_feasibility_matches_positive_area(hs in halfspaces(1..5)) {
        let cone = ConeRegion::from_halfspaces(
            3,
            hs.iter().cloned().map(HalfSpace::new).collect(),
        );
        let area = exact_stability_3d(&cone).unwrap();
        let lp_interior = cone_feasible(&cone).is_interior();
        if area > 1e-6 {
            prop_assert!(lp_interior, "area {} but LP says empty", area);
        }
        if !lp_interior {
            prop_assert!(area < 1e-6, "LP empty but area {}", area);
        }
    }

    /// Area is monotone under adding constraints and bounded by [0, 1].
    #[test]
    fn area_is_monotone_under_constraints(hs in halfspaces(1..5), extra in prop::collection::vec(coeff(), 3)) {
        let cone = ConeRegion::from_halfspaces(
            3,
            hs.iter().cloned().map(HalfSpace::new).collect(),
        );
        let base = exact_stability_3d(&cone).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&base));
        let narrowed = cone.with(HalfSpace::new(extra));
        let smaller = exact_stability_3d(&narrowed).unwrap();
        prop_assert!(smaller <= base + 1e-9, "{smaller} > {base}");
    }

    /// Complementary half-spaces partition the orthant's area.
    #[test]
    fn complement_areas_sum_to_one(coeffs in prop::collection::vec(coeff(), 3)) {
        prop_assume!(coeffs.iter().any(|c| c.abs() > 1e-3));
        let h = HalfSpace::new(coeffs);
        let pos = exact_stability_3d(&ConeRegion::from_halfspaces(3, vec![h.clone()])).unwrap();
        let neg = exact_stability_3d(&ConeRegion::from_halfspaces(3, vec![h.complement()])).unwrap();
        prop_assert!((pos + neg - 1.0).abs() < 1e-6, "{pos} + {neg} ≠ 1");
    }
}
