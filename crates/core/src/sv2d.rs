//! Two-dimensional stability verification — `SV2D`, Algorithm 1 (§3.1).
//!
//! In 2-D a ranking region is a contiguous angle interval: each adjacent
//! pair of the ranking contributes at most one ordering-exchange angle
//! (Eq. 6) that either raises the lower bound or lowers the upper bound.
//! One O(n) pass over the ranked list therefore pins the region exactly.
//!
//! The pass works on tangents: a pair's exchange angle is `atan` of a
//! ratio of attribute differences, and `atan` is monotone, so the scan
//! keeps the largest lower and the smallest upper ratio and pays one
//! `atan` per bound at the end.

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use srank_geom::EPS;
use std::f64::consts::FRAC_PI_2;

/// A closed angle interval `[lo, hi] ⊆ [0, π/2]` of 2-D scoring functions;
/// the 2-D form of a region of interest `U*`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AngleInterval {
    lo: f64,
    hi: f64,
}

impl AngleInterval {
    /// The full function space `U` (the first quadrant).
    pub fn full() -> Self {
        Self {
            lo: 0.0,
            hi: FRAC_PI_2,
        }
    }

    /// An explicit interval.
    ///
    /// # Errors
    /// Rejects intervals outside `[0, π/2]` or with `lo ≥ hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(0.0..=FRAC_PI_2 + 1e-12).contains(&lo)
            || !(0.0..=FRAC_PI_2 + 1e-12).contains(&hi)
            || lo >= hi
        {
            return Err(StableRankError::EmptyRegionOfInterest);
        }
        Ok(Self {
            lo,
            hi: hi.min(FRAC_PI_2),
        })
    }

    /// The cone "within `theta` of `ray`", clipped to the first quadrant —
    /// e.g. the paper's "0.998 cosine similarity around ⟨0.3, 0.7⟩".
    pub fn around(ray: &[f64], theta: f64) -> Result<Self> {
        if ray.len() != 2 {
            return Err(StableRankError::NeedTwoDimensions { got: ray.len() });
        }
        let center = ray[1].atan2(ray[0]);
        Self::new((center - theta).max(0.0), (center + theta).min(FRAC_PI_2))
    }

    pub fn lo(&self) -> f64 {
        self.lo
    }

    pub fn hi(&self) -> f64 {
        self.hi
    }

    pub fn span(&self) -> f64 {
        self.hi - self.lo
    }

    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    pub fn contains(&self, theta: f64) -> bool {
        (self.lo..=self.hi).contains(&theta)
    }
}

/// The verified region of a 2-D ranking: an angle interval plus its
/// stability relative to the region of interest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verified2D {
    /// `vol(R*(r)) / vol(U*)` — the span ratio in 2-D.
    pub stability: f64,
    /// The ranking's region `[lo, hi]` (already intersected with `U*`).
    pub region: AngleInterval,
}

/// Algorithm 1 (`SV2D`), generalized to an arbitrary 2-D region of
/// interest: computes the region and stability of `ranking`, or `None` when
/// no function in `interval` generates it.
///
/// Runs in O(n): a single scan over adjacent pairs, one division per
/// pair and one `atan` per bound.
///
/// # Errors
/// Fails if the dataset is not two-dimensional or the ranking does not
/// match the dataset.
pub fn stability_verify_2d(
    data: &Dataset,
    ranking: &Ranking,
    interval: AngleInterval,
) -> Result<Option<Verified2D>> {
    if data.dim() != 2 {
        return Err(StableRankError::NeedTwoDimensions { got: data.dim() });
    }
    if ranking.len() != data.len() {
        return Err(StableRankError::InvalidRanking(format!(
            "ranking has {} items, dataset has {}",
            ranking.len(),
            data.len()
        )));
    }
    // Tangents of the bounding angles: each pair's exchange angle is
    // `atan(num / den)`, and `atan` is monotone, so the region's bounds
    // are the `atan`s of the largest lower and the smallest upper ratio.
    let (mut lower, mut upper) = (f64::NEG_INFINITY, f64::INFINITY);
    for pair in ranking.order().windows(2) {
        let (i, j) = (pair[0] as usize, pair[1] as usize);
        let (t, u) = (data.item(i), data.item(j));
        // The terms of Eq. 6: `u[0] − t[0]` and `t[1] − u[1]`.
        let (num, den) = (u[0] - t[0], t[1] - u[1]);
        let index_order_only = if num == 0.0 && den == 0.0 {
            // Identical items are permanently tied; ∇f breaks the tie by
            // item index, so only the index order is generatable.
            true
        } else if num <= 0.0 && den >= 0.0 {
            continue; // t dominates u
        } else if num >= 0.0 && den <= 0.0 {
            return Ok(None); // r ranks a dominated item above its dominator
        } else {
            // Attribute differences below the crate's geometric tolerance
            // are an effective tie, as for identical items.
            num.abs() <= EPS || den.abs() <= EPS
        };
        if index_order_only {
            if i < j {
                continue;
            }
            return Ok(None);
        }
        // `num` and `den` share a sign here, so the ratio is positive.
        let ratio = num / den;
        if num > 0.0 {
            // t outranks u only above the exchange.
            lower = lower.max(ratio);
        } else {
            // t outranks u only below the exchange.
            upper = upper.min(ratio);
        }
        if lower >= upper {
            return Ok(None);
        }
    }
    let lo = interval.lo().max(lower.atan());
    let hi = interval.hi().min(upper.atan());
    if lo >= hi {
        return Ok(None);
    }
    Ok(Some(Verified2D {
        stability: (hi - lo) / interval.span(),
        region: AngleInterval { lo, hi },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srank_geom::angle2d::weight_from_angle_2d;
    use std::f64::consts::{FRAC_PI_4, PI};

    fn rank_at(data: &Dataset, theta: f64) -> Ranking {
        data.rank(&weight_from_angle_2d(theta)).unwrap()
    }

    #[test]
    fn region_contains_the_generating_angle() {
        let data = Dataset::figure1();
        for theta in [0.1, 0.4, FRAC_PI_4, 0.9, 1.3] {
            let r = rank_at(&data, theta);
            let v = stability_verify_2d(&data, &r, AngleInterval::full())
                .unwrap()
                .expect("observed ranking must be feasible");
            assert!(
                v.region.contains(theta),
                "θ = {theta} outside region [{}, {}]",
                v.region.lo(),
                v.region.hi()
            );
            assert!(v.stability > 0.0 && v.stability <= 1.0);
        }
    }

    #[test]
    fn every_angle_in_region_reproduces_the_ranking() {
        let data = Dataset::figure1();
        let r = rank_at(&data, FRAC_PI_4);
        let v = stability_verify_2d(&data, &r, AngleInterval::full())
            .unwrap()
            .unwrap();
        for i in 1..20 {
            let theta = v.region.lo() + v.region.span() * i as f64 / 20.0;
            if theta >= v.region.hi() {
                break;
            }
            assert_eq!(
                rank_at(&data, theta),
                r,
                "ranking changed inside its own region"
            );
        }
    }

    #[test]
    fn infeasible_ranking_returns_none() {
        let data = Dataset::figure1();
        // Reverse of the f = x1 ranking: puts the x1-smallest first AND the
        // x2-smallest last; infeasible in the quadrant.
        let r = Ranking::new(vec![4, 2, 0, 1, 3]).unwrap();
        // Actually verify against a genuinely infeasible ranking: take the
        // diagonal ranking and swap the top and bottom items.
        let feasible = rank_at(&data, FRAC_PI_4);
        let mut order = feasible.order().to_vec();
        order.swap(0, 4);
        let infeasible = Ranking::new(order).unwrap();
        assert!(
            stability_verify_2d(&data, &infeasible, AngleInterval::full())
                .unwrap()
                .is_none()
        );
        // And the constructed one above must match a dense scan's verdict.
        let scan_feasible = (0..2000)
            .map(|i| rank_at(&data, FRAC_PI_2 * (i as f64 + 0.5) / 2000.0))
            .any(|s| s == r);
        let sv = stability_verify_2d(&data, &r, AngleInterval::full()).unwrap();
        assert_eq!(sv.is_some(), scan_feasible);
    }

    #[test]
    fn dominated_above_dominator_is_rejected() {
        let data = Dataset::from_rows(&[vec![0.9, 0.9], vec![0.1, 0.1]]).unwrap();
        let bad = Ranking::new(vec![1, 0]).unwrap();
        assert!(stability_verify_2d(&data, &bad, AngleInterval::full())
            .unwrap()
            .is_none());
        let good = Ranking::new(vec![0, 1]).unwrap();
        let v = stability_verify_2d(&data, &good, AngleInterval::full())
            .unwrap()
            .unwrap();
        assert_eq!(v.stability, 1.0, "the dominance ranking is the only one");
    }

    #[test]
    fn identical_items_obey_index_tie_break() {
        let data = Dataset::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let canonical = Ranking::new(vec![0, 1]).unwrap();
        let flipped = Ranking::new(vec![1, 0]).unwrap();
        assert!(
            stability_verify_2d(&data, &canonical, AngleInterval::full())
                .unwrap()
                .is_some()
        );
        assert!(stability_verify_2d(&data, &flipped, AngleInterval::full())
            .unwrap()
            .is_none());
    }

    #[test]
    fn stabilities_over_all_angles_sum_to_one() {
        let data = Dataset::figure1();
        // Collect distinct rankings by dense scan, verify each, and check
        // the partition property: stabilities sum to 1.
        let mut seen: Vec<Ranking> = Vec::new();
        for i in 0..5000 {
            let r = rank_at(&data, FRAC_PI_2 * (i as f64 + 0.5) / 5000.0);
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        // Figure 1c: exactly 11 regions.
        assert_eq!(seen.len(), 11, "Figure 1c promises 11 feasible rankings");
        let total: f64 = seen
            .iter()
            .map(|r| {
                stability_verify_2d(&data, r, AngleInterval::full())
                    .unwrap()
                    .expect("observed rankings are feasible")
                    .stability
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn narrower_interval_rescales_stability() {
        let data = Dataset::figure1();
        let r = rank_at(&data, FRAC_PI_4);
        let full = stability_verify_2d(&data, &r, AngleInterval::full())
            .unwrap()
            .unwrap();
        // A region of interest that strictly contains the ranking region.
        let roi = AngleInterval::new(
            (full.region.lo() - 0.05).max(0.0),
            (full.region.hi() + 0.05).min(FRAC_PI_2),
        )
        .unwrap();
        let scoped = stability_verify_2d(&data, &r, roi).unwrap().unwrap();
        assert!(scoped.stability > full.stability);
        let expected = full.region.span() / roi.span();
        assert!((scoped.stability - expected).abs() < 1e-9);
    }

    #[test]
    fn ranking_outside_interval_is_infeasible_there() {
        let data = Dataset::figure1();
        let r_low = rank_at(&data, 0.05);
        let v = stability_verify_2d(&data, &r_low, AngleInterval::full())
            .unwrap()
            .unwrap();
        // Ask about it in an interval strictly above its region.
        let above = AngleInterval::new((v.region.hi() + 0.01).min(1.5), 1.55).unwrap();
        assert!(stability_verify_2d(&data, &r_low, above).unwrap().is_none());
    }

    #[test]
    fn around_builds_clipped_cone() {
        let i = AngleInterval::around(&[1.0, 1.0], PI / 10.0).unwrap();
        assert!((i.lo() - (FRAC_PI_4 - PI / 10.0)).abs() < 1e-12);
        assert!((i.hi() - (FRAC_PI_4 + PI / 10.0)).abs() < 1e-12);
        // Near the axis the cone clips at 0.
        let edge = AngleInterval::around(&[1.0, 0.01], PI / 10.0).unwrap();
        assert_eq!(edge.lo(), 0.0);
    }

    #[test]
    fn dimension_and_arity_errors() {
        let data3 = Dataset::from_rows(&[vec![0.1, 0.2, 0.3], vec![0.3, 0.2, 0.1]]).unwrap();
        let r = Ranking::new(vec![0, 1]).unwrap();
        assert!(matches!(
            stability_verify_2d(&data3, &r, AngleInterval::full()),
            Err(StableRankError::NeedTwoDimensions { got: 3 })
        ));
        let data2 = Dataset::figure1();
        let short = Ranking::new(vec![0, 1]).unwrap();
        assert!(stability_verify_2d(&data2, &short, AngleInterval::full()).is_err());
    }
}
