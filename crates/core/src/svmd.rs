//! Multi-dimensional stability verification — `SV`, Algorithm 4 (§4.1).
//!
//! The region of a ranking `r` is the open cone intersecting one strict
//! half-space per adjacent pair (Eq. 7): every function in the cone
//! generates `r` and no function outside does. Volumes of such cones are
//! #P-hard to compute exactly, so stability is estimated by the
//! Monte-Carlo oracle of §5.3 over samples drawn from `U*`.
//!
//! Dominated pairs are where the region depends on `U*`. Inside the first
//! orthant a dominating item always scores at least as high as the item
//! it dominates, so the pair needs no half-space, and a ranking that puts
//! a dominated item first is infeasible. An unclipped cone can lean out
//! of the orthant, where such pairs do swap: there every adjacent pair
//! becomes a half-space. [`ranking_region_md`] builds the orthant region;
//! [`ranking_region_in`] picks by the region of interest.

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use crate::xhps::inside_orthant;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::region::ConeRegion;
use srank_sample::oracle::estimate_stability;
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;

/// The verified region of a ranking in `d ≥ 2` dimensions.
#[derive(Clone, Debug)]
pub struct VerifiedMd {
    /// Monte-Carlo estimate of `vol(R*(r)) / vol(U*)`.
    pub stability: f64,
    /// The ranking region as an intersection of strict half-spaces (not
    /// including the `U*` constraints themselves).
    pub region: ConeRegion,
}

/// Builds the ranking region of `r` for weights in the first orthant: one
/// positive half-space per adjacent non-dominating pair. Returns `None`
/// when `r` is infeasible there (it ranks a dominated item above its
/// dominator, or breaks the identical-item tie-break).
///
/// # Errors
/// Fails when the ranking does not match the dataset.
pub fn ranking_region_md(data: &Dataset, ranking: &Ranking) -> Result<Option<ConeRegion>> {
    region_of(data, ranking, true)
}

/// The ranking region of `r` for weights drawn from `roi`: the orthant
/// region of [`ranking_region_md`] when `roi` lies inside the orthant,
/// otherwise one half-space for every adjacent pair of distinct items,
/// dominated or not. Only the identical-item tie-break can make `r`
/// infeasible there.
///
/// # Errors
/// Fails when the ranking does not match the dataset.
pub fn ranking_region_in(
    data: &Dataset,
    ranking: &Ranking,
    roi: &RegionOfInterest,
) -> Result<Option<ConeRegion>> {
    region_of(data, ranking, inside_orthant(roi))
}

fn region_of(data: &Dataset, ranking: &Ranking, orthant: bool) -> Result<Option<ConeRegion>> {
    if ranking.len() != data.len() {
        return Err(StableRankError::InvalidRanking(format!(
            "ranking has {} items, dataset has {}",
            ranking.len(),
            data.len()
        )));
    }
    let mut halfspaces = Vec::with_capacity(data.len() - 1);
    for pair in ranking.order().windows(2) {
        let (i, j) = (pair[0] as usize, pair[1] as usize);
        let t = data.item(i);
        let u = data.item(j);
        if t == u {
            if i < j {
                continue; // permanent tie in canonical index order
            }
            return Ok(None);
        }
        if orthant {
            if data.dominates(i, j) {
                continue;
            }
            if data.dominates(j, i) {
                return Ok(None);
            }
        }
        halfspaces.push(HalfSpace::ranking_pair(t, u));
    }
    Ok(Some(ConeRegion::from_halfspaces(data.dim(), halfspaces)))
}

/// Algorithm 4: the region and stability of `ranking`, estimated against
/// `samples` drawn uniformly from `roi`.
///
/// Cost: O(n) region construction plus the oracle's O(n·|S|).
pub fn stability_verify_md(
    data: &Dataset,
    ranking: &Ranking,
    roi: &RegionOfInterest,
    samples: &SampleBuffer,
) -> Result<Option<VerifiedMd>> {
    if samples.dim() != data.dim() {
        return Err(StableRankError::DimensionMismatch {
            expected: data.dim(),
            got: samples.dim(),
        });
    }
    let Some(region) = ranking_region_in(data, ranking, roi)? else {
        return Ok(None);
    };
    let stability = estimate_stability(&region, samples);
    Ok(Some(VerifiedMd { stability, region }))
}

/// Exact stability verification for three-attribute datasets, with `U* = U`
/// (the full orthant): the ranking region's spherical-polygon area
/// ([`srank_geom::solid_angle::exact_stability_3d`], one clip of the
/// orthant's gnomonic triangle, `O(n)` after the region is built) instead
/// of Monte-Carlo estimation.
///
/// The paper leaves `d ≥ 3` to sampling because general polyhedron volume
/// is #P-hard; `d = 3` is the one multi-dimensional case with a clean
/// closed form, and it doubles as the calibration ground truth for the
/// sampling oracle.
pub fn stability_verify_3d_exact(data: &Dataset, ranking: &Ranking) -> Result<Option<VerifiedMd>> {
    if data.dim() != 3 {
        return Err(StableRankError::DimensionMismatch {
            expected: 3,
            got: data.dim(),
        });
    }
    let Some(region) = ranking_region_md(data, ranking)? else {
        return Ok(None);
    };
    let stability = srank_geom::solid_angle::exact_stability_3d(&region)
        .expect("region dimension checked above");
    Ok(Some(VerifiedMd { stability, region }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sv2d::{stability_verify_2d, AngleInterval};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use srank_sample::sphere::sample_orthant_direction;

    fn orthant_samples(seed: u64, n: usize, d: usize) -> SampleBuffer {
        let mut rng = StdRng::seed_from_u64(seed);
        SampleBuffer::generate(&mut rng, n, |r| sample_orthant_direction(r, d))
    }

    fn lcg_rows(n: usize, d: usize, mut state: u64) -> Vec<Vec<f64>> {
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn region_contains_its_generator() {
        let data = Dataset::from_rows(&lcg_rows(20, 3, 42)).unwrap();
        let w = [0.5, 0.3, 0.2];
        let r = data.rank(&w).unwrap();
        let region = ranking_region_md(&data, &r).unwrap().unwrap();
        assert!(region.contains_with_tol(&w, 1e-12));
    }

    #[test]
    fn functions_in_region_generate_the_ranking() {
        let data = Dataset::from_rows(&lcg_rows(15, 3, 7)).unwrap();
        let w = [0.2, 0.5, 0.3];
        let r = data.rank(&w).unwrap();
        let region = ranking_region_md(&data, &r).unwrap().unwrap();
        let samples = orthant_samples(1, 2000, 3);
        let mut inside = 0;
        for s in samples.iter_rows() {
            if region.contains(s) {
                inside += 1;
                assert_eq!(
                    data.rank(s).unwrap(),
                    r,
                    "region member gave another ranking"
                );
            } else {
                assert_ne!(data.rank(s).unwrap(), r, "outsider gave the same ranking");
            }
        }
        assert!(
            inside > 0,
            "sampled no witnesses; region too thin for the test"
        );
    }

    #[test]
    fn md_stability_matches_exact_2d() {
        // On a 2-D dataset the Monte-Carlo estimate must agree with SV2D.
        let data = Dataset::figure1();
        let w = [1.0, 1.0];
        let r = data.rank(&w).unwrap();
        let exact = stability_verify_2d(&data, &r, AngleInterval::full())
            .unwrap()
            .unwrap()
            .stability;
        let samples = orthant_samples(2, 100_000, 2);
        let est = stability_verify_md(&data, &r, &RegionOfInterest::full(data.dim()), &samples)
            .unwrap()
            .unwrap()
            .stability;
        assert!((est - exact).abs() < 0.01, "MC {est} vs exact {exact}");
    }

    #[test]
    fn infeasible_rankings_detected() {
        let data = Dataset::from_rows(&[
            vec![0.9, 0.9, 0.9],
            vec![0.1, 0.1, 0.1],
            vec![0.5, 0.4, 0.6],
        ])
        .unwrap();
        let bad = Ranking::new(vec![1, 0, 2]).unwrap(); // dominated first
        let samples = orthant_samples(3, 100, 3);
        assert!(
            stability_verify_md(&data, &bad, &RegionOfInterest::full(data.dim()), &samples)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn identical_items_tie_break_in_md() {
        let data = Dataset::from_rows(&[vec![0.4, 0.4, 0.4], vec![0.4, 0.4, 0.4]]).unwrap();
        let canonical = Ranking::new(vec![0, 1]).unwrap();
        let flipped = Ranking::new(vec![1, 0]).unwrap();
        assert!(ranking_region_md(&data, &canonical).unwrap().is_some());
        assert!(ranking_region_md(&data, &flipped).unwrap().is_none());
    }

    #[test]
    fn dominance_pairs_add_no_constraints() {
        let data = Dataset::from_rows(&[
            vec![0.9, 0.9, 0.9],
            vec![0.5, 0.5, 0.5],
            vec![0.1, 0.1, 0.1],
        ])
        .unwrap();
        let r = Ranking::new(vec![0, 1, 2]).unwrap();
        let region = ranking_region_md(&data, &r).unwrap().unwrap();
        assert_eq!(region.len(), 0, "full dominance chain needs no half-spaces");
        let samples = orthant_samples(4, 1000, 3);
        let v = stability_verify_md(&data, &r, &RegionOfInterest::full(data.dim()), &samples)
            .unwrap()
            .unwrap();
        assert_eq!(v.stability, 1.0);
    }

    /// Item 0 dominates item 1 (better on w1 only). The unclipped cone
    /// around (0.1, 1, 1) with θ = 0.3 leans across w1 = 0, where item 1
    /// outranks item 0: both orders have mass, and each stability must
    /// be exactly the share of samples that rank the items that way.
    #[test]
    fn unclipped_cone_verifies_dominated_pairs_by_their_samples() {
        let data = Dataset::from_rows(&[vec![1.0, 0.5, 0.5], vec![0.9, 0.5, 0.5]]).unwrap();
        let cone = RegionOfInterest::cone(&[0.1, 1.0, 1.0], 0.3);
        let mut rng = StdRng::seed_from_u64(12);
        let samples = cone.sampler().sample_buffer(&mut rng, 100_000);
        let mut total = 0.0;
        for order in [vec![0, 1], vec![1, 0]] {
            let r = Ranking::new(order).unwrap();
            let share = samples
                .iter_rows()
                .filter(|w| data.rank(w).unwrap() == r)
                .count() as f64
                / samples.len() as f64;
            let v = stability_verify_md(&data, &r, &cone, &samples)
                .unwrap()
                .unwrap();
            assert_eq!(v.stability, share, "{:?}", r.order());
            assert!(share > 0.3 && share < 0.7, "{:?}: {share}", r.order());
            total += v.stability;
        }
        assert_eq!(total, 1.0);
        // Inside the orthant the dominated pair needs no half-space, and
        // ranking the dominated item first is infeasible.
        let clipped = cone.clipped_to_orthant();
        let flipped = Ranking::new(vec![1, 0]).unwrap();
        assert!(ranking_region_in(&data, &flipped, &clipped)
            .unwrap()
            .is_none());
        assert!(ranking_region_md(&data, &flipped).unwrap().is_none());
    }

    #[test]
    fn sample_dimension_checked() {
        let data = Dataset::figure1();
        let r = data.rank(&[1.0, 1.0]).unwrap();
        let samples = orthant_samples(5, 10, 3);
        assert!(matches!(
            stability_verify_md(&data, &r, &RegionOfInterest::full(data.dim()), &samples),
            Err(StableRankError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn exact_3d_stability_matches_monte_carlo() {
        // The strongest oracle calibration available: exact spherical
        // areas vs the sampling oracle, on real ranking regions.
        let data = Dataset::from_rows(&lcg_rows(12, 3, 77)).unwrap();
        let samples = orthant_samples(10, 200_000, 3);
        let mut checked = 0;
        for probe in [
            vec![0.5, 0.3, 0.2],
            vec![0.1, 0.6, 0.3],
            vec![0.33, 0.33, 0.34],
            vec![0.7, 0.2, 0.1],
        ] {
            let r = data.rank(&probe).unwrap();
            let exact = stability_verify_3d_exact(&data, &r)
                .unwrap()
                .unwrap()
                .stability;
            let mc = stability_verify_md(&data, &r, &RegionOfInterest::full(data.dim()), &samples)
                .unwrap()
                .unwrap()
                .stability;
            // 200k samples ⇒ σ ≈ √(p/200k) ≤ 0.0016 at p ≈ 0.5.
            assert!(
                (exact - mc).abs() < 0.005,
                "probe {probe:?}: exact {exact} vs MC {mc}"
            );
            checked += 1;
        }
        assert_eq!(checked, 4);
    }

    #[test]
    fn exact_3d_stabilities_partition_unity() {
        // Enumerate distinct rankings by probing, then check the exact
        // areas sum to 1 over all of them (discovered via fine sampling).
        let data = Dataset::from_rows(&lcg_rows(6, 3, 33)).unwrap();
        let samples = orthant_samples(11, 50_000, 3);
        let mut seen: Vec<Ranking> = Vec::new();
        for s in samples.iter_rows() {
            let r = data.rank(s).unwrap();
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        let total: f64 = seen
            .iter()
            .map(|r| {
                stability_verify_3d_exact(&data, r)
                    .unwrap()
                    .unwrap()
                    .stability
            })
            .sum();
        // 50k samples find every region of non-trivial mass; the missing
        // tail is below the sampling resolution.
        assert!(total > 0.999 && total <= 1.0 + 1e-9, "total = {total}");
    }

    #[test]
    fn exact_3d_requires_three_dimensions() {
        let data = Dataset::figure1();
        let r = data.rank(&[1.0, 1.0]).unwrap();
        assert!(stability_verify_3d_exact(&data, &r).is_err());
    }

    #[test]
    fn disjoint_rankings_partition_sampled_mass() {
        let data = Dataset::from_rows(&lcg_rows(8, 3, 99)).unwrap();
        let samples = orthant_samples(6, 20_000, 3);
        // Collect the distinct rankings the samples themselves induce.
        let mut seen: Vec<Ranking> = Vec::new();
        for s in samples.iter_rows() {
            let r = data.rank(s).unwrap();
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        let total: f64 = seen
            .iter()
            .map(|r| {
                stability_verify_md(&data, r, &RegionOfInterest::full(data.dim()), &samples)
                    .unwrap()
                    .unwrap()
                    .stability
            })
            .sum();
        // Every sample is counted by exactly one ranking region (boundary
        // hits are measure-zero), so the sum is 1 up to boundary ties.
        assert!((total - 1.0).abs() < 1e-3, "total = {total}");
    }
}
