//! Ordering-exchange hyperplane enumeration — `×hps`, Algorithm 5 (§4.2).
//!
//! Collects the `O(n²)` ordering-exchange hyperplanes of the item pairs
//! that actually pass through the region of interest. Intersection with
//! `U*` is decided analytically where a closed form exists (full orthant,
//! cones) and by sample witnesses otherwise — the same sampled
//! `passThrough` the arrangement construction uses (§5.4).
//!
//! The harvest returns item pairs `(i, j)`, `i < j`, in `(i, j)` order,
//! not coefficient vectors: `×(t_i, t_j)` is `x_i − x_j`, which a caller
//! forms on demand into a reused scratch ([`exchange_coeffs_into`]). A
//! pair costs 8 bytes where a boxed coefficient row costs a heap
//! allocation of `8·d` bytes plus its 24-byte header.
//!
//! Over the full orthant the mixed-sign test decides a pair by itself: a
//! dominating pair has every `a_k − b_k ≥ 0`, so no component below
//! `−EPS`; an identical pair has every `|a_k − b_k| ≤ EPS`, so none above
//! `EPS`. Neither passes, so that harvest runs no dominance test and no
//! degeneracy test, and compacts each row's kept `j`s branch-free.
//!
//! Elsewhere dominated pairs are skipped up front only when `U*` lies
//! inside the first orthant (constraint sets, clipped cones), where a
//! dominating item can never fall behind. An unclipped cone may reach
//! weight vectors with negative components, where dominated pairs *do*
//! swap; there the analytic cap test decides for every pair, so the
//! arrangement never merges regions that rank differently.

use crate::dataset::Dataset;
use srank_geom::hyperplane::OrderingExchange;
use srank_geom::vector::{dot, norm};
use srank_geom::EPS;
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use std::sync::Arc;

/// Whether the origin-through hyperplane with normal `coeffs` intersects
/// the *interior* of the region of interest.
///
/// * Full orthant: it does iff the normal has strictly mixed signs —
///   otherwise one open side misses the orthant entirely.
/// * Cone of angle θ around `ray`: the angular distance from the ray to
///   the hyperplane is `|π/2 − ∠(normal, ray)|`, so the hyperplane cuts
///   the cap iff `|normal·ray| < sin θ · ‖normal‖`.
/// * Constraint set: decided by sample witnesses on both sides.
pub fn hyperplane_intersects_roi(
    coeffs: &[f64],
    roi: &RegionOfInterest,
    samples: &SampleBuffer,
) -> bool {
    match roi {
        RegionOfInterest::FullOrthant { .. } => {
            let has_pos = coeffs.iter().any(|&c| c > EPS);
            let has_neg = coeffs.iter().any(|&c| c < -EPS);
            has_pos && has_neg
        }
        RegionOfInterest::Cone { ray, theta, .. } => {
            let nn = norm(coeffs);
            if nn <= EPS {
                return false;
            }
            (dot(coeffs, ray).abs() / nn) < theta.sin()
        }
        RegionOfInterest::Constraints { .. } => {
            let mut saw_pos = false;
            let mut saw_neg = false;
            for w in samples.iter_rows() {
                let v = dot(coeffs, w);
                if v > 0.0 {
                    saw_pos = true;
                } else if v < 0.0 {
                    saw_neg = true;
                }
                if saw_pos && saw_neg {
                    return true;
                }
            }
            false
        }
    }
}

/// Whether every weight vector of `roi` lies in the first orthant, where
/// a dominated pair never exchanges.
pub(crate) fn inside_orthant(roi: &RegionOfInterest) -> bool {
    match roi {
        RegionOfInterest::FullOrthant { .. } | RegionOfInterest::Constraints { .. } => true,
        RegionOfInterest::Cone {
            clip_to_orthant, ..
        } => *clip_to_orthant,
    }
}

/// Writes the coefficients of `×(t_i, t_j)`, `x_i − x_j`, into `out` —
/// bit-for-bit what [`OrderingExchange::from_pair`] computes.
#[inline]
pub(crate) fn exchange_coeffs_into(data: &Dataset, (i, j): (u32, u32), out: &mut [f64]) {
    let (a, b) = (data.item(i as usize), data.item(j as usize));
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Algorithm 5 over item pairs: every `(i, j)`, `i < j`, whose ordering
/// exchange intersects `U*`, in `(i, j)` order. Item indices must fit in
/// `u32`.
///
/// The full-orthant list depends on the rows alone, so it is harvested
/// once per dataset (`Dataset::orthant_exchange_pairs`) and every call
/// for that region of interest shares it. Cones and constraint sets are
/// harvested on every call.
pub fn ordering_exchange_pairs(
    data: &Dataset,
    roi: &RegionOfInterest,
    samples: &SampleBuffer,
) -> Arc<[(u32, u32)]> {
    debug_assert!(
        u32::try_from(data.len()).is_ok(),
        "item indices must fit in u32"
    );
    if let RegionOfInterest::FullOrthant { .. } = roi {
        return data.orthant_exchange_pairs();
    }
    let skip_dominated = inside_orthant(roi);
    let mut coeffs = vec![0.0; data.dim()];
    let mut out = Vec::new();
    for i in 0..data.len() {
        for j in (i + 1)..data.len() {
            if skip_dominated && (data.dominates(i, j) || data.dominates(j, i)) {
                continue;
            }
            let pair = (i as u32, j as u32);
            exchange_coeffs_into(data, pair, &mut coeffs);
            if coeffs.iter().all(|c| c.abs() <= EPS) {
                continue; // identical items never exchange
            }
            if hyperplane_intersects_roi(&coeffs, roi, samples) {
                out.push(pair);
            }
        }
    }
    out.into()
}

/// The full-orthant harvest behind `Dataset::orthant_exchange_pairs`:
/// the pairs whose difference has strictly mixed signs.
pub(crate) fn orthant_pairs(data: &Dataset) -> Vec<(u32, u32)> {
    let n = data.len();
    let mut out = Vec::new();
    // Every j is written, and the cursor advances past the kept ones.
    let mut kept = vec![0u32; n];
    for i in 0..n {
        let a = data.item(i);
        let mut len = 0;
        for j in (i + 1)..n {
            let (mut pos, mut neg) = (false, false);
            for (x, y) in a.iter().zip(data.item(j)) {
                let c = x - y;
                pos |= c > EPS;
                neg |= c < -EPS;
            }
            kept[len] = j as u32;
            len += usize::from(pos & neg);
        }
        out.extend(kept[..len].iter().map(|&j| (i as u32, j)));
    }
    out
}

/// Algorithm 5: the ordering-exchange hyperplanes of all pairs
/// intersecting `U*`, in deterministic `(i, j)` pair order — the
/// coefficient form of [`ordering_exchange_pairs`].
pub fn ordering_exchange_hyperplanes(
    data: &Dataset,
    roi: &RegionOfInterest,
    samples: &SampleBuffer,
) -> Vec<OrderingExchange> {
    ordering_exchange_pairs(data, roi, samples)
        .iter()
        .map(|&(i, j)| OrderingExchange::from_pair(data.item(i as usize), data.item(j as usize)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    fn samples_for(roi: &RegionOfInterest, seed: u64, n: usize) -> SampleBuffer {
        let mut rng = StdRng::seed_from_u64(seed);
        roi.sampler().sample_buffer(&mut rng, n)
    }

    #[test]
    fn figure1_produces_ten_hyperplanes_in_u() {
        // 5 items, no dominance ⇒ C(5,2) = 10 exchanges, all inside U
        // (Figure 1c shows all ten dual intersections in the quadrant).
        let data = Dataset::figure1();
        let roi = RegionOfInterest::full(2);
        let samples = samples_for(&roi, 1, 100);
        let hps = ordering_exchange_hyperplanes(&data, &roi, &samples);
        assert_eq!(hps.len(), 10);
    }

    #[test]
    fn dominance_pairs_are_skipped() {
        let data = Dataset::from_rows(&[vec![0.9, 0.9], vec![0.1, 0.5], vec![0.8, 0.2]]).unwrap();
        let roi = RegionOfInterest::full(2);
        let samples = samples_for(&roi, 2, 100);
        let hps = ordering_exchange_hyperplanes(&data, &roi, &samples);
        // Pairs: (0,1) and (0,2) are dominance; only (1,2) exchanges.
        assert_eq!(hps.len(), 1);
    }

    #[test]
    fn narrow_cone_filters_hyperplanes() {
        let data = Dataset::figure1();
        let full = RegionOfInterest::full(2);
        let full_samples = samples_for(&full, 3, 200);
        let all = ordering_exchange_hyperplanes(&data, &full, &full_samples);

        // A narrow cone around the diagonal keeps only exchanges near π/4.
        let cone = RegionOfInterest::cone(&[1.0, 1.0], PI / 60.0);
        let cone_samples = samples_for(&cone, 4, 200);
        let filtered = ordering_exchange_hyperplanes(&data, &cone, &cone_samples);
        assert!(filtered.len() < all.len());
    }

    #[test]
    fn analytic_cone_test_matches_sampled_witnesses() {
        let data = Dataset::figure1();
        let cone = RegionOfInterest::cone(&[1.0, 1.0], PI / 20.0);
        let samples = samples_for(&cone, 5, 20_000);
        for i in 0..5 {
            for j in (i + 1)..5 {
                let hp = OrderingExchange::from_pair(data.item(i), data.item(j));
                let analytic = hyperplane_intersects_roi(hp.coeffs(), &cone, &samples);
                // Sampled ground truth.
                let mut pos = false;
                let mut neg = false;
                for w in samples.iter_rows() {
                    if hp.eval(w) > 0.0 {
                        pos = true;
                    } else {
                        neg = true;
                    }
                }
                let sampled = pos && neg;
                assert_eq!(
                    analytic, sampled,
                    "pair ({i},{j}): analytic {analytic} vs sampled {sampled}"
                );
            }
        }
    }

    #[test]
    fn orthant_mixed_sign_rule() {
        let roi = RegionOfInterest::full(3);
        let samples = samples_for(&roi, 6, 10);
        assert!(hyperplane_intersects_roi(&[0.5, -0.3, 0.1], &roi, &samples));
        assert!(!hyperplane_intersects_roi(&[0.5, 0.3, 0.0], &roi, &samples));
    }

    #[test]
    fn constraint_roi_uses_witnesses() {
        use srank_geom::hyperplane::HalfSpace;
        // U* = {w1 ≥ w2} ∩ orthant.
        let roi = RegionOfInterest::constraints(2, vec![HalfSpace::new(vec![1.0, -1.0])]);
        let samples = samples_for(&roi, 7, 2000);
        // w1 = 2·w2 passes through U*.
        assert!(hyperplane_intersects_roi(&[1.0, -2.0], &roi, &samples));
        // w1 = w2/2 lies outside U*.
        assert!(!hyperplane_intersects_roi(&[1.0, -0.5], &roi, &samples));
    }

    #[test]
    fn unclipped_cone_keeps_dominated_pairs_that_swap() {
        // Item 0 dominates item 1 (better on w1 only), so inside the
        // orthant they never exchange. The cone around (0.1, 1, 1) with
        // θ = 0.3 leans across w1 = 0, where item 1 outranks item 0: the
        // exchange hyperplane must be kept there, and the arrangement
        // must split into both rankings the samples induce.
        let data = Dataset::from_rows(&[vec![0.6, 0.5, 0.5], vec![0.5, 0.5, 0.5]]).unwrap();
        let cone = RegionOfInterest::cone(&[0.1, 1.0, 1.0], 0.3);
        let samples = samples_for(&cone, 10, 2000);
        assert_eq!(
            ordering_exchange_hyperplanes(&data, &cone, &samples).len(),
            1
        );
        let distinct = crate::overview::StabilityOverview::from_samples(&data, &samples).unwrap();
        assert_eq!(distinct.len(), 2, "the samples induce both orders");
        let mut e = crate::getnext_md::MdEnumerator::with_samples(&data, &cone, samples).unwrap();
        assert_eq!(std::iter::from_fn(|| e.get_next()).count(), 2);

        // Clipped to the orthant, the same cone never swaps the pair.
        let clipped = cone.clipped_to_orthant();
        let samples = samples_for(&clipped, 11, 2000);
        assert!(ordering_exchange_hyperplanes(&data, &clipped, &samples).is_empty());
    }

    #[test]
    fn identical_items_yield_no_hyperplane() {
        let data = Dataset::from_rows(&[vec![0.4, 0.6], vec![0.4, 0.6]]).unwrap();
        let roi = RegionOfInterest::full(2);
        let samples = samples_for(&roi, 8, 50);
        assert!(ordering_exchange_hyperplanes(&data, &roi, &samples).is_empty());
    }

    #[test]
    fn count_is_quadratic_without_dominance() {
        // Anti-correlated line: no dominance at all ⇒ all C(n,2) pairs.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![i as f64 / 11.0, 1.0 - i as f64 / 11.0])
            .collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let roi = RegionOfInterest::full(2);
        let samples = samples_for(&roi, 9, 100);
        assert_eq!(
            ordering_exchange_hyperplanes(&data, &roi, &samples).len(),
            12 * 11 / 2
        );
    }
}
