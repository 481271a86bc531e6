//! Stability overviews and tolerance-aggregated stability.
//!
//! Two extensions the paper sketches but does not implement:
//!
//! * §1 promises "an overview of all the rankings that occupy a large
//!   portion in the acceptable region … along with an indication of the
//!   fraction … occupied by each". [`StabilityOverview`] is that summary:
//!   the sorted stability distribution with cumulative coverage, plus
//!   concentration statistics. For d ≥ 3 the Monte-Carlo overview is
//!   [`StabilityOverview::from_samples`]: the histogram of distinct
//!   rankings induced by a sample batch of `U*`.
//! * §8 (final remarks): "Our current definition of stability considers
//!   two rankings to be different if they differ in one pair of items. An
//!   alternative is to allow minor changes in the ranking."
//!   [`tau_tolerant_stability`] implements that alternative: the τ-tolerant
//!   stability of a ranking is the total stability mass of all rankings
//!   within Kendall-tau distance τ of it. Over a stored enumeration it is
//!   the reference for [`crate::sweep2d::tau_stability_2d`].
//!
//! ## The Monte-Carlo overview is a histogram
//!
//! Under the §5.4 sample partition, `GET-NEXTmd` splits a region only
//! when its samples fall on both sides of a hyperplane, so its leaves are
//! the classes of samples that agree on every pairwise order — exactly
//! the samples inducing one ranking — and each leaf's stability is its
//! sample count over `|S|`. The overview therefore never needs the
//! arrangement: [`StabilityOverview::from_samples`] ranks every sample,
//! counts distinct rankings in the interned accumulator the randomized
//! operator uses, and reports `count / |S|` per ranking. The stability
//! multiset is bit-identical to the arrangement walk's leaves (the
//! `overview_equivalence` tests pin this across regions of interest and
//! seeds) at O(|S| · n log n) instead of the walk's O(n² · |S|)
//! partitions, with no copy of the sample buffer and no per-split cone.

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::intern::KeyInterner;
use crate::randomized::{RankScratch, RankingScope};
use crate::ranking::Ranking;
use srank_sample::store::SampleBuffer;

/// One ranking's share in an overview.
#[derive(Clone, Debug, PartialEq)]
pub struct OverviewEntry {
    /// Stability of this ranking (share of `U*`).
    pub stability: f64,
    /// Total stability of this and all more-stable rankings.
    pub cumulative: f64,
}

/// A producer-facing summary of how stability mass is distributed over the
/// feasible rankings of a region of interest.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilityOverview {
    entries: Vec<OverviewEntry>,
}

impl StabilityOverview {
    /// Builds an overview from per-ranking stabilities (any order). Values
    /// must be non-negative; they need not sum to 1 (e.g. a truncated
    /// enumeration), but cumulative coverage is reported against 1.
    pub fn from_stabilities(mut stabilities: Vec<f64>) -> Result<Self> {
        if stabilities.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(StableRankError::InvalidRanking(
                "stabilities must be finite and non-negative".into(),
            ));
        }
        stabilities.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut cumulative = 0.0;
        let entries = stabilities
            .into_iter()
            .map(|stability| {
                cumulative += stability;
                OverviewEntry {
                    stability,
                    cumulative,
                }
            })
            .collect();
        Ok(Self { entries })
    }

    /// The Monte-Carlo overview of a sample batch of `U*`: one entry per
    /// distinct ranking the samples induce, with stability
    /// `count / |S|` (see the module docs for why this equals the
    /// sample-partition arrangement's leaves).
    ///
    /// The caller is responsible for `samples` being uniform draws from
    /// the region of interest.
    ///
    /// # Errors
    /// Fails when the batch dimension disagrees with the dataset or the
    /// batch is empty.
    pub fn from_samples(data: &Dataset, samples: &SampleBuffer) -> Result<Self> {
        if samples.dim() != data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: data.dim(),
                got: samples.dim(),
            });
        }
        if samples.is_empty() {
            return Err(StableRankError::EmptyRegionOfInterest);
        }
        let mut scratch = RankScratch::default();
        let mut table = KeyInterner::new(data.len(), data.dim());
        for w in samples.iter_rows() {
            table.observe(scratch.key_for(data, RankingScope::Full, w), w);
        }
        let total = samples.len() as f64;
        Self::from_stabilities(
            table
                .iter()
                .map(|(_, _, count, _)| count as f64 / total)
                .collect(),
        )
    }

    /// Number of feasible rankings summarized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in descending stability order.
    pub fn entries(&self) -> &[OverviewEntry] {
        &self.entries
    }

    /// How many of the most stable rankings are needed to cover at least
    /// `fraction` of the region of interest; `None` if the summarized mass
    /// never reaches it (truncated enumerations).
    pub fn rankings_to_cover(&self, fraction: f64) -> Option<usize> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must lie in [0, 1]"
        );
        self.entries
            .iter()
            .position(|e| e.cumulative >= fraction)
            .map(|p| p + 1)
    }

    /// Total summarized stability mass (1.0 for a complete enumeration).
    pub fn total_mass(&self) -> f64 {
        self.entries.last().map_or(0.0, |e| e.cumulative)
    }

    /// Shannon entropy (nats) of the stability distribution, normalized by
    /// the summarized mass: low entropy ⇒ a few rankings dominate `U*`
    /// (the "stable" regime), high entropy ⇒ the region is shattered into
    /// many near-tied rankings.
    pub fn entropy(&self) -> f64 {
        let total = self.total_mass();
        if total <= 0.0 {
            return 0.0;
        }
        -self
            .entries
            .iter()
            .filter(|e| e.stability > 0.0)
            .map(|e| {
                let p = e.stability / total;
                p * p.ln()
            })
            .sum::<f64>()
    }

    /// The effective number of rankings `exp(entropy)` — 1.0 when a single
    /// ranking owns everything, `len()` when all are equally likely.
    pub fn effective_rankings(&self) -> f64 {
        self.entropy().exp()
    }
}

/// §8's tolerant stability: the total stability of all rankings within
/// Kendall-tau distance `tau` of `center`, given the (ranking, stability)
/// pairs of an enumeration.
///
/// With `tau = 0` this is the ordinary stability of `center` (0 if it is
/// infeasible). Monotone in `tau`, reaching the enumeration's total mass
/// once `tau ≥ n(n−1)/2`.
pub fn tau_tolerant_stability(
    center: &Ranking,
    enumeration: &[(Ranking, f64)],
    tau: usize,
) -> Result<f64> {
    let mut total = 0.0;
    for (r, s) in enumeration {
        if center.kendall_tau_distance(r)? <= tau {
            total += s;
        }
    }
    Ok(total)
}

/// The most τ-tolerant-stable ranking of an enumeration: the member whose
/// τ-ball carries the most stability mass. Ties break toward the ranking
/// with higher own stability, then enumeration order.
pub fn most_tau_stable(enumeration: &[(Ranking, f64)], tau: usize) -> Result<Option<(usize, f64)>> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (i, (r, own)) in enumeration.iter().enumerate() {
        let ball = tau_tolerant_stability(r, enumeration, tau)?;
        let better = match &best {
            None => true,
            Some((_, bb, bo)) => ball > *bb + 1e-15 || ((ball - *bb).abs() <= 1e-15 && *own > *bo),
        };
        if better {
            best = Some((i, ball, *own));
        }
    }
    Ok(best.map(|(i, ball, _)| (i, ball)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::sv2d::AngleInterval;
    use crate::sweep2d::Enumerator2D;

    fn figure1_enumeration() -> Vec<(Ranking, f64)> {
        let data = Dataset::figure1();
        let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        std::iter::from_fn(|| e.get_next())
            .map(|s| (s.ranking, s.stability))
            .collect()
    }

    #[test]
    fn overview_sorts_and_accumulates() {
        let o = StabilityOverview::from_stabilities(vec![0.1, 0.5, 0.4]).unwrap();
        let stabilities: Vec<f64> = o.entries().iter().map(|e| e.stability).collect();
        assert_eq!(stabilities, vec![0.5, 0.4, 0.1]);
        assert!((o.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(o.rankings_to_cover(0.5), Some(1));
        assert_eq!(o.rankings_to_cover(0.9), Some(2));
        assert_eq!(o.rankings_to_cover(1.0), Some(3));
    }

    #[test]
    fn overview_rejects_bad_input() {
        assert!(StabilityOverview::from_stabilities(vec![0.1, -0.2]).is_err());
        assert!(StabilityOverview::from_stabilities(vec![f64::NAN]).is_err());
    }

    #[test]
    fn truncated_mass_reports_none_for_uncovered_fraction() {
        let o = StabilityOverview::from_stabilities(vec![0.2, 0.1]).unwrap();
        assert_eq!(o.rankings_to_cover(0.25), Some(2));
        assert_eq!(o.rankings_to_cover(0.5), None);
    }

    #[test]
    fn entropy_extremes() {
        let single = StabilityOverview::from_stabilities(vec![1.0]).unwrap();
        assert!(single.entropy().abs() < 1e-12);
        assert!((single.effective_rankings() - 1.0).abs() < 1e-12);
        let uniform = StabilityOverview::from_stabilities(vec![0.25; 4]).unwrap();
        assert!((uniform.effective_rankings() - 4.0).abs() < 1e-9);
        // Skewed sits in between.
        let skewed = StabilityOverview::from_stabilities(vec![0.7, 0.1, 0.1, 0.1]).unwrap();
        assert!(skewed.effective_rankings() > 1.0);
        assert!(skewed.effective_rankings() < 4.0);
    }

    #[test]
    fn figure1_overview_coverage() {
        let enumeration = figure1_enumeration();
        let o = StabilityOverview::from_stabilities(enumeration.iter().map(|(_, s)| *s).collect())
            .unwrap();
        assert_eq!(o.len(), 11);
        assert!((o.total_mass() - 1.0).abs() < 1e-9);
        // The top region holds ~39.5%, so covering half of U takes 2
        // rankings and covering 90% takes most of them.
        assert_eq!(o.rankings_to_cover(0.5), Some(2));
        assert!(o.rankings_to_cover(0.9).unwrap() >= 5);
    }

    #[test]
    fn tau_zero_is_own_stability() {
        let enumeration = figure1_enumeration();
        for (r, s) in &enumeration {
            let t0 = tau_tolerant_stability(r, &enumeration, 0).unwrap();
            assert!((t0 - s).abs() < 1e-12);
        }
    }

    #[test]
    fn tau_is_monotone_and_saturates() {
        let enumeration = figure1_enumeration();
        let center = &enumeration[0].0;
        let mut prev = 0.0;
        for tau in 0..=10 {
            let v = tau_tolerant_stability(center, &enumeration, tau).unwrap();
            assert!(v >= prev - 1e-12, "τ-tolerant stability must be monotone");
            prev = v;
        }
        // n = 5 ⇒ max distance 10: the ball swallows everything.
        let all = tau_tolerant_stability(center, &enumeration, 10).unwrap();
        assert!((all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tolerance_can_change_the_winner() {
        // Three rankings: a lone spike vs two adjacent rankings that share
        // mass; with τ = 1 the adjacent pair should win.
        let a = Ranking::new(vec![0, 1, 2]).unwrap(); // spike, 0.4
        let b = Ranking::new(vec![2, 1, 0]).unwrap(); // 0.35, adjacent to c
        let c = Ranking::new(vec![2, 0, 1]).unwrap(); // 0.25, τ(b,c) = 1
        let enumeration = vec![(a, 0.4), (b, 0.35), (c, 0.25)];
        let (winner0, mass0) = most_tau_stable(&enumeration, 0).unwrap().unwrap();
        assert_eq!(winner0, 0);
        assert!((mass0 - 0.4).abs() < 1e-12);
        let (winner1, mass1) = most_tau_stable(&enumeration, 1).unwrap().unwrap();
        assert_eq!(winner1, 1, "the τ-ball of b covers c and beats the spike");
        assert!((mass1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_enumeration() {
        assert!(most_tau_stable(&[], 3).unwrap().is_none());
        let o = StabilityOverview::from_stabilities(vec![]).unwrap();
        assert!(o.is_empty());
        assert_eq!(o.rankings_to_cover(0.1), None);
    }
}
