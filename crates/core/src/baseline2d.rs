//! Baseline 2-D enumeration by sorting all ordering-exchange angles.
//!
//! The classical alternative to the sweep of Algorithm 2: compute every
//! pairwise exchange angle inside the region of interest (`O(n²)` of them),
//! sort them, and read the ranking regions off the sorted sequence — the
//! boundaries of consecutive regions are exactly the distinct exchange
//! angles. The sweep ([`crate::sweep2d`]) only visits the `E` pairs whose
//! order differs between the rankings at the interval's two ends, in
//! `O(n log n + E log E)`; this baseline pays for all `n²` pairs however
//! few of them exchange inside the interval, and ranks every candidate
//! cell to merge those that do not change the ranking.
//!
//! It exists as an independently-implemented correctness oracle: the sweep
//! and this module must produce identical region structures, which the
//! cross-validation tests (and a criterion ablation) assert.

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::sv2d::AngleInterval;
use crate::sweep2d::Region2DInfo;
use srank_geom::angle2d::{exchange_angle_2d, weight_from_angle_2d};

/// Enumerates the 2-D ranking regions of `interval` by exchange-angle
/// sorting. Returns regions in angle order, exactly like
/// [`Enumerator2D::regions`](crate::sweep2d::Enumerator2D::regions).
pub fn regions_via_sorted_exchanges(
    data: &Dataset,
    interval: AngleInterval,
) -> Result<Vec<Region2DInfo>> {
    if data.dim() != 2 {
        return Err(StableRankError::NeedTwoDimensions { got: data.dim() });
    }
    if data.is_empty() {
        return Err(StableRankError::EmptyDataset);
    }
    let n = data.len();
    // All pairwise exchange angles strictly inside the interval.
    let mut angles = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(theta) = exchange_angle_2d(data.item(i), data.item(j)) {
                if theta > interval.lo() && theta < interval.hi() {
                    angles.push(theta);
                }
            }
        }
    }
    angles.sort_by(|a, b| a.partial_cmp(b).unwrap());
    angles.dedup();

    // Candidate boundaries partition the interval; merge consecutive cells
    // whose rankings coincide (an exchange angle between non-adjacent items
    // does not change the ranking there).
    let span = interval.span();
    let mut boundaries = Vec::with_capacity(angles.len() + 2);
    boundaries.push(interval.lo());
    boundaries.extend(angles);
    boundaries.push(interval.hi());

    let mut regions: Vec<Region2DInfo> = Vec::new();
    let mut prev_ranking = None;
    let mut current_lo = interval.lo();
    for cell in boundaries.windows(2) {
        let (lo, hi) = (cell[0], cell[1]);
        if hi - lo <= 0.0 {
            continue;
        }
        let mid = 0.5 * (lo + hi);
        let ranking = data.rank(&weight_from_angle_2d(mid)).expect("dim checked");
        match &prev_ranking {
            Some(prev) if *prev == ranking => {
                // Same ranking continues across this candidate boundary:
                // extend the open region.
            }
            _ => {
                if prev_ranking.is_some() {
                    regions.push(Region2DInfo {
                        lo: current_lo,
                        hi: lo,
                        stability: (lo - current_lo) / span,
                    });
                }
                current_lo = lo;
                prev_ranking = Some(ranking);
            }
        }
    }
    regions.push(Region2DInfo {
        lo: current_lo,
        hi: interval.hi(),
        stability: (interval.hi() - current_lo) / span,
    });
    Ok(regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep2d::Enumerator2D;

    fn lcg_rows(n: usize, mut state: u64) -> Vec<Vec<f64>> {
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| vec![next(), next()]).collect()
    }

    fn assert_same_regions(a: &[Region2DInfo], b: &[Region2DInfo]) {
        assert_eq!(a.len(), b.len(), "region counts differ");
        for (x, y) in a.iter().zip(b) {
            assert!((x.lo - y.lo).abs() < 1e-12, "lo: {} vs {}", x.lo, y.lo);
            assert!((x.hi - y.hi).abs() < 1e-12, "hi: {} vs {}", x.hi, y.hi);
            assert!((x.stability - y.stability).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_sweep_on_figure1() {
        let data = Dataset::figure1();
        let baseline = regions_via_sorted_exchanges(&data, AngleInterval::full()).unwrap();
        let sweep = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        assert_eq!(baseline.len(), 11);
        assert_same_regions(&baseline, sweep.regions());
    }

    #[test]
    fn matches_sweep_on_random_data() {
        for seed in [3u64, 17, 99, 12345] {
            let data = Dataset::from_rows(&lcg_rows(40, seed)).unwrap();
            let baseline = regions_via_sorted_exchanges(&data, AngleInterval::full()).unwrap();
            let sweep = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
            assert_same_regions(&baseline, sweep.regions());
        }
    }

    #[test]
    fn matches_sweep_on_narrow_interval() {
        let data = Dataset::from_rows(&lcg_rows(25, 7)).unwrap();
        let interval = AngleInterval::new(0.5, 0.9).unwrap();
        let baseline = regions_via_sorted_exchanges(&data, interval).unwrap();
        let sweep = Enumerator2D::new(&data, interval).unwrap();
        assert_same_regions(&baseline, sweep.regions());
    }

    #[test]
    fn merges_non_adjacent_exchanges() {
        // An exchange between items far apart in the ranking does not split
        // a region; counts must reflect merged cells, i.e. the number of
        // regions can be far below the number of exchange angles + 1.
        let data = Dataset::from_rows(&lcg_rows(30, 21)).unwrap();
        let mut raw_angles = 0;
        for i in 0..30 {
            for j in (i + 1)..30 {
                if exchange_angle_2d(data.item(i), data.item(j)).is_some() {
                    raw_angles += 1;
                }
            }
        }
        let regions = regions_via_sorted_exchanges(&data, AngleInterval::full()).unwrap();
        assert!(
            regions.len() <= raw_angles + 1,
            "{} regions vs {} exchanges",
            regions.len(),
            raw_angles
        );
        // Stabilities still partition the interval.
        let total: f64 = regions.iter().map(|r| r.stability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dominance_chain_single_region() {
        let data = Dataset::from_rows(&[vec![0.9, 0.9], vec![0.5, 0.5], vec![0.1, 0.1]]).unwrap();
        let regions = regions_via_sorted_exchanges(&data, AngleInterval::full()).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].stability, 1.0);
    }

    #[test]
    fn rejects_non_2d() {
        let data = Dataset::from_rows(&[vec![0.1, 0.2, 0.3]]).unwrap();
        assert!(regions_via_sorted_exchanges(&data, AngleInterval::full()).is_err());
    }
}
