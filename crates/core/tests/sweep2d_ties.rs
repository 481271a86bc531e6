//! The 2-D sweep on data with ties at the interval's lower end. At `θ = 0`
//! items tied on the first attribute rank by index, yet at every `θ > 0`
//! their second attribute orders them: the sweep must see the exchanges
//! through them that follow. Its regions must equal the independently
//! implemented exchange-sorting baseline's, hold one ranking each, and
//! differ from their neighbours.

use proptest::prelude::*;
use proptest::TestCaseError;
use srank_core::prelude::*;
use srank_core::regions_via_sorted_exchanges;
use srank_geom::angle2d::weight_from_angle_2d;

fn rank_at(data: &Dataset, theta: f64) -> Ranking {
    data.rank(&weight_from_angle_2d(theta)).unwrap()
}

/// Checks the sweep's regions of the full interval against the baseline
/// and against rankings probed inside each region.
fn assert_sound_sweep(data: &Dataset) -> std::result::Result<(), TestCaseError> {
    let sweep = Enumerator2D::new(data, AngleInterval::full()).unwrap();
    let baseline = regions_via_sorted_exchanges(data, AngleInterval::full()).unwrap();
    prop_assert_eq!(sweep.regions(), &baseline[..], "sweep vs sorted exchanges");
    let mut previous: Option<Ranking> = None;
    for region in sweep.regions() {
        let width = region.hi - region.lo;
        let inside = rank_at(data, region.midpoint());
        for share in [0.25, 0.75] {
            prop_assert_eq!(
                rank_at(data, region.lo + share * width),
                inside.clone(),
                "ranking changes inside [{}, {}]",
                region.lo,
                region.hi
            );
        }
        prop_assert!(
            previous.as_ref() != Some(&inside),
            "neighbouring regions share a ranking at {}",
            region.lo
        );
        previous = Some(inside);
    }
    Ok(())
}

#[test]
fn items_tied_on_the_first_attribute_exchange_after_zero() {
    // Items 0 and 1 tie on x0, so `θ = 0` ranks them by index; item 2
    // exchanges with item 1 at π/4.
    let data = Dataset::from_rows(&[vec![0.5, 0.25], vec![0.5, 0.75], vec![0.75, 0.5]]).unwrap();
    let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
    assert_eq!(e.num_regions(), 2);
    let mut answers: Vec<(Vec<u32>, f64)> = std::iter::from_fn(|| e.get_next())
        .map(|s| (s.ranking.order().to_vec(), s.stability))
        .collect();
    answers.sort_by(|a, b| b.0.cmp(&a.0));
    assert_eq!(answers, [(vec![2, 1, 0], 0.5), (vec![1, 2, 0], 0.5)]);
    assert_sound_sweep(&data).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Tables on the quarter grid {0, .25, .5, .75, 1}: ties on either
    /// attribute, duplicate rows and simultaneous exchanges are common.
    #[test]
    fn quarter_grid_sweeps_match_sorted_exchanges(
        cells in prop::collection::vec(prop::collection::vec(0..5u32, 2), 5..65)
    ) {
        let rows: Vec<Vec<f64>> = cells
            .iter()
            .map(|row| row.iter().map(|&q| 0.25 * f64::from(q)).collect())
            .collect();
        assert_sound_sweep(&Dataset::from_rows(&rows).unwrap())?;
    }
}
