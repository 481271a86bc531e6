//! End-to-end calibration of the d = 3 pipeline against the exact
//! spherical-area oracle (one clip of the orthant's gnomonic triangle):
//! every stability number the sampled operators report must agree with
//! it, its areas must tile the orthant, and every observed ranking must
//! get a positive area.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stable_rankings::prelude::*;

fn workload() -> Dataset {
    let mut rng = StdRng::seed_from_u64(314);
    let table = synthetic(&mut rng, CorrelationKind::Independent, 15, 3);
    Dataset::from_rows(&table.normalized()).unwrap()
}

/// GET-NEXTmd's sampled stabilities match the exact areas of the regions it
/// returns.
#[test]
fn arrangement_stabilities_match_exact_areas() {
    let data = workload();
    let roi = RegionOfInterest::full(3);
    let mut rng = StdRng::seed_from_u64(1);
    let mut md = MdEnumerator::new(&data, &roi, 150_000, &mut rng).unwrap();
    for s in md.top_h(8) {
        let exact = stability_verify_3d_exact(&data, &s.ranking)
            .unwrap()
            .expect("enumerated rankings are feasible")
            .stability;
        // 150k samples ⇒ σ ≈ √(p(1−p)/150k) ≤ 0.0013.
        assert!(
            (s.stability - exact).abs() < 0.006,
            "arrangement {} vs exact {}",
            s.stability,
            exact
        );
    }
}

/// The randomized operator's full-ranking estimates match exact areas.
#[test]
fn randomized_stabilities_match_exact_areas() {
    let data = workload();
    let roi = RegionOfInterest::full(3);
    let mut op = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.01).unwrap();
    op.sample_n_parallel(9, 100_000, 8);
    let mut rng = StdRng::seed_from_u64(2);
    let mut checked = 0;
    for _ in 0..6 {
        let Some(d) = op.get_next_budget(&mut rng, 0) else {
            break;
        };
        let ranking = Ranking::new(d.items.clone()).unwrap();
        let exact = stability_verify_3d_exact(&data, &ranking)
            .unwrap()
            .expect("sampled rankings are feasible")
            .stability;
        assert!(
            (d.stability - exact).abs() <= (4.0 * d.confidence_error).max(0.004),
            "randomized {} ± {} vs exact {}",
            d.stability,
            d.confidence_error,
            exact
        );
        checked += 1;
    }
    assert!(checked >= 4, "need several rankings, got {checked}");
}

/// Builtin-shaped `dot` table: `n` rows from seed 7, normalized.
fn dot_table(n: usize) -> Dataset {
    let table = dot(&mut StdRng::seed_from_u64(7), n);
    Dataset::from_rows(&table.normalized()).unwrap()
}

/// The ExactLp arrangement mode enumerates every region of the
/// arrangement, and the exact areas of everything it finds sum to 1 —
/// on a small independent table and on a `dot` table whose arrangement
/// has hundreds of regions, many of them tiny.
#[test]
fn exact_lp_enumeration_covers_the_orthant() {
    let mut rng = StdRng::seed_from_u64(3);
    // Independent data: enough non-dominating pairs for a rich arrangement
    // (correlated data at this size can collapse to a near-total dominance
    // chain with only a couple of feasible rankings).
    let table = synthetic(&mut rng, CorrelationKind::Independent, 8, 3);
    let independent = Dataset::from_rows(&table.normalized()).unwrap();
    for (data, min_count) in [(independent, 3), (dot_table(12), 500)] {
        let roi = RegionOfInterest::full(3);
        let buffer = roi.sampler().sample_buffer(&mut rng, 300);
        let mut lp =
            MdEnumerator::with_samples_and_mode(&data, &roi, buffer, PassThroughMode::ExactLp)
                .unwrap();
        let mut exact_total = 0.0;
        let mut count = 0;
        while let Some(s) = lp.get_next() {
            let exact = stability_verify_3d_exact(&data, &s.ranking)
                .unwrap()
                .expect("feasible")
                .stability;
            exact_total += exact;
            count += 1;
        }
        assert!(
            count >= min_count,
            "{min_count}+ rankings expected, got {count}"
        );
        assert!(
            (exact_total - 1.0).abs() < 1e-12,
            "exact areas over all {count} regions must cover the orthant: {exact_total}"
        );
    }
}

/// Every ranking observed at a weight strictly inside its region has a
/// positive area, on a table large enough that the regions are tiny.
#[test]
fn observed_rankings_have_positive_area() {
    let data = dot_table(2000);
    let mut rng = StdRng::seed_from_u64(4);
    let mut checked = 0;
    while checked < 10 {
        let w: [f64; 3] = std::array::from_fn(|_| rng.random());
        let ranking = data.rank(&w).unwrap();
        let v = stability_verify_3d_exact(&data, &ranking)
            .unwrap()
            .expect("an observed ranking is feasible");
        if v.region.min_slack(&w) <= 0.0 {
            continue; // w on a boundary: the tie-break decided the ranking
        }
        assert!(v.stability > 0.0, "weights {w:?}: stability 0");
        checked += 1;
    }
}
