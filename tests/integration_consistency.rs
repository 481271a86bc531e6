//! Cross-crate integration tests: the exact 2-D path, the arrangement
//! path, and the randomized path must agree with each other on shared
//! ground, across the full pipeline from raw tables to stable rankings.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stable_rankings::prelude::*;

/// CSMetrics-style pipeline: all three algorithm families find the same
/// most stable ranking with consistent stability values.
#[test]
fn three_paths_agree_on_csmetrics() {
    let mut rng = StdRng::seed_from_u64(1);
    let table = csmetrics_top100(&mut rng);
    let data = Dataset::from_rows(&table.normalized()).unwrap();

    // Exact sweep.
    let mut sweep = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
    let exact = sweep.get_next().unwrap();

    // Arrangement + sampled oracle.
    let roi = RegionOfInterest::full(2);
    let mut md_rng = StdRng::seed_from_u64(2);
    let mut md = MdEnumerator::new(&data, &roi, 100_000, &mut md_rng).unwrap();
    let sampled = md.get_next().unwrap();

    // Randomized counting.
    let mut r_rng = StdRng::seed_from_u64(3);
    let mut randomized = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
    let counted = randomized.get_next_budget(&mut r_rng, 100_000).unwrap();

    assert_eq!(exact.ranking, sampled.ranking, "sweep vs arrangement");
    assert_eq!(
        exact.ranking.order(),
        counted.items.as_slice(),
        "sweep vs randomized"
    );
    assert!(
        (exact.stability - sampled.stability).abs() < 0.01,
        "exact {} vs arrangement {}",
        exact.stability,
        sampled.stability
    );
    assert!(
        (exact.stability - counted.stability).abs() < 0.01,
        "exact {} vs randomized {}",
        exact.stability,
        counted.stability
    );
}

/// The fixed-confidence operator's interval really covers the exact value.
#[test]
fn fixed_confidence_brackets_exact_stability() {
    let mut rng = StdRng::seed_from_u64(4);
    let table = csmetrics_top100(&mut rng);
    let data = Dataset::from_rows(&table.normalized()).unwrap();
    let roi = RegionOfInterest::full(2);

    let mut op = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.01).unwrap();
    let mut op_rng = StdRng::seed_from_u64(5);
    let found = op
        .get_next_confidence(&mut op_rng, 0.002, 2_000_000)
        .unwrap();
    assert!(found.confidence_error <= 0.002);

    let ranking = Ranking::new(found.items.clone()).unwrap();
    let exact = stability_verify_2d(&data, &ranking, AngleInterval::full())
        .unwrap()
        .expect("discovered ranking is feasible")
        .stability;
    // 99% interval with hefty slack (single trial).
    assert!(
        (found.stability - exact).abs() <= 4.0 * found.confidence_error,
        "estimate {} ± {} vs exact {}",
        found.stability,
        found.confidence_error,
        exact
    );
}

/// MD verification of the 2-D sweep's regions: every region the sweep
/// finds is confirmed by Algorithm 4 + oracle at matching stability.
#[test]
fn md_verification_confirms_sweep_regions() {
    let mut rng = StdRng::seed_from_u64(6);
    let table = csmetrics_top100(&mut rng);
    let data = Dataset::from_rows(&table.normalized()).unwrap();

    let mut sweep = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
    let top = sweep.top_h(5);

    let roi = RegionOfInterest::full(2);
    let mut s_rng = StdRng::seed_from_u64(7);
    let samples = roi.sampler().sample_buffer(&mut s_rng, 200_000);
    for s in top {
        let v = stability_verify_md(&data, &s.ranking, &roi, &samples)
            .unwrap()
            .expect("sweep rankings are feasible");
        assert!(
            (v.stability - s.stability).abs() < 0.01,
            "sweep {} vs MD {}",
            s.stability,
            v.stability
        );
    }
}

/// The cone region of interest behaves consistently across the exact 2-D
/// clipping and the cap-sampled MD estimate.
#[test]
fn cone_roi_consistency_in_2d() {
    let mut rng = StdRng::seed_from_u64(8);
    let table = csmetrics_top100(&mut rng);
    let data = Dataset::from_rows(&table.normalized()).unwrap();
    let reference = [0.3, 0.7];
    let theta = 0.998f64.acos();

    // Exact: clip the interval.
    let interval = AngleInterval::around(&reference, theta).unwrap();
    let mut sweep = Enumerator2D::new(&data, interval).unwrap();
    let exact = sweep.get_next().unwrap();

    // Sampled: cap ROI.
    let roi = RegionOfInterest::cone(&reference, theta);
    let mut md_rng = StdRng::seed_from_u64(9);
    let mut md = MdEnumerator::new(&data, &roi, 100_000, &mut md_rng).unwrap();
    let sampled = md.get_next().unwrap();

    assert_eq!(exact.ranking, sampled.ranking);
    assert!(
        (exact.stability - sampled.stability).abs() < 0.02,
        "exact-in-interval {} vs cap-sampled {}",
        exact.stability,
        sampled.stability
    );
}

/// End-to-end FIFA pipeline: the d = 4 arrangement enumerator's output is
/// internally consistent and its representatives live in the cone.
#[test]
fn fifa_pipeline_is_consistent() {
    let mut rng = StdRng::seed_from_u64(10);
    let table = fifa_top100(&mut rng);
    let data = Dataset::from_rows(&table.normalized()).unwrap();
    let roi = RegionOfInterest::cone_cosine(&[1.0, 0.5, 0.3, 0.2], 0.999);

    let mut md_rng = StdRng::seed_from_u64(11);
    let mut md = MdEnumerator::new(&data, &roi, 10_000, &mut md_rng).unwrap();
    let top = md.top_h(20);
    assert!(!top.is_empty());
    let mut prev = f64::INFINITY;
    let mut total = 0.0;
    for s in &top {
        assert!(s.stability <= prev + 1e-12, "ordering violated");
        prev = s.stability;
        total += s.stability;
        assert!(roi.contains(&s.representative), "representative escaped U*");
        assert_eq!(
            data.rank(&s.representative).unwrap(),
            s.ranking,
            "representative does not generate its ranking"
        );
    }
    assert!(total <= 1.0 + 1e-9);
}

/// Dominance survives the whole pipeline: items dominated in the raw table
/// (after normalization) never outrank their dominators in any enumerated
/// ranking.
#[test]
fn dominance_respected_through_pipeline() {
    let mut rng = StdRng::seed_from_u64(12);
    let table = synthetic(&mut rng, CorrelationKind::Correlated, 40, 3);
    let rows = table.normalized();
    let data = Dataset::from_rows(&rows).unwrap();

    let mut pairs = Vec::new();
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            if i != j && dominates(&rows[i], &rows[j]) {
                pairs.push((i as u32, j as u32));
            }
        }
    }
    assert!(
        !pairs.is_empty(),
        "correlated data should have dominance pairs"
    );

    let roi = RegionOfInterest::full(3);
    let mut md_rng = StdRng::seed_from_u64(13);
    let mut md = MdEnumerator::new(&data, &roi, 5_000, &mut md_rng).unwrap();
    for s in md.top_h(10) {
        for &(hi, lo) in &pairs {
            assert!(
                s.ranking.rank_of(hi).unwrap() < s.ranking.rank_of(lo).unwrap(),
                "dominated item {lo} outranked its dominator {hi}"
            );
        }
    }
}

/// Top-k set stability from the randomized operator is consistent with
/// brute-force counting over the same samples (DoT-style workload).
#[test]
fn randomized_topk_matches_brute_force_counting() {
    let mut rng = StdRng::seed_from_u64(14);
    let table = dot(&mut rng, 2_000);
    let data = Dataset::from_rows(&table.normalized()).unwrap();
    let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], std::f64::consts::PI / 50.0);
    let k = 10;

    // Operator path.
    let mut op = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(k), 0.05).unwrap();
    let mut op_rng = StdRng::seed_from_u64(15);
    let best = op.get_next_budget(&mut op_rng, 5_000).unwrap();

    // Brute force with identical seed ⇒ identical samples.
    let mut bf_rng = StdRng::seed_from_u64(15);
    let sampler = roi.sampler();
    let mut counts: std::collections::HashMap<Vec<u32>, u64> = Default::default();
    for _ in 0..5_000 {
        let w = sampler.sample(&mut bf_rng);
        let mut set = data.top_k(&w, k).unwrap();
        set.sort_unstable();
        *counts.entry(set).or_default() += 1;
    }
    let (bf_best, bf_count) = counts
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(k, v)| (k.clone(), *v))
        .unwrap();
    assert_eq!(best.items, bf_best);
    assert!((best.stability - bf_count as f64 / 5_000.0).abs() < 1e-12);
}
