//! The counting overview must be *indistinguishable* from the arrangement
//! walk it replaced: over one shared sample batch, the stability vector of
//! `StabilityOverview::from_samples` (histogram of distinct sampled
//! rankings) equals the sorted leaf stabilities of the `GET-NEXTmd`
//! sample-partition walk — bit for bit — across dimensions, regions of
//! interest (full orthant, clipped and unclipped cones, constraint sets),
//! seeds, and data with ties and duplicate items.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::prelude::*;
use srank_geom::hyperplane::HalfSpace;
use srank_sample::store::SampleBuffer;

fn lcg_rows(n: usize, d: usize, mut state: u64) -> Vec<Vec<f64>> {
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

/// Leaf stabilities of the sample-partition arrangement walk, in the
/// overview's descending order.
fn walk_stabilities(data: &Dataset, roi: &RegionOfInterest, samples: &SampleBuffer) -> Vec<f64> {
    let mut e = MdEnumerator::with_samples(data, roi, samples.clone()).unwrap();
    let s: Vec<f64> = std::iter::from_fn(|| e.get_next())
        .map(|r| r.stability)
        .collect();
    StabilityOverview::from_stabilities(s)
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.stability)
        .collect()
}

fn counted_stabilities(data: &Dataset, samples: &SampleBuffer) -> Vec<f64> {
    StabilityOverview::from_samples(data, samples)
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.stability)
        .collect()
}

/// The four region-of-interest shapes, by index. Cone rays have positive
/// components, so the unclipped cones lean across the orthant boundary
/// whenever θ exceeds the ray's angle to it.
fn roi_for(kind: usize, d: usize, ray: &[f64], theta: f64) -> RegionOfInterest {
    match kind {
        0 => RegionOfInterest::full(d),
        1 => RegionOfInterest::cone(ray, theta).clipped_to_orthant(),
        2 => RegionOfInterest::cone(ray, theta),
        _ => {
            // w₀ ≥ c · w₁ (never empty: it holds wherever w₁ = 0).
            let mut coeffs = vec![0.0; d];
            coeffs[0] = 1.0;
            coeffs[1] = -(0.2 + 1.8 * ray[0]);
            RegionOfInterest::constraints(d, vec![HalfSpace::new(coeffs)])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn counted_overview_matches_sample_partition_walk(
        n in 2usize..40,
        d in 3usize..6,
        data_seed in 0u64..1_000_000,
        sample_seed in 0u64..1_000_000,
        samples in 50usize..1500,
        kind in 0usize..4,
        theta in 0.05f64..1.2,
        shape in 0usize..3,
    ) {
        let mut rows = lcg_rows(n, d, data_seed);
        if shape >= 1 {
            // Quantize to a quarter grid: ties, dominance, duplicates.
            for v in rows.iter_mut().flatten() {
                *v = (*v * 4.0).round() / 4.0;
            }
        }
        if shape == 2 {
            // Exact duplicates of the first items.
            let dups: Vec<Vec<f64>> = rows.iter().take(n.min(3)).cloned().collect();
            rows.extend(dups);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let ray: Vec<f64> = lcg_rows(1, d, data_seed ^ sample_seed)[0]
            .iter()
            .map(|x| 0.02 + x)
            .collect();
        let roi = roi_for(kind, d, &ray, theta);
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let batch = roi.sampler().sample_buffer(&mut rng, samples);

        let counted = counted_stabilities(&data, &batch);
        let walked = walk_stabilities(&data, &roi, &batch);
        prop_assert_eq!(counted.len(), walked.len());
        prop_assert_eq!(counted, walked);
    }
}

#[test]
fn from_samples_rejects_mismatched_and_empty_batches() {
    let data = Dataset::from_rows(&lcg_rows(5, 3, 1)).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let wrong_dim = RegionOfInterest::full(4)
        .sampler()
        .sample_buffer(&mut rng, 10);
    assert!(StabilityOverview::from_samples(&data, &wrong_dim).is_err());
    let empty = RegionOfInterest::full(3)
        .sampler()
        .sample_buffer(&mut rng, 0);
    assert!(StabilityOverview::from_samples(&data, &empty).is_err());
}
