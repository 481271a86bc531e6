//! Property-based tests for the sampling substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_geom::hyperplane::{HalfSpace, OrderingExchange};
use srank_geom::region::ConeRegion;
use srank_geom::vector::{angle_between, norm};
use srank_sample::cap::{CapSampler, RiemannTable};
use srank_sample::confidence::{confidence_error, required_samples};
use srank_sample::oracle::estimate_stability;
use srank_sample::partition::PartitionedSamples;
use srank_sample::roi::RegionOfInterest;
use srank_sample::special::{regularized_incomplete_beta, sin_power_integral};
use srank_sample::sphere::sample_orthant_direction;
use srank_sample::store::SampleBuffer;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn orthant_samples_are_unit_nonnegative(seed in 0u64..10_000, d in 2usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = sample_orthant_direction(&mut rng, d);
        prop_assert_eq!(w.len(), d);
        prop_assert!((norm(&w) - 1.0).abs() < 1e-10);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn cap_samples_respect_theta(
        seed in 0u64..10_000,
        d in 2usize..6,
        theta_frac in 0.02f64..1.0,
    ) {
        let theta = theta_frac * std::f64::consts::FRAC_PI_2;
        let ray = vec![1.0; d];
        let sampler = CapSampler::new(&ray, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let w = sampler.sample(&mut rng);
            prop_assert!((norm(&w) - 1.0).abs() < 1e-9);
            let a = angle_between(&w, &ray).unwrap();
            prop_assert!(a <= theta + 1e-9, "angle {} > θ {}", a, theta);
        }
    }

    #[test]
    fn riemann_inverse_cdf_inverts_the_cdf(
        k in 0usize..6,
        theta in 0.05f64..1.57,
        y in 0.001f64..0.999,
    ) {
        let table = RiemannTable::new(theta, k, 4096);
        let x = table.inverse_cdf(y);
        prop_assert!((0.0..=theta + 1e-12).contains(&x));
        // F(x) recomputed analytically must be close to y.
        let f = sin_power_integral(x, k) / sin_power_integral(theta, k);
        prop_assert!((f - y).abs() < 2e-3, "F({x}) = {f} vs y = {y}");
    }

    #[test]
    fn incomplete_beta_is_monotone_cdf(a in 0.5f64..5.0, b in 0.5f64..5.0) {
        let mut prev = 0.0;
        for i in 1..=20 {
            let x = i as f64 / 20.0;
            let v = regularized_incomplete_beta(x, a, b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn partition_blocks_satisfy_their_halfspace(
        seed in 0u64..10_000,
        coeffs in prop::collection::vec(-1.0..1.0f64, 3),
        n in 10usize..300,
    ) {
        prop_assume!(coeffs.iter().any(|c| c.abs() > 1e-3));
        let mut rng = StdRng::seed_from_u64(seed);
        let buf = SampleBuffer::generate(&mut rng, n, |r| sample_orthant_direction(r, 3));
        let mut ps = PartitionedSamples::new(buf);
        let hp = OrderingExchange::from_coeffs(coeffs);
        let split = ps.partition(0, n, hp.coeffs()).split;
        for i in 0..split {
            prop_assert!(hp.eval(ps.row(i)) <= 0.0);
        }
        for i in split..n {
            prop_assert!(hp.eval(ps.row(i)) > 0.0);
        }
    }

    #[test]
    fn oracle_agrees_with_partition_count(
        seed in 0u64..10_000,
        coeffs in prop::collection::vec(-1.0..1.0f64, 3),
    ) {
        prop_assume!(coeffs.iter().any(|c| c.abs() > 1e-3));
        let mut rng = StdRng::seed_from_u64(seed);
        let buf = SampleBuffer::generate(&mut rng, 500, |r| sample_orthant_direction(r, 3));
        let region = ConeRegion::from_halfspaces(3, vec![HalfSpace::new(coeffs.clone())]);
        let s_oracle = estimate_stability(&region, &buf);
        let mut ps = PartitionedSamples::new(buf);
        let split = ps.partition(0, 500, &coeffs).split;
        let s_partition = ps.stability_of_range(split, 500);
        prop_assert!((s_oracle - s_partition).abs() < 1e-12);
    }

    #[test]
    fn complementary_regions_sum_to_one(
        seed in 0u64..10_000,
        coeffs in prop::collection::vec(-1.0..1.0f64, 4),
    ) {
        prop_assume!(coeffs.iter().any(|c| c.abs() > 1e-3));
        let mut rng = StdRng::seed_from_u64(seed);
        let buf = SampleBuffer::generate(&mut rng, 400, |r| sample_orthant_direction(r, 4));
        let h = HalfSpace::new(coeffs);
        let pos = ConeRegion::from_halfspaces(4, vec![h.clone()]);
        let neg = ConeRegion::from_halfspaces(4, vec![h.complement()]);
        let total = estimate_stability(&pos, &buf) + estimate_stability(&neg, &buf);
        // Only exact boundary hits (measure zero) can be dropped.
        prop_assert!(total <= 1.0 + 1e-12 && total > 0.99);
    }

    #[test]
    fn roi_samplers_stay_inside(seed in 0u64..10_000, theta_frac in 0.05f64..0.95) {
        let theta = theta_frac * std::f64::consts::FRAC_PI_2;
        let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], theta);
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = roi.sampler();
        for _ in 0..10 {
            let w = sampler.sample(&mut rng);
            prop_assert!(roi.contains(&w));
        }
    }

    #[test]
    fn confidence_error_monotone_in_n(m in 0.01f64..0.99, n in 10usize..10_000) {
        let e1 = confidence_error(m, n, 0.05);
        let e2 = confidence_error(m, 2 * n, 0.05);
        prop_assert!(e2 < e1);
        // And the required-samples inversion brackets correctly.
        let req = required_samples(m, 0.05, e1);
        prop_assert!(req <= n + 1);
    }
}
