//! The one-interval τ-tolerant kernel, `tau_stability_2d`, must agree with
//! the reference it replaced: `tau_tolerant_stability` over the stored
//! 2-D enumeration, within 1e-12 relative (absolute where the reference
//! reads 0). Covered: random, quarter-grid and duplicated rows; the full
//! interval and a narrow one; weights at a random angle, exactly on an
//! exchange angle, outside the region of interest and on either axis;
//! τ = 0, small τ, and τ past every pair.

use proptest::prelude::*;
use srank_core::prelude::*;
use srank_geom::angle2d::{exchange_angle_2d, weight_from_angle_2d};
use std::f64::consts::FRAC_PI_2;

struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The row families: uniform, the quarter grid, and copies of five base
/// rows.
fn rows(family: usize, n: usize, rng: &mut Lcg) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = match family {
            0 => vec![rng.unit(), rng.unit()],
            1 => vec![0.25 * rng.below(5) as f64, 0.25 * rng.below(5) as f64],
            _ if i >= 5 => rows[rng.below(5)].clone(),
            _ => vec![rng.unit(), rng.unit()],
        };
        rows.push(row);
    }
    rows
}

/// The weights to center on: a random angle, an exchange angle of the
/// data, an angle outside a narrow interval, and both axes.
fn centers(data: &Dataset, interval: AngleInterval, rng: &mut Lcg) -> Vec<[f64; 2]> {
    let mut out = vec![
        weight_from_angle_2d(FRAC_PI_2 * rng.unit()),
        [0.0, 1.0],
        [1.0, 0.0],
    ];
    let n = data.len();
    let exchanges: Vec<f64> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter_map(|(i, j)| exchange_angle_2d(data.item(i), data.item(j)))
        .collect();
    if !exchanges.is_empty() {
        out.push(weight_from_angle_2d(exchanges[rng.below(exchanges.len())]));
    }
    if interval.lo() > 0.0 {
        out.push(weight_from_angle_2d(interval.lo() * rng.unit()));
    }
    if interval.hi() < FRAC_PI_2 {
        out.push(weight_from_angle_2d(
            interval.hi() + (FRAC_PI_2 - interval.hi()) * rng.unit(),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn kernel_matches_the_stored_enumeration(
        family in 0usize..3,
        n in 1usize..24,
        narrow in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Lcg(seed);
        let data = Dataset::from_rows(&rows(family, n, &mut rng)).unwrap();
        let interval = if narrow == 1 {
            let lo = 1.3 * rng.unit();
            AngleInterval::new(lo, lo + 0.02 + 0.25 * rng.unit()).unwrap()
        } else {
            AngleInterval::full()
        };
        let mut sweep = Enumerator2D::new(&data, interval).unwrap();
        let enumeration: Vec<(Ranking, f64)> = std::iter::from_fn(|| sweep.get_next())
            .map(|s| (s.ranking, s.stability))
            .collect();
        let all_pairs = n * (n - 1) / 2;
        for w in centers(&data, interval, &mut rng) {
            let center = data.rank(&w).unwrap();
            for tau in [0, 1, 2, 1 + rng.below(all_pairs + 1), all_pairs + 1] {
                let want = tau_tolerant_stability(&center, &enumeration, tau).unwrap();
                let got = tau_stability_2d(&data, &w, interval, tau).unwrap();
                let err = if want == 0.0 {
                    got.abs()
                } else {
                    ((got - want) / want).abs()
                };
                prop_assert!(
                    err <= 1e-12,
                    "w = {:?}, interval = [{}, {}], tau = {}: kernel {} vs reference {}",
                    w, interval.lo(), interval.hi(), tau, got, want
                );
            }
        }
    }
}

#[test]
fn tau_past_every_pair_covers_the_interval() {
    let data = Dataset::figure1();
    for w in [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.3, 0.7]] {
        let all = tau_stability_2d(&data, &w, AngleInterval::full(), 10).unwrap();
        assert!((all - 1.0).abs() < 1e-15, "{w:?}: {all}");
    }
}

#[test]
fn out_of_quadrant_weights_and_non_2d_data_are_rejected() {
    let data = Dataset::figure1();
    let full = AngleInterval::full();
    for w in [[-1.0, 1.0], [1.0, -0.5], [0.0, 0.0], [f64::NAN, 1.0]] {
        assert!(
            tau_stability_2d(&data, &w, full, 1).is_err(),
            "{w:?} accepted"
        );
    }
    assert!(tau_stability_2d(&data, &[1.0, 1.0, 1.0], full, 1).is_err());
    let three_d = Dataset::from_rows(&[vec![0.1, 0.2, 0.3]]).unwrap();
    assert!(tau_stability_2d(&three_d, &[1.0, 1.0], full, 1).is_err());
}
