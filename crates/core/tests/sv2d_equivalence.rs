//! `SV2D` on tangents must be *indistinguishable* from the per-pair angle
//! scan it replaced: bit-identical `(stability, lo, hi)`, or `None` on
//! the same inputs, across random, quarter-grid and duplicated rows,
//! pairs a hair either side of the geometric tolerance, infeasible
//! rankings, and intervals that are full, narrow, or touch either axis.

use srank_core::prelude::*;
use srank_geom::angle2d::{exchange_angle_2d, weight_from_angle_2d};
use std::f64::consts::FRAC_PI_2;

/// The pre-tangent scan, verbatim: one `atan` per adjacent pair, and the
/// bounds tightened pair by pair.
fn reference_verify(
    data: &Dataset,
    ranking: &Ranking,
    interval: AngleInterval,
) -> Option<[u64; 3]> {
    let mut lo = interval.lo();
    let mut hi = interval.hi();
    for pair in ranking.order().windows(2) {
        let (i, j) = (pair[0] as usize, pair[1] as usize);
        let t = data.item(i);
        let u = data.item(j);
        if t == u {
            if i < j {
                continue;
            }
            return None;
        }
        if data.dominates(i, j) {
            continue;
        }
        if data.dominates(j, i) {
            return None;
        }
        let Some(theta) = exchange_angle_2d(t, u) else {
            if i < j {
                continue;
            }
            return None;
        };
        if t[0] < u[0] {
            lo = lo.max(theta);
        } else {
            hi = hi.min(theta);
        }
        if lo >= hi {
            return None;
        }
    }
    Some([
        ((hi - lo) / interval.span()).to_bits(),
        lo.to_bits(),
        hi.to_bits(),
    ])
}

fn verify_bits(data: &Dataset, ranking: &Ranking, interval: AngleInterval) -> Option<[u64; 3]> {
    stability_verify_2d(data, ranking, interval)
        .unwrap()
        .map(|v| {
            [
                v.stability.to_bits(),
                v.region.lo().to_bits(),
                v.region.hi().to_bits(),
            ]
        })
}

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

/// The row families: uniform, the quarter grid, copies of five base rows,
/// and rows 1e-10 (inside `EPS`) or 2e-9 (outside it) from an earlier
/// row on one or both attributes.
fn rows(family: usize, n: usize, rng: &mut Lcg) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = match family {
            0 => vec![rng.unit(), rng.unit()],
            1 => vec![0.25 * rng.below(5) as f64, 0.25 * rng.below(5) as f64],
            2 if i >= 5 => rows[rng.below(5)].clone(),
            3 | 4 if i > 0 => {
                let gap = if family == 3 { 1e-10 } else { 2e-9 };
                let mut row = rows[rng.below(i)].clone();
                // One attribute a gap away and the other anywhere, or
                // both a gap away.
                match rng.below(3) {
                    0 => row = vec![row[0] + gap, rng.unit()],
                    1 => row = vec![rng.unit(), row[1] + gap],
                    _ => {
                        row[0] += gap;
                        row[1] -= gap.min(row[1]);
                    }
                }
                row
            }
            _ => vec![0.1 + 0.8 * rng.unit(), 0.1 + 0.8 * rng.unit()],
        };
        rows.push(row);
    }
    rows
}

/// Rankings to verify: rankings observed at random angles, each with one
/// random adjacent swap, and each with a dominated item moved directly
/// above its dominator when the ranking holds such a pair.
fn rankings(data: &Dataset, rng: &mut Lcg) -> Vec<Ranking> {
    let mut out = Vec::new();
    for _ in 0..4 {
        let observed = data
            .rank(&weight_from_angle_2d(FRAC_PI_2 * rng.unit()))
            .unwrap();
        let mut swapped = observed.order().to_vec();
        let at = rng.below(swapped.len() - 1);
        swapped.swap(at, at + 1);
        let order = observed.order();
        if let Some(p) =
            (0..order.len() - 1).find(|&p| data.dominates(order[p] as usize, order[p + 1] as usize))
        {
            let mut dominated_above = order.to_vec();
            dominated_above.swap(p, p + 1);
            out.push(Ranking::new(dominated_above).unwrap());
        }
        out.push(Ranking::new(swapped).unwrap());
        out.push(observed);
    }
    out
}

/// Intervals: full, narrow around a random angle, from 0, and to π/2.
fn intervals(rng: &mut Lcg) -> Vec<AngleInterval> {
    let center = 0.05 + 1.45 * rng.unit();
    vec![
        AngleInterval::full(),
        AngleInterval::new(center - 0.01, center + 0.01).unwrap(),
        AngleInterval::new(0.0, center).unwrap(),
        AngleInterval::new(center, FRAC_PI_2).unwrap(),
    ]
}

#[test]
fn tangent_scan_matches_the_per_pair_angle_scan_bit_for_bit() {
    let mut rng = Lcg(0x005E_ED2D);
    let (mut cases, mut feasible) = (0, 0);
    for family in 0..6 {
        for _ in 0..40 {
            let n = 2 + rng.below(60);
            let data = Dataset::from_rows(&rows(family, n, &mut rng)).unwrap();
            for interval in intervals(&mut rng) {
                for ranking in rankings(&data, &mut rng) {
                    let want = reference_verify(&data, &ranking, interval);
                    assert_eq!(
                        verify_bits(&data, &ranking, interval),
                        want,
                        "family {family}, n {n}, interval [{}, {}], ranking {:?}",
                        interval.lo(),
                        interval.hi(),
                        ranking.order()
                    );
                    cases += 1;
                    feasible += usize::from(want.is_some());
                }
            }
        }
    }
    // Both outcomes are exercised in quantity.
    assert!(
        feasible > cases / 10 && feasible < cases * 9 / 10,
        "{feasible} of {cases} feasible"
    );
}

#[test]
fn ties_within_eps_follow_the_index_order_as_before() {
    // Pairs 1e-10 apart on one attribute (an effective tie) and 2e-9
    // apart (a real exchange), both ways round.
    for gap in [1e-10, 2e-9] {
        let data =
            Dataset::from_rows(&[vec![0.5, 0.5], vec![0.5 + gap, 0.4], vec![0.3, 0.5 + gap]])
                .unwrap();
        for order in [
            [0, 1, 2],
            [1, 0, 2],
            [0, 2, 1],
            [2, 0, 1],
            [1, 2, 0],
            [2, 1, 0],
        ] {
            let ranking = Ranking::new(order.to_vec()).unwrap();
            for interval in [
                AngleInterval::full(),
                AngleInterval::new(0.0, 1e-6).unwrap(),
                AngleInterval::new(FRAC_PI_2 - 1e-6, FRAC_PI_2).unwrap(),
            ] {
                assert_eq!(
                    verify_bits(&data, &ranking, interval),
                    reference_verify(&data, &ranking, interval),
                    "gap {gap}, order {order:?}"
                );
            }
        }
    }
}
