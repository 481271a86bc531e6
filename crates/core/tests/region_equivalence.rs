//! The one-pass ranking-region builder (`ranking_region_md`,
//! `ranking_region_in`) must be *indistinguishable* from the per-pair
//! construction it replaced — one `HalfSpace` of `above − below` per kept
//! adjacent pair, with identity read from `t == u` and dominance from
//! `dominates` — bit for bit in the rows it keeps and in the rankings it
//! answers `None` for. Tables are built to stress the sign reading:
//! duplicate rows met in both index orders, dominated adjacent pairs,
//! `-0.0` against `0.0`, and rows one ulp apart.
//!
//! Under a cap region of interest the builder also drops the rows that
//! hold on the whole cap and answers `None` when one holds nowhere on it.
//! The count of the pruned region must equal the unpruned sieve's count
//! exactly, over caps of half-angle 1e-9 to π/4, clipped and unclipped,
//! caps centred on or tangent to the orthant's boundary, rows placed just
//! either side of the cap's boundary, and rankings of weights outside
//! their cap.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srank_core::prelude::*;
use srank_core::{ranking_region_in, ranking_region_md};
use srank_geom::dominance::dominates;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::region::ConeRegion;
use srank_sample::oracle::count_inside;
use srank_sample::store::SampleBuffer;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// The per-pair construction the one-pass builder replaced, verbatim but
/// for `HalfSpace::ranking_pair`, inlined: one allocation per kept pair.
fn reference_region(data: &Dataset, ranking: &Ranking, orthant: bool) -> Option<Vec<HalfSpace>> {
    let mut halfspaces = Vec::with_capacity(data.len() - 1);
    for pair in ranking.order().windows(2) {
        let (i, j) = (pair[0] as usize, pair[1] as usize);
        let t = data.item(i);
        let u = data.item(j);
        if t == u {
            if i < j {
                continue; // permanent tie in canonical index order
            }
            return None;
        }
        if orthant {
            if dominates(t, u) {
                continue;
            }
            if dominates(u, t) {
                return None;
            }
        }
        halfspaces.push(HalfSpace::new(
            t.iter().zip(u).map(|(a, b)| a - b).collect(),
        ));
    }
    Some(halfspaces)
}

/// A uniform index below `n`.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.random::<u64>() % n as u64) as usize
}

/// The reference region as a cone.
fn reference_cone(data: &Dataset, ranking: &Ranking, orthant: bool) -> Option<ConeRegion> {
    reference_region(data, ranking, orthant).map(|halfspaces| {
        let table = halfspaces.iter().flat_map(|h| h.coeffs().to_vec());
        ConeRegion::from_table(data.dim(), table.collect())
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the builder's answer equals the reference's, bit for bit.
fn assert_same(got: Option<ConeRegion>, want: Option<Vec<HalfSpace>>, what: &str) {
    match (got, want) {
        (None, None) => {}
        (Some(region), Some(halfspaces)) => {
            let rows: Vec<Vec<u64>> = region.rows().map(bits).collect();
            let reference: Vec<Vec<u64>> = halfspaces.iter().map(|h| bits(h.coeffs())).collect();
            assert_eq!(rows, reference, "{what}");
        }
        (got, want) => panic!(
            "{what}: builder {:?}, reference {:?}",
            got.map(|r| r.len()),
            want.map(|h| h.len())
        ),
    }
}

/// `n` rows of `d` attributes mixing plain random rows with the shapes
/// the sign reading must get right: copies of earlier rows, copies with
/// `0.0` and `-0.0` swapped, rows one ulp from an earlier row on one
/// attribute, and rows dominated by an earlier row. Attributes are
/// non-negative, as a dataset requires.
fn tricky_rows(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        let row = match (rows.len(), below(rng, 6)) {
            (0, _) | (_, 0) => (0..d)
                .map(|_| match below(rng, 5) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.random::<f64>(),
                })
                .collect(),
            (k, kind) => {
                let mut row = rows[below(rng, k)].clone();
                let at = below(rng, d);
                match kind {
                    1 => {}
                    2 => {
                        for x in &mut row {
                            if *x == 0.0 {
                                *x = if x.is_sign_negative() { 0.0 } else { -0.0 };
                            }
                        }
                    }
                    3 => row[at] = row[at].next_up(),
                    4 if row[at] > 0.0 => row[at] = row[at].next_down(),
                    4 => row[at] = row[at].next_up(),
                    _ => {
                        for x in &mut row {
                            *x *= 1.0 - 0.25 * rng.random::<f64>();
                        }
                    }
                }
                row
            }
        };
        rows.push(row);
    }
    rows
}

/// Random permutations (most infeasible in the orthant), rankings of
/// random weights of either sign, and each of those with a random
/// adjacent pair swapped, so identical items meet in both index orders.
fn rankings(rng: &mut StdRng, data: &Dataset, count: usize) -> Vec<Ranking> {
    let n = data.len();
    let mut out = Vec::new();
    for _ in 0..count {
        let order = if rng.random::<bool>() {
            let mut order: Vec<u32> = (0..n as u32).collect();
            for k in (1..n).rev() {
                order.swap(k, below(rng, k + 1));
            }
            order
        } else {
            let w: Vec<f64> = (0..data.dim()).map(|_| rng.random::<f64>() - 0.2).collect();
            data.rank(&w).unwrap().order().to_vec()
        };
        let mut swapped = order.clone();
        let k = below(rng, n - 1);
        swapped.swap(k, k + 1);
        out.push(Ranking::new(order).unwrap());
        out.push(Ranking::new(swapped).unwrap());
    }
    out
}

#[test]
fn one_pass_builder_matches_the_per_pair_construction() {
    let mut rng = StdRng::seed_from_u64(35);
    let (mut none, mut kept, mut skipped) = (0, 0, 0);
    for trial in 0..400 {
        let d = 1 + trial % 6;
        let n = 2 + below(&mut rng, 28);
        let data = Dataset::from_rows(&tricky_rows(&mut rng, n, d)).unwrap();
        let ray = vec![1.0; d];
        // A hemisphere cap meets every half-space it is not inside, so it
        // prunes nothing: the plain all-pairs and orthant regions.
        let hemisphere = (d >= 2).then(|| RegionOfInterest::cone(&ray, FRAC_PI_2));
        for r in rankings(&mut rng, &data, 6) {
            let what = format!("trial {trial} d {d} ranking {:?}", r.order());
            let orthant = reference_region(&data, &r, true);
            none += usize::from(orthant.is_none());
            if let Some(h) = &orthant {
                kept += h.len();
                skipped += n - 1 - h.len();
            }
            assert_same(
                ranking_region_md(&data, &r).unwrap(),
                orthant.clone(),
                &what,
            );
            let Some(cap) = &hemisphere else { continue };
            let regions = [
                (RegionOfInterest::full(d), true),
                (cap.clone(), false),
                (cap.clone().clipped_to_orthant(), true),
            ];
            for (roi, orthant) in regions {
                assert_same(
                    ranking_region_in(&data, &r, &roi).unwrap(),
                    reference_region(&data, &r, orthant),
                    &format!("{what} roi {roi:?}"),
                );
            }
        }
    }
    assert!(
        none > 0 && kept > 0 && skipped > 0,
        "{none} {kept} {skipped}"
    );
}

/// The sieve's count of `region`'s samples, 0 for no region.
fn count(region: Option<&ConeRegion>, samples: &SampleBuffer) -> usize {
    region.map_or(0, |r| count_inside(r, samples, 0, samples.len()))
}

/// A unit vector at `angle` from the unit `axis`, in the plane of `axis`
/// and the unit `across ⊥ axis`.
fn at_angle(axis: &[f64], across: &[f64], angle: f64) -> Vec<f64> {
    let (s, c) = angle.sin_cos();
    axis.iter()
        .zip(across)
        .map(|(a, b)| c * a + s * b)
        .collect()
}

/// A unit vector orthogonal to the unit `axis`.
fn orthogonal(rng: &mut StdRng, axis: &[f64]) -> Vec<f64> {
    loop {
        let v: Vec<f64> = axis.iter().map(|_| rng.random::<f64>() - 0.5).collect();
        let along: f64 = v.iter().zip(axis).map(|(x, a)| x * a).sum();
        let v: Vec<f64> = v.iter().zip(axis).map(|(x, a)| x - along * a).collect();
        let length = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if length > 1e-3 {
            return v.iter().map(|x| x / length).collect();
        }
    }
}

/// A cap's ray: 0 = interior, 1 = centred on the face `w_1 = 0`,
/// 2 = tangent to that face, 3 = centred on an axis.
fn cap_ray(rng: &mut StdRng, d: usize, kind: usize, theta: f64) -> Vec<f64> {
    let mut ray: Vec<f64> = (0..d).map(|_| 0.2 + rng.random::<f64>()).collect();
    match kind {
        1 => ray[0] = 0.0,
        2 => {
            let rest = ray[1..].iter().map(|x| x * x).sum::<f64>().sqrt();
            ray[0] = rest * theta.tan();
        }
        3 => {
            ray.fill(0.0);
            ray[d - 1] = 1.0;
        }
        _ => {}
    }
    ray
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cap_pruned_count_equals_the_unpruned_count(
        d in 2usize..6,
        n in 2usize..24,
        log_theta in -9.0..(FRAC_PI_4.log10()),
        kind in 0usize..4,
        clipped in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let theta = 10f64.powf(log_theta);
        let ray = cap_ray(&mut rng, d, kind, theta);
        let mut roi = RegionOfInterest::cone(&ray, theta);
        if clipped == 1 {
            roi = roi.clipped_to_orthant();
        }
        let RegionOfInterest::Cone { ray: axis, .. } = roi.clone() else {
            unreachable!("a cone region of interest")
        };
        let samples = roi.sampler().sample_buffer(&mut rng, 1500);
        // Random rows, and pairs of rows whose difference sits at an
        // angle `π/2 ∓ (θ ± μ)` from the axis: its plane just clears the
        // cap or just cuts it, on the cap's near side or its far side,
        // for `μ` from 1e-12 to 1e-5.
        let mut rows = tricky_rows(&mut rng, n, d);
        let across = orthogonal(&mut rng, &axis);
        for (k, &mu) in [1e-12, 1e-9, 1e-8, 5e-8, 1e-7, 2e-7, 1e-6, 1e-5].iter().enumerate() {
            let off = theta + if rng.random::<bool>() { mu } else { -mu };
            let angle = if k % 2 == 0 { FRAC_PI_2 - off } else { FRAC_PI_2 + off };
            let a = at_angle(&axis, &across, angle);
            let base: Vec<f64> = (0..d).map(|_| 2.0 + rng.random::<f64>()).collect();
            rows.push(base.iter().zip(&a).map(|(b, x)| b + x).collect());
            rows.push(base);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let orthant = clipped == 1;
        let mut weights: Vec<Vec<f64>> = (0..3).map(|_| roi.sampler().sample(&mut rng)).collect();
        // Weights outside their cap: any direction, either sign.
        weights.extend((0..3).map(|_| (0..d).map(|_| rng.random::<f64>() - 0.3).collect::<Vec<_>>()));
        let mut orders: Vec<Ranking> = weights.iter().map(|w| data.rank(w).unwrap()).collect();
        // Each designed pair on top, in both orders, above the rest.
        for p in (n..rows.len()).step_by(2) {
            for top in [[p, p + 1], [p + 1, p]] {
                let mut order: Vec<u32> = top.iter().map(|&i| i as u32).collect();
                order.extend((0..rows.len() as u32).filter(|&i| i as usize != p && i as usize != p + 1));
                orders.push(Ranking::new(order).unwrap());
            }
        }
        for r in orders {
            let full = reference_cone(&data, &r, orthant);
            let pruned = ranking_region_in(&data, &r, &roi).unwrap();
            if let (Some(p), Some(f)) = (&pruned, &full) {
                prop_assert!(p.len() <= f.len());
            }
            prop_assert_eq!(
                count(pruned.as_ref(), &samples),
                count(full.as_ref(), &samples),
                "ranking {:?}: pruned {:?} full {:?}", r.order(), pruned.as_ref().map(ConeRegion::len), full.as_ref().map(ConeRegion::len)
            );
        }
    }
}

/// A narrow cap inside every half-space of its ranking keeps none, so
/// the count is every sample with no test; a cap wholly outside one of
/// them answers `None`, where the unpruned region counts no sample.
#[test]
fn narrow_caps_prune_to_an_empty_table_or_to_none() {
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..4).map(|_| rng.random::<f64>()).collect())
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let around = [0.4, 0.3, 0.2, 0.1];
    let r = data.rank(&around).unwrap();
    for roi in [
        RegionOfInterest::cone(&around, 1e-6),
        RegionOfInterest::cone(&around, 1e-6).clipped_to_orthant(),
    ] {
        let samples = roi.sampler().sample_buffer(&mut rng, 4000);
        let region = ranking_region_in(&data, &r, &roi).unwrap().unwrap();
        assert!(region.is_empty(), "kept {} rows", region.len());
        assert_eq!(count(Some(&region), &samples), samples.len());
        // Swapping the top pair puts the cap outside that pair's plane.
        let mut order = r.order().to_vec();
        order.swap(0, 1);
        let swapped = Ranking::new(order).unwrap();
        assert!(ranking_region_in(&data, &swapped, &roi).unwrap().is_none());
        let full = reference_cone(&data, &swapped, false);
        assert_eq!(count(full.as_ref(), &samples), 0);
    }
}

/// The pruning margin rests on the cap sampler's rounding: no sample lies
/// more than about `√ε` past its cap's half-angle, even for rays along or
/// near an axis (where the sampler's rotation angles come from `acos`
/// near 1) and half-angles whose cosine rounds to one ulp below 1 (the
/// `d = 3` closed form). The builder's margin is 1e-7, ten times the
/// bound asserted here.
#[test]
fn cap_samples_stay_within_the_pruning_margin_of_their_cap() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut worst = 0.0f64;
    for d in 2..=7 {
        for trial in 0..24 {
            let mut ray: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            match trial % 4 {
                1 => ray.iter_mut().skip(1).for_each(|x| *x *= 1e-9),
                2 => ray.iter_mut().take(d - 1).for_each(|x| *x *= 1e-7),
                3 => ray[0] = 0.0,
                _ => {}
            }
            let theta = [1.1e-8, 1.3e-8, 1e-6, 1e-3, 0.3, FRAC_PI_4][trial / 4];
            let roi = RegionOfInterest::cone(&ray, theta);
            let RegionOfInterest::Cone { ray: axis, .. } = &roi else {
                unreachable!("a cone region of interest")
            };
            for w in roi.sampler().sample_buffer(&mut rng, 4000).iter_rows() {
                // The angle to the axis as `2·asin(|ŵ − c| / 2)`, which
                // keeps its precision near 0.
                let length = w.iter().map(|x| x * x).sum::<f64>().sqrt();
                let chord = w
                    .iter()
                    .zip(axis)
                    .map(|(x, c)| (x / length - c).powi(2))
                    .sum::<f64>()
                    .sqrt();
                worst = worst.max(2.0 * (chord / 2.0).asin() - theta);
            }
        }
    }
    assert!(worst < 1e-8, "a sample lies {worst:e} past its cap");
}
