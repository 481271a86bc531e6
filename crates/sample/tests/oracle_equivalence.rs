//! The block-sieve oracle (`oracle::count_inside`) must count exactly the
//! samples the sample-by-sample reference admits:
//! `(lo..hi).filter(|&i| region.contains_with_tol(row(i), 0.0)).count()`.
//! Inputs are built to stress it: every dimension from 1 to 8 (the
//! constant-`d` and the runtime-`d` sieve), half-space counts of 0, 1, 2,
//! 3, odd and many, sample ranges that are empty, unaligned to a block or
//! span several blocks, quarter-grid samples and coefficients (so some
//! slacks are exactly 0 and `>` vs `>=` shows), and regions holding most
//! samples, so the deep passes run.

use proptest::prelude::*;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::region::ConeRegion;
use srank_sample::oracle::{count_inside, BLOCK};
use srank_sample::store::SampleBuffer;

const HALFSPACES: [usize; 8] = [0, 1, 2, 3, 4, 5, 9, 40];

/// `[lo, hi)` ranges over a buffer of `2·BLOCK + 37` samples.
const RANGES: [(usize, usize); 7] = [
    (0, 2 * BLOCK + 37),
    (0, 0),
    (BLOCK + 5, BLOCK + 5),
    (3, 4),
    (17, BLOCK - 1),
    (BLOCK - 3, 2 * BLOCK + 1),
    (1, 2 * BLOCK + 37),
];

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// A value on the quarter grid `{lo/4, …, hi/4}`.
fn grid(next: &mut impl FnMut() -> f64, lo: i32, hi: i32) -> f64 {
    let steps = (hi - lo + 1) as f64;
    f64::from(lo + ((next() * steps) as i32).min(hi - lo)) / 4.0
}

/// Samples and a region of `m` half-spaces in one of three shapes:
/// 0 = signed samples and coefficients in `[-1, 1]` (regions hold few
/// samples), 1 = non-negative samples against mostly positive
/// coefficients, 2 = non-negative samples against positive coefficients
/// (only the all-zero sample fails, on exactly-zero slacks). Shape 2
/// keeps almost every sample inside, so every sieve pass has survivors
/// to compact.
fn case(shape: usize, d: usize, m: usize, seed: u64) -> (SampleBuffer, ConeRegion) {
    let mut next = lcg(seed);
    let (sample_lo, coeff_lo) = match shape {
        0 => (-4, -4),
        1 => (0, -1),
        _ => (0, 1),
    };
    let mut samples = SampleBuffer::new(d);
    for _ in 0..2 * BLOCK + 37 {
        let w: Vec<f64> = (0..d).map(|_| grid(&mut next, sample_lo, 4)).collect();
        samples.push(&w);
    }
    let halfspaces = (0..m)
        .map(|_| HalfSpace::new((0..d).map(|_| grid(&mut next, coeff_lo, 4)).collect()))
        .collect();
    (samples, ConeRegion::from_halfspaces(d, halfspaces))
}

fn reference(region: &ConeRegion, samples: &SampleBuffer, lo: usize, hi: usize) -> usize {
    (lo..hi)
        .filter(|&i| region.contains_with_tol(samples.row(i), 0.0))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sieve_counts_what_the_reference_counts(
        shape in 0usize..3,
        d in 1usize..9,
        m in 0usize..HALFSPACES.len(),
        range in 0usize..RANGES.len(),
        seed in 0u64..1_000_000,
    ) {
        let (samples, region) = case(shape, d, HALFSPACES[m], seed);
        let (lo, hi) = RANGES[range];
        prop_assert_eq!(
            count_inside(&region, &samples, lo, hi),
            reference(&region, &samples, lo, hi),
            "shape {} d {} m {} [{}, {})", shape, d, HALFSPACES[m], lo, hi
        );
    }
}

/// Every dimension and half-space count on the full multi-block range,
/// with regions that keep most samples — the deep passes must run and
/// still agree.
#[test]
fn deep_passes_agree_on_every_dimension_and_halfspace_count() {
    let all = 2 * BLOCK + 37;
    for d in 1..=8 {
        for m in HALFSPACES {
            for shape in [1, 2] {
                let (samples, region) = case(shape, d, m, 31 * d as u64 + m as u64);
                let expected = reference(&region, &samples, 0, all);
                assert_eq!(
                    count_inside(&region, &samples, 0, all),
                    expected,
                    "d {d} m {m} shape {shape}"
                );
                // Counting in unaligned slices adds up to the whole.
                let split = count_inside(&region, &samples, 0, BLOCK + 3)
                    + count_inside(&region, &samples, BLOCK + 3, all);
                assert_eq!(split, expected, "d {d} m {m} shape {shape} split");
                if shape == 2 {
                    assert!(expected > all / 2, "d {d} m {m}: {expected} of {all}");
                }
            }
        }
    }
}

#[test]
fn empty_and_reversed_ranges_count_nothing() {
    let (samples, region) = case(2, 4, 3, 5);
    assert_eq!(count_inside(&region, &samples, 7, 7), 0);
    assert_eq!(count_inside(&region, &samples, 9, 4), 0);
    assert_eq!(count_inside(&region, &SampleBuffer::new(4), 0, 0), 0);
}
