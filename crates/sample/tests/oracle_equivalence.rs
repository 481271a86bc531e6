//! The block-sieve oracle (`oracle::count_inside`) and the grid-indexed
//! count (`oracle::count_inside_indexed`) must count exactly the samples
//! the sample-by-sample reference admits:
//! `(lo..hi).filter(|&i| region.contains_with_tol(row(i), 0.0)).count()`.
//! Inputs are built to stress them: every dimension from 1 to 8 (the
//! constant-`d` and the runtime-`d` kernels), half-space counts of 0, 1,
//! 2, 3, odd and many, sample ranges that are empty, unaligned to a block
//! or span several blocks, quarter-grid samples and coefficients (so some
//! slacks are exactly 0 and `>` vs `>=` shows, and samples sit exactly on
//! cell edges), regions holding most samples (so the deep sieve passes
//! run, and the indexed count tests almost every sample), all-identical
//! samples, signed cone samples, and buffers mutated after their index
//! was built. `oracle::count_inside_chunked`, the count of a service
//! verify, must count the same on both sides of its batch-size cut.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_geom::region::ConeRegion;
use srank_sample::oracle::{
    count_inside, count_inside_chunked, count_inside_indexed, IndexedCount, BLOCK,
    INDEX_MIN_SAMPLES,
};
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use std::convert::Infallible;
use std::sync::Barrier;

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
    let table = (0..m * d).map(|_| grid(&mut next, coeff_lo, 4)).collect();
    (samples, ConeRegion::from_table(d, table))
}

fn reference(region: &ConeRegion, samples: &SampleBuffer, lo: usize, hi: usize) -> usize {
    (lo..hi)
        .filter(|&i| region.contains_with_tol(samples.row(i), 0.0))
        .count()
}

/// The indexed count over the whole buffer, with no deadline.
fn indexed(region: &ConeRegion, samples: &SampleBuffer) -> IndexedCount {
    count_inside_indexed(region, samples, BLOCK, || Ok::<(), Infallible>(()))
        .unwrap_or_else(|never| match never {})
}

/// The address of the buffer's grid index, built with no deadline.
fn index_address(samples: &SampleBuffer) -> usize {
    let index = samples.grid_index(BLOCK, || Ok::<(), Infallible>(()));
    index.unwrap_or_else(|never| match never {}) as *const _ as usize
}

/// Asserts that the indexed count equals the reference on the region and
/// on the same half-spaces reversed, which prune with other half-spaces.
fn assert_indexed_matches(region: &ConeRegion, samples: &SampleBuffer, what: &str) {
    let expected = reference(region, samples, 0, samples.len());
    let reversed = ConeRegion::from_table(
        region.dim(),
        region.rows().rev().flatten().copied().collect(),
    );
    for (region, order) in [(region, "in order"), (&reversed, "reversed")] {
        let got = indexed(region, samples);
        assert_eq!(got.inside, expected, "{what}, {order}");
        assert!(got.tested <= samples.len(), "{what}: tested {}", got.tested);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_count_counts_what_the_reference_counts(
        shape in 0usize..3,
        d in 1usize..9,
        m in 0usize..HALFSPACES.len(),
        seed in 0u64..1_000_000,
    ) {
        let (samples, region) = case(shape, d, HALFSPACES[m], seed);
        assert_indexed_matches(&region, &samples, &format!("shape {shape} d {d} m {}", HALFSPACES[m]));
    }

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
                assert_indexed_matches(&region, &samples, &format!("d {d} m {m} shape {shape}"));
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

/// Quarter-grid samples spanning exactly `[0, 1]` in every coordinate put
/// samples on the cell edges, and quarter-grid coefficients make slacks
/// and box bounds exactly 0 there: a box bound that skipped a node with a
/// positive-slack sample, or kept a zero slack, shows here.
#[test]
fn samples_on_cell_edges_count_exactly() {
    for d in 1..=6 {
        for seed in 0..12u64 {
            let mut next = lcg(seed * 97 + d as u64);
            let mut samples = SampleBuffer::new(d);
            samples.push(&vec![0.0; d]);
            samples.push(&vec![1.0; d]);
            for _ in 0..3000 {
                let w: Vec<f64> = (0..d).map(|_| grid(&mut next, 0, 4) / 4.0).collect();
                samples.push(&w);
            }
            for m in [1, 2, 5, 40] {
                let table = (0..m * d).map(|_| grid(&mut next, -4, 4)).collect();
                let region = ConeRegion::from_table(d, table);
                assert_indexed_matches(
                    &region,
                    &samples,
                    &format!("edges d {d} seed {seed} m {m}"),
                );
            }
        }
    }
}

/// All samples equal: every coordinate's range has zero width, so the
/// root box is a point.
#[test]
fn identical_samples_form_a_zero_width_box() {
    for d in 1..=5 {
        let point: Vec<f64> = (0..d).map(|k| 0.25 + 0.125 * k as f64).collect();
        let mut samples = SampleBuffer::new(d);
        for _ in 0..2000 {
            samples.push(&point);
        }
        let mut next = lcg(d as u64);
        for m in [1, 3, 40] {
            let table = (0..m * d).map(|_| grid(&mut next, -1, 4)).collect();
            let region = ConeRegion::from_table(d, table);
            assert_indexed_matches(&region, &samples, &format!("identical d {d} m {m}"));
        }
    }
}

/// Signed samples from an unclipped cone that leans out of the orthant
/// (the cap sampler), against regions of ranking-like half-spaces.
#[test]
fn signed_cone_samples_count_exactly() {
    for d in 2..=6 {
        let ray: Vec<f64> = (0..d).map(|k| if k == 0 { 0.1 } else { 1.0 }).collect();
        let roi = RegionOfInterest::cone(&ray, 0.9);
        let samples = roi
            .sampler()
            .sample_buffer(&mut StdRng::seed_from_u64(d as u64), 20_000);
        assert!(
            samples.iter_rows().any(|w| w.iter().any(|&x| x < 0.0)),
            "d {d}: the cone reaches past the orthant"
        );
        let mut next = lcg(7 * d as u64);
        for m in [1, 2, 9, 40] {
            let table = (0..m * d).map(|_| 2.0 * next() - 1.0).collect();
            let region = ConeRegion::from_table(d, table);
            assert_indexed_matches(&region, &samples, &format!("cone d {d} m {m}"));
        }
    }
}

/// The index is dropped by every mutation: counts after `push`,
/// `swap_rows` and `rotate_rows_left` see the mutated rows, not the index
/// built before them.
#[test]
fn mutations_after_the_index_is_built_are_counted() {
    let d = 3;
    // Only rows with a first coordinate above 0.9 are inside.
    let region = ConeRegion::from_table(d, vec![1.0, -0.9, -0.9]);
    let mut next = lcg(3);
    let mut samples = SampleBuffer::new(d);
    for _ in 0..4000 {
        let w: Vec<f64> = (0..d).map(|_| 0.5 * next()).collect();
        samples.push(&w);
    }
    let check = |samples: &SampleBuffer, what: &str| {
        assert_eq!(
            indexed(&region, samples).inside,
            reference(&region, samples, 0, samples.len()),
            "{what}"
        );
    };
    check(&samples, "before");
    samples.push(&[1.0, 0.0, 0.0]);
    check(&samples, "after push");
    let last = samples.len() - 1;
    samples.swap_rows(0, last);
    check(&samples, "after swap");
    samples.rotate_rows_left(0, 2000, 1);
    check(&samples, "after rotate");
    let cloned = samples.clone();
    check(&cloned, "clone");
    assert_eq!(cloned, samples);
}

/// Two threads that count on one fresh buffer at the same moment build
/// the index once and share it.
#[test]
fn concurrent_first_counts_share_one_index() {
    let (samples, region) = case(0, 4, 40, 11);
    let expected = reference(&region, &samples, 0, samples.len());
    let barrier = Barrier::new(2);
    let indices = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(indexed(&region, &samples).inside, expected);
                    index_address(&samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("counting thread"))
            .collect::<Vec<_>>()
    });
    assert_eq!(indices[0], indices[1]);
    assert_eq!(indices[0], index_address(&samples));
}

/// The checkpoint runs after the index build and every `chunk` samples
/// tested, on a region holding few samples and on one holding most; its
/// first error abandons the count.
#[test]
fn checkpoints_bound_the_work_between_them() {
    for (shape, sparse) in [(0, true), (2, false)] {
        let (samples, region) = case(shape, 4, 9, 5);
        let n = samples.len();
        for chunk in [1, 64, BLOCK] {
            let mut calls = 0;
            let got = count_inside_indexed(&region, &samples, chunk, || {
                calls += 1;
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
            assert_eq!(got.inside, reference(&region, &samples, 0, n));
            assert_eq!(got.tested < n / 4, sparse, "shape {shape}: {got:?}");
            assert!(
                calls * chunk >= got.tested.max(1),
                "shape {shape} chunk {chunk}: {calls} calls for {got:?}"
            );
            let stopped = count_inside_indexed(&region, &samples, chunk, || Err("late"));
            assert_eq!(stopped, Err("late"));
        }
    }
    let (samples, region) = case(2, 4, 9, 5);
    let n = samples.len();
    // A buffer within one chunk never checks.
    let got = count_inside_indexed(&region, &samples, n, || Err("late"));
    assert_eq!(
        got.map(|c| c.inside),
        Ok(reference(&region, &samples, 0, n))
    );
}

/// The index build checks between `chunk`-sample slices of each of its
/// three passes, and a failed check abandons the build and keeps
/// nothing: the next count builds the index again.
#[test]
fn the_index_build_checks_between_slices_and_keeps_nothing_when_stopped() {
    let (samples, region) = case(0, 4, 9, 5);
    let n = samples.len();
    let expected = reference(&region, &samples, 0, n);
    for chunk in [1, 64, BLOCK] {
        let count = |samples: &SampleBuffer| {
            let mut calls = 0;
            let got = count_inside_indexed(&region, samples, chunk, || {
                calls += 1;
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
            assert_eq!(got.inside, expected, "chunk {chunk}");
            calls
        };
        let fresh = samples.clone();
        let building = count(&fresh);
        let built = count(&fresh);
        assert_eq!(
            building - built,
            3 * (n.div_ceil(chunk) - 1),
            "chunk {chunk}: the build's checks"
        );
        for fail_at in [1, 2 * (n.div_ceil(chunk) - 1)] {
            let stopped = samples.clone();
            let mut calls = 0;
            let got = count_inside_indexed(&region, &stopped, chunk, || {
                calls += 1;
                if calls == fail_at {
                    Err("late")
                } else {
                    Ok(())
                }
            });
            assert_eq!(
                got,
                Err("late"),
                "chunk {chunk}, stopped at check {fail_at}"
            );
            assert_eq!(calls, fail_at, "the first error ends the build");
            assert_eq!(count(&stopped), building, "chunk {chunk}: built again");
        }
    }
}

/// A service verify's count sieves a batch under `INDEX_MIN_SAMPLES`
/// samples in `chunk`-sample slices, building no index, and counts a
/// larger one through the index; both equal the reference.
#[test]
fn chunked_count_sieves_small_batches_and_indexes_large_ones() {
    let d = 4;
    let roi = RegionOfInterest::full(d);
    let mut next = lcg(21);
    for n in [INDEX_MIN_SAMPLES - 1, INDEX_MIN_SAMPLES] {
        let samples = roi
            .sampler()
            .sample_buffer(&mut StdRng::seed_from_u64(n as u64), n);
        for m in [2, 9, 40] {
            let table = (0..m * d).map(|_| 2.0 * next() - 1.0).collect();
            let region = ConeRegion::from_table(d, table);
            let chunk = 1000;
            let mut calls = 0;
            let got = count_inside_chunked(&region, &samples, chunk, || {
                calls += 1;
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
            assert_eq!(got, reference(&region, &samples, 0, n), "n {n} m {m}");
            if n < INDEX_MIN_SAMPLES {
                assert_eq!(calls, n.div_ceil(chunk) - 1, "n {n}: one check per slice");
            }
            assert_eq!(
                count_inside_chunked(&region, &samples, chunk, || Err("late")),
                Err("late")
            );
        }
    }
}
